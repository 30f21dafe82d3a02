"""The inputs a caller builds: positions, the array, the power budget and the
scenario that holds them, each checked when it is built.

Positions use a right-handed frame with z as altitude.  The antenna array is
an M x N rectangular grid in the horizontal plane with rows aligned to the
platform heading.  The solvers, the sweeps and the CLI all take one
:class:`ScenarioConfig`.
"""

import math
import numbers
import operator
import sys
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0
_NOT_FINITE = "power budget values must be finite"

# Below this horizontal separation in meters the ground axis is undefined.
_FLAT_EPS = 1e-9


def _store_floats(obj, names, message: str, above: float = -math.inf) -> None:
    """Store each field of ``obj`` in ``names`` as a Python float, and raise
    ValueError(``message``) unless it is finite and greater than ``above``.
    The conversion is float(x) in C, except that a str or bytes raises
    TypeError; a float is kept as it is."""
    for name in names:
        if type(value := getattr(obj, name)) is not float:
            try:
                value = math.ldexp(value, 0)
            except OverflowError:  # an int past the float range
                value = math.inf
            object.__setattr__(obj, name, value)
        if not above < value < math.inf:
            raise ValueError(message)


@dataclass(frozen=True)
class Position3D:
    """A finite point in meters; z is altitude above the ground plane.  Each
    coordinate is stored as a Python float."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self) -> None:
        _store_floats(self, "xyz", "position coordinates must be finite")


@dataclass(frozen=True)
class ArrayGeometry:
    """Rectangular array layout: ``m_rows`` x ``n_cols`` elements spaced
    ``spacing_m`` apart, fed at ``carrier_hz``.

    ``spacing_m`` defaults to half the carrier wavelength, for which the
    per-element phase coefficient reduces to exactly pi; the kernel and the
    placement schemes' null equations both use :attr:`phase_coef`.  The
    element count, and :attr:`phase_coef` times the larger dimension, must
    stay within the float range.  Counts of any integer type are stored as
    Python ints, so no product of them wraps, and the carrier and spacing as
    Python floats.
    """

    m_rows: int
    n_cols: int
    carrier_hz: float
    spacing_m: float | None = None

    def __post_init__(self) -> None:
        for name in ("m_rows", "n_cols"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError("array dimensions must be integers")
            object.__setattr__(self, name, operator.index(count))
        if self.m_rows < 1 or self.n_cols < 1:
            raise ValueError("array needs at least one element per axis")
        _store_floats(self, ("carrier_hz",),
                      "carrier frequency must be finite and positive", above=0.0)
        if self.spacing_m is None:
            object.__setattr__(
                self, "spacing_m", SPEED_OF_LIGHT / (2.0 * self.carrier_hz)
            )
        # A default spacing overflows for a carrier below ~1e-300 Hz.
        _store_floats(self, ("spacing_m",),
                      "element spacing must be finite and positive", above=0.0)
        # The kernel divides by the element count and scales phase_coef by
        # either dimension, in floats.  The count goes first: once it fits a
        # float, so does the dimension the phase check converts.
        if self.size > sys.float_info.max:
            raise ValueError("array element count overflows the float range")
        if not math.isfinite(max(self.m_rows, self.n_cols) * self.phase_coef):
            raise ValueError("array phase span overflows the float range")

    @property
    def size(self) -> int:
        return self.m_rows * self.n_cols

    @property
    def phase_coef(self) -> float:
        """Phase advance in radians per element index per unit direction
        cosine: 2*pi*f*d/c (pi at half-wavelength spacing)."""
        return 2.0 * math.pi * self.carrier_hz * self.spacing_m / SPEED_OF_LIGHT


@dataclass(frozen=True)
class PowerConfig:
    """Power budget: ``alpha`` of ``total_power_w`` goes to the confidential
    signal, the rest to artificial noise; per-receiver noise floors in W.
    Each value is stored as a Python float."""

    total_power_w: float
    alpha: float
    noise_b_w: float
    noise_e_w: float

    def __post_init__(self) -> None:
        names = ("total_power_w", "alpha", "noise_b_w", "noise_e_w")
        _store_floats(self, names, _NOT_FINITE)
        if self.total_power_w <= 0.0:
            raise ValueError("total power must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.noise_b_w <= 0.0 or self.noise_e_w <= 0.0:
            raise ValueError("noise powers must be positive")
        # Finite P/sigma^2 at both nodes keeps every SINR, and so every rate, finite.
        p = self.total_power_w
        if not all(map(math.isfinite, (p / self.noise_b_w, p / self.noise_e_w))):
            raise ValueError("the SNR, total power over a noise power, must be finite")


@dataclass(frozen=True)
class ScenarioConfig:
    """One complete study setup.

    ``bob`` is the intended receiver, ``eve`` the eavesdropper; both must sit
    on the ground (z = 0), at least 1e-9 m apart horizontally and no farther
    than the floats hold, or no solving frame has them on its x axis: all
    checked here, so the frame builder checks nothing.  ``yaw`` is the
    transmitter heading measured from the receiver-to-eavesdropper axis;
    it and ``uav_height_m`` are stored as Python floats.  ``seed`` drives
    the one randomized part of a run, the baseline draws; one of any integer
    type is stored as a Python int.
    """

    array: ArrayGeometry
    bob: Position3D
    eve: Position3D
    uav_height_m: float
    yaw: float
    power: PowerConfig
    seed: int = 0

    def __post_init__(self) -> None:
        _store_floats(self, ("uav_height_m",),
                      "platform height must be finite and positive", above=0.0)
        if self.bob.z or self.eve.z:  # the kernel and null equations assume it
            raise ValueError("the placement schemes need both ground nodes at z = 0")
        separation = math.hypot(self.eve.x - self.bob.x, self.eve.y - self.bob.y)
        if separation < _FLAT_EPS:
            raise ValueError("ground nodes coincide; no axis to align")
        if separation == math.inf:  # both nodes are finite, so it overflowed
            raise ValueError(
                "ground nodes too far apart; their separation overflows the float range"
            )
        _store_floats(self, ("yaw",), "yaw must be finite")
        # numpy integers pass, as ArrayGeometry's counts do.
        seed = self.seed
        integral = isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
        if not (integral and seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        object.__setattr__(self, "seed", operator.index(seed))
