"""Transmit construction and link metrics.

The confidential stream is beamformed with the receiver's own steering
vector, and artificial noise is projected onto the orthogonal complement of
that vector.  The receiver therefore sees no noise leakage and its SINR is
alpha*P/sigma_b^2 at every transmitter position; the eavesdropper's SINR is
governed entirely by the correlation rho between the two steering vectors.
Secrecy rate is log2(1+SINR_b) - log2(1+SINR_e), clipped at zero.

|rho| for transmitter positions comes from one kernel, in floats or over
numpy arrays, :func:`correlation_magnitude`, which every caller shares.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import InvalidCorrelation
from .geometry import canonicalize_frame

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import ScenarioConfig


_NOT_FINITE = "power budget values must be finite"


@dataclass(frozen=True)
class PowerConfig:
    """Power budget: ``alpha`` of ``total_power_w`` goes to the confidential
    signal, the rest to artificial noise; per-receiver noise floors in W."""

    total_power_w: float
    alpha: float
    noise_b_w: float
    noise_e_w: float

    def __post_init__(self) -> None:
        values = (self.total_power_w, self.alpha, self.noise_b_w, self.noise_e_w)
        if not all(map(math.isfinite, values)):
            raise ValueError(_NOT_FINITE)
        if self.total_power_w <= 0.0:
            raise ValueError("total power must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.noise_b_w <= 0.0 or self.noise_e_w <= 0.0:
            raise ValueError("noise powers must be positive")


def _correlation_power(rho) -> float:
    """|rho|^2, clipped to 1 after rounding; InvalidCorrelation beyond it."""
    mag2 = abs(rho) ** 2
    if mag2 > 1.0 + 2e-9:
        raise InvalidCorrelation(f"|rho| = {math.sqrt(mag2):.6g} exceeds 1")
    return min(mag2, 1.0)


# correlation_magnitude's one-point backend, numpy's names; 0/0 (on a node) is nan.
SCALAR = SimpleNamespace(
    arctan2=math.atan2, hypot=math.hypot, cos=math.cos, sin=math.sin, exp=cmath.exp,
    divide=lambda a, b: a / b if b else math.nan,
)


def _axis_sum_magnitude(xp, count: int, step):
    """|sum(exp(1j*i*step) for i in range(count))|, elementwise over ``step``.

    Binary doubling over the bits of ``count`` from the top: with S(j) the
    sum of the first j terms and r the rotor exp(1j*step),

        S(2j) = S(j) * (1 + r^j)    and    S(j+1) = S(j) + r^j,

    ~2*log2(count) complex products, and no limit handling at a step that is
    a multiple of 2*pi.  The products are not taken in place: numpy's
    in-place complex multiply can round a one-element array differently.
    """
    rotor = xp.exp(1j * step)
    total, power = 1.0, rotor  # S(j) and r^j at j = 1
    for bit in bin(count)[3:]:
        total = total * (1.0 + power)
        power = power * power
        if bit == "1":
            total = total + power
            power = power * rotor
    return abs(total)


def correlation_magnitude(scenario: "ScenarioConfig", x_e: float, x, y, z, xp):
    """|h_e^H h_b| for transmitters at canonical-frame points (x, y, z).

    The one evaluation of the correlation in the package: certification,
    the sweeps' baselines and the correlation map all call it.  The
    canonical frame (:func:`~spwt.geometry.canonicalize_frame`) puts the
    receiver over the origin and the eavesdropper at ``x_e`` on the +x
    axis; each node keeps its own altitude, so the pitch toward it uses the
    height difference z - node.z.  ``xp`` is the backend: numpy, for arrays
    that broadcast together and a result of their broadcast shape (a 1x1
    array gives the float 1.0), or :data:`SCALAR`, for one point in floats.
    Within each backend a point gives the same value alone as in a batch;
    the two agree to rounding.

    The element double sum factors into one geometric sum per array axis,
    with phase increments

        a = coef * (cos(pitch_e)*cos(az_e) - cos(pitch_b)*cos(az_b))
        b = coef * (cos(pitch_e)*sin(az_e) - cos(pitch_b)*sin(az_b))

    (az yaw-relative, coef the array phase coefficient), so each point costs
    |sum_m e^{i m a}| * |sum_n e^{i n b}| / (M*N): O(log M + log N) work
    instead of O(M*N).  Both sums are evaluated explicitly, not by their
    ratio form, which keeps the result independent of the null equations
    the solvers use.  Directly over a node cos(pitch) is 0 and the value is
    the continuous limit.
    """
    geom = scenario.array
    coef = geom.phase_coef
    az_b = xp.arctan2(y, x) - scenario.yaw
    az_e = xp.arctan2(y, x - x_e) - scenario.yaw
    # cos(pitch) = horizontal range / slant range.
    cp_b = xp.hypot(x, y)
    cp_b = xp.divide(cp_b, xp.hypot(cp_b, z - scenario.bob.z))
    cp_e = xp.hypot(x - x_e, y)
    cp_e = xp.divide(cp_e, xp.hypot(cp_e, z - scenario.eve.z))
    a = coef * (cp_e * xp.cos(az_e) - cp_b * xp.cos(az_b))
    b = coef * (cp_e * xp.sin(az_e) - cp_b * xp.sin(az_b))
    return (
        _axis_sum_magnitude(xp, geom.m_rows, a)
        * _axis_sum_magnitude(xp, geom.n_cols, b)
        / geom.size
    )


def correlation_at(scenario: "ScenarioConfig", positions) -> list[float]:
    """:func:`correlation_magnitude` at caller-frame ``positions``, one
    :data:`SCALAR` call per point in the canonical frame.

    Depends only on geometry, never on the power budget, so a sweep over
    power or noise needs it once per position.
    """
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve).x
    return [
        correlation_magnitude(scenario, x_e, p.x, p.y, p.z, SCALAR)
        for p in map(tf.to_canonical, positions)
    ]


def secrecy_rates(
    rhos, total_power_w: float, alpha, noise_b_w, noise_e_w
) -> list[list[float]]:
    """Secrecy rate of every (power budget, position) cell, one list per
    position: the one computation of SINRs and rates in the package.

    ``rhos`` holds one correlation (or its magnitude) per position,
    ``noise_b_w`` and ``noise_e_w`` the receiver's and the eavesdropper's
    noise floor per budget, and ``alpha`` the power split of every cell, one
    row per budget.  ``total_power_w`` must already be valid (it comes from
    a PowerConfig).  The receiver's SINR alpha*P/sigma_b^2 does not depend
    on the position, so its log is taken once per run of equal splits in a
    row; the eavesdropper keeps 1 - |rho|^2 of the artificial noise:

        SINR_e = alpha*P*|rho|^2 / ((1-alpha)*P*(1-|rho|^2) + sigma_e^2).

    After the shapes, PowerConfig's checks apply to every floor, then every
    split (the package's callers check them where they enter and call
    :func:`_rate_table`), then InvalidCorrelation to each |rho| beyond 1.
    """
    if not len(noise_b_w) == len(noise_e_w) == len(alpha) or (
        set(map(len, alpha)) - {len(rhos)}
    ):
        raise ValueError("alpha needs one row per budget, one split per position")
    floors = [*noise_b_w, *noise_e_w]
    if not all(map(math.isfinite, floors)):
        raise ValueError(_NOT_FINITE)
    if min(floors, default=1.0) <= 0.0:  # no nan left to compare
        raise ValueError("noise powers must be positive")
    splits = [*chain.from_iterable(alpha)]
    if not all(map(math.isfinite, splits)):
        raise ValueError(_NOT_FINITE)
    if min(splits, default=0.0) < 0.0 or max(splits, default=0.0) > 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    mags = [_correlation_power(rho) for rho in rhos]
    return _rate_table(mags, total_power_w, alpha, noise_b_w, noise_e_w)


def _rate_table(mags, p, alpha, noise_b_w, noise_e_w) -> list[list[float]]:
    """secrecy_rates' cells from each |rho|^2, the budgets taken as checked."""
    log2 = math.log2
    rates = [[] for _ in mags] if alpha else []  # no budgets: [], as for no positions
    for row, n_b, n_e in zip(alpha, noise_b_w, noise_e_w):
        prev = None
        for a, m, cells in zip(row, mags, rates):
            if a != prev:  # 0.0 and -0.0 give the same bits here
                prev, signal, art_noise = a, a * p, (1.0 - a) * p
                bob = log2(1.0 + signal / n_b)
            rate = bob - log2(1.0 + signal * m / (art_noise * (1.0 - m) + n_e))
            cells.append(rate if rate > 0.0 else 0.0)  # max(0.0, rate)'s bits
    return rates
