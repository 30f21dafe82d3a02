"""Transmit construction and link metrics.

The confidential stream is beamformed with the receiver's own steering
vector, and artificial noise is projected onto the orthogonal complement of
that vector.  The receiver therefore sees no noise leakage and its SINR is
alpha*P/sigma_b^2 at every transmitter position; the eavesdropper's SINR is
governed entirely by the correlation rho between the two steering vectors.
Secrecy rate is log2(1+SINR_b) - log2(1+SINR_e), clipped at zero.

|rho| at canonical-frame transmitter positions comes from one kernel, in
floats or over numpy arrays, :func:`correlation_magnitude`, and rates from
one step, :func:`_rate_cells` over the rows :func:`_budget_rows` builds;
every caller shares both.
"""

import cmath
import math
from dataclasses import dataclass
from types import SimpleNamespace

from .errors import InvalidCorrelation

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
        # Finite P/sigma^2 at both nodes keeps every SINR, and so every rate, finite.
        p = self.total_power_w
        if not all(map(math.isfinite, (p / self.noise_b_w, p / self.noise_e_w))):
            raise ValueError("the SNR, total power over a noise power, must be finite")


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


def _axis_sum_magnitude(exp, bits: str, step):
    """|sum(exp(1j*i*step) for i in range(count))|, elementwise over
    ``step``, with ``bits`` = bin(count)[3:] and ``exp`` the backend's.

    Binary doubling over the bits of ``count`` from the top: with S(j) the
    sum of the first j terms and r the rotor exp(1j*step),

        S(2j) = S(j) * (1 + r^j)    and    S(j+1) = S(j) + r^j,

    ~2*log2(count) complex products, and no limit handling at a step that is
    a multiple of 2*pi.  The products are not taken in place: numpy's
    in-place complex multiply can round a one-element array differently.
    """
    rotor = exp(1j * step)
    total, power = 1.0, rotor  # S(j) and r^j at j = 1
    for bit in bits:
        total = total * (1.0 + power)
        power = power * power
        if bit == "1":
            total = total + power
            power = power * rotor
    return abs(total)


def correlation_magnitude(scenario: "ScenarioConfig", x_e: float, xp):
    """|h_e^H h_b| as a function of canonical-frame transmitter points
    (x, y, z), with the scenario's array, yaw and node heights, ``x_e`` and
    the backend's functions read once.

    The one evaluation of the correlation in the package: the placement
    module binds it over :data:`SCALAR` once per scenario object, for
    certification and the sweeps' baselines, and over numpy once per
    correlation map.  The canonical frame puts the receiver over the origin
    and the eavesdropper at ``x_e`` on the +x axis; each node keeps its own
    altitude, so the pitch toward it uses the height difference z - node.z.
    ``xp`` is the backend: numpy, for arrays that broadcast together and a
    result of their broadcast shape (a 1x1 array gives the float 1.0), or
    :data:`SCALAR`, for one point in floats.  Within each backend a point
    gives the same value alone as in a batch of fewer than 2^14 points
    (numpy's temporary elision rounds larger ones differently); the two
    backends agree to rounding.

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
    coef, yaw, size = geom.phase_coef, scenario.yaw, geom.size
    z_b, z_e = scenario.bob.z, scenario.eve.z
    row_bits, col_bits = bin(geom.m_rows)[3:], bin(geom.n_cols)[3:]
    arctan2, hypot, divide, cos, sin = xp.arctan2, xp.hypot, xp.divide, xp.cos, xp.sin
    exp, axis_sum = xp.exp, _axis_sum_magnitude

    def magnitude(x, y, z):
        az_b = arctan2(y, x) - yaw
        az_e = arctan2(y, x - x_e) - yaw
        # cos(pitch) = horizontal range / slant range.
        cp_b = hypot(x, y)
        cp_b = divide(cp_b, hypot(cp_b, z - z_b))
        cp_e = hypot(x - x_e, y)
        cp_e = divide(cp_e, hypot(cp_e, z - z_e))
        a = coef * (cp_e * cos(az_e) - cp_b * cos(az_b))
        b = coef * (cp_e * sin(az_e) - cp_b * sin(az_b))
        return axis_sum(exp, row_bits, a) * axis_sum(exp, col_bits, b) / size

    return magnitude


def _budget_rows(total_power_w: float, alpha, noise_b_w, noise_e_w) -> list[tuple]:
    """One (log2(1 + SINR_b), alpha*P, (1-alpha)*P, sigma_e^2) row per budget,
    each checked where it entered (a PowerConfig, or the sweep's grid): the
    receiver's SINR alpha*P/sigma_b^2 does not depend on the position, so
    its log is taken once per budget."""
    log2, p = math.log2, total_power_w
    return [
        (log2(1.0 + a * p / n_b), a * p, (1.0 - a) * p, n_e)
        for a, n_b, n_e in zip(alpha, noise_b_w, noise_e_w)
    ]


def _rate_cells(rhos, budgets) -> list[list[float]]:
    """The secrecy rate of every (budget row, position) cell, one list per
    correlation (or its magnitude) in ``rhos``, each checked and clipped by
    :func:`_correlation_power`: the package's one rate computation.  The
    eavesdropper keeps 1 - |rho|^2 of the artificial noise:

        SINR_e = alpha*P*|rho|^2 / ((1-alpha)*P*(1-|rho|^2) + sigma_e^2).
    """
    log2 = math.log2
    rates = []
    for rho in rhos:
        m = _correlation_power(rho)
        k = 1.0 - m
        rates.append([  # the clip has max(0.0, r)'s bits, without the call
            r if (r := bob - log2(1.0 + sig * m / (jam * k + n_e))) > 0.0 else 0.0
            for bob, sig, jam, n_e in budgets
        ])
    return rates
