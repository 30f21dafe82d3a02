"""Transmit construction and link metrics.

The confidential stream is beamformed with the receiver's own steering
vector, and artificial noise is projected onto the orthogonal complement of
that vector.  The receiver therefore sees no noise leakage and its SINR is
alpha*P/sigma_b^2 at every transmitter position; the eavesdropper's SINR is
governed entirely by the correlation rho between the two steering vectors.
Secrecy rate is log2(1+SINR_b) - log2(1+SINR_e), clipped at zero.

|rho| for transmitter positions comes from one vectorised kernel,
:func:`correlation_magnitude`, which every caller in the package shares.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

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


def secrecy_rate(sinr_b: float, sinr_e: float) -> float:
    """max(0, log2(1+sinr_b) - log2(1+sinr_e)) in bits/s/Hz."""
    return max(0.0, math.log2(1.0 + sinr_b) - math.log2(1.0 + sinr_e))


def _axis_sum_magnitude(count: int, step: np.ndarray) -> np.ndarray:
    """|sum(exp(1j*i*step) for i in range(count))|, elementwise over ``step``.

    Summed term by term (each term one rotation of the previous), so a step
    at a multiple of 2*pi needs no limit handling.  The products are not
    taken in place: numpy's in-place complex multiply can round a one-element
    array differently from a longer one, and a point must give the same
    value alone as in a batch.
    """
    if count == 1:
        return np.ones(np.shape(step))
    rotor = np.exp(1j * step)
    term = rotor
    total = rotor + 1.0
    for _ in range(2, count):
        term = term * rotor
        total = total + term
    return np.abs(total)


def correlation_magnitude(scenario: "ScenarioConfig", x, y, z) -> np.ndarray:
    """|h_e^H h_b| for transmitters at canonical-frame points (x, y, z).

    The one evaluation of the correlation in the package: certification,
    the sweeps' baselines and the correlation map all call it.  The
    canonical frame (:func:`~spwt.geometry.canonicalize_frame`) puts the
    receiver over the origin and the eavesdropper over the +x axis; each
    node keeps its own altitude, so the pitch toward it uses the height
    difference z - node.z.  ``x``, ``y`` and ``z`` are scalars or arrays
    that broadcast together; the result has their broadcast shape.

    The element double sum factors into one geometric sum per array axis,
    with phase increments

        a = coef * (cos(pitch_e)*cos(az_e) - cos(pitch_b)*cos(az_b))
        b = coef * (cos(pitch_e)*sin(az_e) - cos(pitch_b)*sin(az_b))

    (az yaw-relative, coef the array phase coefficient), so each point costs
    |sum_m e^{i m a}| * |sum_n e^{i n b}| / (M*N): O(M + N) work instead of
    O(M*N).  Both sums are evaluated explicitly, not by their ratio form,
    which keeps the result independent of the null equations the solvers
    use.  Directly over a node cos(pitch) is 0 and the value is the
    continuous limit.
    """
    geom = scenario.array
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve).x
    coef = geom.phase_coef
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    az_b = np.arctan2(y, x) - scenario.yaw
    az_e = np.arctan2(y, x - x_e) - scenario.yaw
    # cos(pitch) = horizontal range / slant range.
    cp_b = np.hypot(x, y)
    cp_b = cp_b / np.hypot(cp_b, z - scenario.bob.z)
    cp_e = np.hypot(x - x_e, y)
    cp_e = cp_e / np.hypot(cp_e, z - scenario.eve.z)
    a = coef * (cp_e * np.cos(az_e) - cp_b * np.cos(az_b))
    b = coef * (cp_e * np.sin(az_e) - cp_b * np.sin(az_b))
    return (
        _axis_sum_magnitude(geom.m_rows, a)
        * _axis_sum_magnitude(geom.n_cols, b)
        / geom.size
    )


def correlation_at(scenario: "ScenarioConfig", positions) -> np.ndarray:
    """:func:`correlation_magnitude` at caller-frame ``positions``, mapped
    into the canonical frame, in one kernel call.

    Depends only on geometry, never on the power budget, so a sweep over
    power or noise needs it once per position.
    """
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    points = [tf.to_canonical(p) for p in positions]
    return correlation_magnitude(
        scenario, [p.x for p in points], [p.y for p in points], [p.z for p in points]
    )


def secrecy_rates(
    rhos, total_power_w: float, alpha, noise_b_w, noise_e_w
) -> list[list[float]]:
    """Secrecy rate of every (power budget, position) cell, one list per
    position: the one computation of SINRs and rates in the package.

    ``rhos`` holds one correlation (or its magnitude) per position,
    ``noise_b_w`` and ``noise_e_w`` the receiver's and the eavesdropper's
    noise floor per budget, and ``alpha`` the power split of every cell, one
    row per budget.  ``total_power_w`` must already be valid (it comes from
    a PowerConfig).  A cell's receiver SINR is alpha*P/sigma_b^2 wherever
    the transmitter is; the eavesdropper keeps 1 - |rho|^2 of the
    artificial noise, so its SINR is

        alpha*P*|rho|^2 / ((1-alpha)*P*(1-|rho|^2) + sigma_e^2).

    After the shapes, the checks of PowerConfig apply to every cell: noise
    floors first, then splits, then correlations (InvalidCorrelation for
    |rho| beyond 1).
    """
    if not len(noise_b_w) == len(noise_e_w) == len(alpha) or any(
        len(row) != len(rhos) for row in alpha
    ):
        raise ValueError("alpha needs one row per budget, one split per position")
    floors = [*noise_b_w, *noise_e_w]
    if not all(map(math.isfinite, floors)):
        raise ValueError(_NOT_FINITE)
    if not all(noise > 0.0 for noise in floors):
        raise ValueError("noise powers must be positive")
    splits = [a for row in alpha for a in row]
    if not all(map(math.isfinite, splits)):
        raise ValueError(_NOT_FINITE)
    if not all(0.0 <= a <= 1.0 for a in splits):
        raise ValueError("alpha must lie in [0, 1]")
    mags = [_correlation_power(rho) for rho in rhos]
    p = total_power_w
    return [
        [
            secrecy_rate(a * p / n_b, a * p * m / ((1.0 - a) * p * (1.0 - m) + n_e))
            for a, n_b, n_e in zip(column, noise_b_w, noise_e_w)
        ]
        for m, column in zip(mags, zip(*alpha))
    ]
