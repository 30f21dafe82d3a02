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

from .errors import DegenerateGeometry, InvalidCorrelation
from .geometry import Position3D, canonicalize_frame

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


@dataclass(frozen=True)
class LinkMetrics:
    sinr_b: float
    sinr_e: float
    secrecy_rate_bps_hz: float


def sinr_bob(power: PowerConfig) -> float:
    """Receiver SINR: alpha*P/sigma_b^2, independent of placement."""
    return power.alpha * power.total_power_w / power.noise_b_w


def sinr_eve_analytic(rho: complex, power: PowerConfig) -> float:
    """Eavesdropper SINR from the steering-vector correlation ``rho``.

    The expected artificial-noise power reaching the eavesdropper is
    1 - |rho|^2 (norm of its channel after projection), giving

        alpha*P*|rho|^2 / ((1-alpha)*P*(1-|rho|^2) + sigma_e^2).
    """
    return _sinr_eve(
        _correlation_power(rho), power.alpha, power.total_power_w, power.noise_e_w
    )


def _correlation_power(rho) -> float:
    """|rho|^2, clipped to 1 after rounding; InvalidCorrelation beyond it."""
    mag2 = abs(rho) ** 2
    if mag2 > 1.0 + 2e-9:
        raise InvalidCorrelation(f"|rho| = {math.sqrt(mag2):.6g} exceeds 1")
    return min(mag2, 1.0)


def _sinr_eve(mag2, alpha, p, noise_e):
    """The analytic eavesdropper SINR from |rho|^2, for floats or arrays
    alike (the same operations in the same order either way)."""
    signal = alpha * p * mag2
    interference = (1.0 - alpha) * p * (1.0 - mag2)
    return signal / (interference + noise_e)


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
    link metrics, the sweeps and the correlation map all call it.  The
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
    return _magnitude(scenario, canonicalize_frame(scenario.bob, scenario.eve), x, y, z)


def _magnitude(scenario: "ScenarioConfig", tf, x, y, z) -> np.ndarray:
    """:func:`correlation_magnitude` in the canonical frame ``tf`` of
    ``scenario``, computed once by the caller."""
    geom = scenario.array
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
    # The arithmetic of FrameTransform.to_canonical, without building a
    # Position3D per point.
    c = math.cos(tf.rotation)
    s = math.sin(tf.rotation)
    xt = [p.x + tf.shift_x for p in positions]
    yt = [p.y + tf.shift_y for p in positions]
    return _magnitude(
        scenario,
        tf,
        [x * c - y * s for x, y in zip(xt, yt)],
        [x * s + y * c for x, y in zip(xt, yt)],
        [p.z for p in positions],
    )


def link_metrics(rho: complex, power: PowerConfig) -> LinkMetrics:
    """Link metrics for correlation ``rho`` (or its magnitude) under
    ``power``: the receiver SINR in its exact closed form alpha*P/sigma_b^2,
    the analytic eavesdropper SINR, and the secrecy rate."""
    s_b = sinr_bob(power)
    s_e = sinr_eve_analytic(rho, power)
    return LinkMetrics(
        sinr_b=s_b, sinr_e=s_e, secrecy_rate_bps_hz=secrecy_rate(s_b, s_e)
    )


def secrecy_rates(rhos, total_power_w: float, alpha, noise_w) -> list[list[float]]:
    """Secrecy rate of every (power budget, position) cell, one list per
    position.

    ``rhos`` holds one correlation per position, ``noise_w`` one noise floor
    (shared by both nodes) per budget, and ``alpha`` the power split of
    every cell, shape (budgets, positions).  ``total_power_w`` must already
    be valid (it comes from a PowerConfig).

    Each cell equals ``link_metrics(rho, PowerConfig(total_power_w, alpha,
    noise, noise)).secrecy_rate_bps_hz`` to the bit: the SINRs are computed
    over the grid with the same operations in the same order, |rho|^2 once
    per position and the logarithms per cell with math.log2.  The checks
    of PowerConfig and sinr_eve_analytic apply to every cell, noise floors
    first, then splits, then correlations, with the same exceptions.
    """
    noise = np.asarray(noise_w, float)[:, None]
    alpha = np.asarray(alpha, float)
    if not np.isfinite(noise).all():
        raise ValueError(_NOT_FINITE)
    if not (noise > 0.0).all():
        raise ValueError("noise powers must be positive")
    if not np.isfinite(alpha).all():
        raise ValueError(_NOT_FINITE)
    if not ((alpha >= 0.0) & (alpha <= 1.0)).all():
        raise ValueError("alpha must lie in [0, 1]")
    mag2 = np.array([_correlation_power(rho) for rho in rhos])
    s_b = alpha * total_power_w / noise
    s_e = _sinr_eve(mag2, alpha, total_power_w, noise)
    return [
        [secrecy_rate(b, e) for b, e in zip(col_b, col_e)]
        for col_b, col_e in zip(s_b.T.tolist(), s_e.T.tolist())
    ]


def evaluate_link(scenario: "ScenarioConfig", uav: Position3D) -> LinkMetrics:
    """Link metrics for a transmitter at ``uav`` under ``scenario``.

    Composes :func:`correlation_at` (geometry) with :func:`link_metrics` at
    the scenario's power budget.

    Raises
    ------
    DegenerateGeometry
        If ``uav`` sits on a ground node, where no direction toward that
        node exists and the correlation is undefined.
    """
    if uav in (scenario.bob, scenario.eve):
        raise DegenerateGeometry("transmitter sits on a ground node")
    return link_metrics(float(correlation_at(scenario, [uav])[0]), scenario.power)
