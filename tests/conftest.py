import math

import numpy as np
import pytest
from hypothesis import settings

from spwt import (
    ArrayGeometry,
    PowerConfig,
    Position3D,
    ScenarioConfig,
    canonicalize_frame,
    cross_correlation,
    look_angles,
    steering_vector,
)
from spwt.placement import _pitch_gap

# Property tests draw the same examples on every run (no flakes, no example
# database), with no per-example deadline, since timings swing on small
# shared machines, and few enough examples to keep the suite quick.
settings.register_profile(
    "spwt", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("spwt")

# sigma^2 for a 15 dB SNR at 1 W total power
SIGMA2_15DB = 10.0 ** -1.5


def make_scenario(
    m=4,
    n=4,
    f_c=3.0e9,
    x_e=500.0,
    g=200.0,
    yaw=math.pi / 4.0,
    p=1.0,
    sigma2=SIGMA2_15DB,
    alpha=1.0,
    seed=0,
) -> ScenarioConfig:
    return ScenarioConfig(
        array=ArrayGeometry(m, n, f_c),
        bob=Position3D(0.0, 0.0, 0.0),
        eve=Position3D(x_e, 0.0, 0.0),
        uav_height_m=g,
        yaw=yaw,
        power=PowerConfig(p, alpha, sigma2, sigma2),
        seed=seed,
    )


@pytest.fixture
def reference_scenario() -> ScenarioConfig:
    """4x4 half-wavelength array at 3 GHz, nodes 500 m apart, 200 m altitude,
    45 degree yaw, 1 W at a 15 dB SNR."""
    return make_scenario()


def explicit_correlation(scenario: ScenarioConfig, uav: Position3D) -> float:
    """|h_e^H h_b| for a transmitter at caller-frame ``uav``, from explicit
    steering vectors toward each node at its own altitude.

    The reference for the package's factored correlation kernel: frame
    transform, look angles, full M*N vectors and their inner product.
    """
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    uav_c = tf.to_canonical(uav)
    ang_b = look_angles(uav_c, tf.to_canonical(scenario.bob), scenario.yaw)
    ang_e = look_angles(uav_c, tf.to_canonical(scenario.eve), scenario.yaw)
    h_b = steering_vector(scenario.array, ang_b.azimuth_rel, ang_b.pitch)
    h_e = steering_vector(scenario.array, ang_e.azimuth_rel, ang_e.pitch)
    return abs(cross_correlation(h_e, h_b))


def scalar_scan_bracket(x_e: float, g: float, target: float):
    """The extension solver's pre-scan as a scalar loop, the reference for
    its vectorised form: 64 log-spaced outward distances over [1e-6, 1e6] m,
    each gap from ``_pitch_gap``.  Returns the first (lo, hi) where
    gap - target changes sign from + to -, (t, t) at a grid point that
    solves it exactly, or None when neither occurs.
    """
    prev_t = prev_v = None
    for t in np.logspace(math.log10(1e-6), math.log10(1e6), 64).tolist():
        v = _pitch_gap(x_e, g, t) - target
        if v == 0.0:
            return t, t
        if prev_v is not None and prev_v > 0.0 > v:
            return prev_t, t
        prev_t, prev_v = t, v
    return None


def element_sum_map(scenario: ScenarioConfig, xs, ys) -> np.ndarray:
    """|h_e^H h_b| over a canonical-frame grid, shape (len(ys), len(xs)),
    from the element-by-element double sum over all M*N array elements.

    The oracle for the factored ``correlation_map``: it shares nothing with
    the per-axis factorisation.  Positions are chunked so temporaries stay
    near 2e6 elements.
    """
    geom = scenario.array
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve).x
    g = scenario.uav_height_m
    coef = geom.phase_coef
    m = np.arange(geom.m_rows, dtype=float).reshape(1, -1, 1)
    n = np.arange(geom.n_cols, dtype=float).reshape(1, 1, -1)

    gx, gy = np.meshgrid(np.asarray(xs, float), np.asarray(ys, float))
    flat_x = gx.ravel()
    flat_y = gy.ravel()
    out = np.empty(flat_x.size)
    chunk = max(1, 2_000_000 // geom.size)
    for start in range(0, flat_x.size, chunk):
        sl = slice(start, start + chunk)
        x = flat_x[sl][:, None, None]
        y = flat_y[sl][:, None, None]
        az_b = np.arctan2(y, x) - scenario.yaw
        az_e = np.arctan2(y, x - x_e) - scenario.yaw
        cp_b = np.hypot(x, y)
        cp_b = cp_b / np.hypot(cp_b, g)
        cp_e = np.hypot(x - x_e, y)
        cp_e = cp_e / np.hypot(cp_e, g)
        psi_b = -coef * cp_b * (m * np.cos(az_b) + n * np.sin(az_b))
        psi_e = -coef * cp_e * (m * np.cos(az_e) + n * np.sin(az_e))
        out[sl] = np.abs(np.exp(1j * (psi_b - psi_e)).sum(axis=(1, 2))) / geom.size
    return out.reshape(gy.shape)
