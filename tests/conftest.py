"""Shared fixtures, scenario strategies, builders that bypass the
constructors' checks for out-of-model inputs, and the test-only references:
independent recomputations (element sums, the root bracket, explicit
steering vectors, per-point link metrics, a dense artificial-noise projector
with Monte-Carlo draws, a grid scan for minima) that the package's own code
paths are checked against.  The baseline draws have no reference here: any
seeded uniform stream serves them, and their tests check its properties.
"""

import copy
import math
import re
import urllib.parse
import zlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from spwt import (
    ArrayGeometry,
    InfeasibleGeometry,
    InvalidCorrelation,
    PowerConfig,
    Position3D,
    ScenarioConfig,
    SpwtError,
)
from spwt import experiments, placement, signalmodel
from spwt.geometry import canonicalize_frame
from spwt.scenario import _FLAT_EPS

TWO_PI = 2.0 * math.pi

# Property tests draw the same examples on every run (no flakes, no example
# database), with no per-example deadline, since timings swing on small
# shared machines, and few enough examples to keep the suite quick.
settings.register_profile(
    "spwt", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("spwt")


def pytest_configure(config):
    """Under ``--hypothesis-seed=N``, draw from seed N: a derandomized
    profile ignores the seed, so the flag loads a copy that is not."""
    if config.getoption("hypothesis_seed", None) is not None:
        settings.register_profile(
            "spwt-seeded", settings.get_profile("spwt"), derandomize=False
        )
        settings.load_profile("spwt-seeded")


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


def unchecked_scenario(
    base: ScenarioConfig | None = None, /, **fields
) -> ScenarioConfig:
    """A copy of ``base`` (by default ``make_scenario()``) with ``fields``
    set past ScenarioConfig's checks: the out-of-model scenarios (a nan
    height or yaw, a node built by :func:`unchecked_position`) that reach
    the solvers' certification-failure paths on purpose, the kernel bound at
    a reference point's own height, 0 included, and at an eavesdropper
    nearer than the least node separation, which has no solving frame."""
    scenario = copy.copy(make_scenario() if base is None else base)
    for name, value in fields.items():
        object.__setattr__(scenario, name, value)
    return scenario


def unchecked_position(x: float, y: float, z: float = 0.0) -> Position3D:
    """``Position3D(x, y, z)`` set past its finiteness check: an
    out-of-model node (an eavesdropper at x = inf) for
    :func:`unchecked_scenario`."""
    position = object.__new__(Position3D)
    for name, value in zip("xyz", (x, y, z)):
        object.__setattr__(position, name, value)
    return position


@pytest.fixture
def reference_scenario() -> ScenarioConfig:
    """4x4 half-wavelength array at 3 GHz, nodes 500 m apart, 200 m altitude,
    45 degree yaw, 1 W at a 15 dB SNR."""
    return make_scenario()


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that grows by one entry per kernel pass: each certification
    of one or more candidates (``placement._certify``) and each baseline
    draw (``experiments._baselines``)."""
    calls = []
    certify, baselines = placement._certify, experiments._baselines

    def counting_certify(scenario, points, index):
        if points:
            calls.append(1)
        return certify(scenario, points, index)

    def counting_baselines(*args):
        calls.append(1)
        return baselines(*args)

    monkeypatch.setattr(placement, "_certify", counting_certify)
    monkeypatch.setattr(experiments, "_baselines", counting_baselines)
    return calls


# A yaw offset past a quarter turn, each kind about half the time: inside
# the quadrant at least 0.05 rad from either end, or on the turn or 1e-12
# rad off it, where one factor's direction-cosine difference is (nearly)
# constant on both loci and only the other factor can place.
_YAW_OFFSETS = st.floats(0.05, math.pi / 2.0 - 0.05) | st.sampled_from(
    (0.0, 1e-12, -1e-12)
)


@st.composite
def finite_scenarios(draw):
    """Random finite scenarios: arrays up to 16x16, yaw in any quadrant,
    ``_YAW_OFFSETS`` past a quarter turn."""
    quarter = draw(st.integers(0, 3))
    offset = draw(_YAW_OFFSETS)
    return make_scenario(
        m=draw(st.integers(2, 16)),
        n=draw(st.integers(2, 16)),
        x_e=draw(st.floats(50.0, 2000.0)),
        g=draw(st.floats(10.0, 600.0)),
        yaw=quarter * math.pi / 2.0 + offset,
        p=draw(st.floats(0.01, 100.0)),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def log_uniform_scenarios(draw):
    """Random scenarios spread over many decades: 2 to 10^4 elements per
    axis, x_e and g from 1e-2 to 1e6 m, each log-uniform, and yaw in any
    quadrant, ``_YAW_OFFSETS`` past a quarter turn."""

    def decades(lo: float, hi: float) -> float:
        return 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))

    quarter = draw(st.integers(0, 3))
    offset = draw(_YAW_OFFSETS)
    return make_scenario(
        m=round(decades(2, 1e4)),
        n=round(decades(2, 1e4)),
        x_e=decades(1e-2, 1e6),
        g=decades(1e-2, 1e6),
        yaw=quarter * math.pi / 2.0 + offset,
    )


# -- explicit steering vectors and look angles --------------------------
# The element-by-element channel model that the package's factored kernel
# (signalmodel.correlation_magnitude) is checked against.


class DimensionMismatch(SpwtError):
    """Two vectors that must share an array geometry do not."""


class DegenerateGeometry(SpwtError):
    """A transmitter on the vertical over a ground node, where the look
    angles toward that node, and so the correlation, are undefined."""


@dataclass(frozen=True)
class LookAngles:
    """Direction of the transmitter as seen from a ground node.

    Attributes
    ----------
    azimuth : float
        Ground-plane angle of the node-to-transmitter displacement, measured
        from the +x axis, wrapped to [0, 2*pi).
    pitch : float
        Elevation toward the transmitter, in [0, pi/2] while it flies above
        the node.
    azimuth_rel : float
        Azimuth expressed in the array frame, i.e. azimuth minus the
        transmitter yaw, wrapped to [0, 2*pi).
    """

    azimuth: float
    pitch: float
    azimuth_rel: float


def wrap_angle(angle: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    return angle % TWO_PI


def look_angles(uav: Position3D, target: Position3D, yaw: float) -> LookAngles:
    """Azimuth, pitch and yaw-relative azimuth of ``uav`` seen from ``target``.

    The quadrant is resolved with atan2 on the horizontal displacement, so
    the returned sin/cos pairs always match the coordinate ratios.

    Raises
    ------
    DegenerateGeometry
        If the transmitter sits within 1e-9 m of the vertical over ``target``.
    """
    dx = uav.x - target.x
    dy = uav.y - target.y
    horiz = math.hypot(dx, dy)
    if horiz < _FLAT_EPS:
        raise DegenerateGeometry(
            "transmitter is directly above the node; azimuth undefined"
        )
    azimuth = wrap_angle(math.atan2(dy, dx))
    pitch = math.atan2(uav.z - target.z, horiz)
    return LookAngles(
        azimuth=azimuth,
        pitch=pitch,
        azimuth_rel=wrap_angle(azimuth - yaw),
    )


def steering_vector(
    geom: ArrayGeometry, azimuth_rel: float, pitch: float
) -> np.ndarray:
    """Array response toward a direction given in the array frame.

    Parameters
    ----------
    geom : ArrayGeometry
        Array layout and carrier.
    azimuth_rel : float
        Azimuth of the target relative to the array heading, radians.
    pitch : float
        Elevation of the path toward the target, radians in [0, pi/2].

    Returns
    -------
    numpy.ndarray
        Length M*N complex vector, row-major over (row, column) element
        indices, each entry of modulus 1/sqrt(M*N); Euclidean norm 1.
    """
    m = np.arange(geom.m_rows, dtype=float)[:, None]
    n = np.arange(geom.n_cols, dtype=float)[None, :]
    proj = m * math.cos(azimuth_rel) + n * math.sin(azimuth_rel)
    psi = -geom.phase_coef * math.cos(pitch) * proj
    return (np.exp(1j * psi) / math.sqrt(geom.size)).ravel()


def cross_correlation(h_e: np.ndarray, h_b: np.ndarray) -> complex:
    """Inner product conj(h_e) . h_b between two steering vectors.

    For unit vectors the magnitude never exceeds 1; it reaches 0 exactly when
    the eavesdropper sits on a null of the beam toward the receiver.
    """
    if h_e.shape != h_b.shape:
        raise DimensionMismatch(
            f"steering vectors differ in length: {h_e.shape} vs {h_b.shape}"
        )
    return complex(np.vdot(h_e, h_b))


def correlation_at(scenario: ScenarioConfig, positions) -> list[float]:
    """The package's kernel (signalmodel.correlation_magnitude over math) at
    caller-frame ``positions``: a fresh frame per call, each point rotated
    into the canonical frame and the kernel bound at its own height, through
    :func:`unchecked_scenario`, so any altitude can be checked."""
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve.x, scenario.eve.y)[0]
    bind = signalmodel.correlation_magnitude
    return [
        bind(unchecked_scenario(scenario, uav_height_m=p.z), x_e, math)(
            *tf.to_canonical(p.x, p.y)
        )
        for p in positions
    ]


def explicit_correlation(scenario: ScenarioConfig, uav: Position3D) -> float:
    """|h_e^H h_b| for a transmitter at caller-frame ``uav``, from explicit
    steering vectors toward each node at its own altitude.

    The reference for the package's factored correlation kernel: frame
    transform, look angles, full M*N vectors and their inner product.
    """
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    uav_c, bob_c, eve_c = (
        Position3D(*tf.to_canonical(p.x, p.y), p.z)
        for p in (uav, scenario.bob, scenario.eve)
    )
    ang_b = look_angles(uav_c, bob_c, scenario.yaw)
    ang_e = look_angles(uav_c, eve_c, scenario.yaw)
    h_b = steering_vector(scenario.array, ang_b.azimuth_rel, ang_b.pitch)
    h_e = steering_vector(scenario.array, ang_e.azimuth_rel, ang_e.pitch)
    return abs(cross_correlation(h_e, h_b))


# -- per-point link metrics ----------------------------------------------
# One transmitter position under one power budget, with its own |rho|^2
# clip and SINR arithmetic: the reference that the package's one grid-wide
# rate step, signalmodel._rate_cells over signalmodel._budget_rows (the
# sweeps' cells and each solution's sr_at_solution), is checked against,
# bit for bit, through secrecy_rates below.


def secrecy_rates(rhos, total_power_w, alpha, noise_b_w, noise_e_w) -> list[list[float]]:
    """The package's rates of every (budget, position) cell, one list per
    correlation in ``rhos``: its two rate steps, composed as its callers do;
    no budgets give no lists, as no positions do."""
    rows = signalmodel._budget_rows(total_power_w, alpha, noise_b_w, noise_e_w)
    return signalmodel._rate_cells(rhos, rows) if rows else []


@dataclass(frozen=True)
class LinkMetrics:
    sinr_b: float
    sinr_e: float
    secrecy_rate_bps_hz: float


def secrecy_rate(sinr_b: float, sinr_e: float) -> float:
    """max(0, log2(1+sinr_b) - log2(1+sinr_e)) in bits/s/Hz."""
    return max(0.0, math.log2(1.0 + sinr_b) - math.log2(1.0 + sinr_e))


def sinr_bob(power: PowerConfig) -> float:
    """Receiver SINR: alpha*P/sigma_b^2, independent of placement."""
    return power.alpha * power.total_power_w / power.noise_b_w


def sinr_eve_analytic(rho: complex, power: PowerConfig) -> float:
    """Eavesdropper SINR from the steering-vector correlation ``rho``.

    The expected artificial-noise power reaching the eavesdropper is
    1 - |rho|^2 (norm of its channel after projection), giving

        alpha*P*|rho|^2 / ((1-alpha)*P*(1-|rho|^2) + sigma_e^2).

    |rho|^2 is clipped to 1 after rounding; beyond it InvalidCorrelation.
    """
    mag2 = abs(rho) ** 2
    if mag2 > 1.0 + 2e-9:
        raise InvalidCorrelation(f"|rho| = {math.sqrt(mag2):.6g} exceeds 1")
    mag2 = min(mag2, 1.0)
    signal = power.alpha * power.total_power_w * mag2
    interference = (1.0 - power.alpha) * power.total_power_w * (1.0 - mag2)
    return signal / (interference + power.noise_e_w)


def link_metrics(rho: complex, power: PowerConfig) -> LinkMetrics:
    """Link metrics for correlation ``rho`` (or its magnitude) under
    ``power``: the receiver SINR in its exact closed form alpha*P/sigma_b^2,
    the analytic eavesdropper SINR, and the secrecy rate."""
    s_b = sinr_bob(power)
    s_e = sinr_eve_analytic(rho, power)
    return LinkMetrics(
        sinr_b=s_b, sinr_e=s_e, secrecy_rate_bps_hz=secrecy_rate(s_b, s_e)
    )


def evaluate_link(scenario: ScenarioConfig, uav: Position3D) -> LinkMetrics:
    """Link metrics for a transmitter at ``uav`` under ``scenario``: the
    package's correlation at that position, then :func:`link_metrics` at the
    scenario's power budget.

    Raises DegenerateGeometry if ``uav`` sits on a ground node, where no
    direction toward that node exists and the correlation is undefined.
    """
    if uav in (scenario.bob, scenario.eve):
        raise DegenerateGeometry("transmitter sits on a ground node")
    return link_metrics(float(correlation_at(scenario, [uav])[0]), scenario.power)


def gap_bracket_top(x_e: float, g: float, target: float) -> float:
    """Upper end of the extension root's bracket: where the two bounds of
    the pitch-cosine gap, gap(t) <= x_e*g^2/t^3 and
    gap(t) <= 1 - t/sqrt(t^2 + g^2), fall to ``target``, the nearer one.
    Written as the solver writes it, so that the two agree to the bit."""
    return min(
        (x_e / target) ** (1.0 / 3.0) * g ** (2.0 / 3.0),
        g * (1.0 - target) / math.sqrt(target * (2.0 - target)),
    )


def pitch_on_factor(scenario: ScenarioConfig, factor: str, side="left", index=1):
    """The extension placement of ``factor`` ("row" or "column") alone on
    ``side``, where the solver tries the row factor first and the column only
    past it.  It reads the outcomes the solver keeps, under the solver's own
    keys, so that a factor certified here is not certified again by the
    solver, and the other way round.

    Raises InfeasibleGeometry with the kept reason there are no factors at
    ``index``, or with the text of why ``factor`` does not place there: it
    has no zero, its gap is unattainable, its root search did not converge,
    or its candidate's discard text."""
    index, factors = placement._check(scenario, index)
    if factor not in factors:
        raise InfeasibleGeometry(f"the {factor} factor has no zero at index {index}")
    outcome = placement._kept(
        scenario, ("pitch", index, factor), placement._extension_candidates,
        index, factor, factors[factor],
    )[side]
    if isinstance(outcome, tuple):  # no candidate: (why, advice)
        raise InfeasibleGeometry(outcome[0])
    if isinstance(outcome, str):  # the discard text of a failed candidate
        raise InfeasibleGeometry(outcome)
    return outcome


def element_sum_map(scenario: ScenarioConfig, xs, ys) -> np.ndarray:
    """|h_e^H h_b| over a caller-frame grid, shape (len(ys), len(xs)),
    from the element-by-element double sum over all M*N array elements.

    The oracle for the factored ``correlation_map``: it shares nothing with
    the per-axis factorisation.  Positions are chunked so temporaries stay
    near 2e6 elements.
    """
    geom = scenario.array
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve.x, scenario.eve.y)[0]
    g = scenario.uav_height_m
    coef = geom.phase_coef
    m = np.arange(geom.m_rows, dtype=float).reshape(1, -1, 1)
    n = np.arange(geom.n_cols, dtype=float).reshape(1, 1, -1)

    gx, gy = np.meshgrid(np.asarray(xs, float), np.asarray(ys, float))
    flat_x, flat_y = tf.to_canonical(gx.ravel(), gy.ravel())
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


def heatmap_shade(value: float) -> int:
    """The heatmap's grey level of one cell, in scalar math: log10 of the
    residual clamped to [1e-6, 1], scaled to 0..255, rounded half to even.
    The reference for the vectorised shading in ``render_heatmap``."""
    level = math.log10(max(float(value), 1e-6))
    return int(round(255 * min(1.0, max(0.0, (level + 6.0) / 6.0))))


def heatmap_image(svg: str):
    """The heatmap's one ``<image>`` in ``svg``: its (x, y, width, height)
    and its pixels as a uint8 array [row, column], top row first.  The
    percent-encoded PNG is decoded and checked on the way: the signature,
    IHDR, IDAT and IEND in that order with their CRCs, an 8-bit grayscale
    non-interlaced IHDR, and filter byte 0 leading each row."""
    (element,) = re.findall(r"<image [^>]*/>", svg)
    attrs = dict(re.findall(r'([\w:]+)="([^"]*)"', element))
    assert attrs["preserveAspectRatio"] == "none"
    scheme, payload = attrs["xlink:href"].split(",", 1)
    assert scheme == "data:image/png"
    png = urllib.parse.unquote_to_bytes(payload)
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = {}, 8
    while pos < len(png):
        size = int.from_bytes(png[pos : pos + 4], "big")
        tag, data = png[pos + 4 : pos + 8], png[pos + 8 : pos + 8 + size]
        crc = int.from_bytes(png[pos + 8 + size : pos + 12 + size], "big")
        assert crc == zlib.crc32(tag + data), tag
        chunks[tag], pos = data, pos + 12 + size
    assert list(chunks) == [b"IHDR", b"IDAT", b"IEND"] and pos == len(png)
    ihdr = chunks[b"IHDR"]
    width, height = int.from_bytes(ihdr[:4], "big"), int.from_bytes(ihdr[4:8], "big")
    assert ihdr[8:] == bytes([8, 0, 0, 0, 0])  # depth 8, grayscale, no interlace
    rows = np.frombuffer(zlib.decompress(chunks[b"IDAT"]), np.uint8)
    rows = rows.reshape(height, width + 1)
    assert not rows[:, 0].any()  # filter type 0 (None) on every row
    box = tuple(float(attrs[name]) for name in ("x", "y", "width", "height"))
    return box, rows[:, 1:]


def _wrap_pm_pi(angle: float) -> float:
    # Signed wrap to (-pi, pi], used for angle comparisons.
    return (angle + math.pi) % TWO_PI - math.pi


def midpoint_symmetry_check(
    uav: Position3D,
    bob: Position3D,
    eve: Position3D,
    tol: float = 1e-10,
) -> bool:
    """True when both ground nodes are seen under equal pitch and mirrored
    azimuth (azimuth_b = pi - azimuth_e), the signature of a transmitter on
    the perpendicular bisector of the ground segment.

    Expects the canonical frame: ``bob`` at the origin, ``eve`` on the +x
    axis.  The solvers do not call it (they certify by the correlation
    itself); it is an independent check of bisector placements.
    """
    ang_b = look_angles(uav, bob, 0.0)
    ang_e = look_angles(uav, eve, 0.0)
    mirror = _wrap_pm_pi(ang_b.azimuth - (math.pi - ang_e.azimuth))
    return abs(ang_b.pitch - ang_e.pitch) <= tol and abs(mirror) <= tol


@dataclass(frozen=True)
class BeamformerPair:
    """Confidential beam ``v`` plus the noise projector I - v v^H."""

    v: np.ndarray
    projector: np.ndarray


def build_beamformers(h_b: np.ndarray) -> BeamformerPair:
    """Beam toward the receiver and the projector annihilating it.

    The projector is Hermitian and idempotent, and maps the receiver's
    steering vector to zero, so projected noise never reaches the receiver.
    """
    eye = np.eye(h_b.size, dtype=complex)
    return BeamformerPair(
        v=h_b.copy(), projector=eye - np.outer(h_b, h_b.conj())
    )


def sinr_eve_monte_carlo(
    h_e: np.ndarray,
    pair: BeamformerPair,
    power: PowerConfig,
    n_samples: int,
    seed: int,
) -> float:
    """Ergodic eavesdropper SINR over random noise realizations.

    Draws ``n_samples`` standard complex Gaussian vectors z (independent real
    and imaginary parts scaled by 1/sqrt(2)), projects them, and forms the
    ratio of the deterministic received signal power to the sample-mean
    interference power plus noise floor.  Averaging the interference before
    dividing estimates the ergodic SINR; the per-sample ratio has a heavy
    upper tail and converges to a larger, biased value.

    Deterministic for a fixed seed: same seed and n_samples give the same
    float exactly.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    size = h_e.size
    z = rng.standard_normal((n_samples, size)) + 1j * rng.standard_normal(
        (n_samples, size)
    )
    z *= 1.0 / math.sqrt(2.0)
    # h_e^H (P z) = (P h_e)^H z since the projector is Hermitian.
    leak = pair.projector @ h_e
    an_power = np.abs(z @ leak.conj()) ** 2
    p = power.total_power_w
    signal = power.alpha * p * abs(np.vdot(h_e, pair.v)) ** 2
    interference = (1.0 - power.alpha) * p * float(an_power.mean())
    return signal / (interference + power.noise_e_w)


def grid_null_oracle(
    scenario: ScenarioConfig,
    locus: str,
    resolution: float,
    bounds: tuple | None = None,
) -> list[tuple[Position3D, float]]:
    """Brute-force search for correlation minima over candidate positions
    of the canonical frame, scanned with the package's numpy kernel.

    Parameters
    ----------
    locus : {"midline", "axis", "box"}
        "midline" scans the perpendicular bisector (x = x_e/2), "axis" the
        ground-segment line (y = 0), "box" a full 2D rectangle.
    resolution : float
        Grid step in meters.
    bounds : tuple, optional
        (lo, hi) for the line loci, ((x_lo, x_hi), (y_lo, y_hi)) for "box".
        Defaults: +/-2000 m for lines, 1000 m square for the box.

    Returns
    -------
    list of (Position3D, float)
        Grid-local minima with residual below 1e-2, best first, positions
        mapped back to the caller's frame.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve.x, scenario.eve.y)[0]
    g = scenario.uav_height_m
    magnitude = signalmodel.correlation_magnitude(scenario, x_e, np)

    def _steps(lo: float, hi: float) -> np.ndarray:
        return np.arange(lo, hi + resolution / 2.0, resolution)

    if locus == "midline":
        lo, hi = bounds if bounds is not None else (-2000.0, 2000.0)
        ys = _steps(lo, hi)
        res = magnitude(x_e / 2.0, ys)
        keep = _local_minima_1d(res)
        points = [(x_e / 2.0, float(ys[i]), float(res[i])) for i in keep]
    elif locus == "axis":
        lo, hi = bounds if bounds is not None else (-2000.0, 2000.0)
        xs = _steps(lo, hi)
        res = magnitude(xs, 0.0)
        keep = _local_minima_1d(res)
        points = [(float(xs[i]), 0.0, float(res[i])) for i in keep]
    elif locus == "box":
        if bounds is not None:
            (x_lo, x_hi), (y_lo, y_hi) = bounds
        else:
            (x_lo, x_hi), (y_lo, y_hi) = (-1000.0, 1000.0), (-1000.0, 1000.0)
        xs = _steps(x_lo, x_hi)
        ys = _steps(y_lo, y_hi)
        res = magnitude(xs[None, :], ys[:, None])
        points = [
            (float(xs[j]), float(ys[i]), float(res[i, j]))
            for i, j in _local_minima_2d(res)
        ]
    else:
        raise ValueError("locus must be 'midline', 'axis' or 'box'")

    points.sort(key=lambda p: p[2])
    return [(Position3D(*tf.from_canonical(x, y), g), r) for x, y, r in points]


_MINIMUM_CUTOFF = 1e-2


def _local_minima_1d(values: np.ndarray) -> list[int]:
    if values.size < 3:
        return []
    interior = (
        (values[1:-1] < values[:-2])
        & (values[1:-1] < values[2:])
        & (values[1:-1] < _MINIMUM_CUTOFF)
    )
    return [int(i) + 1 for i in np.flatnonzero(interior)]


def _local_minima_2d(values: np.ndarray) -> list[tuple[int, int]]:
    if values.shape[0] < 3 or values.shape[1] < 3:
        return []
    center = values[1:-1, 1:-1]
    mask = center < _MINIMUM_CUTOFF
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neighbor = values[1 + di : values.shape[0] - 1 + di,
                              1 + dj : values.shape[1] - 1 + dj]
            mask &= center < neighbor
    return [(int(i) + 1, int(j) + 1) for i, j in np.argwhere(mask)]
