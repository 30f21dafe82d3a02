import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from spwt import (
    ArrayGeometry,
    DegenerateGeometry,
    InvalidCorrelation,
    Position3D,
    PowerConfig,
    ScenarioConfig,
    correlation_map,
)
from spwt.geometry import canonicalize_frame
from spwt.signalmodel import correlation_magnitude
from conftest import (
    SIGMA2_15DB,
    build_beamformers,
    correlation_at,
    evaluate_link,
    explicit_correlation,
    link_metrics,
    look_angles,
    make_scenario,
    secrecy_rate,
    secrecy_rates,
    sinr_bob,
    sinr_eve_analytic,
    sinr_eve_monte_carlo,
    steering_vector,
)

REFERENCE_NULL = Position3D(250.0, 630.4760106459247, 200.0)
SR_15DB = 5.0278076733505195


def _random_steering(rng, geom):
    return steering_vector(
        geom, rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi / 2)
    )


def test_power_config_validation():
    with pytest.raises(ValueError):
        PowerConfig(0.0, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        PowerConfig(1.0, 1.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        PowerConfig(1.0, 0.5, 0.0, 0.1)


def test_projector_invariants():
    rng = np.random.default_rng(1)
    geom = ArrayGeometry(4, 4, 3.0e9)
    for _ in range(1000):
        h_b = _random_steering(rng, geom)
        pair = build_beamformers(h_b)
        p = pair.projector
        assert np.array_equal(pair.v, h_b)
        assert np.max(np.abs(p @ p - p)) <= 1e-10
        assert np.max(np.abs(p @ h_b)) <= 1e-10
        assert np.max(np.abs(p - p.conj().T)) <= 1e-12


def test_projector_single_element_is_zero():
    pair = build_beamformers(steering_vector(ArrayGeometry(1, 1, 3.0e9), 0.3, 0.2))
    assert pair.projector.shape == (1, 1)
    assert abs(pair.projector[0, 0]) <= 1e-15


def test_projected_noise_never_reaches_receiver():
    rng = np.random.default_rng(6)
    geom = ArrayGeometry(4, 4, 3.0e9)
    h_b = _random_steering(rng, geom)
    pair = build_beamformers(h_b)
    z = (rng.standard_normal((10_000, 16)) + 1j * rng.standard_normal((10_000, 16)))
    z /= math.sqrt(2.0)
    leaked = np.abs(z @ (pair.projector @ h_b).conj())
    assert float(leaked.max()) <= 1e-10


def test_analytic_sinr_endpoints():
    power = PowerConfig(1.0, 0.7, 0.01, 0.01)
    assert sinr_eve_analytic(0.0, power) == 0.0
    full = PowerConfig(1.0, 1.0, 0.01, 0.01)
    assert sinr_eve_analytic(1.0, full) == pytest.approx(100.0, rel=1e-12)
    with pytest.raises(InvalidCorrelation):
        sinr_eve_analytic(1.0 + 1e-6, power)


def test_analytic_sinr_worked_value():
    power = PowerConfig(1.0, 0.5, 0.01, 0.01)
    value = sinr_eve_analytic(0.5, power)  # |rho|^2 = 0.25
    assert value == pytest.approx(0.32468, abs=1e-5)
    assert value == pytest.approx(0.3246753246753247, rel=1e-12)


def test_monte_carlo_matches_analytic():
    rng = np.random.default_rng(12)
    geom = ArrayGeometry(4, 4, 3.0e9)
    for trial in range(5):
        h_b = _random_steering(rng, geom)
        h_e = _random_steering(rng, geom)
        pair = build_beamformers(h_b)
        power = PowerConfig(1.0, rng.uniform(0.1, 0.9), 0.01, rng.uniform(1e-3, 1e-1))
        rho = complex(np.vdot(h_e, h_b))
        analytic = sinr_eve_analytic(rho, power)
        mc = sinr_eve_monte_carlo(h_e, pair, power, 100_000, seed=trial)
        assert abs(mc - analytic) / max(analytic, 1e-12) <= 0.02


def test_monte_carlo_deterministic_and_alpha_one_exact():
    rng = np.random.default_rng(13)
    geom = ArrayGeometry(4, 4, 3.0e9)
    h_b = _random_steering(rng, geom)
    h_e = _random_steering(rng, geom)
    pair = build_beamformers(h_b)
    power = PowerConfig(1.0, 0.6, 0.01, 0.02)
    a = sinr_eve_monte_carlo(h_e, pair, power, 5000, seed=99)
    b = sinr_eve_monte_carlo(h_e, pair, power, 5000, seed=99)
    assert a == b  # bit-identical rerun
    full = PowerConfig(1.0, 1.0, 0.01, 0.02)
    mc = sinr_eve_monte_carlo(h_e, pair, full, 17, seed=5)
    rho2 = abs(np.vdot(h_e, h_b)) ** 2
    assert mc == pytest.approx(rho2 / 0.02, rel=1e-12)


def test_monte_carlo_colocated_eavesdropper():
    # eavesdropper on the receiver's channel: projector annihilates the
    # noise, the signal arrives in full
    geom = ArrayGeometry(4, 4, 3.0e9)
    h_b = steering_vector(geom, 0.4, 0.3)
    pair = build_beamformers(h_b)
    power = PowerConfig(1.0, 0.3, 0.01, 0.04)
    mc = sinr_eve_monte_carlo(h_b, pair, power, 200, seed=1)
    assert mc == pytest.approx(0.3 / 0.04, rel=1e-9)


def test_monte_carlo_at_reference_null(reference_scenario):
    sc = reference_scenario
    tf = canonicalize_frame(sc.bob, sc.eve)
    uav = tf.to_canonical(REFERENCE_NULL)
    ang_b = look_angles(uav, Position3D(0, 0, 0), sc.yaw)
    ang_e = look_angles(uav, tf.to_canonical(sc.eve), sc.yaw)
    h_b = steering_vector(sc.array, ang_b.azimuth_rel, ang_b.pitch)
    h_e = steering_vector(sc.array, ang_e.azimuth_rel, ang_e.pitch)
    pair = build_beamformers(h_b)
    for seed in (0, 1, 2):
        assert sinr_eve_monte_carlo(h_e, pair, sc.power, 1000, seed) <= 1e-18


def test_secrecy_rate_examples():
    assert secrecy_rate(3.5, 3.5) == 0.0
    assert secrecy_rate(10.0 ** 1.5, 0.0) == pytest.approx(5.0278, abs=1e-4)
    assert secrecy_rate(10.0 ** 1.5, 0.0) == pytest.approx(SR_15DB, rel=1e-12)
    assert secrecy_rate(0.0, 5.0) == 0.0  # clipped


def test_secrecy_rate_monotone_in_correlation():
    power = PowerConfig(1.0, 0.8, SIGMA2_15DB, SIGMA2_15DB)
    rates = [
        secrecy_rate(sinr_bob(power), sinr_eve_analytic(r, power))
        for r in np.linspace(0.0, 1.0, 21)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


def test_rate_at_null_depends_only_on_receiver(reference_scenario):
    power_base = reference_scenario.power
    for alpha in np.linspace(0.0, 1.0, 11):
        power = PowerConfig(
            power_base.total_power_w, float(alpha),
            power_base.noise_b_w, power_base.noise_e_w,
        )
        expected = math.log2(1.0 + alpha * 1.0 / power_base.noise_b_w)
        assert secrecy_rate(sinr_bob(power), sinr_eve_analytic(0.0, power)) == pytest.approx(
            expected, abs=1e-12
        )


def test_evaluate_link_at_reference_null(reference_scenario):
    metrics = evaluate_link(reference_scenario, REFERENCE_NULL)
    assert metrics.sinr_b == pytest.approx(10.0 ** 1.5, rel=1e-12)
    assert metrics.sinr_e <= 1e-15
    assert metrics.secrecy_rate_bps_hz == pytest.approx(SR_15DB, abs=1e-9)


def test_evaluate_link_zero_alpha_zero_rate():
    sc = make_scenario(alpha=0.0)
    assert evaluate_link(sc, Position3D(123.0, -77.0, 200.0)).secrecy_rate_bps_hz == 0.0


def test_evaluate_link_on_axis_midpoint_is_suboptimal(reference_scenario):
    metrics = evaluate_link(reference_scenario, Position3D(250.0, 0.0, 200.0))
    assert metrics.sinr_e > 0.0
    assert metrics.secrecy_rate_bps_hz < SR_15DB


def test_evaluate_link_at_a_node_is_degenerate(reference_scenario):
    # on a node the correlation is 0/0; directly above one it is defined
    for node in (reference_scenario.bob, reference_scenario.eve):
        with pytest.raises(DegenerateGeometry):
            evaluate_link(reference_scenario, node)
        above = Position3D(node.x, node.y, 200.0)
        assert math.isfinite(evaluate_link(reference_scenario, above).sinr_e)


def test_kernel_over_a_node_is_finite_down_to_the_least_height():
    # The slant range to a ground node is at least the height g > 0, so the
    # kernel's plain division stays finite directly over either node, down
    # to the least subnormal g; the canonical frame is the caller's here.
    for g in (200.0, 1e-300, 5e-324):
        sc = make_scenario(g=g)
        for node in (sc.bob, sc.eve):
            got = correlation_at(sc, [Position3D(node.x, node.y, g)])
            got.append(float(correlation_map(sc, [node.x], [node.y])[0, 0]))
            assert all(0.0 <= v <= 1.0 for v in got), (g, node)  # nan fails


def test_receiver_sinr_is_placement_invariant(reference_scenario):
    rng = np.random.default_rng(17)
    for _ in range(50):
        uav = Position3D(rng.uniform(-900, 900), rng.uniform(-900, 900), 200.0)
        if math.hypot(uav.x, uav.y) < 1 or math.hypot(uav.x - 500, uav.y) < 1:
            continue
        metrics = evaluate_link(reference_scenario, uav)
        assert metrics.sinr_b == pytest.approx(10.0 ** 1.5, abs=1e-12 * 10 ** 1.5)


def test_correlation_kernel_matches_explicit_vectors():
    # Random arrays, spacings and yaws; the receiver off the origin and the
    # ground axis rotated, both nodes on the ground.
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(300):
        bob = Position3D(rng.uniform(-300, 300), rng.uniform(-300, 300))
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(50.0, 1000.0)
        eve = Position3D(
            bob.x + dist * math.cos(bearing), bob.y + dist * math.sin(bearing)
        )
        sc = ScenarioConfig(
            array=ArrayGeometry(
                int(rng.integers(1, 17)),
                int(rng.integers(1, 17)),
                3.0e9,
                rng.choice([None, rng.uniform(0.02, 0.2)]),
            ),
            bob=bob,
            eve=eve,
            uav_height_m=200.0,
            yaw=rng.uniform(0.0, 2.0 * math.pi),
            power=PowerConfig(1.0, 1.0, SIGMA2_15DB, SIGMA2_15DB),
        )
        uavs = [
            Position3D(
                bob.x + rng.uniform(-1500, 1500),
                bob.y + rng.uniform(-1500, 1500),
                rng.uniform(70.0, 400.0),
            )
            for _ in range(8)
        ]
        want = [explicit_correlation(sc, u) for u in uavs]
        got = correlation_at(sc, uavs)
        worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
        # a point alone gives the same float as in a batch
        assert got == [correlation_at(sc, [u])[0] for u in uavs]
        tf = canonicalize_frame(bob, eve)
        p = tf.to_canonical(uavs[0])
        at_p = replace(sc, uav_height_m=p.z)
        one = correlation_magnitude(at_p, tf.to_canonical(eve).x, math)(p.x, p.y)
        assert type(one) is float and one == got[0]
    assert worst <= 1e-12


def _decades(lo: float, hi: float):
    """Floats log-uniform from ``lo`` to ``hi``."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# a coordinate of either sign out to 1e307 m, in the CLI's range, or 0
_COORDINATES = st.just(0.0) | st.floats(-2000.0, 2000.0) | st.tuples(
    st.sampled_from([-1.0, 1.0]), _decades(1e-300, 1e307)
).map(lambda t: t[0] * t[1])


@settings(max_examples=200)
@given(
    m=_decades(1, 1e9).map(int),
    n=_decades(1, 1e9).map(int),
    x_e=st.floats(50.0, 2000.0) | _decades(1e-300, 1e300),
    g=st.floats(10.0, 800.0) | _decades(5e-324, 1e300),
    yaw=st.floats(0.0, 2.0 * math.pi),
    xs=st.lists(_COORDINATES, min_size=1, max_size=8),
    ys=st.lists(_COORDINATES, min_size=1, max_size=4),
)
@example(m=4, n=4, x_e=1e200, g=5e-324, yaw=0.7, xs=[250.0, -1e307], ys=[630.0, 1e-300])
def test_scalar_and_numpy_kernels_agree(m, n, x_e, g, yaw, xs, ys):
    # One kernel source over two backends: the math kernel at each point
    # gives the same bits as the numpy kernel over the grid, and as
    # correlation_map wherever the two nodes are far enough apart to have a
    # frame.  The draws span the CLI's ranges and the float range: the
    # eavesdropper to 1e300 m, the platform down to the least subnormal,
    # points to 1e307 m, and 1 to 10^9 elements per axis.
    sc = make_scenario(m=m, n=n, x_e=x_e, g=g, yaw=yaw)
    scalar = correlation_magnitude(sc, x_e, math)
    want = np.array([[scalar(x, y) for x in xs] for y in ys])
    got = correlation_magnitude(sc, x_e, np)(np.array(xs)[None, :], np.array(ys)[:, None])
    assert np.array_equal(np.broadcast_to(got, want.shape), want)  # 1x1 arrays give 1.0
    if x_e >= 1e-9:  # canonicalize_frame's least node separation
        assert np.array_equal(correlation_map(sc, xs, ys), want)


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_power_config_rejects_non_finite(field, value):
    # a NaN budget used to slip through every comparison and turn into a
    # secrecy rate of 0.0
    args = [1.0, 0.5, 0.01, 0.01]
    args[field] = value
    with pytest.raises(ValueError, match="must be finite"):
        PowerConfig(*args)


@pytest.mark.parametrize(
    "args",
    [(1e300, 1.0, 1e-300, 1e-300), (1e300, 0.5, 1e-300, 1e-300),
     (1.0, 1.0, 5e-324, 5e-324), (1.0, 1.0, 0.1, 5e-324), (1e10, 1.0, 1e-300, 1.0)],
)
def test_power_config_rejects_an_snr_beyond_float_range(args):
    # P/sigma^2 = inf used to pass and print certified nulls with an SR of 0
    # (alpha = 1) or inf (alpha = 0.5)
    with pytest.raises(ValueError, match="SNR, total power over a noise power"):
        PowerConfig(*args)


@st.composite
def _accepted_budgets(draw):
    """Any PowerConfig the constructor accepts: power and floors log-uniform
    over the whole positive float range, from 2^-1074 to just below 2^1024."""
    p, noise_b, noise_e = (2.0 ** draw(st.floats(-1074.0, 1023.99)) for _ in "pbe")
    try:
        return PowerConfig(p, draw(st.floats(0.0, 1.0)), noise_b, noise_e)
    except ValueError:
        reject()


@given(_accepted_budgets(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_every_accepted_budget_gives_finite_rates(power, rhos):
    cells = secrecy_rates(
        rhos, power.total_power_w, [power.alpha], [power.noise_b_w], [power.noise_e_w]
    )
    assert all(math.isfinite(rate) and rate >= 0.0 for (rate,) in cells)


@pytest.mark.parametrize(
    "rho, noise",
    [
        pytest.param(1.0 + 1e-6, 0.1, id="1.000001-0.5-0.1"),
        # (receiver, eavesdropper) floors
        pytest.param(1.0 + 1e-6, (0.2, 0.1), id="1.000001-0.5-b0.2-e0.1"),
    ],
)
def test_secrecy_rates_check_cells_like_per_point_objects(rho, noise):
    # the one check the rate step makes: |rho| beyond 1, in link_metrics' words;
    # the budgets are checked where they enter (PowerConfig, the sweeps)
    noise_b, noise_e = noise if isinstance(noise, tuple) else (noise, noise)
    with pytest.raises(InvalidCorrelation) as per_point:
        link_metrics(rho, PowerConfig(1.0, 0.5, noise_b, noise_e))
    with pytest.raises(InvalidCorrelation, match=re.escape(str(per_point.value))):
        secrecy_rates([0.2, rho], 1.0, [1.0, 0.5], [0.1, noise_b], [0.1, noise_e])


def test_secrecy_rates_equal_link_metrics_bitwise():
    # |rho|^2 through abs(r) ** 2 and the logarithms through math.log2: numpy's
    # square and log2 round differently in about 0.1% of values
    rng = np.random.default_rng(12)
    rhos = rng.uniform(0.0, 1.0, 4000).tolist() + [0.0, 1e-12, 1.0, 1.0 + 1e-12]
    # (alpha, receiver floor, eavesdropper floor); the last three budgets
    # give the nodes different floors
    budgets = [
        (0.0, 1e-3, 1e-3),
        (0.3, 0.03, 0.03),
        (1.0, 0.5, 0.5),
        (0.77, 7.0, 7.0),
        (0.3, 0.03, 2.0),
        (0.77, 7.0, 1e-4),
        (1.0, 1e-3, 0.5),
    ]
    alpha = [a for a, _, _ in budgets]
    noise_b = [sigma_b for _, sigma_b, _ in budgets]
    noise_e = [sigma_e for _, _, sigma_e in budgets]
    got = secrecy_rates(rhos, 2.0, alpha, noise_b, noise_e)
    for rho, row in zip(rhos, got):
        want = [
            link_metrics(rho, PowerConfig(2.0, a, sigma_b, sigma_e)).secrecy_rate_bps_hz
            for a, sigma_b, sigma_e in budgets
        ]
        assert row == want


# One split per budget, with 0.0, -0.0 and 1.0 among them.
_SPLITS = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)
_FLOORS = st.floats(1e-6, 1e3)


@st.composite
def _rate_grids(draw):
    """(rhos, total power, alpha, receiver floors, eavesdropper floors)."""
    rhos = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    budgets = draw(st.integers(1, 4))
    sizes = {"min_size": budgets, "max_size": budgets}
    alpha = draw(st.lists(_SPLITS, **sizes))
    noise_b = draw(st.lists(_FLOORS, **sizes))
    noise_e = draw(st.lists(_FLOORS, **sizes))
    return rhos, draw(st.floats(0.01, 100.0)), alpha, noise_b, noise_e


@given(_rate_grids())
@example(([0.3, 0.0, 1.0, 0.7], 2.0, [-0.0, 0.4], [0.01, 3.0], [0.5, 1e-4]))
def test_secrecy_rates_equal_per_point_rates_bitwise(grid):
    # the receiver's term is taken once per budget; every cell still has the
    # bits of the per-point reference
    rhos, p, alpha, noise_b, noise_e = grid
    got = secrecy_rates(rhos, p, alpha, noise_b, noise_e)
    assert len(got) == len(rhos)
    for rho, cells in zip(rhos, got):
        want = []
        for a, n_b, n_e in zip(alpha, noise_b, noise_e):
            power = PowerConfig(p, a, n_b, n_e)
            want.append(secrecy_rate(sinr_bob(power), sinr_eve_analytic(rho, power)))
        assert list(map(float.hex, cells)) == list(map(float.hex, want))


def test_secrecy_rates_of_no_budgets_or_no_positions_are_empty():
    # no cells, and no per-position lists either
    assert secrecy_rates([0.1], 1.0, [], [], []) == []
    assert secrecy_rates([], 1.0, [0.5], [0.1], [0.1]) == []
