"""End-to-end checks of the headline guarantees.

Each test prints a single verdict line so a scan of the output answers
"does the shipped behavior hold" without reading tracebacks.  Every check
recomputes its expectation from scratch (raw element sums, dense scans,
textbook formulas) rather than trusting the code path under test.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    build_beamformers,
    correlation_at,
    cross_correlation,
    look_angles,
    make_scenario,
    sinr_eve_analytic,
    sinr_eve_monte_carlo,
    steering_vector,
)
from spwt import (
    ArrayGeometry,
    InfeasibleGeometry,
    InvalidYaw,
    Position3D,
    solve_azimuth_scheme,
    solve_pitch_scheme,
    sweep_alpha,
    sweep_snr,
)


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _direct_abs_correlation(scenario, xs, ys):
    """|h_E^H h_B| from the raw element sum, vectorized over positions.

    Written directly against the phase definition so it cannot inherit a
    bug from the factored form the solvers rely on.  Expects the canonical
    node layout produced by make_scenario (receiver at the origin,
    eavesdropper on the +x axis).
    """
    geom = scenario.array
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    g = scenario.uav_height_m

    def uv(target_x):
        dx = x - target_x
        horiz = np.hypot(dx, y)
        az = np.arctan2(y, dx) - scenario.yaw
        cos_pitch = horiz / np.hypot(horiz, g)
        coef = geom.phase_coef
        return coef * cos_pitch * np.cos(az), coef * cos_pitch * np.sin(az)

    u_b, v_b = uv(0.0)
    u_e, v_e = uv(scenario.eve.x)
    du, dv = u_e - u_b, v_e - v_b
    total = np.zeros(np.broadcast(du, dv).shape, dtype=complex)
    for m in range(geom.m_rows):
        for n in range(geom.n_cols):
            total = total + np.exp(1j * (m * du + n * dv))
    return np.abs(total) / geom.size


def _line_minima(ys, vals):
    """y coordinates of interior local minima, tolerating one-sided ties."""
    v = np.asarray(vals)
    flat_ok = (v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])
    strict = (v[1:-1] < v[:-2]) | (v[1:-1] < v[2:])
    return np.asarray(ys)[1:-1][flat_ok & strict]


def test_acceptance_1_bisector_reference(capsys):
    scenario = make_scenario()
    t0 = time.perf_counter()
    sols = solve_azimuth_scheme(scenario)
    elapsed = time.perf_counter() - t0
    ys = sorted(s.position.y for s in sols)
    placed = (
        len(ys) == 2
        and abs(ys[0] + 630.476) <= 1e-3
        and abs(ys[1] - 630.476) <= 1e-3
        and all(abs(s.position.x - 250.0) <= 1e-9 for s in sols)
    )
    residual = max(
        float(_direct_abs_correlation(scenario, s.position.x, s.position.y))
        for s in sols
    )
    ok = placed and residual <= 1e-10 and elapsed < 1.0
    _verdict(
        capsys,
        1,
        ok,
        f"y = {ys[0]:+.6f} / {ys[-1]:+.6f} m, recomputed correlation "
        f"{residual:.2e}, solved in {elapsed * 1e3:.2f} ms",
    )


def test_acceptance_2_grid_oracle_agreement(capsys):
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 50:
        attempts += 1
        assert attempts < 2000, "could not draw 50 feasible scenarios"
        m = int(rng.choice([2, 4, 8]))
        n = int(rng.choice([2, 4, 8]))
        x_e = float(rng.uniform(100.0, 1000.0))
        g = float(rng.uniform(50.0, 400.0))
        yaw = float(rng.uniform(0.0, 2.0 * math.pi))
        quarter = yaw % (math.pi / 2.0)
        if min(quarter, math.pi / 2.0 - quarter) < 0.1:
            continue
        scenario = make_scenario(m=m, n=n, x_e=x_e, g=g, yaw=yaw)
        try:
            sols = solve_azimuth_scheme(scenario)
        except InfeasibleGeometry:
            continue
        span = max(abs(s.position.y) for s in sols) + 10.0
        ys = np.arange(-span, span + 0.25, 0.5)
        vals = _direct_abs_correlation(scenario, x_e / 2.0, ys)
        minima = _line_minima(ys, vals)
        for s in sols:
            worst = max(worst, float(np.min(np.abs(minima - s.position.y))))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.5 + 1e-9 and elapsed < 120.0
    _verdict(
        capsys,
        2,
        ok,
        f"50 scenarios, worst offset to a 0.5 m brute-force minimum "
        f"{worst:.3f} m, {elapsed:.1f} s",
    )


def test_acceptance_3_extension_bisection(capsys):
    scenario = make_scenario()
    left = solve_pitch_scheme(scenario, side="left")
    right = solve_pitch_scheme(scenario, side="right")
    x_e, g = 500.0, 200.0
    t_root = -left.position.x

    def gap(t):
        return (x_e + t) / np.hypot(x_e + t, g) - t / np.hypot(t, g)

    # az_rel is shared by both nodes on the left extension: atan2(0, -t)
    # gives pi, minus the 45 degree yaw.
    az_rel = math.pi - scenario.yaw
    target = 2.0 / (scenario.array.m_rows * abs(math.cos(az_rel)))
    eq_residual = abs(float(gap(t_root)) - target)
    null_residual = max(
        float(_direct_abs_correlation(scenario, p.x, p.y))
        for p in (left.position, right.position)
    )
    # independent dense scan: the gap decreases in t, so the defining
    # equation has one sign change and the root must sit inside that cell
    ts = np.arange(0.01, 200.0, 0.01)
    f = gap(ts) - target
    crossings = np.nonzero(f[:-1] * f[1:] <= 0.0)[0]
    bracketed = (
        len(crossings) == 1
        and ts[crossings[0]] <= t_root <= ts[crossings[0] + 1]
    )
    ok = (
        eq_residual <= 1e-9
        and null_residual <= 1e-8
        and abs(left.position.x + 47.7) <= 0.1
        and abs(right.position.x - (x_e + t_root)) <= 1e-6
        and bracketed
    )
    _verdict(
        capsys,
        3,
        ok,
        f"x = {left.position.x:.4f} / {right.position.x:.4f} m, equation "
        f"residual {eq_residual:.2e}, correlation {null_residual:.2e}, "
        f"0.01 m scan bracket {'holds' if bracketed else 'fails'}",
    )


def test_acceptance_4_bound_tightness(capsys):
    scenario = make_scenario()
    result = sweep_snr(scenario)
    assert result.x_axis == [float(v) for v in range(0, 21, 2)]
    worst = max(
        abs(sr - math.log2(1.0 + 10.0 ** (snr / 10.0)))
        for snr, sr in zip(result.x_axis, result.series["proposed"])
    )
    at_15 = sweep_snr(scenario, snr_db_grid=[15.0]).series["proposed"][0]
    ok = (
        worst <= 1e-9
        and abs(at_15 - 5.0278) <= 5e-5
        and abs(at_15 - 5.0278076733505195) <= 1e-9
    )
    _verdict(
        capsys,
        4,
        ok,
        f"max distance to log2(1+snr) over 0:2:20 dB is {worst:.2e}, "
        f"SR(15 dB) = {at_15:.10f} bits/s/Hz",
    )


def test_acceptance_5_dominance_and_gap_growth(capsys):
    violations = 0
    min_growth = math.inf
    for seed in range(20):
        result = sweep_snr(make_scenario(seed=seed))
        proposed = np.asarray(result.series["proposed"])
        rand = np.asarray(
            [result.series[f"rand{i}"] for i in (1, 2, 3)]
        )
        if not np.all(proposed + 1e-12 >= rand):
            violations += 1
        best = rand.max(axis=0)
        growth = (proposed[-1] - best[-1]) - (proposed[0] - best[0])
        min_growth = min(min_growth, float(growth))
    ok = violations == 0 and min_growth >= -1e-9
    _verdict(
        capsys,
        5,
        ok,
        f"20 seeds, {violations} dominance violations, smallest "
        f"0-to-20 dB gap growth {min_growth:.3f} bits/s/Hz",
    )


def test_acceptance_6_allocation_invariance(capsys):
    result = sweep_alpha(make_scenario())
    proposed = result.series["proposed"]
    spread = max(proposed) - min(proposed)
    zero_idx = result.x_axis.index(0.0)
    at_zero = [result.series[f"rand{i}"][zero_idx] for i in (1, 2, 3)]
    ok = spread <= 1e-9 and all(v == 0.0 for v in at_zero)
    _verdict(
        capsys,
        6,
        ok,
        f"proposed-curve spread over alpha {spread:.2e}, baseline SR at "
        f"alpha=0: {at_zero}",
    )


def test_acceptance_7_monte_carlo_agreement(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    mc = analytic = 0.0
    h_e = pair = scenario = None
    for i in range(100):
        m = int(rng.choice([2, 4]))
        n = int(rng.choice([2, 4]))
        x_e = float(rng.uniform(50.0, 500.0))
        g = float(rng.uniform(20.0, 200.0))
        yaw = float(rng.uniform(0.0, 2.0 * math.pi))
        alpha = float(rng.uniform(0.05, 0.95))
        sigma2 = float(rng.uniform(1e-3, 0.1))
        scenario = make_scenario(
            m=m, n=n, x_e=x_e, g=g, yaw=yaw, alpha=alpha, sigma2=sigma2
        )
        uav = Position3D(
            float(rng.uniform(-200.0, x_e + 200.0)),
            float(rng.choice([-1.0, 1.0]) * rng.uniform(10.0, 500.0)),
            g,
        )
        ang_b = look_angles(uav, scenario.bob, yaw)
        ang_e = look_angles(uav, scenario.eve, yaw)
        h_b = steering_vector(scenario.array, ang_b.azimuth_rel, ang_b.pitch)
        h_e = steering_vector(scenario.array, ang_e.azimuth_rel, ang_e.pitch)
        pair = build_beamformers(h_b)
        analytic = sinr_eve_analytic(
            cross_correlation(h_e, h_b), scenario.power
        )
        mc = sinr_eve_monte_carlo(
            h_e, pair, scenario.power, 100_000, seed=1000 + i
        )
        worst = max(worst, abs(mc - analytic) / max(analytic, 1e-12))
    rerun = sinr_eve_monte_carlo(
        h_e, pair, scenario.power, 100_000, seed=1000 + 99
    )
    ok = worst <= 0.02 and rerun == mc
    _verdict(
        capsys,
        7,
        ok,
        f"100 scenarios at 1e5 samples, worst relative error {worst:.4%}, "
        f"rerun {'bit-identical' if rerun == mc else 'DIVERGED'}",
    )


def test_acceptance_8_invariant_suite(capsys):
    rng = np.random.default_rng(88)
    geom = ArrayGeometry(4, 4, 3.0e9)

    worst_norm = max(
        abs(float(np.linalg.norm(steering_vector(geom, az, pitch))) - 1.0)
        for az, pitch in zip(
            rng.uniform(0.0, 2.0 * math.pi, 10_000),
            rng.uniform(0.0, math.pi / 2.0, 10_000),
        )
    )

    worst_proj = 0.0
    for _ in range(5):
        h = steering_vector(
            geom,
            float(rng.uniform(0.0, 2.0 * math.pi)),
            float(rng.uniform(0.0, math.pi / 2.0)),
        )
        p = build_beamformers(h).projector
        worst_proj = max(
            worst_proj,
            float(np.abs(p - p.conj().T).max()),
            float(np.abs(p @ p - p).max()),
            float(np.abs(p @ h).max()),
        )

    # the package's factored correlation kernel against explicit vectors,
    # 10,000 transmitter positions over 200 random scenarios
    worst_cc = 0.0
    for _ in range(200):
        sc = make_scenario(
            m=int(rng.integers(1, 9)),
            n=int(rng.integers(1, 9)),
            x_e=float(rng.uniform(50.0, 1000.0)),
            yaw=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        xs, ys = rng.uniform(-1500.0, 1500.0, (2, 50))
        zs = rng.uniform(10.0, 800.0, 50)
        uavs = [Position3D(*p) for p in zip(xs.tolist(), ys.tolist(), zs.tolist())]
        for uav, got in zip(uavs, correlation_at(sc, uavs)):
            ang_b = look_angles(uav, sc.bob, sc.yaw)
            ang_e = look_angles(uav, sc.eve, sc.yaw)
            direct = cross_correlation(
                steering_vector(sc.array, ang_e.azimuth_rel, ang_e.pitch),
                steering_vector(sc.array, ang_b.azimuth_rel, ang_b.pitch),
            )
            worst_cc = max(worst_cc, abs(abs(direct) - got))

    for p_idx in range(5):
        with pytest.raises(InvalidYaw):
            solve_azimuth_scheme(make_scenario(yaw=p_idx * math.pi / 2.0))
    with pytest.raises(InvalidYaw):
        solve_azimuth_scheme(make_scenario(yaw=math.pi / 2.0 + 5e-10))

    # feasibility frontier at x_e=500, yaw=pi/4, k=1: the row factor needs
    # m^2 cos^2(yaw) x_e^2 >= x_e^2 + 4 g^2 (g <= 661.44 for m=4), the
    # column factor the sine analogue (g <= 250 for n=2)
    x_e = 500.0
    frontier_ok = True
    for g in (50.0, 150.0, 249.0, 251.0, 400.0, 660.0, 663.0, 800.0):
        row_feasible = 16 * 0.5 * x_e**2 >= x_e**2 + 4.0 * g * g
        col_feasible = 4 * 0.5 * x_e**2 >= x_e**2 + 4.0 * g * g
        try:
            sols = solve_azimuth_scheme(make_scenario(m=4, n=2, g=g))
        except InfeasibleGeometry:
            sols = []
        frontier_ok = frontier_ok and (
            bool(sols) == (row_feasible or col_feasible)
            and any(s.factor_used == "row" for s in sols) == row_feasible
            and any(s.factor_used == "column" for s in sols) == col_feasible
        )

    ok = (
        worst_norm <= 1e-12
        and worst_proj <= 1e-10
        and worst_cc <= 1e-10
        and frontier_ok
    )
    _verdict(
        capsys,
        8,
        ok,
        f"norm defect {worst_norm:.1e}, projector defect {worst_proj:.1e}, "
        f"factored-vs-direct {worst_cc:.1e}, quarter-turn yaw rejected, "
        f"feasibility frontier {'matches' if frontier_ok else 'BROKEN'}",
    )
