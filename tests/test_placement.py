import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from spwt import (
    ArrayGeometry,
    InfeasibleGeometry,
    InvalidIndex,
    InvalidYaw,
    NullIndex,
    Position3D,
    PowerConfig,
    canonicalize_frame,
    correlation_map,
    solve_all,
    solve_azimuth_scheme,
    solve_pitch_scheme,
)
from spwt import placement
from spwt.placement import _bisect_gap, _pitch_gap, _scan_gap
from spwt.signalmodel import correlation_at
from conftest import (
    element_sum_map,
    explicit_correlation,
    finite_scenarios,
    grid_null_oracle,
    link_metrics,
    make_scenario,
    midpoint_symmetry_check,
    scalar_scan_bracket,
)

Y_REF = 630.4760106459247
PITCH_T_REF = 47.75273070615326  # outward distance of the extension-scheme root


def test_azimuth_reference_values(reference_scenario):
    solutions = solve_azimuth_scheme(reference_scenario)
    # row and column equations coincide at this yaw, so two placements
    assert len(solutions) == 2
    ys = sorted(s.position.y for s in solutions)
    assert ys[0] == pytest.approx(-630.476, abs=1e-3)
    assert ys[1] == pytest.approx(630.476, abs=1e-3)
    assert ys[1] == pytest.approx(Y_REF, abs=1e-9)
    for s in solutions:
        assert s.position.x == pytest.approx(250.0, abs=1e-12)
        assert s.position.z == 200.0
        assert s.scheme == "azimuth"
        assert s.null_residual <= 1e-10
        assert explicit_correlation(reference_scenario, s.position) <= 1e-10
        assert midpoint_symmetry_check(
            s.position, reference_scenario.bob, reference_scenario.eve
        )
    assert {s.branch for s in solutions} == {"+", "-"}


def test_azimuth_second_index(reference_scenario):
    # k = 2 shrinks the radicand to 360000/16, an exact square
    solutions = solve_azimuth_scheme(reference_scenario, NullIndex(k=2))
    ys = sorted(s.position.y for s in solutions)
    assert ys == pytest.approx([-150.0, 150.0], abs=1e-9)
    assert all(s.null_residual <= 1e-10 for s in solutions)


def test_azimuth_four_distinct_solutions_off_diagonal_yaw():
    # at a yaw where M^2 cos^2 and N^2 sin^2 differ, both equations are
    # feasible and give distinct offsets
    sc = make_scenario(yaw=math.pi / 3.0)
    solutions = solve_azimuth_scheme(sc)
    assert len(solutions) == 4
    assert {s.factor_used for s in solutions} == {"row", "column"}
    for s in solutions:
        assert s.null_residual <= 1e-8
    row_y = {abs(s.position.y) for s in solutions if s.factor_used == "row"}
    col_y = {abs(s.position.y) for s in solutions if s.factor_used == "column"}
    assert row_y != col_y


def test_azimuth_infeasible_when_too_high():
    with pytest.raises(InfeasibleGeometry):
        solve_azimuth_scheme(make_scenario(g=10_000.0))
    # (k * x_e) ** 2 beyond the float range: named, not OverflowError
    with pytest.raises(InfeasibleGeometry, match="overflows the float range"):
        solve_azimuth_scheme(make_scenario(m=3, n=5), NullIndex(k=10**300 + 1))


def test_azimuth_feasibility_threshold():
    # real solutions exist exactly when (M cos yaw)^2 x_e^2 >= k^2 (x_e^2 + 4 g^2)
    for m in (2, 4, 8):
        for yaw in (0.3, 0.7, 1.1, 2.0, 3.5, 5.2):
            for x_e in (100.0, 400.0, 1000.0):
                for g in (50.0, 200.0, 400.0):
                    for k in (1, 3):
                        feas_row = (m * math.cos(yaw) * x_e) ** 2 >= (
                            k * x_e
                        ) ** 2 + (2.0 * k * g) ** 2
                        feas_col = (m * math.sin(yaw) * x_e) ** 2 >= (
                            k * x_e
                        ) ** 2 + (2.0 * k * g) ** 2
                        sc = make_scenario(m=m, n=m, x_e=x_e, g=g, yaw=yaw)
                        if not (feas_row or feas_col):
                            with pytest.raises(InfeasibleGeometry):
                                solve_azimuth_scheme(sc, NullIndex(k=k))
                            continue
                        sols = solve_azimuth_scheme(sc, NullIndex(k=k))
                        assert sols
                        factors = {s.factor_used for s in sols}
                        if feas_row:
                            assert "row" in factors
                        # a feasible column solution can coincide with the
                        # row one and be merged, so only assert absence
                        if not feas_col:
                            assert "column" not in factors


def test_yaw_rejection_on_quarter_turns():
    for p in range(8):
        with pytest.raises(InvalidYaw):
            solve_azimuth_scheme(make_scenario(yaw=p * math.pi / 2.0))
        with pytest.raises(InvalidYaw):
            solve_pitch_scheme(make_scenario(yaw=p * math.pi / 2.0))
    with pytest.raises(InvalidYaw):
        solve_azimuth_scheme(make_scenario(yaw=math.pi / 2.0 + 1e-10))


def test_index_rejection():
    sc = make_scenario()  # 4x4
    for bad in (0, -1, 4, 8, 12):
        with pytest.raises(InvalidIndex):
            solve_azimuth_scheme(sc, NullIndex(k=bad))
    with pytest.raises(InvalidIndex):
        solve_pitch_scheme(sc, NullIndex(l=4))
    sc_rect = make_scenario(m=4, n=3)
    with pytest.raises(InvalidIndex):
        solve_azimuth_scheme(sc_rect, NullIndex(k=3))  # multiple of n


@pytest.mark.parametrize(
    "call",
    [
        lambda sc: solve_azimuth_scheme(sc, NullIndex(k=1.5)),
        lambda sc: solve_azimuth_scheme(sc, NullIndex(k=math.nan)),
        lambda sc: solve_azimuth_scheme(sc, NullIndex(k=math.inf)),
        lambda sc: solve_pitch_scheme(sc, NullIndex(l=1.5)),
        lambda sc: solve_pitch_scheme(sc, NullIndex(l=math.nan), side="right"),
        lambda sc: solve_azimuth_scheme(sc, NullIndex(k=10**400 + 1)),
        lambda sc: solve_pitch_scheme(sc, NullIndex(l=10**400 + 1)),
    ],
    ids=["k-1.5", "k-nan", "k-inf", "l-1.5", "l-nan", "k-huge", "l-huge"],
)
def test_non_whole_index_is_rejected_before_solving(reference_scenario, call):
    # these used to reach the null equations and fail there, with candidates
    # discarded as unverified, a gap reported as unattainable, or an integer
    # too large to convert to float
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidIndex, match="positive integer"):
            call(reference_scenario)
    assert caught == []


def test_higher_index_solutions_verify():
    sc = make_scenario(m=8, n=8)
    for k in (1, 2, 3):
        for s in solve_azimuth_scheme(sc, NullIndex(k=k)):
            assert s.null_residual <= 1e-8


def test_pitch_reference_root(reference_scenario):
    left = solve_pitch_scheme(reference_scenario, side="left")
    assert left.position.x == pytest.approx(-47.7, abs=0.1)
    assert left.position.x == pytest.approx(-PITCH_T_REF, abs=1e-6)
    assert left.position.y == 0.0
    assert left.null_residual <= 1e-8
    assert left.scheme == "pitch"
    right = solve_pitch_scheme(reference_scenario, side="right")
    assert right.position.x == pytest.approx(500.0 + PITCH_T_REF, abs=1e-6)
    assert right.null_residual <= 1e-8


def test_pitch_equation_residual(reference_scenario):
    sol = solve_pitch_scheme(reference_scenario, side="left")
    t = -sol.position.x
    gap = (500.0 + t) / math.hypot(500.0 + t, 200.0) - t / math.hypot(t, 200.0)
    target = 2.0 / (4.0 * math.cos(math.pi / 4.0))
    assert abs(gap - target) <= 1e-9


def test_pitch_column_factor_matches_row_here(reference_scenario):
    # M = N and |cos| = |sin| at this yaw, so both factors share the root
    row = solve_pitch_scheme(reference_scenario, side="left", factor="row")
    col = solve_pitch_scheme(reference_scenario, side="left", factor="column")
    assert row.position.x == pytest.approx(col.position.x, abs=1e-9)
    assert row.factor_used == "row"
    assert col.factor_used == "column"


def test_pitch_infeasible_when_gap_unreachable():
    # small array, high flight: the needed pitch-cosine gap is unattainable
    with pytest.raises(InfeasibleGeometry):
        solve_pitch_scheme(make_scenario(m=2, n=2, g=2000.0), side="left")


def test_bisection_without_convergence_raises(monkeypatch):
    target = 2.0 / (4.0 * math.cos(math.pi / 4.0))  # the reference root's gap
    assert _bisect_gap(500.0, 200.0, target) == pytest.approx(PITCH_T_REF, abs=1e-9)
    monkeypatch.setattr(placement, "_BISECT_MAX_ITER", 3)
    with pytest.raises(InfeasibleGeometry, match="did not converge in 3 iter") as info:
        _bisect_gap(500.0, 200.0, target)
    # the message names the residual of the last midpoint tried
    lo, hi = _scan_gap(500.0, 200.0, target)
    for _ in range(3):
        mid = 0.5 * (lo + hi)
        v = _pitch_gap(500.0, 200.0, mid) - target
        lo, hi = (mid, hi) if v > 0.0 else (lo, mid)
    assert abs(v) > 1e-12
    assert f"(equation residual {abs(v):.3e})" in str(info.value)
    # a solver reports it as the side's failure
    with pytest.raises(InfeasibleGeometry, match="did not converge"):
        solve_pitch_scheme(make_scenario(), side="left")


def test_pitch_gap_monotone_decreasing_outward():
    ts = np.logspace(-6, 6, 1000)
    gaps = [_pitch_gap(500.0, 200.0, float(t)) for t in ts]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] == pytest.approx(500.0 / math.hypot(500.0, 200.0), abs=1e-6)


def test_verify_null_rejects_generic_points(reference_scenario):
    assert correlation_at(reference_scenario, [Position3D(100.0, 100.0, 200.0)])[0] > 1e-3


def test_null_is_locally_sharp(reference_scenario):
    sol = solve_azimuth_scheme(reference_scenario)[0]
    shifted = Position3D(sol.position.x, sol.position.y + 5.0, sol.position.z)
    at, off = correlation_at(reference_scenario, [sol.position, shifted])
    assert at == sol.null_residual
    assert off >= 10.0 * max(at, 1e-15)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_scenario(g=math.nan),
        lambda: make_scenario(x_e=math.inf),
        lambda: make_scenario(yaw=math.nan),
        # the bisector closed form assumes both nodes on the ground
        lambda: replace(make_scenario(), eve=Position3D(500.0, 0.0, 30.0)),
    ],
    ids=["g-nan", "x_e-inf", "yaw-nan", "eve-30m-up"],
)
def test_no_certified_candidate_raises_infeasible(build):
    with pytest.warns(UserWarning, match="failed verification"):
        with pytest.raises(InfeasibleGeometry, match="every bisector candidate"):
            solve_azimuth_scheme(build())


def test_solve_all_order_and_failures():
    sc = make_scenario()
    solutions, failures = solve_all(sc)
    assert failures == []
    assert solutions == solve_azimuth_scheme(sc) + [
        solve_pitch_scheme(sc, side="left"),
        solve_pitch_scheme(sc, side="right"),
    ]
    assert [s.scheme for s in solutions] == ["azimuth", "azimuth", "pitch", "pitch"]
    # the order follows the requested schemes
    pitch_first, _ = solve_all(sc, ("pitch", "azimuth"))
    assert [s.scheme for s in pitch_first] == ["pitch", "pitch", "azimuth", "azimuth"]

    # 2x2 at 100 m: the bisector has placements, the extension has none
    solutions, failures = solve_all(make_scenario(m=2, n=2, g=100.0))
    assert [s.scheme for s in solutions] == ["azimuth", "azimuth"]
    assert len(failures) == 2
    assert failures[0].startswith("pitch left: extension scheme infeasible on the left")
    assert failures[1].startswith("pitch right: extension scheme infeasible on the right")

    solutions, failures = solve_all(make_scenario(g=10_000.0))
    assert solutions == []
    assert [f.split(":")[0] for f in failures] == ["azimuth", "pitch left", "pitch right"]
    assert "no real lateral offset" in failures[0]

    # invalid for every scheme: raised, not reported
    with pytest.raises(InvalidYaw):
        solve_all(make_scenario(yaw=math.pi / 2.0))
    with pytest.raises(InvalidIndex):
        solve_all(make_scenario(m=1))
    with pytest.raises(ValueError):
        solve_all(sc, ("spiral",))


def test_solutions_lie_on_their_loci():
    sc = make_scenario(yaw=2.0, x_e=700.0, g=120.0)
    for s in solve_azimuth_scheme(sc):
        assert s.position.x == pytest.approx(350.0, abs=1e-9)
    left = solve_pitch_scheme(sc, side="left")
    assert left.position.x < 0.0 and left.position.y == pytest.approx(0.0, abs=1e-9)
    right = solve_pitch_scheme(sc, side="right")
    assert right.position.x > 700.0


def test_raw_frame_round_trip():
    # identical physics after translating and rotating the ground frame
    sc_canon = make_scenario()
    bob = Position3D(120.0, -40.0, 0.0)
    eve = Position3D(120.0 + 300.0, -40.0 + 400.0, 0.0)  # still 500 m apart
    sc_raw = replace(sc_canon, bob=bob, eve=eve)
    sols_canon = sorted(s.position.y for s in solve_azimuth_scheme(sc_canon))
    sols_raw = solve_azimuth_scheme(sc_raw)
    tf = canonicalize_frame(bob, eve)
    back = sorted(tf.to_canonical(s.position).y for s in sols_raw)
    assert back == pytest.approx(sols_canon, abs=1e-9)
    for s in sols_raw:
        assert s.null_residual <= 1e-8


def test_grid_oracle_midline(reference_scenario):
    minima = grid_null_oracle(
        reference_scenario, "midline", 1.0, bounds=(-2000.0, 2000.0)
    )
    assert minima
    ys = [p.y for p, _ in minima]
    assert min(abs(y - 630.476) for y in ys) <= 1.0
    assert min(abs(y + 630.476) for y in ys) <= 1.0
    residuals = [r for _, r in minima]
    assert residuals == sorted(residuals)  # best first


def test_grid_oracle_axis_contains_pitch_roots(reference_scenario):
    minima = grid_null_oracle(
        reference_scenario, "axis", 0.5, bounds=(-200.0, 800.0)
    )
    xs = [p.x for p, _ in minima]
    assert min(abs(x + PITCH_T_REF) for x in xs) <= 0.5
    assert min(abs(x - (500.0 + PITCH_T_REF)) for x in xs) <= 0.5


def test_grid_oracle_single_element_sees_no_nulls():
    sc = make_scenario(m=1, n=1)
    assert grid_null_oracle(sc, "midline", 5.0, bounds=(-500.0, 500.0)) == []


def test_grid_oracle_box_contains_analytic_null(reference_scenario):
    minima = grid_null_oracle(
        reference_scenario,
        "box",
        2.0,
        bounds=((230.0, 270.0), (610.0, 650.0)),
    )
    assert minima and all(r < 1e-2 for _, r in minima)
    best = min(math.hypot(p.x - 250.0, p.y - Y_REF) for p, _ in minima)
    assert best <= 4.0  # within two cells of the closed-form point


def test_midline_residual_field_symmetric(reference_scenario):
    # reflection symmetry across the ground axis holds on the bisector
    ys = np.arange(-700.0, 700.0 + 2.5, 5.0)
    col = correlation_map(reference_scenario, np.array([250.0]), ys)[:, 0]
    assert np.max(np.abs(col - col[::-1])) <= 1e-12


# x = 0 and x = x_e (500 m) with y = 0 put grid points directly above each node.
MAP_XS = np.arange(-600.0, 1100.0 + 1.0, 50.0)
MAP_YS = np.arange(-700.0, 700.0 + 1.0, 50.0)


@pytest.mark.parametrize(
    "m,n,spacing_m",
    [(1, 1, None), (1, 8, None), (8, 1, None), (5, 7, None), (16, 16, None),
     (5, 7, 0.137)],
)
def test_correlation_map_matches_element_double_sum(m, n, spacing_m):
    sc = make_scenario(yaw=0.6)
    sc = replace(sc, array=ArrayGeometry(m, n, 3.0e9, spacing_m))
    got = correlation_map(sc, MAP_XS, MAP_YS)
    assert got.shape == (MAP_YS.size, MAP_XS.size)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - element_sum_map(sc, MAP_XS, MAP_YS))) <= 1e-12


def test_grid_oracle_validates_inputs(reference_scenario):
    with pytest.raises(ValueError):
        grid_null_oracle(reference_scenario, "midline", 0.0)
    with pytest.raises(ValueError):
        grid_null_oracle(reference_scenario, "spiral", 1.0)


def test_no_verification_warnings_in_normal_runs(reference_scenario):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_azimuth_scheme(reference_scenario)
        solve_pitch_scheme(reference_scenario, side="left")
        solve_pitch_scheme(reference_scenario, side="right")


@given(
    x_e=st.floats(1.0, 5000.0),
    g=st.floats(1.0, 5000.0),
    frac=st.floats(1e-6, 1.2),
)
def test_vectorised_prescan_matches_scalar_scan(x_e, g, frac):
    # targets up to 20% beyond the attainable gap, so some have no bracket
    target = frac * x_e / math.hypot(x_e, g)
    want = scalar_scan_bracket(x_e, g, target)
    if want is None:
        with pytest.raises(InfeasibleGeometry, match="no bracketing interval"):
            _scan_gap(x_e, g, target)
    else:
        assert _scan_gap(x_e, g, target) == want


_B = "bisector candidate y={} failed verification (|rho| = {}); discarded"
_E = "extension candidate x={} failed verification (|rho| = {}); discarded"

# Per case: the scenario, then the warning messages of solve_azimuth_scheme
# and of solve_pitch_scheme on each side, in emission order.  Every warning
# is a UserWarning.  "row-fails" has the eavesdropper 0.1 mm off the ground:
# both extension sides discard their row candidate and certify the column
# one, and the bisector keeps only its column placements.
WARNING_CASES = {
    "g-nan": (
        lambda: make_scenario(g=math.nan),
        [_B.format("0.000000", "nan")] * 2, [], [],
    ),
    "x_e-inf": (
        lambda: make_scenario(x_e=math.inf),
        [_B.format("0.000000", "nan")] * 2, [], [],
    ),
    "yaw-nan": (
        lambda: make_scenario(yaw=math.nan),
        [_B.format("0.000000", "nan")] * 2, [], [],
    ),
    "eve-30m-up": (
        lambda: replace(make_scenario(), eve=Position3D(500.0, 0.0, 30.0)),
        [_B.format("630.476011", "2.087e-04"), _B.format("-630.476011", "2.087e-04")] * 2,
        [_E.format("-47.752731", "5.880e-04")] * 2,
        [_E.format("547.752731", "3.896e-03")] * 2,
    ),
    "row-fails": (
        lambda: replace(
            make_scenario(m=8, n=4, yaw=0.6), eve=Position3D(500.0, 0.0, 1e-4)
        ),
        [_B.format("1619.325634", "1.070e-08"), _B.format("-1619.325634", "1.694e-08")],
        [_E.format("-173.710298", "1.089e-07")],
        [_E.format("673.710298", "5.244e-07")],
    ),
}


def _recorded(call):
    """The (category, message) pairs ``call`` warns, and what it returns or
    the type and text of what it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = call()
        except InfeasibleGeometry as exc:
            outcome = ("InfeasibleGeometry", str(exc))
    return [(w.category, str(w.message)) for w in caught], outcome


@pytest.mark.parametrize("case", sorted(WARNING_CASES))
def test_warning_sequences_are_pinned(case):
    build, az, left, right = WARNING_CASES[case]
    sc = build()
    calls = {
        "azimuth": lambda: solve_azimuth_scheme(sc),
        "left": lambda: solve_pitch_scheme(sc, side="left"),
        "right": lambda: solve_pitch_scheme(sc, side="right"),
        "all": lambda: solve_all(sc),
    }
    expected = {"azimuth": az, "left": left, "right": right, "all": az + left + right}
    first = {}
    # twice over on the same scenario object: a repeated call warns again,
    # in the same order, and gives the same result
    for _ in range(2):
        for name, call in calls.items():
            caught, outcome = _recorded(call)
            assert caught == [(UserWarning, m) for m in expected[name]], name
            assert outcome == first.setdefault(name, outcome), name
    if case == "row-fails":
        assert [s.factor_used for s in first["azimuth"]] == ["column", "column"]
        assert first["left"].factor_used == first["right"].factor_used == "column"
        assert first["all"] == (first["azimuth"] + [first["left"], first["right"]], [])
    else:
        assert first["azimuth"][1].startswith("every bisector candidate")
        assert first["left"][0] == first["right"][0] == "InfeasibleGeometry"


def _side_outcome(sc, side, factor):
    """solve_pitch_scheme's placement, or the text of its InfeasibleGeometry."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return solve_pitch_scheme(sc, side=side, factor=factor)
        except InfeasibleGeometry as exc:
            return str(exc)


@given(sc=finite_scenarios())
def test_default_factor_is_the_first_that_certifies(sc):
    for side in ("left", "right"):
        row, column, default = (
            _side_outcome(sc, side, factor) for factor in ("row", "column", None)
        )
        if not isinstance(row, str):
            assert default == row
        elif not isinstance(column, str) and "extension scheme" in row:
            # the row gap was unattainable or its candidate failed; a row
            # bisection that raised would end the side instead
            assert default == column
        else:
            assert isinstance(default, str)


@given(sc=finite_scenarios())
def test_every_solution_is_finite_certified_and_on_its_locus(sc):
    # finite_scenarios put the receiver at the origin and the eavesdropper
    # on the +x axis, so the caller's frame is the canonical one
    x_e, g = sc.eve.x, sc.uav_height_m
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solutions, _ = solve_all(sc)
    for s in solutions:
        p = s.position
        assert all(math.isfinite(v) for v in (p.x, p.y, p.z))
        assert p.z == g
        if s.scheme == "azimuth":
            assert p.x == pytest.approx(x_e / 2.0, rel=1e-12)
        else:
            assert p.y == pytest.approx(0.0, abs=1e-9)
            assert p.x < 0.0 or p.x > x_e
        assert s.null_residual <= 1e-8
        assert explicit_correlation(sc, p) <= 1e-8


@given(
    sc=finite_scenarios(),
    alpha=st.floats(0.0, 1.0),
    noise_b=st.floats(1e-6, 10.0),
    noise_e=st.floats(1e-6, 10.0),
)
def test_solution_rate_equals_per_point_link_metrics(sc, alpha, noise_b, noise_e):
    # each node at its own noise floor: sr_at_solution is the per-point rate
    # at the certified residual, to the bit
    assume(noise_b != noise_e)
    power = PowerConfig(sc.power.total_power_w, alpha, noise_b, noise_e)
    sc = replace(sc, power=power)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        solutions, _ = solve_all(sc)
    for s in solutions:
        want = link_metrics(s.null_residual, power).secrecy_rate_bps_hz
        assert s.sr_at_solution == want
