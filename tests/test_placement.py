import math
import os
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import spwt
from spwt import (
    ArrayGeometry,
    InfeasibleGeometry,
    Position3D,
    PowerConfig,
    correlation_map,
    solve_all,
    solve_azimuth_scheme,
    solve_pitch_scheme,
)
from spwt import placement
from spwt.scenario import SPEED_OF_LIGHT
from spwt.geometry import canonicalize_frame
from spwt.placement import _bisect_gap, _pitch_gap
import conftest
from conftest import (
    correlation_at,
    element_sum_map,
    explicit_correlation,
    finite_scenarios,
    gap_bracket_top,
    grid_null_oracle,
    link_metrics,
    log_uniform_scenarios,
    look_angles,
    make_scenario,
    midpoint_symmetry_check,
    pitch_on_factor,
    unchecked_position,
    unchecked_scenario,
)
from test_golden import CONFIGS, GOLDEN, study_scenarios

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
    solutions = solve_azimuth_scheme(reference_scenario, 2)
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
        solve_azimuth_scheme(make_scenario(m=3, n=5), 10**300 + 1)


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
                                solve_azimuth_scheme(sc, k)
                            continue
                        sols = solve_azimuth_scheme(sc, k)
                        assert sols
                        factors = {s.factor_used for s in sols}
                        if feas_row:
                            assert "row" in factors
                        # a feasible column solution can coincide with the
                        # row one and be merged, so only assert absence
                        if not feas_col:
                            assert "column" not in factors


def test_a_quarter_turn_places_on_its_live_factor():
    # at p*pi/2, and up to 5e-10 rad off it, one direction-cosine difference
    # is (nearly) constant on both loci, so its factor has no zero there;
    # the other factor, the row one at even p and the column one at odd p,
    # places wherever its count leaves it a zero at index 1, and nothing
    # fails verification
    for m, n in ((4, 4), (4, 2), (16, 16), (1, 8), (8, 1), (3, 5)):
        for p in range(8):
            live, count = ("row", m) if p % 2 == 0 else ("column", n)
            for delta in (0.0, 1e-12, -1e-12, 1e-10, 5e-10):
                sc = make_scenario(m=m, n=n, yaw=p * math.pi / 2.0 + delta)
                solutions, failures, discarded = solve_all(sc)
                assert discarded == [], (m, n, p, delta)
                assert bool(solutions) == (count > 1), (m, n, p, delta)
                for s in solutions:
                    assert s.factor_used == live
                    assert s.null_residual <= placement._NULL_TOL
                    assert explicit_correlation(sc, s.position) <= 1e-10, (sc, s)


def test_a_zero_factor_term_needs_an_infinite_gap():
    # a spacing whose phase_coef underflows to 0 leaves every factor term
    # 0: no bisector radicand is real and each extension factor reports the
    # gap it would need as inf, not a division by zero
    sc = replace(make_scenario(), array=ArrayGeometry(4, 4, 1.0, spacing_m=5e-324))
    assert sc.array.phase_coef == 0.0
    solutions, failures, _ = solve_all(sc)
    assert solutions == []
    assert [f.split(":")[0] for f in failures] == ["azimuth", "pitch left", "pitch right"]
    assert "no real lateral offset" in failures[0]
    for f in failures[1:]:
        assert f.count("needs a pitch-cosine gap of inf, above the attainable") == 2


def test_index_rejection():
    # an index below 1 is outside the model; one that both sides divide
    # leaves no factor a zero, which is an infeasible scenario
    sc = make_scenario()  # 4x4
    for bad in (0, -1):
        with pytest.raises(ValueError, match="positive integer"):
            solve_azimuth_scheme(sc, bad)
    sc_rect = make_scenario(m=4, n=3)
    for solve, scenario, k in (
        (solve_azimuth_scheme, sc, 4),
        (solve_azimuth_scheme, sc, 8),
        (solve_azimuth_scheme, sc, 12),
        (solve_pitch_scheme, sc, 4),
        (solve_azimuth_scheme, sc_rect, 12),  # a multiple of m and n
    ):
        with pytest.raises(InfeasibleGeometry) as info:
            solve(scenario, k)
        geom = scenario.array
        assert str(info.value) == (
            f"index {k} is a multiple of both array dimensions "
            f"({geom.m_rows}x{geom.n_cols}); neither factor has a zero there"
        )


def test_index_rule_is_per_factor():
    # an index that one array side divides leaves the other factor's zero
    sc = make_scenario(m=8, n=3)
    solutions = solve_azimuth_scheme(sc, 3)
    assert [s.factor_used for s in solutions] == ["row", "row"]
    for s in solutions:
        assert explicit_correlation(sc, s.position) <= 1e-8
    # an index that both divide names the index as a number, in any form
    for scenario, index in (
        (sc, 24), (sc, 24.0), (sc, np.int64(24)), (make_scenario(m=1, n=1), True),
    ):
        with pytest.raises(InfeasibleGeometry) as info:
            solve_pitch_scheme(scenario, index)
        geom = scenario.array
        assert str(info.value) == (
            f"index {int(index)} is a multiple of both array dimensions "
            f"({geom.m_rows}x{geom.n_cols}); neither factor has a zero there"
        )


@pytest.mark.parametrize(
    "sc, advice",
    [
        # the column term is 0 at yaw 0: no altitude helps, a turn away does
        (
            make_scenario(m=1, n=8, yaw=0.0, g=1e-3),
            "rotate the yaw away from the ground axis",
        ),
        # the row term is already 8 at yaw 0: only a lower altitude helps
        (make_scenario(m=8, n=1, yaw=0.0, g=5000.0), "lower the altitude"),
        (
            make_scenario(m=8, n=1, yaw=0.3, g=5000.0),
            "lower the altitude or rotate the yaw closer to the ground axis",
        ),
        # 0.01 m at 3 GHz: 4 elements reach 0.8 < 1 at any yaw
        (
            replace(make_scenario(), array=ArrayGeometry(4, 4, 3.0e9, 0.01)),
            "no altitude or yaw gives one",
        ),
    ],
    ids=["turn-only", "altitude-only", "both", "neither"],
)
def test_bisector_advice_names_only_what_can_help(sc, advice):
    failures = solve_all(sc, ("azimuth",))[1]
    assert len(failures) == 1 and failures[0].startswith("azimuth: no real lateral offset")
    assert failures[0].endswith(f" m^2); {advice}")


@pytest.mark.parametrize("m, n, live", [(1, 8, "column"), (8, 1, "row")])
@pytest.mark.parametrize("carrier_hz, spacing_m", [(3.0e9, None), (5.8e9, 0.12)])
def test_linear_arrays_place_on_their_one_factor(m, n, live, carrier_hz, spacing_m):
    # a one-element side's sum never vanishes, so its factor is skipped, not
    # solved: at 5.8 GHz and 0.12 m its closed form gives points that fail
    # certification
    sc = replace(make_scenario(), array=ArrayGeometry(m, n, carrier_hz, spacing_m))
    solutions, failures, discarded = solve_all(sc)
    assert (discarded, failures) == ([], [])
    assert [s.factor_used for s in solutions] == [live] * 4
    for s in solutions:
        assert explicit_correlation(sc, s.position) <= 1e-8


@pytest.mark.parametrize("spacing_m, placements", [(0.03, 4), (0.07, 6), (0.12, 6)])
def test_solvers_honour_the_element_spacing(spacing_m, placements):
    # the phase step per element is phase_coef, not pi, away from
    # half-wavelength spacing; null equations that assumed pi placed nothing
    sc = make_scenario(yaw=math.pi / 4.0 + 0.1)
    sc = replace(sc, array=ArrayGeometry(4, 4, 3.0e9, spacing_m))
    solutions, _, discarded = solve_all(sc)
    assert discarded == []
    assert len(solutions) == placements
    for s in solutions:
        assert s.null_residual <= 1e-12
        assert explicit_correlation(sc, s.position) <= 1e-8


def test_pitch_rejects_an_unknown_side(reference_scenario):
    # checked before the scenario is solved: on a 1x1 array, which has no
    # factor zero, a bad side still reads as one
    for sc in (reference_scenario, make_scenario(m=1, n=1)):
        with pytest.raises(ValueError) as info:
            solve_pitch_scheme(sc, side="up")
        assert type(info.value) is ValueError
        assert str(info.value) == "side must be 'left' or 'right'"


@pytest.mark.parametrize(
    "call",
    [
        lambda sc: solve_azimuth_scheme(sc, 1.5),
        lambda sc: solve_azimuth_scheme(sc, math.nan),
        lambda sc: solve_azimuth_scheme(sc, math.inf),
        lambda sc: solve_pitch_scheme(sc, 1.5),
        lambda sc: solve_pitch_scheme(sc, math.nan, side="right"),
        lambda sc: solve_azimuth_scheme(sc, 10**400 + 1),
        lambda sc: solve_pitch_scheme(sc, 10**400 + 1),
        lambda sc: solve_azimuth_scheme(
            replace(sc, array=ArrayGeometry(1, 1, 3.0e9)), 1.5
        ),
    ],
    ids=["k-1.5", "k-nan", "k-inf", "l-1.5", "l-nan", "k-huge", "l-huge", "k-1.5-1x1"],
)
def test_non_whole_index_is_rejected_before_solving(reference_scenario, call):
    # these used to reach the null equations and fail there, with candidates
    # discarded as unverified, a gap reported as unattainable, or an integer
    # too large to convert to float; on a 1x1 array, which has no factor
    # zero, the index is still outside the model
    with pytest.raises(ValueError, match="positive integer") as info:
        call(reference_scenario)
    assert type(info.value) is ValueError


def test_higher_index_solutions_verify():
    sc = make_scenario(m=8, n=8)
    for k in (1, 2, 3):
        for s in solve_azimuth_scheme(sc, k):
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
    row = pitch_on_factor(reference_scenario, "row")
    col = pitch_on_factor(reference_scenario, "column")
    assert row.position.x == pytest.approx(col.position.x, abs=1e-9)
    assert row.factor_used == "row"
    assert col.factor_used == "column"


def test_pitch_infeasible_when_gap_unreachable():
    # small array, high flight: the needed pitch-cosine gap is unattainable,
    # and the message says what would make it attainable
    with pytest.raises(InfeasibleGeometry, match="or use a larger array$"):
        solve_pitch_scheme(make_scenario(m=2, n=2, g=2000.0), side="left")


def test_bisection_without_convergence_raises(monkeypatch):
    x_e, g = 500.0, 200.0
    target = 2.0 / (4.0 * math.cos(math.pi / 4.0))  # the reference root's gap
    assert _bisect_gap(x_e, g, target) == pytest.approx(PITCH_T_REF, abs=1e-9)
    monkeypatch.setattr(placement, "_BISECT_MAX_ITER", 3)
    with pytest.raises(InfeasibleGeometry, match="did not converge in 3 iter") as info:
        _bisect_gap(x_e, g, target)
    # the message names the residual of the last point tried: Newton steps
    # from the bracket's upper end, halving where a step would leave it
    lo, hi = 0.0, gap_bracket_top(x_e, g, target)
    t = hi
    for _ in range(3):
        v, slope, near = _pitch_gap(x_e, g, t)
        v -= target
        lo, hi = (t, hi) if v > 0.0 else (lo, t)
        step = t - v / slope
        t = step if lo < step < hi else 0.5 * (lo + hi)
    assert abs(v) > 4.0 * sys.float_info.epsilon * (target + 2.0 * near)
    assert f"(equation residual {abs(v):.3e})" in str(info.value)
    # a solver reports it as the side's failure
    with pytest.raises(InfeasibleGeometry, match="did not converge"):
        solve_pitch_scheme(make_scenario(), side="left")


def test_row_root_search_that_raises_falls_back_to_the_column(monkeypatch):
    sc = make_scenario(m=4, n=8, yaw=0.6)
    row_target = 2.0 / (4 * abs(math.cos(0.6)))
    bisect = placement._bisect_gap

    def row_fails(x_e, g, target):
        if target == row_target:
            raise InfeasibleGeometry("row root search did not converge")
        return bisect(x_e, g, target)

    monkeypatch.setattr(placement, "_bisect_gap", row_fails)
    assert solve_pitch_scheme(sc, side="left").factor_used == "column"
    # with one column, whose factor is skipped, the side names the root
    # search, with no advice meant for an unattainable gap
    with pytest.raises(InfeasibleGeometry) as info:
        solve_pitch_scheme(make_scenario(m=4, n=1, yaw=0.6), side="left")
    assert str(info.value) == (
        "extension scheme infeasible on the left side: "
        "row root search did not converge"
    )


def test_pitch_gap_monotone_decreasing_outward():
    ts = np.logspace(-6, 6, 1000)
    gaps = [_pitch_gap(500.0, 200.0, float(t))[0] for t in ts]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] == pytest.approx(500.0 / math.hypot(500.0, 200.0), abs=1e-6)
    # the slope the Newton steps take matches a central difference
    for t in (1e-3, 1.0, PITCH_T_REF, 1e3, 1e4):
        h = 1e-4 * t
        up, down = _pitch_gap(500.0, 200.0, t + h)[0], _pitch_gap(500.0, 200.0, t - h)[0]
        assert _pitch_gap(500.0, 200.0, t)[1] == pytest.approx((up - down) / (2 * h), rel=1e-6)


def test_solve_all_finds_each_extension_root_once(monkeypatch):
    gap = placement._pitch_gap
    calls = []

    def counted(x_e, g, t):
        calls.append(t)
        return gap(x_e, g, t)

    monkeypatch.setattr(placement, "_pitch_gap", counted)
    solutions, failures, _ = solve_all(make_scenario())
    assert len(solutions) == 4 and not failures
    # One root, the row factor's, five Newton steps from the top of its
    # bracket, serves both sides; the column factor, which no side needs,
    # takes none, and one root per side would take twice as many.
    assert len(calls) <= 6


def test_default_pitch_solve_computes_the_column_factor_only_when_the_row_fails(
    monkeypatch, kernel_calls
):
    # the reference row factor serves both sides: one root search and one
    # certification pass; the column factor asked for alone adds exactly one
    # of each, and a row whose candidates fail adds the column's to its own
    roots = []
    bisect = placement._bisect_gap

    def counting(*args):
        roots.append(args)
        return bisect(*args)

    monkeypatch.setattr(placement, "_bisect_gap", counting)
    sc = make_scenario()
    solve_pitch_scheme(sc, side="left")
    solve_pitch_scheme(sc, side="right")
    assert (len(roots), len(kernel_calls)) == (1, 1)
    column = pitch_on_factor(sc, "column")
    pitch_on_factor(sc, "column", "right")
    assert column.factor_used == "column"
    assert (len(roots), len(kernel_calls)) == (2, 2)
    sc = make_scenario(m=10**9, n=4)
    assert solve_pitch_scheme(sc, side="left").factor_used == "column"
    solve_pitch_scheme(sc, side="right")
    assert (len(roots), len(kernel_calls)) == (4, 4)


@given(sc=finite_scenarios())
def test_both_sides_take_each_factors_root_from_one_t(sc):
    # finite_scenarios put the receiver at the origin and the eavesdropper
    # on the +x axis, so the caller's frame is the canonical one; the
    # candidates are read as certification is handed them
    passed, certify = [], placement._certify

    def recording(scenario, candidates, index):
        passed.append(candidates)
        return certify(scenario, candidates, index)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placement, "_certify", recording)
        for fac in ("row", "column"):
            term = placement._factors(sc, 1)[fac]
            del passed[:]
            sides = placement._extension_candidates(sc, 1, fac, term)
            left, right = sides["left"], sides["right"]
            if isinstance(left, tuple):  # no candidate on either side
                assert isinstance(right, tuple) and passed == []
                assert left[1] == right[1]  # the same advice on both, or none
                if "above the attainable" not in left[0]:
                    assert right == left  # the one root search's message
                continue
            (candidates,) = passed
            (*head, (x_l, y_l)), (*head_r, (x_r, y_r)) = candidates
            t = -x_l
            assert (x_r, y_l, y_r) == (sc.eve.x + t, 0.0, 0.0)  # x = -t and x = x_e + t
            assert head_r == head == ["pitch", fac, head[2]]  # one branch
            for outcome, x in ((left, x_l), (right, x_r)):
                if isinstance(outcome, placement.PlacementSolution):
                    assert outcome.position.x == x
                    assert [outcome.scheme, outcome.factor_used, outcome.branch] == head
                else:
                    assert outcome.startswith(f"extension candidate at ({x!r}, 0.0) ")


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
        lambda: unchecked_scenario(uav_height_m=math.nan),
        lambda: unchecked_scenario(eve=unchecked_position(math.inf, 0.0)),
        lambda: unchecked_scenario(yaw=math.nan),
    ],
    ids=["g-nan", "x_e-inf", "yaw-nan"],
)
def test_no_certified_candidate_raises_infeasible(build):
    # the discarded candidate is solve_all's to report
    sc = build()
    with pytest.raises(InfeasibleGeometry) as info:
        solve_azimuth_scheme(sc)
    assert str(info.value) == "every bisector candidate failed verification"
    solutions, failures, discarded = solve_all(sc, ("azimuth",))
    assert (solutions, failures) == ([], [f"azimuth: {info.value}"])
    assert [d.split(" (")[0] for d in discarded] == ["bisector candidate at"]


_LIFTED = "the placement schemes need both ground nodes at z = 0"


@pytest.mark.parametrize(
    "bob_z, eve_z",
    [(0.0, 30.0), (50.0, 0.0), (0.0, -1e-4), (1e-300, 0.0)],
    ids=["eve-30m-up", "bob-50m-up", "eve-0.1mm-down", "bob-1e-300m-up"],
)
def test_lifted_ground_node_is_rejected_before_any_kernel_call(
    kernel_calls, bob_z, eve_z
):
    # the null equations of both schemes assume both nodes on the ground, so
    # a lifted node is refused when its scenario is built, before any solver
    # computes a candidate
    def lifted():
        return replace(
            make_scenario(),
            bob=Position3D(0.0, 0.0, bob_z),
            eve=Position3D(500.0, 0.0, eve_z),
        )

    calls = [
        lifted,
        lambda: solve_azimuth_scheme(lifted()),
        lambda: solve_pitch_scheme(lifted(), side="left"),
        lambda: solve_all(lifted()),
        lambda: solve_all(lifted(), ("pitch",)),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError
        assert str(info.value) == _LIFTED
    assert kernel_calls == []


def test_solve_all_order_and_failures():
    sc = make_scenario()
    solutions, failures, discarded = solve_all(sc)
    assert failures == discarded == []
    assert solutions == solve_azimuth_scheme(sc) + [
        solve_pitch_scheme(sc, side="left"),
        solve_pitch_scheme(sc, side="right"),
    ]
    assert [s.scheme for s in solutions] == ["azimuth", "azimuth", "pitch", "pitch"]
    # the order follows the requested schemes
    pitch_first = solve_all(sc, ("pitch", "azimuth"))[0]
    assert [s.scheme for s in pitch_first] == ["pitch", "pitch", "azimuth", "azimuth"]

    # 2x2 at 100 m: the bisector has placements, the extension has none
    solutions, failures, _ = solve_all(make_scenario(m=2, n=2, g=100.0))
    assert [s.scheme for s in solutions] == ["azimuth", "azimuth"]
    assert len(failures) == 2
    assert failures[0].startswith("pitch left: extension scheme infeasible on the left")
    assert failures[1].startswith("pitch right: extension scheme infeasible on the right")

    solutions, failures, _ = solve_all(make_scenario(g=10_000.0))
    assert solutions == []
    assert [f.split(":")[0] for f in failures] == ["azimuth", "pitch left", "pitch right"]
    assert failures[0].endswith(
        "; lower the altitude or rotate the yaw closer to the ground axis"
    )

    # a quarter-turn yaw is reported like any other scenario: a 1x8 array
    # has only its column factor, which yaw 0 zeroes (the extension scheme
    # needs an infinite gap, which no altitude, index or array size gives,
    # and the bisector a yaw turned away from the ground axis), and which
    # places on every locus at pi/2
    solutions, failures, _ = solve_all(make_scenario(m=1, n=8, yaw=0.0))
    assert solutions == []
    assert failures[0].endswith("m^2); rotate the yaw away from the ground axis")
    for side, f in zip(("left", "right"), failures[1:]):
        assert f.endswith(f"gap of inf, above the attainable 0.928477 on the {side} side")
    solutions, failures, _ = solve_all(make_scenario(m=1, n=8, yaw=math.pi / 2.0))
    assert {s.factor_used for s in solutions} == {"column"} and failures == []

    # no factor has a zero at the index: reported for every scheme and side
    solutions, failures, _ = solve_all(make_scenario(m=1, n=1))
    why = "multiple of both array dimensions (1x1); neither factor has a zero there"
    assert solutions == []
    names = ("azimuth", "pitch left", "pitch right")
    assert failures == [f"{name}: index 1 is a {why}" for name in names]
    with pytest.raises(ValueError):
        solve_all(sc, ("spiral",))


def test_solve_all_rejects_an_unknown_scheme_before_solving(kernel_calls):
    # the bisector of a nan altitude discards its candidate; a scheme name
    # it cannot solve is rejected before the kernel runs
    sc = unchecked_scenario(uav_height_m=math.nan)
    with pytest.raises(ValueError, match="scheme must be 'azimuth' or 'pitch'"):
        solve_all(sc, ("azimuth", "spiral"))
    assert kernel_calls == []


@example(sc=make_scenario(), m=1, n=1, k=1)
@given(
    sc=finite_scenarios(),
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    k=st.integers(1, 12),
)
def test_small_arrays_place_certified_or_raise_infeasible(sc, m, n, k):
    # indices that one side, both or neither divides, each factor alone or
    # the solver's: a solver returns placements certified at 1e-8 or raises
    # InfeasibleGeometry, and solve_all reports what has none
    sc = replace(sc, array=ArrayGeometry(m, n, 3.0e9))
    calls = [lambda: solve_azimuth_scheme(sc, k)] + [
        lambda side=side: [solve_pitch_scheme(sc, k, side)] for side in ("left", "right")
    ] + [
        lambda side=side, fac=fac: [pitch_on_factor(sc, fac, side, k)]
        for side in ("left", "right")
        for fac in ("row", "column")
    ]
    placed = []
    for call in calls:
        try:
            placed.extend(call())
        except InfeasibleGeometry:
            pass
    solutions, failures, _ = solve_all(sc)
    for s in placed + solutions:
        assert s.null_residual <= 1e-8
        assert correlation_map(sc, [s.position.x], [s.position.y])[0, 0] <= 1e-8
    assert {f.split(":")[0] for f in failures} <= {"azimuth", "pitch left", "pitch right"}
    if m == n == 1:
        assert (solutions, len(failures)) == ([], 3)


def test_solutions_lie_on_their_loci():
    sc = make_scenario(yaw=2.0, x_e=700.0, g=120.0)
    for s in solve_azimuth_scheme(sc):
        assert s.position.x == pytest.approx(350.0, abs=1e-9)
    left = solve_pitch_scheme(sc, side="left")
    assert left.position.x < 0.0 and left.position.y == pytest.approx(0.0, abs=1e-9)
    right = solve_pitch_scheme(sc, side="right")
    assert right.position.x > 700.0


def _solved(sc):
    """solve_all(sc)'s solutions, and which schemes and sides failed."""
    solutions, failures, _ = solve_all(sc)
    return solutions, [f.split(":")[0] for f in failures]


def _labels(solutions):
    return [(s.scheme, s.branch, s.factor_used) for s in solutions]


# The model's symmetries, over finite_scenarios (receiver at the origin,
# eavesdropper on the +x axis).  The yaw is measured from the ground axis,
# so it moves with the pair.
@given(
    sc=finite_scenarios(),
    dx=st.floats(-1e6, 1e6),
    dy=st.floats(-1e6, 1e6),
    turn=st.floats(0.0, 2.0 * math.pi),
)
def test_rigid_motion_of_the_ground_pair_moves_every_placement(sc, dx, dy, turn):
    c, s = math.cos(turn), math.sin(turn)
    x_e = sc.eve.x
    eve = Position3D(dx + c * x_e, dy + s * x_e)
    moved = replace(sc, bob=Position3D(dx, dy), eve=eve)
    want, want_failed = _solved(sc)
    got, got_failed = _solved(moved)
    assert (_labels(got), got_failed) == (_labels(want), want_failed)
    for a, b in zip(want, got):
        p = a.position
        follow = (dx + c * p.x - s * p.y, dy + s * p.x + c * p.y, p.z)
        assert math.dist(follow, astuple(b.position)) <= 1e-6


@given(sc=finite_scenarios())
def test_mirrored_yaw_mirrors_every_placement(sc):
    want, want_failed = _solved(sc)
    got, got_failed = _solved(replace(sc, yaw=-sc.yaw))
    assert got_failed == want_failed

    # the residuals at a mirrored point agree to rounding only; both certify
    def mirrored(solutions, sign):
        return sorted(
            (s.scheme, s.factor_used, s.position.x, sign * s.position.y, s.position.z)
            for s in solutions
        )

    assert mirrored(got, -1.0) == mirrored(want, 1.0)


@given(sc=finite_scenarios(), scale=st.floats(1e-3, 1e3))
def test_scaling_every_length_scales_every_placement(sc, scale):
    # the half-wavelength spacing scales with the wavelength
    geom = sc.array
    scaled = replace(
        sc,
        array=ArrayGeometry(geom.m_rows, geom.n_cols, geom.carrier_hz / scale),
        eve=Position3D(sc.eve.x * scale, 0.0),
        uav_height_m=sc.uav_height_m * scale,
    )
    want, want_failed = _solved(sc)
    got, got_failed = _solved(scaled)
    assert (_labels(got), got_failed) == (_labels(want), want_failed)
    for a, b in zip(want, got):
        p = [scale * v for v in astuple(a.position)]
        assert math.dist(p, astuple(b.position)) <= 1e-9 * math.hypot(*p)


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


def test_chunk_size_does_not_change_the_map(monkeypatch, reference_scenario):
    # a point's bits do not depend on the points mapped with it: the default
    # 401-point axis mapped in chunks of 2^10 and of 2^16 points give the same
    # bits, and so do a 20,000-point row and its 1,000-point pieces
    axis = np.arange(-1000.0, 1000.0 + 2.5, 5.0)
    maps = []
    for chunk in (1 << 10, 1 << 16):
        monkeypatch.setattr(placement, "_MAP_CHUNK", chunk)
        maps.append(correlation_map(reference_scenario, axis, axis))
    assert np.array_equal(*maps)
    monkeypatch.undo()
    xs = np.linspace(-1000.0, 1000.0, 20_000)
    whole = correlation_map(reference_scenario, xs, [123.0])
    pieces = [
        correlation_map(reference_scenario, xs[i : i + 1000], [123.0])
        for i in range(0, xs.size, 1000)
    ]
    assert np.array_equal(whole, np.concatenate(pieces, axis=1))


# One sha256 over the default 401-point axis's maps of the golden configs,
# and over their pattern.csv text, whose writer uses only correctly rounded
# numpy operations (comparisons, products, rint, divmod).
_MAP_HASH = """
import hashlib, io, sys
import numpy as np
from spwt import correlation_map
from spwt.cli import _resolve_config, _scenario, parse_config
from spwt.pattern import _write_pattern_csv
axis = np.arange(-1000.0, 1000.0 + 2.5, 5.0)
digest = hashlib.sha256()
for path in sys.argv[1:]:
    scenario = _scenario(_resolve_config(parse_config(path), None))
    values = correlation_map(scenario, axis, axis)
    text = io.StringIO()
    _write_pattern_csv(text, axis, [values])
    digest.update(values.tobytes())
    digest.update(text.getvalue().encode())
print(digest.hexdigest())
"""


def test_the_simd_target_does_not_change_the_map():
    # numpy picks a SIMD loop per function at import, from the targets the
    # CPU has less those NPY_DISABLE_CPU_FEATURES names; in a fresh process
    # per setting, the host's targets are turned off from the highest down,
    # one more each time, and every setting must give the same map bits and
    # the same pattern.csv bytes
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    targets = [t for t in reversed(umath.__cpu_dispatch__) if features.get(t)]
    if not targets:
        pytest.skip("numpy dispatches to no target above its baseline on this CPU")
    configs = [str(GOLDEN / f"{name}.cfg") for name in CONFIGS]
    env = dict(os.environ, PYTHONPATH=str(Path(spwt.__file__).parents[1]))
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    hashes = {}
    for i in range(len(targets) + 1):
        disabled = " ".join(targets[:i])
        proc = subprocess.run(
            [sys.executable, "-c", _MAP_HASH, *configs],
            env=dict(env, NPY_DISABLE_CPU_FEATURES=disabled),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        hashes[disabled or "none"] = proc.stdout.strip()
    assert len(set(hashes.values())) == 1, hashes


@pytest.mark.parametrize("seed", [None, 1])
def test_only_a_hypothesis_seed_lifts_the_fixed_example_set(seed, request):
    # a derandomized profile ignores --hypothesis-seed, so the suite's hook
    # loads a copy that is not derandomized only when a seed is given; the
    # session's own profile is loaded again after
    class Options:
        def getoption(self, name, default=None):
            return {"hypothesis_seed": seed}.get(name, default)

    try:
        settings.load_profile("spwt")
        conftest.pytest_configure(Options())
        assert settings.default.derandomize is (seed is None)
        assert settings.default.max_examples == 40
    finally:
        settings.load_profile("spwt")
        conftest.pytest_configure(request.config)


def test_a_strided_grid_equals_the_whole_maps_cells(reference_scenario):
    # pattern's heatmap maps only the cells it draws, every third point of
    # the default 401-point axis; its SVG bytes need the whole map's bits
    axis = np.arange(-1000.0, 1000.0 + 2.5, 5.0)
    drawn = axis[::3]
    whole = correlation_map(reference_scenario, axis, axis)
    assert np.array_equal(correlation_map(reference_scenario, drawn, drawn), whole[::3, ::3])


def test_the_map_reads_each_placements_certified_residual():
    # certification reads |rho| from the math kernel and the map from the
    # numpy kernel; over 600 random scenarios in the identity frame (the
    # receiver at the origin, the eavesdropper on +x), the map at every
    # certified placement is its null_residual, bit for bit
    rng = np.random.default_rng(47)
    count = 0
    for _ in range(600):
        quarter = int(rng.integers(0, 4))
        sc = make_scenario(
            m=int(rng.integers(2, 17)),
            n=int(rng.integers(2, 17)),
            x_e=float(rng.uniform(50.0, 2000.0)),
            g=float(rng.uniform(10.0, 600.0)),
            yaw=quarter * math.pi / 2.0 + float(rng.uniform(0.05, math.pi / 2.0 - 0.05)),
        )
        for s in solve_all(sc)[0]:
            at = correlation_map(sc, [s.position.x], [s.position.y])[0, 0]
            assert at == s.null_residual, (sc, s)
            count += 1
    assert count > 2000


def test_the_map_reads_a_null_at_each_placement_in_a_turned_frame():
    # the map takes caller-frame points, as the placements are: on the
    # studies' three scenarios whose ground pair is shifted off the origin
    # and turned, it reads at most the certification tolerance at each of
    # their certified placements
    turned = [sc for sc, _ in study_scenarios() if (sc.bob.x, sc.bob.y) != (0.0, 0.0)]
    assert len(turned) == 3
    count = 0
    for sc in turned:
        for s in solve_all(sc)[0]:
            at = correlation_map(sc, [s.position.x], [s.position.y])[0, 0]
            assert at <= placement._NULL_TOL, (sc, s)
            count += 1
    assert count == 14


@settings(max_examples=100)
@given(
    sc=finite_scenarios(),
    decades=st.floats(0.0, 13.0),
    heading=st.floats(-math.pi, math.pi),
    bearing=st.floats(-math.pi, math.pi),
)
def test_the_map_reads_each_placements_certified_residual_in_any_frame(
    sc, decades, heading, bearing
):
    # certification reads |rho| at the canonical image of the position
    # returned, so the map at that position reads it bit for bit, however
    # far off the origin the receiver lies (up to 1e13 m toward ``heading``,
    # log-uniform) and at whatever ``bearing`` the eavesdropper lies from it
    offset, d = 10.0**decades, sc.eve.x
    bob = Position3D(offset * math.cos(heading), offset * math.sin(heading))
    eve = Position3D(bob.x + d * math.cos(bearing), bob.y + d * math.sin(bearing))
    sc = replace(sc, bob=bob, eve=eve)
    for s in solve_all(sc)[0]:
        at = correlation_map(sc, [s.position.x], [s.position.y])[0, 0]
        assert at == s.null_residual, s


def test_a_candidate_rounded_off_its_null_is_discarded():
    # with the receiver at (1e12, -7e11) m, mapping a canonical null to the
    # caller's frame rounds four of the six candidates to points whose |rho|
    # is above 1e-8: each is discarded, not returned as certified at its
    # canonical point's |rho|, which is below 1e-15 for all six
    bob = Position3D(1e12, -7e11)
    eve = Position3D(bob.x + 430.0 * math.cos(2.2), bob.y + 430.0 * math.sin(2.2))
    sc = replace(make_scenario(g=180.0, yaw=1.1), bob=bob, eve=eve)
    solutions, failures, discarded = solve_all(sc)
    assert (len(solutions), len(failures), len(discarded)) == (2, 2, 4)
    assert [f.split(":")[0] for f in failures] == ["pitch left", "pitch right"]
    assert all("candidate failed verification" in f for f in failures)
    assert all(text.endswith("; discarded") for text in discarded)
    # each discard names the caller-frame point certified, exactly: its x
    # is near 1e12 m (the canonical point's y was 713.304), the map reads
    # the text's |rho| there, and no two discards name one point
    assert [text.split(" at ")[0] for text in discarded] == [
        "bisector candidate", "bisector candidate", "extension candidate", "extension candidate"
    ]
    points = [text.split(" at (")[1].split(")")[0] for text in discarded]
    assert len(set(points)) == 4
    for text, point in zip(discarded, points):
        x, y = map(float, point.split(", "))
        assert abs(x - bob.x) <= 1e-6 * bob.x
        rho = correlation_map(sc, [x], [y])[0, 0]
        assert rho > placement._NULL_TOL and f"(|rho| = {rho:.3e})" in text
    for s in solutions:
        assert s.null_residual <= placement._NULL_TOL
        assert correlation_map(sc, [s.position.x], [s.position.y])[0, 0] == s.null_residual


def test_grid_oracle_validates_inputs(reference_scenario):
    with pytest.raises(ValueError):
        grid_null_oracle(reference_scenario, "midline", 0.0)
    with pytest.raises(ValueError):
        grid_null_oracle(reference_scenario, "spiral", 1.0)


def test_no_verification_warnings_in_normal_runs(reference_scenario):
    # nothing is discarded, so the CLI prints no warning line
    assert solve_all(reference_scenario)[1:] == ([], [])


def _factor_targets(sc):
    """Each factor's name, the extension gap it needs at index 1 (inf where
    its trig term is 0) and its bisector radicand (y^2 at index 1; the
    frame is the canonical one)."""
    x_e, g = sc.eve.x, sc.uav_height_m
    for fac, count, trig in (
        ("row", sc.array.m_rows, math.cos(sc.yaw)),
        ("column", sc.array.n_cols, math.sin(sc.yaw)),
    ):
        radicand = ((count * trig * x_e) ** 2 - x_e**2 - (2.0 * g) ** 2) / 4.0
        yield fac, 2.0 / (count * abs(trig)) if trig else math.inf, radicand


@given(sc=log_uniform_scenarios())
def test_root_lies_in_its_bracket_and_solves_the_equation(sc):
    x_e, g = sc.eve.x, sc.uav_height_m
    gap_max = x_e / math.hypot(x_e, g)
    for _, target, _ in _factor_targets(sc):
        if not target < gap_max:
            continue
        t = _bisect_gap(x_e, g, target)
        assert 0.0 < t <= gap_bracket_top(x_e, g, target)
        # the two bounds the bracket rests on, at the root
        gap = _pitch_gap(x_e, g, t)[0]
        assert gap <= x_e * g * g / t**3
        assert gap <= 1.0 - t / math.hypot(t, g)
        # the stop rule: the rounding of the gap's two terms
        tol = 4.0 * sys.float_info.epsilon * (target + 2.0 * t / math.hypot(t, g))
        assert abs(gap - target) <= tol


@settings(max_examples=400)
@given(sc=log_uniform_scenarios())
def test_every_attainable_null_is_placed(sc):
    # completeness over many decades of array size, segment and altitude:
    # an attainable extension gap gives a certified placement on both
    # sides for that factor, a positive bisector radicand a placement at
    # that factor's offset
    x_e, g = sc.eve.x, sc.uav_height_m
    gap_max = x_e / math.hypot(x_e, g)
    bisector = None
    for fac, target, radicand in _factor_targets(sc):
        if target < gap_max:
            for side in ("left", "right"):
                s = pitch_on_factor(sc, fac, side)
                assert s.factor_used == fac
                assert s.null_residual <= 1e-8
        if radicand > 0.0:
            bisector = bisector or solve_azimuth_scheme(sc)
            y = math.sqrt(radicand)
            assert any(
                math.isclose(abs(s.position.y), y, rel_tol=1e-9, abs_tol=1e-6)
                for s in bisector
            )


# -- completeness against an independent scan ------------------------------
# Each locus is scanned for the zeros of each factor at the null index from
# explicit look angles, with neither the kernel nor the null equations.  A
# factor of M elements whose per-element phase increment is a vanishes where
# |a| = 2*pi*k/M and M does not divide k, so each sign change of
# |a| - 2*pi*k/M (row) or |b| - 2*pi*k/N (column) along a half-line brackets
# a candidate, which bisection refines and explicit_correlation confirms.  A
# sign-change scan cannot see a tangential (double) root, where the increment
# touches its level without crossing it.

# Scan points per half-line, log-spaced, in units of hypot(x_e, g): the
# extension's roots lie within about 4*g of the segment's ends.
_SCAN = np.geomspace(1e-9, 1e3, 4000)


def _increments(sc, pitch_b, rel_b, pitch_e, rel_e):
    """|a| and |b|, the row and column phase increments per element between
    the receiver's and the eavesdropper's steering vectors, from each
    node's pitch and yaw-relative azimuth (floats or numpy arrays)."""
    coef = sc.array.phase_coef
    cos_b, cos_e = np.cos(pitch_b), np.cos(pitch_e)
    return (
        abs(coef * (cos_e * np.cos(rel_e) - cos_b * np.cos(rel_b))),
        abs(coef * (cos_e * np.sin(rel_e) - cos_b * np.sin(rel_b))),
    )


def _scanned_roots(sc, k, tf):
    """(locus, factor, canonical coordinate) of each zero at index ``k``
    that the scan finds and explicit_correlation confirms, the locus being
    "bisector" (coordinate y) or the extension's "left" or "right" (x)."""
    x_e, g, yaw = tf.to_canonical(sc.eve.x, sc.eve.y)[0], sc.uav_height_m, sc.yaw
    nodes = Position3D(0.0, 0.0), Position3D(x_e, 0.0)
    levels = {
        "row": 2.0 * math.pi * k / sc.array.m_rows,
        "column": 2.0 * math.pi * k / sc.array.n_cols,
    }
    half_lines = [  # (locus, canonical (x, y) at distance u along it)
        ("bisector", lambda u: (x_e / 2.0, u)),
        ("bisector", lambda u: (x_e / 2.0, -u)),
        ("left", lambda u: (-u, 0.0)),
        ("right", lambda u: (x_e + u, 0.0)),
    ]

    def exact(u, along):
        """The increments at one point, from conftest.look_angles itself."""
        uav = Position3D(*along(u), g)
        b, e = (look_angles(uav, node, yaw) for node in nodes)
        return dict(zip(levels, _increments(sc, b.pitch, b.azimuth_rel, e.pitch, e.azimuth_rel)))

    roots = []
    us = _SCAN * math.hypot(x_e, g)
    for locus, along in half_lines:
        # look_angles' own formulas over the whole half-line at once
        x, y = along(us)
        angles = [
            (np.arctan2(g, np.hypot(x - node.x, y)), np.arctan2(y, x - node.x) - yaw)
            for node in nodes
        ]
        sampled = dict(zip(levels, _increments(sc, *angles[0], *angles[1])))
        for fac, level in levels.items():
            above = sampled[fac] > level
            for i in np.flatnonzero(above[:-1] != above[1:]):
                lo, hi = us[i], us[i + 1]
                lo_above = exact(lo, along)[fac] > level
                while lo < (mid := 0.5 * (lo + hi)) < hi:
                    if (exact(mid, along)[fac] > level) == lo_above:
                        lo = mid
                    else:
                        hi = mid
                px, py = along(lo)
                uav = Position3D(*tf.from_canonical(px, py), g)
                if explicit_correlation(sc, uav) <= 1e-6:
                    roots.append((locus, fac, py if locus == "bisector" else px))
    return roots


@st.composite
def completeness_cases(draw):
    """A scenario and a null index: M and N in 1..16, not both 1; the
    default spacing or 0.1 to 2 wavelengths; an index in 1..8 that not
    both sides divide; a yaw in any quadrant, at least 0.05 rad from a
    quarter turn; and the ground pair under a rigid motion."""
    m, n = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    assume(m * n > 1)
    k = draw(st.integers(1, 8).filter(lambda k: k % m or k % n))
    wavelength = SPEED_OF_LIGHT / 3.0e9
    spacing = draw(st.floats(0.1, 2.0).map(lambda w: w * wavelength) | st.none())
    yaw = draw(st.integers(0, 3)) * math.pi / 2.0 + draw(
        st.floats(0.05, math.pi / 2.0 - 0.05)
    )
    x_e, g = draw(st.floats(50.0, 2000.0)), draw(st.floats(10.0, 600.0))
    dx, dy = draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    sc = replace(
        make_scenario(x_e=x_e, g=g, yaw=yaw),
        array=ArrayGeometry(m, n, 3.0e9, spacing),
        bob=Position3D(dx, dy),
        eve=Position3D(dx + math.cos(turn) * x_e, dy + math.sin(turn) * x_e),
    )
    return sc, k


@given(case=completeness_cases())
def test_solvers_place_every_root_an_independent_scan_finds(case):
    # the bisector returns exactly the scanned roots, the extension one
    # root of the side asked for with its factor; each raises only where
    # its locus has none
    sc, k = case
    tf = canonicalize_frame(sc.bob, sc.eve)
    roots = _scanned_roots(sc, k, tf)

    def near(a, b):
        return math.isclose(a, b, rel_tol=1e-3, abs_tol=1e-6)

    bisector = [y for locus, _, y in roots if locus == "bisector"]
    if not bisector:
        with pytest.raises(InfeasibleGeometry):
            solve_azimuth_scheme(sc, k)
    else:
        placed = solve_azimuth_scheme(sc, k)
        ys = [tf.to_canonical(s.position.x, s.position.y)[1] for s in placed]
        assert all(any(near(y, r) for r in bisector) for y in ys)
        assert all(any(near(r, y) for y in ys) for r in bisector)
    for side in ("left", "right"):
        want = [(fac, x) for locus, fac, x in roots if locus == side]
        if not want:
            with pytest.raises(InfeasibleGeometry):
                solve_pitch_scheme(sc, k, side)
            continue
        placed = solve_pitch_scheme(sc, k, side)
        x = tf.to_canonical(placed.position.x, placed.position.y)[0]
        assert any(fac == placed.factor_used and near(x, r) for fac, r in want)


@pytest.mark.parametrize(
    "sc",
    [
        # a root ~2.5e6 m outward
        make_scenario(m=10**6, g=3.0e5),
        # a target within 1e-10 of gap_max: a root ~2e-8 m outward
        make_scenario(
            yaw=math.acos(0.5 / (500.0 / math.hypot(500.0, 200.0) * (1.0 - 1e-10)))
        ),
        # row targets of 2.8e-6 and 2.8e-8, which only a stop relative to
        # the gap's size meets to the accuracy certification needs
        make_scenario(m=10**6, g=2.0e4),
        make_scenario(m=10**8),
    ],
    ids=["m1e6-g300km", "gap-max-less-1e-10", "m1e6-g20km", "m1e8"],
)
def test_extension_row_null_at_extreme_roots_and_targets(sc):
    for side in ("left", "right"):
        s = pitch_on_factor(sc, "row", side)
        assert s.factor_used == "row"
        assert s.null_residual <= 1e-8


_B = "bisector candidate at ({}) failed verification (|rho| = {}); discarded"
_E = "extension candidate at ({}) failed verification (|rho| = {}); discarded"

# Per case: the scenario, then the texts each solver body appends to its
# discard list (the bisector's, then the extension scheme's on each side),
# in the order found: what the CLI prints after "warning: ".  "row-fails" has
# a billion rows, whose row nulls fail on the rounding of the row sum: both
# extension sides discard their row candidate and certify the column one,
# and the bisector keeps only its column placements.  In the nan cases the
# row and column candidates fall on the same points (a square array at a 45
# degree yaw, or y = 0), and the bisector certifies each point once.  Beyond
# a 1e200 m segment the right side's row and column candidates round to one
# point, which that side discards twice and solve_all lists once.
WARNING_CASES = {
    "g-nan": (
        lambda: unchecked_scenario(uav_height_m=math.nan),
        [_B.format("250.0, 0.0", "nan")], [], [],
    ),
    # the canonical point (inf, 0) maps back to (inf, inf * 0)
    "x_e-inf": (
        lambda: unchecked_scenario(eve=unchecked_position(math.inf, 0.0)),
        [_B.format("inf, nan", "nan")], [], [],
    ),
    "yaw-nan": (
        lambda: unchecked_scenario(yaw=math.nan),
        [_B.format("250.0, 0.0", "nan")], [], [],
    ),
    "row-fails": (
        lambda: make_scenario(m=10**9, n=4),
        [
            _B.format("250.0, 176776695296.63687", "2.862e-08"),
            _B.format("250.0, -176776695296.63687", "2.862e-08"),
        ],
        [_E.format("-191688.41896747073, 0.0", "8.286e-08")],
        [_E.format("192188.41896747073, 0.0", "8.286e-08")],
    ),
    "far": (
        lambda: make_scenario(x_e=1e200),
        [], [], [_E.format("1e+200, 0.0", "7.233e-02")] * 2,
    ),
}


def _reported(call):
    """The texts ``call`` appends to the discard list it is given, and what
    it returns or the type and text of the InfeasibleGeometry it raises."""
    discarded = []
    try:
        outcome = call(discarded)
    except InfeasibleGeometry as exc:
        outcome = (type(exc).__name__, str(exc))
    return discarded, outcome


@pytest.mark.parametrize("case", sorted(WARNING_CASES))
def test_warning_sequences_are_pinned(case):
    build, az, left, right = WARNING_CASES[case]
    sc = build()
    # each body, and the public solver that drops its discards; a placement
    # as a list of placements
    calls = {
        "azimuth": (
            lambda d: placement._azimuth(sc, 1, d),
            lambda: solve_azimuth_scheme(sc),
        ),
        **{
            side: (
                lambda d, side=side: [placement._pitch(sc, 1, side, d)],
                lambda side=side: [solve_pitch_scheme(sc, side=side)],
            )
            for side in ("left", "right")
        },
    }
    expected = {"azimuth": az, "left": left, "right": right}
    first = {}
    # twice over on the same scenario object: a repeated call reports again,
    # in the same order, and gives the same result
    for _ in range(2):
        for name, (body, public) in calls.items():
            discarded, outcome = _reported(body)
            assert discarded == expected[name], name
            assert outcome == first.setdefault(name, outcome), name
            assert _reported(lambda _: public()) == ([], outcome), name
        # solve_all lists each text once, in the order found
        placed = [s for o in first.values() if isinstance(o, list) for s in o]
        failed = [o for o in first.values() if isinstance(o, tuple)]
        solutions, failures, discarded = solve_all(sc)
        assert discarded == list(dict.fromkeys(az + left + right))
        assert (solutions, len(failures)) == (placed, len(failed))
    if case == "row-fails":
        assert [s.factor_used for s in first["azimuth"]] == ["column", "column"]
        assert first["left"][0].factor_used == first["right"][0].factor_used == "column"
    elif case == "far":
        assert first["right"][1].endswith(
            "row factor candidate failed verification; "
            "column factor candidate failed verification"
        )
    else:
        assert first["azimuth"][1] == "every bisector candidate failed verification"
        assert first["left"][0] == first["right"][0] == "InfeasibleGeometry"


@st.composite
def frontier_cases(draw):
    """A scheme and one of its factors, with a scenario at the altitude
    where that factor stops nulling times 1 + rel, for each rel in -d and d,
    d = 10^U(-16, -3): M and N in 2..16, an index in 1..3 that the factor's
    count does not divide, a yaw in any quadrant at least 0.05 rad from a
    quarter turn, x_e in 50..2000 m.  Returns the scheme, index, factor and
    the (rel, scenario) pairs.

    The factor's term is count * phase_coef/pi * (-cos yaw or sin yaw).
    The extension factor needs the gap target 2*l/|term| below the
    attainable x_e/sqrt(x_e^2 + g^2); the bisector factor a nonnegative
    radicand (term^2 - k^2)*x_e^2 - 4*k^2*g^2.  A factor with no frontier
    is not drawn, nor one whose frontier is so shallow (1 - target^2 or
    1 - k^2/term^2 below 0.01) that 1e-12 of altitude moves the solver's
    own test by less than its rounding."""
    scheme = draw(st.sampled_from(("azimuth", "pitch")))
    factor = draw(st.sampled_from(("row", "column")))
    m, n, index = draw(st.integers(2, 16)), draw(st.integers(2, 16)), draw(st.integers(1, 3))
    yaw = draw(st.integers(0, 3)) * math.pi / 2.0 + draw(
        st.floats(0.05, math.pi / 2.0 - 0.05)
    )
    x_e = draw(st.floats(50.0, 2000.0))
    scale = ArrayGeometry(m, n, 3.0e9).phase_coef / math.pi
    terms = {"row": m * scale * -math.cos(yaw), "column": n * scale * math.sin(yaw)}
    counts = {"row": m, "column": n}
    assume(index % counts[factor])
    term = terms[factor]
    if scheme == "pitch":
        target = 2.0 * index / abs(term)
        assume(1.0 - target**2 > 0.01)
        critical = x_e * math.sqrt(1.0 / target**2 - 1.0)
    else:
        assume(1.0 - (index / term) ** 2 > 0.01)
        critical = x_e * math.sqrt(term**2 - index**2) / (2.0 * index)
        # the bisector places one point for two candidates closer than
        # 1e-6 m, under the row factor, which nearly equal terms would give
        other = "column" if factor == "row" else "row"
        if index % counts[other]:
            assume(abs(abs(term) - abs(terms[other])) > 1e-9 * abs(term))
    d = 10.0 ** draw(st.floats(-16.0, -3.0))
    pairs = [
        (rel, make_scenario(m=m, n=n, x_e=x_e, g=critical * (1.0 + rel), yaw=yaw))
        for rel in (-d, d)
    ]
    return scheme, index, factor, pairs


def _frontier_places(sc, scheme, index, factor) -> list[bool]:
    """Whether ``factor`` places: alone on each extension side, or among
    the bisector's placements.  No call discards a failed candidate or
    raises but for a frontier reason."""
    if scheme == "pitch":
        calls = [
            lambda d, side=side: [pitch_on_factor(sc, factor, side, index)]
            for side in ("left", "right")
        ]
    else:
        calls = [lambda d: placement._azimuth(sc, index, d)]
    places = []
    for call in calls:
        discarded, outcome = _reported(call)
        assert discarded == []
        if isinstance(outcome, tuple):
            kind, why = outcome
            assert kind == "InfeasibleGeometry"
            assert "above the attainable" in why or "no real lateral offset" in why
        places.append(isinstance(outcome, list) and factor in [s.factor_used for s in outcome])
    return places


@given(case=frontier_cases())
def test_each_factor_places_below_its_feasibility_frontier_only(case):
    scheme, index, factor, pairs = case
    for rel, sc in pairs:
        places = _frontier_places(sc, scheme, index, factor)
        if rel < -1e-12:
            assert all(places), rel
        elif rel > 1e-12:  # within 1e-12 of the frontier, either outcome
            assert not any(places), rel


def _side_outcome(sc, side, factor):
    """The placement of ``factor`` alone, or solve_pitch_scheme's for None;
    or the text of its InfeasibleGeometry."""
    try:
        if factor is None:
            return solve_pitch_scheme(sc, side=side)
        return pitch_on_factor(sc, factor, side)
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
        elif not isinstance(column, str):
            # the row gap was unattainable, its root search raised or its
            # candidate failed: each falls back to the column factor
            assert default == column
        else:
            assert isinstance(default, str)


@given(sc=finite_scenarios())
def test_every_solution_is_finite_certified_and_on_its_locus(sc):
    # finite_scenarios put the receiver at the origin and the eavesdropper
    # on the +x axis, so the caller's frame is the canonical one
    x_e, g = sc.eve.x, sc.uav_height_m
    solutions = solve_all(sc)[0]
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


@given(sc=finite_scenarios())
def test_every_solution_field_is_finite(sc):
    solutions = solve_all(sc)[0]

    def numbers(value):
        if isinstance(value, tuple):
            return [n for item in value for n in numbers(item)]
        return [] if isinstance(value, str) else [value]

    for s in solutions:
        assert all(math.isfinite(v) for v in numbers(astuple(s)))


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
    solutions = solve_all(sc)[0]
    for s in solutions:
        want = link_metrics(s.null_residual, power).secrecy_rate_bps_hz
        assert s.sr_at_solution == want
