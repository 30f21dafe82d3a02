"""The solvers and sweeps keep the candidates, baselines and best placement
per scheme of the last scenario object they were asked about, and the
baselines' rate rows each sweep grid gives them; the grid's own axis
(checks, floors, bound, budget rows) is kept once per total power across
scenarios, for the last two.  A sweep takes its inputs as floats, so equal
values give equal bits and share one axis, whatever their type.  A warm
scenario must give exactly what a fresh equal copy gives, in fresh lists
of the very placements it gave before, with the same discarded candidates
reported by ``solve_all``, and the kept scenario must be released once
another one is solved."""

import fractions
import gc
import math
import sys
import threading
import weakref
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spwt import (
    InfeasibleGeometry,
    correlation_map,
    solve_all,
    solve_azimuth_scheme,
    solve_pitch_scheme,
    sweep_alpha,
    sweep_snr,
)
from spwt import experiments, geometry, placement
from spwt.experiments import DEFAULT_ALPHA_GRID
from conftest import finite_scenarios, make_scenario, pitch_on_factor

_OUT_OF_RANGE = (
    "dB is out of range: the linear SNR and the noise floor P/SNR must be "
    "finite and positive"
)


def _study(sc):
    """Everything a study asks of ``sc``: solve_all, then both sweeps per
    scheme, with a named error recorded as its type and text."""
    out = [solve_all(sc)]
    for scheme in ("azimuth", "pitch"):
        for sweep in (sweep_snr, sweep_alpha):
            try:
                out.append(sweep(sc, scheme=scheme))
            except InfeasibleGeometry as exc:
                out.append(("InfeasibleGeometry", str(exc)))
    return out


@given(a=finite_scenarios(), b=finite_scenarios())
def test_warm_scenario_equals_fresh_copy(a, b):
    want_a = _study(replace(a))
    want_b = _study(replace(b))
    # cold, warm, then evicted by b and solved again, then warm again
    for sc, want in ((a, want_a), (a, want_a), (b, want_b), (a, want_a), (a, want_a)):
        assert _study(sc) == want


def test_returned_lists_are_fresh(reference_scenario):
    sc = reference_scenario
    first = solve_azimuth_scheme(sc)
    want = list(first)
    first.clear()
    assert solve_azimuth_scheme(sc) == want

    rows_fail = make_scenario(m=10**9, n=4)  # discards a candidate per side
    solutions, failures, discarded = solve_all(rows_fail)
    want = (list(solutions), list(failures), list(discarded))
    solutions.pop()
    failures.append("mutated")
    discarded.clear()
    assert solve_all(rows_fail) == want

    result = sweep_snr(sc)
    want_series = {k: list(v) for k, v in result.series.items()}
    want_baselines = list(result.metadata["baseline_positions"])
    result.series["rand1"][0] = -1.0
    result.metadata["baseline_positions"].clear()
    again = sweep_snr(sc)
    assert again.series == want_series
    assert again.metadata["baseline_positions"] == want_baselines

    # the schemes share the kept baseline rows, floors and bound: a caller's
    # edits to one scheme's result reach neither the other's nor a repeat
    copy = replace(sc)
    want = [sweep_snr(copy, scheme="pitch"), sweep_snr(copy)]
    result = sweep_snr(sc)
    result.series["theory"][0] = -1.0
    result.series["rand1"].clear()
    result.x_axis.append(99.0)
    result.metadata["baseline_positions"].pop()
    assert [sweep_snr(sc, scheme="pitch"), sweep_snr(sc)] == want


def test_equal_grids_keep_their_own_x_axis(reference_scenario):
    # -0.0 == 0.0, so both grids share one kept part; each prints its own sign
    sc = reference_scenario
    for grid in ([-0.0, 0.5], [0.0, 0.5], [-0.0, 0.5]):
        result = sweep_alpha(sc, alpha_grid=grid)
        assert list(map(float.hex, result.x_axis)) == list(map(float.hex, grid))


def _bits(result):
    return {name: [*map(float.hex, row)] for name, row in result.series.items()}


def test_equal_grids_share_one_axis(reference_scenario):
    # grids of equal values are one axis, whatever their type: each gives
    # the series a cold cache gives it, to the bit, and prints its own x
    # values
    sc = reference_scenario
    grids = ([0, 2], [0.0, 2.0], np.array([0.0, 2.0]), [-0.0, 2.0])
    fresh = []
    for grid in grids:
        experiments._axis.cache_clear()
        fresh.append(sweep_snr(replace(sc), snr_db_grid=grid))
    experiments._axis.cache_clear()
    shared = [sweep_snr(sc, snr_db_grid=grid) for grid in grids]
    assert experiments._axis.cache_info()[:2] == (3, 1)  # hits, misses

    assert len({repr(_bits(r)) for r in fresh + shared}) == 1
    for grid, result in zip(grids, shared):
        assert [*map(float.hex, result.x_axis)] == [float(x).hex() for x in grid]


def test_grids_of_other_types_share_the_equal_float_grids_axis(reference_scenario):
    # numpy's float32 0..20 holds the default grid's values: it gives the
    # default grid's bits and shares its axis, cold and warm, in either
    # order
    sc = reference_scenario
    f32 = np.arange(0, 21, 2, dtype=np.float32)
    want = _bits(sweep_snr(replace(sc)))
    for order in ((f32, None), (None, f32)):
        experiments._axis.cache_clear()
        for grid in order * 2:
            assert _bits(sweep_snr(sc, snr_db_grid=grid)) == want
            assert _bits(sweep_snr(replace(sc), snr_db_grid=grid)) == want
        assert experiments._axis.cache_info()[:2] == (7, 1)  # hits, misses
    # a float32 value that no float equals runs as the float it prints
    alphas = np.linspace(0.0, 1.0, 11, dtype=np.float32)
    result = sweep_alpha(sc, alpha_grid=alphas)
    assert result.x_axis == [float(a) for a in alphas] != list(DEFAULT_ALPHA_GRID)
    assert _bits(result) == _bits(sweep_alpha(replace(sc), alpha_grid=result.x_axis))
    # a 0-d array snr_db runs as its float, with the float's bits
    want = _bits(sweep_alpha(sc, snr_db=15.0))
    assert _bits(sweep_alpha(sc, snr_db=np.array(15.0))) == want


@pytest.mark.parametrize(
    "sweep, kwargs, plain",
    [
        (sweep_snr, {"snr_db_grid": [Decimal(0), Decimal(2)]}, {"snr_db_grid": [0, 2]}),
        (
            sweep_alpha,
            {"alpha_grid": [Decimal(0), Decimal("0.5")]},
            {"alpha_grid": [0, 0.5]},
        ),
    ],
)
def test_decimal_grids_give_the_equal_float_grids_bits(
    reference_scenario, sweep, kwargs, plain
):
    # a Decimal grid is taken as floats: cold and warm, before and after an
    # equal float grid, it gives that grid's series and x values to the bit
    sc = reference_scenario
    want = sweep(replace(sc), **plain)
    want = (_bits(want), [*map(float.hex, want.x_axis)])
    experiments._axis.cache_clear()
    for _ in range(2):
        for args in (kwargs, plain):
            got = sweep(sc, **args)
            assert (_bits(got), [*map(float.hex, got.x_axis)]) == want
    assert experiments._axis.cache_info()[:2] == (3, 1)  # hits, misses


@pytest.mark.parametrize(
    "sweep, kwargs, message",
    [
        (sweep_snr, {"snr_db_grid": [0.0, math.nan]}, f"SNR nan {_OUT_OF_RANGE}"),
        (sweep_alpha, {"alpha_grid": [0.5, 1.5]}, "alpha grid must lie in [0, 1]"),
        (sweep_alpha, {"snr_db": 4000.0}, f"SNR 4000 {_OUT_OF_RANGE}"),
        (sweep_snr, {"snr_db_grid": [4000.0]}, f"SNR 4000 {_OUT_OF_RANGE}"),
    ],
)
def test_rejected_grids_raise_afresh(reference_scenario, sweep, kwargs, message):
    # nothing is kept of a rejected grid: every repeat, before and after a
    # valid sweep, raises a new exception of the same type and text
    raised = []
    for valid_first in (False, True, False):
        if valid_first:
            sweep(reference_scenario)
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                sweep(reference_scenario, **kwargs)
            assert (type(info.value), str(info.value)) == (ValueError, message)
            raised.append(info.value)
    assert len(set(map(id, raised))) == len(raised)


def test_at_most_2_axes_stay_alive():
    # one axis per total power: beyond the last two their budget rows, one
    # list of (log2(1 + SNR_b), alpha*P, ...) rows each, are released
    powers = {1.0 + k / 8.0 for k in range(100)}
    for p in sorted(powers):
        sweep_snr(make_scenario(p=p))
    gc.collect()
    alive = [
        o for o in gc.get_objects()
        if type(o) is list and len(o) == 11 and type(o[0]) is tuple
        and len(o[0]) == 4 and o[0][1] in powers
    ]
    assert 1 <= len(alive) <= 2


def test_study_asks_each_distinct_rate_cell_once(monkeypatch, reference_scenario):
    # both schemes' SNR and alpha sweeps, 11 points each: 4 x 11 proposed
    # cells and 2 x 3 x 11 baseline cells, not 4 x 4 x 11
    cells, snr_checks, rows = [], [], []
    rate_cells, linear_snr, budget_rows = (
        experiments._rate_cells, experiments._linear_snr, experiments._budget_rows
    )

    def counting_cells(mags, budgets):
        out = rate_cells(mags, budgets)
        cells.append(sum(map(len, out)))
        return out

    def counting_snr(*args):
        snr_checks.append(1)
        return linear_snr(*args)

    def counting_rows(p, alpha, *floors):
        rows.append(len(alpha))
        return budget_rows(p, alpha, *floors)

    monkeypatch.setattr(experiments, "_rate_cells", counting_cells)
    monkeypatch.setattr(experiments, "_linear_snr", counting_snr)
    monkeypatch.setattr(experiments, "_budget_rows", counting_rows)
    experiments._axis.cache_clear()
    _study(reference_scenario)
    assert sum(cells) <= 110
    # a second scenario at the same power sweeps the same grids: it checks
    # no SNR and builds no budget row, only its own rate cells
    assert (len(snr_checks), sum(rows)) == (11 + 1, 11 + 2 * 11)
    del snr_checks[:], rows[:], cells[:]
    _study(make_scenario(x_e=650.0, seed=3))
    assert (snr_checks, rows) == ([], [])
    assert 0 < sum(cells) <= 110


def test_equal_inputs_share_one_outcome(reference_scenario, kernel_calls):
    # the six forms of index 1 are one key: one bisector and one extension
    # kernel call in all, Python floats out, and every solution's index the
    # int 1, so that every form gets the very placements the first built
    sc = reference_scenario
    first = None
    for index in (True, 1.0, np.int64(1), fractions.Fraction(1), Decimal(1), 1):
        solutions = solve_azimuth_scheme(sc, index) + [solve_pitch_scheme(sc, index)]
        assert [(type(s.index_used), s.index_used) for s in solutions] == [(int, 1)] * 3
        for s in solutions:
            assert {type(v) for v in (s.position.x, s.position.y, s.position.z)} == {float}
        first = first or solutions
        assert all(s is f for s, f in zip(solutions, first, strict=True))
    assert len(kernel_calls) == 2


def test_a_study_builds_each_placement_once(monkeypatch, reference_scenario):
    # each certified candidate is built once, as the placement every later
    # ask returns: the reference scenario's two bisector and two extension
    # placements, however often the solvers and the sweeps' picks read them
    built = []

    class Counting(placement.PlacementSolution):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(placement, "PlacementSolution", Counting)
    sc = reference_scenario
    solved = solve_azimuth_scheme(sc) + [
        solve_pitch_scheme(sc, side=side) for side in ("left", "right")
    ]
    for scheme in ("azimuth", "pitch"):
        for sweep in (sweep_snr, sweep_alpha):
            sweep(sc, scheme=scheme)
    assert solve_all(sc)[0] == solved
    assert all(type(s) is Counting for s in solved)
    # the solvers built these four; the sweeps and solve_all built none more
    assert len(built) == len(solved) == 4


def test_equal_indices_share_one_infeasible_message(monkeypatch):
    # on a 1x1 array, where no factor has a zero, the four forms of index 1
    # are one key too: the reason is built once, from the index as an int,
    # whichever form is asked first
    factors, built = placement._factors, []

    def counting_factors(*args):
        built.append(args[1])
        return factors(*args)

    monkeypatch.setattr(placement, "_factors", counting_factors)
    sc = make_scenario(m=1, n=1)
    messages = set()
    for index in (True, 1.0, np.int64(1), 1):
        for call in (solve_azimuth_scheme, solve_pitch_scheme):
            with pytest.raises(InfeasibleGeometry) as info:
                call(sc, index)
            messages.add(str(info.value))
    assert messages == {
        "index 1 is a multiple of both array dimensions (1x1); neither factor has a zero there"
    }
    assert [(type(k), k) for k in built] == [(int, 1)]  # True, the first form asked


def test_each_call_raises_a_new_exception():
    sc = make_scenario(g=10_000.0)  # no scheme has a placement
    calls = (
        lambda: solve_azimuth_scheme(sc),
        lambda: solve_pitch_scheme(sc, side="left"),
        lambda: sweep_snr(sc),
    )
    for call in calls:
        raised = []
        for _ in range(2):
            with pytest.raises(InfeasibleGeometry) as info:
                call()
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert str(raised[0]) == str(raised[1])


def test_slot_holds_one_scenario():
    a = make_scenario()
    ref = weakref.ref(a)
    solve_all(a)
    del a
    gc.collect()
    assert ref() is not None  # still the last scenario solved
    solve_all(make_scenario())  # an equal copy is another scenario
    gc.collect()
    assert ref() is None


def test_one_frame_per_scenario_object(monkeypatch):
    # the solvers, the sweeps' baselines and the correlation map all read
    # the frame kept for the scenario object: one canonicalize_frame call
    # under every name a module binds it to, and one more for an equal copy
    frames = []
    canonicalize = geometry.canonicalize_frame

    def counting(*args):
        frames.append(args)
        return canonicalize(*args)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "canonicalize_frame", None)
        if name.startswith("spwt") and bound is canonicalize:
            monkeypatch.setattr(module, "canonicalize_frame", counting)
    sc = make_scenario()
    for _ in range(2):
        solve_azimuth_scheme(sc)
        solve_pitch_scheme(sc, side="left")
        solve_pitch_scheme(sc, side="right")
        _study(sc)
        correlation_map(sc, [0.0, 250.0], [100.0])
    assert len(frames) == 1
    correlation_map(replace(sc), [0.0], [100.0])
    assert len(frames) == 2


def test_study_makes_one_kernel_call_per_distinct_piece(reference_scenario, kernel_calls):
    # the bisector candidates, the extension candidates of both sides, the
    # baselines: three calls, whatever the number of repeated solves and
    # sweeps
    sc = reference_scenario
    for _ in range(2):
        solve_azimuth_scheme(sc)
        solve_pitch_scheme(sc, side="left")
        solve_pitch_scheme(sc, side="right")
        _study(sc)
    assert len(kernel_calls) == 3


def test_solve_all_certifies_missing_sides_together(kernel_calls):
    solve_all(make_scenario(), ("pitch",))
    assert len(kernel_calls) == 1


def test_solve_all_makes_one_kernel_call_per_scheme(kernel_calls):
    solutions = solve_all(make_scenario())[0]
    assert len(solutions) == 4
    assert len(kernel_calls) == 2


def test_forced_factor_certifies_each_factor_once(kernel_calls):
    # the default call certifies the row factor of both sides; the column
    # factor asked for alone certifies the column factor of both, and
    # neither is repeated
    sc = make_scenario()
    default = solve_pitch_scheme(sc, side="left")
    assert len(kernel_calls) == 1
    column = pitch_on_factor(sc, "column")
    pitch_on_factor(sc, "row", "right")
    pitch_on_factor(sc, "column", "right")
    assert len(kernel_calls) == 2
    assert (default.factor_used, column.factor_used) == ("row", "column")


_PITCH_CALLS = [
    (side, factor) for side in ("left", "right") for factor in (None, "row", "column")
]


def _pitch_outcome(sc, side, factor):
    """One pitch solve's solution or error text, with the candidates it
    discards; for a factor, its placement alone or why it has none."""
    discarded = []
    try:
        if factor is None:
            outcome = repr(placement._pitch(sc, 1, side, discarded))
        else:
            outcome = repr(pitch_on_factor(sc, factor, side))
    except InfeasibleGeometry as exc:
        outcome = str(exc)
    return outcome, discarded


@given(sc=finite_scenarios(), order=st.permutations(_PITCH_CALLS))
def test_pitch_outcomes_do_not_depend_on_the_order_asked(sc, order):
    # each factor is computed when a call first reaches it; whichever
    # factor and side come first, every call gives what it gives when the
    # calls come in the fixed order, on a fresh copy each
    fixed, shuffled = replace(sc), replace(sc)
    want = {call: _pitch_outcome(fixed, *call) for call in _PITCH_CALLS}
    assert {call: _pitch_outcome(shuffled, *call) for call in order} == want


def test_sweeps_of_a_scheme_pick_its_placement_once(monkeypatch, reference_scenario):
    calls = []
    solve = experiments.solve_all

    def counting(*args):
        calls.append(args[1])
        return solve(*args)

    monkeypatch.setattr(experiments, "solve_all", counting)
    sc = reference_scenario
    for _ in range(2):
        for scheme in ("azimuth", "pitch"):
            sweep_snr(sc, scheme=scheme)
            sweep_alpha(sc, scheme=scheme)
    assert calls == [("azimuth",), ("pitch",)]
    sweep_snr(replace(sc))  # an equal copy is another scenario
    assert len(calls) == 3


def test_solve_all_reports_the_discards_on_every_call():
    # the "row-fails" case of test_placement: two bisector and one extension
    # candidate per side are discarded.  A warm scenario reports them as a
    # cold one does, before and after the sweeps pick its placements, which
    # report none and give what they give on a fresh copy.
    sc = make_scenario(m=10**9, n=4)
    want = solve_all(replace(sc))
    assert len(want[2]) == 4
    sweeps = [sweep_snr(replace(sc)), sweep_alpha(replace(sc), scheme="pitch")]
    for _ in range(2):
        assert solve_all(sc) == want
        assert [sweep_snr(sc), sweep_alpha(sc, scheme="pitch")] == sweeps
    assert solve_all(sc, ("pitch",))[2] == want[2][2:]


def test_threads_each_get_their_own_scenario_outcomes():
    # more threads than cores, switching every microsecond, each with its own
    # scenarios: an outcome filed under another thread's scenario would
    # break the equality with the fresh computation
    scenarios = [make_scenario(m=m, n=8, x_e=300.0 + 100.0 * m, seed=m) for m in (2, 3, 4, 5, 6, 7)]
    want = [_study(replace(sc)) for sc in scenarios]
    errors = []

    def work(i):
        try:
            for _ in range(30):
                assert _study(scenarios[i]) == want[i]
        except Exception as exc:  # reported below, with the thread's index
            errors.append((i, exc))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(scenarios))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
