"""The solvers and sweeps keep the candidates, baselines and best placement
per scheme of the last scenario object they were asked about: a warm
scenario must give exactly what a fresh equal copy gives, as fresh objects,
with the same warnings from the solvers (a sweep warns only on the first
pick of its scheme), and the kept scenario must be released once another
one is solved."""

import gc
import sys
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given

from spwt import (
    InfeasibleGeometry,
    NullIndex,
    solve_all,
    solve_azimuth_scheme,
    solve_pitch_scheme,
    sweep_alpha,
    sweep_snr,
)
from spwt import experiments
from conftest import finite_scenarios, make_scenario


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

    solutions, failures = solve_all(sc)
    want = (list(solutions), list(failures))
    solutions.pop()
    failures.append("mutated")
    assert solve_all(sc) == want

    result = sweep_snr(sc)
    want_series = {k: list(v) for k, v in result.series.items()}
    want_baselines = list(result.metadata["baseline_positions"])
    result.series["rand1"][0] = -1.0
    result.metadata["baseline_positions"].clear()
    again = sweep_snr(sc)
    assert again.series == want_series
    assert again.metadata["baseline_positions"] == want_baselines


def test_equal_inputs_share_one_outcome(reference_scenario, kernel_calls):
    # the four forms of index 1 are one key: one bisector and one extension
    # kernel call in all, Python floats out, and each solution keeps the
    # caller's index as given
    sc = reference_scenario
    for index in (
        NullIndex(1, 1),
        NullIndex(True, 1),
        NullIndex(1.0, 1.0),
        NullIndex(np.int64(1), np.int64(1)),
    ):
        solutions = solve_azimuth_scheme(sc, index) + [solve_pitch_scheme(sc, index)]
        assert {repr(s.index_used) for s in solutions} == {repr(index)}
        for s in solutions:
            assert {type(v) for v in (s.position.x, s.position.y, s.position.z)} == {float}
    assert len(kernel_calls) == 2
    # a float count fails before the kept baselines are read, also after an
    # int count was drawn
    sweep_snr(sc, n_random_baselines=1)
    with pytest.raises(TypeError):
        sweep_snr(sc, n_random_baselines=1.0)


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
    solutions, _ = solve_all(make_scenario())
    assert len(solutions) == 4
    assert len(kernel_calls) == 2


def test_forced_factor_reuses_the_certified_candidates(kernel_calls):
    # both factors of both sides were certified with the default call
    sc = make_scenario()
    default = solve_pitch_scheme(sc, side="left")
    assert len(kernel_calls) == 1
    column = solve_pitch_scheme(sc, side="left", factor="column")
    solve_pitch_scheme(sc, side="right", factor="row")
    assert len(kernel_calls) == 1
    assert (default.factor_used, column.factor_used) == ("row", "column")


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


def test_sweeps_warn_on_the_first_pick_of_a_scheme_only():
    # the "row-fails" case of test_placement: two bisector and one extension
    # candidate per side are discarded
    sc = make_scenario(m=10**9, n=4)
    counts = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for call in (
            lambda: sweep_snr(sc),
            lambda: sweep_alpha(sc),
            lambda: sweep_snr(sc),
            lambda: sweep_alpha(sc, scheme="pitch"),
            lambda: sweep_snr(sc, scheme="pitch"),
            lambda: solve_all(sc),  # the solvers still warn on every call
            lambda: sweep_snr(replace(sc)),  # an equal copy is picked afresh
        ):
            before = len(caught)
            call()
            counts.append(len(caught) - before)
    assert counts == [2, 0, 0, 2, 0, 4, 2]


def test_replayed_warnings_point_at_the_caller():
    # the "row-fails" case of test_placement: two bisector and one extension
    # candidate per side are discarded, and a repeated solve warns again; a
    # sweep warns on the first pick of its scheme only, from deeper inside
    # the package, and names this file all the same
    sc = make_scenario(m=10**9, n=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            solve_azimuth_scheme(sc)
            solve_pitch_scheme(sc, side="right")
            solve_all(sc)
            for scheme in ("azimuth", "pitch"):
                sweep_snr(sc, scheme=scheme)
                sweep_alpha(sc, scheme=scheme)
    assert len(caught) == 2 * (2 + 1 + 4) + (2 + 2)
    assert {w.filename for w in caught} == {__file__}


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
