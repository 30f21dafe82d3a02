import math
import random
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from spwt import (
    InfeasibleGeometry,
    Position3D,
    PowerConfig,
    solve_all,
    sweep_alpha,
    sweep_snr,
)
from conftest import (
    correlation_at,
    evaluate_link,
    explicit_correlation,
    finite_scenarios,
    make_scenario,
    secrecy_rates,
)
from spwt import experiments

SERIES = ("proposed", "theory", "rand1", "rand2", "rand3")


@pytest.mark.parametrize("seed", [-1, True, 1.0, 2.5, "3", None])
def test_scenario_rejects_a_seed_the_baseline_draw_cannot_take(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        make_scenario(seed=seed)


_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


@given(
    field_value=st.one_of(
        st.tuples(st.just("uav_height_m"), st.floats(max_value=0.0) | _NON_FINITE),
        st.tuples(st.just("yaw"), _NON_FINITE),
    )
)
def test_scenario_rejects_an_out_of_model_height_or_yaw(field_value):
    # a height <= 0 mirrors a placement below the ground, which the
    # correlation (even in the height) cannot tell apart; nan or inf would
    # surface later as a failed certification naming the wrong cause
    field, value = field_value
    match = "platform height must be" if field == "uav_height_m" else "yaw must be"
    with pytest.raises(ValueError, match=match):
        replace(make_scenario(), **{field: value})


def test_scenario_accepts_numpy_integer_seeds():
    # as ArrayGeometry does, stored as the Python integer, whose draw it gives
    assert type(make_scenario(seed=np.int64(7)).seed) is int
    got = sweep_snr(make_scenario(seed=np.int64(7))).metadata["baseline_positions"]
    assert got == sweep_snr(make_scenario(seed=7)).metadata["baseline_positions"]


def baseline_positions(scenario) -> list[tuple]:
    """The sweeps' baseline positions for ``scenario``, drawn afresh."""
    return experiments._baselines(scenario)[0]


def test_baseline_positions_deterministic():
    a = baseline_positions(make_scenario(g=200.0, seed=42))
    b = baseline_positions(make_scenario(g=200.0, seed=42))
    assert a == b
    c = baseline_positions(make_scenario(g=200.0, seed=43))
    assert a != c
    assert all(z == 200.0 for _, _, z in a)
    assert len({(x, y) for x, y, _ in a}) == 3


def test_baseline_positions_uniform_coverage(monkeypatch):
    monkeypatch.setattr(experiments, "BASELINE_COUNT", 10_000)
    pts = baseline_positions(make_scenario(g=150.0, seed=7))
    assert len(pts) == 10_000
    xs = np.array([x for x, _, _ in pts])
    ys = np.array([y for _, y, _ in pts])
    # mean within 5% of the box half-width of the center
    assert abs(xs.mean()) <= 50.0 and abs(ys.mean()) <= 50.0
    assert xs.min() >= -1000.0 and xs.max() <= 1000.0


def test_baseline_positions_for_seed_zero_are_pinned():
    # random.Random(0).random() scaled onto the default box, x before y: a
    # change of generator or of scaling fails here, not only in the goldens
    first, second, _ = baseline_positions(make_scenario(g=200.0, seed=0))
    assert first == (688.8437030500963, 515.9088058806049, 200.0)
    assert second == (-158.85683833831, -482.1664994140733, 200.0)


def test_baselines_are_plain_draws_beside_a_node():
    # seed 193962's second draw lands 0.63 m from the eavesdropper: it stays
    # a baseline, and the kernel there agrees with explicit steering vectors
    sc = make_scenario(seed=193962)
    draw = random.Random(193962).random
    want = [(-1000 + 2000 * draw(), -1000 + 2000 * draw(), 200.0) for _ in range(3)]
    assert sweep_snr(sc).metadata["baseline_positions"] == want
    x, y, z = want[1]
    assert math.hypot(x - sc.eve.x, y - sc.eve.y) < 1.0
    rho = experiments._baselines(sc)[1][1]
    assert abs(rho - explicit_correlation(sc, Position3D(x, y, z))) <= 1e-12


_UNIT = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    half=st.floats(1.5, 4.0),
    nodes=st.tuples(_UNIT, _UNIT),
)
def test_baseline_positions_are_seeded_draws(seed, n, half, nodes):
    # A box 3 to 8 m wide with both ground nodes inside it, so draws land
    # near or over a node; the correlations there are finite magnitudes.
    bob, eve = (Position3D(x * half, y * half, 0.0) for x, y in nodes)
    assume(math.hypot(bob.x - eve.x, bob.y - eve.y) >= 1e-3)
    sc = replace(make_scenario(g=50.0, seed=seed), bob=bob, eve=eve)
    bounds = ((-half, half), (-half, half))
    with (
        mock.patch.object(experiments, "BASELINE_BOUNDS", bounds),
        mock.patch.object(experiments, "BASELINE_COUNT", n),
    ):
        got, rhos = experiments._baselines(sc)
        assert len(got) == n
        for x, y, z in got:
            assert -half <= x <= half and -half <= y <= half and z == 50.0
        assert all(0.0 <= r <= 1.0 + 1e-12 for r in rhos)  # a rounding over 1; nan fails
        assert got == baseline_positions(sc)
        assert got == baseline_positions(replace(sc, seed=np.int64(seed)))


def test_sweep_snr_shapes_and_tightness(reference_scenario):
    result = sweep_snr(reference_scenario)
    assert result.x_axis == [float(v) for v in range(0, 21, 2)]
    assert set(result.series) == set(SERIES)
    assert all(len(result.series[k]) == 11 for k in SERIES)
    gap = max(
        abs(p - t) for p, t in zip(result.series["proposed"], result.series["theory"])
    )
    assert gap <= 1e-9
    assert result.metadata["kind"] == "snr"
    assert len(result.metadata["baseline_positions"]) == 3


def test_sweep_snr_dominates_baselines(reference_scenario):
    for seed in (0, 1, 2):
        result = sweep_snr(replace(reference_scenario, seed=seed))
        for name in ("rand1", "rand2", "rand3"):
            for prop, base in zip(result.series["proposed"], result.series[name]):
                assert prop >= base - 1e-12


def test_sweep_snr_pitch_scheme(reference_scenario):
    result = sweep_snr(reference_scenario, scheme="pitch")
    gap = max(
        abs(p - t) for p, t in zip(result.series["proposed"], result.series["theory"])
    )
    assert gap <= 1e-9
    assert result.metadata["scheme"] == "pitch"
    # the chosen placement sits on the segment extension
    x, y, _ = result.metadata["placement"]
    assert y == pytest.approx(0.0, abs=1e-9)
    assert x < 0.0 or x > 500.0


def test_sweep_snr_vanishes_at_very_low_snr(reference_scenario):
    result = sweep_snr(reference_scenario, snr_db_grid=[-100.0])
    for name in SERIES:
        assert result.series[name][0] <= 1e-4


def test_sweep_snr_baselines_fixed_across_grid(reference_scenario):
    # same run: positions drawn once; a second run with the same seed is
    # bit-identical end to end
    r1 = sweep_snr(reference_scenario)
    r2 = sweep_snr(reference_scenario)
    assert r1.metadata["baseline_positions"] == r2.metadata["baseline_positions"]
    assert r1.series == r2.series


def test_sweep_snr_rejects_empty_grid(reference_scenario):
    with pytest.raises(ValueError):
        sweep_snr(reference_scenario, snr_db_grid=[])


def test_sweep_alpha_invariance_and_zero_endpoint(reference_scenario):
    result = sweep_alpha(reference_scenario)
    assert result.x_axis == [pytest.approx(i / 10.0) for i in range(11)]
    prop = result.series["proposed"]
    assert max(prop) - min(prop) <= 1e-9
    assert prop[0] == pytest.approx(math.log2(1.0 + 10.0 ** 1.5), abs=1e-9)
    for name in ("rand1", "rand2", "rand3"):
        assert result.series[name][0] == 0.0  # no signal power at alpha = 0


def test_sweep_alpha_baselines_continuous(reference_scenario):
    grid = [i / 100.0 for i in range(101)]
    result = sweep_alpha(reference_scenario, alpha_grid=grid)
    for name in ("rand1", "rand2", "rand3"):
        series = result.series[name]
        assert max(abs(a - b) for a, b in zip(series, series[1:])) <= 0.5


def test_sweep_alpha_validates_grid(reference_scenario):
    with pytest.raises(ValueError):
        sweep_alpha(reference_scenario, alpha_grid=[0.0, 1.2])
    with pytest.raises(ValueError):
        sweep_alpha(reference_scenario, alpha_grid=[])


def test_sweep_alpha_metadata(reference_scenario):
    # the metadata holds only what the scenario does not
    result = sweep_alpha(reference_scenario, snr_db=12.0)
    assert result.metadata["kind"] == "alpha"
    assert result.metadata["snr_db"] == 12.0
    common = {"kind", "scheme", "placement", "baseline_positions"}
    assert set(result.metadata) == common | {"snr_db"}
    assert set(sweep_snr(reference_scenario).metadata) == common


@pytest.mark.parametrize("scheme", ["azimuth", "pitch"])
def test_sweeps_take_the_first_certified_placement(scheme):
    # four bisector placements and two extension sides, all certified: a
    # sweep takes the first in solve_all's order, not a rounding-noise best
    sc = make_scenario(yaw=math.pi / 3.0)
    first = solve_all(sc, (scheme,))[0][0].position
    for result in (sweep_snr(sc, scheme), sweep_alpha(sc, scheme=scheme)):
        assert result.metadata["placement"] == (first.x, first.y, first.z)


@pytest.mark.parametrize("scheme", ["azimuth", "pitch"])
def test_sweeps_equal_per_point_link_evaluation(reference_scenario, scheme):
    # one correlation per position gives the same floats as evaluating the
    # whole link at every grid point
    sc = reference_scenario
    p = sc.power.total_power_w
    snr = sweep_snr(sc, scheme=scheme)
    alpha = sweep_alpha(sc, scheme=scheme)
    positions = [snr.metadata["placement"]] + snr.metadata["baseline_positions"]
    positions = [Position3D(*pos) for pos in positions]
    for k, snr_db in enumerate(snr.x_axis):
        sigma2 = p / 10.0 ** (snr_db / 10.0)
        point = replace(sc, power=PowerConfig(p, 1.0, sigma2, sigma2))
        got = [snr.series[name][k] for name in SERIES if name != "theory"]
        want = [evaluate_link(point, pos).secrecy_rate_bps_hz for pos in positions]
        assert got == want
    sigma2 = p / 10.0 ** 1.5
    for k, a in enumerate(alpha.x_axis):
        full = replace(sc, power=PowerConfig(p, 1.0, sigma2, sigma2))
        split = replace(sc, power=PowerConfig(p, a, sigma2, sigma2))
        got = [alpha.series[name][k] for name in SERIES if name != "theory"]
        want = [evaluate_link(full, positions[0]).secrecy_rate_bps_hz] + [
            evaluate_link(split, pos).secrecy_rate_bps_hz for pos in positions[1:]
        ]
        assert got == want


@given(
    sc=finite_scenarios(),
    snr_grid=st.lists(st.floats(-30.0, 40.0), min_size=8, max_size=24),
    alpha_grid=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=24),
    snr_db=st.floats(-30.0, 40.0),
)
def test_random_sweeps_equal_per_point_link_evaluation(sc, snr_grid, alpha_grid, snr_db):
    # the grid-wide rates equal evaluate_link at every (position, grid point)
    # cell, on both schemes, wherever the scheme has a placement
    p = sc.power.total_power_w
    rates = [name for name in SERIES if name != "theory"]
    for scheme in ("azimuth", "pitch"):
        try:
            snr = sweep_snr(sc, scheme=scheme, snr_db_grid=snr_grid)
        except InfeasibleGeometry:
            continue
        alpha = sweep_alpha(sc, snr_db=snr_db, alpha_grid=alpha_grid, scheme=scheme)
        positions = [snr.metadata["placement"]] + snr.metadata["baseline_positions"]
        positions = [Position3D(*pos) for pos in positions]
        for k, x in enumerate(snr_grid):
            sigma2 = p / 10.0 ** (x / 10.0)
            point = replace(sc, power=PowerConfig(p, 1.0, sigma2, sigma2))
            want = [evaluate_link(point, pos).secrecy_rate_bps_hz for pos in positions]
            assert [snr.series[name][k] for name in rates] == want
        sigma2 = p / 10.0 ** (snr_db / 10.0)
        full = replace(sc, power=PowerConfig(p, 1.0, sigma2, sigma2))
        for k, a in enumerate(alpha_grid):
            split = replace(sc, power=PowerConfig(p, a, sigma2, sigma2))
            want = [evaluate_link(full, positions[0]).secrecy_rate_bps_hz] + [
                evaluate_link(split, pos).secrecy_rate_bps_hz for pos in positions[1:]
            ]
            assert [alpha.series[name][k] for name in rates] == want


_OUT_OF_RANGE = (
    "dB is out of range: the linear SNR and the noise floor P/SNR must be "
    "finite and positive"
)
_SPLIT_RANGE = "alpha grid must lie in [0, 1]"


@pytest.mark.parametrize("grid", [[math.nan], [0.0, math.inf], [-math.inf, 10.0]])
def test_sweep_snr_rejects_non_finite_grid(reference_scenario, grid):
    # the one SNR rule names the first point that fails it
    first = next(snr_db for snr_db in grid if not math.isfinite(snr_db))
    with pytest.raises(ValueError, match=f"^SNR {first:g} {_OUT_OF_RANGE}$"):
        sweep_snr(reference_scenario, snr_db_grid=grid)


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
def test_sweep_alpha_rejects_non_finite_snr(reference_scenario, snr_db):
    with pytest.raises(ValueError, match=f"^SNR {snr_db:g} {_OUT_OF_RANGE}$"):
        sweep_alpha(reference_scenario, snr_db=snr_db)


def test_sweep_alpha_rejects_nan_split(reference_scenario):
    # a nan fails the split's one rule, 0 <= alpha <= 1, before anything is
    # solved
    with pytest.raises(ValueError, match=re.escape(_SPLIT_RANGE)):
        sweep_alpha(reference_scenario, alpha_grid=[0.5, math.nan])


def test_sweep_alpha_rejects_nan_split_before_solving():
    # no scheme has a placement at this altitude: the nan is named, not the
    # InfeasibleGeometry that solving would raise
    with pytest.raises(ValueError, match=re.escape(_SPLIT_RANGE)):
        sweep_alpha(make_scenario(g=10_000.0), alpha_grid=[math.nan])


@pytest.mark.parametrize(
    "sweep, kwargs",
    [
        (sweep_snr, {"snr_db_grid": "0246"}),
        (sweep_snr, {"snr_db_grid": [0.0, "2"]}),
        (sweep_snr, {"snr_db_grid": [b"0"]}),
        (sweep_alpha, {"snr_db": "15"}),
        (sweep_alpha, {"snr_db": b"15"}),
        (sweep_alpha, {"alpha_grid": [0.5, "1"]}),
    ],
    ids=["snr-str-grid", "snr-str-value", "snr-bytes-value", "alpha-str-snr",
         "alpha-bytes-snr", "alpha-str-value"],
)
def test_sweeps_reject_text_values(reference_scenario, sweep, kwargs):
    # the sweeps take their values as floats, but not by float(): a str or
    # bytes is no number, and raises TypeError, before and after a sweep of
    # the default grid
    for _ in range(2):
        with pytest.raises(TypeError, match="real number"):
            sweep(reference_scenario, **kwargs)
        sweep(reference_scenario)


@pytest.mark.parametrize("state", ["cold", "warm"])
@pytest.mark.parametrize(
    "sweep, kwargs",
    [
        (sweep_snr, {"snr_db_grid": [0.0, 10**400]}),
        (sweep_alpha, {"snr_db": 10**400}),
        (sweep_alpha, {"alpha_grid": [10**400]}),
    ],
    ids=["snr-grid", "alpha-snr", "alpha-grid"],
)
def test_sweeps_name_an_int_past_the_float_range(sweep, kwargs, state):
    # an int too large for a float raises a named ValueError, not its
    # conversion's bare OverflowError: on a fresh scenario with no axis
    # kept, and on one whose default sweep and axis are kept
    sc = make_scenario()
    experiments._axis.cache_clear()
    if state == "warm":
        sweep(sc)
    with pytest.raises(ValueError) as info:
        sweep(sc, **kwargs)
    assert type(info.value) is ValueError
    assert str(info.value) == "sweep grid and SNR values must lie within the float range"


# Each row's id is written out: p, sweep, row and the rule's input, so that
# a change of message does not rename the row.
@pytest.mark.parametrize(
    "p, sweep, kwargs, message",
    [
        pytest.param(
            1.0, sweep_snr, {"snr_db_grid": [0.0, math.nan]},
            f"SNR nan {_OUT_OF_RANGE}", id="1.0-sweep_snr-kwargs0-SNR nan",
        ),
        pytest.param(
            1.0, sweep_alpha, {"snr_db": math.inf},
            f"SNR inf {_OUT_OF_RANGE}", id="1.0-sweep_alpha-kwargs1-SNR inf",
        ),
        pytest.param(
            1.0, sweep_snr, {"snr_db_grid": [4000.0]},
            f"SNR 4000 {_OUT_OF_RANGE}", id="1.0-sweep_snr-kwargs2-SNR 4000",
        ),
        pytest.param(
            1.0, sweep_alpha, {"snr_db": -4000.0},
            f"SNR -4000 {_OUT_OF_RANGE}", id="1.0-sweep_alpha-kwargs3-SNR -4000",
        ),
        pytest.param(
            1e300, sweep_snr, {"snr_db_grid": [-100.0]},
            f"SNR -100 {_OUT_OF_RANGE}", id="1e+300-sweep_snr-kwargs4-SNR -100",
        ),
        pytest.param(
            1e300, sweep_alpha, {"snr_db": -100.0},
            f"SNR -100 {_OUT_OF_RANGE}", id="1e+300-sweep_alpha-kwargs5-SNR -100",
        ),
        pytest.param(
            1.0, sweep_alpha, {"alpha_grid": [0.0, 1.2]}, _SPLIT_RANGE,
            id="1.0-sweep_alpha-kwargs6-alpha 1.2",
        ),
        pytest.param(
            1.0, sweep_alpha, {"alpha_grid": [-0.5]}, _SPLIT_RANGE,
            id="1.0-sweep_alpha-kwargs7-alpha -0.5",
        ),
        # a nan fails the range rule as an out-of-range split does
        pytest.param(
            1.0, sweep_alpha, {"alpha_grid": [math.nan, 2.0]}, _SPLIT_RANGE,
            id="1.0-sweep_alpha-kwargs8-alpha nan first",
        ),
        pytest.param(
            1.0, sweep_alpha, {"alpha_grid": [0.5, math.nan]}, _SPLIT_RANGE,
            id="1.0-sweep_alpha-kwargs9-alpha nan last",
        ),
    ],
)
def test_sweep_rejections_keep_their_type_and_message(p, sweep, kwargs, message):
    # the budgets are checked where they enter, not per rate cell: each
    # rejection keeps the exact type and text it had when checked per cell
    with pytest.raises(ValueError) as info:
        sweep(make_scenario(p=p), **kwargs)
    assert type(info.value) is ValueError
    assert str(info.value) == message


_SNRS = st.sampled_from([0.0, -0.0, 15.0]) | st.floats(-30.0, 60.0)
_SPLITS = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@given(
    sc=finite_scenarios(),
    snr_grid=st.lists(_SNRS, min_size=1, max_size=12),
    alpha_grid=st.lists(_SPLITS, min_size=1, max_size=12),
    snr_db=_SNRS,
)
def test_sweep_series_equal_reference_secrecy_rates(sc, snr_grid, alpha_grid, snr_db):
    # the sweeps run the package's two rate steps on budgets checked on
    # entry: their rates are the reference's cells to the bit, at the same
    # correlations and budgets
    p = sc.power.total_power_w
    for scheme in ("azimuth", "pitch"):
        try:
            snr = sweep_snr(sc, scheme=scheme, snr_db_grid=snr_grid)
        except InfeasibleGeometry:
            continue
        alpha = sweep_alpha(sc, snr_db=snr_db, alpha_grid=alpha_grid, scheme=scheme)
        positions = [snr.metadata["placement"], *snr.metadata["baseline_positions"]]
        rhos = correlation_at(sc, [Position3D(*pos) for pos in positions])
        floors = [p / 10.0 ** (x / 10.0) for x in snr_grid]
        want_snr = secrecy_rates(rhos, p, [1.0] * len(floors), floors, floors)
        floors = [p / 10.0 ** (snr_db / 10.0)] * len(alpha_grid)
        # the placement at alpha = 1, the baselines at the grid's splits
        want_alpha = secrecy_rates(
            rhos[:1], p, [1.0] * len(floors), floors, floors
        ) + secrecy_rates(rhos[1:], p, alpha_grid, floors, floors)
        for result, want in ((snr, want_snr), (alpha, want_alpha)):
            got = [result.series[name] for name in SERIES if name != "theory"]
            assert [[*map(float.hex, cells)] for cells in got] == [
                [*map(float.hex, cells)] for cells in want
            ]


@pytest.mark.parametrize("grid", [[4000.0], [0.0, 3084.0], [-3240.0], [-4000.0]])
def test_sweep_snr_rejects_out_of_range_snr(reference_scenario, grid):
    # 10^(SNR/10) overflows above ~3,083 dB and is 0.0 below ~-3,240 dB;
    # at 1 W the noise floor 1/SNR already overflows below ~-3,083 dB.
    with pytest.raises(ValueError, match="SNR .* dB is out of range"):
        sweep_snr(reference_scenario, snr_db_grid=grid)


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
def test_sweep_alpha_rejects_out_of_range_snr(reference_scenario, snr_db):
    with pytest.raises(ValueError, match="SNR .* dB is out of range"):
        sweep_alpha(reference_scenario, snr_db=snr_db)


@pytest.mark.parametrize("p, snr_db", [(1e300, -100.0), (1e-300, 300.0)])
def test_sweeps_reject_noise_floor_out_of_range(p, snr_db):
    # A finite linear SNR whose noise floor P/SNR overflows or underflows.
    sc = make_scenario(p=p)
    with pytest.raises(ValueError, match="out of range"):
        sweep_snr(sc, snr_db_grid=[snr_db])
    with pytest.raises(ValueError, match="out of range"):
        sweep_alpha(sc, snr_db=snr_db)


@given(
    sc=finite_scenarios(),
    scheme=st.sampled_from(("azimuth", "pitch")),
    snr_grid=st.lists(st.floats(-3200.0, 3200.0), min_size=1, max_size=4),
    snr_db=st.floats(-3200.0, 3200.0),
    alpha_grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_every_sweep_value_is_finite(sc, scheme, snr_grid, snr_db, alpha_grid):
    # SNRs reach past the float range (~3,080 dB) both ways: the sweeps'
    # own checks are the filter, and a scheme with no placement is skipped
    sweeps = (
        lambda: sweep_snr(sc, scheme, snr_grid),
        lambda: sweep_alpha(sc, snr_db, alpha_grid, scheme),
    )
    for sweep in sweeps:
        try:
            result = sweep()
        except (InfeasibleGeometry, ValueError):
            continue
        values = [v for series in result.series.values() for v in series]
        assert all(math.isfinite(v) and v >= 0.0 for v in values)
