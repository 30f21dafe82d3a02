"""Secrecy-rate studies: SR versus SNR and SR versus power split.

Each sweep compares the solver's placement against seeded uniform-random
deployments and against the interception-free bound log2(1 + SNR).  At a
true null the proposed curve meets the bound exactly, so the comparisons
isolate what placement alone buys.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .placement import _frame, _kept, solve_all
from .signalmodel import _budget_rows, _rate_cells

DEFAULT_SNR_GRID_DB = tuple(range(0, 21, 2))
DEFAULT_ALPHA_GRID = tuple(i / 10.0 for i in range(11))
BASELINE_BOUNDS = ((-1000.0, 1000.0), (-1000.0, 1000.0))
BASELINE_COUNT = 3


@dataclass
class SweepResult:
    """One sweep: shared x axis, named SR series, and what the scenario does
    not hold: ``kind``, ``scheme``, ``snr_db`` (alpha sweeps), the
    ``placement`` and the ``baseline_positions``."""

    x_axis: list
    series: dict
    metadata: dict


def _pick(scenario: "ScenarioConfig", scheme: str) -> "PlacementSolution | str":
    """The scheme's first placement in the order ``solve_all`` returns, or
    why it has none; kept under ("best", scheme).  The candidates the solve
    discards are not the sweep's to report: ``solve_all`` lists them.  Every
    placement is certified at |rho| <= 1e-8, where the SR differs from the
    bound only by rounding, so no ranking of them picks a better one."""
    solutions, failures, _ = solve_all(scenario, (scheme,))
    return solutions[0] if solutions else "; ".join(failures)


def _baselines(scenario: "ScenarioConfig") -> tuple:
    """The scenario's ``BASELINE_COUNT`` baseline positions as (x, y, z)
    tuples and their correlations, in one draw and one pass of the kept
    kernel.

    The draws are uniform over ``BASELINE_BOUNDS`` at the scenario's height,
    x before y, each coordinate ``lo + (hi - lo) * random()`` (the formula
    ``random.uniform`` documents) from ``random.Random(seed)``, so they rest
    only on ``random()``'s promise of one stream per seed across Python
    versions.  A draw may land over a ground node, where the kernel is as
    finite as anywhere else.
    """
    (x_lo, x_hi), (y_lo, y_hi) = BASELINE_BOUNDS
    draw = random.Random(scenario.seed).random
    z = scenario.uav_height_m
    positions = [
        (x_lo + (x_hi - x_lo) * draw(), y_lo + (y_hi - y_lo) * draw(), z)
        for _ in range(BASELINE_COUNT)
    ]
    tf, _, magnitude = _kept(scenario, ("frame",), _frame)
    return positions, [magnitude(*tf.to_canonical(x, y)) for x, y, _ in positions]


def _linear_snr(snr_db: float, p: float) -> float:
    """10^(snr_db/10), checked to give a finite, positive noise floor p/SNR:
    the one rule for an SNR, which a nan or infinite ``snr_db`` fails."""
    try:
        snr_lin = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr_lin = math.inf
    if not (0.0 < snr_lin < math.inf and 0.0 < p / snr_lin < math.inf):
        raise ValueError(
            f"SNR {snr_db:g} dB is out of range: the linear SNR and the noise "
            "floor P/SNR must be finite and positive"
        )
    return snr_lin


@functools.lru_cache(maxsize=2)
def _axis(p: float, kind: str, grid: tuple, snr_db: float | None) -> tuple:
    """The checked axis of a ``kind`` sweep over ``grid`` at total power
    ``p``, and at ``snr_db`` for an alpha sweep: every grid check in one
    place, then the bound's series ``theory`` and one budget row
    (:func:`~spwt.signalmodel._budget_rows`) per grid point at the
    baselines' split (``rows``) and at alpha = 1 (``ones``, the same list
    in an SNR sweep).

    Kept for the last two distinct (p, kind, grid, snr_db), an SNR and an
    alpha sweep's, so memory grows with the grids' length.  Its inputs are
    floats, so equal values (0.0 and -0.0 too) give the same bits.  A
    rejected grid raises afresh on every call, as nothing is kept of it.
    """
    if not grid:
        raise ValueError(f"{'SNR' if kind == 'snr' else 'alpha'} grid is empty")
    if kind == "snr":
        snrs = [_linear_snr(x, p) for x in grid]
    else:
        if not all(0.0 <= a <= 1.0 for a in grid):  # a nan fails too
            raise ValueError("alpha grid must lie in [0, 1]")
        snrs = [_linear_snr(snr_db, p)] * len(grid)
    floors = [p / snr_lin for snr_lin in snrs]
    ones = _budget_rows(p, [1.0] * len(grid), floors, floors)
    rows = ones if kind == "snr" else _budget_rows(p, grid, floors, floors)
    return [math.log2(1.0 + snr_lin) for snr_lin in snrs], rows, ones


def _baseline_rows(scenario: "ScenarioConfig", rows: list) -> tuple:
    """The baselines' rate rows over the budget ``rows``, one
    :func:`~spwt.signalmodel._rate_cells` pass, each under its series name
    ``rand<i>``, and their positions."""
    baselines, baseline_rhos = _kept(scenario, ("baselines",), _baselines)
    rand = _rate_cells(baseline_rhos, rows)
    return [(f"rand{i}", row) for i, row in enumerate(rand, start=1)], baselines


def _sweep(
    scenario: "ScenarioConfig",
    kind: str,
    scheme: str,
    grid,
    snr_db: float | None,
) -> SweepResult:
    """The sweep core over ``grid``, at ``snr_db`` for an alpha sweep.

    The proposed placement transmits at alpha = 1 and the baselines at the
    point's alpha, both at the noise floor P/SNR; the bound is
    log2(1 + SNR).  The placement's correlation is its certified residual.
    The inputs are taken as floats on entry, so a sweep computes in the
    floats it prints, and equal grids share one axis (:func:`_axis`) and,
    per scenario, the baselines' rate rows.  The grid is checked first, then
    the placement.  Each scheme adds its proposed row, one cell pass over the
    alpha = 1 rows.
    """
    # float(x) in C, except that a str or bytes raises TypeError
    try:
        grid = tuple(map(math.ldexp, grid, itertools.repeat(0)))
        snr_db = None if snr_db is None else math.ldexp(snr_db, 0)
    except OverflowError:
        raise ValueError(
            "sweep grid and SNR values must lie within the float range"
        ) from None
    theory, rows, ones = _axis(scenario.power.total_power_w, kind, grid, snr_db)
    best = _kept(scenario, ("best", scheme), _pick, scheme)
    key = ("sweep", kind, grid, snr_db)
    rand, baselines = _kept(scenario, key, _baseline_rows, rows)
    series = {
        "proposed": _rate_cells([best.null_residual], ones)[0],
        "theory": list(theory),
    }
    series.update((name, list(row)) for name, row in rand)
    metadata = {
        "kind": kind,
        "scheme": scheme,
        "snr_db": snr_db,
        "placement": (best.position.x, best.position.y, best.position.z),
        "baseline_positions": list(baselines),
    }
    if kind == "snr":
        del metadata["snr_db"]
    return SweepResult(x_axis=list(grid), series=series, metadata=metadata)


def sweep_snr(
    scenario: "ScenarioConfig",
    scheme: str = "azimuth",
    snr_db_grid=None,
) -> SweepResult:
    """SR versus SNR for the solved placement, the bound, and random
    deployments.

    SNR is 10*log10(P/sigma^2) with equal noise floors at both nodes; the
    noise floor is recomputed from the grid point, the total power stays at
    the scenario's value.  The proposed and baseline curves both transmit
    with the full power on the signal (alpha = 1) so the comparison is
    purely about placement; baseline positions are drawn once per run from
    the scenario seed and held across the sweep.  Grid values of any real
    type run as their floats; a str or bytes raises TypeError.
    """
    grid = DEFAULT_SNR_GRID_DB if snr_db_grid is None else snr_db_grid
    return _sweep(scenario, "snr", scheme, grid, None)


def sweep_alpha(
    scenario: "ScenarioConfig",
    snr_db: float = 15.0,
    alpha_grid=None,
    scheme: str = "azimuth",
) -> SweepResult:
    """SR versus the signal/noise power split at a fixed SNR.

    The proposed placement never splits power (alpha held at 1): with the
    correlation nulled, artificial noise buys nothing and shaving signal
    power only lowers the receiver's SINR.  Baselines split power per the
    swept alpha, trading signal for jamming.  ``snr_db`` and grid values of
    any real type run as their floats; a str or bytes raises TypeError.
    """
    grid = DEFAULT_ALPHA_GRID if alpha_grid is None else alpha_grid
    return _sweep(scenario, "alpha", scheme, grid, snr_db)
