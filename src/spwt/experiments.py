"""Secrecy-rate studies: SR versus SNR and SR versus power split.

Each sweep compares the solver's placement against seeded uniform-random
deployments and against the interception-free bound log2(1 + SNR).  At a
true null the proposed curve meets the bound exactly, so the comparisons
isolate what placement alone buys.
"""

import math
import operator
import random
from dataclasses import dataclass

from .errors import InfeasibleGeometry
from .geometry import Position3D
from .placement import PlacementSolution, _kept, solve_all
from .scenario import ScenarioConfig
from .signalmodel import correlation_at, secrecy_rates

DEFAULT_SNR_GRID_DB = tuple(range(0, 21, 2))
DEFAULT_ALPHA_GRID = tuple(i / 10.0 for i in range(11))
BASELINE_BOUNDS = ((-1000.0, 1000.0), (-1000.0, 1000.0))

# Baselines closer than this (meters, horizontal) to a ground node are
# redrawn; directly overhead the angles degenerate.
_EXCLUSION_M = 1.0
_MAX_REDRAWS = 10_000


@dataclass
class SweepResult:
    """One sweep: shared x axis, named SR series, and what the scenario does
    not hold: ``kind``, ``scheme``, ``snr_db`` (alpha sweeps), the
    ``placement`` and the ``baseline_positions``."""

    x_axis: list
    series: dict
    metadata: dict


def random_baseline_positions(
    n: int,
    bounds: tuple = BASELINE_BOUNDS,
    z: float = 200.0,
    seed: int = 0,
    exclude: tuple = (),
) -> list[Position3D]:
    """Seeded uniform draws over a ground box at fixed altitude, x before y,
    from the standard library's Mersenne Twister, ``random.Random(seed)``.

    Each coordinate is ``lo + (hi - lo) * random()``, the formula
    ``random.uniform`` documents, so the positions rest only on
    ``random()``'s promise of the same stream for the same seed across
    Python versions.  Draws within 1 m horizontal of any position in
    ``exclude`` are rejected and redrawn, so the returned deployments
    always have well-defined look angles toward those nodes; 10,000
    rejections in a row for one position raise ValueError.
    """
    if operator.index(n) < 1:
        raise ValueError("need at least one position")
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    if not (x_hi > x_lo and y_hi > y_lo):
        raise ValueError("bounds box is degenerate")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    draw = random.Random(seed).random
    out: list[Position3D] = []
    while len(out) < n:
        for _ in range(_MAX_REDRAWS):
            x = x_lo + (x_hi - x_lo) * draw()
            y = y_lo + (y_hi - y_lo) * draw()
            if not any(math.hypot(x - p.x, y - p.y) < _EXCLUSION_M for p in exclude):
                out.append(Position3D(x, y, z))
                break
        else:
            raise ValueError(
                "the excluded nodes' 1 m discs leave no room in the bounds box"
            )
    return out


def _best_placement(scenario: ScenarioConfig, scheme: str) -> PlacementSolution:
    """The scheme's placement of highest SR, then smallest residual, then
    branch/factor order, picked once per scenario object: only the first
    sweep of a scheme warns of the candidates its solve discards."""
    best = _kept(scenario, ("best", scheme), _pick, scheme)
    if isinstance(best, str):
        raise InfeasibleGeometry(best)
    return best


def _pick(scenario: ScenarioConfig, scheme: str) -> PlacementSolution | str:
    solutions, failures = solve_all(scenario, (scheme,))
    if not solutions:
        return "; ".join(failures)
    return min(
        solutions,
        key=lambda s: (-s.sr_at_solution, s.null_residual, s.branch, s.factor_used),
    )


def _baselines(scenario: ScenarioConfig, n: int) -> tuple:
    """The scenario's ``n`` baseline positions and their correlations, in
    one draw and one kernel call."""
    positions = random_baseline_positions(
        n, BASELINE_BOUNDS, z=scenario.uav_height_m, seed=scenario.seed,
        exclude=(scenario.bob, scenario.eve),
    )
    return positions, correlation_at(scenario, positions)


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


def _sweep(
    scenario: ScenarioConfig,
    kind: str,
    scheme: str,
    n_random_baselines: int,
    points: list,
    extra: dict,
) -> SweepResult:
    """The sweep core: ``points`` holds one (x, linear SNR, baseline alpha)
    triple per grid point, ``extra`` the kind's own metadata.

    The proposed placement transmits at alpha = 1 and the baselines at the
    point's alpha, both at the noise floor P/SNR; the bound is
    log2(1 + SNR).  The correlation does not depend on power, so it is
    computed once per position: the placement's is its certified residual,
    the baselines' come from one kernel call, shared by every sweep of the
    scenario.  The rates of every (grid point, position) cell then come
    from one ``secrecy_rates`` call; each floor and split was checked on entry.
    """
    best = _best_placement(scenario, scheme)
    n = operator.index(n_random_baselines)  # a float count raises TypeError
    baselines, baseline_rhos = _kept(scenario, ("baselines", n), _baselines, n)
    p = scenario.power.total_power_w
    noise = [p / snr_lin for _, snr_lin, _ in points]
    alpha = [[1.0] + [a] * len(baselines) for _, _, a in points]
    rhos = [best.null_residual, *baseline_rhos]
    proposed, *rand = secrecy_rates(rhos, p, alpha, noise, noise)
    theory = [math.log2(1.0 + snr_lin) for _, snr_lin, _ in points]
    series = {"proposed": proposed, "theory": theory}
    for i, values in enumerate(rand, start=1):
        series[f"rand{i}"] = values
    return SweepResult(
        x_axis=[float(x) for x, _, _ in points],
        series=series,
        metadata={
            "kind": kind,
            "scheme": scheme,
            **extra,
            "placement": (best.position.x, best.position.y, best.position.z),
            "baseline_positions": [(b.x, b.y, b.z) for b in baselines],
        },
    )


def sweep_snr(
    scenario: ScenarioConfig,
    scheme: str = "azimuth",
    snr_db_grid=None,
    n_random_baselines: int = 3,
) -> SweepResult:
    """SR versus SNR for the solved placement, the bound, and random
    deployments.

    SNR is 10*log10(P/sigma^2) with equal noise floors at both nodes; the
    noise floor is recomputed from the grid point, the total power stays at
    the scenario's value.  The proposed and baseline curves both transmit
    with the full power on the signal (alpha = 1) so the comparison is
    purely about placement; baseline positions are drawn once per run from
    the scenario seed and held across the sweep.
    """
    grid = list(DEFAULT_SNR_GRID_DB if snr_db_grid is None else snr_db_grid)
    if not grid:
        raise ValueError("SNR grid is empty")
    p = scenario.power.total_power_w
    points = [(snr_db, _linear_snr(snr_db, p), 1.0) for snr_db in grid]
    return _sweep(scenario, "snr", scheme, n_random_baselines, points, {})


def sweep_alpha(
    scenario: ScenarioConfig,
    snr_db: float = 15.0,
    alpha_grid=None,
    scheme: str = "azimuth",
    n_random_baselines: int = 3,
) -> SweepResult:
    """SR versus the signal/noise power split at a fixed SNR.

    The proposed placement never splits power (alpha held at 1): with the
    correlation nulled, artificial noise buys nothing and shaving signal
    power only lowers the receiver's SINR.  Baselines split power per the
    swept alpha, trading signal for jamming.
    """
    grid = list(DEFAULT_ALPHA_GRID if alpha_grid is None else alpha_grid)
    if not grid:
        raise ValueError("alpha grid is empty")
    if not all(0.0 <= a <= 1.0 for a in grid):  # a nan fails too
        raise ValueError("alpha grid must lie in [0, 1]")
    snr_lin = _linear_snr(snr_db, scenario.power.total_power_w)
    points = [(a, snr_lin, a) for a in grid]
    return _sweep(
        scenario, "alpha", scheme, n_random_baselines, points, {"snr_db": snr_db}
    )
