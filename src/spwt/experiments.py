"""Secrecy-rate studies: SR versus SNR and SR versus power split.

Each sweep compares the solver's placement against seeded uniform-random
deployments and against the interception-free bound log2(1 + SNR).  At a
true null the proposed curve meets the bound exactly, so the comparisons
isolate what placement alone buys.
"""

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import InfeasibleGeometry
from .geometry import Position3D
from .placement import PlacementSolution, _kept, solve_all
from .scenario import ScenarioConfig
from .signalmodel import _NOT_FINITE, _correlation_power, _rate_table, correlation_at

DEFAULT_SNR_GRID_DB = tuple(range(0, 21, 2))
DEFAULT_ALPHA_GRID = tuple(i / 10.0 for i in range(11))
BASELINE_BOUNDS = ((-1000.0, 1000.0), (-1000.0, 1000.0))

# Baselines closer than this (meters, horizontal) to a ground node are
# redrawn; directly overhead the angles degenerate.
_EXCLUSION_M = 1.0


@dataclass
class SweepResult:
    """One sweep: shared x axis, named SR series, and what the scenario does
    not hold: ``kind``, ``scheme``, ``snr_db`` (alpha sweeps), a
    content-derived ``run_id``, the ``placement`` and the
    ``baseline_positions``."""

    x_axis: list
    series: dict
    metadata: dict


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _hasher(const: int, mult: int):
    """numpy SeedSequence's 32-bit hashmix; its constant steps per call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _uniforms(seed):
    """The doubles of ``numpy.random.default_rng(seed).random()``, bit for
    bit, in plain Python: an endless iterator.

    SeedSequence hashes the seed's 32-bit words, least significant first,
    into a 4-word pool, then draws PCG64's start and stream from it.  PCG64
    (O'Neill 2014) steps a 128-bit LCG and outputs XSL-RR; a double is the
    top 53 bits of an output times 2^-53.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    # At least the pool's four words; the ones above the seed are zero.
    words = [seed >> i & _MASK32 for i in range(0, max(seed.bit_length(), 128), 32)]
    entropy_hash = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [entropy_hash(word) for word in words[:4]]

    def mix(dst: int, value: int) -> None:
        x = (0xCA01F9DD * pool[dst] - 0x4973F715 * entropy_hash(value)) & _MASK32
        pool[dst] = x ^ x >> 16

    for src, dst in itertools.permutations(range(4), 2):
        mix(dst, pool[src])
    for word in words[4:]:
        for dst in range(4):
            mix(dst, word)
    state_hash = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [state_hash(pool[i % 4]) for i in range(8)]
    s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
    lcg = ((inc + (s0 << 64 | s1)) * mult + inc) & _MASK128
    while True:
        lcg = (lcg * mult + inc) & _MASK128
        rot = lcg >> 122
        out = (lcg >> 64 ^ lcg) & _MASK64
        out = (out >> rot | out << 64 - rot) & _MASK64
        yield (out >> 11) * 2.0**-53


def random_baseline_positions(
    n: int,
    bounds: tuple = BASELINE_BOUNDS,
    z: float = 200.0,
    seed: int = 0,
    exclude: tuple = (),
) -> list[Position3D]:
    """Seeded uniform draws over a ground box at fixed altitude, x before y:
    the values of numpy's ``default_rng(seed).uniform``, in plain Python.

    Draws within 1 m horizontal of any position in ``exclude`` are rejected
    and redrawn, so the returned deployments always have well-defined look
    angles toward those nodes.
    """
    if operator.index(n) < 1:
        raise ValueError("need at least one position")
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    if not (x_hi > x_lo and y_hi > y_lo):
        raise ValueError("bounds box is degenerate")
    draws = _uniforms(seed)
    out: list[Position3D] = []
    while len(out) < n:
        # x, then y, each scaled as rng.uniform(lo, hi) scales its draw.
        x = x_lo + (x_hi - x_lo) * next(draws)
        y = y_lo + (y_hi - y_lo) * next(draws)
        if any(math.hypot(x - p.x, y - p.y) < _EXCLUSION_M for p in exclude):
            continue
        out.append(Position3D(x, y, z))
    return out


def _best_placement(scenario: ScenarioConfig, scheme: str) -> PlacementSolution:
    """Deterministic pick among a scheme's solutions: highest SR first, then
    smallest residual, then branch/factor order."""
    solutions, failures = solve_all(scenario, (scheme,))
    if not solutions:
        raise InfeasibleGeometry("; ".join(failures))
    return sorted(
        solutions,
        key=lambda s: (-s.sr_at_solution, s.null_residual, s.branch, s.factor_used),
    )[0]


def _baselines(scenario: ScenarioConfig, n: int) -> tuple:
    """The scenario's ``n`` baseline positions and their correlations, in
    one draw and one kernel call."""
    positions = random_baseline_positions(
        n, BASELINE_BOUNDS, z=scenario.uav_height_m, seed=scenario.seed,
        exclude=(scenario.bob, scenario.eve),
    )
    return positions, correlation_at(scenario, positions)


def _linear_snr(snr_db: float, p: float) -> float:
    """10^(snr_db/10), checked to give a finite, positive noise floor p/SNR."""
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


def _run_id(scenario: ScenarioConfig, kind: str, scheme: str) -> str:
    import hashlib  # on the first sweep, not with the module

    # The scenario's repr is most of the cost; the sweeps of a study share it.
    text = f"{_kept(scenario, ('repr',), repr)}|{kind}|{scheme}"
    return hashlib.sha1(text.encode()).hexdigest()[:12]


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
    from one ``_rate_table`` call; each floor and split was checked on entry.
    """
    best = _best_placement(scenario, scheme)
    n = n_random_baselines
    key = ("baselines", n, type(n))
    baselines, baseline_rhos = _kept(scenario, key, _baselines, n)
    p = scenario.power.total_power_w
    noise = [p / snr_lin for _, snr_lin, _ in points]
    alpha = [[1.0] + [a] * len(baselines) for _, _, a in points]
    mags = [_correlation_power(r) for r in (best.null_residual, *baseline_rhos)]
    proposed, *rand = _rate_table(mags, p, alpha, noise, noise)
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
            "run_id": _run_id(scenario, kind, scheme),
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
    if not all(math.isfinite(snr_db) for snr_db in grid):
        raise ValueError("SNR grid must be finite")
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
    if any(a < 0.0 or a > 1.0 for a in grid):
        raise ValueError("alpha grid must lie in [0, 1]")
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    snr_lin = _linear_snr(snr_db, scenario.power.total_power_w)
    if not all(map(math.isfinite, grid)):  # a nan passes the range check
        raise ValueError(_NOT_FINITE)
    points = [(a, snr_lin, a) for a in grid]
    return _sweep(
        scenario, "alpha", scheme, n_random_baselines, points, {"snr_db": snr_db}
    )
