"""Transmitter placement on nulls of the receiver/eavesdropper correlation.

Two placement loci make one factor of the correlation a pure geometric sum
whose zeros are known:

* bisector scheme ("azimuth"): on the perpendicular bisector of the ground
  segment (x = x_e/2) the two pitches coincide, and the null condition
  yields the lateral offset in closed form;
* extension scheme ("pitch"): on the extension of the ground segment (y = 0,
  outside [0, x_e]) the two yaw-relative azimuths coincide, and the null
  condition becomes a scalar equation in the pitch-cosine gap, solved by
  bisection on a strictly monotone function.

Every candidate position is certified by recomputing the correlation with
:func:`~spwt.signalmodel.correlation_magnitude` at the returned position;
candidates that fail are discarded with a warning rather than returned, and a
solver with no certified candidate raises ``InfeasibleGeometry``.

Each scenario is solved once: the outcomes of the last scenario object
asked for (its placements or failure reasons, with the warnings their solve
produced) are kept and replayed while the same object keeps being asked.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleGeometry, InvalidIndex, InvalidYaw
from .geometry import Position3D, canonicalize_frame, look_angles
from .scenario import ScenarioConfig
from .signalmodel import correlation_at, correlation_magnitude, link_metrics

HALF_PI = math.pi / 2.0

# Yaw closer than this to a multiple of pi/2 kills one direction cosine and
# with it both null equations.
_YAW_EPS = 1e-9

# Candidates whose recomputed correlation exceeds this are discarded.
_NULL_TOL = 1e-8

# Positions closer than this (meters) are considered the same solution.
_DEDUP_M = 1e-6

_BISECT_LO = 1e-6
_BISECT_HI = 1e6
_BISECT_SCAN = 64
# Outward distances of the bisection's logarithmic pre-scan.
_SCAN_T = np.logspace(math.log10(_BISECT_LO), math.log10(_BISECT_HI), _BISECT_SCAN)
_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200

# Grid points per chunk of correlation_map rows: small enough that the
# kernel's temporaries stay in cache (2^12..2^14 time alike; 2^16 is slower).
_MAP_CHUNK = 1 << 13


@dataclass(frozen=True)
class NullIndex:
    """Which zero of each geometric-sum factor to target.

    ``k`` selects the row-axis zero used by the bisector scheme, ``l`` the
    one used by the extension scheme.  A value that is a multiple of the
    matching array dimension lands on the sum's maximum instead of a zero
    and is rejected.
    """

    k: int = 1
    l: int = 1


@dataclass(frozen=True)
class PlacementSolution:
    position: Position3D
    scheme: str
    branch: str
    index_used: NullIndex
    factor_used: str
    null_residual: float
    sr_at_solution: float


def _check_yaw(yaw: float) -> None:
    r = yaw % HALF_PI
    if min(r, HALF_PI - r) < _YAW_EPS:
        raise InvalidYaw(
            "yaw is a multiple of pi/2; rotate the heading off the ground "
            "axis to keep both direction cosines nonzero"
        )


def _check_index(value: int, m_rows: int, n_cols: int) -> None:
    if value < 1:
        raise InvalidIndex("null index must be a positive integer")
    if value % m_rows == 0 or value % n_cols == 0:
        raise InvalidIndex(
            f"index {value} is a multiple of an array dimension "
            f"({m_rows}x{n_cols}); that factor has no zero there"
        )


# The last scenario object asked for, and its outcomes.  A study solves one
# scenario and then sweeps it, so one slot serves every repeat; an equal
# copy is another object and is solved afresh, and the previous scenario is
# released as soon as another one is asked for.  The pair is read and
# replaced as one object, so no thread files an outcome under a scenario
# other than its own.
_last: tuple = (None, {})


def _outcomes(scenario: ScenarioConfig) -> dict:
    """The outcomes kept for ``scenario``: filled by earlier calls if it is
    the last scenario asked for, else a new empty set that replaces them.

    Keys name what was solved: ("azimuth", index), ("pitch", index, side,
    factor), and the sweeps' ("baselines", count), each number with its
    type, so that inputs that only compare equal (1, 1.0, True) are solved
    apart.  An outcome holds only values and messages, never an exception
    or the scenario, so releasing the slot frees the scenario.
    """
    global _last
    held, outcomes = _last
    if held is not scenario:
        outcomes = {}
        _last = (scenario, outcomes)
    return outcomes


def _index_key(index: NullIndex) -> tuple:
    return (index, type(index.k), type(index.l))


def _replay(notes: tuple) -> None:
    """Warn each recorded message, attributed to the caller of the public
    solver that replays it."""
    for note in notes:
        warnings.warn(note, stacklevel=3)


def solve_azimuth_scheme(
    scenario: ScenarioConfig, index: NullIndex | None = None
) -> list[PlacementSolution]:
    """All bisector-scheme placements nulling the correlation.

    On x = x_e/2 the pitch cosines agree, and the row factor vanishes when

        y > 0 with  4*k^2*(y^2 + g^2) = (M^2*cos(yaw)^2 - k^2) * x_e^2,

    the column factor when M*cos is replaced by N*sin.  Up to four
    candidates arise (two equations, two signs); duplicates within 1e-6 m
    are merged and every survivor is certified against the recomputed
    correlation, all candidates in one kernel call.

    Returns
    -------
    list of PlacementSolution
        In deterministic order: row factor before column, + branch before -.

    Raises
    ------
    InfeasibleGeometry
        If both radicands are negative (lower the altitude or rotate the
        yaw toward the ground axis), or no candidate passes certification.
    InvalidYaw, InvalidIndex
        For a quarter-turn yaw or an index with no matching zero.
    """
    found, notes = _bisector_outcome(
        scenario, index if index is not None else NullIndex()
    )
    _replay(notes)
    if isinstance(found, str):
        raise InfeasibleGeometry(found)
    return list(found)


def _bisector_outcome(scenario: ScenarioConfig, index: NullIndex) -> tuple:
    """The checks of the bisector scheme, then its kept or new outcome."""
    geom = scenario.array
    _check_index(index.k, geom.m_rows, geom.n_cols)
    _check_yaw(scenario.yaw)
    outcomes = _outcomes(scenario)
    key = ("azimuth", _index_key(index))
    if key not in outcomes:
        outcomes[key] = _solve_bisector(scenario, index)
    return outcomes[key]


def _solve_bisector(scenario: ScenarioConfig, index: NullIndex) -> tuple:
    """The bisector scheme as an outcome: (the certified solutions, or the
    reason there are none, and the warning messages in order)."""
    geom = scenario.array
    k = float(index.k)
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve).x
    g = scenario.uav_height_m
    half = x_e / 2.0

    candidates: list[tuple[str, str, float]] = []
    radicands: list[float] = []
    for factor, count, trig in (
        ("row", geom.m_rows, math.cos(scenario.yaw)),
        ("column", geom.n_cols, math.sin(scenario.yaw)),
    ):
        y_sq = ((count * trig * x_e) ** 2 - (k * x_e) ** 2 - (2.0 * k * g) ** 2) / (
            4.0 * k * k
        )
        radicands.append(y_sq)
        if y_sq < 0.0:
            continue
        y = math.sqrt(y_sq)
        if y > 0.0:
            candidates.append((factor, "+", y))
            candidates.append((factor, "-", -y))
        else:
            candidates.append((factor, "+", 0.0))

    if not candidates:
        return (
            f"no real lateral offset on the bisector (largest radicand "
            f"{max(radicands):.6g} m^2); lower the altitude or rotate the "
            f"yaw closer to the ground axis",
            (),
        )

    positions = [tf.from_canonical(Position3D(half, y, g)) for _, _, y in candidates]
    residuals = correlation_at(scenario, positions).tolist()
    solutions: list[PlacementSolution] = []
    notes: list[str] = []
    accepted_y: list[float] = []
    for (factor, branch, y), position, residual in zip(
        candidates, positions, residuals
    ):
        if any(abs(y - prev) < _DEDUP_M for prev in accepted_y):
            continue
        if not residual <= _NULL_TOL:
            notes.append(
                f"bisector candidate y={y:.6f} failed verification "
                f"(|rho| = {residual:.3e}); discarded"
            )
            continue
        accepted_y.append(y)
        metrics = link_metrics(residual, scenario.power)
        solutions.append(
            PlacementSolution(
                position=position,
                scheme="azimuth",
                branch=branch,
                index_used=index,
                factor_used=factor,
                null_residual=residual,
                sr_at_solution=metrics.secrecy_rate_bps_hz,
            )
        )
    if not solutions:
        return (
            "every bisector candidate failed verification; the closed form "
            "needs finite inputs and both ground nodes at z = 0",
            tuple(notes),
        )
    return tuple(solutions), tuple(notes)


def _pitch_gap(x_e: float, g: float, t: float) -> float:
    """cos(pitch) gap between the far and near ground node for a transmitter
    ``t`` meters beyond the segment end, altitude ``g``.

    Strictly decreasing in ``t``: from x_e/sqrt(x_e^2+g^2) at t -> 0 down to
    0 as t -> inf, which gives the bisection a single root.
    """
    far = x_e + t
    return far / math.hypot(far, g) - t / math.hypot(t, g)


def solve_pitch_scheme(
    scenario: ScenarioConfig,
    index: NullIndex | None = None,
    side: str = "left",
    factor: str | None = None,
) -> PlacementSolution:
    """Extension-scheme placement on one side of the ground segment.

    With y = 0 and the transmitter beyond the segment, both nodes share a
    yaw-relative azimuth, and the row factor vanishes when the pitch-cosine
    gap satisfies

        cos(pitch_e) - cos(pitch_b) = +/- 2*l / (M * cos(az_rel))

    (column factor: N*sin instead of M*cos).  The sign of the left side is
    fixed by the chosen ``side``, so the branch is selected automatically;
    the magnitude equation is solved by bisection over the outward distance
    in [1e-6, 1e6] m after a 64-point logarithmic pre-scan, until the
    equation residual drops to 1e-12, for at most 200 iterations.

    Parameters
    ----------
    side : {"left", "right"}
        "left" places the transmitter at x < 0, "right" at x > x_e.
    factor : {"row", "column"}, optional
        Force one factor; by default the row factor is tried first and the
        column factor is the fallback.

    Raises
    ------
    InfeasibleGeometry
        If the required gap exceeds the attainable range on this side for
        every allowed factor, no candidate passes certification, or the
        bisection does not converge.
    """
    ((found, notes),) = _extension_outcomes(
        scenario, index if index is not None else NullIndex(), (side,), factor
    )
    _replay(notes)
    if isinstance(found, str):
        raise InfeasibleGeometry(found)
    return found[0]


def _extension_outcomes(
    scenario: ScenarioConfig, index: NullIndex, sides: tuple, factor: str | None
) -> list:
    """The checks of the extension scheme, then the kept or new outcome of
    each of ``sides``; the missing sides are solved together."""
    geom = scenario.array
    _check_index(index.l, geom.m_rows, geom.n_cols)
    _check_yaw(scenario.yaw)
    if not all(side in ("left", "right") for side in sides):
        raise ValueError("side must be 'left' or 'right'")
    if factor not in (None, "row", "column"):
        raise ValueError("factor must be 'row' or 'column'")
    outcomes = _outcomes(scenario)
    keys = [("pitch", _index_key(index), side, factor) for side in sides]
    missing = [i for i, key in enumerate(keys) if key not in outcomes]
    if missing:
        solved = _solve_extension(scenario, index, [sides[i] for i in missing], factor)
        for i, outcome in zip(missing, solved):
            outcomes[keys[i]] = outcome
    return [outcomes[key] for key in keys]


def _solve_extension(
    scenario: ScenarioConfig, index: NullIndex, sides: list, factor: str | None
) -> list:
    """The extension scheme on each of ``sides`` as an outcome: ((the
    certified placement,), or the reason there is none, and the warning
    messages in order).

    The first candidates of all sides are certified in one kernel call; a
    side whose candidate fails falls back to its next factor on its own.
    Results and messages are those of solving the sides one after another.
    """
    notes = [[] for _ in sides]
    runs = [
        _extension_side(scenario, index, side, factor, side_notes)
        for side, side_notes in zip(sides, notes)
    ]
    steps = [_resume(run, None) for run in runs]
    first = [i for i, step in enumerate(steps) if isinstance(step, Position3D)]
    if first:
        residuals = correlation_at(scenario, [steps[i] for i in first]).tolist()
        for i, residual in zip(first, residuals):
            step = _resume(runs[i], residual)
            while isinstance(step, Position3D):
                step = _resume(runs[i], float(correlation_at(scenario, [step])[0]))
            steps[i] = step
    return [
        (str(step) if isinstance(step, InfeasibleGeometry) else (step,), tuple(n))
        for step, n in zip(steps, notes)
    ]


def _resume(run, residual):
    """Send ``residual`` into the side solver ``run``: its next candidate
    position, its solution, or the InfeasibleGeometry it raised."""
    try:
        return run.send(residual)
    except StopIteration as done:
        return done.value
    except InfeasibleGeometry as exc:
        return exc


def _extension_side(
    scenario: ScenarioConfig,
    index: NullIndex,
    side: str,
    factor: str | None,
    notes: list,
):
    """The extension solver on one side, as a generator: it yields each
    candidate position, is sent the |rho| recomputed there, appends a
    message to ``notes`` for each candidate it discards, and returns the
    first certified placement or raises InfeasibleGeometry."""
    geom = scenario.array
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    eve_c = tf.to_canonical(scenario.eve)
    x_e = eve_c.x
    g = scenario.uav_height_m

    # The yaw-relative azimuth toward the eavesdropper is constant along
    # each side; probe it 1 m beyond the segment end.
    probe_x = -1.0 if side == "left" else x_e + 1.0
    ang_e = look_angles(Position3D(probe_x, 0.0, g), eve_c, scenario.yaw)
    side_sign = 1.0 if side == "left" else -1.0
    gap_max = x_e / math.hypot(x_e, g)

    factors = (factor,) if factor is not None else ("row", "column")
    failure = "no factor attempted"
    for fac in factors:
        if fac == "row":
            count, trig = geom.m_rows, math.cos(ang_e.azimuth_rel)
        else:
            count, trig = geom.n_cols, math.sin(ang_e.azimuth_rel)
        target = 2.0 * index.l / (count * abs(trig))
        if not target < gap_max:
            failure = (
                f"{fac} factor needs a pitch-cosine gap of {target:.6g}, above "
                f"the attainable {gap_max:.6g} on the {side} side"
            )
            continue

        t = _bisect_gap(x_e, g, target)
        x_a = -t if side == "left" else x_e + t
        position = tf.from_canonical(Position3D(x_a, 0.0, g))
        residual = yield position
        if not residual <= _NULL_TOL:
            notes.append(
                f"extension candidate x={x_a:.6f} failed verification "
                f"(|rho| = {residual:.3e}); discarded"
            )
            failure = f"{fac} factor candidate failed verification"
            continue
        # Branch sign of +/- as it appears in the defining equation.
        branch = "+" if side_sign * target * trig > 0.0 else "-"
        metrics = link_metrics(residual, scenario.power)
        return PlacementSolution(
            position=position,
            scheme="pitch",
            branch=branch,
            index_used=index,
            factor_used=fac,
            null_residual=residual,
            sr_at_solution=metrics.secrecy_rate_bps_hz,
        )
    raise InfeasibleGeometry(
        f"extension scheme infeasible on the {side} side: {failure}; lower "
        f"the altitude, shrink the index, or use a larger array"
    )


def _scan_gap(x_e: float, g: float, target: float) -> tuple[float, float]:
    """Pre-scan for the root of _pitch_gap(x_e, g, t) = target over the
    ``_SCAN_T`` grid, all points in one vectorised pass.

    Returns the first adjacent pair (lo, hi) where the equation changes sign
    from + to -, or (t, t) for a grid point that solves it exactly,
    whichever comes first on the grid.  numpy's hypot can differ from
    math.hypot in the last bit, so a target within rounding of a grid
    point's gap may get the neighbouring bracket; bisection finds the same
    root in either.
    """
    far = x_e + _SCAN_T
    v = far / np.hypot(far, g) - _SCAN_T / np.hypot(_SCAN_T, g) - target
    hit = v == 0.0
    hit[1:] |= (v[:-1] > 0.0) & (v[1:] < 0.0)
    i = int(hit.argmax())
    if not hit[i]:
        # The gap is monotone, so a missing sign change means the target is
        # outside the attainable range on the scan interval.
        raise InfeasibleGeometry(
            f"no bracketing interval for a pitch-cosine gap of {target:.6g}"
        )
    if v[i] == 0.0:
        return float(_SCAN_T[i]), float(_SCAN_T[i])
    return float(_SCAN_T[i - 1]), float(_SCAN_T[i])


def _bisect_gap(x_e: float, g: float, target: float) -> float:
    """Root of _pitch_gap(x_e, g, t) = target by pre-scan plus bisection.

    Raises InfeasibleGeometry, naming the last equation residual, if the
    residual is still above 1e-12 after 200 halvings.
    """
    lo, hi = _scan_gap(x_e, g, target)
    if lo == hi:
        return lo
    v = math.nan
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        v = _pitch_gap(x_e, g, mid) - target
        if abs(v) <= _BISECT_TOL:
            return mid
        if v > 0.0:
            lo = mid
        else:
            hi = mid
    raise InfeasibleGeometry(
        f"bisection for a pitch-cosine gap of {target:.6g} did not converge in "
        f"{_BISECT_MAX_ITER} iterations (equation residual {abs(v):.3e})"
    )


def solve_all(
    scenario: ScenarioConfig, schemes: tuple = ("azimuth", "pitch")
) -> tuple[list[PlacementSolution], list[str]]:
    """Every certified placement of ``schemes`` at the default null index,
    and one message for each scheme or side that has none.

    Solutions come in the order of ``schemes``: the bisector placements as
    :func:`solve_azimuth_scheme` returns them, the extension placements left
    before right.  An infeasible scheme or side is reported as
    ``"azimuth: <reason>"`` or ``"pitch left: <reason>"`` instead of raised.

    Raises
    ------
    InvalidYaw, InvalidIndex
        For a quarter-turn yaw or an index with no matching zero; these rule
        out every scheme, so they are raised rather than reported.
    ValueError
        For a scheme other than "azimuth" or "pitch".
    """
    index = NullIndex()
    solutions: list[PlacementSolution] = []
    failures: list[str] = []
    for scheme in schemes:
        if scheme == "azimuth":
            labelled = [("azimuth", _bisector_outcome(scenario, index))]
        elif scheme == "pitch":
            sides = ("left", "right")
            labelled = zip(
                ("pitch left", "pitch right"),
                _extension_outcomes(scenario, index, sides, None),
            )
        else:
            raise ValueError("scheme must be 'azimuth' or 'pitch'")
        for label, (found, notes) in labelled:
            _replay(notes)
            if isinstance(found, str):
                failures.append(f"{label}: {found}")
            else:
                solutions.extend(found)
    return solutions, failures


def correlation_map(
    scenario: ScenarioConfig, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """|h_e^H h_b| over a canonical-frame position grid at the platform
    altitude, shape (len(ys), len(xs)).

    :func:`~spwt.signalmodel.correlation_magnitude` over the grid, rows in
    chunks of at most ``_MAP_CHUNK`` points, which bounds every temporary
    array.
    """
    x = np.asarray(xs, float).ravel()[None, :]
    ys = np.asarray(ys, float).ravel()
    out = np.empty((ys.size, x.size))
    rows = max(1, _MAP_CHUNK // max(1, x.size))
    for start in range(0, ys.size, rows):
        out[start : start + rows] = correlation_magnitude(
            scenario, x, ys[start : start + rows, None], scenario.uav_height_m
        )
    return out

