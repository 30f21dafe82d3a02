"""Transmitter placement on nulls of the receiver/eavesdropper correlation.

Two placement loci make one factor of the correlation a pure geometric sum
whose zeros are known:

* bisector scheme ("azimuth"): on the perpendicular bisector of the ground
  segment (x = x_e/2) the two pitches coincide, and the null condition
  yields the lateral offset in closed form;
* extension scheme ("pitch"): on the extension of the ground segment (y = 0,
  outside [0, x_e]) the two yaw-relative azimuths coincide, and the null
  condition becomes a scalar equation in the pitch-cosine gap, solved by
  safeguarded Newton steps on a strictly monotone function.  The gap is the
  same beyond either end, so each factor's root serves both sides.

Every candidate position is certified by recomputing the correlation with
:func:`~spwt.signalmodel.correlation_magnitude` at the returned position;
candidates that fail are discarded with a warning rather than returned, and a
solver with no certified candidate raises ``InfeasibleGeometry``.

Each scheme computes every candidate up front (no candidate's position
depends on another's certification) and certifies them all in one kernel
call.  The candidates of the last scenario object asked for are kept while
the same object keeps being asked; each call picks its placements from
them and warns of the candidates it discards.
"""

import math
import sys
import warnings
from dataclasses import dataclass

from .errors import InfeasibleGeometry, InvalidIndex, InvalidYaw
from .geometry import Position3D, _point, canonicalize_frame
from .scenario import ScenarioConfig
from .signalmodel import _correlation_power, _rate_table
from .signalmodel import correlation_at, correlation_magnitude

HALF_PI = math.pi / 2.0

# Yaw closer than this to a multiple of pi/2 kills one direction cosine and
# with it both null equations.
_YAW_EPS = 1e-9

# Candidates whose recomputed correlation exceeds this are discarded.
_NULL_TOL = 1e-8

# Positions closer than this (meters) are considered the same solution.
_DEDUP_M = 1e-6

# Outward distances of the root search's logarithmic bracket grid: the 64
# values of numpy.logspace(-6, 6, 64), 1e-6 to 1e6 m.  10.0 ** x over the
# same exponents rounds 5 of them differently, which would move brackets.
_SCAN_T = (
    1e-06, 1.5505157798326253e-06, 2.404099183509974e-06, 3.727593720314938e-06,
    5.779692884153313e-06, 8.96150501946605e-06, 1.389495494373136e-05,
    2.1544346900318823e-05, 3.340484983513244e-05, 5.1794746792312125e-05,
    8.030857221391521e-05, 0.0001245197084735032, 0.00019306977288832496,
    0.00029935772947204905, 0.00046415888336127773, 0.0007196856730011514,
    0.001115883992507748, 0.0017301957388458943, 0.0026826957952797246,
    0.004159562163071843, 0.00644946677103762, 0.01, 0.015505157798326221,
    0.024040991835099692, 0.03727593720314938, 0.05779692884153313, 0.0896150501946605,
    0.1389495494373136, 0.21544346900318823, 0.33404849835132444, 0.5179474679231202,
    0.8030857221391504, 1.2451970847350318, 1.9306977288832496, 2.9935772947204904,
    4.641588833612772, 7.196856730011514, 11.15883992507748, 17.30195738845891,
    26.82695795279722, 41.595621630718426, 64.4946677103762, 100.0, 155.0515779832622,
    240.40991835099643, 372.7593720314938, 577.9692884153301, 896.150501946605,
    1389.495494373136, 2154.434690031878, 3340.4849835132445, 5179.474679231202,
    8030.85722139152, 12451.970847350318, 19306.977288832455, 29935.772947204903,
    46415.888336127726, 71968.567300115, 111588.3992507748, 173019.57388458907,
    268269.5795279716, 415956.2163071843, 644946.6771037607, 1000000.0,
)
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


def _solution(**fields) -> PlacementSolution:
    """PlacementSolution(**fields) without __init__, which has no checks to skip."""
    solution = object.__new__(PlacementSolution)
    solution.__dict__.update(fields)
    return solution


def _check_yaw(yaw: float) -> None:
    r = yaw % HALF_PI
    if min(r, HALF_PI - r) < _YAW_EPS:
        raise InvalidYaw(
            "yaw is a multiple of pi/2; rotate the heading off the ground "
            "axis to keep both direction cosines nonzero"
        )


def _check_index(value: int, m_rows: int, n_cols: int) -> None:
    # 1.0, True and numpy integers pass; 1.5, nan and inf would reach the
    # null equations and fail there for a misleading reason, and an integer
    # beyond the float range would overflow converting to float there.
    if not (1 <= value <= sys.float_info.max and value % 1 == 0):
        raise InvalidIndex("null index must be a positive integer")
    if value % m_rows == 0 or value % n_cols == 0:
        raise InvalidIndex(
            f"index {value} is a multiple of an array dimension "
            f"({m_rows}x{n_cols}); that factor has no zero there"
        )


# The last scenario object asked for, and its kept outcomes.  A study solves one
# scenario and then sweeps it, so one slot serves every repeat; an equal
# copy is another object and is solved afresh, and the previous scenario is
# released as soon as another one is asked for.  The pair is read and
# replaced as one object, so no thread files an outcome under a scenario
# other than its own.
_last: tuple = (None, {})


def _kept(scenario: ScenarioConfig, key: tuple, build, *args):
    """The outcome ``key`` kept for ``scenario``, ``build(scenario, *args)``
    the first time it is asked for; any other scenario's are dropped first.

    Keys name what was computed: ("azimuth", k), ("pitch", l), the sweeps'
    ("baselines", count) and ("repr",), each number with its type, so that
    inputs that only compare equal (1, 1.0, True) are solved apart.  An
    outcome holds only values and messages, never an exception or the
    scenario, so releasing the slot frees the scenario.
    """
    global _last
    held, outcomes = _last
    if held is not scenario:
        outcomes = {}
        _last = (scenario, outcomes)
    if key not in outcomes:
        outcomes[key] = build(scenario, *args)
    return outcomes[key]


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
    return _bisector(scenario, index if index is not None else NullIndex())


def _bisector(scenario: ScenarioConfig, index: NullIndex) -> list[PlacementSolution]:
    """The checks of the bisector scheme, then its certified placements from
    the kept candidates, warning of each one discarded (attributed to the
    caller of the public function that called this one)."""
    geom = scenario.array
    _check_index(index.k, geom.m_rows, geom.n_cols)
    _check_yaw(scenario.yaw)
    key = ("azimuth", index.k, type(index.k))
    candidates = _kept(scenario, key, _bisector_candidates, index.k)
    if isinstance(candidates, str):
        raise InfeasibleGeometry(candidates)
    solutions: list[PlacementSolution] = []
    for (factor, branch, y), position, residual, rate in candidates:
        if rate is None:
            warnings.warn(
                f"bisector candidate y={y:.6g} failed verification "
                f"(|rho| = {residual:.3e}); discarded",
                stacklevel=3,
            )
            continue
        solutions.append(
            _solution(
                position=position,
                scheme="azimuth",
                branch=branch,
                index_used=index,
                factor_used=factor,
                null_residual=residual,
                sr_at_solution=rate,
            )
        )
    if not solutions:
        raise InfeasibleGeometry(
            "every bisector candidate failed verification; the closed form "
            "needs finite inputs and both ground nodes at z = 0"
        )
    return solutions


def _bisector_candidates(scenario: ScenarioConfig, k) -> str | tuple:
    """Every bisector candidate at row index ``k`` as ((factor, branch, y),
    position, |rho|, secrecy rate or None), all certified in one kernel
    call; or the reason there is none."""
    geom = scenario.array
    k = float(k)
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
        try:
            y_sq = (
                (count * trig * x_e) ** 2 - (k * x_e) ** 2 - (2.0 * k * g) ** 2
            ) / (4.0 * k * k)
        except OverflowError:
            return (
                f"the bisector closed form overflows the float range at a "
                f"{x_e:.6g} m ground segment, {g:.6g} m altitude and index {k:.6g}"
            )
        radicands.append(y_sq)
        if y_sq < 0.0:
            continue
        y = math.sqrt(y_sq)
        for branch, offset in (("+", y), ("-", -y)) if y > 0.0 else (("+", 0.0),):
            # Within _DEDUP_M of an earlier candidate: one point, certified once.
            if not any(abs(offset - c[2]) < _DEDUP_M for c in candidates):
                candidates.append((factor, branch, offset))

    if not candidates:
        return (
            f"no real lateral offset on the bisector (largest radicand "
            f"{max(radicands):.6g} m^2); lower the altitude or rotate the "
            f"yaw closer to the ground axis"
        )
    positions = [tf.from_canonical(_point(half, y, g)) for _, _, y in candidates]
    residuals = correlation_at(scenario, positions)
    return tuple(zip(candidates, positions, residuals, _rates(scenario, residuals)))


def _rates(scenario: ScenarioConfig, residuals: list) -> list:
    """The secrecy rate at each residual that passes certification, None at
    the others, from one rate table at the scenario's power budget, which
    PowerConfig has checked (see :func:`~spwt.signalmodel.secrecy_rates`)."""
    power = scenario.power
    ok = [_correlation_power(r) for r in residuals if r <= _NULL_TOL]
    budget = [[power.alpha] * len(ok)], [power.noise_b_w], [power.noise_e_w]
    rates = iter(_rate_table(ok, power.total_power_w, *budget))
    return [next(rates)[0] if r <= _NULL_TOL else None for r in residuals]


def _pitch_gap(x_e: float, g: float, t: float) -> tuple[float, float]:
    """cos(pitch) gap between the far and near ground node for a transmitter
    ``t`` meters beyond the segment end, altitude ``g``, and its slope in t.

    Strictly decreasing in ``t``: from x_e/sqrt(x_e^2+g^2) at t -> 0 down to
    0 as t -> inf, which gives the equation a single root.  The slope,
    g^2/h_far^3 - g^2/h_t^3 with h the slant ranges, is formed as
    (g/h)^2/h so that it stays in float range where g^2 or h^3 would not.
    """
    far = x_e + t
    h_far = math.hypot(far, g)
    h_t = math.hypot(t, g)
    return far / h_far - t / h_t, (g / h_far) ** 2 / h_far - (g / h_t) ** 2 / h_t


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
    fixed by the chosen ``side``, so the branch is selected automatically.
    The magnitude equation is the same on both sides: its root, the outward
    distance in [1e-6, 1e6] m, is bracketed by a binary search of a 64-point
    logarithmic grid and refined by Newton steps kept inside the bracket,
    until the equation residual drops to 1e-12, for at most 200 iterations.

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
        root search does not converge.
    """
    return _extension(
        scenario, index if index is not None else NullIndex(), side, factor
    )


def _extension(
    scenario: ScenarioConfig, index: NullIndex, side: str, factor: str | None
) -> PlacementSolution:
    """The checks of the extension scheme, then the first certified
    placement on ``side`` from the kept steps, as :func:`_bisector` does; a
    root search that raised ends the side with its message."""
    geom = scenario.array
    _check_index(index.l, geom.m_rows, geom.n_cols)
    _check_yaw(scenario.yaw)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if factor not in (None, "row", "column"):
        raise ValueError("factor must be 'row' or 'column'")
    key = ("pitch", index.l, type(index.l))
    steps = _kept(scenario, key, _extension_candidates, index.l)
    failures: list[str] = []
    failed_x: list[float] = []
    advice = ""
    for fac in (factor,) if factor is not None else ("row", "column"):
        kind, *step = steps[side, fac]
        if kind == "raised":
            raise InfeasibleGeometry(step[0])
        if kind == "gap":
            failures.append(step[0])
            # Only an unattainable gap is helped by these; a candidate that
            # failed verification is not (a larger array amplifies rounding).
            advice = "; lower the altitude, shrink the index, or use a larger array"
            continue
        x_a, branch, position, residual, rate = step
        # A point already discarded is not tried, or warned of, again.
        if not any(abs(x_a - prev) < _DEDUP_M for prev in failed_x):
            if rate is not None:
                return _solution(
                    position=position,
                    scheme="pitch",
                    branch=branch,
                    index_used=index,
                    factor_used=fac,
                    null_residual=residual,
                    sr_at_solution=rate,
                )
            warnings.warn(
                f"extension candidate x={x_a:.6g} failed verification "
                f"(|rho| = {residual:.3e}); discarded",
                stacklevel=3,
            )
            failed_x.append(x_a)
        failures.append(f"{fac} factor candidate failed verification")
    raise InfeasibleGeometry(
        f"extension scheme infeasible on the {side} side: {'; '.join(failures)}{advice}"
    )


def _extension_candidates(scenario: ScenarioConfig, l) -> dict:
    """Every extension step at column index ``l`` by (side, factor): ("gap",
    why the gap is unattainable), ("raised", a root search's message), or
    ("candidate", canonical x, branch, position, |rho|, secrecy rate or
    None), all candidates certified in one kernel call.

    Beyond either end of the segment the eavesdropper lies at a yaw-relative
    azimuth of pi - yaw (left) or -yaw (right).  Both have the same |cos| and
    |sin|, so each factor's target, root t and branch serve both sides: the
    candidates are x = -t and x = x_e + t.
    """
    geom = scenario.array
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve).x
    g = scenario.uav_height_m
    gap_max = x_e / math.hypot(x_e, g)

    steps: dict = {}
    found: list = []
    # The left side's cos and sin of pi - yaw; their signs give the branch.
    for fac, count, trig in (
        ("row", geom.m_rows, -math.cos(scenario.yaw)),
        ("column", geom.n_cols, math.sin(scenario.yaw)),
    ):
        target = 2.0 * l / (count * abs(trig))
        if not target < gap_max:
            for side in ("left", "right"):
                steps[side, fac] = (
                    "gap",
                    f"{fac} factor needs a pitch-cosine gap of {target:.6g}, "
                    f"above the attainable {gap_max:.6g} on the {side} side",
                )
            continue
        try:
            t = _bisect_gap(x_e, g, target)
        except InfeasibleGeometry as exc:
            steps["left", fac] = steps["right", fac] = ("raised", str(exc))
            continue
        # Branch sign of +/- as it appears in the defining equation.
        branch = "+" if trig > 0.0 else "-"
        for side, x_a in (("left", -t), ("right", x_e + t)):
            position = tf.from_canonical(_point(x_a, 0.0, g))
            found.append(((side, fac), x_a, branch, position))
    if found:
        residuals = correlation_at(scenario, [c[3] for c in found])
        rates = _rates(scenario, residuals)
        for (key, *candidate), residual, rate in zip(found, residuals, rates):
            steps[key] = ("candidate", *candidate, residual, rate)
    return steps


def _scan_gap(x_e: float, g: float, target: float) -> tuple[float, float]:
    """Bracket of the root of _pitch_gap(x_e, g, t) = target on the
    ``_SCAN_T`` grid, by binary search.

    Returns the first adjacent pair (lo, hi) where the equation changes sign
    from + to -, or (t, t) for a grid point that solves it exactly,
    whichever comes first on the grid.  The gap is strictly decreasing, so
    that is the first grid point where gap - target is not positive.
    """
    lo, hi = 0, len(_SCAN_T)
    v_hi = math.nan
    while lo < hi:
        mid = (lo + hi) // 2
        v = _pitch_gap(x_e, g, _SCAN_T[mid])[0] - target
        if v > 0.0:
            lo = mid + 1
        else:
            hi, v_hi = mid, v
    if v_hi == 0.0:
        return _SCAN_T[hi], _SCAN_T[hi]
    if v_hi < 0.0 and hi > 0:
        return _SCAN_T[hi - 1], _SCAN_T[hi]
    # A missing sign change means the target is outside the attainable range
    # on the scan interval.
    raise InfeasibleGeometry(
        f"no bracketing interval for a pitch-cosine gap of {target:.6g}"
    )


def _bisect_gap(x_e: float, g: float, target: float) -> float:
    """Root of _pitch_gap(x_e, g, t) = target: Newton steps from the middle
    of :func:`_scan_gap`'s bracket, halving the bracket instead whenever a
    Newton step would leave it.

    Raises InfeasibleGeometry, naming the last equation residual, if the
    residual is still above 1e-12 after 200 steps.
    """
    lo, hi = _scan_gap(x_e, g, target)
    if lo == hi:
        return lo
    t = 0.5 * (lo + hi)
    v = math.nan
    for _ in range(_BISECT_MAX_ITER):
        v, slope = _pitch_gap(x_e, g, t)
        v -= target
        if abs(v) <= _BISECT_TOL:
            return t
        if v > 0.0:
            lo = t
        else:
            hi = t
        # A slope that underflowed to 0 takes a halving step.
        step = t - v / slope if slope < 0.0 else math.nan
        t = step if lo < step < hi else 0.5 * (lo + hi)
    raise InfeasibleGeometry(
        f"root search for a pitch-cosine gap of {target:.6g} did not converge in "
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
    # Plain loops: a comprehension's frame would move the warnings' attribution.
    for scheme in schemes:
        if scheme == "azimuth":
            try:
                solutions.extend(_bisector(scenario, index))
            except InfeasibleGeometry as exc:
                failures.append(f"azimuth: {exc}")
        elif scheme == "pitch":
            for side in ("left", "right"):
                try:
                    solutions.append(_extension(scenario, index, side, None))
                except InfeasibleGeometry as exc:
                    failures.append(f"pitch {side}: {exc}")
        else:
            raise ValueError("scheme must be 'azimuth' or 'pitch'")
    return solutions, failures


def correlation_map(scenario: ScenarioConfig, xs, ys):
    """|h_e^H h_b| over a canonical-frame position grid at the platform
    altitude, a numpy array of shape (len(ys), len(xs)).

    :func:`~spwt.signalmodel.correlation_magnitude` over numpy, rows in
    chunks of at most ``_MAP_CHUNK`` points, which bounds every
    temporary array.
    """
    import numpy as np

    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve).x
    x = np.asarray(xs, float).ravel()[None, :]
    ys = np.asarray(ys, float).ravel()
    out = np.empty((ys.size, x.size))
    rows = max(1, _MAP_CHUNK // max(1, x.size))
    for start in range(0, ys.size, rows):
        out[start : start + rows] = correlation_magnitude(
            scenario, x_e, x, ys[start : start + rows, None], scenario.uav_height_m, np
        )
    return out
