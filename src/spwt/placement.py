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
them and warns, at the caller's line, of the candidates it discards.
"""

import math
import os
import sys
import warnings
from dataclasses import dataclass

from .errors import InfeasibleGeometry, InvalidIndex, InvalidYaw
from .geometry import Position3D, _point, canonicalize_frame
from .scenario import ScenarioConfig
from .signalmodel import correlation_at, correlation_magnitude, secrecy_rates

HALF_PI = math.pi / 2.0

# Yaw closer than this to a multiple of pi/2 kills one direction cosine and
# with it both null equations.
_YAW_EPS = 1e-9

# Candidates whose recomputed correlation exceeds this are discarded.
_NULL_TOL = 1e-8

# Positions closer than this (meters) are considered the same solution.
_DEDUP_M = 1e-6

# Steps the extension root search may take before it gives up.
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


def _solution(*fields) -> PlacementSolution:
    """PlacementSolution(*fields) without __init__, which has no checks to skip."""
    solution = object.__new__(PlacementSolution)
    solution.__dict__.update(zip(PlacementSolution.__dataclass_fields__, fields))
    return solution


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _caller_level() -> int:
    """The stacklevel at which a warning from this function's caller names
    the first frame outside this package, or the outermost one: the rule of
    Python 3.12's ``skip_file_prefixes``, which 3.10 and 3.11 lack."""
    frame, level = sys._getframe(2), 2
    while frame.f_back and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


def _check_scenario(scenario: ScenarioConfig) -> None:
    r = scenario.yaw % HALF_PI
    if min(r, HALF_PI - r) < _YAW_EPS:
        raise InvalidYaw(
            "yaw is a multiple of pi/2; rotate the heading off the ground "
            "axis to keep both direction cosines nonzero"
        )
    if scenario.bob.z or scenario.eve.z:  # the null equations assume the ground
        raise ValueError("the placement schemes need both ground nodes at z = 0")


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
    ("baselines", count), ("sweep", count, kind, grid, snr_db) and ("best",
    scheme).  They hold values only: the builders take ``float(k)`` and
    ``float(l)``, the sweeps the count's ``operator.index`` and the floats
    of the grid and ``snr_db`` before the slot, so inputs that compare
    equal (1, 1.0, True; 0.0, -0.0) share one outcome.  Outcomes hold
    values and messages, never an exception or the scenario: releasing the
    slot frees it.
    """
    global _last
    held, outcomes = _last
    if held is not scenario:
        outcomes = {}
        _last = (scenario, outcomes)
    if (outcome := outcomes.get(key)) is None:  # no builder returns None
        outcome = outcomes[key] = build(scenario, *args)
    return outcome


def solve_azimuth_scheme(
    scenario: ScenarioConfig, index: NullIndex = NullIndex()
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
    InvalidYaw, InvalidIndex, ValueError
        For a quarter-turn yaw, an index with no matching zero, or a ground
        node off z = 0.
    """
    geom = scenario.array
    _check_index(index.k, geom.m_rows, geom.n_cols)
    _check_scenario(scenario)
    candidates = _kept(scenario, ("azimuth", index.k), _bisector_candidates, index.k)
    if isinstance(candidates, str):
        raise InfeasibleGeometry(candidates)
    solutions: list[PlacementSolution] = []
    for (factor, branch, y), (position, residual, rate) in candidates:
        if rate is None:
            warnings.warn(
                f"bisector candidate y={y:.6g} failed verification "
                f"(|rho| = {residual:.3e}); discarded",
                stacklevel=_caller_level(),
            )
            continue
        solutions.append(
            _solution(position, "azimuth", branch, index, factor, residual, rate)
        )
    if not solutions:
        raise InfeasibleGeometry("every bisector candidate failed verification")
    return solutions


def _bisector_candidates(scenario: ScenarioConfig, k) -> str | tuple:
    """Every bisector candidate at row index ``k`` as ((factor, branch, y),
    its :func:`_certify` outcome); or the reason there is none."""
    geom = scenario.array
    k = float(k)
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve).x
    g = scenario.uav_height_m

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
    points = [_point(x_e / 2.0, y, g) for _, _, y in candidates]
    return tuple(zip(candidates, _certify(scenario, tf, points)))


def _certify(scenario: ScenarioConfig, tf, points: list) -> list:
    """Each canonical point as (caller-frame position, |rho|, secrecy rate or
    None): |rho| from one ``correlation_at`` call, and the rate from one
    ``secrecy_rates`` call at the scenario's checked budget for the points
    within ``_NULL_TOL``, the only place that applies it.  No points, no call."""
    if not points:
        return []
    positions = [tf.from_canonical(p) for p in points]
    residuals = correlation_at(scenario, positions)
    power = scenario.power
    ok = [r for r in residuals if r <= _NULL_TOL]
    budget = [power.alpha], [power.noise_b_w], [power.noise_e_w]
    rates = iter(secrecy_rates(ok, power.total_power_w, *budget))
    return [
        (position, r, next(rates)[0] if r <= _NULL_TOL else None)
        for position, r in zip(positions, residuals)
    ]


def _pitch_gap(x_e: float, g: float, t: float) -> tuple[float, float, float]:
    """cos(pitch) gap between the far and near ground node for a transmitter
    ``t`` meters beyond the segment end, altitude ``g``; its slope in t; and
    the near node's term t/h_t.

    Strictly decreasing in ``t``: from x_e/sqrt(x_e^2+g^2) at t -> 0 down to
    0 as t -> inf, which gives the equation a single root.  The slope,
    g^2/h_far^3 - g^2/h_t^3 with h the slant ranges, is formed as
    (g/h)^2/h so that it stays in float range where g^2 or h^3 would not.
    """
    far = x_e + t
    h_far = math.hypot(far, g)
    h_t = math.hypot(t, g)
    near = t / h_t
    return far / h_far - near, (g / h_far) ** 2 / h_far - (g / h_t) ** 2 / h_t, near


def solve_pitch_scheme(
    scenario: ScenarioConfig,
    index: NullIndex = NullIndex(),
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
    The magnitude equation is the same on both sides.  Its root, the outward
    distance t, exists whenever the target is below the attainable gap
    x_e/sqrt(x_e^2+g^2), and lies in (0, hi], hi being where the bounds
    x_e*g^2/t^3 and 1 - t/sqrt(t^2+g^2) of the gap meet the target.  Newton
    steps from hi, kept inside the bracket, find it to the rounding of the
    gap's terms, for at most 200 iterations.

    Parameters
    ----------
    side : {"left", "right"}
        "left" places the transmitter at x < 0, "right" at x > x_e.
    factor : {"row", "column"}, optional
        Force one factor; by default the row factor is tried first and the
        column factor is the fallback wherever the row factor fails.

    Raises
    ------
    InfeasibleGeometry
        If every allowed factor fails on this side: its gap is above the
        attainable range, its root search does not converge, or its
        candidate does not pass certification.
    """
    geom = scenario.array
    _check_index(index.l, geom.m_rows, geom.n_cols)
    _check_scenario(scenario)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if factor not in (None, "row", "column"):
        raise ValueError("factor must be 'row' or 'column'")
    steps = _kept(scenario, ("pitch", index.l), _extension_candidates, index.l)
    failures: list[str] = []
    failed_x: list[float] = []
    advice = ""
    for fac in (factor,) if factor is not None else ("row", "column"):
        kind, *step = steps[side, fac]
        if kind != "candidate":  # a root search that raised fails as a gap does
            failures.append(step[0])
            if kind == "gap":
                # Only an unattainable gap is helped by these; a candidate that
                # failed verification is not (a larger array amplifies rounding).
                advice = "; lower the altitude, shrink the index, or use a larger array"
            continue
        x_a, branch, position, residual, rate = step
        # A point already discarded is not tried, or warned of, again.
        if not any(abs(x_a - prev) < _DEDUP_M for prev in failed_x):
            if rate is not None:
                return _solution(position, "pitch", branch, index, fac, residual, rate)
            warnings.warn(
                f"extension candidate x={x_a:.6g} failed verification "
                f"(|rho| = {residual:.3e}); discarded",
                stacklevel=_caller_level(),
            )
            failed_x.append(x_a)
        failures.append(f"{fac} factor candidate failed verification")
    raise InfeasibleGeometry(
        f"extension scheme infeasible on the {side} side: {'; '.join(failures)}{advice}"
    )


def _extension_candidates(scenario: ScenarioConfig, l) -> dict:
    """Every extension step at column index ``l`` by (side, factor): ("gap",
    why the gap is unattainable), ("raised", a root search's message), or
    ("candidate", canonical x, branch, then its :func:`_certify` outcome).

    Beyond either end of the segment the eavesdropper lies at a yaw-relative
    azimuth of pi - yaw (left) or -yaw (right).  Both have the same |cos| and
    |sin|, so each factor's target, root t and branch serve both sides: the
    candidates are x = -t and x = x_e + t.
    """
    geom = scenario.array
    l = float(l)
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
        found += (("left", fac), -t, branch), (("right", fac), x_e + t, branch)
    certified = _certify(scenario, tf, [_point(x_a, 0.0, g) for _, x_a, _ in found])
    for (key, x_a, branch), outcome in zip(found, certified):
        steps[key] = ("candidate", x_a, branch, *outcome)
    return steps


def _bisect_gap(x_e: float, g: float, target: float) -> float:
    """Root of _pitch_gap(x_e, g, t) = target, for 0 < target < gap(0).

    The root lies in (0, hi], hi being where the bounds gap <= x_e*g^2/t^3
    and gap <= 1 - t/h_t meet the target (the first written to stay in float
    range).  Newton steps start at hi and halve the bracket instead where a
    step would leave it, until |gap - target| <= 4*eps*(target + 2*t/h_t),
    the rounding of the gap's two terms.

    Raises InfeasibleGeometry, naming the last equation residual, if that
    has not happened after 200 steps.
    """
    lo, hi = 0.0, min(
        (x_e / target) ** (1.0 / 3.0) * g ** (2.0 / 3.0),
        g * (1.0 - target) / math.sqrt(target * (2.0 - target)),
    )
    t = hi
    v = math.nan
    for _ in range(_BISECT_MAX_ITER):
        v, slope, near = _pitch_gap(x_e, g, t)
        v -= target
        if abs(v) <= 4.0 * sys.float_info.epsilon * (target + 2.0 * near):
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
    InvalidYaw, InvalidIndex, ValueError
        For a quarter-turn yaw, an index with no matching zero or a ground
        node off z = 0, which rule out every scheme and so are raised rather
        than reported; and for a scheme other than "azimuth" or "pitch".
    """
    solutions: list[PlacementSolution] = []
    failures: list[str] = []
    for scheme in schemes:
        if scheme == "azimuth":
            try:
                solutions.extend(solve_azimuth_scheme(scenario))
            except InfeasibleGeometry as exc:
                failures.append(f"azimuth: {exc}")
        elif scheme == "pitch":
            for side in ("left", "right"):
                try:
                    solutions.append(solve_pitch_scheme(scenario, side=side))
                except InfeasibleGeometry as exc:
                    failures.append(f"pitch {side}: {exc}")
        else:
            raise ValueError("scheme must be 'azimuth' or 'pitch'")
    return solutions, failures


def correlation_map(scenario: ScenarioConfig, xs, ys):
    """|h_e^H h_b| over a canonical-frame position grid at the platform
    altitude, a numpy array of shape (len(ys), len(xs)).

    :func:`~spwt.signalmodel.correlation_magnitude` over numpy, its
    constants bound once and rows taken in chunks of at most ``_MAP_CHUNK``
    points, which bounds every temporary array.
    """
    import numpy as np

    tf = canonicalize_frame(scenario.bob, scenario.eve)
    magnitude = correlation_magnitude(scenario, tf.to_canonical(scenario.eve).x, np)
    x = np.asarray(xs, float).ravel()[None, :]
    ys = np.asarray(ys, float).ravel()
    out = np.empty((ys.size, x.size))
    rows = max(1, _MAP_CHUNK // max(1, x.size))
    for start in range(0, ys.size, rows):
        out[start : start + rows] = magnitude(
            x, ys[start : start + rows, None], scenario.uav_height_m
        )
    return out
