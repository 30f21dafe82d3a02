"""Transmitter placement on nulls of the receiver/eavesdropper correlation.

Two placement loci make one factor of the correlation a pure geometric sum
whose zeros are known; both read the factors' terms from :func:`_factors`,
which honours the element spacing and skips a factor with no zero at the index
(an index that leaves neither factor one is reported like any other infeasible
scenario):

* bisector scheme ("azimuth"): on the perpendicular bisector of the ground
  segment (x = x_e/2) the two pitches coincide, and the null condition
  yields the lateral offset in closed form;
* extension scheme ("pitch"): on the extension of the ground segment (y = 0,
  outside [0, x_e]) the two yaw-relative azimuths coincide, and the null
  condition becomes a scalar equation in the pitch-cosine gap, solved by
  safeguarded Newton steps on a strictly monotone function.  The gap is the
  same beyond either end, so each factor's root serves both sides.

Every candidate is mapped to the caller's frame first and certified by
recomputing the correlation at that position's canonical image, the point a
caller who maps the returned position reads, with the scenario's one kept
frame and kernel (:func:`_frame`), for both solvers in one step
(:func:`_certify`): an accepted candidate becomes the ``PlacementSolution``
the caller gets, a failed one the text of its discard, naming the
caller-frame point.  The bisector certifies all its candidates in one
kernel pass; the extension scheme tries the row factor, then the column,
makes one pass per factor, both sides together, and computes the column
factor only when a call reaches it: the row factor has no zero, or fails on
the side asked for.  The outcomes of the last scenario object asked for are
kept while the same object keeps being asked, so a repeated call returns
the same placements; a solver with no certified candidate raises
``InfeasibleGeometry``.  :func:`solve_all` reports every discard, once,
beside its placements and failures; the per-scheme solvers drop them.
"""

import math
import sys
from dataclasses import dataclass

from .errors import InfeasibleGeometry
from .geometry import canonicalize_frame
from .scenario import Position3D
from .signalmodel import _budget_rows, _rate_cells, correlation_magnitude

# Candidates whose recomputed correlation exceeds this are discarded.
_NULL_TOL = 1e-8

# Positions closer than this (meters) are considered the same solution.
_DEDUP_M = 1e-6

# Steps the extension root search may take before it gives up.
_BISECT_MAX_ITER = 200

# Grid points per chunk of correlation_map, and per block pattern maps and
# formats: small enough that the kernel's temporaries stay in cache (2^12
# and 2^13 time alike; 2^16 is slower).  2^13 took 8% more page faults in a
# fresh pattern on wide16.cfg (6,910 against 6,402).
_MAP_CHUNK = 1 << 12


@dataclass(frozen=True)
class PlacementSolution:
    """One certified placement: the UAV ``position`` in the caller's frame,
    the ``scheme`` ("azimuth" or "pitch") and ``branch`` ("+" or "-") that
    placed it, the null index as a Python int (``index_used``), the
    ``factor_used`` ("row" or "column"), the kernel's certified |rho| at the
    position (``null_residual``, at most 1e-8) and the secrecy rate there in
    bits/s/Hz at the scenario's power split (``sr_at_solution``).

    Only :func:`_certify` builds one, for a candidate it accepted, whose
    ``position`` passed Position3D's finite check when it was built."""

    position: Position3D
    scheme: str
    branch: str
    index_used: int
    factor_used: str
    null_residual: float
    sr_at_solution: float


def _check(scenario: "ScenarioConfig", index) -> tuple[int, dict]:
    """Check the null index; return it as an int with the kept
    :func:`_factors` at it, or raise the kept reason there are none as
    ``InfeasibleGeometry``.  The yaw needs no check: a factor it leaves with
    no zero places nothing."""
    # 1.0, True and numpy integers pass; 1.5, nan and inf would reach the
    # null equations and fail there for a misleading reason, and an integer
    # beyond the float range would overflow converting to float there.
    if not (1 <= index <= sys.float_info.max and index % 1 == 0):
        raise ValueError("null index must be a positive integer")
    index = int(index)
    return index, _kept(scenario, ("factors", index), _factors, index)


def _factors(scenario: "ScenarioConfig", index: int) -> dict | str:
    """{name: term} of each geometric-sum factor with a zero at ``index``,
    or why there is none: a factor whose element count divides ``index`` has
    its maximum there and is skipped.  The term is the count times
    phase_coef/pi (1 at half a wavelength) times the cos (row) or sin
    (column) of the left side's azimuth pi - yaw: the bisector squares it,
    the extension scheme targets its magnitude and takes the branch from its
    sign.  A term that a quarter-turn yaw makes 0, or nearly, is kept: it
    gives no real bisector offset and an unattainable (or infinite) gap,
    each reported as such."""
    geom, yaw = scenario.array, scenario.yaw
    scale = geom.phase_coef / math.pi
    both = ("row", geom.m_rows, -math.cos(yaw)), ("column", geom.n_cols, math.sin(yaw))
    return {f: count * scale * trig for f, count, trig in both if index % count} or (
        f"index {float(index):.6g} is a multiple of both array dimensions "
        f"({geom.m_rows}x{geom.n_cols}); neither factor has a zero there"
    )


# The last scenario object asked for, and its kept outcomes.  A study solves one
# scenario and then sweeps it, so one slot serves every repeat; an equal
# copy is another object and is solved afresh, and the previous scenario is
# released as soon as another one is asked for.  The pair is read and
# replaced as one object, so no thread files an outcome under a scenario
# other than its own.
_last: tuple = (None, {})


def _kept(scenario: "ScenarioConfig", key: tuple, build, *args):
    """The outcome ``key`` kept for ``scenario``, ``build(scenario, *args)``
    the first time it is asked for; any other scenario's are dropped first.

    Keys name what was computed: ("frame",), ("factors", index), ("azimuth",
    index), ("pitch", index, factor) per factor an extension call reaches
    (the column only past the row), the sweeps'
    ("baselines",), ("sweep", kind, grid, snr_db) and ("best", scheme).  They
    hold values only: the solvers take the index as an int, the sweeps the
    floats of the grid and ``snr_db`` before the slot, so inputs that compare
    equal (1, 1.0, True; 0.0, -0.0) share one outcome.  Outcomes hold values
    and messages, never an exception or the scenario (the frame's kernel
    closes over the scenario's values): releasing the slot frees it.  A
    solver's are what :func:`_certify` returns, each candidate's placement or
    discard text, returned as they are on every ask.  A kept message (str) is
    why there is none, raised as ``InfeasibleGeometry``.
    """
    global _last
    held, outcomes = _last
    if held is not scenario:
        outcomes = {}
        _last = (scenario, outcomes)
    if (outcome := outcomes.get(key)) is None:  # no builder returns None
        outcome = outcomes[key] = build(scenario, *args)
    if isinstance(outcome, str):  # the reason there is no outcome
        raise InfeasibleGeometry(outcome)
    return outcome


def solve_azimuth_scheme(
    scenario: "ScenarioConfig", index: int = 1
) -> list[PlacementSolution]:
    """All bisector-scheme placements nulling the correlation.

    On x = x_e/2 the pitch cosines agree, and the row factor vanishes at
    null index k = ``index`` when

        y > 0 with  4*k^2*(y^2 + g^2) = (M^2*cos(yaw)^2 - k^2) * x_e^2,

    the column factor when M*cos is replaced by N*sin (M and N times
    phase_coef/pi away from half-wavelength spacing).  Up to four
    candidates arise (two equations, two signs); duplicates within 1e-6 m
    are merged and every survivor is certified against the recomputed
    correlation, all candidates in one kernel pass.  A candidate that fails
    is dropped here; :func:`solve_all` reports it.

    Returns
    -------
    list of PlacementSolution
        In deterministic order: row factor before column, + branch before -.

    Raises
    ------
    InfeasibleGeometry
        If neither factor has a zero at the index, no radicand is
        nonnegative (lower the altitude, or rotate the yaw toward the ground
        axis, or away from it where the row factor has no zero), or no
        candidate passes certification.
    ValueError
        For an index that is not a whole number of at least 1.
    """
    return _azimuth(scenario, index, [])


def _azimuth(scenario: "ScenarioConfig", index, discarded: list) -> list:
    """:func:`solve_azimuth_scheme`, each discarded candidate's text appended
    to ``discarded``."""
    index, factors = _check(scenario, index)
    outcomes = _kept(scenario, ("azimuth", index), _bisector_candidates, index, factors)
    discarded += [o for o in outcomes if isinstance(o, str)]
    if not (solutions := [o for o in outcomes if not isinstance(o, str)]):
        raise InfeasibleGeometry("every bisector candidate failed verification")
    return solutions


def _bisector_candidates(scenario: "ScenarioConfig", index: int, factors: dict) -> str | list:
    """The :func:`_certify` outcome of every bisector candidate of ``factors``
    at null index ``index``; or why there is none."""
    k = float(index)
    x_e = _kept(scenario, ("frame",), _frame)[1]
    g = scenario.uav_height_m

    candidates: list[tuple] = []
    radicands: list[float] = []
    for factor, term in factors.items():
        try:
            y_sq = (term * x_e) ** 2 - (k * x_e) ** 2 - (2.0 * k * g) ** 2
            y_sq /= 4.0 * k * k
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
            if not any(abs(offset - c[3][1]) < _DEDUP_M for c in candidates):
                candidates.append(("azimuth", factor, branch, (x_e / 2.0, offset)))

    if not candidates:
        # A lower altitude helps a factor whose |term| exceeds k, and a turn
        # one whose term can still grow past k: the row's (count * scale *
        # |cos|) toward the ground axis, the column's (|sin|) away from it.
        geom, scale = scenario.array, scenario.array.phase_coef / math.pi
        reach = {"row": geom.m_rows * scale, "column": geom.n_cols * scale}
        remedies = ["lower the altitude"] * any(abs(t) > k for t in factors.values()) + [
            f"rotate the yaw {'closer to' if f == 'row' else 'away from'} the ground axis"
            for f, t in factors.items() if reach[f] > max(k, abs(t))][:1]
        return (
            f"no real lateral offset on the bisector (largest radicand {max(radicands):.6g}"
            f" m^2); {' or '.join(remedies) or 'no altitude or yaw gives one'}"
        )
    return _certify(scenario, candidates, index)


def _frame(scenario: "ScenarioConfig") -> tuple:
    """The canonical frame transform, the eavesdropper's canonical x, and the
    kernel bound to both over math: built here only, kept under ("frame",)."""
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve.x, scenario.eve.y)[0]
    return tf, x_e, correlation_magnitude(scenario, x_e, math)


def _certify(scenario: "ScenarioConfig", candidates: list, index: int) -> list:
    """Each (scheme, factor, branch, canonical (x, y)) candidate at null
    index ``index`` as its outcome, for both solvers.  The point solved is
    first mapped to the caller's frame, and |rho| comes from the kept kernel
    at that point's canonical image, so it is the value at the position
    returned, not at the rounded point it was mapped from.  A candidate
    within ``_NULL_TOL`` is accepted as its PlacementSolution, built with
    its own constructor: its position is that caller-frame point as a
    Position3D, checked finite as it is built, and its rate comes from one
    ``_rate_cells`` pass at the scenario's checked budget over the accepted
    points.  A failed candidate is the text of its discard, naming the
    scheme, the caller-frame point (each coordinate's ``repr``) and |rho|."""
    tf, _, magnitude = _kept(scenario, ("frame",), _frame)
    points = [tf.from_canonical(*xy) for *_, xy in candidates]
    residuals = [magnitude(*tf.to_canonical(*xy)) for xy in points]
    g, power = scenario.uav_height_m, scenario.power
    ok = [r for r in residuals if r <= _NULL_TOL]
    budget = [power.alpha], [power.noise_b_w], [power.noise_e_w]
    rates = iter(_rate_cells(ok, _budget_rows(power.total_power_w, *budget)))
    return [
        PlacementSolution(Position3D(x, y, g), scheme, branch, index, factor, r, next(rates)[0])
        if r <= _NULL_TOL
        else f"{'bisector' if scheme == 'azimuth' else 'extension'} candidate at "
        f"({x!r}, {y!r}) failed verification (|rho| = {r:.3e}); discarded"
        for (scheme, factor, branch, _), (x, y), r in zip(candidates, points, residuals)
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
    scenario: "ScenarioConfig",
    index: int = 1,
    side: str = "left",
) -> PlacementSolution:
    """Extension-scheme placement on one side of the ground segment.

    With y = 0 and the transmitter beyond the segment, both nodes share a
    yaw-relative azimuth, and the row factor vanishes at null index
    l = ``index`` when the pitch-cosine gap satisfies

        cos(pitch_e) - cos(pitch_b) = +/- 2*l / (M * cos(az_rel))

    (column factor: N*sin instead of M*cos; M and N times phase_coef/pi away
    from half-wavelength spacing).  The sign of the left side is fixed by the
    chosen ``side``, so the branch is selected automatically.  The magnitude
    equation is the same on both sides.  Its root, the outward distance t,
    exists whenever the target is below the attainable gap
    x_e/sqrt(x_e^2+g^2), and lies in (0, hi], hi being where the bounds
    x_e*g^2/t^3 and 1 - t/sqrt(t^2+g^2) of the gap meet the target.  Newton
    steps from hi, kept inside the bracket, find it to the rounding of the
    gap's terms, for at most 200 iterations.

    Parameters
    ----------
    side : {"left", "right"}
        "left" places the transmitter at x < 0, "right" at x > x_e.

    The row factor is tried first, and the column factor wherever the row
    fails on this side or has no zero (its dimension divides ``index``).  A
    factor's root search and its certification pass of both sides run when
    a call first reaches it.  A candidate that fails is dropped here;
    :func:`solve_all` reports it.

    Raises
    ------
    InfeasibleGeometry
        If neither factor has a zero at the index, or each one that has
        fails on this side: its gap is above the attainable range, its root
        search does not converge, or its candidate does not pass
        certification.
    ValueError
        For a ``side`` not listed above, checked first, or an index that is
        not a whole number of at least 1.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return _pitch(scenario, index, side, [])


def _pitch(scenario: "ScenarioConfig", index, side, discarded: list):
    """:func:`solve_pitch_scheme` past its side check, each discarded
    candidate's text appended to ``discarded``: the first factor, row then
    column, whose candidate on ``side`` certifies, or why none does."""
    failures, advice = [], ""
    index, factors = _check(scenario, index)
    for fac, term in factors.items():
        key = ("pitch", index, fac)
        outcome = _kept(scenario, key, _extension_candidates, index, fac, term)[side]
        if isinstance(outcome, tuple):  # no candidate: (why, advice or "")
            failures.append(outcome[0])
            advice = advice or outcome[1]
        elif isinstance(outcome, str):  # a discard
            discarded.append(outcome)
            failures.append(f"{fac} factor candidate failed verification")
        else:
            return outcome
    raise InfeasibleGeometry(
        f"extension scheme infeasible on the {side} side: {'; '.join(failures)}{advice}"
    )


def _extension_candidates(scenario: "ScenarioConfig", l: int, factor: str, term) -> dict:
    """By side, the :func:`_certify` outcome of ``factor`` (of term ``term``)
    at null index ``l``; or, with no candidate, (why, the advice that helps or
    "").

    Beyond either end of the segment the eavesdropper lies at a yaw-relative
    azimuth of pi - yaw (left) or -yaw (right).  Both have the same |cos| and
    |sin|, so the factor's target, root t and branch serve both sides: one
    root search, and one certification pass of x = -t and x = x_e + t.
    """
    x_e = _kept(scenario, ("frame",), _frame)[1]
    g = scenario.uav_height_m
    gap_max = x_e / math.hypot(x_e, g)
    # A term of 0 (yaw exactly 0 or pi for the column, or an underflowed
    # phase_coef) needs an infinite gap, and is reported like any other.
    target = 2.0 * float(l) / abs(term) if term else math.inf
    if not target < gap_max:
        why = (
            f"{factor} factor needs a pitch-cosine gap of {target:.6g}, "
            f"above the attainable {gap_max:.6g} on the"
        )
        # Only a finite unattainable gap is helped by this; a term of 0 needs
        # an infinite one, and neither an unsolved root nor a candidate that
        # failed verification is helped (a larger array amplifies rounding).
        advice = "; lower the altitude, shrink the index, or use a larger array" if term else ""
        return {side: (f"{why} {side} side", advice) for side in ("left", "right")}
    try:
        t = _bisect_gap(x_e, g, target)
    except InfeasibleGeometry as exc:
        return dict.fromkeys(("left", "right"), (str(exc), ""))
    branch = "+" if term > 0.0 else "-"
    sides = [("pitch", factor, branch, (x, 0.0)) for x in (-t, x_e + t)]
    return dict(zip(("left", "right"), _certify(scenario, sides, l)))


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
    tol = 4.0 * sys.float_info.epsilon
    for _ in range(_BISECT_MAX_ITER):
        v, slope, near = _pitch_gap(x_e, g, t)
        v -= target
        if abs(v) <= tol * (target + 2.0 * near):
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
    scenario: "ScenarioConfig", schemes: tuple = ("azimuth", "pitch")
) -> tuple[list[PlacementSolution], list[str], list[str]]:
    """Every certified placement of ``schemes`` at the default null index,
    one message for each scheme or side that has none, and the text of each
    candidate that failed verification and was discarded.

    Solutions come in the order of ``schemes``: the bisector placements as
    :func:`solve_azimuth_scheme` returns them, the extension placements left
    before right.  An infeasible scheme or side is reported as
    ``"azimuth: <reason>"`` or ``"pitch left: <reason>"`` instead of raised.
    A discard reads ``"bisector candidate at (<x>, <y>) failed verification
    (|rho| = <rho>); discarded"`` (``extension candidate at`` for the
    extension scheme), (x, y) the caller-frame point certified, each
    coordinate as its ``repr``, so two points give two texts; each text is
    listed once, in the order found, so a point that both factors of a side
    reach is listed once.  A repeated call on the same scenario object
    returns the same PlacementSolution objects.

    Raises
    ------
    ValueError
        For a scheme other than "azimuth" or "pitch", before any is solved.
        An array with no factor zero at index 1, a 1x1 one, is reported
        for every scheme and side like any other infeasible scenario.
    """
    if any(scheme not in ("azimuth", "pitch") for scheme in schemes):
        raise ValueError("scheme must be 'azimuth' or 'pitch'")
    solutions: list[PlacementSolution] = []
    failures: list[str] = []
    discarded: list[str] = []
    for scheme in schemes:
        if scheme == "azimuth":
            try:
                solutions.extend(_azimuth(scenario, 1, discarded))
            except InfeasibleGeometry as exc:
                failures.append(f"azimuth: {exc}")
        else:
            for side in ("left", "right"):
                try:
                    solutions.append(_pitch(scenario, 1, side, discarded))
                except InfeasibleGeometry as exc:
                    failures.append(f"pitch {side}: {exc}")
    return solutions, failures, list(dict.fromkeys(discarded))


def correlation_map(scenario: "ScenarioConfig", xs, ys):
    """|h_e^H h_b| over the grid of caller-frame points (x, y), x in ``xs``
    and y in ``ys``, at the platform altitude: a numpy array of shape
    (len(ys), len(xs)), in the frame of the scenario's nodes and placements.

    :func:`~spwt.signalmodel.correlation_magnitude` over numpy at the kept
    frame's x_e, bound once, in chunks of at most ``_MAP_CHUNK`` points
    (whole rows, or blocks of one row wider than that), which bounds every
    temporary array.  Each chunk's row of x and column of y pass through the
    kept frame's ``to_canonical`` before they broadcast.  Each point has the
    bits it has alone, whatever the chunk size.
    """
    import numpy as np

    tf, x_e = _kept(scenario, ("frame",), _frame)[:2]
    magnitude = correlation_magnitude(scenario, x_e, np)
    x = np.asarray(xs, float).ravel()[None, :]
    ys = np.asarray(ys, float).ravel()
    out = np.empty((ys.size, x.size))
    cols = max(1, min(x.size, _MAP_CHUNK))
    rows = _MAP_CHUNK // cols
    for start in range(0, ys.size, rows):
        y = ys[start : start + rows, None]
        for col in range(0, x.size, cols):
            out[start : start + rows, col : col + cols] = magnitude(
                *tf.to_canonical(x[:, col : col + cols], y)
            )
    return out
