"""Transmitter placement on nulls of the receiver/eavesdropper correlation.

Two placement loci make one factor of the correlation a pure geometric sum
whose zeros are known; both read the factors' terms from :func:`_factors`,
which honours the element spacing and skips a factor with no zero at the index:

* bisector scheme ("azimuth"): on the perpendicular bisector of the ground
  segment (x = x_e/2) the two pitches coincide, and the null condition
  yields the lateral offset in closed form;
* extension scheme ("pitch"): on the extension of the ground segment (y = 0,
  outside [0, x_e]) the two yaw-relative azimuths coincide, and the null
  condition becomes a scalar equation in the pitch-cosine gap, solved by
  safeguarded Newton steps on a strictly monotone function.  The gap is the
  same beyond either end, so each factor's root serves both sides.

Every candidate is certified by recomputing the correlation at the canonical
point the solver found, with the scenario's one kept frame and kernel
(:func:`_frame`), into one record of the same shape for both solvers
(:func:`_certify`).  The bisector certifies all its candidates in one kernel
pass; the extension scheme makes one pass per factor, both sides together,
and computes the column factor only when a call reaches it (forced, or the
row factor failed on the side asked for).  The records of the last scenario
object asked for are kept while the same object keeps being asked.  On each
call, one step (:func:`_accept`) turns every record the solver picks into a
placement, or discards it with a warning at the caller's line; a solver with
no certified candidate raises ``InfeasibleGeometry``.
"""

import math
import os
import sys
import warnings
from dataclasses import dataclass

from .errors import InfeasibleGeometry, InvalidIndex, InvalidYaw
from .geometry import canonicalize_frame
from .scenario import Position3D, ScenarioConfig, _point
from .signalmodel import _budget_rows, _rate_cells, correlation_magnitude

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

# Grid points per chunk of correlation_map, and per block pattern maps and
# formats: small enough that the kernel's temporaries stay in cache (2^12
# and 2^13 time alike; 2^16 is slower).  2^13 took 8% more page faults in a
# fresh pattern on wide16.cfg (6,910 against 6,402).
_MAP_CHUNK = 1 << 12


@dataclass(frozen=True)
class PlacementSolution:
    """One certified placement: the UAV ``position`` in the caller's frame,
    the ``scheme`` ("azimuth" or "pitch") and ``branch`` ("+" or "-") that
    placed it, the null index as the caller gave it (``index_used``), the
    ``factor_used`` ("row" or "column"), the kernel's certified |rho| at the
    position (``null_residual``, at most 1e-8) and the secrecy rate there in
    bits/s/Hz at the scenario's power split (``sr_at_solution``)."""

    position: Position3D
    scheme: str
    branch: str
    index_used: int
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


def _check(scenario: ScenarioConfig, index) -> dict:
    """Check the null index, then the scenario; return the kept :func:`_factors`."""
    # 1.0, True and numpy integers pass; 1.5, nan and inf would reach the
    # null equations and fail there for a misleading reason, and an integer
    # beyond the float range would overflow converting to float there.
    if not (1 <= index <= sys.float_info.max and index % 1 == 0):
        raise InvalidIndex("null index must be a positive integer")
    if not (factors := _kept(scenario, ("factors", index), _factors, index)):
        geom = scenario.array
        raise InvalidIndex(
            f"index {index} is a multiple of both array dimensions "
            f"({geom.m_rows}x{geom.n_cols}); neither factor has a zero there"
        )
    r = scenario.yaw % HALF_PI
    if min(r, HALF_PI - r) < _YAW_EPS:
        raise InvalidYaw(
            "yaw is a multiple of pi/2; rotate the heading off the ground "
            "axis to keep both direction cosines nonzero"
        )
    return factors


def _factors(scenario: ScenarioConfig, index) -> dict:
    """{name: term} of each geometric-sum factor with a zero at ``index``:
    a factor whose element count divides ``index`` has its maximum there and
    is skipped.  The term is the count times phase_coef/pi (1 at half a
    wavelength) times the cos (row) or sin (column) of the left side's
    azimuth pi - yaw: the bisector squares it, the extension scheme targets
    its magnitude and takes the branch from its sign."""
    geom, yaw = scenario.array, scenario.yaw
    scale = geom.phase_coef / math.pi
    both = ("row", geom.m_rows, -math.cos(yaw)), ("column", geom.n_cols, math.sin(yaw))
    return {f: count * scale * trig for f, count, trig in both if index % count}


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

    Keys name what was computed: ("frame",), ("factors", index), ("azimuth",
    index), ("pitch", index, factor) per factor reached, the sweeps'
    ("baselines",), ("sweep", kind, grid, snr_db) and ("best", scheme).  They
    hold values only: the builders take the index's float, the sweeps the
    floats of the grid and ``snr_db`` before the slot, so inputs that compare
    equal (1, 1.0, True; 0.0, -0.0) share one outcome.  Outcomes hold values
    and messages, never an exception or the scenario (the frame's kernel
    closes over the scenario's values): releasing the slot frees it.  A
    solver's are its :func:`_certify` records, which :func:`_accept` reads on
    every ask.  A kept message (str) is why there is none, raised as
    ``InfeasibleGeometry``.
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
    scenario: ScenarioConfig, index: int = 1
) -> list[PlacementSolution]:
    """All bisector-scheme placements nulling the correlation.

    On x = x_e/2 the pitch cosines agree, and the row factor vanishes at
    null index k = ``index`` when

        y > 0 with  4*k^2*(y^2 + g^2) = (M^2*cos(yaw)^2 - k^2) * x_e^2,

    the column factor when M*cos is replaced by N*sin (M and N times
    phase_coef/pi away from half-wavelength spacing).  Up to four
    candidates arise (two equations, two signs); duplicates within 1e-6 m
    are merged and every survivor is certified against the recomputed
    correlation, all candidates in one kernel pass.

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
        For a quarter-turn yaw, or an index with no matching zero.
    """
    factors = _check(scenario, index)
    records = _kept(scenario, ("azimuth", index), _bisector_candidates, index, factors)
    solutions = [s for r in records if (s := _accept(r, index)) is not None]
    if not solutions:
        raise InfeasibleGeometry("every bisector candidate failed verification")
    return solutions


def _bisector_candidates(scenario: ScenarioConfig, k, factors: dict) -> str | list:
    """The :func:`_certify` record of every bisector candidate of ``factors``
    at null index ``k``, its coordinate the canonical y; or why there is none."""
    k = float(k)
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
            if not any(abs(offset - c[3]) < _DEDUP_M for c in candidates):
                point = _point(x_e / 2.0, offset, g)
                candidates.append(("azimuth", factor, branch, offset, point))

    if not candidates:
        return (
            f"no real lateral offset on the bisector (largest radicand "
            f"{max(radicands):.6g} m^2); lower the altitude or rotate the "
            f"yaw closer to the ground axis"
        )
    return _certify(scenario, candidates)


def _frame(scenario: ScenarioConfig) -> tuple:
    """The canonical frame transform, the eavesdropper's canonical x, and the
    kernel bound to both over math: built here only, kept under ("frame",)."""
    tf = canonicalize_frame(scenario.bob, scenario.eve)
    x_e = tf.to_canonical(scenario.eve).x
    return tf, x_e, correlation_magnitude(scenario, x_e, math)


def _certify(scenario: ScenarioConfig, candidates: list) -> list:
    """Each (scheme, factor, branch, canonical coordinate, canonical point)
    candidate as its record: (scheme, factor, branch, coordinate, caller-frame
    position, |rho|, secrecy rate or None), |rho| from the kept kernel at the
    point solved and the rate from one ``_rate_cells`` pass at the scenario's
    checked budget over the points within ``_NULL_TOL``, where alone it applies."""
    tf, _, magnitude = _kept(scenario, ("frame",), _frame)
    residuals = [magnitude(p.x, p.y) for _, _, _, _, p in candidates]
    power = scenario.power
    ok = [r for r in residuals if r <= _NULL_TOL]
    budget = [power.alpha], [power.noise_b_w], [power.noise_e_w]
    rates = iter(_rate_cells(ok, _budget_rows(power.total_power_w, *budget)))
    return [
        (scheme, factor, branch, coordinate, tf.from_canonical(p), r,
         next(rates)[0] if r <= _NULL_TOL else None)
        for (scheme, factor, branch, coordinate, p), r in zip(candidates, residuals)
    ]


def _accept(record: tuple, index) -> PlacementSolution | None:
    """A :func:`_certify` record's placement; or None, with a warning at the
    caller's line, if it failed verification.  Both solvers accept here."""
    scheme, factor, branch, coordinate, position, residual, rate = record
    if rate is not None:
        return _solution(position, scheme, branch, index, factor, residual, rate)
    name = "bisector candidate y" if scheme == "azimuth" else "extension candidate x"
    warnings.warn(
        f"{name}={coordinate:.6g} failed verification "
        f"(|rho| = {residual:.3e}); discarded",
        stacklevel=_caller_level(),
    )
    return None


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
    index: int = 1,
    side: str = "left",
    factor: str | None = None,
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
    factor : {"row", "column"}, optional
        Force one factor, which raises InvalidIndex if its dimension divides
        ``index``; by default the row factor is tried first and the column
        factor wherever it fails or has no zero.  A factor's root search and
        its certification pass of both sides run when a call first reaches it.

    Raises
    ------
    InfeasibleGeometry
        If every allowed factor fails on this side: its gap is above the
        attainable range, its root search does not converge, or its
        candidate does not pass certification.
    """
    factors = _check(scenario, index)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if factor not in (None, "row", "column"):
        raise ValueError("factor must be 'row' or 'column'")
    if factor is not None and factor not in factors:
        raise InvalidIndex(f"index {index} is a multiple of the {factor} dimension")
    failures: list[str] = []
    failed_x: list[float] = []
    advice = ""
    for fac, term in ((factor, factors[factor]),) if factor else factors.items():
        key = ("pitch", index, fac)
        record = _kept(scenario, key, _extension_candidates, index, fac, term)[side]
        if len(record) == 2:  # no candidate: (why, whether the gap was unattainable)
            failures.append(record[0])
            if record[1]:
                # Only an unattainable gap is helped by these; a candidate that
                # failed verification is not (a larger array amplifies rounding).
                advice = "; lower the altitude, shrink the index, or use a larger array"
            continue
        # A point already discarded is not tried, or warned of, again.
        if not any(abs(record[3] - prev) < _DEDUP_M for prev in failed_x):
            if (solution := _accept(record, index)) is not None:
                return solution
            failed_x.append(record[3])
        failures.append(f"{fac} factor candidate failed verification")
    raise InfeasibleGeometry(
        f"extension scheme infeasible on the {side} side: {'; '.join(failures)}{advice}"
    )


def _extension_candidates(scenario: ScenarioConfig, l, factor: str, term) -> dict:
    """By side, the :func:`_certify` record of ``factor`` (of term ``term``) at
    null index ``l``, coordinate the canonical x, for :func:`_accept`; or, with
    no candidate, (why, whether the gap was unattainable rather than unsolved).

    Beyond either end of the segment the eavesdropper lies at a yaw-relative
    azimuth of pi - yaw (left) or -yaw (right).  Both have the same |cos| and
    |sin|, so the factor's target, root t and branch serve both sides: one
    root search, and one certification pass of x = -t and x = x_e + t.
    """
    x_e = _kept(scenario, ("frame",), _frame)[1]
    g = scenario.uav_height_m
    gap_max = x_e / math.hypot(x_e, g)
    target = 2.0 * float(l) / abs(term)
    if not target < gap_max:
        why = (
            f"{factor} factor needs a pitch-cosine gap of {target:.6g}, "
            f"above the attainable {gap_max:.6g} on the"
        )
        return {side: (f"{why} {side} side", True) for side in ("left", "right")}
    try:
        t = _bisect_gap(x_e, g, target)
    except InfeasibleGeometry as exc:
        return dict.fromkeys(("left", "right"), (str(exc), False))
    branch = "+" if term > 0.0 else "-"
    sides = [("pitch", factor, branch, x, _point(x, 0.0, g)) for x in (-t, x_e + t)]
    return dict(zip(("left", "right"), _certify(scenario, sides)))


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
        For a quarter-turn yaw or an index with no matching zero, which rule
        out every scheme and so are raised rather than reported; and for a
        scheme other than "azimuth" or "pitch".
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

    :func:`~spwt.signalmodel.correlation_magnitude` over numpy at the kept
    frame's x_e, bound once, in chunks of at most ``_MAP_CHUNK`` points
    (whole rows, or blocks of one row wider than that), which bounds every
    temporary array.  Each point has the bits it has alone, whatever the
    chunk size.
    """
    import numpy as np

    x_e = _kept(scenario, ("frame",), _frame)[1]
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
                x[:, col : col + cols], y
            )
    return out
