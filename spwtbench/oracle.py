"""The benchmark's own correctness oracle.

Nothing here imports spwt.  The correlation is the explicit element-by-element
sum |h_e^H h_b| over an M x N half-wavelength array, built from look angles
computed here; placement feasibility comes from the model's null conditions
(bisector radicands and the extension pitch-cosine gap), so a solver that
returns too few placements, or calls a feasible scenario infeasible, fails.

Every ``check_*`` function returns a list of problem strings; an empty list
means the operation's output agrees with the oracle.
"""

import json
import math
import os
import re

import numpy as np

NULL_TOL = 1e-8  # largest |rho| a certified placement may have
VALUE_TOL = 1e-9  # secrecy rates and correlation magnitudes
SNR_GRID_DB = tuple(range(0, 21, 2))
ALPHA_GRID = tuple(i / 10.0 for i in range(11))
ALPHA_SWEEP_SNR_DB = 15.0
PATTERN_AXIS = np.arange(-1000.0, 1000.0 + 2.5, 5.0)
PATTERN_SAMPLES = 64
_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
# Feasibility margins closer than this (relative) to zero accept either outcome.
_BOUNDARY = 1e-6


def _steering(m: int, n: int, yaw: float, pts: np.ndarray, node_x: float) -> np.ndarray:
    """Steering vectors toward points ``pts`` (P x 3) seen from a ground node
    at (node_x, 0, 0), shape (P, M, N)."""
    dx = pts[:, 0] - node_x
    dy = pts[:, 1]
    az = np.arctan2(dy, dx) - yaw
    cos_pitch = np.cos(np.arctan2(pts[:, 2], np.hypot(dx, dy)))[:, None, None]
    rows = np.arange(m, dtype=float)[None, :, None]
    cols = np.arange(n, dtype=float)[None, None, :]
    psi = -math.pi * cos_pitch * (rows * np.cos(az)[:, None, None] + cols * np.sin(az)[:, None, None])
    return np.exp(1j * psi) / math.sqrt(m * n)


def correlation(cfg: dict, pts) -> np.ndarray:
    """|h_e^H h_b| at each point, receiver at the origin and eavesdropper at
    (x_e, 0, 0): the element-by-element double sum, no closed form."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    m, n, yaw = cfg["m"], cfg["n"], math.radians(cfg["theta_a_deg"])
    h_b = _steering(m, n, yaw, pts, 0.0)
    h_e = _steering(m, n, yaw, pts, cfg["x_e_m"])
    return np.abs(np.sum(np.conj(h_e) * h_b, axis=(1, 2)))


def secrecy_rate(rho: float, p: float, alpha: float, sigma2: float) -> float:
    mag2 = min(rho * rho, 1.0)
    s_b = alpha * p / sigma2
    s_e = alpha * p * mag2 / ((1.0 - alpha) * p * (1.0 - mag2) + sigma2)
    return max(0.0, math.log2(1.0 + s_b) - math.log2(1.0 + s_e))


def expected_placements(cfg: dict) -> dict:
    """Placements the model admits for null index 1, per scheme.

    ``azimuth`` is the number of bisector placements (+/- offset for each
    factor with a positive radicand, a shared offset counted once); ``pitch`` is the number of extension sides (the two
    sides are mirror images, so both or neither).  ``None`` marks a scenario
    within _BOUNDARY of a feasibility edge, where either answer is right.
    """
    m, n, x_e, g = cfg["m"], cfg["n"], cfg["x_e_m"], cfg["g_m"]
    yaw = math.radians(cfg["theta_a_deg"])
    out = {"azimuth": 0, "pitch": 0}
    scale = x_e * x_e + 4.0 * g * g
    offsets = []  # lateral offsets y >= 0 on the bisector, one per factor
    for count, trig in ((m, math.cos(yaw)), (n, math.sin(yaw))):
        radicand = (count * trig * x_e) ** 2 - scale
        if abs(radicand) < _BOUNDARY * scale:
            out["azimuth"] = None
        elif radicand > 0.0:
            offsets.append(math.sqrt(radicand) / 2.0)
    if out["azimuth"] is not None:
        # Both factors can null at one offset (M cos(yaw) = N sin(yaw)); the
        # model counts that placement once, as positions closer than 1e-6 m
        # are one placement.
        if len(offsets) == 2 and abs(offsets[0] - offsets[1]) < 1e-6:
            offsets.pop()
        out["azimuth"] = 2 * len(offsets)
    gap_max = x_e / math.hypot(x_e, g)
    sides = 0
    for count, trig in ((m, math.cos(yaw)), (n, math.sin(yaw))):
        target = 2.0 / (count * abs(trig))
        if abs(target - gap_max) < _BOUNDARY * gap_max:
            sides = None
            break
        if target < gap_max:
            sides = 2
    out["pitch"] = sides
    return out


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_placement(cfg: dict, scheme: str, pos, residual, sr) -> list[str]:
    """One placement: finite, on its locus, a null by the oracle, and the
    reported secrecy rate equal to the oracle's."""
    x, y, z = pos
    where = f"{scheme} placement ({x!r}, {y!r}, {z!r})"
    if not _finite(x, y, z, residual, sr):
        return [f"{where}: non-finite value (residual={residual!r}, sr={sr!r})"]
    problems = []
    x_e, g = cfg["x_e_m"], cfg["g_m"]
    if abs(z - g) > 1e-9 * g:
        problems.append(f"{where}: altitude is not g_m={g!r}")
    if scheme == "azimuth" and abs(x - x_e / 2.0) > 1e-9 * x_e:
        problems.append(f"{where}: off the perpendicular bisector")
    if scheme == "pitch" and (abs(y) > 1e-9 * x_e or 0.0 <= x <= x_e):
        problems.append(f"{where}: off the extension of the ground segment")
    rho = float(correlation(cfg, [(x, y, z)])[0])
    if not (rho <= NULL_TOL and residual <= NULL_TOL):
        problems.append(f"{where}: oracle |rho|={rho:.3e}, reported {residual:.3e}")
    want = secrecy_rate(rho, cfg["p_w"], 1.0, cfg["sigma2_w"])
    if abs(sr - want) > VALUE_TOL:
        problems.append(f"{where}: sr {sr!r} but oracle gives {want!r}")
    return problems


def _check_count(cfg: dict, scheme: str, got: int) -> list[str]:
    want = expected_placements(cfg)[scheme]
    if want is None or got == want:
        return []
    return [f"{scheme}: {got} placements, the model admits {want}"]


def check_sweep(cfg: dict, kind: str, x_axis, series: dict, placement=None,
                baselines=None) -> list[str]:
    """A secrecy-rate sweep: the grid, the bound, proposed on the bound, and
    (when the baseline positions are known) every random-placement rate."""
    grid = SNR_GRID_DB if kind == "snr" else ALPHA_GRID
    problems = []
    if len(x_axis) != len(grid) or any(abs(a - b) > 1e-12 for a, b in zip(x_axis, grid)):
        return [f"sweep {kind}: grid {x_axis!r}, expected {grid!r}"]
    values = [v for col in series.values() for v in col]
    if not _finite(*values):
        return [f"sweep {kind}: non-finite value in the series"]
    p = cfg["p_w"]
    for i, x in enumerate(grid):
        snr_db = x if kind == "snr" else ALPHA_SWEEP_SNR_DB
        bound = math.log2(1.0 + 10.0 ** (snr_db / 10.0))
        if abs(series["theory"][i] - bound) > VALUE_TOL:
            problems.append(f"sweep {kind} at {x}: theory {series['theory'][i]!r} != {bound!r}")
        if abs(series["proposed"][i] - series["theory"][i]) > VALUE_TOL:
            problems.append(f"sweep {kind} at {x}: proposed {series['proposed'][i]!r} "
                            f"off the interception-free bound {bound!r}")
        rand = [v for k, v in series.items() if k.startswith("rand")]
        for col in rand:
            if not -VALUE_TOL <= col[i] <= bound + VALUE_TOL:
                problems.append(f"sweep {kind} at {x}: random rate {col[i]!r} outside [0, bound]")
    if placement is not None:
        rho = float(correlation(cfg, [placement])[0])
        if not rho <= NULL_TOL:
            problems.append(f"sweep {kind}: placement {placement!r} has oracle |rho|={rho:.3e}")
    if baselines is not None:
        rhos = correlation(cfg, baselines)
        for b, rho in enumerate(rhos, start=1):
            for i, x in enumerate(grid):
                if kind == "snr":
                    sigma2, alpha = p / 10.0 ** (x / 10.0), 1.0
                else:
                    sigma2, alpha = p / 10.0 ** (ALPHA_SWEEP_SNR_DB / 10.0), x
                want = secrecy_rate(float(rho), p, alpha, sigma2)
                got = series[f"rand{b}"][i]
                if abs(got - want) > VALUE_TOL:
                    problems.append(f"sweep {kind} rand{b} at {x}: {got!r}, oracle {want!r}")
    return problems


def check_study(cfg: dict, rec: dict) -> list[str]:
    """One library-study record (see libstudy.study)."""
    if "crash" in rec:
        return [f"unexpected exception: {rec['crash']}"]
    problems = []
    az = rec["azimuth"]
    got_az = 0 if isinstance(az, str) else len(az)
    problems += _check_count(cfg, "azimuth", got_az)
    pitch = [p for p in rec["pitch"].values() if not isinstance(p, str)]
    problems += _check_count(cfg, "pitch", len(pitch))
    for scheme, sols in (("azimuth", [] if isinstance(az, str) else az), ("pitch", pitch)):
        for s in sols:
            problems += check_placement(cfg, scheme, s["pos"], s["residual"], s["sr"])
    feasible = [s for s, ok in (("azimuth", got_az > 0), ("pitch", bool(pitch))) if ok]
    if sorted(rec["sweeps"]) != sorted(f"{s}/{k}" for s in feasible for k in ("snr", "alpha")):
        problems.append(f"sweeps run {sorted(rec['sweeps'])} for feasible schemes {feasible}")
    for name, sw in rec["sweeps"].items():
        if isinstance(sw, str):
            problems.append(f"sweep {name} failed on a feasible scheme: {sw}")
            continue
        problems += check_sweep(cfg, name.split("/")[1], sw["x"], sw["series"],
                                sw["placement"], sw["baselines"])
    return problems


def infeasible_outcomes(rec: dict) -> int:
    """InfeasibleGeometry outcomes in one library-study record."""
    outcomes = [rec.get("azimuth"), *rec["pitch"].values(), *rec["sweeps"].values()]
    return sum(o == "infeasible" for o in outcomes)


def _parse_place(stdout: str) -> tuple[int | None, list[dict]]:
    lines = stdout.splitlines()
    header = None
    sols = []
    for line in lines:
        if line.startswith("solutions: "):
            header = int(line.split()[1])
        elif line.startswith("scheme="):
            fields = dict(part.split("=", 1) for part in line.split())
            sols.append(fields)
    return header, sols


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _check_written(out_dir: str, names: tuple, stdout: str) -> list[str]:
    problems = []
    for name in names:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            problems.append(f"missing output {name}")
        elif f"wrote {path}" not in stdout:
            problems.append(f"{name} written but not reported on stdout")
    for name in names:
        if name.endswith(".svg"):
            text = _read(os.path.join(out_dir, name)) or ""
            if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
                problems.append(f"{name} is not an SVG document")
            if _NON_FINITE.search(text):
                problems.append(f"{name} holds a non-finite coordinate")
    manifest = _read(os.path.join(out_dir, "manifest.json"))
    if manifest is not None:
        try:
            json.loads(manifest)
        except ValueError:
            problems.append("manifest.json is not JSON")
    return problems


def check_cli(op: dict, code: int, stdout: str, stderr: str, out_dir: str,
              sample_seed: int = 0) -> tuple[list[str], bool]:
    """One CLI call.  Returns (problems, infeasible) where ``infeasible`` marks
    a valid exit 2; ``sample_seed`` picks the pattern rows to recompute."""
    cfg = op["cfg"]
    if "oom_key" in op:
        if code == 1 and op["oom_key"] in stderr:
            return [], False
        return [f"out-of-model {op['oom_key']}: exit {code}, expected 1 naming the key"], False
    kind = op["kind"]
    expect = expected_placements(cfg)
    if kind == "place":
        total = None if None in expect.values() else expect["azimuth"] + expect["pitch"]
    elif kind.startswith("sweep"):
        total = expect[op["scheme"]]
    else:
        total = 1  # pattern succeeds whether or not any placement exists
    if code == 2:
        if total:
            return [f"{kind}: exit 2 but the model admits {total} placements"], True
        return [], True
    if code != 0:
        return [f"{kind}: exit {code}: {stderr.strip()[-300:]}"], False
    if total == 0:
        return [f"{kind}: exit 0 on a scenario the model calls infeasible"], False

    if kind == "place":
        header, sols = _parse_place(stdout)
        problems = []
        if header != len(sols):
            problems.append(f"place: header says {header} solutions, {len(sols)} printed")
        for scheme in ("azimuth", "pitch"):
            problems += _check_count(cfg, scheme, sum(s["scheme"] == scheme for s in sols))
        for s in sols:
            try:
                pos = (float(s["x_m"]), float(s["y_m"]), float(s["z_m"]))
                residual, sr = float(s["null_residual"]), float(s["sr_bits_hz"])
            except (KeyError, ValueError):
                problems.append(f"place: unparseable line {s!r}")
                continue
            problems += check_placement(cfg, s["scheme"], pos, residual, sr)
        return problems, False

    if kind.startswith("sweep"):
        sweep = kind.split("-")[1]
        names = (f"sweep_{sweep}.csv", f"sweep_{sweep}.svg", "manifest.json")
        problems = _check_written(out_dir, names, stdout)
        text = _read(os.path.join(out_dir, names[0]))
        if text is None:
            return problems, False
        rows = [line.split(",") for line in text.splitlines()]
        header = rows[0]
        want = [("snr_db" if sweep == "snr" else "alpha"), "sr_proposed", "sr_theory"]
        if header[:3] != want:
            return problems + [f"sweep {sweep}: header {header!r}"], False
        try:
            cols = list(zip(*[[float(v) for v in row] for row in rows[1:]]))
        except ValueError:
            return problems + [f"sweep {sweep}: unparseable CSV"], False
        series = {name[3:]: list(col) for name, col in zip(header[1:], cols[1:])}
        return problems + check_sweep(cfg, sweep, list(cols[0]), series), False

    names = ("pattern.csv", "pattern.svg", "manifest.json")
    problems = _check_written(out_dir, names, stdout)
    text = _read(os.path.join(out_dir, "pattern.csv"))
    if text is None:
        return problems, False
    return problems + check_pattern_csv(cfg, text, sample_seed), False


def check_pattern_csv(cfg: dict, text: str, sample_seed: int) -> list[str]:
    lines = text.splitlines()
    count = PATTERN_AXIS.size ** 2
    if lines[0] != "x_m,y_m,residual":
        return [f"pattern: header {lines[0]!r}"]
    if len(lines) != count + 1:
        return [f"pattern: {len(lines) - 1} rows, expected {count}"]
    if _NON_FINITE.search(text):
        return ["pattern: non-finite value in pattern.csv"]
    rng = np.random.default_rng(sample_seed)
    picks = np.concatenate(([0, count - 1], rng.integers(0, count, PATTERN_SAMPLES - 2)))
    pts, got = [], []
    for k in picks:
        x, y, r = (float(v) for v in lines[k + 1].split(","))
        i, j = divmod(int(k), PATTERN_AXIS.size)
        if x != PATTERN_AXIS[j] or y != PATTERN_AXIS[i]:
            return [f"pattern row {k}: at ({x}, {y}), expected ({PATTERN_AXIS[j]}, {PATTERN_AXIS[i]})"]
        pts.append((x, y, cfg["g_m"]))
        got.append(r)
    want = correlation(cfg, pts)
    bad = np.flatnonzero(np.abs(np.asarray(got) - want) > VALUE_TOL)
    return [f"pattern row {int(picks[b])}: {got[b]!r}, oracle {float(want[b])!r}" for b in bad[:5]]
