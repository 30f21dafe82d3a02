"""Command-line front end: placement reports, SR sweeps, correlation maps.

Exit codes: 0 on success, 1 for usage/config/I-O problems (including values
the library's constructors and sweeps reject, in their own words), 2 when the
requested scenario admits no nulling placement.
"""

import gc
import sys

if __name__ == "__main__":
    gc.disable()  # off for the imports below too; see run()

import argparse
import errno
import math
import os

from . import __version__
from .errors import InfeasibleGeometry
from .placement import solve_all
from .scenario import ArrayGeometry, Position3D, PowerConfig, ScenarioConfig

# experiments, charts, pattern, json and datetime are imported inside the
# commands that run them: start-up and imports are most of a `place` call.

_INT_KEYS = {"m", "n", "seed"}
_FLOAT_KEYS = {
    "f_c_hz", "x_e_m", "g_m", "theta_a_rad", "theta_a_deg", "p_w", "sigma2_w", "alpha",
}
_KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS
_REQUIRED_KEYS = ("m", "n", "f_c_hz", "x_e_m", "g_m", "p_w", "sigma2_w")
# The largest grids, counted before any point is built: sweep points, and
# pattern's points per axis (the default box at a 1 m step; 2001^2 map cells).
_MAX_SWEEP_POINTS = 100_000
_MAX_PATTERN_AXIS = 2001


class CliError(Exception):
    """Anything that should terminate the command with exit code 1."""


def parse_config(path: str) -> dict:
    """Read a flat key = value config file.

    Lines starting with '#' (or blank) are skipped; keys outside the
    documented set, duplicate keys, or unparseable values raise CliError
    with the offending line number.
    """
    values: dict = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"config line {lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.split("#", 1)[0].strip()
        if key not in _KNOWN_KEYS:
            raise CliError(f"config line {lineno}: unknown key '{key}'")
        if key in values:
            raise CliError(f"config line {lineno}: duplicate key '{key}'")
        try:
            values[key] = int(text) if key in _INT_KEYS else float(text)
        except ValueError as exc:
            raise CliError(
                f"config line {lineno}: cannot parse value for '{key}': {text!r}"
            ) from exc
    return values


def _resolve_config(cfg: dict, seed_flag: int | None) -> dict:
    """Validate, fill defaults and settle the seed precedence
    (flag > config > 0)."""
    for key, value in cfg.items():
        if key in _FLOAT_KEYS and not math.isfinite(value):
            raise CliError(f"config: '{key}' must be finite, got {value!r}")
    for key in _REQUIRED_KEYS:
        if key not in cfg:
            raise CliError(f"config: missing required key '{key}'")
    if "theta_a_rad" in cfg and "theta_a_deg" in cfg:
        raise CliError("config: give theta_a_rad or theta_a_deg, not both")
    if "theta_a_rad" in cfg:
        theta = cfg["theta_a_rad"]
    elif "theta_a_deg" in cfg:
        theta = math.radians(cfg["theta_a_deg"])
    else:
        raise CliError("config: missing required key 'theta_a_rad'")

    seed = seed_flag if seed_flag is not None else cfg.get("seed", 0)

    # ScenarioConfig judges the height; no constructor owns the ground
    # segment, and the array and power constructors judge their own fields.
    if cfg["x_e_m"] <= 0:
        raise CliError("config: 'x_e_m' must be positive")
    resolved = {"alpha": 1.0, **cfg}
    resolved.pop("theta_a_deg", None)
    return {**resolved, "theta_a_rad": theta, "seed": seed}


def _scenario(resolved: dict) -> ScenarioConfig:
    return ScenarioConfig(
        array=ArrayGeometry(resolved["m"], resolved["n"], resolved["f_c_hz"]),
        bob=Position3D(0.0, 0.0, 0.0),
        eve=Position3D(resolved["x_e_m"], 0.0, 0.0),
        uav_height_m=resolved["g_m"],
        yaw=resolved["theta_a_rad"],
        power=PowerConfig(
            resolved["p_w"],
            resolved["alpha"],
            resolved["sigma2_w"],
            resolved["sigma2_w"],
        ),
        seed=resolved["seed"],
    )


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _parse_grid(text: str, what: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--grid for {what} must have three ':'-separated numbers")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"--grid: cannot parse {text!r}") from exc
    if not all(map(math.isfinite, values)):
        raise CliError(f"--grid: numbers must be finite, got {text!r}")
    return values


def _grid_points(first: float, step: float, last: float, cap: int, unit: str) -> list:
    """Both ``--grid`` flags' one rule: first, first + step, ... up to last,
    included when it lands on the step (within 1e-9 of a step), no point past it."""
    span = (last - first) / step
    if math.isinf(span):  # last - first overflowed: halves, exact for normal floats
        span = (last * 0.5 - first * 0.5) / step * 2.0
    span += 1e-9
    if span >= cap:
        raise CliError(f"--grid: more than {cap} {unit}")
    count = int(span) + 1
    if math.isinf(first + (count - 1) * step):
        raise CliError("--grid: its far points overflow to inf")
    return [first + i * step for i in range(count)]


def _sweep_grid(text: str, kind: str) -> list:
    """start:step:stop, by :func:`_grid_points`."""
    start, step, stop = _parse_grid(text, "sweep")
    if step <= 0 or stop < start:
        raise CliError("--grid: need step > 0 and stop >= start")
    grid = _grid_points(start, step, stop, _MAX_SWEEP_POINTS, "sweep points")
    if kind == "alpha":
        if any(v < -1e-12 or v > 1.0 + 1e-12 for v in grid):
            raise CliError("--grid: alpha values must lie in [0, 1]")
        grid = [min(max(v, 0.0), 1.0) for v in grid]
    return grid


def _write_outputs(out_dir: str, files: dict) -> list[str]:
    """Write all files or none, leaving the previous outputs as they were on
    failure.

    Each value is the file's text or a callable that writes it to an open
    text file.  Every file is written in full to ``<name>.tmp`` in
    ``out_dir`` before any is moved over its name with :func:`os.replace`;
    on any failure the temporary files are removed.  A directory in a
    name's place, which os.replace would meet late, is refused first.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in files]
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temps = [path + ".tmp" for path in paths]
    try:
        for temp, content in zip(temps, files.values()):
            with open(temp, "w", encoding="utf-8", newline="\n") as fh:
                if callable(content):
                    content(fh)
                else:
                    fh.write(content)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            try:
                os.unlink(temp)
            except OSError:  # not created yet, or already moved into place
                pass
        raise
    return paths


def _write_files(out_dir: str, command: str, resolved: dict, files: dict) -> int:
    """Write ``files`` and the run's ``manifest.json`` with
    :func:`_write_outputs`, print a ``wrote`` line for each and return 0."""
    import json
    from datetime import datetime, timezone

    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": resolved["seed"],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    manifest.update({f"config_{k}": v for k, v in resolved.items()})
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    for path in _write_outputs(out_dir, {**files, "manifest.json": text}):
        print(f"wrote {path}")
    return 0


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _solve(scenario: ScenarioConfig, schemes: tuple = ("azimuth", "pitch")) -> tuple:
    """:func:`~spwt.placement.solve_all`'s placements and failures, after
    printing each candidate it discarded as a ``warning:`` line: an outcome
    of the command, printed as its own line."""
    solutions, failures, discarded = solve_all(scenario, schemes)
    for text in discarded:
        print(f"warning: {text}", file=sys.stderr)
    return solutions, failures


def cmd_place(args, resolved: dict, scenario: ScenarioConfig) -> int:
    schemes = ("azimuth", "pitch") if args.scheme == "both" else (args.scheme,)
    solutions, failures = _solve(scenario, schemes)
    for line in failures:
        print(f"infeasible: {line}", file=sys.stderr)
    if not solutions:
        return 2
    print(f"solutions: {len(solutions)}")
    for s in solutions:
        print(
            f"scheme={s.scheme} branch={s.branch} factor={s.factor_used} "
            f"index={s.index_used} x_m={_fmt(s.position.x)} y_m={_fmt(s.position.y)} "
            f"z_m={_fmt(s.position.z)} null_residual={s.null_residual:.3e} "
            f"sr_bits_hz={_fmt(s.sr_at_solution)}"
        )
    return 0


def cmd_sweep(args, resolved: dict, scenario: ScenarioConfig) -> int:
    from .charts import render_line_chart
    from .experiments import sweep_alpha, sweep_snr

    grid = None if args.grid is None else _sweep_grid(args.grid, args.kind)
    # The sweep checks its grid before it solves, so a rejected grid prints
    # no discards; a scheme with no placement prints them before it raises.
    try:
        if args.kind == "snr":
            result = sweep_snr(scenario, scheme=args.scheme, snr_db_grid=grid)
            x_name, x_label = "snr_db", "SNR (dB)"
        else:
            # The config's own SNR, P/sigma^2 (PowerConfig rejects one that
            # overflows); a ratio that underflows gives -inf, which the sweep
            # rejects.
            ratio = resolved["p_w"] / resolved["sigma2_w"]
            snr_db = 10.0 * math.log10(ratio) if ratio > 0.0 else -math.inf
            result = sweep_alpha(
                scenario, snr_db=snr_db, alpha_grid=grid, scheme=args.scheme
            )
            x_name, x_label = "alpha", "alpha"
    except InfeasibleGeometry:
        _solve(scenario, (args.scheme,))
        raise
    _solve(scenario, (args.scheme,))
    header = ",".join([x_name] + [f"sr_{name}" for name in result.series])
    csv_text = _csv(header, zip(result.x_axis, *result.series.values()))
    svg_text = render_line_chart(
        result.x_axis,
        result.series,
        x_label,
        "secrecy rate (bits/s/Hz)",
        title=f"{args.scheme} scheme",
    )
    files = {f"sweep_{args.kind}.csv": csv_text, f"sweep_{args.kind}.svg": svg_text}
    return _write_files(args.out, f"sweep {args.kind}", resolved, files)


def cmd_pattern(args, resolved: dict, scenario: ScenarioConfig) -> int:
    # min:max:step by _grid_points, checked and built before numpy loads
    lo, hi, step = _parse_grid(args.grid, "pattern")
    if step <= 0 or hi <= lo:
        raise CliError("--grid: need max > min and step > 0")
    points = _grid_points(lo, step, hi, _MAX_PATTERN_AXIS, "points per axis")
    # An infeasible scenario's map is still defined; it just has no overlay.
    overlays = [(s.position.x, s.position.y) for s in _solve(scenario)[0]]
    from .pattern import _pattern_files
    files = _pattern_files(scenario, points, overlays)
    return _write_files(args.out, "pattern", resolved, files)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spwt",
        description=(
            "Place an airborne planar array on nulls of the receiver/"
            "eavesdropper steering-vector correlation and study the "
            "resulting secrecy rate."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, writes=True):
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the run seed (highest precedence)")
        if writes:
            p.add_argument("--out", default=".", help="output directory")

    p_place = sub.add_parser("place", help="solve for nulling placements")
    common(p_place, writes=False)
    p_place.add_argument(
        "--scheme", choices=("azimuth", "pitch", "both"), default="both"
    )
    p_place.set_defaults(func=cmd_place)

    p_sweep = sub.add_parser("sweep", help="secrecy-rate sweep to CSV/SVG")
    common(p_sweep)
    p_sweep.add_argument("--scheme", choices=("azimuth", "pitch"), default="azimuth")
    p_sweep.add_argument("--kind", choices=("snr", "alpha"), default="snr")
    p_sweep.add_argument(
        "--grid", default=None,
        help="sweep grid as start:step:stop (default snr 0:2:20, alpha 0:0.1:1)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_pattern = sub.add_parser(
        "pattern", help="correlation magnitude over a position box"
    )
    common(p_pattern)
    p_pattern.add_argument(
        "--grid", default="-1000:1000:5",
        help="square box as min:max:step in meters, max included when it lands on "
        "the step and no point past it (default %(default)s); use "
        "--grid=-100:100:5 when the minimum is negative",
    )
    p_pattern.set_defaults(func=cmd_pattern)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 0 after --help or --version, 2 on a usage error
        return 1 if exc.code else 0  # 2 is reserved for infeasible scenarios
    try:
        resolved = _resolve_config(parse_config(args.config), args.seed)
        return args.func(args, resolved, _scenario(resolved))
    except InfeasibleGeometry as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry of ``spwt`` and ``python -m spwt.cli``: :func:`main`
    without the cyclic collector, whose exit collections would walk all of
    numpy's objects unless frozen; the exit still flushes stdio and runs
    atexit handlers.  :func:`main` leaves a caller's collector alone."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
