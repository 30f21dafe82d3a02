"""Command-line front end: placement reports, SR sweeps, correlation maps.

Exit codes: 0 on success, 1 for usage/config/I-O problems (including values
the library's constructors and sweeps reject, in their own words), 2 when the
requested scenario admits no nulling placement.
"""

import argparse
import math
import os
import sys
import warnings

from . import __version__
from .arrays import ArrayGeometry
from .errors import DegenerateGeometry, InfeasibleGeometry, InvalidIndex, InvalidYaw
from .geometry import Position3D
from .placement import correlation_map, solve_all
from .scenario import ScenarioConfig
from .signalmodel import PowerConfig

# experiments, charts, json and datetime are imported inside the commands
# that run them: start-up and imports are most of a `place` call.

_INT_KEYS = {"m", "n", "seed"}
_FLOAT_KEYS = {
    "f_c_hz", "x_e_m", "g_m", "theta_a_rad", "theta_a_deg", "p_w", "sigma2_w", "alpha",
}
_KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS
_REQUIRED_KEYS = ("m", "n", "f_c_hz", "x_e_m", "g_m", "p_w", "sigma2_w")
# Largest --grid accepted, checked before any grid is built: points of a
# sweep, and points per axis of the square pattern box (the default box at a
# 1 m step; 2001^2 map cells).
_MAX_SWEEP_POINTS = 100_000
_MAX_PATTERN_AXIS = 2001
# The share of the grid rows pattern maps and formats itself when it splits
# them with a child process: it also solves, renders and writes the files.
_PARENT_SHARE = 0.4


class CliError(Exception):
    """Anything that should terminate the command with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; 2 is reserved for
    # infeasible scenarios here, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_config(path: str) -> dict:
    """Read a flat key = value config file.

    Lines starting with '#' (or blank) are skipped; keys outside the
    documented set, duplicate keys, or unparseable values raise CliError
    with the offending line number.
    """
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
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


def _sweep_grid(text: str | None, kind: str) -> list | None:
    """start:step:stop, inclusive of stop when it lands on the step."""
    if text is None:
        return None
    start, step, stop = _parse_grid(text, "sweep")
    if step <= 0 or stop < start:
        raise CliError("--grid: need step > 0 and stop >= start")
    span = (stop - start) / step + 1e-9
    if span >= _MAX_SWEEP_POINTS:
        raise CliError(f"--grid: more than {_MAX_SWEEP_POINTS} sweep points")
    count = int(math.floor(span)) + 1
    grid = [start + i * step for i in range(count)]
    if kind == "alpha":
        if any(v < -1e-12 or v > 1.0 + 1e-12 for v in grid):
            raise CliError("--grid: alpha values must lie in [0, 1]")
        grid = [min(max(v, 0.0), 1.0) for v in grid]
    return grid


def _pattern_axis(text: str | None):
    """The pattern box's axis, min:max:step inclusive of max (default
    -1000:1000:5)."""
    lo, hi, step = _parse_grid(text, "pattern") if text else (-1000.0, 1000.0, 5.0)
    if step <= 0 or hi <= lo:
        raise CliError("--grid: need max > min and step > 0")
    # The point count np.arange computes, before it allocates.
    if (hi + step / 2.0 - lo) / step > _MAX_PATTERN_AXIS:
        raise CliError(f"--grid: more than {_MAX_PATTERN_AXIS} points per axis")
    # pattern uses no BLAS, whose idle threads would keep cmd_pattern from
    # forking.  OpenBLAS reads it once, as numpy loads; set if unset, just for that.
    if unset := "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy as np
    if unset:
        del os.environ["OPENBLAS_NUM_THREADS"]

    return np.arange(lo, hi + step / 2.0, step)


def _write_outputs(out_dir: str, files: dict) -> list[str]:
    """Write all files or none, leaving the previous outputs as they were on
    failure.

    Each value is the file's text or a callable that writes it to an open
    text file.  Every file is written in full to ``<name>.tmp`` in
    ``out_dir`` before any is moved over its name with :func:`os.replace`;
    on any failure the temporary files are removed.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in files]
    temps = [path + ".tmp" for path in paths]
    try:
        for temp, content in zip(temps, files.values()):
            with open(temp, "w", encoding="utf-8") as fh:
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


def _manifest(command: str, resolved: dict) -> str:
    import json
    from datetime import datetime, timezone

    data = {
        "command": command,
        "tool_version": __version__,
        "seed": resolved["seed"],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    data.update({f"config_{k}": v for k, v in resolved.items()})
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_pattern_csv(fh, axis, values, start=0) -> None:
    """Write the x_m,y_m,residual table of a square grid to ``fh``, x
    varying fastest, one grid row at a time: the rows of ``values`` are the
    grid rows from ``start`` on, and the header comes first when that is 0.

    Same bytes as :func:`_csv` over the rows.  The axis labels are formatted
    once; each grid row is then one ``%`` template over its residuals, built
    by joining the per-column pieces with the row's y label.
    """
    labels = [_fmt(v) + "," for v in axis]
    pieces = [labels[0], *("%.12g\n" + x for x in labels[1:]), "%.12g\n"]
    if not start:
        fh.write("x_m,y_m,residual\n")
    for y_label, row in zip(labels[start:], values):
        fh.write(y_label.join(pieces) % tuple(row.tolist()))


def _can_split(rows: int) -> bool:
    """Whether pattern may fork: two or more grid rows and CPUs, and one
    native thread (a fork copies only the calling one, not a BLAS pool)."""
    if rows < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1 and len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _pattern_map(stack, scenario, axis) -> tuple:
    """The pattern's map and CSV writer.  Where :func:`_can_split` allows,
    a forked child maps and formats the grid rows from h = _PARENT_SHARE*n
    on; otherwise this process does them, as if that child failed at once.

    The bytes are the serial ones: each map chunk gives the bits it gives
    alone (see :func:`~spwt.placement.correlation_map`), and CSV rows do not
    depend on one another.  The child maps its rows into the shared map,
    writes a byte on a pipe, formats them into an unnamed temporary file and
    exits.  Whatever it does not finish, this process does itself, so no
    output depends on it; ``stack`` kills and reaps it unless the writer has
    waited for it.
    """
    import mmap
    import shutil
    import signal
    import tempfile

    import numpy as np

    n = axis.size
    h = max(1, round(n * _PARENT_SHARE))  # this process writes the header
    values = np.frombuffer(mmap.mmap(-1, n * n * 8)).reshape(n, n)
    pid = None
    ready_r, ready_w = os.pipe()
    if _can_split(n):
        try:
            tmp = stack.enter_context(tempfile.TemporaryFile())
            pid = os.fork()
        except OSError:  # no temporary file or process
            pass
    if pid == 0:
        try:
            values[h:] = correlation_map(scenario, axis, axis[h:])
            os.write(ready_w, b".")
            with open(tmp.fileno(), "w", encoding="utf-8", closefd=False) as fh:
                _write_pattern_csv(fh, axis, values[h:], h)
            os._exit(0)
        finally:
            os._exit(1)  # never back into the CLI, nor flush its buffers
    # the child's wait status, once reaped; with no child, a failed one's
    status = [1] if pid is None else []

    def reap(kill: bool = False) -> int:
        if not status:
            if kill:
                os.kill(pid, signal.SIGKILL)
            status.append(os.waitpid(pid, 0)[1])
        return status[0]

    stack.callback(reap, True)
    os.close(ready_w)
    with open(ready_r, "rb", buffering=0) as ready:
        values[:h] = correlation_map(scenario, axis, axis[:h])
        if not ready.read(1):  # end of file: the child failed before its rows
            values[h:] = correlation_map(scenario, axis, axis[h:])

    def write_csv(fh) -> None:
        _write_pattern_csv(fh, axis, values[:h])
        if reap() == 0:  # the wait status of an exit with code 0
            fh.flush()
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh.buffer)
        else:
            _write_pattern_csv(fh, axis, values[h:], h)

    return values, write_csv


def cmd_place(args, resolved: dict, scenario: ScenarioConfig) -> int:
    schemes = ("azimuth", "pitch") if args.scheme == "both" else (args.scheme,)
    solutions, failures = solve_all(scenario, schemes)
    for line in failures:
        print(f"infeasible: {line}", file=sys.stderr)
    if not solutions:
        return 2
    print(f"solutions: {len(solutions)}")
    for s in solutions:
        index = s.index_used.k if s.scheme == "azimuth" else s.index_used.l
        print(
            f"scheme={s.scheme} branch={s.branch} factor={s.factor_used} "
            f"index={index} x_m={_fmt(s.position.x)} y_m={_fmt(s.position.y)} "
            f"z_m={_fmt(s.position.z)} null_residual={s.null_residual:.3e} "
            f"sr_bits_hz={_fmt(s.sr_at_solution)}"
        )
    return 0


def cmd_sweep(args, resolved: dict, scenario: ScenarioConfig) -> int:
    from .charts import render_line_chart
    from .experiments import sweep_alpha, sweep_snr

    grid = _sweep_grid(args.grid, args.kind)
    if args.kind == "snr":
        result = sweep_snr(scenario, scheme=args.scheme, snr_db_grid=grid)
        x_name, x_label = "snr_db", "SNR (dB)"
    else:
        # The config's own SNR, P/sigma^2 (PowerConfig rejects one that
        # overflows); a ratio that underflows gives -inf, which the sweep rejects.
        ratio = resolved["p_w"] / resolved["sigma2_w"]
        snr_db = 10.0 * math.log10(ratio) if ratio > 0.0 else -math.inf
        result = sweep_alpha(
            scenario, snr_db=snr_db, alpha_grid=grid, scheme=args.scheme
        )
        x_name, x_label = "alpha", "alpha"
    header = ",".join([x_name] + [f"sr_{name}" for name in result.series])
    csv_text = _csv(header, zip(result.x_axis, *result.series.values()))
    svg_text = render_line_chart(
        result.x_axis,
        result.series,
        x_label,
        "secrecy rate (bits/s/Hz)",
        title=f"{args.scheme} scheme",
    )
    written = _write_outputs(
        args.out,
        {
            f"sweep_{args.kind}.csv": csv_text,
            f"sweep_{args.kind}.svg": svg_text,
            "manifest.json": _manifest(f"sweep {args.kind}", resolved),
        },
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_pattern(args, resolved: dict, scenario: ScenarioConfig) -> int:
    import contextlib

    from .charts import render_heatmap

    axis = _pattern_axis(args.grid)
    with contextlib.ExitStack() as stack:
        values, write_csv = _pattern_map(stack, scenario, axis)
        try:
            solutions, _ = solve_all(scenario)
        except (InvalidIndex, InvalidYaw):
            solutions = []  # the map is still defined; it just has no overlay
        overlays = [(s.position.x, s.position.y) for s in solutions]
        written = _write_outputs(
            args.out,
            {
                "pattern.csv": write_csv,
                "pattern.svg": render_heatmap(axis, axis, values, overlays),
                "manifest.json": _manifest("pattern", resolved),
            },
        )
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        "--grid", default=None,
        help="square box as min:max:step in meters (default -1000:1000:5); "
        "use --grid=-100:100:5 when the minimum is negative",
    )
    p_pattern.set_defaults(func=cmd_pattern)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            # A discarded candidate is an outcome of the command: print its
            # text, not the frame outside the package that the warning names.
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr
            )
            resolved = _resolve_config(parse_config(args.config), args.seed)
            return args.func(args, resolved, _scenario(resolved))
    except (InfeasibleGeometry, InvalidIndex, InvalidYaw) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, DegenerateGeometry, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
