"""``spwt pattern``'s engine: a correlation map over a square box, whose CSV
rows two processes split, each mapping only the rows it writes, and whose
heatmap maps only its drawn cells; numpy loads under a BLAS pin.  ``spwt.cli``
checks the box and writes the files; only its ``pattern`` imports this module."""

import os

from .errors import InvalidIndex, InvalidYaw
from .placement import correlation_map, solve_all

# The share of the grid rows pattern maps and formats itself when it splits
# them with a child process: it also solves, renders and writes the files.
_PARENT_SHARE = 0.4


def _pattern_axis(lo: float, hi: float, step: float):
    """The pattern box's axis, lo to hi by step, inclusive of hi."""
    # pattern uses no BLAS, whose idle threads would keep _pattern_map from
    # forking.  OpenBLAS reads it once, as numpy loads; set if unset, just for that.
    if unset := "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        if unset:
            del os.environ["OPENBLAS_NUM_THREADS"]

    return np.arange(lo, hi + step / 2.0, step)


def _write_pattern_csv(fh, axis, values, start=0) -> None:
    """Write the x_m,y_m,residual table of a square grid to ``fh``, x
    varying fastest, one grid row at a time: the rows of ``values`` are the
    grid rows from ``start`` on, and the header comes first when that is 0.

    Same bytes as :func:`~spwt.cli._csv` over the rows.  The axis labels
    are formatted once; each grid row is then one ``%`` template over its
    residuals, built by joining the per-column pieces with the row's y label.
    """
    labels = ["%.12g," % v for v in axis]
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


def _pattern_map(stack, scenario, axis):
    """The pattern's CSV writer.  Where :func:`_can_split` allows, a forked
    child maps and formats the grid rows from h = _PARENT_SHARE*n on into an
    unnamed temporary file, and exits; unless it exits with code 0, the
    writer does those rows itself, so no output depends on it.  ``stack``
    kills and reaps the child unless the writer has waited for it.

    The bytes are the serial ones: each map chunk gives the bits it gives
    alone (see :func:`~spwt.placement.correlation_map`), and CSV rows do not
    depend on one another.
    """
    import shutil
    import signal
    import tempfile

    n = axis.size
    h = max(1, round(n * _PARENT_SHARE))  # this process writes the header

    def write_rows(fh, start, stop) -> None:
        rows = correlation_map(scenario, axis, axis[start:stop])
        _write_pattern_csv(fh, axis, rows, start)

    pid = None
    if _can_split(n):
        try:
            tmp = stack.enter_context(tempfile.TemporaryFile())
            pid = os.fork()
        except OSError:  # no temporary file or process
            pass
    if pid == 0:
        try:
            with open(tmp.fileno(), "w", encoding="utf-8", closefd=False) as fh:
                write_rows(fh, h, n)
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

    def write_csv(fh) -> None:
        write_rows(fh, 0, h)
        if reap() == 0:  # the wait status of an exit with code 0
            fh.flush()
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh.buffer)
        else:
            write_rows(fh, h, n)

    return write_csv


def _pattern_files(stack, scenario, lo: float, hi: float, step: float) -> dict:
    """The pattern's files over the box lo..hi by step, by name: the
    ``pattern.csv`` writer and the ``pattern.svg`` text, the map at the
    heatmap's drawn points with every placement overlaid.  ``stack`` holds
    the split's child until the writer has run (see :func:`_pattern_map`)."""
    from .charts import heatmap_stride, render_heatmap

    axis = _pattern_axis(lo, hi, step)
    write_csv = _pattern_map(stack, scenario, axis)
    try:
        solutions, _ = solve_all(scenario)
    except (InvalidIndex, InvalidYaw):
        solutions = []  # the map is still defined; it just has no overlay
    overlays = [(s.position.x, s.position.y) for s in solutions]
    drawn = axis[:: heatmap_stride(axis.size, axis.size)]
    svg = render_heatmap(axis, axis, correlation_map(scenario, drawn, drawn), overlays)
    return {"pattern.csv": write_csv, "pattern.svg": svg}
