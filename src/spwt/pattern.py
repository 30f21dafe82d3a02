"""``spwt pattern``'s engine: one pass over a square box's grid, a block of
rows at a time, mapping, formatting the CSV and keeping the heatmap's cells.
``spwt.cli`` checks the box and writes the files; only its ``pattern`` imports it."""

import os

from .errors import InvalidIndex, InvalidYaw
from .placement import correlation_map, solve_all

# Grid cells mapped and formatted at a time.  8,192 (one map chunk) took 8%
# more page faults in a fresh pattern on wide16.cfg (6,910 against 6,402).
_BLOCK = 1 << 12


def _pattern_axis(lo: float, hi: float, step: float):
    """The pattern box's axis, lo to hi by step, inclusive of hi."""
    # pattern uses no BLAS, and a fresh `import numpy` took 140 ms with one
    # OpenBLAS thread against 207 ms unset (12 interleaved runs).  OpenBLAS
    # reads it once, as numpy loads; set if unset, just for that.
    if unset := "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        if unset:
            del os.environ["OPENBLAS_NUM_THREADS"]

    return np.arange(lo, hi + step / 2.0, step)


def _mantissa(np, v, e):
    """round(v * 10**(11 - e)) of the exact product, ties to even; a rounded
    product's tie is settled by its error: Dekker's two-product, Veltkamp's split."""
    s = np.array([1e11, 1e12, 1e13, 1e14, 1e15, 1e16]).take(-e.astype(int))
    p = v * s
    m = np.rint(p)
    if (tie := np.flatnonzero(np.abs(p - m) == 0.5)).size:
        v, s, p, half = (x.flat[tie] for x in (v, s, p, p - m))
        c, d = 134217729.0 * v, 134217729.0 * s
        vh, sh = c - (c - v), d - (d - s)
        vl, sl = v - vh, s - sh
        err = ((vh * sh - p) + vh * sl + vl * sh) + vl * sl
        m.flat[tie] += (half * err > 0) * 2.0 * half
    return m


def _write_pattern_csv(fh, axis, values, start=0) -> None:
    """Write the x_m,y_m,residual table of a square grid to ``fh``, x
    varying fastest: ``values`` holds the grid rows from ``start`` on, a 2-D
    array or an iterable of 2-D blocks of rows; the header comes first when
    ``start`` is 0.  Same bytes as :func:`~spwt.cli._csv` over the rows.

    Each line is a zero-padded row of 8-byte words (x label, y label, value,
    newline) whose zero bytes are dropped.  A cell in [1e-4, 1) is written
    from its correctly rounded 12-digit mantissa, ``np.log10`` only guessing
    the exponent; any other, or one rounding to 1, through Python's %.12g."""
    import numpy as np

    n, u32 = len(axis), np.uint32
    labels = np.array(["%.12g," % v for v in axis], "S")
    lw = -(-labels.itemsize // 8)  # words per label
    labels = labels.astype(f"S{8 * lw}").view(np.uint64).reshape(n, lw)
    # made once: the line buffer, "0." with 0-3 zeros, and "%04d" of 0..9999
    rows = max(1, _BLOCK // n)
    line = np.zeros((rows, n, 2 * lw + 3), np.uint64)
    line[:, :, :lw] = labels
    line.view(u32)[:, :, -1] = np.frombuffer(b"\0\0\0\n", u32)
    heads = np.array([b"0.", b"0.0", b"0.00", b"0.000"], "S8").view(np.uint64)
    q = np.arange(10_000)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], -1) + 48
    ends = np.cumprod(digits[:, ::-1] == 48, -1)[:, ::-1]  # dropped in a 2nd half
    digits = np.concatenate([digits, digits * (1 - ends)]).astype(np.uint8).view(u32)
    if not start:
        fh.write("x_m,y_m,residual\n")
    for block in [values] if isinstance(values, np.ndarray) else values:
        for i in range(0, len(block), rows):
            v = np.asarray(block[i : i + rows], float)
            words = line[: len(v)]
            words[:, :, lw : 2 * lw] = labels[start : start + len(v), None]
            fast = (v >= 1e-4) & (v < 1.0)
            w = np.where(fast, v, 0.5)
            e = np.clip(np.floor(np.log10(w)), -4.0, -1.0)
            m = _mantissa(np, w, e)
            if ((m >= 1e12) | (m < 1e11)).any():  # the guess was a decade off
                e = e + (m >= 1e12) - (m < 1e11)
                m = _mantissa(np, w, e)
            fast &= e < 0  # else v rounds to 1
            hi, low = np.divmod(m.astype(np.int64), 10**8)
            mid, low = np.divmod(low, 10**4)
            low += 10**4  # trailing zeros dropped from the last group, and
            mid += 10**4 * (low == 10**4)  # from each one before it whose
            hi += 10**4 * (mid == 10**4)  # followers are all zeros
            words[:, :, 2 * lw] = heads.take(-1 - e.astype(int))
            for j, group in enumerate((hi, mid, low), 4 * lw + 2):
                words.view(u32)[:, :, j] = digits.take(group)
            if (slow := np.flatnonzero(~fast)).size:
                text = np.array(["%.12g" % x for x in v.flat[slow].tolist()], "S20")
                cells = words.view(u32).reshape(v.size, -1)
                cells[slow, 4 * lw : -1] = text[:, None].view(u32)
            fh.write(str(words.tobytes().translate(None, b"\0"), "ascii"))
            start += len(v)


def _pattern_files(scenario, lo: float, hi: float, step: float) -> dict:
    """The pattern's file writers over the box lo..hi by step, by name.  The
    ``pattern.csv`` writer maps the grid once, a block of rows at a time, and
    keeps each block's drawn cells for the ``pattern.svg`` writer (the heatmap,
    every placement overlaid), which :func:`~spwt.cli._write_outputs` runs
    after it.  A point's bits do not depend on the rows mapped with it (see
    :func:`~spwt.signalmodel.correlation_magnitude`)."""
    from .charts import heatmap_stride, render_heatmap

    axis = _pattern_axis(lo, hi, step)
    n = axis.size
    stride, rows = heatmap_stride(n, n), max(1, _BLOCK // n)
    try:
        solutions, _ = solve_all(scenario)
    except (InvalidIndex, InvalidYaw):
        solutions = []  # the map is still defined; it just has no overlay
    overlays = [(s.position.x, s.position.y) for s in solutions]
    drawn = []  # the heatmap's rows

    def blocks():
        for start in range(0, n, rows):
            block = correlation_map(scenario, axis, axis[start : start + rows])
            drawn.extend(block[-start % stride :: stride, ::stride].copy())
            yield block

    return {
        "pattern.csv": lambda fh: _write_pattern_csv(fh, axis, blocks()),
        "pattern.svg": lambda fh: fh.write(render_heatmap(axis, axis, drawn, overlays)),
    }
