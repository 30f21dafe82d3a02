"""``spwt pattern``'s engine: one pass over a square box's grid, a block of
rows at a time, mapping, formatting the CSV and keeping the heatmap's cells.
``spwt.cli`` builds the grid's points and writes the files; only it imports this."""

import os

from . import placement


def _write_pattern_csv(fh, axis, blocks) -> None:
    """Write the x_m,y_m,residual table of a square grid to ``fh``, the
    header and then ``blocks``, the grid's 2-D blocks of rows in order, x
    varying fastest.  Same bytes as :func:`~spwt.cli._csv` over the rows.

    Each line is a zero-padded row of 8-byte words (x label, y label, value,
    newline) whose zero bytes are dropped.  A cell v in [1e-4, 1) is written
    from m = rint(v * 10^(12 + d)), d its decade from three comparisons
    (exact, as 0.1, 0.01 and 0.001 each lie just above its decimal): where
    the product is not a half, the rounding of its exact value.  A half, an
    m of 10^12 (v rounds up a decade) and any other cell go through %.12g."""
    import numpy as np

    n, u32 = len(axis), np.uint32
    labels = np.array(["%.12g," % v for v in axis], "S")
    lw = -(-labels.itemsize // 8)  # words per label
    labels = labels.astype(f"S{8 * lw}").view(np.uint64).reshape(n, lw)
    # made once: the line buffer, "0." with 0-3 zeros, and "%04d" of 0..9999
    rows = max(1, placement._MAP_CHUNK // n)
    line = np.zeros((rows, n, 2 * lw + 3), np.uint64)
    line[:, :, :lw] = labels
    line.view(u32)[:, :, -1] = np.frombuffer(b"\0\0\0\n", u32)
    heads = np.array([b"0.", b"0.0", b"0.00", b"0.000"], "S8").view(np.uint64)
    scales = np.array([1e12, 1e13, 1e14, 1e15])
    q = np.arange(10_000)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], -1) + 48
    ends = np.cumprod(digits[:, ::-1] == 48, -1)[:, ::-1]  # dropped in a 2nd half
    digits = np.concatenate([digits, digits * (1 - ends)]).astype(np.uint8).view(u32)
    fh.write("x_m,y_m,residual\n")
    y = 0
    for block in blocks:
        for i in range(0, len(block), rows):
            v = np.asarray(block[i : i + rows], float)
            words = line[: len(v)]
            words[:, :, lw : 2 * lw] = labels[y : y + len(v), None]
            fast = (v >= 1e-4) & (v < 1.0)
            w = np.where(fast, v, 0.5)
            d = (w < 0.1).astype(np.intp) + (w < 0.01) + (w < 0.001)
            p = w * scales.take(d)
            m = np.rint(p)
            fast &= (m < 1e12) & (np.abs(p - m) != 0.5)
            # a slow cell's digits are overwritten below; 0 keeps them in range
            hi, low = np.divmod(np.where(fast, m, 0.0).astype(np.int64), 10**8)
            mid, low = np.divmod(low, 10**4)
            low += 10**4  # trailing zeros dropped from the last group, and
            mid += 10**4 * (low == 10**4)  # from each one before it whose
            hi += 10**4 * (mid == 10**4)  # followers are all zeros
            words[:, :, 2 * lw] = heads.take(d)
            for j, group in enumerate((hi, mid, low), 4 * lw + 2):
                words.view(u32)[:, :, j] = digits.take(group)
            if (slow := np.flatnonzero(~fast)).size:
                text = np.array(["%.12g" % x for x in v.flat[slow].tolist()], "S20")
                cells = words.view(u32).reshape(v.size, -1)
                cells[slow, 4 * lw : -1] = text[:, None].view(u32)
            fh.write(str(words.tobytes().translate(None, b"\0"), "ascii"))
            y += len(v)


def _pattern_files(scenario, points, overlays) -> dict:
    """The pattern's file writers, by name, over the square grid whose axis
    is ``points``, each point mapped as given.  The ``pattern.csv`` writer maps
    the grid once, a block of rows at a time, and keeps each block's drawn
    cells for the ``pattern.svg`` writer (the heatmap, with a circle at each
    placement's (x, y) in ``overlays``), which
    :func:`~spwt.cli._write_outputs` runs after it.  A point's bits do not
    depend on the rows mapped with it (see
    :func:`~spwt.signalmodel.correlation_magnitude`)."""
    from .charts import heatmap_stride, render_heatmap

    # No BLAS here: a fresh `import numpy` took 140 ms with one OpenBLAS thread,
    # 207 ms unset (12 interleaved runs).  OpenBLAS reads it as numpy loads.
    if unset := "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        if unset:
            del os.environ["OPENBLAS_NUM_THREADS"]

    axis = np.array(points, float)
    n = axis.size
    stride, rows = heatmap_stride(n, n), max(1, placement._MAP_CHUNK // n)
    drawn = []  # the heatmap's rows

    def blocks():
        for start in range(0, n, rows):
            ys = axis[start : start + rows]
            block = placement.correlation_map(scenario, axis, ys)
            drawn.extend(block[-start % stride :: stride, ::stride].copy())
            yield block

    return {
        "pattern.csv": lambda fh: _write_pattern_csv(fh, axis, blocks()),
        "pattern.svg": lambda fh: fh.write(render_heatmap(axis, axis, drawn, overlays)),
    }
