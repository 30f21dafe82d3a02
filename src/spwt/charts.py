"""Self-contained SVG renderers for sweep curves and correlation maps.

Presentation only: the CSV files are the data contract.  Output is plain
SVG 1.1 text with deterministic formatting, so identical inputs give
byte-identical files.
"""

import math
import sys

_PALETTE = ("#1f77b4", "#333333", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 62, 16, 20, 46
_MAX = sys.float_info.max


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _text(value) -> str:
    """``value`` as SVG character data: &, < and > escaped, & first."""
    return str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(x1, y1, x2, y2, stroke: str, width, tail: str = "") -> str:
    """A ``<line>`` element; ``tail`` holds any further attributes."""
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
        f'stroke-width="{width}"{tail}/>'
    )


def _label(x, y, content, anchor: str = "", tail: str = "") -> str:
    """A ``<text>`` element holding ``content`` escaped; ``tail`` holds any
    further attributes."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}"{anchor}{tail}>{_text(content)}</text>'


def _unit(lo: float, hi: float) -> float:
    """The power of two an axis from ``lo`` to ``hi`` is measured in: 1, or
    1/16 where its span, or the span times a tick index, would overflow.
    Scaling by a power of two is exact, so an axis in range maps as before."""
    return 1.0 if abs(hi - lo) * 5.0 < math.inf else 0.0625


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    u = _unit(lo, hi)
    # min: beyond the float range the top tick could round past hi, to inf
    return [
        min(hi, (lo * u + (hi * u - lo * u) * i / (count - 1)) / u)
        for i in range(count)
    ]


def _scales(x_lo: float, x_hi: float, y_lo: float, y_hi: float):
    """The data-to-pixel maps (px, py) of the plot area for these axes,
    each axis running from its first end to its second, either way up; an
    axis whose ends are equal spans one data unit."""
    xu, yu = _unit(x_lo, x_hi), _unit(y_lo, y_hi)
    x_span = (x_hi * xu - x_lo * xu) or 1.0
    y_span = (y_hi * yu - y_lo * yu) or 1.0

    def px(v: float) -> float:
        return _ML + (v * xu - x_lo * xu) / x_span * (_W - _ML - _MR)

    def py(v: float) -> float:
        return _H - _MB - (v * yu - y_lo * yu) / y_span * (_H - _MT - _MB)

    return px, py


def _frame(body: list, x_label: str, y_label: str, extra: list) -> str:
    """The SVG page: a white background, ``body``, both axis labels, then
    ``extra``."""
    mid_y = f"{(_MT + _H - _MB) / 2:.0f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        *body,
        _label(f"{(_ML + _W - _MR) / 2:.0f}", _H - 10, x_label, "middle"),
        _label(14, mid_y, y_label, "middle", f' transform="rotate(-90 14 {mid_y})"'),
        *extra,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def render_line_chart(
    x_values, series: dict, x_label: str, y_label: str, title: str
) -> str:
    """Polyline chart of one or more named series over a shared x axis,
    under ``title``.

    The series named "theory" is drawn dashed so a curve sitting exactly on
    it stays visible.
    """
    xs = [float(v) for v in x_values]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:  # a step that still moves x where +/-1 rounds away
        step = max(1.0, abs(x_lo) * 2**-40)
        x_lo, x_hi = max(x_lo - step, -_MAX), min(x_hi + step, _MAX)
    y_hi = max((max(v) for v in series.values() if v), default=1.0)
    y_hi = min(y_hi * 1.06, _MAX) if y_hi > 0 else 1.0
    y_lo = 0.0
    px, py = _scales(x_lo, x_hi, y_lo, y_hi)

    parts = [_label(f"{_W / 2:.0f}", 14, title, "middle")]
    for yt in _ticks(y_lo, y_hi):
        y = py(yt)
        parts.append(_line(_ML, _fmt(y), _W - _MR, _fmt(y), "#dddddd", 1))
        parts.append(_label(_ML - 6, _fmt(y + 4), f"{yt:.4g}", "end"))
    for xt in xs if len(xs) <= 12 else _ticks(x_lo, x_hi, 6):
        x = _fmt(px(xt))
        parts.append(_line(x, _H - _MB, x, _H - _MB + 4, "#333333", 1))
        parts.append(_label(x, _H - _MB + 16, f"{xt:.4g}", "middle"))
    parts.append(_line(_ML, _MT, _ML, _H - _MB, "#333333", 1))
    parts.append(_line(_ML, _H - _MB, _W - _MR, _H - _MB, "#333333", 1))
    curves = []
    for idx, (name, values) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        dash = ' stroke-dasharray="7 4"' if name == "theory" else ""
        points = " ".join(
            f"{_fmt(px(x))},{_fmt(py(float(y)))}" for x, y in zip(xs, values)
        )
        curves.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6"'
            f'{dash} points="{points}"/>'
        )
        ly = _MT + 14 + 15 * idx
        curves.append(_line(_W - _MR - 120, ly, _W - _MR - 96, ly, color, 1.6, dash))
        curves.append(_label(_W - _MR - 90, ly + 4, name))
    return _frame(parts, x_label, y_label, curves)


def heatmap_stride(nx: int, ny: int) -> int:
    """The step between the drawn rows, and columns, of an nx by ny grid."""
    return max(1, math.ceil(nx / 200), math.ceil(ny / 200))


def render_heatmap(xs, ys, values, overlays) -> str:
    """Grayscale map of correlation magnitude over a position grid.

    ``values`` holds the drawn cells only, [row = y, column = x]: rows
    ``ys[::s]`` and columns ``xs[::s]``, s = ``heatmap_stride(len(xs), len(ys))``.
    Residuals are displayed on a log scale clamped to [1e-6, 1], darker
    meaning closer to a null; ``overlays`` positions (x, y) are circled,
    except one whose centre maps to no finite pixel.
    """
    import zlib

    import numpy as np

    stride = heatmap_stride(len(xs), len(ys))
    sx, sy = xs[::stride], ys[::stride]
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    y_lo, y_hi = float(ys[0]), float(ys[-1])
    px, py = _scales(x_lo, x_hi, y_lo, y_hi)

    # One grey level per drawn cell: log10 of the residual clamped to
    # [1e-6, 1], scaled to 0..255 and rounded half to even.  The logarithm
    # is math.log10 per cell: numpy's log10 differs from it in the last bit
    # for a few percent of inputs, which moves the rounding of a value within
    # that bit of a half level.  The rest is one exact numpy pass.
    drawn = np.fmax(np.asarray(values, float), 1e-6)
    level = np.fromiter(map(math.log10, drawn.ravel().tolist()), float, drawn.size)
    shades = np.rint(255 * np.clip((level + 6.0) / 6.0, 0.0, 1.0)).astype(np.uint8)
    # The cells as one 8-bit grayscale PNG (RFC 2083), the first drawn row
    # at the bottom: IHDR, one IDAT of rows each led by filter byte 0, IEND.
    ny, nx = drawn.shape
    rows = np.pad(shades.reshape(ny, nx)[::-1], ((0, 0), (1, 0)))
    png = b"\x89PNG\r\n\x1a\n"
    ihdr = nx.to_bytes(4, "big") + ny.to_bytes(4, "big") + b"\x08\0\0\0\0"
    idat = zlib.compress(rows.tobytes())
    for tag, data in ((b"IHDR", ihdr), (b"IDAT", idat), (b"IEND", b"")):
        crc = zlib.crc32(tag + data).to_bytes(4, "big")
        png += len(data).to_bytes(4, "big") + tag + data + crc
    # Each pixel spans the drawn points' step, centred on it; the half
    # pixels past the edge points are clipped to the plot.  An axis whose
    # drawn points have no extent fills the plot on that axis.
    def extent(first: float, last: float, n: int, start: int, size: int):
        step = (last - first) / max(1, n - 1)
        return (first - step / 2, n * step) if step else (start, size)

    x0, width = extent(px(float(sx[0])), px(float(sx[-1])), nx, _ML, _W - _ML - _MR)
    y0, height = extent(py(float(sy[-1])), py(float(sy[0])), ny, _MT, _H - _MT - _MB)
    # The payload percent-encoded (RFC 2397), %XX only: base64 could
    # spell "nan" or "inf", which a check for non-finite numbers rejects.
    parts = [
        f'<clipPath id="plot"><rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}"/></clipPath>',
        '<image xmlns:xlink="http://www.w3.org/1999/xlink" clip-path="url(#plot)" '
        f'x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(width)}" height="{_fmt(height)}" '
        'preserveAspectRatio="none" style="image-rendering:pixelated" '
        f'xlink:href="data:image/png,%{png.hex("%").upper()}"/>'
    ]
    for ox, oy in overlays:
        cx, cy = px(float(ox)), py(float(oy))
        # A centre past the float range in pixels lies infinitely far off
        # the plot, as a placement does beside a grid of subnormal span.
        if math.isfinite(cx) and math.isfinite(cy):
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="4" fill="none" stroke="#d62728" stroke-width="1.8"/>'
            )
    for value, anchor, x, y in (
        (x_lo, "start", _ML, _H - _MB + 16),
        (x_hi, "end", _W - _MR, _H - _MB + 16),
        (y_lo, "end", _ML - 6, _H - _MB),
        (y_hi, "end", _ML - 6, _MT + 8),
    ):
        parts.append(_label(x, y, f"{value:.5g}", anchor))
    note = "dark = |correlation| near 0 (log scale 1e-6..1)"
    return _frame(parts, "x (m)", "y (m)", [_label(_W - _MR, 14, note, "end")])
