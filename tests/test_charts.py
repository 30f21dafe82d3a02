import hashlib
import re
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spwt.charts import _scales, render_heatmap, render_line_chart
from conftest import heatmap_image, heatmap_shade

# Doubles next to a shade boundary at which numpy's log10 (AVX-512 build)
# and math.log10 round to different grey levels.
_SPLIT_LEVEL = (
    1.0846612314544057e-06, 3.981071705534973e-06, 1.3111339374215644e-05,
    3.1197345819126156e-05, 0.00010274594854461795, 0.0005219718220435649,
    0.003119734581912624, 0.01766277039966444, 0.14611872781107474,
    0.38746751204561325,
)
# Values whose level sits half-way between two grey levels.
_BOUNDARIES = tuple(10.0 ** (6.0 * (k + 0.5) / 255.0 - 6.0) for k in range(255))
_SPECIAL = (0.0, 1e-7, 1e-6, 1.0, 1.5, *_SPLIT_LEVEL, *_BOUNDARIES)
# Below 200 cells per axis every cell is drawn; above, every stride-th.
_AXIS = st.one_of(st.integers(1, 12), st.integers(201, 450))


@given(nx=_AXIS, ny=_AXIS, seed=st.integers(0, 2**32 - 1))
def test_heatmap_shades_equal_per_cell_formula(nx, ny, seed):
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-8.0, 0.2, (ny, nx))
    special = rng.random((ny, nx)) < 0.5
    values[special] = rng.choice(_SPECIAL, int(special.sum()))
    xs = np.linspace(-100.0, 100.0, nx)
    ys = np.linspace(-50.0, 150.0, ny)
    # the caller passes the drawn cells only
    stride = max(1, -(-nx // 200), -(-ny // 200))
    drawn = values[::stride, ::stride]
    svg = render_heatmap(xs, ys, drawn, overlays=[(0.0, 0.0)])

    (x, y, width, height), pixels = heatmap_image(svg)
    want = [[heatmap_shade(v) for v in row] for row in drawn]
    # the first drawn row is the image's bottom row, the first column its left
    assert pixels[::-1].tolist() == want
    # each pixel is centred on its grid point: the corner pixels on the
    # first and last drawn points (the coordinates carry two decimals); an
    # axis of one drawn point fills the plot on that axis
    px, py = _scales(xs[0], xs[-1], ys[0], ys[-1])
    ny, nx = pixels.shape
    sx, sy = xs[::stride], ys[::stride]
    half_w, half_h = width / nx / 2, height / ny / 2
    if nx > 1:
        assert x + half_w == pytest.approx(px(sx[0]), abs=0.02)
        assert x + width - half_w == pytest.approx(px(sx[-1]), abs=0.02)
    else:
        assert (x, width) == (62.0, 562.0)
    if ny > 1:
        assert y + height - half_h == pytest.approx(py(sy[0]), abs=0.02)
        assert y + half_h == pytest.approx(py(sy[-1]), abs=0.02)
    else:
        assert (y, height) == (20.0, 354.0)


def test_heatmap_shades_of_the_clamp_ends():
    values = np.array([[0.0, 1e-6, 1.0, 2.0, np.inf, np.nan]])
    _, pixels = heatmap_image(render_heatmap(np.arange(6.0), np.zeros(1), values, []))
    assert pixels.tolist() == [[0, 0, 255, 255, 255, 0]]
    assert [heatmap_shade(v) for v in values[0]] == [0, 0, 255, 255, 255, 0]


@pytest.mark.parametrize("x", [1e17, -1e17, 1e300])
def test_one_point_line_chart_is_finite(x):
    # a one-point x range is widened by a step that moves x at its size;
    # +/-1 rounds away from |x| >= 2^53 and left a zero span to divide by
    svg = render_line_chart([x], {"a": [1.0]}, "x", "y", "t")
    assert not re.search(r"nan|inf", svg)


# Finite floats, with the ends of the float range drawn often: spans up to
# twice the range, and series up to its top.
_HUGE = (1e308, 1.7976931348623157e308)
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (*_HUGE, *(-v for v in _HUGE))
)
_RATE = st.floats(0.0, allow_infinity=False) | st.sampled_from(_HUGE)
_RATES = st.lists(_RATE, min_size=1, max_size=16)


@given(xs=st.lists(_FINITE, min_size=1, max_size=16), rows=st.lists(_RATES, max_size=3))
def test_line_chart_of_finite_values_is_finite(xs, rows):
    series = {f"s{i}": row for i, row in enumerate(rows)}
    assert not re.search(r"nan|inf", render_line_chart(xs, series, "x", "y", "t"))


# The axis of `--grid=1e-320:1e-319:1e-320`, and the reference config's four
# placements, hundreds of meters off it: each circle's centre maps past the
# float range in pixels.
_SUBNORMAL_AXIS = [1e-320 + i * 1e-320 for i in range(10)]
_REFERENCE_PLACEMENTS = [
    (250.0, 630.476010646), (250.0, -630.476010646),
    (-47.7527307062, 0.0), (547.752730706, 0.0),
]


@example(
    xs=_SUBNORMAL_AXIS, ys=_SUBNORMAL_AXIS, cells=[0.0588395470493],
    overlays=_REFERENCE_PLACEMENTS,
)
@given(
    xs=st.lists(_FINITE, min_size=1, max_size=6).map(sorted),
    ys=st.lists(_FINITE, min_size=1, max_size=6).map(sorted),
    cells=_RATES,
    overlays=st.lists(st.tuples(_FINITE, _FINITE), max_size=4),
)
def test_heatmap_of_finite_values_is_finite(xs, ys, cells, overlays):
    # grid axes ascend; the overlays sit anywhere finite, the grid's corners
    # among them
    values = np.resize(np.array(cells), (len(ys), len(xs)))
    corners = [(xs[0], ys[0]), (xs[-1], ys[-1])]
    svg = render_heatmap(xs, ys, values, overlays=corners + overlays)
    assert not re.search(r"nan|inf", svg)


def test_descending_heatmap_axis_draws_on_the_plot():
    # the first value of an axis sits at its left (or bottom) end whichever
    # way the axis runs: reversing an axis, with the values that go with
    # it, keeps the image's extent and flips its pixels along that axis
    values = np.array([[0.5, 1e-3, 1e-5], [1.0, 0.1, 1e-6]])
    box, pixels = heatmap_image(
        render_heatmap([0.0, 5.0, 10.0], [0.0, 1.0], values, [])
    )
    box_x, flip_x = heatmap_image(
        render_heatmap([10.0, 5.0, 0.0], [0.0, 1.0], values[:, ::-1], [])
    )
    box_y, flip_y = heatmap_image(
        render_heatmap([0.0, 5.0, 10.0], [1.0, 0.0], values[::-1], [])
    )
    assert box_x == box == box_y == (-78.5, -157.0, 843.0, 708.0)
    # that extent overhangs the page; the image is clipped to the plot,
    # 62..624 x 20..374, where the axes run
    page = minidom.parseString(render_heatmap([0.0, 5.0, 10.0], [0.0, 1.0], values, []))
    (clip,) = page.getElementsByTagName("clipPath")
    (rect,) = clip.getElementsByTagName("rect")
    (image,) = page.getElementsByTagName("image")
    assert image.getAttribute("clip-path") == f"url(#{clip.getAttribute('id')})"
    plot = [float(rect.getAttribute(k)) for k in ("x", "y", "width", "height")]
    assert plot == [62.0, 20.0, 562.0, 354.0]
    assert flip_x.tolist() == pixels[:, ::-1].tolist()
    assert flip_y.tolist() == pixels[::-1].tolist()
    assert len(set(pixels.ravel().tolist())) == values.size
    # an axis whose drawn points have no extent fills the plot on that axis,
    # and the other axis keeps its extent
    one, _ = heatmap_image(render_heatmap([0.0], [0.0], [[0.5]], []))
    assert one == (62.0, 20.0, 562.0, 354.0)
    one_x, _ = heatmap_image(render_heatmap([0.0], [0.0, 1.0], values[:, :1], []))
    one_y, _ = heatmap_image(render_heatmap([0.0, 5.0, 10.0], [0.0], values[:1], []))
    assert one_x == (62.0, -157.0, 562.0, 708.0)
    assert one_y == (-78.5, 20.0, 843.0, 354.0)
    huge = [1e308, -1e308]
    svg = render_heatmap(huge, huge, np.ones((2, 2)), overlays=[(0.0, 0.0)])
    assert not re.search(r"nan|inf", svg)


def test_labels_titles_and_series_names_are_escaped():
    # &, < and > in any text the caller passes stay character data: the
    # page parses as XML and reads back the caller's strings
    def texts(svg):
        return [
            node.firstChild.data
            for node in minidom.parseString(svg).getElementsByTagName("text")
        ]

    series = {"a<b & c": [1.0, 2.0]}
    line = render_line_chart([0, 1], series, "x < 1", "y>0", title="T&C")
    assert {"T&C", "a<b & c", "x < 1", "y>0"} <= set(texts(line))
    # an entity already in a name is escaped again, not passed through
    assert "&amp;amp;" in render_line_chart([0], {"&amp;": [1.0]}, "x", "y", "t")


_TOP = 1.7976931348623157e308


# Branches the golden SVGs do not reach, pinned byte for byte: a sweep of
# more than 12 x values (six computed x ticks), a one-point x axis (widened
# about its value), axes past the float range (measured in 1/16 units) with
# names to escape, and a heatmap with one circle drawn and one at x = 1e308
# left out.
@pytest.mark.parametrize(
    "draw, digest",
    [
        pytest.param(
            lambda: render_line_chart(
                range(13),
                {"a": [i / 2 for i in range(13)], "theory": [i / 3 for i in range(13)]},
                "x", "y", "t",
            ),
            "efc93e5becf9586e986ba9a7fa6aad724617411fdf5d2e8cd8f3367f3d8e0d60",
            id="thirteen-x-values",
        ),
        pytest.param(
            lambda: render_line_chart([3.0], {"a": [2.0]}, "x", "y", "t"),
            "9788749d2787177132cd6e4098645e53ce95c1f4ce756176efa93294c4d2aa03",
            id="one-x-value",
        ),
        pytest.param(
            lambda: render_line_chart(
                [-_TOP, 0.0, _TOP], {"a<b & c": [_TOP, 1.0, 1e308]},
                "x < 1 & y", "y <= 2", "T & <C>",
            ),
            "0422b666515dd8c0baa2896258c0df9ece29cb9e7b61688c8bff521be54717dc",
            id="past-the-float-range",
        ),
        pytest.param(
            lambda: render_heatmap(
                np.linspace(-100.0, 100.0, 5), np.linspace(-50.0, 50.0, 3),
                np.array([[1e-7, 1e-3, 0.5, 1.0, 0.2]] * 3),
                [(10.0, 5.0), (1e308, 0.0)],
            ),
            "b0dcd65d3f8d186cd704179af15bf2b8eb311eb433c2a9b47170a84feca13db4",
            id="heatmap-overlay-off-the-float-range",
        ),
    ],
)
def test_chart_bytes_are_pinned(draw, digest):
    assert hashlib.sha256(draw().encode()).hexdigest() == digest
