import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spwt.charts import render_heatmap, render_line_chart
from conftest import heatmap_shade

_FILL = re.compile(r'^<rect x="[^"]*" y="[^"]*" width="[^"]*" height="[^"]*" '
                   r'fill="rgb\((\d+),\1,\1\)"/>$')
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
    svg = render_heatmap(xs, ys, values, overlays=[(0.0, 0.0)])

    stride = max(1, -(-nx // 200), -(-ny // 200))
    want = [heatmap_shade(v) for row in values[::stride, ::stride] for v in row]
    cells = [line for line in svg.splitlines() if line.startswith("<rect x=")]
    got = [int(_FILL.match(line).group(1)) for line in cells]
    assert got == want


def test_heatmap_shades_of_the_clamp_ends():
    values = np.array([[0.0, 1e-6, 1.0, 2.0, np.inf, np.nan]])
    svg = render_heatmap(np.arange(6.0), np.zeros(1), values)
    fills = re.findall(r'fill="rgb\((\d+),', svg)
    assert fills == ["0", "0", "255", "255", "255", "0"]
    assert [heatmap_shade(v) for v in values[0]] == [0, 0, 255, 255, 255, 0]


@pytest.mark.parametrize("x", [1e17, -1e17, 1e300])
def test_one_point_line_chart_is_finite(x):
    # a one-point x range is widened by a step that moves x at its size;
    # +/-1 rounds away from |x| >= 2^53 and left a zero span to divide by
    svg = render_line_chart([x], {"a": [1.0]}, "x", "y")
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
    assert not re.search(r"nan|inf", render_line_chart(xs, series, "x", "y"))


@given(
    xs=st.lists(_FINITE, min_size=1, max_size=6).map(sorted),
    ys=st.lists(_FINITE, min_size=1, max_size=6).map(sorted),
    cells=_RATES,
)
def test_heatmap_of_finite_values_is_finite(xs, ys, cells):
    # grid axes ascend; the overlays sit on the grid's corners
    values = np.resize(np.array(cells), (len(ys), len(xs)))
    svg = render_heatmap(xs, ys, values, overlays=[(xs[0], ys[0]), (xs[-1], ys[-1])])
    assert not re.search(r"nan|inf", svg)


def test_descending_heatmap_axis_draws_on_the_plot():
    # the first value of an axis sits at its left (or bottom) end whichever
    # way the axis runs, so reversing the axis keeps every cell on the plot
    def cell_xs(xs):
        svg = render_heatmap(xs, [0.0, 1.0], np.ones((2, 3)))
        return [float(x) for x in re.findall(r'<rect x="([-0-9.]+)"', svg)[:3]]

    assert cell_xs([10.0, 5.0, 0.0]) == cell_xs([0.0, 5.0, 10.0])
    assert cell_xs([10.0, 5.0, 0.0]) == [-31.92, 249.08, 530.08]
    huge = [1e308, -1e308]
    svg = render_heatmap(huge, huge, np.ones((2, 2)), overlays=[(0.0, 0.0)])
    assert not re.search(r"nan|inf", svg)


def test_labels_titles_and_series_names_are_escaped():
    # &, < and > in any text the caller passes stay character data: both
    # pages parse as XML and read back the caller's strings
    from xml.dom import minidom

    def texts(svg):
        return [
            node.firstChild.data
            for node in minidom.parseString(svg).getElementsByTagName("text")
        ]

    series = {"a<b & c": [1.0, 2.0]}
    line = render_line_chart([0, 1], series, "x < 1", "y>0", title="T&C")
    assert {"T&C", "a<b & c", "x < 1", "y>0"} <= set(texts(line))
    heat = render_heatmap([0.0, 1.0], [0.0, 1.0], np.ones((2, 2)), (), "x&y", "<z>")
    assert {"x&y", "<z>"} <= set(texts(heat))
    # an entity already in a name is escaped again, not passed through
    assert "&amp;amp;" in render_line_chart([0], {"&amp;": [1.0]}, "x", "y")
