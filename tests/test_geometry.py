import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from spwt import Position3D, ScenarioConfig, solve_all
from spwt.geometry import canonicalize_frame
from conftest import (
    DegenerateGeometry,
    look_angles,
    make_scenario,
    midpoint_symmetry_check,
)

YAW = math.pi / 4.0


def test_reference_angles_toward_receiver():
    # transmitter at the solved bisector placement, receiver at the origin
    ang = look_angles(Position3D(250.0, 630.476, 200.0), Position3D(0, 0, 0), YAW)
    assert math.cos(ang.azimuth) == pytest.approx(0.36860, abs=1e-5)
    assert math.sin(ang.azimuth) == pytest.approx(0.92959, abs=1e-5)
    assert math.sin(ang.pitch) == pytest.approx(0.28284, abs=1e-5)
    # frozen full-precision values from the coordinate ratios
    assert math.cos(ang.azimuth) == pytest.approx(0.3686048957656691, abs=1e-9)
    assert math.sin(ang.azimuth) == pytest.approx(0.929586161051024, abs=1e-9)
    assert math.sin(ang.pitch) == pytest.approx(0.2828427162714997, abs=1e-9)


def test_positive_x_axis_gives_zero_azimuth():
    ang = look_angles(Position3D(100.0, 0.0, 200.0), Position3D(0, 0, 0), YAW)
    assert ang.azimuth == 0.0
    assert math.cos(ang.azimuth) == 1.0 and math.sin(ang.azimuth) == 0.0


def test_bisector_equalizes_pitch():
    for y in (1.0, -3.5, 630.476, 2000.0):
        b = look_angles(Position3D(250.0, y, 200.0), Position3D(0, 0, 0), YAW)
        e = look_angles(Position3D(250.0, y, 200.0), Position3D(500, 0, 0), YAW)
        assert b.pitch == e.pitch  # same operands, exact


def test_pitch_range_and_trig_consistency():
    rng = np.random.default_rng(3)
    for _ in range(300):
        uav = Position3D(rng.uniform(-800, 800), rng.uniform(-800, 800),
                         rng.uniform(10, 500))
        target = Position3D(rng.uniform(-800, 800), rng.uniform(-800, 800), 0.0)
        if math.hypot(uav.x - target.x, uav.y - target.y) < 1e-6:
            continue
        ang = look_angles(uav, target, rng.uniform(0, 2 * math.pi))
        assert 0.0 <= ang.azimuth < 2 * math.pi
        assert 0.0 <= ang.pitch <= math.pi / 2
        assert math.sin(ang.azimuth) ** 2 + math.cos(ang.azimuth) ** 2 == pytest.approx(1.0, abs=1e-12)
        # azimuth matches the coordinate ratios
        horiz = math.hypot(uav.x - target.x, uav.y - target.y)
        assert math.cos(ang.azimuth) == pytest.approx((uav.x - target.x) / horiz, abs=1e-12)
        assert math.sin(ang.azimuth) == pytest.approx((uav.y - target.y) / horiz, abs=1e-12)
        assert math.sin(ang.pitch) == pytest.approx(
            uav.z / math.hypot(horiz, uav.z), abs=1e-12
        )


def test_azimuth_rel_inverts_yaw():
    rng = np.random.default_rng(11)
    for _ in range(200):
        yaw = rng.uniform(0, 2 * math.pi)
        ang = look_angles(
            Position3D(rng.uniform(-500, 500), rng.uniform(-500, 500), 150.0),
            Position3D(0, 0, 0),
            yaw,
        )
        back = (ang.azimuth_rel + yaw) % (2 * math.pi)
        diff = (back - ang.azimuth + math.pi) % (2 * math.pi) - math.pi
        assert abs(diff) < 1e-12


def test_pitch_monotone_in_altitude_and_offset():
    # fixed horizontal range: higher flight, steeper pitch
    pitches = [
        look_angles(Position3D(300, 0, g), Position3D(0, 0, 0), 0.0).pitch
        for g in (50, 100, 200, 400)
    ]
    assert all(a < b for a, b in zip(pitches, pitches[1:]))
    # fixed altitude: larger |y| offset, flatter path toward the far node
    cos_pitch = [
        math.cos(look_angles(Position3D(250, y, 200), Position3D(500, 0, 0), 0.0).pitch)
        for y in (0.0, 100.0, 400.0, 1200.0)
    ]
    assert all(a < b for a, b in zip(cos_pitch, cos_pitch[1:]))


def test_overhead_is_degenerate():
    with pytest.raises(DegenerateGeometry):
        look_angles(Position3D(0.0, 0.0, 200.0), Position3D(0, 0, 0), YAW)
    with pytest.raises(DegenerateGeometry):
        look_angles(Position3D(1e-10, 0.0, 200.0), Position3D(0, 0, 0), YAW)


def test_midpoint_symmetry_check():
    bob = Position3D(0, 0, 0)
    eve = Position3D(500, 0, 0)
    assert midpoint_symmetry_check(Position3D(250, 630.476, 200), bob, eve)
    assert midpoint_symmetry_check(Position3D(250, -77.0, 200), bob, eve)
    assert not midpoint_symmetry_check(Position3D(100, 50, 200), bob, eve)
    # on-axis midpoint: the mirror condition holds degenerately
    assert midpoint_symmetry_check(Position3D(250, 0, 200), bob, eve)


def test_canonicalize_identity():
    tf = canonicalize_frame(Position3D(0, 0, 0), Position3D(500, 0, 0))
    assert tf.shift_x == 0.0 and tf.shift_y == 0.0 and tf.c == 1.0 and tf.s == 0.0
    assert tf.to_canonical(12.0, -9.0) == (12.0, -9.0)


def test_canonicalize_axis_aligned():
    tf = canonicalize_frame(Position3D(10, 10, 0), Position3D(10, 510, 0))
    assert tf.shift_x == -10.0 and tf.shift_y == -10.0
    # a quarter turn clockwise: cos and sin of -pi/2
    assert tf.c == pytest.approx(0.0, abs=1e-15)
    assert tf.s == pytest.approx(-1.0, abs=1e-15)
    eve_x, eve_y = tf.to_canonical(10.0, 510.0)
    assert eve_x == pytest.approx(500.0, abs=1e-12)
    assert eve_y == pytest.approx(0.0, abs=1e-12)


def test_canonicalize_round_trip():
    rng = np.random.default_rng(5)
    tf = canonicalize_frame(Position3D(-40.0, 12.0, 0), Position3D(333.0, -80.0, 0))
    for _ in range(100):
        x, y = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
        qx, qy = tf.from_canonical(*tf.to_canonical(x, y))
        assert abs(qx - x) <= 1e-12 * max(1.0, abs(x))
        assert abs(qy - y) <= 1e-12 * max(1.0, abs(y))


@pytest.mark.parametrize(
    "bob, eve, message",
    [
        (Position3D(5, 5), Position3D(5, 5), "ground nodes coincide; no axis to align"),
        (
            Position3D(-1e308, 0),
            Position3D(1e308, 0),
            "ground nodes too far apart; their separation overflows the float range",
        ),
    ],
    ids=["coincide", "overflow"],
)
def test_scenario_rejects_a_ground_pair_with_no_frame(bob, eve, message):
    # each node is finite, but one pair is closer than 1e-9 m and the other's
    # x_e = 2e308 m is not: neither has a solving frame, so no scenario holds
    # either pair, whether built afresh or replaced into a valid one
    base = make_scenario()
    for build in (
        lambda: ScenarioConfig(**{**vars(base), "bob": bob, "eve": eve}),
        lambda: replace(base, bob=bob, eve=eve),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_position_rejects_non_finite(field, value):
    # a nan node used to surface only as failed-verification warnings
    coords = [12.0, -9.0, 77.0]
    coords[field] = value
    with pytest.raises(ValueError, match="coordinates must be finite"):
        Position3D(*coords)


def test_frame_maps_give_ordinary_positions():
    # certification builds each placement past the check from the pair of
    # floats from_canonical gives; in a turned frame those positions still
    # compare, hash and print as the positions the constructor builds
    bob, eve = Position3D(-40.0, 12.0), Position3D(333.0, -80.0)
    tf = canonicalize_frame(bob, eve)
    assert all(type(v) is float for v in (*tf.to_canonical(1, 2), *tf.from_canonical(1, 2)))
    solutions = solve_all(replace(make_scenario(), bob=bob, eve=eve))[0]
    assert solutions
    for p in (s.position for s in solutions):
        built = Position3D(p.x, p.y, p.z)
        assert type(p) is Position3D and all(type(v) is float for v in (p.x, p.y, p.z))
        assert (p, hash(p), repr(p)) == (built, hash(built), repr(built))


_COORDS = st.floats(-1e6, 1e6)


@given(
    bob=st.tuples(_COORDS, _COORDS),
    eve=st.tuples(_COORDS, _COORDS),
    xs=st.lists(_COORDS, min_size=1, max_size=4),
    ys=st.lists(_COORDS, min_size=1, max_size=4),
)
def test_frame_maps_agree_on_floats_and_arrays_and_invert(bob, eve, xs, ys):
    # certification and the baselines pass floats, the map a chunk's row of
    # x and column of y as arrays that broadcast: each point gets the same
    # bits either way, and each map undoes the other to a few ulps of the
    # span, the largest coordinate or shift involved (24 million random
    # points were at most 7 ulps off)
    assume(math.hypot(eve[0] - bob[0], eve[1] - bob[1]) >= 1e-6)
    tf = canonicalize_frame(Position3D(*bob), Position3D(*eve))
    row, column = np.array(xs)[None, :], np.array(ys)[:, None]
    for forward in (tf.to_canonical, tf.from_canonical):
        floats = np.array([[forward(x, y) for x in xs] for y in ys])
        arrays = np.stack(forward(row, column), axis=-1)
        assert floats.tobytes() == arrays.tobytes()
    for x in xs:
        for y in ys:
            back = tf.from_canonical(*tf.to_canonical(x, y))
            span = max(abs(x), abs(y), abs(tf.shift_x), abs(tf.shift_y))
            assert max(abs(back[0] - x), abs(back[1] - y)) <= 16.0 * math.ulp(span)
