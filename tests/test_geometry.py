import math

import numpy as np
import pytest

from spwt import DegenerateGeometry, Position3D
from spwt.geometry import canonicalize_frame
from conftest import look_angles, midpoint_symmetry_check

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
    assert tf.shift_x == 0.0 and tf.shift_y == 0.0 and tf.rotation == 0.0
    p = tf.to_canonical(Position3D(12.0, -9.0, 77.0))
    assert (p.x, p.y, p.z) == (12.0, -9.0, 77.0)


def test_canonicalize_axis_aligned():
    tf = canonicalize_frame(Position3D(10, 10, 0), Position3D(10, 510, 0))
    assert tf.shift_x == -10.0 and tf.shift_y == -10.0
    assert tf.rotation == pytest.approx(-math.pi / 2, abs=1e-15)
    eve_c = tf.to_canonical(Position3D(10, 510, 0))
    assert eve_c.x == pytest.approx(500.0, abs=1e-12)
    assert eve_c.y == pytest.approx(0.0, abs=1e-12)


def test_canonicalize_round_trip():
    rng = np.random.default_rng(5)
    tf = canonicalize_frame(Position3D(-40.0, 12.0, 0), Position3D(333.0, -80.0, 0))
    for _ in range(100):
        p = Position3D(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3),
                       rng.uniform(0, 500))
        q = tf.from_canonical(tf.to_canonical(p))
        assert abs(q.x - p.x) <= 1e-12 * max(1.0, abs(p.x))
        assert abs(q.y - p.y) <= 1e-12 * max(1.0, abs(p.y))
        assert q.z == p.z


def test_canonicalize_rejects_coincident_nodes():
    with pytest.raises(DegenerateGeometry):
        canonicalize_frame(Position3D(5, 5, 0), Position3D(5, 5, 0))


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_position_rejects_non_finite(field, value):
    # a nan node used to surface only as failed-verification warnings
    coords = [12.0, -9.0, 77.0]
    coords[field] = value
    with pytest.raises(ValueError, match="coordinates must be finite"):
        Position3D(*coords)


def test_frame_maps_give_ordinary_positions():
    # the maps build their points past the check; they still compare, hash
    # and print as the positions the constructor builds
    tf = canonicalize_frame(Position3D(-40.0, 12.0), Position3D(333.0, -80.0))
    point = Position3D(1.0, 2.0, 3.0)
    for p in (tf.to_canonical(point), tf.from_canonical(point)):
        built = Position3D(p.x, p.y, p.z)
        assert type(p) is Position3D
        assert (p, hash(p), repr(p)) == (built, hash(built), repr(built))
