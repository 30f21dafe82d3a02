import math
from dataclasses import replace

import numpy as np
import pytest

from spwt import ArrayGeometry, Position3D
from conftest import (
    DimensionMismatch,
    correlation_at,
    cross_correlation,
    explicit_correlation,
    look_angles,
    make_scenario,
    steering_vector,
)

C = 299_792_458.0


def test_default_spacing_is_half_wavelength():
    geom = ArrayGeometry(4, 4, 3.0e9)
    assert geom.spacing_m == pytest.approx(C / 6.0e9, rel=1e-15)
    assert geom.phase_coef == pytest.approx(math.pi, rel=1e-15)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 4, 3.0e9)
    with pytest.raises(ValueError):
        ArrayGeometry(4, 4, -1.0)
    with pytest.raises(ValueError):
        ArrayGeometry(4, 4, 3.0e9, spacing_m=0.0)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((4, 4, math.nan), {}),
        ((4, 4, math.inf), {}),
        ((4, 4, -math.inf), {}),
        ((4, 4, math.nan), {"spacing_m": 0.05}),
        ((4, 4, math.inf), {"spacing_m": 0.05}),
        ((4, 4, 1e-305), {}),  # the default spacing overflows
        ((True, 4, 3e9), {}),
        ((4, False, 3e9), {}),
        ((4.5, 4, 3e9), {}),
        ((4.0, 4, 3e9), {}),
        ((4, "4", 3e9), {}),
        ((4, 4, 3e9), {"spacing_m": math.nan}),
        ((4, 4, 3e9), {"spacing_m": math.inf}),
        ((4, 4, 3e9), {"spacing_m": -0.05}),
    ],
)
def test_geometry_rejects_input_outside_the_model(args, kwargs):
    with pytest.raises(ValueError):
        ArrayGeometry(*args, **kwargs)


def test_geometry_accepts_numpy_integers():
    geom = ArrayGeometry(np.int64(4), np.int32(8), 3.0e9, spacing_m=0.05)
    assert (geom.m_rows, geom.n_cols, geom.spacing_m) == (4, 8, 0.05)


def test_single_element_vector():
    vec = steering_vector(ArrayGeometry(1, 1, 3.0e9), 1.234, 0.5)
    assert vec.shape == (1,)
    assert vec[0] == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_zenith_kills_all_phases():
    vec = steering_vector(ArrayGeometry(4, 4, 3.0e9), 2.1, math.pi / 2)
    assert np.allclose(vec, 0.25, atol=1e-12)


def test_second_row_element_phase():
    # boresight at zero pitch: element in row 2, column 1 sits half a
    # wavelength behind, a half-turn phase
    vec = steering_vector(ArrayGeometry(4, 4, 3.0e9), 0.0, 0.0)
    idx = 1 * 4 + 0  # row-major (m, n) = (2, 1) one-based
    assert vec[idx] == pytest.approx(-0.25 + 0.0j, abs=1e-12)


def test_unit_norm_and_entry_modulus():
    rng = np.random.default_rng(2)
    for _ in range(200):
        geom = ArrayGeometry(rng.integers(1, 9), rng.integers(1, 9), 3.0e9)
        vec = steering_vector(
            geom, rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi / 2)
        )
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        assert np.all(np.abs(np.abs(vec) - 1.0 / math.sqrt(geom.size)) <= 1e-12)


def test_self_correlation_is_one():
    vec = steering_vector(ArrayGeometry(4, 4, 3.0e9), 0.7, 0.3)
    assert cross_correlation(vec, vec) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_correlation_bounded_and_conjugate_symmetric():
    rng = np.random.default_rng(4)
    geom = ArrayGeometry(4, 4, 3.0e9)
    for _ in range(300):
        a = steering_vector(geom, rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi / 2))
        b = steering_vector(geom, rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi / 2))
        r_ab = cross_correlation(a, b)
        r_ba = cross_correlation(b, a)
        assert abs(r_ab) <= 1.0 + 1e-12
        assert r_ab == pytest.approx(r_ba.conjugate(), abs=1e-12)


def test_dimension_mismatch():
    a = steering_vector(ArrayGeometry(2, 2, 3.0e9), 0.1, 0.1)
    b = steering_vector(ArrayGeometry(4, 4, 3.0e9), 0.1, 0.1)
    with pytest.raises(DimensionMismatch):
        cross_correlation(a, b)


def test_null_at_solved_bisector_placement():
    yaw = math.pi / 4
    geom = ArrayGeometry(4, 4, 3.0e9)
    uav = Position3D(250.0, 630.4760106459247, 200.0)
    ang_b = look_angles(uav, Position3D(0, 0, 0), yaw)
    ang_e = look_angles(uav, Position3D(500, 0, 0), yaw)
    h_b = steering_vector(geom, ang_b.azimuth_rel, ang_b.pitch)
    h_e = steering_vector(geom, ang_e.azimuth_rel, ang_e.pitch)
    assert abs(cross_correlation(h_e, h_b)) <= 1e-10
    # the row factor carries the zero: M * a = -2*pi at this placement
    a = math.pi * (
        math.cos(ang_e.azimuth_rel) * math.cos(ang_e.pitch)
        - math.cos(ang_b.azimuth_rel) * math.cos(ang_b.pitch)
    )
    assert 4.0 * a == pytest.approx(-2.0 * math.pi, abs=1e-9)


def test_equal_look_angles_correlate_fully():
    # A transmitter on the ground axis beyond the eavesdropper sees both
    # nodes under the same azimuth and a zero pitch, so the two steering
    # vectors coincide; correlation_at binds the kernel at its unchecked
    # height of 0, where both slant ranges are still nonzero.
    sc = make_scenario(yaw=0.37)
    uav = Position3D(1000.0, 0.0, 0.0)
    assert explicit_correlation(sc, uav) == pytest.approx(1.0, abs=1e-12)
    assert correlation_at(sc, [uav])[0] == pytest.approx(1.0, abs=1e-12)


def test_full_turn_increment_hits_removable_singularity():
    # Opposite boresight directions at zero pitch on a 2x2 grid step the
    # row phase by a full turn, so the factor sits at its maximum and the
    # correlation is 1, not 0: a full-dimension step is never a null index.
    geom = ArrayGeometry(2, 2, 3.0e9)
    h_b = steering_vector(geom, 0.0, 0.0)
    h_e = steering_vector(geom, math.pi, 0.0)
    assert cross_correlation(h_e, h_b) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    # the same directions from a transmitter on the ground between the nodes
    sc = make_scenario(m=2, n=2, yaw=0.0)
    at = correlation_at(sc, [Position3D(250.0, 0.0, 0.0)])
    assert at[0] == pytest.approx(1.0, abs=1e-12)


def test_factored_kernel_matches_direct_sum():
    # 100 random scenarios, 50 transmitters each at altitudes from 1 cm to
    # 100 km, so both pitches span (0, pi/2); spacing random around lambda/2
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        sc = replace(
            make_scenario(x_e=float(rng.uniform(50.0, 1000.0)),
                          yaw=float(rng.uniform(0.0, 2.0 * math.pi))),
            array=ArrayGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                                3.0e9, float(rng.uniform(0.02, 0.1))),
        )
        xs, ys = rng.uniform(-2000.0, 2000.0, (2, 50))
        zs = 10.0 ** rng.uniform(-2.0, 5.0, 50)
        uavs = [Position3D(*p) for p in zip(xs.tolist(), ys.tolist(), zs.tolist())]
        for got, uav in zip(correlation_at(sc, uavs), uavs):
            worst = max(worst, abs(got - explicit_correlation(sc, uav)))
    assert worst <= 1e-10


def test_null_condition_soundness():
    # equal pitches with the row-axis phase step at 2*pi*k/M for k not a
    # multiple of M must null the correlation
    rng = np.random.default_rng(9)
    geom = ArrayGeometry(4, 4, 3.0e9)
    for k in (1, 2, 3, 5):
        for _ in range(50):
            pitch = rng.uniform(0.0, 1.4)
            cos_pitch = math.cos(pitch)
            az_b = rng.uniform(0, 2 * math.pi)
            # choose the second azimuth so cos(az_e) - cos(az_b) = 2k/(M cos_pitch)
            delta = 2.0 * k / (4.0 * cos_pitch)
            target = math.cos(az_b) - delta  # walk downward to stay in [-1, 1]
            if abs(target) > 1.0:
                continue
            az_e = math.acos(target)
            rho = cross_correlation(
                steering_vector(geom, az_e, pitch), steering_vector(geom, az_b, pitch)
            )
            assert abs(rho) <= 1e-10
