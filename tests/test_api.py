"""The public surface: a helper that only the tests use belongs in
tests/conftest.py, so a name added to spwt.__all__ must be added here too."""

import spwt

PUBLIC = [
    "ArrayGeometry",
    "DegenerateGeometry",
    "FrameTransform",
    "InfeasibleGeometry",
    "InvalidCorrelation",
    "InvalidIndex",
    "InvalidYaw",
    "NullIndex",
    "PlacementSolution",
    "Position3D",
    "PowerConfig",
    "ScenarioConfig",
    "SpwtError",
    "SweepResult",
    "__version__",
    "canonicalize_frame",
    "correlation_map",
    "random_baseline_positions",
    "secrecy_rate",
    "solve_all",
    "solve_azimuth_scheme",
    "solve_pitch_scheme",
    "sweep_alpha",
    "sweep_snr",
]


def test_public_names_are_pinned():
    assert sorted(spwt.__all__) == PUBLIC
    assert all(hasattr(spwt, name) for name in PUBLIC)
