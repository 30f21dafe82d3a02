"""The public surface: a helper that only the tests use belongs in
tests/conftest.py, so a name added to spwt.__all__ must be added here too."""

import sys

import pytest

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
    "solve_all",
    "solve_azimuth_scheme",
    "solve_pitch_scheme",
    "sweep_alpha",
    "sweep_snr",
]


def test_public_names_are_pinned():
    assert sorted(spwt.__all__) == PUBLIC
    assert all(hasattr(spwt, name) for name in PUBLIC)


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(spwt))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from spwt import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


@pytest.mark.parametrize("name", [n for n in PUBLIC if n != "__version__"])
def test_each_name_is_the_object_its_home_module_defines(name):
    value = getattr(spwt, name)
    assert value.__module__.startswith("spwt.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        spwt.no_such_name
