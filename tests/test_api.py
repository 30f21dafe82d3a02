"""The public surface: a helper that only the tests use belongs in
tests/conftest.py, so a name added to spwt.__all__ must be added here too."""

import inspect
import re
import sys
from pathlib import Path

import pytest

import spwt

PUBLIC = [
    "ArrayGeometry",
    "InfeasibleGeometry",
    "InvalidCorrelation",
    "PlacementSolution",
    "Position3D",
    "PowerConfig",
    "ScenarioConfig",
    "SpwtError",
    "SweepResult",
    "__version__",
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


def test_version_is_the_one_pyproject_declares():
    # `spwt --version` and each manifest's tool_version print __version__,
    # pip's metadata reads pyproject.toml; a regex, as Python 3.10 has no tomllib
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)[1]
    (version,) = re.findall(r'^version\s*=\s*"([^"]*)"$', project, re.M)
    assert version == spwt.__version__


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        spwt.no_such_name


# Each public callable's parameters, in order, as (name, default), with
# inspect.Parameter.empty for one that has none.
_NONE = inspect.Parameter.empty
SIGNATURES = {
    "correlation_map": [("scenario", _NONE), ("xs", _NONE), ("ys", _NONE)],
    "solve_all": [("scenario", _NONE), ("schemes", ("azimuth", "pitch"))],
    "solve_azimuth_scheme": [("scenario", _NONE), ("index", 1)],
    "solve_pitch_scheme": [("scenario", _NONE), ("index", 1), ("side", "left")],
    "sweep_alpha": [
        ("scenario", _NONE), ("snr_db", 15.0), ("alpha_grid", None), ("scheme", "azimuth"),
    ],
    "sweep_snr": [("scenario", _NONE), ("scheme", "azimuth"), ("snr_db_grid", None)],
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_public_callables_parameters_are_pinned(name):
    params = inspect.signature(getattr(spwt, name)).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[name]
