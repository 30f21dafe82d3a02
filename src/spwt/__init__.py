"""Secure directional transmission from an airborne planar array.

The package models a rectangular antenna array whose confidential beam
targets one ground receiver while artificial noise fills the complement,
then solves for transmitter positions that drive the receiver/eavesdropper
steering-vector correlation to zero, which pins the eavesdropper's SINR at
zero and lets the secrecy rate reach the interception-free bound without
spending power on noise.

``import spwt`` loads no submodule: each public name is imported from its
home module on first access (PEP 562), so a command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The public names of each module, read from it on first access.
_EXPORTS = {
    "errors": ("InfeasibleGeometry", "InvalidCorrelation", "SpwtError"),
    "experiments": ("SweepResult", "sweep_alpha", "sweep_snr"),
    "placement": (
        "PlacementSolution", "correlation_map", "solve_all",
        "solve_azimuth_scheme", "solve_pitch_scheme",
    ),
    "scenario": ("ArrayGeometry", "PowerConfig", "Position3D", "ScenarioConfig"),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
