"""Secure directional transmission from an airborne planar array.

The package models a rectangular antenna array whose confidential beam
targets one ground receiver while artificial noise fills the complement,
then solves for transmitter positions that drive the receiver/eavesdropper
steering-vector correlation to zero, which pins the eavesdropper's SINR at
zero and lets the secrecy rate reach the interception-free bound without
spending power on noise.
"""

__version__ = "0.1.0"

from .arrays import ArrayGeometry
from .errors import (
    DegenerateGeometry,
    InfeasibleGeometry,
    InvalidCorrelation,
    InvalidIndex,
    InvalidYaw,
    SpwtError,
)
from .experiments import (
    SweepResult,
    random_baseline_positions,
    sweep_alpha,
    sweep_snr,
)
from .geometry import (
    FrameTransform,
    Position3D,
    canonicalize_frame,
)
from .placement import (
    NullIndex,
    PlacementSolution,
    correlation_map,
    solve_all,
    solve_azimuth_scheme,
    solve_pitch_scheme,
)
from .scenario import ScenarioConfig
from .signalmodel import (
    LinkMetrics,
    PowerConfig,
    evaluate_link,
    secrecy_rate,
    sinr_bob,
    sinr_eve_analytic,
)

__all__ = [
    "__version__",
    "ArrayGeometry",
    "DegenerateGeometry",
    "FrameTransform",
    "InfeasibleGeometry",
    "InvalidCorrelation",
    "InvalidIndex",
    "InvalidYaw",
    "LinkMetrics",
    "NullIndex",
    "PlacementSolution",
    "Position3D",
    "PowerConfig",
    "ScenarioConfig",
    "SpwtError",
    "SweepResult",
    "canonicalize_frame",
    "correlation_map",
    "evaluate_link",
    "random_baseline_positions",
    "secrecy_rate",
    "sinr_bob",
    "sinr_eve_analytic",
    "solve_all",
    "solve_azimuth_scheme",
    "solve_pitch_scheme",
    "sweep_alpha",
    "sweep_snr",
]
