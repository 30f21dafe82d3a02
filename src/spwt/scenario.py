"""Scenario container shared by the solvers, the sweeps and the CLI."""

import math
import numbers
from dataclasses import dataclass

from .arrays import ArrayGeometry
from .geometry import Position3D
from .signalmodel import PowerConfig


@dataclass(frozen=True)
class ScenarioConfig:
    """One complete study setup.

    ``bob`` is the intended receiver, ``eve`` the eavesdropper; both must sit
    on the ground (z = 0, checked here).  ``yaw`` is the transmitter heading
    measured from the receiver-to-eavesdropper axis.  ``seed`` drives the one
    randomized part of a run, the baseline draws.
    """

    array: ArrayGeometry
    bob: Position3D
    eve: Position3D
    uav_height_m: float
    yaw: float
    power: PowerConfig
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.uav_height_m) and self.uav_height_m > 0.0):
            raise ValueError("platform height must be finite and positive")
        if self.bob.z or self.eve.z:  # the kernel and null equations assume it
            raise ValueError("the placement schemes need both ground nodes at z = 0")
        if not math.isfinite(self.yaw):
            raise ValueError("yaw must be finite")
        # numpy integers pass, as ArrayGeometry's counts do.
        seed = self.seed
        integral = isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
        if not (integral and seed >= 0):
            raise ValueError("seed must be a non-negative integer")
