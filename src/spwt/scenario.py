"""Scenario container shared by the solvers, the sweeps and the CLI."""

from dataclasses import dataclass

from .arrays import ArrayGeometry
from .geometry import Position3D
from .signalmodel import PowerConfig


@dataclass(frozen=True)
class ScenarioConfig:
    """One complete study setup.

    ``bob`` is the intended receiver, ``eve`` the eavesdropper; both sit on
    the ground (z = 0).  ``yaw`` is the transmitter heading measured from the
    receiver-to-eavesdropper axis.  ``bandwidth_hz`` is carried for reporting
    only; all rates are per hertz.  ``seed`` drives the one randomized part
    of a run, the baseline draws.
    """

    array: ArrayGeometry
    bob: Position3D
    eve: Position3D
    uav_height_m: float
    yaw: float
    power: PowerConfig
    bandwidth_hz: float = 5.0e6
    seed: int = 0
