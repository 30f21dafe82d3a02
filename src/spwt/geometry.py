"""The canonical solving frame.

Solvers work in a canonical frame with the intended receiver at the origin
and the eavesdropper on the positive x axis; ``canonicalize_frame`` builds
the rigid transform taking arbitrary ground coordinates into that frame and
back.  The yaw angle is measured from the receiver-to-eavesdropper axis, so
it is unchanged by the canonicalization.
"""

import math
from dataclasses import dataclass

from .errors import DegenerateGeometry
from .scenario import Position3D, _point

# Below this horizontal separation in meters the ground axis is undefined.
_FLAT_EPS = 1e-9


@dataclass(frozen=True)
class FrameTransform:
    """Rigid ground-plane transform into the canonical solving frame.

    ``to_canonical`` first shifts by (shift_x, shift_y), then rotates by
    ``rotation`` about the z axis; ``from_canonical`` inverts it.  Altitude
    passes through untouched.
    """

    shift_x: float
    shift_y: float
    rotation: float

    def to_canonical(self, p: Position3D) -> Position3D:
        return _point(*self._canonical_xy(p.x, p.y), p.z)

    def _canonical_xy(self, x: float, y: float) -> tuple[float, float]:
        """The canonical (x, y) of the caller-frame ground point (x, y)."""
        xt = x + self.shift_x
        yt = y + self.shift_y
        c = math.cos(self.rotation)
        s = math.sin(self.rotation)
        return xt * c - yt * s, xt * s + yt * c

    def from_canonical(self, p: Position3D) -> Position3D:
        c = math.cos(self.rotation)
        s = math.sin(self.rotation)
        xt = p.x * c + p.y * s
        yt = -p.x * s + p.y * c
        return _point(xt - self.shift_x, yt - self.shift_y, p.z)


def canonicalize_frame(bob_raw: Position3D, eve_raw: Position3D) -> FrameTransform:
    """Transform mapping ``bob_raw`` to the origin and ``eve_raw`` onto the
    positive x axis.

    Raises
    ------
    DegenerateGeometry
        If the two ground nodes coincide (within 1e-9 m horizontally).
    """
    dx = eve_raw.x - bob_raw.x
    dy = eve_raw.y - bob_raw.y
    if math.hypot(dx, dy) < _FLAT_EPS:
        raise DegenerateGeometry("ground nodes coincide; no axis to align")
    bearing = math.atan2(dy, dx)
    return FrameTransform(shift_x=-bob_raw.x, shift_y=-bob_raw.y, rotation=-bearing)
