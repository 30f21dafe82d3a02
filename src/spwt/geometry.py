"""The canonical solving frame.

Solvers work in a canonical frame with the intended receiver at the origin
and the eavesdropper on the positive x axis; ``canonicalize_frame`` builds
the rigid transform taking arbitrary ground coordinates into that frame and
back.  The yaw angle is measured from the receiver-to-eavesdropper axis, so
it is unchanged by the canonicalization.  The module is the frame's maps
only: ``ScenarioConfig`` refuses a ground pair with no frame when it is
built, so nothing here checks its input.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FrameTransform:
    """Rigid ground-plane transform into the canonical solving frame.

    ``to_canonical`` first shifts by (shift_x, shift_y), then rotates by the
    angle whose cosine and sine are ``c`` and ``s`` about the z axis;
    ``from_canonical`` inverts it.  Both take ground (x, y) as floats, or as
    numpy arrays that broadcast together, and return the pair in the other
    frame with the same bits either way.  Altitude is the same in both
    frames, so they take none.
    """

    shift_x: float
    shift_y: float
    c: float
    s: float

    def to_canonical(self, x, y):
        """The canonical (x, y) of the caller-frame ground point (x, y)."""
        x, y = x + self.shift_x, y + self.shift_y
        return x * self.c - y * self.s, x * self.s + y * self.c

    def from_canonical(self, x, y):
        """The caller-frame (x, y) of the canonical ground point (x, y)."""
        xt = x * self.c + y * self.s
        yt = -x * self.s + y * self.c
        return xt - self.shift_x, yt - self.shift_y


def canonicalize_frame(bob_raw: "Position3D", eve_raw: "Position3D") -> FrameTransform:
    """Transform mapping ``bob_raw`` to the origin and ``eve_raw`` onto the
    positive x axis, for a ground pair ``ScenarioConfig`` accepts: at least
    1e-9 m apart horizontally, with a separation the floats hold."""
    turn = -math.atan2(eve_raw.y - bob_raw.y, eve_raw.x - bob_raw.x)
    return FrameTransform(-bob_raw.x, -bob_raw.y, math.cos(turn), math.sin(turn))
