"""Planar-array layout.

The antenna array is an M x N rectangular grid in the horizontal plane with
rows aligned to the platform heading.  The channel toward a ground node is
the bare steering vector for that node's look angles: there is no path loss
term, so range enters only through the angles.  The correlation between two
steering vectors factors into a product of two geometric sums, one per array
axis, which is what both placement schemes exploit; the package evaluates it
in that factored form (:func:`spwt.signalmodel.correlation_magnitude`), and
the tests check it against the explicit steering vectors.
"""

import math
import numbers
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Rectangular array layout: ``m_rows`` x ``n_cols`` elements spaced
    ``spacing_m`` apart, fed at ``carrier_hz``.

    ``spacing_m`` defaults to half the carrier wavelength, for which the
    per-element phase coefficient reduces to exactly pi; the kernel and the
    placement schemes' null equations both use :attr:`phase_coef`.
    """

    m_rows: int
    n_cols: int
    carrier_hz: float
    spacing_m: float | None = None

    def __post_init__(self) -> None:
        for count in (self.m_rows, self.n_cols):
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError("array dimensions must be integers")
        if self.m_rows < 1 or self.n_cols < 1:
            raise ValueError("array needs at least one element per axis")
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0.0):
            raise ValueError("carrier frequency must be finite and positive")
        if self.spacing_m is None:
            object.__setattr__(
                self, "spacing_m", SPEED_OF_LIGHT / (2.0 * self.carrier_hz)
            )
        # A default spacing overflows for a carrier below ~1e-300 Hz.
        if not (math.isfinite(self.spacing_m) and self.spacing_m > 0.0):
            raise ValueError("element spacing must be finite and positive")

    @property
    def size(self) -> int:
        return self.m_rows * self.n_cols

    @property
    def phase_coef(self) -> float:
        """Phase advance in radians per element index per unit direction
        cosine: 2*pi*f*d/c (pi at half-wavelength spacing)."""
        return 2.0 * math.pi * self.carrier_hz * self.spacing_m / SPEED_OF_LIGHT
