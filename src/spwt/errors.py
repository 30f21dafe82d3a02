"""Exception types shared across the package.

An input outside the model, a ground pair with no solving frame included, is
refused with a ``ValueError`` when it is built; these types are for what a
valid scenario can still lead to.  Every finite yaw is valid: at a quarter
turn one factor has no zero on either locus, and the other can still place.
"""


class SpwtError(Exception):
    """Base class for every package-specific error: a scenario with no
    nulling placement, or a correlation that only a defect can give."""


class InvalidCorrelation(SpwtError):
    """A correlation magnitude above 1, which unit vectors cannot produce."""


class InfeasibleGeometry(SpwtError):
    """No transmitter position on the requested locus nulls the correlation."""


class InvalidIndex(SpwtError):
    """Null index that no factor has a zero at: not a positive integer, a
    multiple of both array dimensions, or of a forced factor's dimension.
    The yaw plays no part: a factor that a quarter turn leaves with no zero
    is reported infeasible by the solvers, not rejected here."""
