"""Exception types shared across the package.

An input outside the model, a ground pair with no solving frame included, is
refused with a ``ValueError`` when it is built; these types are for what a
valid scenario can still lead to.  Every finite yaw and every whole null
index of at least 1 is valid: a factor that a quarter-turn yaw, or an index
its element count divides, leaves with no zero places nothing, and where
neither factor has one the scenario is infeasible like any other.
"""


class SpwtError(Exception):
    """Base class for every package-specific error: a scenario with no
    nulling placement, or a correlation that only a defect can give."""


class InvalidCorrelation(SpwtError):
    """A correlation magnitude above 1, which unit vectors cannot produce."""


class InfeasibleGeometry(SpwtError):
    """No transmitter position on the requested locus nulls the correlation."""
