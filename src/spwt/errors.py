"""Exception types shared across the package."""


class SpwtError(Exception):
    """Base class for every package-specific error."""


class DegenerateGeometry(SpwtError):
    """The canonical frame cannot be built: the two ground nodes coincide, so
    no receiver-to-eavesdropper direction defines its x axis, or they lie so
    far apart that their separation overflows the float range."""


class InvalidCorrelation(SpwtError):
    """A correlation magnitude above 1, which unit vectors cannot produce."""


class InfeasibleGeometry(SpwtError):
    """No transmitter position on the requested locus nulls the correlation."""


class InvalidYaw(SpwtError):
    """Yaw aligned with a quarter-turn of the ground axis; both placement
    schemes lose their null equations there."""


class InvalidIndex(SpwtError):
    """Null index that no factor has a zero at: not a positive integer, a
    multiple of both array dimensions, or of a forced factor's dimension."""
