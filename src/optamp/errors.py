"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Vector or operator dimensions are too small or do not match."""


class ParameterOutOfRange(ValueError):
    """A numeric parameter lies outside its admissible range."""


class DenseCapExceeded(ValueError):
    """Dense-matrix construction was requested above ``DENSE_CAP_DEFAULT``."""


class NormalizationError(ValueError):
    """A state vector's squared norm deviates from 1 beyond the tolerance."""


class StateFormatError(ValueError):
    """A state-vector document does not conform to the JSON schema."""


class SumZero(ValueError):
    """The sum over components 1..n-1 vanishes, so no mixing angle can
    move weight into component 0."""
