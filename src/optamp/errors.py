"""Exception types shared across the package, one per rule."""

__all__ = [
    "DimensionError",
    "NormalizationError",
    "ParameterOutOfRange",
    "StateFormatError",
]


class DimensionError(ValueError):
    """A dimension is below 2, differs from the one expected, or is above
    ``dense_matrix``'s cap of 4096."""


class ParameterOutOfRange(ValueError):
    """A numeric parameter lies outside its admissible range."""


class NormalizationError(ValueError):
    """A state vector's squared norm deviates from 1 beyond the tolerance."""


class StateFormatError(ValueError):
    """A state-vector document does not conform to the JSON schema."""
