"""Exception types raised across the package."""


class TeleportrixError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeError(TeleportrixError):
    """Dimensions do not match the declared register, or a state's or matrix's array is ragged or non-numeric."""


class NormalizationError(TeleportrixError):
    """A state or Schmidt coefficients are zero, non-finite or off unit norm, or a density matrix non-finite."""


class LabelCollision(TeleportrixError):
    """A qubit label appears more than once where labels must be disjoint."""


class LabelMismatch(TeleportrixError):
    """Two states (or a state and a target) do not share the required labels."""


class BadSubset(TeleportrixError):
    """Partial-trace subset is empty, unknown, or not a proper subset."""


class NonFinite(TeleportrixError):
    """A protocol parameter or a caller-built matrix entry is NaN or infinite."""


class BadPair(TeleportrixError):
    """Measured qubit pair is not two distinct labels of the state with a spectator left over."""


class CompletenessError(TeleportrixError):
    """Transfer matrices violate sum_k M_k^dag M_k = I, so branch probabilities would not sum to 1."""


class SingularMatrix(TeleportrixError):
    """Matrix is numerically zero, so no polar unitary factor exists."""


class BadInput(TeleportrixError):
    """Input amplitudes are not a normalized finite pair, or a probability table, stack, count or index is bad."""


class ParseError(TeleportrixError):
    """Text does not parse as a complex number or grid specification, or a parameter is not a number."""
