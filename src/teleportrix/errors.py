"""Exception types raised across the package."""


class TeleportrixError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeError(TeleportrixError):
    """Amplitude or matrix dimensions do not match the declared register."""


class NormalizationError(TeleportrixError):
    """State vector is zero, non-finite, or not unit norm."""


class LabelCollision(TeleportrixError):
    """A qubit label appears more than once where labels must be disjoint."""


class LabelMismatch(TeleportrixError):
    """Two states (or a state and a target) do not share the required labels."""


class NotUnitary(TeleportrixError):
    """A matrix supposed to be unitary fails U^dag U = I."""


class BadSubset(TeleportrixError):
    """Partial-trace subset is empty, unknown, or not a proper subset."""


class NonFinite(TeleportrixError):
    """A protocol parameter is NaN or infinite."""


class BadPair(TeleportrixError):
    """Measured qubit pair is not two distinct labels of the state with a spectator left over."""


class CompletenessError(TeleportrixError):
    """Transfer matrices violate sum_k M_k^dag M_k = I, so branch probabilities would not sum to 1."""


class SingularMatrix(TeleportrixError):
    """Matrix is numerically zero, so no polar unitary factor exists."""


class BadInput(TeleportrixError):
    """Input qubit amplitudes are not a normalized finite pair."""


class ParseError(TeleportrixError):
    """Text does not parse as a complex number or grid specification."""
