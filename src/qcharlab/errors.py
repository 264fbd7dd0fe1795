"""Exception types shared across the toolkit."""


class QCharLabError(Exception):
    """Base class for every error raised by this package."""


class UnsupportedType(QCharLabError):
    """Unknown or out-of-range Cartan type label."""


class CapExceeded(QCharLabError):
    """A configured resource cap (group order, monomial count, search size) was hit."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class NonGenericTheta(QCharLabError):
    """The stability weight lies on a root hyperplane."""


class FieldNotFinite(QCharLabError):
    """An operation that enumerates vectors was asked to run over an infinite field."""


class ShapeMismatch(QCharLabError):
    """A matrix does not match the graded dimensions it is attached to."""


class NotSurjective(QCharLabError):
    """A map that must be onto (for stable input) failed to be onto."""


class RelationViolated(QCharLabError):
    """A quiver representation failed one of its defining relations."""


class DimensionMismatch(QCharLabError):
    """Reflected dimensions disagree with the lattice prediction."""


class StabilityViolated(QCharLabError):
    """A point required to be stable (input or reflected output) is not."""


class CacheIntegrityError(QCharLabError):
    """A cache file is corrupt or was written under different conventions."""
