"""Exception types shared across the package."""


class QestError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QestError, ValueError):
    """An input violates a structural precondition (shape, hermiticity, norm, ...)."""


class SchemaError(QestError, ValueError):
    """A channel file is structurally malformed; carries the offending JSON path."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class ParameterRangeError(QestError, ValueError):
    """A channel or family parameter lies outside its validity interval."""


class DegenerateFamilyError(QestError, ValueError):
    """The state family carries no information about the parameter (QFI ~ 0)."""


class DegenerateChannelError(QestError, ValueError):
    """Every noise operator acts trivially, so the enhancement ratio is 0/0."""


class SingularGeometryError(QestError, ValueError):
    """The closed-form enhancement path needs an invertible noise metric."""


class ConvergenceError(QestError, RuntimeError):
    """An iterative kernel failed to converge within its sweep budget."""
