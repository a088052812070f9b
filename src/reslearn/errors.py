"""Exception types shared across the library."""


class ReslearnError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(ReslearnError):
    """Operands have incompatible shapes."""


class InvalidInputError(ReslearnError, ValueError):
    """An argument is out of its domain: a bad count, name, sign or file field."""


class NonFiniteError(ReslearnError, ValueError):
    """An input holds a NaN or an infinity."""


class RankDeficientError(ReslearnError):
    """A design matrix does not have full column rank."""


class GenerationFailedError(ReslearnError):
    """Teacher generation exhausted its retry budget."""


class SolverFailedError(ReslearnError):
    """A convex solve did not reach an acceptable terminal status."""


class SingularCHatError(ReslearnError):
    """The learned left inverse cannot be inverted.

    Carries the condition estimate so callers can report it.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition

