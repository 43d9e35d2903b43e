"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(ValueError):
    """A structured input (block list, sign vector, file) is malformed."""


class ConvergenceError(RuntimeError):
    """Every start of a norm estimate was discarded as non-finite."""
