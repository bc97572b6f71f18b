"""Exception types shared across the package.

The CLI maps these onto exit-status categories, so new errors should
subclass one of the three branches below rather than Exception directly.
"""

import copyreg


class DialretError(Exception):
    """Base class for all errors raised by this package.

    Pickling rebuilds an error from its ``args`` and attributes without
    calling ``__init__``, so every subclass crosses a process boundary
    with its type, message and attributes whatever its signature.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(DialretError):
    """Invalid experiment configuration or command usage."""

    def __init__(self, message: str, field_errors: list[str] | None = None):
        super().__init__(message)
        self.field_errors = list(field_errors or [])

    def __str__(self) -> str:
        base = super().__str__()
        if self.field_errors:
            details = "\n".join(f"  - {e}" for e in self.field_errors)
            return f"{base}\n{details}"
        return base


class DataError(DialretError):
    """Malformed or insufficient input data."""


class CandidatePoolError(DataError):
    """Too few distinct responses to assemble an evaluation candidate set."""


class NumericError(DialretError):
    """Numerical failure during training or scoring."""


class DivergenceError(NumericError):
    """Training loss became non-finite."""

    def __init__(self, iteration: int, loss: float):
        super().__init__(f"loss diverged (value {loss!r}) at iteration {iteration}")
        self.iteration = iteration
        self.loss = loss


class NonFiniteParameterError(NumericError):
    """A parameter tensor contains NaN or infinity."""

    def __init__(self, tensor_name: str):
        super().__init__(f"non-finite values in parameter tensor '{tensor_name}'")
        self.tensor_name = tensor_name
