"""Exception types shared across the package."""


class SimpopError(Exception):
    """Base class for all simpop errors."""


class ParseError(SimpopError):
    """Malformed input row or header; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number

    def __reduce__(self):
        # rebuilt from its own arguments, so the message gets one prefix
        message = self.args[0].removeprefix(f"line {self.line_number}: ")
        return type(self), (message, self.line_number), self.__dict__


class ValidationError(SimpopError):
    """Parsed data violates a corpus or graph invariant."""


class MissingItemError(SimpopError, KeyError):
    """Item id absent from a model or popularity table."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message plain
        return Exception.__str__(self)


class DivergenceError(SimpopError):
    """A fit failed numerically, or every fit of a grid search did.

    ``trace`` holds what was recorded before the failure, so callers can
    persist it for post-mortems: a fit's partial trace, or a grid's table of
    failed cells. ``iteration`` is the failing fit iteration (None for a grid).
    """

    def __init__(self, message: str, iteration: int | None, trace):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration
        self.trace = trace

    def __reduce__(self):
        # rebuilt from its own arguments, so the message gets one suffix
        message = self.args[0]
        if self.iteration is not None:
            message = message.removesuffix(f" (iteration {self.iteration})")
        return type(self), (message, self.iteration, self.trace), self.__dict__
