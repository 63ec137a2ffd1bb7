"""Exception types shared across the package."""


class SimpopError(Exception):
    """Base class for all simpop errors."""


class ParseError(SimpopError):
    """Malformed input row or header; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ValidationError(SimpopError):
    """Parsed data violates a corpus or graph invariant."""


class MissingItemError(SimpopError, KeyError):
    """Item id absent from a model or popularity table."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message plain
        return Exception.__str__(self)


class DivergenceError(SimpopError):
    """Optimizer hit a non-finite objective or gradient.

    ``trace`` holds the partial fit trace accumulated before the failure,
    so callers can persist it for post-mortems.
    """

    def __init__(self, message: str, iteration: int, trace):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration
        self.trace = trace
