"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class BudgetError(RuntimeError):
    """An enumeration or sweep would exceed its declared resource budget."""


class CertificationError(RuntimeError):
    """A certification procedure failed in a way that invalidates its output."""


class ParseError(ValueError):
    """A structured input file is malformed.

    Attributes:
        line: 1-based line number of the offending line, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
