"""Exception types shared across the package."""


class CobbError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(CobbError, ValueError):
    """An argument is outside its documented domain."""


class DegenerateGeometryError(CobbError, ValueError):
    """A shape is degenerate (zero extent, collinear points, ...)."""


class UndefinedIoUError(CobbError, ArithmeticError):
    """IoU requested for two zero-area shapes, or for a shape whose area overflows."""


class DotaParseError(CobbError, ValueError):
    """A DOTA annotation line could not be parsed."""

    def __init__(self, message: str, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")
