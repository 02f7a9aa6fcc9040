"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, data problems
exit 2, numerical failures exit 3.
"""


class RespdlError(Exception):
    """Base class for all package errors."""


class FormatError(RespdlError):
    """Malformed container or header (e.g. a broken RIFF file)."""


class UnsupportedError(RespdlError):
    """Well-formed input using a codec or layout we do not handle."""


class ParseError(RespdlError):
    """Syntactically invalid text input. Carries a line number when known,
    and names the file when given its path."""

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class ParameterError(RespdlError):
    """Caller violated an argument contract."""


class ShapeError(RespdlError):
    """Array shape incompatible with the configured layer schedule."""


class StratificationError(RespdlError):
    """A class has too few entities to spread across the requested folds."""


class NumericalError(RespdlError):
    """Non-finite values encountered during training; run aborted."""
