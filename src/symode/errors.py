"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.
"""


class SymodeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SymodeError):
    """Invalid or malformed run configuration."""


class DataError(SymodeError):
    """Problem with an input data file."""


class EmptyFileError(DataError):
    def __init__(self, path):
        super().__init__(f"{path}: file contains no data rows")
        self.path = path


class MissingColumnError(DataError):
    def __init__(self, path, column):
        super().__init__(f"{path}: missing required column {column!r}")
        self.path = path
        self.column = column


class NonNumericCellError(DataError):
    def __init__(self, path, row, column, value):
        super().__init__(
            f"{path}: row {row}, column {column!r}: cannot parse {value!r} as a number"
        )
        self.path = path
        self.row = row
        self.column = column
        self.value = value


class NumericalError(SymodeError):
    """A numerical stage failed irrecoverably (e.g. diverging rollout)."""


class EvaluationError(NumericalError):
    """An expression produced a non-finite value."""


class NonFiniteLossError(NumericalError):
    """Optimization could not start: loss is NaN/Inf at the initial point."""


def allocate(make, **kwargs):
    """``make(**kwargs)``, a NumPy array constructor. A size NumPy refuses,
    more bytes or elements than the platform can address, raises
    MemoryError, as an allocation that fails does."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise MemoryError(str(exc)) from None
