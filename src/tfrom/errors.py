"""Exception hierarchy and warning types shared across the package."""


class TfromError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TfromError):
    """A value or configuration violates a documented contract (CLI exit 1)."""


class InputFormatError(TfromError):
    """An input file exists but its contents cannot be parsed (CLI exit 2)."""


class NonFiniteScore(ValidationError):
    """A relevance score is NaN or infinite."""


class NegativeScore(ValidationError):
    """A relevance score is negative."""


class EmptyRow(ValidationError):
    """A customer row has no strictly positive relevance score, so the
    ideal list quality would be zero and normalized quality undefined."""


class InvalidShape(ValidationError):
    """Dimensions of an instance or generator request are inconsistent."""


class InvalidRank(ValidationError):
    """A 1-based list position is out of range."""


class InvalidDimension(ValidationError):
    """A count parameter (customers, list length, ...) is out of range."""


class InsufficientItems(ValidationError):
    """Fewer items exist than the requested list length."""


class UnknownCustomer(ValidationError):
    """A customer index is outside the instance universe."""


class UnknownItemInProviderFile(ValidationError):
    """The provider map names an item absent from the preference data."""


class MissingProviderForItem(ValidationError):
    """An item in the preference data has no provider assignment."""


class ParseError(InputFormatError):
    """A delimited input file has a malformed header or row."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{where}{message}")


class DuplicateTripletWarning(UserWarning):
    """A (customer, item) pair occurs more than once; the last score wins."""
