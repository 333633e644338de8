"""Exception types shared across the package."""


class MalformedWordError(ValueError):
    """A column word has the wrong length or uses labels outside {0,1,2,3}."""


class ResourceCapError(RuntimeError):
    """An enumeration or solve would exceed its configured size cap."""


class PeriodNotFoundError(RuntimeError):
    """No period certificate found within the search bounds (raise the caps)."""


class MalformedSetError(ValueError):
    """A vertex set description is unparsable, lacks a field, or does not fit its grid."""


class InvalidSetError(ValueError):
    """A candidate vertex set failed independence / [1,2]-domination checks."""


class ConstructionError(RuntimeError):
    """The diagonal-pattern repair search could not reach its target size."""


class UnsupportedGridError(ValueError):
    """Grid dimensions outside the range any engine supports."""
