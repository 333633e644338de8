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
    """An engine broke one of its own invariants: a bug, not bad input.

    The pattern's corner repair or the DP gave a set of the wrong size or
    an invalid one, an extracted set disagrees with the DP value, a DP
    column spreads past its uint8 offsets, a DP column reaches no final
    word, or an oracle finds no set.  Every grid has an independent
    [1,2]-set, so the last two can only be bugs.
    """


class UnsupportedGridError(ValueError):
    """Grid dimensions outside the range any engine supports."""
