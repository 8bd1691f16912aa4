"""Exception hierarchy shared by all isoprod modules.

Every error carries a short machine-readable ``code`` string which the CLI
maps onto its exit codes.
"""

from __future__ import annotations


class IsoprodError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ParentMismatchError(IsoprodError):
    """Two values from different ambient groups were combined."""

    code = "parent-mismatch"


class OverflowLimitError(IsoprodError):
    """A requested ambient group is astronomically large."""

    code = "arithmetic-overflow"


class SchemaError(IsoprodError):
    """Malformed input: a datum document or search spec off its schema, or a
    datum or example built with wrong widths, counts or parameters."""

    code = "document-schema"


class ConsistencyError(IsoprodError):
    """Two independent internal computations disagree; indicates a bug."""

    code = "internal-consistency"


class TheoremViolationError(IsoprodError):
    """A computed result contradicts a proven structural bound."""

    code = "theorem-violation"


class UnsupportedDatumError(IsoprodError):
    """The datum falls outside the supported classification (q <= 2 or a
    rational base curve)."""

    code = "unsupported-datum"


class OracleScaleError(IsoprodError):
    """A brute-force oracle computation exceeds its enumeration cap."""

    code = "oracle-scale"


class SearchCapError(IsoprodError):
    """An enumeration request exceeds the search-space cap or Python's digit limit."""

    code = "search-cap"
