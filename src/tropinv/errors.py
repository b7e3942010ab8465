"""Exception types shared across the library.

Every error raised on purpose derives from :class:`TropinvError`, so callers
(and the CLI) can map failures to exit codes without matching on messages.
Each class carries its CLI exit code: 2 for input that does not parse, 3 for
input that parses but is invalid (the default), 4 for a check of the
engine's own results that failed.
"""


class TropinvError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class ParseError(TropinvError):
    """Malformed textual input: JSON schema, rational literal, point syntax."""

    exit_code = 2


class DisconnectedGraph(TropinvError):
    """The graph (or a required subgraph) is not connected."""


class NonPositiveLength(TropinvError):
    """An edge length is zero or negative."""


class GenusZero(TropinvError):
    """An operation that needs genus h >= 1 was called on a genus-0 graph."""


class OffsetOutOfRange(TropinvError):
    """An edge offset lies outside the allowed interval."""


class UnknownPoint(TropinvError):
    """A vertex or edge id does not exist in the graph."""


class ProfileSampleMismatch(TropinvError):
    """An exact interpolation certificate failed; signals an implementation bug."""

    exit_code = 4


class CrosscheckFailure(TropinvError):
    """Two independent computation paths disagreed; signals an implementation bug."""

    exit_code = 4


class InconsistentCounts(TropinvError):
    """Node-type counts violate their defining linear relation."""


class GenusMismatch(TropinvError):
    """Counts and graph disagree on the genus."""


class LengthMismatch(TropinvError):
    """Counts and graph disagree on the total length."""


class ArityMismatch(TropinvError):
    """Wrong number of edge lengths for a catalog graph type."""

    exit_code = 2


class RankDeficient(TropinvError):
    """The recovery kernel is not one-dimensional; carries the candidate basis."""

    exit_code = 4

    def __init__(self, message, basis=None):
        super().__init__(message)
        self.basis = basis if basis is not None else []


class ValidationFailure(TropinvError):
    """A fitted function failed exact validation on held-out samples."""

    exit_code = 4


class DenominatorZero(TropinvError):
    """A rational function was evaluated at a zero of its denominator."""


class FloatOverflow(TropinvError):
    """An exact value that must be reported as a float is too large for one."""


class ValueTooLarge(TropinvError):
    """An exact value has more digits than the interpreter writes as a string."""
