"""Exception types shared across the library.

Every exception class of the library is defined here and derives from ``LeaselabError``,
so a caller (the CLI among them) can catch every library error in one place.
Errors about malformed input also keep ``ValueError`` as a base.
"""


class LeaselabError(Exception):
    """Base class for all library errors."""


class InstanceError(LeaselabError, ValueError):
    """An instance is malformed: its file; its graph (no nodes, an edge outside the node
    range, a self loop, a repeated edge); its lease catalog, whichever way it is built
    (empty, a duration that is not a power of two, a cost that is not positive, durations
    that do not ascend, a longer lease that costs less in total or per unit); a rainy day
    outside the permit horizon; a negative time; or a request step that breaks the request
    rule."""


class NonMonotonicTime(InstanceError):
    """A request step came at or before the time of the previous one, or a parking-permit
    day came before the last day that permit served (an equal day is allowed)."""


class EmptyRequest(InstanceError):
    """A request step carried no nodes."""


class Disconnected(InstanceError):
    """A graph's edges leave some node unreachable from node 0."""


class ConfigError(LeaselabError, ValueError):
    """An experiment setting, a generator parameter or kind, or a command-line value is
    out of range or unparseable, or G(n, p) gave no connected sample."""


class RecordsError(LeaselabError, ValueError):
    """A records CSV lacks a column or names one twice or holds a cell of the wrong type, or a
    ``RunRecord`` breaks a record rule (C1 + C2 = cost, for one), however it is built."""


class LedgerError(LeaselabError):
    """A ledger file's header lacks a column or names one twice, or a row is malformed,
    names a node or lease type the instance lacks, starts off its lease's slot grid, or
    repeats an earlier row; or a ledger is asked to buy one triplet twice."""


class InfeasibleOutput(LeaselabError):
    """An algorithm produced a ledger that fails verification, or OCDSL's representative
    cover left a dominator uncovered (a bug either way)."""


class TooLarge(LeaselabError, ValueError):
    """An instance is past the exact oracle's desk-scale cap: a refusal, not bad input."""
