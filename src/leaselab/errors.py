"""Exception types shared across the library.

Every exception class a ``leaselab`` module defines derives from ``LeaselabError``,
so a caller (the CLI among them) can catch every library error in one place.
Errors about malformed input also keep ``ValueError`` as a base.
"""


class LeaselabError(Exception):
    """Base class for all library errors."""


class InstanceError(LeaselabError, ValueError):
    """An instance file is malformed, or a request step breaks the request rule."""


class NonMonotonicTime(InstanceError):
    """A request step came at or before the time of the previous one."""


class EmptyRequest(InstanceError):
    """A request step carried no nodes."""


class ConfigError(LeaselabError, ValueError):
    """An experiment setting or a command-line value is out of range or unparseable."""


class RecordsError(LeaselabError, ValueError):
    """A records CSV lacks a column, holds a cell of the wrong type, or breaks C1 + C2 = cost."""


class LedgerError(LeaselabError):
    """A ledger file row is malformed, names a node or lease type the instance lacks,
    starts off its lease's slot grid, or repeats an earlier row."""


class InfeasibleOutput(LeaselabError):
    """An algorithm produced a ledger that fails verification (a bug)."""
