"""Exception types shared across the library.

Every exception class a ``leaselab`` module defines derives from ``LeaselabError``,
so a caller (the CLI among them) can catch every library error in one place.
"""


class LeaselabError(Exception):
    """Base class for all library errors."""


class NonMonotonicTime(LeaselabError):
    """An online algorithm was fed a request time earlier than a previous one."""


class EmptyRequest(LeaselabError):
    """A request step carried no nodes."""


class LedgerError(LeaselabError):
    """A ledger file row is malformed, names a node or lease type the instance lacks,
    starts off its lease's slot grid, or repeats an earlier row."""


class InfeasibleOutput(LeaselabError):
    """An algorithm produced a ledger that fails verification (a bug)."""
