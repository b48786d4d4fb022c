"""Exception types shared across the library."""


class LeaselabError(Exception):
    """Base class for all library errors."""


class NonMonotonicTime(LeaselabError):
    """An online algorithm was fed a request time earlier than a previous one."""


class EmptyRequest(LeaselabError):
    """A request step carried no nodes."""


class LedgerError(LeaselabError):
    """A ledger file row names no lease type or starts off its lease's slot grid."""


class InfeasibleOutput(LeaselabError):
    """An algorithm produced a ledger that fails verification (a bug)."""
