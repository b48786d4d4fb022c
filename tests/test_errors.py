"""Every exception class the library defines is a LeaselabError in ``leaselab.errors``,
so one handler catches all."""

import importlib
import inspect
import pkgutil

import leaselab
from leaselab.errors import LeaselabError


def test_every_library_exception_is_a_leaselab_error():
    defined = []
    for info in pkgutil.iter_modules(leaselab.__path__):
        module = importlib.import_module(f"leaselab.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, BaseException):
                defined.append(cls)
            if issubclass(cls, LeaselabError):
                assert name == cls.__name__  # imported under its own name, never an alias
    assert sorted((cls.__module__, cls.__name__) for cls in defined) == [
        ("leaselab.errors", name)
        for name in (
            "ConfigError", "Disconnected", "EmptyRequest", "InfeasibleOutput", "InstanceError",
            "LeaselabError", "LedgerError", "NonMonotonicTime", "RecordsError", "TooLarge",
        )
    ]
    assert [cls for cls in defined if not issubclass(cls, LeaselabError)] == []
