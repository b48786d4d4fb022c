"""Every exception class the library defines is a LeaselabError, so one handler catches all."""

import importlib
import inspect
import pkgutil

import leaselab
from leaselab.errors import LeaselabError


def test_every_library_exception_is_a_leaselab_error():
    defined = []
    for info in pkgutil.iter_modules(leaselab.__path__):
        module = importlib.import_module(f"leaselab.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, BaseException):
                defined.append(cls)
    assert len(defined) > 10  # the walk found the modules
    assert [cls for cls in defined if not issubclass(cls, LeaselabError)] == []
