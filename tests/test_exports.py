import importlib
import pkgutil

import pytest

import sepcheck

MODULES = ["sepcheck"] + [f"sepcheck.{m.name}" for m in pkgutil.iter_modules(sepcheck.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from module import *``
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
