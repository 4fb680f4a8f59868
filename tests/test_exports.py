"""Every public name a module lists in ``__all__`` exists."""

import importlib

import pytest

import sixjconv


@pytest.mark.parametrize("module", sixjconv.__all__)
def test_module_exports_resolve(module):
    """A name left in ``__all__`` after its definition is gone fails here,
    both as an attribute and through a star import. The CLI module
    (``bench_cli``) declares no ``__all__``; its star import must still run."""
    mod = importlib.import_module(f"sixjconv.{module}")
    names = getattr(mod, "__all__", ())
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"sixjconv.{module}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from sixjconv.{module} import *", namespace)
    assert set(names) <= set(namespace)
