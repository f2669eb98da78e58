"""Every name a specgap module exports through ``__all__`` exists, so a
refactor that deletes or renames a public function cannot leave a stale
entry behind (``from specgap.<module> import *`` would fail on it)."""

import importlib
import pkgutil

import pytest

import specgap

MODULES = sorted(m.name for m in pkgutil.iter_modules(specgap.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"specgap.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
