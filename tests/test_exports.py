"""Every name a potpda module lists in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import potpda

MODULES = sorted(info.name for info in pkgutil.iter_modules(potpda.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_exists(module):
    mod = importlib.import_module(f"potpda.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
