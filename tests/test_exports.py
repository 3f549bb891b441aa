"""Every name a potpda module lists in ``__all__`` exists in that module, and
the package re-exports only listed names."""

import ast
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


def _package_imports() -> list:
    """(module, name) for each name ``potpda/__init__.py`` imports from a
    ``potpda.<module>``, read from its source."""
    tree = ast.parse(open(potpda.__file__, encoding="utf-8").read())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names]


def test_package_imports_are_read():
    assert ("warmpot", "train") in _package_imports()


@pytest.mark.parametrize("module", sorted({module for module, _ in _package_imports()}))
def test_package_reexports_only_listed_names(module):
    listed = importlib.import_module(f"potpda.{module}").__all__
    unlisted = [name for mod, name in _package_imports() if mod == module and name not in listed]
    assert not unlisted
