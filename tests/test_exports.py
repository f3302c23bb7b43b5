"""Every exported name exists: each module's ``__all__`` and the names the
package's ``__init__`` re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import deflatrix

MODULES = sorted(info.name for info in pkgutil.iter_modules(deflatrix.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_listed_name(name):
    module = importlib.import_module(f"deflatrix.{name}")
    namespace = {}
    # a name listed in __all__ that the module does not define fails here
    exec(f"from deflatrix.{name} import *", namespace)
    if hasattr(module, "__all__"):
        assert len(set(module.__all__)) == len(module.__all__), "duplicate __all__ entries"
        assert set(module.__all__) <= set(namespace)


def _init_imports():
    tree = ast.parse(Path(deflatrix.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module, [alias.name for alias in node.names]


@pytest.mark.parametrize("module_name, names", list(_init_imports()))
def test_package_reexports_only_exported_names(module_name, names):
    module = importlib.import_module(f"deflatrix.{module_name}")
    exported = getattr(module, "__all__", None)
    for name in names:
        assert hasattr(deflatrix, name), name
        if exported is not None:
            assert name in exported, f"deflatrix.{module_name} does not export {name}"
