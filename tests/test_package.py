"""The top-level package API."""

import importlib
import pkgutil
import types

import supgdlr


def test_package_reexports_exactly_the_module_apis():
    # every public name of a submodule is importable from supgdlr, and
    # supgdlr exports nothing else
    declared = set()
    for info in pkgutil.iter_modules(supgdlr.__path__):
        module = importlib.import_module(f"supgdlr.{info.name}")
        declared |= set(getattr(module, "__all__", ()))
    exported = {name for name, value in vars(supgdlr).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == declared
