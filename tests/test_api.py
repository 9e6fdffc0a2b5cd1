"""The public API: every exported name resolves, and every name of the
package namespace is exported by the module that defines it."""

import importlib
import pkgutil
import types

import pytest

import xop

# every module but __main__, which runs the command line when imported
MODULES = sorted(f"xop.{info.name}" for info in pkgutil.iter_modules(xop.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES + ["xop"])
def test_every_name_in_all_resolves(name):
    """A star import fails on a name in `__all__` that the module lacks."""
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
    exec(f"from {name} import *", {})


def exported(module) -> set:
    """`__all__`, or every public name of a module without one."""
    names = getattr(module, "__all__", None)
    return set(names) if names is not None else {n for n in vars(module) if not n.startswith("_")}


def test_package_names_are_exported_by_their_modules():
    modules = [importlib.import_module(name) for name in MODULES]
    unexported = [
        attr for attr, value in vars(xop).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
        and not any(attr in exported(m) and getattr(m, attr) is value for m in modules)
    ]
    assert not unexported, f"package names no module exports: {unexported}"
