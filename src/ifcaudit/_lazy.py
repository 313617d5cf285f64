"""Modules that load on their first attribute access.

``ifcaudit.cli`` serves every command from one import, but each command
calls only a few modules: ``census`` needs neither numpy nor the geometry,
generator or answer code. ``lazy(name)`` puts a module into ``sys.modules``
whose code runs when an attribute of it is first read, so a command pays
only for the modules it touches, while tools that look modules up by name
(such as a tracer that wraps functions in ``sys.modules``) still find them
all.

A plain ``import`` or ``from ... import`` reads the module's ``__spec__`` and
so loads it at once: a lazy binding has to come from ``lazy()``. On Python
3.11 a module registered here is not safe to touch first from two threads at
once; the CLI is single-threaded, and a threaded caller should import the
modules it uses before starting its threads.
"""

import importlib.util
import sys


def lazy(name: str):
    """The module ``name``: ``sys.modules[name]`` when it is there, else a
    module registered there that loads on its first attribute access. A
    submodule is also bound on its package, as an import would bind it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module


def lazy_exports(package: str, submodules: tuple[str, ...], exports: dict[str, str]):
    """Register every submodule of ``package`` with ``lazy()`` and return
    the package's ``__getattr__`` (PEP 562): it serves each public name from
    the submodule ``exports`` maps it to. Names are read afresh on every
    access and never cached on the package, so a function replaced on its
    submodule is the one the package hands out."""
    for submodule in submodules:
        lazy(f"{package}.{submodule}")

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(lazy(f"{package}.{exports[name]}"), name)

    return __getattr__
