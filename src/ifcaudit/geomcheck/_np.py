"""numpy for the geometry modules, loaded on its first attribute access.

Only ``check`` evaluates geometry, but ``ifcaudit.cli`` imports this package
for every command (tools that wrap its functions by module name rely on
that); binding ``np`` to a lazily loaded module keeps numpy's import off the
start-up of the other commands. A plain ``import numpy`` reads the module's
``__spec__`` and so loads it at once; the binding has to come from here.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
