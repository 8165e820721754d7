"""Electric dial-a-ride modeling and solving toolkit.

The exports are resolved on first use (PEP 562), so importing one submodule,
such as the solver child ``emdarp.tools.solve_mps``, loads no other."""

import importlib
import sys
import types

__all__ = [
    "Instance", "load_instance", "save_instance", "expand_graph",
    "build_model", "SearchConfig", "branch_and_bound", "exhaustive_oracle",
    "validate", "GenConfig", "generate",
]

_HOME = {  # export -> submodule that defines it
    "Instance": "instance", "load_instance": "instance", "save_instance": "instance",
    "expand_graph": "graph", "build_model": "model", "SearchConfig": "search",
    "branch_and_bound": "search", "exhaustive_oracle": "search", "validate": "checker",
    "GenConfig": "generate", "generate": "generate",
}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """The import system binds each submodule it loads on its package; an
    export keeps its name (``emdarp.generate`` is the function, not the
    submodule of that name)."""

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
