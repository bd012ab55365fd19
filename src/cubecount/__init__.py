"""Residue counts of x^2 + a/x modulo a prime.

Closed-form counts keyed on the quadratic partition p = A^2 + 3B^2 and the
cubic class of the parameter, definitional enumeration oracles to check
them against, and a sweep harness that compares the two over every prime
in range.  The package exports the __all__ of each submodule below.

`import cubecount` registers every submodule in sys.modules and runs none:
each runs on the first access to one of its names, so a CLI command runs
only the modules it calls.  A name read off the package is looked up in
the submodule whose __all__ lists it, which runs that submodule and the
ones before it in _EXPORTING, and is then bound here, as a star import
would bind it: a later patch of the submodule's name is not seen through
the package.
"""

import importlib.util
import sys


def _lazy(name: str):
    """The submodule `name`, registered in sys.modules, run on first access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_tables, closedform, cubicres, errors, modarith, oracle, quadform, sweep = map(
    _lazy, ("_tables", "closedform", "cubicres", "errors", "modarith", "oracle", "quadform", "sweep")
)

#: the submodules that export names, each after the ones it imports
_EXPORTING = (errors, modarith, quadform, cubicres, closedform, oracle, sweep)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "__all__":
        return sorted({n for module in _EXPORTING for n in module.__all__})
    for module in _EXPORTING:
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
