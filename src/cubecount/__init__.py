"""Residue counts of x^2 + a/x modulo a prime.

Closed-form counts keyed on the quadratic partition p = A^2 + 3B^2 and the
cubic class of the parameter, definitional enumeration oracles to check
them against, and a sweep harness that compares the two over every prime
in range.  The package exports the __all__ of each submodule below.

`oracle` and `sweep` are in sys.modules after `import cubecount`, but each
runs only on the first access to one of its names, so the closed-form
commands of the CLI never run them.
"""

import importlib.util
import sys

from . import closedform, cubicres, errors, modarith, quadform
from .closedform import *  # noqa: F403
from .cubicres import *  # noqa: F403
from .errors import *  # noqa: F403
from .modarith import *  # noqa: F403
from .quadform import *  # noqa: F403


def _lazy(name: str):
    """The submodule `name`, registered in sys.modules, run on first access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


oracle, sweep = _lazy("oracle"), _lazy("sweep")

__version__ = "0.1.0"


def __getattr__(name: str):
    # Read off the submodule each time, so a name patched there is the one
    # the package hands out.
    if name == "__all__":
        modules = (closedform, cubicres, errors, modarith, oracle, quadform, sweep)
        return sorted({n for module in modules for n in module.__all__})
    for module in (oracle, sweep):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
