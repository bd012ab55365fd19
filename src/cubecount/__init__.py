"""Residue counts of x^2 + a/x modulo a prime.

Closed-form counts keyed on the quadratic partition p = A^2 + 3B^2 and the
cubic class of the parameter, definitional enumeration oracles to check
them against, and a sweep harness that compares the two over every prime
in range.  The package exports the __all__ of each submodule below.
"""

from . import closedform, cubicres, errors, modarith, oracle, quadform, sweep
from .closedform import *  # noqa: F403
from .cubicres import *  # noqa: F403
from .errors import *  # noqa: F403
from .modarith import *  # noqa: F403
from .oracle import *  # noqa: F403
from .quadform import *  # noqa: F403
from .sweep import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (closedform, cubicres, errors, modarith, oracle, quadform, sweep)
        for name in module.__all__
    }
)
