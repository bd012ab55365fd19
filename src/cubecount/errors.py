"""Exception types shared across the package.

Everything derives from CubecountError so callers can catch the package's
domain errors in one clause.  Each class also inherits the closest builtin
(ValueError, ZeroDivisionError, ...) so generic handlers keep working.
"""

__all__ = [
    "BadK",
    "CompositeModulus",
    "CubecountError",
    "EmptyDomain",
    "InternalInconsistency",
    "MissingRep",
    "NonIntegerResult",
    "SingularPoint",
    "WorkerLost",
    "WrongResidueClass",
    "ZeroArgument",
    "ZeroInverse",
]


class CubecountError(Exception):
    """Base class for all errors raised by this package."""


class ZeroInverse(CubecountError, ZeroDivisionError):
    """Inverse of 0 mod p was requested."""


class CompositeModulus(CubecountError, ValueError):
    """A modulus that must be prime is composite; refused before any work starts."""


class ZeroArgument(CubecountError, ValueError):
    """An argument that must be a nonzero residue reduced to 0 mod p."""


class WrongResidueClass(CubecountError, ValueError):
    """The prime is in the wrong class mod 3 for the requested quantity."""


class SingularPoint(CubecountError, ValueError):
    """A rational map was evaluated where its denominator vanishes."""


class BadK(CubecountError, ValueError):
    """k with k^2 = -3 (mod p) is outside the domain of the curve test."""


class MissingRep(CubecountError, ValueError):
    """A quadratic-form representation is required for p = 1 (mod 3)."""


class EmptyDomain(CubecountError, ValueError):
    """Every point of the requested domain is a denominator zero."""


class NonIntegerResult(CubecountError, ArithmeticError):
    """A closed-form numerator failed its divisibility; it is never rounded.

    From a prime and a parameter it cannot happen, so there it indicates a
    convention bug.  A Jacobsthal value or count that no prime has raises
    it too: vp_from_jacobsthal(1, 7), a_from_count(7, 2).
    """


class InternalInconsistency(CubecountError, RuntimeError):
    """Two paths that must agree did not; indicates a bug, never bad input."""


class WorkerLost(CubecountError, ChildProcessError):
    """A process started to share a sweep's work ended before it sent its results."""
