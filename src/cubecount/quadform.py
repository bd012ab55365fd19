"""Quadratic-form representations p = A^2 + 3B^2 and 4p = L^2 + 27M^2.

Both exist exactly when p = 1 (mod 3) and are unique once normalised:
A = 1 (mod 3) pins the sign of A and B is taken positive; likewise
L = 1 (mod 3) and M > 0.  Everything downstream (cubic residue classes,
closed-form counts) keys on these sign conventions, so the dataclasses
validate them on construction.  The cube-root-of-unity convention is
fixed here too, side by side: class_value_targets names the two primitive
roots, root_class maps a root to its CubicClass, and class_trace maps a
class to the linear form in (A, B) that every closed form uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isqrt

from ._tables import check_int
from .errors import InternalInconsistency, MissingRep, WrongResidueClass
from .modarith import checked_prime

__all__ = [
    "CubicClass",
    "EisRep",
    "QuadRep",
    "class_trace",
    "class_value_targets",
    "l_from_ab",
    "represent_a3b",
    "represent_l27m",
    "root_class",
    "two_class_is_b_mult3",
]


def _require_1mod3(p) -> int:
    """p as checked_prime returns it; WrongResidueClass unless p = 1 (mod 3)."""
    if (p := checked_prime(p)) % 3 != 1:
        raise WrongResidueClass(f"p = {p} is not 1 (mod 3)")
    return p


def _require_rep(p, rep: QuadRep) -> int:
    """p as _require_1mod3 returns it, once rep is the QuadRep of p itself:
    MissingRep for None, for anything that is no QuadRep, for another p's rep."""
    p = _require_1mod3(p)
    if not (isinstance(rep, QuadRep) and rep.p == p):
        raise MissingRep(f"a QuadRep of p = {p} is required, got {rep!r}")
    return p


def _check_form(rep, xname: str, yname: str, d: int, k: int) -> None:
    """Store p as checked_prime returns it and x, y as check_int returns
    them; InternalInconsistency unless x^2 + d y^2 = k p, x = 1 (mod 3), y > 0."""
    p = checked_prime(rep.p)
    x, y = check_int(xname, getattr(rep, xname)), check_int(yname, getattr(rep, yname))
    for name, value in ((xname, x), (yname, y), ("p", p)):
        object.__setattr__(rep, name, value)
    if x * x + d * y * y != k * p:
        raise InternalInconsistency(f"{xname}^2 + {d}{yname}^2 = {x * x + d * y * y} != {k * p}")
    if x % 3 != 1 or y <= 0:
        raise InternalInconsistency(f"normalisation violated: {xname}={x}, {yname}={y}")


@dataclass(frozen=True)
class QuadRep:
    """p = A^2 + 3B^2 with A = 1 (mod 3) and B > 0, for a prime p; A, B and
    p are stored as the ints check_int and checked_prime return."""

    A: int
    B: int
    p: int

    def __post_init__(self):
        _check_form(self, "A", "B", 3, 1)


@dataclass(frozen=True)
class EisRep:
    """4p = L^2 + 27M^2 with L = 1 (mod 3) and M > 0, for a prime p; L, M and
    p are stored as the ints check_int and checked_prime return."""

    L: int
    M: int
    p: int

    def __post_init__(self):
        _check_form(self, "L", "M", 27, 4)


def represent_a3b(p: int) -> QuadRep:
    """The unique QuadRep of a prime p = 1 (mod 3).

    Cornacchia-style Euclidean descent: the remainder sequence from
    (p, root), root > p/2 a square root of -3, down to its first term at
    most sqrt(p), which is |A|; B follows by subtraction.  root = 2w + 1
    for w = g^((p-1)/3), g the least non-cube (a prime has one below p), as
    w^2 + w + 1 = 0: 1.5 pows on average, where Tonelli-Shanks takes about
    five.  p is validated first, so a composite raises CompositeModulus;
    QuadRep checks the result, so a descent gone wrong is InternalInconsistency.
    """
    p = _require_1mod3(p)
    g = 2
    while (w := pow(g, (p - 1) // 3, p)) == 1:
        g += 1
    root = (2 * w + 1) % p
    b, c = p, max(root, p - root)
    while c * c > p:
        b, c = c, b % c
    # 3 never divides c (c^2 = p - 3B^2 = 1 mod 3), so exactly one sign is A.
    return QuadRep(c if c % 3 == 1 else -c, isqrt((p - c * c) // 3), p)


@lru_cache(maxsize=1024)
def _cached_a3b(p: int) -> QuadRep:
    # Hot paths (closed-form counts, sweeps) hit the same p many times; the
    # bound keeps a stream of fresh primes from growing memory without end.
    return represent_a3b(p)


def represent_l27m(p: int) -> EisRep:
    """The unique EisRep of a prime p = 1 (mod 3): 4p = L^2 + 27M^2.

    Derived from the QuadRep: L is minus the trace of the class of 2, which
    -B mod 3 names (see CubicClass).  4p - L^2 is 12B^2 or 3(A +- B)^2, never
    negative, and EisRep checks the M its root gives.
    """
    # p first: the untyped cache would answer 13.0 from the entry for 13
    rep = _cached_a3b(_require_1mod3(p))
    L = -_class_trace(tuple(CubicClass)[-rep.B % 3], rep.A, rep.B)
    return EisRep(L, isqrt((4 * rep.p - L * L) // 27), rep.p)


def class_value_targets(p: int, rep: QuadRep) -> tuple[int, int]:
    """The two primitive cube roots of unity mod p, as (plus, minus).

    plus = (-1 + A/B)/2 and minus = (-1 - A/B)/2; A/B is a square root of
    -3 mod p because A^2 = p - 3B^2.  For display; root_class needs neither.
    """
    p = _require_rep(p, rep)
    ab = rep.A % p * pow(rep.B, -1, p) % p
    inv2 = (p + 1) // 2
    t_plus = (ab - 1) % p * inv2 % p
    t_minus = (-ab - 1) % p * inv2 % p
    return t_plus, t_minus


class CubicClass(Enum):
    """Which cube root of unity a^((p-1)/3) equals.

    The members are listed in the order of B mod 3 = 0, 1, 2 that picks the
    class of 32 = 2 * 4^2 (closedform._cor24_value reads them so); -B mod 3
    picks its conjugate, the class of 2 (represent_l27m reads them so).
    """

    UNIT = "unit"
    PLUS = "plus"
    MINUS = "minus"


# the members by module global: an identity test against one is cheaper
# than CubicClass.UNIT or a dict keyed on members (Enum hashes in Python)
_UNIT, _PLUS, _MINUS = CubicClass.UNIT, CubicClass.PLUS, CubicClass.MINUS


def root_class(c: int, p: int, rep: QuadRep) -> CubicClass | None:
    """The class named by a cube root of unity c in [0, p); None for any other c.

    c = (-1 +- A/B)/2 exactly when (2c + 1) B = +-A (mod p), so one product
    tells PLUS from MINUS, with no inverse of B.  rep must be the rep of p,
    and c is checked with _tables.check_int.
    """
    p = _require_rep(p, rep)
    c = check_int("c", c)
    return _root_class(c, p, rep) if 0 <= c < p else None


def _root_class(c: int, p: int, rep: QuadRep) -> CubicClass | None:
    # root_class for a c in [0, p) and a rep already checked against p
    if c == 1:
        return _UNIT
    s = (2 * c + 1) * rep.B % p
    if s == rep.A % p:
        return _PLUS
    return _MINUS if s == -rep.A % p else None


def _unit_class(a: int, p: int, rep: QuadRep) -> CubicClass:
    # The class of a unit a mod p, for a caller that has checked p, a and rep.
    c = pow(a, (p - 1) // 3, p)
    if (cls := _root_class(c, p, rep)) is None:
        raise InternalInconsistency(f"{a}^((p-1)/3) mod {p} = {c} is no cube root of unity")
    return cls


def class_trace(c: CubicClass, a: int, b: int) -> int:
    """t(c) = 2A, -A + 3B or -A - 3B for UNIT, PLUS or MINUS, at A = a, B = b.

    Every closed form is one linear form in t.  Swapping PLUS and MINUS is
    B -> -B, so the conjugate class is class_trace(c, a, -b).  A c that is
    no CubicClass is a ValueError; a and b are checked with check_int.
    """
    if not isinstance(c, CubicClass):
        raise ValueError(f"c must be a CubicClass, got {c!r}")
    return _class_trace(c, check_int("a", a), check_int("b", b))


def _class_trace(c: CubicClass, a: int, b: int) -> int:
    # class_trace for a caller whose c is a computed CubicClass and whose a
    # and b are the checked fields of a QuadRep: the trace of w (A + B
    # sqrt(-3)), with w the cube root of unity that c names.
    if c is _UNIT:
        return 2 * a
    return -a + 3 * b if c is _PLUS else -a - 3 * b


def l_from_ab(p: int, rep: QuadRep) -> int:
    """Recover L of 4p = L^2 + 27M^2 from the class of 2: L = -t(class of 2).

        2^((p-1)/3) = 1             ->  L = -2A
        2^((p-1)/3) = (-1 - A/B)/2  ->  L = A + 3B
        2^((p-1)/3) = (-1 + A/B)/2  ->  L = A - 3B
    """
    p = _require_rep(p, rep)
    return -_class_trace(_unit_class(2, p, rep), rep.A, rep.B)


def two_class_is_b_mult3(p: int, rep: QuadRep) -> bool:
    """Whether 2 is a cubic residue mod p, read off as 3 | B."""
    _require_rep(p, rep)
    return rep.B % 3 == 0
