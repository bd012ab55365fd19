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

from .errors import InternalInconsistency, WrongResidueClass
from .modarith import checked_prime, inv_mod, sqrt_mod

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


def _require_1mod3(p: int) -> None:
    if p % 3 != 1:
        raise WrongResidueClass(f"p = {p} is not 1 (mod 3)")


@dataclass(frozen=True)
class QuadRep:
    """p = A^2 + 3B^2 with A = 1 (mod 3) and B > 0."""

    A: int
    B: int
    p: int

    def __post_init__(self):
        if self.A * self.A + 3 * self.B * self.B != self.p:
            raise InternalInconsistency(
                f"A^2 + 3B^2 = {self.A * self.A + 3 * self.B * self.B} != {self.p}"
            )
        if self.A % 3 != 1 or self.B <= 0:
            raise InternalInconsistency(
                f"normalisation violated: A={self.A}, B={self.B}"
            )


@dataclass(frozen=True)
class EisRep:
    """4p = L^2 + 27M^2 with L = 1 (mod 3) and M > 0."""

    L: int
    M: int
    p: int

    def __post_init__(self):
        if self.L * self.L + 27 * self.M * self.M != 4 * self.p:
            raise InternalInconsistency(
                f"L^2 + 27M^2 = {self.L * self.L + 27 * self.M * self.M} != {4 * self.p}"
            )
        if self.L % 3 != 1 or self.M <= 0:
            raise InternalInconsistency(
                f"normalisation violated: L={self.L}, M={self.M}"
            )


def _normalized_a3b(x: int, y: int, p: int) -> QuadRep:
    # 3 never divides x (x^2 = p - 3y^2 = 1 mod 3), so exactly one sign works.
    a = x if x % 3 == 1 else -x
    return QuadRep(a, y, p)


def represent_a3b(p: int) -> QuadRep:
    """The unique QuadRep of a prime p = 1 (mod 3).

    Cornacchia-style Euclidean descent seeded with a square root of -3
    mod p (-3 is a quadratic residue precisely for p = 1 mod 3): run the
    remainder sequence from (p, root) down to the first term at most
    sqrt(p), which is |A|; B follows by subtraction.  O(log p) after the
    root extraction.  p is validated first, so a composite raises
    CompositeModulus instead of coming back with a representation.
    """
    p = checked_prime(p)
    _require_1mod3(p)
    root = sqrt_mod(p - 3, p)
    if root is not None and root != 0:
        for seed in (p - root, root):
            b, c = p, seed
            while c * c > p:
                b, c = c, b % c
            rem = p - c * c
            if c > 0 and rem % 3 == 0:
                y = isqrt(rem // 3)
                if y > 0 and 3 * y * y == rem:
                    return _normalized_a3b(c, y, p)
    # The descent succeeds for every prime p = 1 (mod 3).
    raise InternalInconsistency(f"descent found no p = A^2 + 3B^2 for the prime {p}")


@lru_cache(maxsize=None)
def _cached_a3b(p: int) -> QuadRep:
    # Hot paths (closed-form counts, sweeps) hit the same p many times.
    return represent_a3b(p)


def represent_l27m(p: int) -> EisRep:
    """The unique EisRep of a prime p = 1 (mod 3): 4p = L^2 + 27M^2.

    Derived from the QuadRep by the residue class of B mod 3, which picks
    the single candidate with integral M:

        3 | B      ->  L = -2A,     M = 2B/3
        B = 1 (3)  ->  L = A + 3B,  M = |A - B|/3
        B = 2 (3)  ->  L = A - 3B,  M = |A + B|/3

    Each candidate already satisfies L = 1 (mod 3); the dataclass check
    confirms the equation.
    """
    rep = represent_a3b(p)
    a, b = rep.A, rep.B
    r = b % 3
    if r == 0:
        return EisRep(-2 * a, 2 * b // 3, p)
    if r == 1:
        return EisRep(a + 3 * b, abs(a - b) // 3, p)
    return EisRep(a - 3 * b, abs(a + b) // 3, p)


@lru_cache(maxsize=64)
def class_value_targets(p: int, rep: QuadRep) -> tuple[int, int]:
    """The two primitive cube roots of unity mod p, as (plus, minus).

    plus = (-1 + A/B)/2 and minus = (-1 - A/B)/2; A/B is a square root of
    -3 mod p because A^2 = p - 3B^2.  Keeping this in one place fixes the
    sign convention for every consumer.
    """
    ab = rep.A % p * inv_mod(rep.B, p) % p
    inv2 = (p + 1) // 2
    t_plus = (ab - 1) % p * inv2 % p
    t_minus = (-ab - 1) % p * inv2 % p
    return t_plus, t_minus


class CubicClass(Enum):
    """Which cube root of unity a^((p-1)/3) equals.

    The members are listed in the order of B mod 3 = 0, 1, 2 that picks the
    class of 32 = 2 * 4^2 (closedform._cor24_value indexes them so).
    """

    UNIT = "unit"
    PLUS = "plus"
    MINUS = "minus"


def root_class(c: int, p: int, rep: QuadRep) -> CubicClass | None:
    """The class named by a cube root of unity c mod p; None for any other c."""
    if c == 1:
        return CubicClass.UNIT
    t_plus, t_minus = class_value_targets(p, rep)
    if c == t_plus:
        return CubicClass.PLUS
    if c == t_minus:
        return CubicClass.MINUS
    return None


#: t = alpha A + beta B for each class: the trace of w (A + B sqrt(-3)),
#: with w the cube root of unity the class names.
_TRACE = {
    CubicClass.UNIT: (2, 0),
    CubicClass.PLUS: (-1, 3),
    CubicClass.MINUS: (-1, -3),
}


def class_trace(c: CubicClass, a: int, b: int) -> int:
    """t(c) = 2A, -A + 3B or -A - 3B for UNIT, PLUS or MINUS, at A = a, B = b.

    Every closed form is one linear form in t.  Swapping PLUS and MINUS is
    B -> -B, so the conjugate class is class_trace(c, a, -b).
    """
    alpha, beta = _TRACE[c]
    return alpha * a + beta * b


def l_from_ab(p: int, rep: QuadRep) -> int:
    """Recover L of 4p = L^2 + 27M^2 from the class of 2: L = -t(class of 2).

        2^((p-1)/3) = 1             ->  L = -2A
        2^((p-1)/3) = (-1 - A/B)/2  ->  L = A + 3B
        2^((p-1)/3) = (-1 + A/B)/2  ->  L = A - 3B
    """
    _require_1mod3(p)
    c2 = pow(2, (p - 1) // 3, p)
    c = root_class(c2, p, rep)
    if c is None:
        raise InternalInconsistency(
            f"2^((p-1)/3) mod {p} = {c2} matches no cube root of unity"
        )
    return -class_trace(c, rep.A, rep.B)


def two_class_is_b_mult3(p: int, rep: QuadRep) -> bool:
    """Whether 2 is a cubic residue mod p, read off as 3 | B."""
    _require_1mod3(p)
    return rep.B % 3 == 0
