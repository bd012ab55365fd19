"""Cubic residue classes and the curve-membership test behind them.

For p = 1 (mod 3) the cubes form an index-3 subgroup of the units; the
class of a is the value a^((p-1)/3), which is 1 or one of the two primitive
cube roots of unity (-1 +- A/B)/2.  The tags PLUS / MINUS follow the sign
inside that expression, with the (A, B) convention pinned by quadform,
which also defines CubicClass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import _tables
from .errors import BadK, SingularPoint, ZeroArgument
from .modarith import _nonzero_residue, as_residue, checked_prime, inv_mod
from .quadform import CubicClass, QuadRep, _require_rep, _unit_class

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CubicClass",
    "count_t_preimages",
    "cubic_class",
    "h_set",
    "in_c0",
    "is_cubic_residue",
    "k_map",
    "t_map",
    "t_preimage_counts",
]


def cubic_class(a: int, p: int, rep: QuadRep) -> CubicClass:
    """Classify a nonzero residue a by the value of a^((p-1)/3) mod p.

    The QuadRep argument fixes which root of -3 is called A/B, hence which
    non-unit class is PLUS; it must be the rep of p.  Only defined for
    p = 1 (mod 3).  a is reduced by as_residue, so a float is a ValueError.
    """
    _require_rep(p, rep)
    return _unit_class(_nonzero_residue(a, p), p, rep)


def is_cubic_residue(a: int, p: int) -> bool:
    """Whether a is a cube mod p.  Every unit is a cube when p = 2 (mod 3).

    p is checked with checked_prime: a composite raises CompositeModulus;
    a is reduced by as_residue.
    """
    p = checked_prime(p)
    a = _nonzero_residue(a, p)
    return p % 3 == 2 or pow(a, (p - 1) // 3, p) == 1


def k_map(x: int, p: int) -> int:
    """(x^3 - 9x) / (3x^2 - 3) mod a checked prime p; undefined at x^2 = 1."""
    p = checked_prime(p)
    _tables.check_int("x", x)
    x = int(x) % p
    den = (3 * x * x - 3) % p
    if den == 0:
        raise SingularPoint(f"k_map undefined at x = {x} (x^2 = 1 mod {p})")
    return (x * x * x - 9 * x) % p * inv_mod(den, p) % p


def t_map(x: int, p: int) -> int:
    """(x^2 + 3)^3 / (x^2 - 1)^2 mod a checked prime p; undefined at x^2 = 1."""
    p = checked_prime(p)
    _tables.check_int("x", x)
    x = int(x) % p
    d = (x * x - 1) % p
    if d == 0:
        raise SingularPoint(f"t_map undefined at x = {x} (x^2 = 1 mod {p})")
    u = (x * x + 3) % p
    return u * u % p * u % p * inv_mod(d * d, p) % p


def h_set(p: int) -> np.ndarray:
    """The half-range fundamental domain of t_map, ascending and read-only.

    Members are {0, 2, 3, ..., (p-1)/2} minus any x with x^2 = -3 (mod p);
    at most one such x lies in the range, and only when p = 1 (mod 3).
    """
    import numpy as np

    p = _tables.check_enumerable(p)
    half = (p - 1) // 2
    xs = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.arange(2, half + 1, dtype=np.int64)]
    )
    keep = (xs * xs + 3) % p != 0
    out = xs[keep]
    out.flags.writeable = False
    return out


@_tables.per_prime
def t_preimage_counts(p: int) -> np.ndarray:
    """n[t] = how many x in the fundamental domain have t_map(x) = t.

    One vector for every t in [0, p) at once: t_map over h_set(p), then a
    histogram.  O(p) time and memory; the read-only result is cached per
    prime.
    """
    import numpy as np

    xs = h_set(p)
    s = xs * xs % p
    u = (s + 3) % p
    num = u * u % p * u % p
    d = (s - 1) % p
    tv = num * _tables.inv_table(p)[d * d % p] % p
    return np.bincount(tv, minlength=p)


def count_t_preimages(t: int, p: int) -> int:
    """How many x in the fundamental domain have t_map(x) = t (mod p).

    The count is 0 or 3 for t != 27, and exactly 2 for t = 27 (mod p).
    t = 0 is outside the map's image and rejected.
    """
    p = _tables.check_enumerable(p)
    _tables.check_int("t", t)
    t %= p
    if t == 0:
        raise ZeroArgument("t = 0 is not in the image of t_map")
    return int(t_preimage_counts(p)[t])


def in_c0(k, p: int) -> bool:
    """Whether the depressed parameter k is covered by the fundamental domain.

    k may be an int or a Fraction; it is reduced mod p first.  Membership
    is decided by whether t = 9(k^2 + 3) has a t_map preimage.  Values with
    k^2 = -3 (mod p) sit outside the test's domain.
    """
    p = _tables.check_enumerable(p)
    k = as_residue(k, p)
    if (k * k + 3) % p == 0:
        raise BadK(f"k = {k} has k^2 = -3 (mod {p})")
    t = 9 * (k * k + 3) % p
    return count_t_preimages(t, p) > 0
