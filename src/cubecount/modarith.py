"""Exact modular arithmetic kernels for word-size primes.

Residues are plain ints in [0, p); Python integers are arbitrary
precision, so double-width intermediates are exact across the whole
supported range.  Every public name here checks its arguments.
``Prime`` is the one form of a validated modulus.  The closed forms take a
``Prime`` or any integer ``check_int`` accepts and check it with
``checked_prime``, which returns the ``Prime`` for either and remembers
every modulus it has validated, whatever its type, so a loop over one
modulus runs the primality test once.  They invert only units, inline
with pow(x, -1, p), and reduce a rational parameter with _as_residue.
"""

from __future__ import annotations

from functools import lru_cache

from ._tables import _loaded, char2_if_prime, check_int, is_prime
from .errors import CompositeModulus, ZeroArgument, ZeroInverse

__all__ = [
    "MAX_PRIME",
    "Prime",
    "checked_prime",
    "is_prime",
    "legendre",
]

#: Moduli at or above 2**62 are rejected at the Prime boundary so that every
#: product of two reduced residues stays comfortably inside exact integer
#: range on any backend.
MAX_PRIME = 1 << 62


class Prime(int):
    """A validated prime modulus: prime, greater than 3, below 2**62.

    p is checked with _tables.check_int, so a float or a bool is a ValueError
    rather than being truncated; a composite raises CompositeModulus, which
    is a ValueError too.  The primality test is _tables.char2_if_prime, and
    its answer is kept as char2: 2^((p-1)/3) mod p for p = 1 (mod 3), 1
    exactly when 2 is a cube mod p and otherwise a primitive cube root of
    unity, which seeds quadform.represent_a3b's descent; 1 for p = 2
    (mod 3).  A copy or an unpickled one is Prime(int(p)), tested afresh.
    """

    def __new__(cls, p) -> "Prime":
        p = check_int("modulus", p)
        if p <= 3:
            raise ValueError(f"modulus must be a prime greater than 3, got {p}")
        if p >= MAX_PRIME:
            raise ValueError(f"modulus must be below 2**62, got {p}")
        if (char2 := char2_if_prime(p)) is None:
            raise CompositeModulus(f"{p} is not prime")
        self = super().__new__(cls, p)
        self.char2 = char2
        return self

    # int's own reduction skips __new__ at protocols 0 and 1, and at 2 and up
    # reads char2 from the stream
    __reduce__ = lambda self: (type(self), (int(self),))


def checked_prime(p, _prime: type = Prime) -> Prime:
    """p as a validated Prime, or the error Prime(p) raises.

    A Prime is returned at once.  Any other p, as the int check_int
    returns, is validated by Prime in one memo of the last few hundred
    moduli, so a loop over one modulus runs the primality test once,
    whatever its integer type (int, numpy integer, Fraction, Decimal), and
    every type gets the one Prime of the memo.  _prime is bound when the
    module loads, so a wrapper later put over the module name Prime
    (perfbench's tracer does this) leaves the fast path working.
    """
    if type(p) is _prime:
        return p
    return _checked_int(p if type(p) is int else check_int("modulus", p))


@lru_cache(maxsize=256)
def _checked_int(p: int) -> Prime:
    return Prime(p)


def _as_residue(a, p: int) -> int:
    """a reduced into [0, p) for a checked prime p: a Fraction as numerator
    / denominator (ZeroInverse when p divides the denominator), anything
    else as the int _tables.check_int returns (a float is a ValueError,
    not truncated)."""
    if type(a) is int:
        return a % p
    if isinstance(a, _loaded("fractions", "Fraction")):
        if a.denominator % p == 0:
            raise ZeroInverse(f"the denominator of {a} is 0 mod {p}")
        return a.numerator % p * pow(a.denominator, -1, p) % p
    return check_int("a residue", a) % p


def _nonzero_residue(a, p: int) -> int:
    a = _as_residue(a, p)
    if a == 0:
        raise ZeroArgument("a must be nonzero mod p")
    return a


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}, by Euler's criterion.

    p is checked with checked_prime: a composite raises CompositeModulus;
    a with _tables.check_int.
    """
    p = checked_prime(p)
    a = check_int("a", a) % p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t

