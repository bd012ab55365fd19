"""Exact modular arithmetic kernels for word-size primes.

Residues are plain ints in [0, p); every function reduces its arguments, so
any int is accepted.  Python integers are arbitrary precision, which makes
the double-width intermediates exact across the whole supported range.
``Prime`` is the validated boundary type: the CLI constructs one before
touching the kernels.  The closed forms take either a ``Prime`` or a plain
int and check it with ``checked_prime``, which remembers the plain ints it
has validated, so a loop over one modulus runs the primality test once.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from numbers import Integral

from .errors import CompositeModulus, ZeroInverse

__all__ = [
    "MAX_PRIME",
    "Prime",
    "as_residue",
    "checked_prime",
    "inv_mod",
    "is_prime",
    "legendre",
    "rational_mod",
    "sqrt_mod",
]

#: Moduli at or above 2**62 are rejected at the Prime boundary so that every
#: product of two reduced residues stays comfortably inside exact integer
#: range on any backend.
MAX_PRIME = 1 << 62

# Witness set proven complete for n < 3.3 * 10**24 (Sorenson & Webster),
# which covers the whole 64-bit range with room to spare.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for all 64-bit n."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """A validated prime modulus: prime, greater than 3, below 2**62.

    Accepts integers (not bools) and Fraction or Decimal values that are
    whole numbers; anything else, a float included, is a ValueError rather
    than being truncated.  A composite raises CompositeModulus, which is a
    ValueError too.
    """

    def __new__(cls, p) -> "Prime":
        p = _integral(p)
        if p <= 3:
            raise ValueError(f"modulus must be a prime greater than 3, got {p}")
        if p >= MAX_PRIME:
            raise ValueError(f"modulus must be below 2**62, got {p}")
        if not is_prime(p):
            raise CompositeModulus(f"{p} is not prime")
        return super().__new__(cls, p)


def checked_prime(p, _prime: type = Prime) -> int:
    """p as a validated prime modulus, or the error Prime(p) raises.

    A Prime is returned at once.  A plain int is validated by Prime and
    returned as an int; the last few hundred are remembered, so a loop over
    one modulus runs is_prime once, not once per call.  Other accepted
    types (Fraction, Decimal) are validated on every call.  _prime is bound
    when the module loads, so a wrapper later put over the module name
    Prime (perfbench's tracer does this) leaves the fast path working.
    """
    if type(p) is _prime:
        return p
    if type(p) is int:
        return _checked_int(p)
    return int(Prime(p))


@lru_cache(maxsize=256)
def _checked_int(p: int) -> int:
    return int(Prime(p))


def _integral(p) -> int:
    """p as an int, if it is an integer or a whole Fraction or Decimal."""
    if isinstance(p, Integral) and not isinstance(p, bool):
        return int(p)
    if isinstance(p, Fraction) and p.denominator == 1:
        return p.numerator
    if isinstance(p, Decimal) and p.is_finite() and p == p.to_integral_value():
        return int(p)
    raise ValueError(f"modulus must be an integer, got {p!r}")


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p; raises ZeroInverse on a = 0 (mod p)."""
    if a % p == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


def rational_mod(u: int, v: int, p: int) -> int:
    """The residue of the rational u/v, i.e. u * v^(-1) mod p."""
    return u % p * inv_mod(v, p) % p


def as_residue(a, p: int) -> int:
    """Reduce an int or Fraction into [0, p)."""
    if isinstance(a, Fraction):
        return rational_mod(a.numerator, a.denominator, p)
    return int(a) % p


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}, by Euler's criterion.

    p must be an odd prime; composite moduli give meaningless results.
    """
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def sqrt_mod(a: int, p: int) -> int | None:
    """Canonical square root of a mod p, or None when a is a non-residue.

    Returns min(r, p - r) of the two roots, and 0 for a = 0 (mod p).
    Tonelli-Shanks in the general case, with the usual p = 3 (mod 4)
    shortcut.  A composite p that Tonelli-Shanks runs into raises
    CompositeModulus instead of searching on; this is no primality test.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks: write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # A prime has a non-residue below p; Euler's criterion gives only +-1
    # on units, so any other value, or none found, means p is composite.
    z = 2
    while (e := legendre(z, p)) != -1:
        z += 1
        if e != 1 or z >= p:
            raise CompositeModulus(f"{p} is not prime")
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2 = t
        for i in range(1, m):
            t2 = t2 * t2 % p
            if t2 == 1:
                break
        else:
            # mod a prime, t has order 2^i for some i < m
            raise CompositeModulus(f"{p} is not prime")
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)
