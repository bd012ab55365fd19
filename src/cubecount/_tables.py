"""The per-prime memo for the O(p) tables that are read again.

Products of two residues must stay exact in int64, which caps the
enumerable modulus at isqrt(2**63), and the tables hold only mod a prime;
every enumerating entry point checks both with check_enumerable before it
allocates anything.  per_prime is the one cache policy for the O(p)
tables: p checked, table built, marked read-only, and kept for the last
TABLE_PRIMES primes.  It holds three: inv_table here (every vp_brute and
two builders read it), oracle.family_counts (four sweep checks) and
cubicres.t_preimage_counts (one lookup per t).  is_prime, the package's
one primality test, lives here so that the oracles and modarith can both
import it.  numpy is imported on first use, inside the table builders, so
importing the package costs no numpy import until a table is built.
"""

from __future__ import annotations

import functools
from numbers import Integral
from typing import TYPE_CHECKING

from .errors import CompositeModulus

if TYPE_CHECKING:
    import numpy as np

#: Largest modulus for which (p-1)**2 still fits in int64.
MAX_ENUM_PRIME = 3_037_000_499

#: How many primes' worth of each table is kept.  Every caller finishes one
#: prime before it starts the next, so this only has to cover a caller that
#: goes back to a recent prime.
TABLE_PRIMES = 8

# Sinclair's seven Miller-Rabin bases decide every n < 2**64 (a base that
# is 0 mod n is skipped).  The first twelve primes are fooled by
# 318665857834031151167461 = 399165290221 * 798330580441; the first 13
# decide every n < _MR_LIMIT (Sorenson & Webster, Math. Comp. 2017).
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin after trial division by the primes to 41:
    exact below _MR_LIMIT (3.3e24), a ValueError from there on."""
    if n < 2:
        return False
    for q in _MR_PRIMES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise ValueError(f"no deterministic primality test is known for n >= {_MR_LIMIT}")
    r = ((n - 1) & (1 - n)).bit_length() - 1  # 2^r exactly divides n - 1
    d = (n - 1) >> r
    for a in _MR_BASES_64 if n < 1 << 64 else _MR_PRIMES:
        if a % n == 0:
            continue
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


def check_int(name: str, value) -> None:
    """ValueError unless value is an integer; a bool is not one."""
    if type(value) is int:  # the common case, without the ABC check
        return
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_enumerable(p) -> int:
    """p as an int, so that a numpy integer works like a plain one: a
    ValueError unless p is an integer at most MAX_ENUM_PRIME, CompositeModulus
    unless it is prime, since the inverses (from a primitive root) and the
    oracles' Legendre symbols are right only mod a prime."""
    check_int("modulus", p)
    p = int(p)
    if p > MAX_ENUM_PRIME:
        raise ValueError(
            f"p = {p} is too large for array enumeration (limit {MAX_ENUM_PRIME})"
        )
    if not is_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    return p


def per_prime(build):
    """Memoise an O(p) table builder: build(p) -> read-only ndarray.

    The returned function checks p with check_enumerable, builds the table
    from the int that returns, marks it read-only, and keeps the tables of
    the last TABLE_PRIMES primes.  It is the cache wrapper itself, with
    cache_info, cache_clear and cache_parameters; keys are typed, so 7.0 is
    checked (and refused) even after 7 is cached.
    """

    @functools.wraps(build)
    def table(p: int) -> np.ndarray:
        out = build(check_enumerable(p))
        out.flags.writeable = False
        return out

    return functools.lru_cache(maxsize=TABLE_PRIMES, typed=True)(table)


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primitive_root(p: int) -> int:
    """The least generator of the units mod the prime p: the least g with
    g^((p-1)/q) != 1 for every prime q dividing p - 1."""
    qs = _prime_factors(p - 1)
    g = 1
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g


@per_prime
def inv_table(p: int) -> np.ndarray:
    """inv_table(p)[x] = x^(-1) mod p for x in [1, p); slot 0 holds 0.

    O(p): the powers pw[k] = g^k of a primitive root g are filled by
    doubling, pw[n:2n] = pw[:n] * g^n, and since g^(-k) = g^(p-1-k) the
    inverses are one scatter, inv[pw[k]] = pw[p-1-k].  The power table is
    a temporary of the build, not cached.
    """
    import numpy as np

    g = primitive_root(p)
    pw = np.empty(p - 1, dtype=np.int64)
    pw[0] = 1
    n = 1
    while n < p - 1:
        m = min(n, p - 1 - n)
        block = pw[n : n + m]
        np.multiply(pw[:m], pow(g, n, p), out=block)
        block %= p
        n += m
    inv = np.zeros(p, dtype=np.int64)
    inv[1] = 1
    inv[pw[1:]] = pw[:0:-1]
    return inv

