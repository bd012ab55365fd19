"""The per-prime memo for the O(p) tables that are read again.

Products of two residues must stay exact in int64, which caps the
enumerable modulus at isqrt(2**63), and the tables hold only mod a prime;
every enumerating entry point checks both with check_enumerable before it
allocates anything.  per_prime is the one cache policy for the O(p)
tables: p checked, the last prime's table dropped, the new one built,
marked read-only, and kept for the one prime last asked for.  It holds
three.  unit_powers here, the powers of the least primitive root, is the
one enumeration of the units: inverses and family_counts read it when
they build, vp_brute and np_cubic_roots walk the units by it, and the
Jacobsthal oracles read the squares and cubes of the units off it as
strided views.  It is stored as uint32, 4 bytes per residue, since every
residue below MAX_ENUM_PRIME fits, and its readers widen a block before
arithmetic: a block of it becomes int64 (.astype(np.int64), or a ufunc's
dtype=np.int64) before any product or sum, because numpy does not widen
uint32 * int on its own (neither numpy 2's NEP 50 rules nor numpy 1's
value-based ones) and the product would wrap silently.  A strided view
of it that indexes a gather or scatter is cast to np.intp a block at a
time: numpy's own cast of a strided uint32 index was slower.
oracle.family_counts serves four sweep checks, and
cubicres.t_preimage_counts one lookup per t.  inverses has one reader,
t_preimage_counts, which builds its cached table from it once per prime,
so it is built per call and not kept.  reduce_mod is the one way an
array is reduced mod p anywhere in the package: numpy's int64 % costs
about four times its floor division.  is_prime, the
package's one primality test (Baillie-PSW, one strong probable-prime
round to base 2 and one strong Lucas test with no table, for n < 2**64),
and check_int, its one rule for what an integer argument is, live here so
that the oracles and modarith can both import them.  The test runs in
char2_if_prime, whose base-2 round takes one pow, 2^(d/3) with
n - 1 = d 2^r, for an n = 1 (mod 3) and so also returns 2^((n-1)/3):
modarith.Prime, the form of every checked modulus, keeps it to seed
quadform.represent_a3b's descent.  is_prime is that answer read as a
bool.  numpy is imported on first use, inside the table builders, so
importing the package costs no numpy import until a table is built.
"""

from __future__ import annotations

import functools
import sys
from collections import namedtuple
from math import gcd, isqrt
from numbers import Integral
from typing import TYPE_CHECKING

from .errors import CompositeModulus

if TYPE_CHECKING:
    import numpy as np

#: Largest modulus for which (p-1)**2 still fits in int64.
MAX_ENUM_PRIME = 3_037_000_499

# Every odd n < 2**64 with no prime factor up to 41 is decided by one strong
# probable-prime round to base 2 and one strong Lucas test with Selfridge's
# parameters (Baillie-PSW): no composite below 2**64 passes both (Gilchrist
# checked Feitsma's list of base-2 pseudoprimes), and neither needs a table.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Trial division by the primes to 41, which decides every n < 43**2;
    then Baillie-PSW (a strong probable-prime round to base 2, then
    _strong_lucas_prp).  Exact and deterministic below 2**64, which covers
    every modulus the package accepts; ValueError from there on and for a
    non-int.  The test runs in char2_if_prime; this is its answer as a bool."""
    return char2_if_prime(n) is not None


def char2_if_prime(n: int) -> int | None:
    """None unless n is prime, decided as is_prime describes; for a prime n,
    2^((n-1)/3) mod n when n = 1 (mod 3), the cubic character of 2 (1 exactly
    when 2 is a cube, else a primitive cube root of unity), and 1 for any
    other prime, where 2 is a cube too.  Above 43**2 the base-2 round
    computes it on the way (_strong_prp), at no extra pow."""
    n = check_int("n", n)
    if n >= 1 << 64:
        raise ValueError(f"is_prime decides n < 2**64 only, got {n}")
    if n < 2:
        return None
    for q in _SMALL_PRIMES:
        if n % q == 0:
            if n != q:
                return None
            break
    else:
        if n >= 1849:
            w = _strong_prp(n, 2)
            return w if w is not None and _strong_lucas_prp(n) else None
    return pow(2, (n - 1) // 3, n) if n % 3 == 1 else 1


def _strong_prp(n: int, a: int) -> int | None:
    """None unless the odd n > a is a strong probable prime to base a; else
    a^((n-1)/3) mod n when 3 divides n - 1, and 1 otherwise, so a unit a
    never gives a falsy answer.

    With n - 1 = d 2^r, d odd, 3 divides n - 1 exactly when it divides d,
    and then one pow gives both: y = a^(d/3), y^3 = a^d starts the strong
    round, and y squared r times is a^((n-1)/3).
    """
    r = ((n - 1) & (1 - n)).bit_length() - 1  # 2^r exactly divides n - 1
    d = (n - 1) >> r
    if d % 3:
        x, w = pow(a, d, n), 1
    else:
        w = pow(a, d // 3, n)
        x = w * w % n * w % n
        for _ in range(r):
            w = w * w % n
    if x == 1 or x == n - 1:
        return w
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return w
    return None


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0, by binary reciprocity."""
    a %= n
    t = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                t = -t
        a, n = n, a
        if a & n & 3 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Whether the odd n > 1 with no prime factor up to 41 is a strong Lucas
    probable prime for Selfridge's parameters: D the first of 5, -7, 9,
    -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4.

    With n + 1 = d 2^s, d odd, that is U_d = 0 or V_(d 2^r) = 0 (mod n) for
    some 0 <= r < s.  No power of Q is tracked: if a and b are the roots of
    x^2 - x + Q, then a^2/Q and b^2/Q are the roots of x^2 - P' x + 1 with
    P' = 1/Q - 2, so X_k = V_k(P', 1) = V_(2k)/Q^k, X_(2k) = X_k^2 - 2 and
    X_(2k+1) = X_k X_(k+1) - P'.  A ladder over the bits of m = (d - 1)/2
    gives X_m and X_(m+1), two products mod n per bit of d.  Since
    V_(d+1) = V_d - Q V_(d-1) and D U_d = 2 V_(d+1) - V_d, and D and Q are
    units mod n, U_d = 0 exactly when X_m = X_(m+1), and V_d = 0 exactly
    when X_m + X_(m+1) = 0.  For 1 <= r < s, V_(d 2^r) = 0 exactly when
    X_(d 2^(r-1)) = 0: X_d = X_m X_(m+1) - P', then squared less 2, one
    product per step.  A square n has (D/n) = -1 for no D, so it is refused
    before the search for D.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # D shares a factor with n; |D| stays far below n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    if gcd(Q, n) > 1:  # composite; a shared prime divides an earlier D, which had j == 0
        return False
    P = (pow(Q, -1, n) - 2) % n  # P' = 1/Q - 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    x, y = 2, P  # X_0, X_1; bin(0) is "0b0", which keeps them
    for bit in bin(d >> 1)[2:]:
        if bit == "1":  # k -> 2k + 1
            x, y = (x * y - P) % n, (y * y - 2) % n
        else:  # k -> 2k
            x, y = (x * x - 2) % n, (x * y - P) % n
    if x == y or (x + y) % n == 0:
        return True
    x = (x * y - P) % n  # X_d
    for _ in range(s - 1):
        if x == 0:
            return True
        x = (x * x - 2) % n
    return False


def check_int(name: str, value) -> int:
    """value as an int: an Integral other than a bool (a numpy integer too),
    a whole Fraction or a finite whole Decimal.  Anything else, a float or a
    string included, is a ValueError naming the argument, never truncated.
    Fraction and Decimal are read off sys.modules, by _loaded."""
    if type(value) is int:  # the common case, without the ABC checks
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, _loaded("fractions", "Fraction")) and value.denominator == 1:
        return value.numerator
    if isinstance(value, _loaded("decimal", "Decimal")) and value.is_finite() and value == value.to_integral_value():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _loaded(module: str, name: str):
    """module.name if module is loaded, else (), which nothing is an instance
    of, as nothing is before the module loads: fractions and decimal stay out."""
    return getattr(sys.modules.get(module), name, ())


def check_enumerable(p) -> int:
    """p as the int check_int returns, so that a numpy integer works like a
    plain one: a ValueError unless p is an integer at most MAX_ENUM_PRIME,
    CompositeModulus unless it is prime, since the inverses (from a primitive
    root) and the oracles' Legendre symbols are right only mod a prime."""
    p = check_int("modulus", p)
    if p > MAX_ENUM_PRIME:
        raise ValueError(
            f"p = {p} is too large for array enumeration (limit {MAX_ENUM_PRIME})"
        )
    if not is_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    return p


#: Elements reduce_mod reduces at a time, so that its quotient temporary
#: stays 128 KiB, in cache, however long the array.
_REDUCE_BLOCK = 1 << 14


def reduce_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p, in place, for an int64 array a and an int p >= 1; returns a.

    a -= (a // p) * p: numpy's // by a scalar is a multiply and shift
    (libdivide), about 0.9 ns per element against 3.7 for its int64 % on a
    2-core Xeon VM, and the whole reduction costs 1.4 ns.  // floors, so a
    negative a lands in [0, p) too, and the result is exact for every int64:
    the true a - q*p lies in [0, p), so a product that wraps mod 2^64
    wraps back in the subtraction.  _REDUCE_BLOCK elements at a time, each
    block a view of a, with one int64 temporary of at most that length.
    """
    for lo in range(0, len(a), _REDUCE_BLOCK):
        block = a[lo : lo + _REDUCE_BLOCK]
        q = block // p
        q *= p
        block -= q
    return a


#: What cache_info returns, with the field names of functools.lru_cache's.
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def per_prime(build):
    """Memoise an O(p) table builder: build(p) -> read-only ndarray.

    The returned function keeps the table of the last prime only: every
    caller finishes one prime before it starts the next, so a second slot
    would never be read.  An int equal to the cached prime, a Prime too, is
    a hit at once; any other p is checked with check_enumerable first, and
    the slot is keyed on the int that returns, so 13 and np.int64(13) share
    one table and 13.0 is refused even while 13 is cached.  A miss drops the
    old table before it builds the new one, so a switch of primes never
    holds both.  The table is marked read-only.  cache_info, cache_clear
    and cache_parameters work as on functools.lru_cache(maxsize=1).
    """
    key = table = None
    hits = misses = 0

    @functools.wraps(build)
    def cached(p: int) -> np.ndarray:
        nonlocal key, table, hits, misses
        if not (isinstance(p, int) and p == key):
            p = check_enumerable(p)
        if p == key:
            hits += 1
            return table
        misses += 1
        key = table = None
        out = build(p)
        out.flags.writeable = False
        key, table = p, out
        return out

    def cache_clear() -> None:
        nonlocal key, table, hits, misses
        key = table = None
        hits = misses = 0

    cached.cache_info = lambda: CacheInfo(hits, misses, 1, int(key is not None))
    cached.cache_clear = cache_clear
    cached.cache_parameters = lambda: {"maxsize": 1, "typed": False}
    return cached


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
def unit_powers(p: int) -> np.ndarray:
    """pw[k] = g^k mod p for k in [0, p), g the least primitive root:
    every unit once, in the order of its discrete logarithm, in pw[:-1],
    and pw[p - 1] = g^(p-1) = 1 = pw[0].  Since g^(-k) = g^(p-1-k), the
    table read backwards, pw[::-1], lists the inverses of pw, k = 0 too.
    Every oracle that enumerates the units reads them off this table.

    uint32, 4 bytes per residue.  O(p), filled by doubling, pw[n:2n] =
    pw[:n] * g^n mod p, each product taken in one int64 block of
    _REDUCE_BLOCK at a time and stored reduced, so the build holds the
    table plus two blocks, never a widened half-table.
    """
    import numpy as np

    g = primitive_root(p)
    pw = np.empty(p, dtype=np.uint32)
    pw[0] = 1
    wide = np.empty(min(p, _REDUCE_BLOCK), dtype=np.int64)
    n = 1
    while n < p:
        m, gn = min(n, p - n), pow(g, n, p)
        for lo in range(0, m, _REDUCE_BLOCK):
            hi = min(lo + _REDUCE_BLOCK, m)
            block = wide[: hi - lo]
            np.multiply(pw[lo:hi], gn, out=block, dtype=np.int64)
            pw[n + lo : n + hi] = reduce_mod(block, p)
        n += m
    return pw


def inverses(p: int) -> np.ndarray:
    """inverses(p)[x] = x^(-1) mod p for x in [1, p); slot 0 holds 0.

    O(p), not cached: its one reader, cubicres.t_preimage_counts, caches
    the table it builds from it.  Since g^(-k) = g^(p-1-k), the inverses
    are one scatter of the cached unit_powers (which checks p first),
    inv[pw[k]] = pw[p-1-k].
    """
    import numpy as np

    pw = unit_powers(p)
    inv = np.zeros(p, dtype=np.int64)
    inv[pw] = pw[::-1]
    return inv
