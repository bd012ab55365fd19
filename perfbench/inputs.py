"""Seeded workload inputs, made without calling cubecount.

Primes come from the benchmark's own Miller-Rabin test.  Every prime the
closed-form workloads use is built from a chosen pair as p = A^2 + 3B^2, so
its normalised representation (A = 1 mod 3, B > 0) is known before the
program is asked, and every closed-form answer can be re-derived from it.
"""

from __future__ import annotations

import random
from math import gcd, isqrt, prod

# Miller-Rabin bases: deterministic for every n below 2^64 (Sinclair's
# set; a base that is 0 mod n is skipped), and the first 12 primes for every
# n below 3.3e24.
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = tuple(q for q in range(3, 200, 2) if all(q % d for d in range(3, isqrt(q) + 1, 2)))
_SMALL_PRODUCT = prod(_SMALL_PRIMES)

#: The sweep checks and, for a prime p > 3, how many pairs each one tests.
#: This restates the pair count of every check in cubecount.sweep, so the
#: benchmark can confirm that a sweep tested everything it should have.
PAIR_RULES = {
    "theorem21": lambda p: p - 1,
    "lemma22": lambda p: p - 1,
    "lemma23": lambda p: p - 1,
    "cor21": lambda p: p - 1 if p % 3 == 1 else 0,
    "cor23": lambda p: 3 if p % 3 == 1 else 0,
    "cor24": lambda p: 2 if p % 3 == 1 else 0,
    "vonsterneck": lambda p: 24,
    "jacobi": lambda p: 2 if p % 3 == 1 else 0,
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    if gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES_64 if n < 1 << 64 else _MR_BASES:
        a %= n
        if a == 0:
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


def primes_upto(n: int) -> list[int]:
    """Primes <= n, by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, n + 1, q)))
    return [q for q in range(n + 1) if sieve[q]]


def expected_pairs(max_p: int, checks) -> dict[str, int]:
    """Pairs each check tests over the primes 5 <= p <= max_p."""
    ps = [p for p in primes_upto(max_p) if p >= 5]
    return {name: sum(PAIR_RULES[name](p) for p in ps) for name in checks}


class KnownPrime:
    """A prime p = A^2 + 3B^2 with its normalised (A, B)."""

    __slots__ = ("p", "A", "B")

    def __init__(self, p: int, A: int, B: int):
        if A * A + 3 * B * B != p or A % 3 != 1 or B <= 0:
            raise ValueError(f"({A}, {B}) is not the normalised representation of {p}")
        self.p, self.A, self.B = p, A, B


def prime_from_rep(rng: random.Random, lo: int, hi: int) -> KnownPrime:
    """A prime p = A^2 + 3B^2 in [lo, hi), drawn from rng.

    Each prime = 1 (mod 3) has exactly one normalised pair, so drawing the
    pair and keeping the prime ones gives primes with a known answer.
    """
    b_max = isqrt((hi - 1) // 3)
    draw = rng.random
    while True:
        b = 1 + int(draw() * b_max)
        rest_hi = hi - 1 - 3 * b * b
        a_lo = isqrt(max(lo - 3 * b * b - 1, 0)) + 1
        a_hi = isqrt(rest_hi)
        if a_lo > a_hi:
            continue
        a = a_lo + int(draw() * (a_hi - a_lo + 1))
        if a % 3 == 0:
            continue
        p = a * a + 3 * b * b
        if lo <= p < hi and is_prime(p):
            return KnownPrime(p, a if a % 3 == 1 else -a, b)
