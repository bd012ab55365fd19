"""Package-independent reference oracles for the test suite.

Everything here is written from definitions (sieves, exhaustive searches,
pure-python scans) so the implementations under test are always checked
against a second route.  Nothing in this module calls into cubecount.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from math import isqrt

import numpy as np


@contextmanager
def time_limit(seconds: int):
    """Fail the enclosed block with TimeoutError if it runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def sieve_upto(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, isqrt(n) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    return flags


def miller_rabin_64(n: int) -> bool:
    """Primality of 0 <= n < 2**64 by Miller-Rabin to Sinclair's seven bases,
    which no composite below 2**64 passes; a base that is 0 mod n is skipped.
    n is a strong probable prime to base a when, with n - 1 = d 2^s and d
    odd, a^d = 1 or a^(d 2^r) = -1 (mod n) for some 0 <= r < s."""
    assert 0 <= n < 1 << 64
    if n < 4:
        return n >= 2
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 325, 9375, 28178, 450775, 9780504, 1795265022):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


def primes_upto(n: int, start: int = 2) -> list[int]:
    return [int(p) for p in np.flatnonzero(sieve_upto(n)) if p >= start]


def primes_1mod3(n: int) -> list[int]:
    return [p for p in primes_upto(n, start=5) if p % 3 == 1]


def squares_mod(p: int) -> set[int]:
    return {x * x % p for x in range(1, p)}


def cubes_mod(p: int) -> set[int]:
    return {pow(x, 3, p) for x in range(1, p)}


def trial_factor(n: int) -> int | None:
    """Smallest nontrivial factor by trial division, or None for primes."""
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return d
    return None


def search_a3b(p: int) -> tuple[int, int]:
    """Exhaustive (A, B) with A^2 + 3B^2 = p, A = 1 (mod 3), B > 0."""
    b = 1
    while 3 * b * b < p:
        rem = p - 3 * b * b
        a = isqrt(rem)
        if a * a == rem:
            return (a if a % 3 == 1 else -a, b)
        b += 1
    raise AssertionError(f"no representation p = A^2 + 3B^2 for {p}")


def search_l27m(p: int) -> tuple[int, int]:
    """Exhaustive (L, M) with L^2 + 27M^2 = 4p, L = 1 (mod 3), M > 0."""
    m = 1
    while 27 * m * m < 4 * p:
        rem = 4 * p - 27 * m * m
        ell = isqrt(rem)
        if ell * ell == rem:
            return (ell if ell % 3 == 1 else -ell, m)
        m += 1
    raise AssertionError(f"no representation 4p = L^2 + 27M^2 for {p}")


def ref_count_nonzero(values) -> int:
    """Distinct residues in an iterable (for hand-rolled scans)."""
    return len(set(values))
