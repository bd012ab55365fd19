"""Scalar arithmetic kernels: exact values plus definitional cross-checks."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from cubecount import modarith
from cubecount.errors import CompositeModulus, CubecountError, ZeroInverse
from cubecount.modarith import (
    MAX_PRIME,
    Prime,
    as_residue,
    checked_prime,
    inv_mod,
    is_prime,
    legendre,
    rational_mod,
    sqrt_mod,
)
from helpers import primes_upto, sieve_upto, squares_mod, time_limit, trial_factor


def test_inv_mod_examples_and_zero():
    assert inv_mod(3, 7) == 5
    assert inv_mod(2, 13) == 7
    assert inv_mod(1, 10007) == 1
    with pytest.raises(ZeroInverse):
        inv_mod(0, 7)
    with pytest.raises(ZeroInverse):
        inv_mod(21, 7)


def test_inv_mod_roundtrip():
    for p in (5, 7, 13, 101, 1009):
        for a in range(1, p):
            assert a * inv_mod(a, p) % p == 1


def test_rational_and_fraction_residues():
    assert rational_mod(1, 2, 7) == 4
    assert rational_mod(-1, 3, 13) == 4
    from fractions import Fraction

    assert as_residue(Fraction(1, 2), 7) == 4
    assert as_residue(-1, 7) == 6
    assert as_residue(10, 7) == 3
    with pytest.raises(ZeroInverse):
        rational_mod(1, 7, 7)


def test_legendre_examples():
    assert legendre(1, 7) == 1
    assert legendre(2, 7) == 1
    assert legendre(5, 7) == -1
    assert legendre(0, 7) == 0
    assert legendre(14, 7) == 0
    assert legendre(-1, 13) == 1
    assert legendre(-1, 7) == -1


def test_legendre_matches_square_sets():
    for p in primes_upto(101, start=5):
        sq = squares_mod(p)
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in sq else -1)


def test_legendre_is_multiplicative():
    for p in (7, 13, 101):
        vals = [legendre(a, p) for a in range(p)]
        for a in range(1, p):
            for b in range(1, p):
                assert vals[a * b % p] == vals[a] * vals[b]


def test_sqrt_mod_examples():
    assert sqrt_mod(2, 7) == 3
    assert sqrt_mod(0, 7) == 0
    assert sqrt_mod(5, 7) is None
    assert sqrt_mod(9, 17) == 3


def test_sqrt_mod_exhaustive_small():
    # includes p = 17, 41, 73, 89, 97, which exercise the full two-adic loop
    for p in primes_upto(199, start=5):
        for a in range(p):
            r = sqrt_mod(a, p)
            if legendre(a, p) == -1:
                assert r is None
            else:
                assert r is not None
                assert r * r % p == a
                assert r <= p - r  # canonical representative


def test_sqrt_mod_composite_modulus_raises_promptly():
    # 1729 = 7 * 13 * 19 is a Carmichael number: 1726 passes the Euler test
    # and no z in [2, 1729) is a non-residue by it, so an unbounded search
    # never ends
    with time_limit(5):
        with pytest.raises(CubecountError):
            sqrt_mod(1726, 1729)
        # 3277 = 29 * 113: the search finds a z, then no power of t reaches 1
        with pytest.raises(CubecountError):
            sqrt_mod(7, 3277)


def test_is_prime_examples():
    assert is_prime(2) and is_prime(3) and is_prime(5) and is_prime(10007)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    n = 3215031751  # strong pseudoprime to bases 2, 3, 5 and 7
    assert not is_prime(n)
    f = trial_factor(n)
    assert f is not None and n % f == 0
    assert is_prime(2**61 - 1)


def test_is_prime_matches_sieve():
    limit = 1_000_000
    flags = sieve_upto(limit)
    bad = [n for n in range(limit + 1) if is_prime(n) != bool(flags[n])]
    assert bad == []


def test_prime_type_validation():
    p = Prime(13)
    assert p == 13 and isinstance(p, int)
    assert Prime(2**61 - 1) == 2**61 - 1
    for bad in (-7, 0, 1, 2, 3, 4, 9, 3215031751, MAX_PRIME):
        with pytest.raises(ValueError):
            Prime(bad)
    with pytest.raises(ValueError):
        Prime(2**89 - 1)  # prime, but beyond the supported range


def test_prime_rejects_non_integral_moduli():
    for ok in (Fraction(13), Fraction(26, 2), Decimal("13"), Decimal("13.000")):
        p = Prime(ok)
        assert p == 13 and type(p) is Prime
    for bad in (13.9, 13.0, True, Fraction(27, 2), Decimal("13.9"), Decimal("NaN"), Decimal("Infinity"), "13", None):
        with pytest.raises(ValueError, match="must be an integer"):
            Prime(bad)


def test_prime_raises_composite_modulus():
    for n in (35, 91, 1729, 3215031751):
        with pytest.raises(CompositeModulus, match="is not prime"):
            Prime(n)


def test_checked_prime_validates_each_modulus_once(monkeypatch):
    p = Prime(10007)
    assert checked_prime(p) is p  # a Prime passes without a second test
    calls = []
    real = modarith.is_prime
    monkeypatch.setattr(modarith, "is_prime", lambda n: calls.append(n) or real(n))
    modarith._checked_int.cache_clear()
    for _ in range(100):
        q = checked_prime(10009)
        assert q == 10009 and type(q) is int
    assert calls == [10009]
    for bad in (35, 1729):
        with pytest.raises(CompositeModulus, match="is not prime"):
            checked_prime(bad)
    for bad in (10009.0, True, 3, 2**89 - 1):
        with pytest.raises(ValueError):
            checked_prime(bad)
