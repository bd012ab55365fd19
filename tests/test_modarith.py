"""Scalar arithmetic kernels: exact values plus definitional cross-checks."""

import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cubecount import _tables, modarith
from cubecount.closedform import jacobsthal_closed, von_sterneck_value, vp_2a, vp_closed, vp_half_x2
from cubecount.cubicres import cubic_class, is_cubic_residue
from cubecount.errors import CompositeModulus, ZeroInverse
from cubecount.modarith import (
    MAX_PRIME,
    Prime,
    checked_prime,
    is_prime,
    legendre,
)
from cubecount.quadform import represent_a3b, represent_l27m
from helpers import miller_rabin_64, primes_upto, sieve_upto, squares_mod, time_limit, trial_factor


def test_rational_and_fraction_residues():
    # vp_closed reports the residue its parameter reduces to as .a
    assert vp_closed(Fraction(1, 2), 7).a == 4
    assert vp_closed(Fraction(-1, 3), 13).a == 4
    assert vp_closed(-1, 7).a == 6
    assert vp_closed(10, 7).a == 3
    assert vp_closed(Decimal("10"), 7).a == 3
    with pytest.raises(ZeroInverse):
        vp_closed(Fraction(1, 7), 7)
    for bad in (2.5, 2.0, True, False, "3", None, Decimal("2.5")):
        with pytest.raises(ValueError, match="must be an integer"):
            vp_closed(bad, 7)


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


def test_legendre_refuses_composite_moduli():
    for call in (
        lambda: legendre(2, 35),
        lambda: legendre(5, 561),
        lambda: legendre(2, 561),
    ):
        with pytest.raises(CompositeModulus):
            call()
    with pytest.raises(ValueError):
        legendre(1, 3)


def test_is_prime_examples():
    assert is_prime(2) and is_prime(3) and is_prime(5) and is_prime(10007)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    n = 3215031751  # strong pseudoprime to bases 2, 3, 5 and 7
    assert not is_prime(n)
    f = trial_factor(n)
    assert f is not None and n % f == 0
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)  # the largest prime below 2**64
    # no modulus the package accepts reaches 2**64: is_prime decides below it only
    for n in (2**64, 2**64 + 13, 318665857834031151167461, 2**89 - 1):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            is_prime(n)


def test_is_prime_matches_strong_bpsw():
    # Two routes on the same inputs: the seven-base Miller-Rabin of
    # helpers, written from the definition, and sympy's Baillie-PSW, the
    # method is_prime uses below 2**64, written independently of it.
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    bpsw = primetest.is_strong_bpsw_prp
    rng = random.Random(20261018)
    odd = [rng.randrange(1 << 61, 1 << 62) | 1 for _ in range(20_000)]
    primes31 = [q for q in (rng.randrange(1 << 30, 1 << 31) | 1 for _ in range(3_000)) if bpsw(q)]
    products = [rng.choice(primes31) * rng.choice(primes31) for _ in range(2_000)]
    # strong pseudoprimes to the bases 2; 2, 3, 5; 2 to 7; and 2 to 31
    pseudoprimes = [2047, 25326001, 3215031751, 3825123056546413051]
    inputs = odd + products + pseudoprimes
    got = [is_prime(n) for n in inputs]
    assert [n for n, g in zip(inputs, got) if g != miller_rabin_64(n)] == []
    assert [n for n, g in zip(inputs, got) if g != bpsw(n)] == []
    assert sum(got[: len(odd)]) > 500  # both answers occur


def test_strong_lucas_half_matches_sympy():
    # every odd n in [43**2, 200000] that trial division passes on
    lucas = pytest.importorskip("sympy.ntheory.primetest").is_strong_lucas_prp
    small = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    ns = [n for n in range(1849, 200_001, 2) if all(n % q for q in small)]
    got = [_tables._strong_lucas_prp(n) for n in ns]
    assert [n for n, g in zip(ns, got) if g != lucas(n)] == []
    assert 0 < sum(got) < len(ns)  # both answers occur


def test_strong_lucas_half_matches_sympy_at_word_size():
    # n up to 2**64: ladders of up to 63 bits, and both ends of the trailing loop
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    rng = random.Random(20261021)
    small = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    odd = [n for n in (rng.randrange(1 << 61, 1 << 64) | 1 for _ in range(10_000)) if all(n % q for q in small)]
    primes31 = [q for q in (rng.randrange(1 << 30, 1 << 31) | 1 for _ in range(1_000)) if primetest.isprime(q)]
    products = [rng.choice(primes31) * rng.choice(primes31) for _ in range(300)]
    # n + 1 a power of two (d = 1, so the ladder runs over m = 0), and
    # n + 1 = 2 d with d odd (s = 1, a 60-bit ladder and no trailing step)
    edges = [2**31 - 1, 2**61 - 1, 2305843009213694017]
    inputs = odd + products + edges
    got = [_tables._strong_lucas_prp(n) for n in inputs]
    assert [n for n, g in zip(inputs, got) if g != primetest.is_strong_lucas_prp(n)] == []
    assert 0 < sum(got[: len(odd)]) < len(odd)  # both answers occur
    assert got[-3:] == [True, True, True]


def test_strong_lucas_pseudoprimes_fail_the_base_2_round():
    # strong Lucas pseudoprimes for Selfridge's parameters (OEIS A217255)
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _tables._strong_lucas_prp(n), n
        assert not is_prime(n), n


def test_squares_are_refused_at_once():
    # 1093**2 and 3511**2 (Wieferich primes squared) are strong
    # pseudoprimes to base 2, so only the Lucas half refuses them; for a
    # square no D has (D/n) = -1, so without the square test the search
    # for D runs until |D| shares a factor with n.
    assert not is_prime(1849)
    with time_limit(2):
        for n in (1093**2, 3511**2):
            assert _tables._strong_prp(n, 2), n
            assert not is_prime(n), n
        for q in (1093, 3511, 4_294_967_291, 2**61 - 1):
            assert not _tables._strong_lucas_prp(q * q), q


#: the strong pseudoprimes to base 2 below 2 * 10**6 that are 1 (mod 3) and
#: have no prime factor up to 41: the round that Prime shares with the
#: cube root of unity passes them all, and only the Lucas half refuses them
SPSP2_1MOD3 = (
    42799, 49141, 65281, 80581, 85489, 88357, 90751, 104653, 130561, 196093,
    220729, 233017, 256999, 271951, 390937, 458989, 489997, 514447, 647089, 741751,
    838861, 873181, 877099, 916327, 976873, 983401, 1082401, 1145257, 1194649, 1251949,
    1302451, 1357441, 1373653, 1397419, 1493857, 1507963, 1509709, 1530787, 1730977, 1876393,
    1969417, 1987021,
)  # fmt: skip

SMALL_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_base_2(n: int) -> bool:
    # the strong probable-prime round to base 2, from its definition:
    # n - 1 = d 2^s, d odd, and 2^d = 1 or 2^(d 2^r) = -1 for some r < s
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return pow(2, d, n) == 1 or any(pow(2, d << r, n) == n - 1 for r in range(s))


def test_prime_refuses_the_base_2_pseudoprimes_1_mod_3():
    # the list is every such pseudoprime below 2 * 10**5
    below = [
        n
        for n in range(1849, 200_000, 6)
        if all(n % q for q in SMALL_ODD_PRIMES) and strong_base_2(n) and not miller_rabin_64(n)
    ]
    assert below == [n for n in SPSP2_1MOD3 if n < 200_000]
    assert len(SPSP2_1MOD3) == 42
    for n in (*SPSP2_1MOD3, 1093**2):
        assert n % 3 == 1 and all(n % q for q in SMALL_ODD_PRIMES) and trial_factor(n), n
        assert strong_base_2(n), n
        # the shared round passes each on, with 2^((n-1)/3) as it would for a prime
        assert _tables._strong_prp(n, 2) == pow(2, (n - 1) // 3, n), n
        with pytest.raises(CompositeModulus, match="is not prime"):
            Prime(n)
        assert _tables.char2_if_prime(n) is None and not is_prime(n)


def test_the_base_2_round_keeps_the_cubic_character_of_2():
    # is_prime as it was before the round kept the root: trial division to
    # 41, the base-2 round written out, the strong Lucas half
    def reference(n):
        if n < 1849:
            return n in (2, *SMALL_ODD_PRIMES) or (n > 41 and all(n % q for q in (2, *SMALL_ODD_PRIMES)))
        return n % 2 == 1 and all(n % q for q in SMALL_ODD_PRIMES) and strong_base_2(n) and _tables._strong_lucas_prp(n)

    rng = random.Random(20261022)
    odd = [rng.randrange(1 << 40, 1 << 62) | 1 for _ in range(19_000)]
    small = [rng.randrange(1849) for _ in range(1_000)]
    # n = 3 2^k + 1, d = 3: the pow is 2^1 and the root takes k squares
    edges = [7, 13, 97, 193, 769, 12289, 786433, 3221225473, 206158430209, 6597069766657, 2**61 - 1]
    ones = 0
    for n in odd + small + edges:
        w = _tables.char2_if_prime(n)
        assert (w is not None) == is_prime(n) == reference(n), n
        if w is None:
            continue
        assert w == (pow(2, (n - 1) // 3, n) if n % 3 == 1 else 1), n
        if n > 3:
            assert Prime(n).char2 == w, n
        ones += n % 3 == 1
    assert ones > 400  # both residue classes of primes occur


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


def test_a_prime_is_tested_again_when_unpickled(monkeypatch):
    # int's own reduction skipped Prime.__new__ at protocols 0 and 1, and
    # at 2 and up read char2 from the stream
    calls = []
    real = modarith.char2_if_prime  # the primality test Prime runs
    monkeypatch.setattr(modarith, "char2_if_prime", lambda n: calls.append(n) or real(n))
    p = Prime(10009)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        calls.clear()
        back = pickle.loads(pickle.dumps(p, protocol))
        assert type(back) is Prime and back == p and back.char2 == p.char2
        assert calls == [10009], protocol
    # a stream edited to a composite is refused, not loaded as a Prime
    forged = pickle.dumps(Prime(13), 0).replace(b"I13\n", b"I15\n")
    assert forged != pickle.dumps(Prime(13), 0)
    with pytest.raises(CompositeModulus):
        pickle.loads(forged)


def test_checked_prime_validates_each_modulus_once(monkeypatch):
    p = Prime(10007)
    assert checked_prime(p) is p  # a Prime passes without a second test
    calls = []
    real = modarith.char2_if_prime  # the primality test Prime runs
    monkeypatch.setattr(modarith, "char2_if_prime", lambda n: calls.append(n) or real(n))
    modarith._checked_int.cache_clear()
    first = checked_prime(10009)
    assert type(first) is Prime and first.char2 == pow(2, (10009 - 1) // 3, 10009)
    for _ in range(100):
        # every accepted integer type shares the one memo entry of 10009
        for n in (10009, np.int64(10009), Fraction(10009), Decimal(10009)):
            assert checked_prime(n) is first
    assert calls == [10009]
    for bad in (35, 1729):
        with pytest.raises(CompositeModulus, match="is not prime"):
            checked_prime(bad)
    for bad in (10009.0, True, 3, 2**89 - 1):
        with pytest.raises(ValueError):
            checked_prime(bad)


#: primes 1 (mod 3): five digits, and the 61 bits of the CLI examples
MODULI_1MOD3 = (10009, 2305843009213694017)
REPS = {p: represent_a3b(p) for p in MODULI_1MOD3}

#: each public function that checks its modulus by checked_prime, as a call at p
CHECKS_P = {
    "vp_closed": lambda p: vp_closed(5, p),
    "vp_2a": lambda p: vp_2a(5, p),
    "vp_half_x2": lambda p: vp_half_x2(5, p),
    "jacobsthal_closed": lambda p: jacobsthal_closed(5, p, REPS[int(p)]),
    "von_sterneck_value": von_sterneck_value,
    "cubic_class": lambda p: cubic_class(5, p, REPS[int(p)]),
    "is_cubic_residue": lambda p: is_cubic_residue(5, p),
    "legendre": lambda p: legendre(5, p),
    "represent_l27m": represent_l27m,
}


@pytest.mark.parametrize("name", sorted(CHECKS_P))
def test_a_numpy_integer_modulus_is_validated_once(name, monkeypatch):
    call = CHECKS_P[name]
    calls = []
    real = modarith.char2_if_prime  # the primality test Prime runs
    monkeypatch.setattr(modarith, "char2_if_prime", lambda n: calls.append(n) or real(n))
    for p in MODULI_1MOD3:
        want = call(p)
        calls.clear()
        modarith._checked_int.cache_clear()
        for _ in range(50):
            assert call(np.int64(p)) == want
        # one primality test, one memo entry, for both types
        assert calls == [p]
        assert modarith._checked_int.cache_info().misses == 1
