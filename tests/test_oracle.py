"""Brute-force enumeration oracles, checked against pure-python scans."""

import ast
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cubecount import _tables, oracle
from cubecount.cubicres import count_t_preimages, h_set, in_c0, t_preimage_counts
from cubecount.errors import CompositeModulus, EmptyDomain, InternalInconsistency, ZeroArgument
from cubecount.modarith import Prime, legendre
from cubecount.oracle import (
    BRUTE_BLOCK,
    FAMILY_BLOCK_BYTES,
    Domain,
    RationalMap,
    discriminant_cubic,
    family_counts,
    jacobsthal_all,
    jacobsthal_brute,
    np_cubic_roots,
    vp_brute,
)
from cubecount.sweep import run_sweep
from helpers import (
    cubes_mod,
    primes_1mod3,
    primes_upto,
    sieve_upto,
    squares_mod,
    time_limit,
    trial_factor,
)


def test_rational_map_constructors():
    f = RationalMap.x2_plus_a_over_x(3)
    assert f.numerator == (3, 0, 0, 1) and f.denominator == (0, 1)
    g = RationalMap.x_plus_a_over_2x2(3)
    assert g.numerator == (3, 0, 0, 2) and g.denominator == (0, 0, 2)
    h = RationalMap.cubic(4, 5, 6)
    assert h.numerator == (6, 5, 4, 1) and h.denominator == (1,)
    assert RationalMap((0, 0, 1)).denominator == (1,)
    with pytest.raises(ValueError):
        RationalMap((), (1,))


def test_vp_brute_examples():
    assert vp_brute(RationalMap.x2_plus_a_over_x(1), 5, Domain.NONZERO).v == 3
    assert vp_brute(RationalMap.x2_plus_a_over_x(2), 7, Domain.NONZERO).v == 3
    assert vp_brute(RationalMap.x2_plus_a_over_x(4), 7, Domain.NONZERO).v == 6
    for p in (5, 7, 13, 101):
        sq = vp_brute(RationalMap((0, 0, 1)), p, Domain.ALL)
        assert sq.v == (p + 1) // 2


def test_vp_brute_bitmap():
    res = vp_brute(RationalMap.x2_plus_a_over_x(4), 7, Domain.NONZERO, want_bitmap=True)
    assert res.attained is not None
    assert res.attained.shape == (7,) and res.attained.dtype == bool
    assert np.flatnonzero(res.attained).tolist() == [1, 2, 3, 4, 5, 6]
    assert res.attained.sum() == res.v
    plain = vp_brute(RationalMap.x2_plus_a_over_x(4), 7, Domain.NONZERO)
    assert plain.attained is None


def test_vp_brute_matches_pure_python():
    for p in primes_upto(60, start=5):
        for a in range(1, p):
            f = RationalMap.x2_plus_a_over_x(a)
            want = len({(x**3 + a) * pow(x, -1, p) % p for x in range(1, p)})
            assert vp_brute(f, p, Domain.NONZERO).v == want


def test_vp_brute_empty_domain_and_cap():
    with pytest.raises(EmptyDomain):
        vp_brute(RationalMap((1,), (0,)), 7, Domain.ALL)
    with pytest.raises(ValueError):
        vp_brute(RationalMap((0, 1), (1,)), 3_100_000_000, Domain.ALL)


def test_inv_table_inverts_every_unit():
    for p in primes_upto(2000):
        inv = _tables.inverses(p)
        assert inv[0] == 0
        assert inv[1:].tolist() == [pow(x, -1, p) for x in range(1, p)], p


def test_inv_table_at_a_large_prime():
    p = 1_000_003
    inv = _tables.inverses(p)
    assert inv.shape == (p,) and inv.dtype == np.int64
    rng = random.Random(9)
    for x in [1, 2, p - 2, p - 1] + [rng.randrange(1, p) for _ in range(5_000)]:
        assert inv[x] == pow(x, -1, p)


def multiplicative_order(g: int, p: int) -> int:
    k, y = 1, g % p
    while y != 1:
        y = y * g % p
        k += 1
    return k


@pytest.mark.parametrize("p", [65_537, 200_087])
def test_primitive_root_is_the_least_generator(p):
    # 65537 - 1 = 2^16; 200087 - 1 = 2 * 100043 has a large prime cofactor
    if p == 200_087:
        assert trial_factor((p - 1) // 2) is None
    g = _tables.primitive_root(p)
    assert multiplicative_order(g, p) == p - 1
    assert all(multiplicative_order(h, p) < p - 1 for h in range(1, g))


def horner(coeffs: tuple[int, ...], x: int, p: int) -> int:
    """The polynomial with these ascending coefficients at x, mod p, in Python ints."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def python_values(f: RationalMap, p: int, domain: Domain) -> set[int]:
    """The values of f over the domain, by scalar Horner and pow(., -1, p)."""
    xs = range(0 if domain is Domain.ALL else 1, p)
    dens = ((x, horner(f.denominator, x, p)) for x in xs)
    return {horner(f.numerator, x, p) * pow(d, -1, p) % p for x, d in dens if d}


#: The first primes above one and two blocks of vp_brute.
BLOCK_PRIMES = tuple(
    next(q for q in primes_upto(k * BRUTE_BLOCK + 1000) if q > k * BRUTE_BLOCK) for k in (1, 2)
)


@pytest.mark.parametrize("p", BLOCK_PRIMES)
def test_blocked_vp_brute_matches_python_values(p):
    # both domains end on a partial block
    maps = (
        RationalMap.x2_plus_a_over_x(5),
        RationalMap.cubic(1, 2, 3),
        RationalMap.x_plus_a_over_2x2(7),
    )
    for f in maps:
        for domain in Domain:
            want = python_values(f, p, domain)
            got = vp_brute(f, p, domain, want_bitmap=True)
            assert got.v == len(want)
            assert np.flatnonzero(got.attained).tolist() == sorted(want)
    for domain in Domain:
        with pytest.raises(EmptyDomain):
            vp_brute(RationalMap((1,), (p,)), p, domain)


#: The largest prime at most MAX_ENUM_PRIME: products there come closest
#: to 2^63.
P_MAX_ENUM = next(q for q in range(_tables.MAX_ENUM_PRIME, 0, -1) if _tables.is_prime(q))


@pytest.mark.parametrize("p", [7, 1_000_003, P_MAX_ENUM])
def test_eval_poly_equals_python_horner(p):
    # every degree 0..5, with zero, +-1, negative and >= p coefficients;
    # all p - 1 at x = p - 1 gives the largest products int64 must hold
    xs = np.array([0, 1, p - 2, p - 1], dtype=np.int64)
    pool = (0, 1, -1, -2, p - 1, p, p + 1, 3 * p + 2, -5 * p - 3)
    rng = random.Random(p)
    cases = [(c,) * n for c in (0, 1, p - 1) for n in range(1, 7)]
    cases += [tuple(rng.choice(pool) for _ in range(rng.randint(1, 6))) for _ in range(300)]
    for coeffs in cases:
        got = oracle._eval_laurent(coeffs, xs, p)
        assert got.dtype == np.int64
        assert got.tolist() == [horner(coeffs, int(x), p) for x in xs], coeffs
        assert xs.tolist() == [0, 1, p - 2, p - 1]  # read, never written


@pytest.mark.parametrize("p", [7, 1_000_003, P_MAX_ENUM])
def test_eval_laurent_equals_python(p):
    # high(x) + low(1/x) with every coefficient p - 1 at x = p - 1 makes
    # both parts' bounds p(p - 1), whose sum passes 2^63 at P_MAX_ENUM
    xs = np.array([1, 2, p - 2, p - 1], dtype=np.int64)
    xs.flags.writeable = False  # vp_brute passes views of a read-only table
    inv = np.array([pow(int(x), -1, p) for x in xs], dtype=np.int64)
    pool = (0, 1, -1, p - 1, p, 3 * p + 2)
    rng = random.Random(p)
    cases = [((c,) * n, (0,) + (c,) * m) for c in (0, 1, p - 1) for n in (1, 2, 3) for m in (1, 2, 3)]
    for _ in range(300):
        high = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        cases.append((high, (0,) + tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))))
    for high, low in cases:
        got = oracle._eval_laurent(high, xs, p, low, inv)
        want = [(horner(high, int(x), p) + horner(low, int(y), p)) % p for x, y in zip(xs, inv)]
        assert got.tolist() == want, (high, low)


@pytest.mark.parametrize("p", [5, 1_000_003, P_MAX_ENUM])
@pytest.mark.parametrize("below", [0, 1])
def test_reduce_mod_equals_python_mod(p, below):
    # moduli p (_eval_laurent, vp_brute) and an even one, p - 1; dividends
    # up to the largest _eval_laurent reduces and the int64 extremes, down to
    # -2(p - 1), plus a seeded random block that makes the array end
    # partway through its second block of reduction
    n = p - below
    edges = [0, 1, p - 1, p, p + 1, (p - 1) ** 2 + (p - 1), 2**63 - 1]
    edges += [-1, -(p - 1), -p, -2 * (p - 1), -(2**63)]
    rng = random.Random(n)
    half = _tables._REDUCE_BLOCK // 2 + 100
    spread = [rng.randrange(-2 * (p - 1), (p - 1) ** 2 + p) for _ in range(half)]
    spread += [rng.randrange(-(2**63), 2**63) for _ in range(half)]
    a = np.array(edges + spread, dtype=np.int64)
    out = _tables.reduce_mod(a, n)
    assert out is a and out.dtype == np.int64
    assert out.tolist() == [v % n for v in edges + spread]


@pytest.mark.parametrize("p", BLOCK_PRIMES)
def test_streamed_jacobsthal_matches_python(p):
    # several blocks and a partial last one; the symbols by Euler's
    # criterion, which the oracle does not use
    chi = [0] + [1 if pow(v, (p - 1) // 2, p) == 1 else -1 for v in range(1, p)]
    assert oracle._legendre_symbols(p).tolist() == chi
    cubes = [pow(y, 3, p) for y in range(1, p)]
    rng = random.Random(p)
    for m in [1, 2, p - 1] + rng.sample(range(3, p - 1), 97):
        assert jacobsthal_brute(m, p) == chi[m] * sum(chi[(c + m) % p] for c in cubes), m


def test_cube_views_are_the_cubes_of_every_unit():
    # as a multiset: each unit's cube once, so thrice over for p = 1 (mod 3)
    for p in primes_upto(101):
        views = oracle._cube_views(p)
        assert len(views) == 3
        got = sorted(np.concatenate(views).tolist())
        assert got == sorted(pow(y, 3, p) for y in range(1, p)), p


@pytest.fixture
def inverse_builds(monkeypatch) -> list:
    """The moduli of every inverse table built during the test: a counter
    wrapped around the uncached _tables.inverses."""
    built, build = [], _tables.inverses

    def counted(p):
        built.append(p)
        return build(p)

    monkeypatch.setattr(_tables, "inverses", counted)
    return built


def test_jacobsthal_sums_at_one_prime_build_one_power_table(inverse_builds):
    p = 1_000_003
    _tables.unit_powers.cache_clear()
    for m in (1, 2, 3, 5, 7):
        jacobsthal_brute(m, p)
    assert _tables.unit_powers.cache_info().misses == 1
    assert inverse_builds == []


def test_every_oracle_at_one_prime_builds_one_power_table(inverse_builds):
    # the units are read off one cached table: no oracle builds its own
    # range of residues or the inverse table
    p = 10_007
    _tables.unit_powers.cache_clear()
    vp_brute(RationalMap.cubic(1, 2, 3), p, Domain.ALL)
    np_cubic_roots(0, -1, 0, p)
    jacobsthal_brute(5, p)
    jacobsthal_all(p)
    assert _tables.unit_powers.cache_info().misses == 1
    assert inverse_builds == []


@pytest.mark.parametrize("p", [7, 1_000_003])
@pytest.mark.parametrize("domain", list(Domain))
def test_vp_brute_refuses_a_denominator_of_two_terms(p, domain, inverse_builds):
    # each denominator has two or more terms nonzero mod p: 1/(x^2 - 1),
    # x^7/(1 - x^6), 1/(x^5 - x), 1/(x - c) and 1/(x^2 - x).  Each is a
    # ValueError before the bitmap, the power table or an inverse table
    # is built.
    maps = (
        RationalMap((1,), (-1, 0, 1)),
        RationalMap((0, 0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, -1)),
        RationalMap((1,), (0, -1, 0, 0, 0, 1)),
        RationalMap((1,), (-(p - 3), 1)),
        RationalMap((1,), (0, -1, 1)),
    )
    vp_brute(RationalMap.x2_plus_a_over_x(1), 13, Domain.NONZERO)  # numpy is imported and stays
    _tables.unit_powers.cache_clear()
    for f in maps:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="one term"):
                vp_brute(f, p, domain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (f, peak)
    assert _tables.unit_powers.cache_info() == (0, 0, 1, 0)
    assert inverse_builds == []


def test_jacobsthal_brute_memory_is_the_symbols_plus_one_block():
    p = 1_000_003
    jacobsthal_brute(1, 13)  # numpy is imported on first use and stays
    _tables.unit_powers(p)  # the cached table is not the call's memory
    tracemalloc.start()
    try:
        jacobsthal_brute(5, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * p


def vp_brute_memory(f: RationalMap, p: int) -> tuple[int, int]:
    """(kept, peak): the tracemalloc bytes still allocated after one count
    of f over the units mod p, and the count's peak."""
    _tables.unit_powers(p)  # the cached table is not the count's memory
    tracemalloc.start()
    try:
        vp_brute(f, p, Domain.NONZERO)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_vp_brute_memory_is_the_bitmap_plus_one_block():
    p = 1_000_003
    assert vp_brute_memory(RationalMap.x2_plus_a_over_x(5), p)[1] < 2 * p


def test_np_cubic_roots_streams_the_units():
    p = 1_000_003
    np_cubic_roots(1, 2, 3, 13)  # numpy is imported on first use and stays
    _tables.unit_powers(p)  # the cached table is not the call's memory
    tracemalloc.start()
    try:
        assert np_cubic_roots(0, -1, 0, p) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * p


def test_family_counts_reads_the_squares_off_the_power_table(monkeypatch):
    # x^2 is a copy of the power table's even entries, with no exponent
    # array.  With one row per block, the O(p) arrays are what is left:
    # about 60 bytes per residue, where an exponent array made it 68
    p = 3001
    family_counts(13)  # numpy is imported on first use and stays
    _tables.unit_powers(p)  # the cached table is not the build's memory
    family_counts.cache_clear()
    monkeypatch.setattr(oracle, "FAMILY_BLOCK_BYTES", 1)
    tracemalloc.start()
    try:
        family_counts(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * p


def test_oracle_arguments_must_be_integers():
    for call in (
        lambda: jacobsthal_brute(2.5, 7),
        lambda: jacobsthal_brute(True, 7),
        lambda: np_cubic_roots(0.5, 0, 0, 7),
        lambda: np_cubic_roots(0, False, 0, 7),
        lambda: count_t_preimages(2.5, 13),
        lambda: RationalMap((1.5, 0, 0, 1), (0, 1)),
        lambda: RationalMap((1, 0, 0, 1), (0, "1")),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    # the modulus is checked before the argument is reduced by it
    for call in (lambda: jacobsthal_brute(1, True), lambda: count_t_preimages(1, True)):
        with pytest.raises(ValueError, match="modulus must be an integer"):
            call()
    assert jacobsthal_brute(np.int64(1), 7) == 3
    assert np_cubic_roots(np.int64(0), 0, 0, 7) == 1


@pytest.mark.parametrize("domain", ["all", "nonzero", None, True])
def test_vp_brute_refuses_a_domain_that_is_no_domain(domain):
    # anything but Domain.ALL used to mean the units: "all" counted 2 values
    # of x^3 mod 7, where Domain.ALL counts 3
    with pytest.raises(ValueError, match="domain must be a Domain"):
        vp_brute(RationalMap.cubic(0, 0, 0), 7, domain)
    assert vp_brute(RationalMap.cubic(0, 0, 0), 7, Domain.ALL).v == 3


def test_discriminant_examples_and_exactness():
    assert discriminant_cubic(0, 0, 0) == 0
    assert discriminant_cubic(0, -1, 0) == 4  # x^3 - x
    for b, a in ((1, 1), (2, 1), (5, -3), (11, 7)):
        assert discriminant_cubic(0, -b, a) == 4 * b**3 - 27 * a * a
    big = discriminant_cubic(10**8, -(10**8), 10**8)
    assert isinstance(big, int) and big % 10**8 == 0


def test_discriminant_vanishes_iff_repeated_root():
    for p in (7, 13, 31):
        for a1 in range(p):
            for a2 in range(p):
                for a3 in range(p):
                    rep = any(
                        (x**3 + a1 * x * x + a2 * x + a3) % p == 0
                        and (3 * x * x + 2 * a1 * x + a2) % p == 0
                        for x in range(p)
                    )
                    assert (discriminant_cubic(a1, a2, a3) % p == 0) == rep


def test_np_cubic_roots_examples():
    assert np_cubic_roots(0, 0, 0, 7) == 1  # x^3
    assert np_cubic_roots(0, -1, 0, 7) == 3  # x(x-1)(x+1)
    assert np_cubic_roots(0, 0, -2, 7) == 0  # 2 is not a cube mod 7


def test_np_cubic_roots_matches_scalar():
    for p in (5, 7, 11, 13):
        for a1 in range(p):
            for a2 in range(p):
                for a3 in (0, 1, p - 1, -p):  # -p: x = 0 is a root
                    want = sum(
                        1
                        for x in range(p)
                        if (x**3 + a1 * x * x + a2 * x + a3) % p == 0
                    )
                    assert np_cubic_roots(a1, a2, a3, p) == want


def test_root_count_law_small():
    # the discriminant's Legendre symbol pins the root count down
    for p in primes_upto(31, start=5):
        for a1 in range(p):
            for a2 in range(p):
                for a3 in range(p):
                    chi = legendre(discriminant_cubic(a1, a2, a3), p)
                    n = np_cubic_roots(a1, a2, a3, p)
                    if chi == -1:
                        assert n == 1
                    elif chi == 1:
                        assert n in (0, 3)
                    else:
                        assert 1 <= n <= 3


def test_value_count_is_substitution_invariant():
    # x -> a/(2x) carries x + a/(2x^2) onto a rescaling of x^2 + (2/a)/x,
    # so both families attain the same number of values
    for p in primes_upto(100, start=5):
        for a in range(1, p):
            lhs = vp_brute(RationalMap.x_plus_a_over_2x2(a), p, Domain.NONZERO).v
            partner = RationalMap.x2_plus_a_over_x(2 * pow(a, -1, p) % p)
            assert lhs == vp_brute(partner, p, Domain.NONZERO).v


def test_von_sterneck_count_all_pairs():
    # shifting a3 only translates the value set, so checking a3 = 0 for
    # every (a1, a2) covers all cubics; nondegenerate rows (a1^2 != 3 a2)
    # must attain (2p + (p/3))/3 values, the single degenerate row is a
    # shifted cube and attains p (p = 2 mod 3) or (p + 2)/3 values
    for p in primes_upto(200, start=5):
        xs = np.arange(p, dtype=np.int64)
        sq = xs * xs % p
        base = sq * xs % p
        want = (2 * p + (1 if p % 3 == 1 else -1)) // 3
        deg_want = p if p % 3 == 2 else (p + 2) // 3
        # a2 x mod p, shifted to the start of row a2 of a 2p-wide bitmap
        slots = xs[:, None] * xs[None, :] % p + 2 * p * xs[:, None]
        step = max(1, (1 << 18) // (p * p))
        for lo in range(0, p, step):
            # a chunk of a1 at once: x^3 + a1 x^2 + a2 x, in [0, 2p), marks
            # bitmap row (a1, a2), whose two halves are then OR-ed
            a1 = np.arange(lo, min(lo + step, p), dtype=np.int64)
            shifted = (base + a1[:, None] * sq) % p + 2 * p * p * np.arange(len(a1))[:, None]
            seen = np.zeros((len(a1), p, 2 * p), dtype=bool)
            seen.ravel()[(shifted[:, None, :] + slots).ravel()] = True
            counts = np.count_nonzero(seen[..., :p] | seen[..., p:], axis=2)
            ok = (3 * xs - a1[:, None] * a1[:, None]) % p != 0
            assert (counts[ok] == want).all()
            assert (counts[~ok] == deg_want).all()


def test_jacobsthal_examples():
    assert jacobsthal_brute(1, 7) == 3
    assert jacobsthal_brute(2, 13) == -6
    with pytest.raises(ZeroArgument):
        jacobsthal_brute(0, 7)
    with pytest.raises(ZeroArgument):
        jacobsthal_brute(26, 13)


def test_jacobsthal_matches_pure_python(monkeypatch):
    # same definition, with the symbols from a set of Python squares and
    # the cubes from pow; blocks of 3 cubes put block edges inside each of
    # the oracle's three cube views
    monkeypatch.setattr(oracle, "BRUTE_BLOCK", 3)
    for p in primes_upto(101):
        squares = squares_mod(p)
        chi = [0] + [1 if v in squares else -1 for v in range(1, p)]
        cubes = [pow(y, 3, p) for y in range(1, p)]
        for m in range(1, p):
            assert jacobsthal_brute(m, p) == chi[m] * sum(chi[(c + m) % p] for c in cubes), (m, p)


def test_jacobsthal_constant_on_2mod3():
    for p in (5, 11, 17, 23, 29, 41, 53):
        assert all(jacobsthal_brute(m, p) == -1 for m in range(1, p))


def test_jacobsthal_hasse_bound():
    for p in primes_upto(500, start=5):
        for m in (1, 2, 3, p - 1):
            assert abs(jacobsthal_brute(m, p)) <= 2 * math.sqrt(p) + 1


def test_jacobsthal_cube_twist_invariance():
    # replacing m by c^3 m permutes the sum, so the value only depends on
    # the cubic class of m
    for p in primes_1mod3(200):
        cubes = sorted(cubes_mod(p))
        for m in (1, 2, 3):
            base = jacobsthal_brute(m, p)
            for c in cubes[:5]:
                assert jacobsthal_brute(c * m % p, p) == base


def test_batched_oracles_match_per_parameter_oracles():
    # both classes mod 3; 701 and 1009 span several row blocks of the family
    # table, the last one partial
    for p in (701, 1009):
        rows = FAMILY_BLOCK_BYTES // (18 * (p - 1))
        assert 1 < rows < p - 1 and (p - 1) % rows != 0
    for p in (5, 7, 11, 13, 31, 37, 701, 1009):
        counts = family_counts(p)
        assert counts.shape == (p,) and not counts.flags.writeable
        for a in range(1, p):
            assert counts[a] == vp_brute(RationalMap.x2_plus_a_over_x(a), p, Domain.NONZERO).v
        sums = jacobsthal_all(p)
        assert sums.shape == (p,) and sums[0] == 0
        for m in range(1, p):
            assert sums[m] == jacobsthal_brute(m, p)


def family_by_sets(p: int) -> list[int]:
    """V[a] for every a in [0, p), as the size of a pure-python set of values."""
    units = [(x * x % p, pow(x, -1, p)) for x in range(1, p)]
    return [len({(sq + a * inv) % p for sq, inv in units}) for a in range(p)]


@pytest.mark.parametrize("p", primes_upto(199) + [701, 1009])
def test_family_counts_equal_a_set_count_at_every_a(p):
    assert family_counts(p).tolist() == family_by_sets(p)


def test_family_counts_one_row_per_block(monkeypatch):
    # a block too small for two rows still holds one
    p = 31
    monkeypatch.setattr(oracle, "FAMILY_BLOCK_BYTES", 1)
    assert family_counts.__wrapped__(p).tolist() == family_by_sets(p)


def test_a_polynomial_count_builds_no_inverse_table(inverse_builds):
    # a constant denominator is folded into the coefficients; a zero one
    # still leaves no point to count
    for p in primes_upto(101):
        for a1, a2, a3 in ((0, 0, 0), (1, 2, 3), (-5, 7, 11), (p - 1, 3, -2)):
            cubic = [(x**3 + a1 * x * x + a2 * x + a3) % p for x in range(p)]
            for domain, lo in ((Domain.ALL, 0), (Domain.NONZERO, 1)):
                count = vp_brute(RationalMap.cubic(a1, a2, a3), p, domain, want_bitmap=True)
                assert set(np.flatnonzero(count.attained)) == set(cubic[lo:])
                half = RationalMap((a3, a2, a1, 1), (2,))
                if p == 2:
                    with pytest.raises(EmptyDomain):
                        vp_brute(half, p, domain)
                else:
                    # the values themselves: a count alone would not see a
                    # missing 1/2, since scaling by a unit keeps the count
                    halves = {c * pow(2, -1, p) % p for c in cubic[lo:]}
                    count = vp_brute(half, p, domain, want_bitmap=True)
                    assert set(np.flatnonzero(count.attained)) == halves
    assert inverse_builds == []


def test_monomial_denominator_counts_equal_python_values(monkeypatch, inverse_builds):
    # a denominator c x^j walks the units by the power table and reads the
    # inverses off it backwards: blocks of 3 units cross block edges at
    # every p > 3, after k = 0 (x = 1, whose inverse is the table's last
    # entry); extra coefficients 0 mod p leave a monomial.  None of these
    # counts builds the inverse table.
    monkeypatch.setattr(oracle, "BRUTE_BLOCK", 3)
    for p in primes_upto(101):
        dens = [(0, 1), (0, 0, 2), (0, 0, 0, -3), (0, 1, p), (0, p, 3), (p, 0, 0, p + 5, -2 * p)]
        nums = [(0, 1), (1,), (p,), (3, -1, 2), (0, 0, 0, 0, 1)]
        maps = [RationalMap.x2_plus_a_over_x(a) for a in range(p)]
        maps += [RationalMap.x_plus_a_over_2x2(a) for a in range(p)]
        maps += [RationalMap(num, den) for num in nums for den in dens]
        for f in maps:
            for domain in Domain:
                want = python_values(f, p, domain)
                if not want:  # x + a/(2x^2) at p = 2
                    with pytest.raises(EmptyDomain):
                        vp_brute(f, p, domain)
                    continue
                got = vp_brute(f, p, domain, want_bitmap=True)
                assert got.v == len(want), (f, p, domain)
                assert np.flatnonzero(got.attained).tolist() == sorted(want), (f, p, domain)
        for den in ((0,), (p,), (0, p), (p, 0, -2 * p)):
            for domain in Domain:
                with pytest.raises(EmptyDomain):
                    vp_brute(RationalMap((1, 0, 0, 1), den), p, domain)
    assert inverse_builds == []


def test_jacobsthal_all_refuses_an_inexact_transform(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.4)
    with pytest.raises(InternalInconsistency):
        jacobsthal_all(13)


def test_jacobsthal_oracles_keep_nothing_allocated():
    # the Legendre symbols and cubes are built per call, not cached: after
    # both oracles less than one int8 table of p bytes stays allocated
    p = 1_000_003
    jacobsthal_all(13)  # numpy.fft is imported on first use and stays
    _tables.unit_powers(p)  # the cached table is not the oracles' memory
    tracemalloc.start()
    try:
        jacobsthal_brute(5, p)
        jacobsthal_all(p)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < p


#: The tables that callers read again, and so the only ones per_prime caches.
PER_PRIME_TABLES = (_tables.unit_powers, family_counts, t_preimage_counts)


def test_per_prime_decorates_exactly_the_tables_read_again():
    src = Path(__file__).resolve().parents[1] / "src" / "cubecount"
    decorated = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                # @per_prime is an ast.Name, @_tables.per_prime an ast.Attribute
                tags = {getattr(d, "id", getattr(d, "attr", None)) for d in node.decorator_list}
                if "per_prime" in tags:
                    decorated.add(node.name)
    assert decorated == {t.__name__ for t in PER_PRIME_TABLES}
    assert not any(hasattr(_tables, t) for t in ("qr_table", "cubes_nonzero", "inv_table"))


@pytest.mark.parametrize("table", PER_PRIME_TABLES, ids=lambda t: t.__name__)
def test_per_prime_tables_are_cached_and_read_only(table):
    first = table(31)
    assert table(31) is first
    with pytest.raises(ValueError):
        first[1] = 0
    assert table.cache_parameters()["maxsize"] == 1


def test_every_per_prime_table_is_read_again():
    # a table built once per prime and never read again only keeps its
    # memory alive
    for table in PER_PRIME_TABLES:
        table.cache_clear()
    run_sweep(300, jobs=1)
    assert _tables.unit_powers.cache_info().hits > 0
    assert family_counts.cache_info().hits > 0
    # one prime's preimage counts answer every t
    p = 1009
    t_preimage_counts.cache_clear()
    for t in range(1, p):
        count_t_preimages(t, p)
    assert t_preimage_counts.cache_info() == (p - 2, 1, 1, 1)


def test_every_sweep_check_finishes_a_prime_before_the_next():
    # One slot per table is enough only if no check goes back to an earlier
    # prime: then each table is built exactly once per prime.
    for table in PER_PRIME_TABLES:
        table.cache_clear()
    report = run_sweep(300, jobs=1)
    assert report.primes_checked == 60
    for table in PER_PRIME_TABLES:
        assert table.cache_info().misses == report.primes_checked, table.__name__


def test_per_prime_keeps_one_prime():
    # after counts at two large primes only the second power table (4p
    # bytes) stays allocated; a cache of two primes would keep 8p
    p, q = 1_000_003, 1_000_033
    f = RationalMap.x2_plus_a_over_x(1)
    vp_brute(f, 13, Domain.NONZERO)  # numpy is imported on first use and stays
    _tables.unit_powers.cache_clear()
    tracemalloc.start()
    try:
        vp_brute(f, p, Domain.NONZERO)
        vp_brute(f, q, Domain.NONZERO)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 6 * p


def test_per_prime_drops_the_old_table_before_it_builds_the_new():
    # a switch of primes holds one power table (4 bytes per residue) at a
    # time, plus the doubling's block; keeping the old one would peak at 8
    p, q = 1_000_003, 1_000_033
    _tables.unit_powers(13)  # numpy is imported on first use and stays
    _tables.unit_powers.cache_clear()
    tracemalloc.start()
    try:
        _tables.unit_powers(p)
        _tables.unit_powers(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * q
    assert _tables.unit_powers.cache_info().misses == 2


def test_unit_powers_keeps_4_bytes_per_residue():
    # the table is stored as uint32 and built by doubling one int64 block
    # at a time; widening the whole half-table would peak at 8p
    p = 1_000_003
    _tables.unit_powers(13)  # numpy is imported on first use and stays
    _tables.unit_powers.cache_clear()
    tracemalloc.start()
    try:
        pw = _tables.unit_powers(p)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pw.nbytes == 4 * p and kept < 4.1 * p
    assert peak < 4.5 * p
    # every unit once, in the order of the discrete logarithm, across many
    # blocks of the doubling
    g = _tables.primitive_root(p)
    assert np.array_equal(np.sort(pw[:-1]), np.arange(1, p))
    assert pw[p - 1] == 1
    for k in random.Random(31).sample(range(p), 2000):
        assert pw[k] == pow(g, k, p), k


def test_unit_powers_dtype_holds_every_enumerable_residue():
    assert np.iinfo(_tables.unit_powers(13).dtype).max >= _tables.MAX_ENUM_PRIME - 1


def test_per_prime_shares_one_slot_across_integer_types():
    _tables.unit_powers.cache_clear()
    first = _tables.unit_powers(13)
    assert _tables.unit_powers(np.int64(13)) is first
    assert _tables.unit_powers(13) is first
    info = _tables.unit_powers.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (2, 1, 1, 1)
    with pytest.raises(ValueError, match="must be an integer"):
        _tables.unit_powers(13.0)
    _tables.unit_powers.cache_clear()
    assert _tables.unit_powers.cache_info() == (0, 0, 1, 0)


def test_a_prime_equal_to_the_cached_key_hits_without_a_primality_test(monkeypatch):
    # a Prime (what QuadRep.p and checked_prime give) used to run
    # check_enumerable, and so is_prime, on every hit
    P = Prime(1009)
    _tables.unit_powers.cache_clear()
    first = _tables.unit_powers(1009)
    tests, is_prime = [], _tables.is_prime
    monkeypatch.setattr(_tables, "is_prime", lambda n: tests.append(n) or is_prime(n))
    for p in (P, 1009, P):
        assert _tables.unit_powers(p) is first
    assert tests == []
    assert _tables.unit_powers(np.int64(1009)) is first  # checked, then the same slot
    assert tests == [1009]
    with pytest.raises(ValueError, match="must be an integer"):
        _tables.unit_powers(1009.0)
    assert _tables.unit_powers.cache_info()[:2] == (4, 1)
    _tables.unit_powers.cache_clear()


def enumerating_calls(p: int) -> dict:
    """Every enumerating entry point, by name, as a call at the modulus p."""
    return {
        "vp_brute": lambda: vp_brute(RationalMap.x2_plus_a_over_x(1), p, Domain.NONZERO),
        "vp_brute_all": lambda: vp_brute(RationalMap((0, 0, 1)), p, Domain.ALL),
        "family_counts": lambda: family_counts(p),
        "np_cubic_roots": lambda: np_cubic_roots(0, 0, 1, p),
        "jacobsthal_brute": lambda: jacobsthal_brute(1, p),
        "jacobsthal_all": lambda: jacobsthal_all(p),
        "h_set": lambda: h_set(p),
        "t_preimage_counts": lambda: t_preimage_counts(p),
        "count_t_preimages": lambda: count_t_preimages(1, p),
        "in_c0": lambda: in_c0(1, p),
        "inverses": lambda: _tables.inverses(p),
    }


#: The first prime above MAX_ENUM_PRIME.
P_UNENUMERABLE = 3_037_000_507

# Calls every enumerating entry point at P_UNENUMERABLE with the address
# space capped at 3 GiB, so an O(p) array (24 GB of int64) fails at once
# with MemoryError instead of taking the machine's memory; each call must
# raise ValueError before it allocates.
CAP_PROBE = """
import resource, sys
import numpy  # loaded before the address space is capped
sys.path.insert(0, sys.argv[2])
from cubecount import _tables
from test_oracle import enumerating_calls

p = int(sys.argv[1])
assert p > _tables.MAX_ENUM_PRIME
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
for name, call in enumerating_calls(p).items():
    try:
        call()
        got = "returned"
    except MemoryError:
        got = "MemoryError"
    except ValueError as exc:
        got = "ValueError" if "too large for array enumeration" in str(exc) else repr(exc)
    print(name, got)
"""


def test_enumeration_cap_is_checked_before_allocating():
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": str(tests.parent / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CAP_PROBE, str(P_UNENUMERABLE), str(tests)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert len(got) == 11 and set(got.values()) == {"ValueError"}, got


@pytest.mark.parametrize("n", [35, 561, 1729, 25326001])
def test_enumeration_refuses_composite_moduli(n):
    # Fermat inverses and squares-as-Legendre are wrong mod a composite:
    # at 35, vp_brute would count 8 values of x^2 + 1/x, not 12.  561 and
    # 1729 are Carmichael numbers; 25326001 is a strong pseudoprime to the
    # bases 2, 3 and 5.
    with time_limit(5):
        for modulus in (n, np.int64(n)):
            for call in enumerating_calls(modulus).values():
                with pytest.raises(CompositeModulus, match="is not prime"):
                    call()


def test_enumeration_takes_numpy_integer_moduli():
    # a numpy integer p is checked, then built from as a plain int
    plain = enumerating_calls(13)
    for name, call in enumerating_calls(np.int64(13)).items():
        got, want = call(), plain[name]()
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), name
        else:
            assert got == want, name


@pytest.mark.parametrize("p", [7.0, 13.0])
def test_enumeration_refuses_non_integer_moduli(p):
    # refused by type, not by value: family_counts(7) is cached, and the
    # cache must not answer for 7.0
    family_counts(7)
    with pytest.raises(ValueError, match="must be an integer"):
        _tables.check_enumerable(p)
    for call in enumerating_calls(p).values():
        with pytest.raises(ValueError, match="must be an integer"):
            call()


def test_check_enumerable_accepts_exactly_the_primes():
    flags = sieve_upto(100_000)
    bad = []
    for n in range(100_001):
        try:
            _tables.check_enumerable(n)
            prime = True
        except CompositeModulus:
            prime = False
        if prime != flags[n]:
            bad.append(n)
    assert bad == []


@pytest.mark.parametrize("f", [(1, 0, 0, 1), None])
def test_vp_brute_refuses_an_f_that_is_no_rational_map(f, inverse_builds):
    # a tuple used to build the inverse table and then fail with AttributeError
    _tables.unit_powers.cache_clear()
    with pytest.raises(ValueError, match="f must be a RationalMap"):
        vp_brute(f, 7, Domain.ALL)
    assert _tables.unit_powers.cache_info().misses == 0
    assert inverse_builds == []
