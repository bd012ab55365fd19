"""Brute-force enumeration oracles, checked against pure-python scans."""

import math

import numpy as np
import pytest

from cubecount.errors import EmptyDomain, InternalInconsistency, ZeroArgument
from cubecount.modarith import inv_mod, legendre
from cubecount.oracle import (
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
from helpers import cubes_mod, primes_1mod3, primes_upto


def test_rational_map_constructors():
    f = RationalMap.x2_plus_a_over_x(3)
    assert f.numerator == (3, 0, 0, 1) and f.denominator == (0, 1)
    g = RationalMap.x_plus_a_over_2x2(3)
    assert g.numerator == (3, 0, 0, 2) and g.denominator == (0, 0, 2)
    h = RationalMap.cubic(4, 5, 6)
    assert h.numerator == (6, 5, 4, 1) and h.denominator == (1,)
    assert RationalMap.from_poly((0, 0, 1)).denominator == (1,)
    with pytest.raises(ValueError):
        RationalMap((), (1,))


def test_vp_brute_examples():
    assert vp_brute(RationalMap.x2_plus_a_over_x(1), 5, Domain.NONZERO).v == 3
    assert vp_brute(RationalMap.x2_plus_a_over_x(2), 7, Domain.NONZERO).v == 3
    assert vp_brute(RationalMap.x2_plus_a_over_x(4), 7, Domain.NONZERO).v == 6
    for p in (5, 7, 13, 101):
        sq = vp_brute(RationalMap.from_poly((0, 0, 1)), p, Domain.ALL)
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


def test_vp_brute_skips_denominator_zeros():
    # 1 / (x^2 - 1) is undefined at two points of the full domain
    f = RationalMap((1,), (-1, 0, 1))
    want = len({pow(x * x - 1, -1, 7) for x in range(7) if (x * x - 1) % 7})
    assert vp_brute(f, 7, Domain.ALL).v == want


def test_vp_brute_empty_domain_and_cap():
    with pytest.raises(EmptyDomain):
        vp_brute(RationalMap((1,), (0,)), 7, Domain.ALL)
    with pytest.raises(ValueError):
        vp_brute(RationalMap((0, 1), (1,)), 3_100_000_000, Domain.ALL)


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
                for a3 in (0, 1, p - 1):
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
            partner = RationalMap.x2_plus_a_over_x(2 * inv_mod(a, p) % p)
            assert lhs == vp_brute(partner, p, Domain.NONZERO).v


def test_von_sterneck_count_all_pairs():
    # shifting a3 only translates the value set, so checking a3 = 0 for
    # every (a1, a2) covers all cubics; nondegenerate rows (a1^2 != 3 a2)
    # must attain (2p + (p/3))/3 values, the single degenerate row is a
    # shifted cube and attains p (p = 2 mod 3) or (p + 2)/3 values
    for p in primes_upto(200, start=5):
        xs = np.arange(p, dtype=np.int64)
        base = (xs * xs % p) * xs % p
        want = (2 * p + (1 if p % 3 == 1 else -1)) // 3
        deg_want = p if p % 3 == 2 else (p + 2) // 3
        for a1 in range(p):
            shifted = (base + a1 * (xs * xs % p)) % p
            vals = (shifted[None, :] + xs[:, None] * xs[None, :] % p) % p
            seen = np.zeros((p, p), dtype=bool)
            seen[np.repeat(xs, p), vals.ravel()] = True
            counts = seen.sum(axis=1)
            ok = (3 * xs - a1 * a1) % p != 0
            assert (counts[ok] == want).all()
            assert (counts[~ok] == deg_want).all()


def test_jacobsthal_examples():
    assert jacobsthal_brute(1, 7) == 3
    assert jacobsthal_brute(2, 13) == -6
    with pytest.raises(ZeroArgument):
        jacobsthal_brute(0, 7)
    with pytest.raises(ZeroArgument):
        jacobsthal_brute(26, 13)


def test_jacobsthal_matches_pure_python():
    # same definition, but scalar pow-based Legendre symbols instead of the
    # vectorised residue tables
    def scalar(m, p):
        tail = sum(legendre(pow(y, 3, p) + m, p) for y in range(1, p))
        return legendre(m, p) * tail

    for p in primes_upto(60, start=5):
        for m in range(1, p):
            assert jacobsthal_brute(m, p) == scalar(m, p)


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
        rows = FAMILY_BLOCK_BYTES // (9 * p)
        assert 1 < rows < p and p % rows != 0
    for p in (5, 7, 11, 13, 31, 37, 701, 1009):
        counts = family_counts(p)
        assert counts.shape == (p,) and not counts.flags.writeable
        for a in range(1, p):
            assert counts[a] == vp_brute(RationalMap.x2_plus_a_over_x(a), p, Domain.NONZERO).v
        sums = jacobsthal_all(p)
        assert sums.shape == (p,) and sums[0] == 0
        for m in range(1, p):
            assert sums[m] == jacobsthal_brute(m, p)


def test_jacobsthal_all_refuses_an_inexact_transform(monkeypatch):
    jacobsthal_all.cache_clear()  # the vector of 13 may be cached already
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.4)
    with pytest.raises(InternalInconsistency):
        jacobsthal_all(13)


def test_jacobsthal_all_is_cached_and_read_only():
    first = jacobsthal_all(31)
    assert jacobsthal_all(31) is first
    with pytest.raises(ValueError):
        first[1] = 0
