"""Cubic residue classes and the rational maps feeding the membership test."""

from fractions import Fraction

import pytest

from cubecount.cubicres import (
    CubicClass,
    count_t_preimages,
    cubic_class,
    h_set,
    in_c0,
    is_cubic_residue,
    k_map,
    t_map,
    t_preimage_counts,
)
from cubecount.errors import BadK, SingularPoint, WrongResidueClass, ZeroArgument
from cubecount.modarith import legendre
from cubecount.quadform import represent_a3b
from helpers import cubes_mod, primes_1mod3, primes_upto


def test_cubic_class_examples():
    q13 = represent_a3b(13)
    assert cubic_class(1, 13, q13) is CubicClass.UNIT
    assert cubic_class(3, 13, q13) is CubicClass.PLUS
    assert cubic_class(2, 7, represent_a3b(7)) is CubicClass.MINUS


def test_cubic_class_errors():
    q7 = represent_a3b(7)
    with pytest.raises(ZeroArgument):
        cubic_class(0, 7, q7)
    with pytest.raises(ZeroArgument):
        cubic_class(14, 7, q7)
    with pytest.raises(WrongResidueClass):
        cubic_class(2, 5, q7)


def test_class_partition_sizes():
    # the classification is total on the units and the classes have equal size
    for p in primes_1mod3(1000):
        rep = represent_a3b(p)
        tally = {c: 0 for c in CubicClass}
        for a in range(1, p):
            tally[cubic_class(a, p, rep)] += 1
        assert tally == {c: (p - 1) // 3 for c in CubicClass}


def test_unit_class_iff_cube():
    for p in primes_1mod3(300):
        rep = represent_a3b(p)
        cubes = cubes_mod(p)
        for a in range(1, p):
            assert (cubic_class(a, p, rep) is CubicClass.UNIT) == (a in cubes)


def test_is_cubic_residue_matches_cube_sets():
    for p in primes_upto(300, start=5):
        cubes = cubes_mod(p)
        for a in range(1, p):
            assert is_cubic_residue(a, p) == (a in cubes)
    # for p = 2 (mod 3) the cube map is a bijection
    assert is_cubic_residue(2, 5)
    assert is_cubic_residue(3, 11)


def test_fractions_are_reduced_mod_p():
    for p in primes_upto(300, start=5):
        assert is_cubic_residue(Fraction(1, 2), p) == is_cubic_residue(pow(2, -1, p), p)
    for p in primes_1mod3(300):
        rep = represent_a3b(p)
        for a in (2, 3, 5):
            assert cubic_class(Fraction(1, a), p, rep) is cubic_class(pow(a, -1, p), p, rep)


def test_k_map_t_map_examples_and_singularities():
    assert k_map(2, 7) == 2
    assert k_map(0, 11) == 0
    assert t_map(0, 7) == 6
    assert t_map(3, 7) == 6
    for x in (1, 6, 8):  # x = +-1 (mod 7)
        with pytest.raises(SingularPoint):
            k_map(x, 7)
        with pytest.raises(SingularPoint):
            t_map(x, 7)


def test_t_map_factors_through_k_map():
    # t(x) = 9 (k(x)^2 + 3) wherever both maps are defined
    for p in primes_upto(200, start=5):
        for x in range(p):
            if (x * x - 1) % p == 0:
                continue
            k = k_map(x, p)
            assert t_map(x, p) == 9 * (k * k + 3) % p


def test_h_set_examples_and_size():
    assert h_set(5).tolist() == [0, 2]
    assert h_set(7).tolist() == [0, 3]
    assert h_set(13).tolist() == [0, 2, 3, 4, 5]
    for p in primes_upto(500, start=5):
        members = h_set(p).tolist()
        assert members == sorted(set(members))
        assert 1 not in members
        want = (p - 1) // 2 - (1 if legendre(p - 3, p) == 1 else 0)
        assert len(members) == want


def test_count_t_preimages_examples_and_law():
    assert count_t_preimages(6, 7) == 2  # t = 27 (mod 7)
    assert count_t_preimages(1, 7) == 0
    assert count_t_preimages(2, 5) == 2
    for p in primes_upto(200, start=5):
        t27 = 27 % p
        for t in range(1, p):
            n = count_t_preimages(t, p)
            if t == t27:
                assert n == 2
            else:
                assert n in (0, 3)
    with pytest.raises(ZeroArgument):
        count_t_preimages(0, 7)
    with pytest.raises(ZeroArgument):
        count_t_preimages(14, 7)


def test_in_c0_examples_and_domain():
    assert in_c0(0, 7) is True
    assert in_c0(Fraction(1, 2), 7) == in_c0(4, 7)
    with pytest.raises(BadK):
        in_c0(2, 7)  # 2^2 + 3 = 0 (mod 7)
    with pytest.raises(BadK):
        in_c0(5, 7)


def test_in_c0_matches_direct_image():
    # membership holds exactly when k or -k is hit by the k-map on H_p
    for p in primes_upto(300, start=5):
        image = set()
        for x in h_set(p).tolist():
            if (x * x - 1) % p:
                image.add(k_map(x, p))
        for k in range(p):
            if (k * k + 3) % p == 0:
                continue
            assert in_c0(k, p) == (k in image or (p - k) % p in image)


def test_in_c0_negation_symmetry():
    for p in primes_upto(300, start=5):
        for k in range(p):
            if (k * k + 3) % p == 0:
                continue
            assert in_c0(k, p) == in_c0((p - k) % p, p)


def test_t_preimage_counts_vector():
    # both classes mod 3, and primes whose h_set has (p = 1) or lacks a root of -3
    for p in (5, 7, 11, 13, 29, 31, 1009, 1013):
        counts = t_preimage_counts(p)
        assert counts.shape == (p,) and not counts.flags.writeable
        assert t_preimage_counts(p) is counts
        scan = [0] * p
        for x in h_set(p).tolist():
            scan[t_map(x, p)] += 1
        assert counts.tolist() == scan
        assert [count_t_preimages(t, p) for t in range(1, p)] == scan[1:]
