"""Quadratic-form representations: descent output vs exhaustive search."""

import pytest

from cubecount.errors import InternalInconsistency, WrongResidueClass
from cubecount.quadform import (
    EisRep,
    QuadRep,
    class_value_targets,
    l_from_ab,
    represent_a3b,
    represent_l27m,
    two_class_is_b_mult3,
)
from helpers import primes_1mod3, search_a3b, search_l27m


def test_examples():
    assert (represent_a3b(7).A, represent_a3b(7).B) == (-2, 1)
    assert (represent_a3b(13).A, represent_a3b(13).B) == (1, 2)
    assert (represent_a3b(31).A, represent_a3b(31).B) == (-2, 3)
    assert (represent_l27m(7).L, represent_l27m(7).M) == (1, 1)
    assert (represent_l27m(13).L, represent_l27m(13).M) == (-5, 1)
    assert (represent_l27m(31).L, represent_l27m(31).M) == (4, 2)


def test_wrong_residue_class_rejected():
    for p in (5, 11, 17, 23):
        with pytest.raises(WrongResidueClass):
            represent_a3b(p)
        with pytest.raises(WrongResidueClass):
            represent_l27m(p)


def test_normalisation_enforced():
    with pytest.raises(InternalInconsistency):
        QuadRep(2, 1, 7)  # A = 2 (mod 3)
    with pytest.raises(InternalInconsistency):
        QuadRep(-2, -1, 7)  # B <= 0
    with pytest.raises(InternalInconsistency):
        QuadRep(1, 1, 7)  # equation fails
    with pytest.raises(InternalInconsistency):
        EisRep(5, 1, 13)  # L = 2 (mod 3)
    with pytest.raises(InternalInconsistency):
        EisRep(1, 2, 13)  # equation fails


def test_matches_exhaustive_search():
    for p in primes_1mod3(3000):
        rep = represent_a3b(p)
        assert (rep.A, rep.B) == search_a3b(p)
        eis = represent_l27m(p)
        assert (eis.L, eis.M) == search_l27m(p)


def test_l_from_ab_matches_eisenstein_l():
    for p in primes_1mod3(100_000):
        assert l_from_ab(p, represent_a3b(p)) == represent_l27m(p).L


def test_two_class_criterion_is_cubic_character_of_two():
    for p in primes_1mod3(2000):
        rep = represent_a3b(p)
        assert two_class_is_b_mult3(p, rep) == (pow(2, (p - 1) // 3, p) == 1)


def test_class_value_targets_are_primitive_cube_roots():
    for p in primes_1mod3(500):
        t_plus, t_minus = class_value_targets(p, represent_a3b(p))
        assert t_plus != t_minus
        for t in (t_plus, t_minus):
            assert t != 1
            assert pow(t, 3, p) == 1
