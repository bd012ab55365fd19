"""Quadratic-form representations: descent output vs exhaustive search."""

import math

import pytest

from cubecount import quadform
from cubecount.closedform import jacobsthal_closed
from cubecount.cubicres import cubic_class
from cubecount.errors import (
    CompositeModulus,
    InternalInconsistency,
    MissingRep,
    WrongResidueClass,
)
from cubecount.quadform import (
    CubicClass,
    EisRep,
    QuadRep,
    class_value_targets,
    l_from_ab,
    represent_a3b,
    represent_l27m,
    root_class,
    two_class_is_b_mult3,
)
from cubecount.sweep import run_sweep
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
    with pytest.raises(CompositeModulus):
        QuadRep(1, 4, 49)  # normalised, but 49 = 7^2
    with pytest.raises(InternalInconsistency):
        EisRep(5, 1, 13)  # L = 2 (mod 3)
    with pytest.raises(InternalInconsistency):
        EisRep(1, 2, 13)  # equation fails
    with pytest.raises(CompositeModulus):
        EisRep(13, 1, 49)  # normalised, but 49 = 7^2


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
        want = {1: CubicClass.UNIT, t_plus: CubicClass.PLUS, t_minus: CubicClass.MINUS}
        rep = represent_a3b(p)
        for c in range(p):
            assert root_class(c, p, rep) is want.get(c)


def test_a_rep_belongs_to_one_prime():
    # the rep of 7 used at 13 or 31 used to give a class, or an answer, of 7
    q7 = represent_a3b(7)
    for call in (
        lambda: class_value_targets(13, q7),
        lambda: root_class(1, 13, q7),
        lambda: root_class(3, 13, q7),
        lambda: cubic_class(3, 13, q7),
        lambda: l_from_ab(13, q7),
        lambda: two_class_is_b_mult3(31, q7),
        lambda: jacobsthal_closed(2, 13, q7),
    ):
        with pytest.raises(MissingRep):
            call()
    # so is anything that is no QuadRep at all, rather than an AttributeError
    for rep in (None, 5):
        for call in (
            lambda: class_value_targets(13, rep),
            lambda: root_class(1, 13, rep),
            lambda: cubic_class(3, 13, rep),
            lambda: l_from_ab(13, rep),
            lambda: two_class_is_b_mult3(13, rep),
            lambda: jacobsthal_closed(2, 13, rep),
        ):
            with pytest.raises(MissingRep, match="a QuadRep of p = 13 is required"):
                call()
    # the residue class of p is still checked first
    with pytest.raises(WrongResidueClass):
        cubic_class(2, 5, q7)


def test_rep_cache_is_bounded():
    assert quadform._cached_a3b.cache_parameters()["maxsize"] is not None


def test_represent_l27m_reuses_the_cached_rep(monkeypatch):
    # one descent per prime 1 (mod 3) of a sweep; represent_l27m used to
    # redo it on every call, 282 descents for these 94 primes
    calls = []
    descent = quadform.represent_a3b
    monkeypatch.setattr(quadform, "represent_a3b", lambda p: calls.append(p) or descent(p))
    quadform._cached_a3b.cache_clear()
    report = run_sweep(1200, ["cor23", "jacobi"], jobs=1)
    assert report.mismatches == []
    assert len(calls) == len(set(calls)) == 94


@pytest.mark.parametrize("c", ["unit", None, 0, [1]])
def test_class_trace_refuses_a_class_that_is_no_cubic_class(c):
    # "unit" used to raise KeyError from the trace table
    with pytest.raises(ValueError, match="c must be a CubicClass"):
        quadform.class_trace(c, 1, 2)
    assert quadform.class_trace(CubicClass.UNIT, 1, 2) == 2


def test_unchecked_trace_equals_class_trace():
    for p in (7, 13, 1489):
        rep = represent_a3b(p)
        A, B = rep.A, rep.B
        want = {CubicClass.UNIT: 2 * A, CubicClass.PLUS: -A + 3 * B, CubicClass.MINUS: -A - 3 * B}
        for c in CubicClass:
            assert quadform._class_trace(c, A, B) == quadform.class_trace(c, A, B) == want[c]


def test_a_failed_descent_raises_from_quadrep(monkeypatch):
    # QuadRep is the descent's only check: a wrong B must not come back
    monkeypatch.setattr(quadform, "isqrt", lambda n: math.isqrt(n) + 1)
    with pytest.raises(InternalInconsistency, match=r"A\^2 \+ 3B\^2 = "):
        represent_a3b(13)
