"""Quadratic-form representations: descent output vs exhaustive search."""

import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cubecount import quadform
from cubecount.closedform import jacobsthal_closed
from cubecount.cubicres import cubic_class
from cubecount.modarith import Prime, is_prime
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


#: the reps of 13, their repr, and a first field that keeps x = 1 (mod 3)
#: but breaks the equation
REPS_13 = [
    (represent_a3b(13), "QuadRep(A=1, B=2, p=13)", 4),
    (represent_l27m(13), "EisRep(L=-5, M=1, p=13)", -2),
]


@pytest.mark.parametrize("rep, text, bad", REPS_13, ids=["QuadRep", "EisRep"])
def test_a_rep_is_a_tuple_that_every_constructor_checks(rep, text, bad):
    # namedtuple's own _make and _replace skip __new__: _replace(A=5) once
    # built QuadRep(A=5, B=2, p=13)
    x, y, p = rep
    assert repr(rep) == text and rep == (x, y, p) and hash(rep) == hash((x, y, p))
    assert rep[0] == getattr(rep, rep._fields[0]) == x
    with pytest.raises(InternalInconsistency):
        rep._replace(**{rep._fields[0]: bad})
    with pytest.raises(InternalInconsistency):
        type(rep)._make((bad, y, p))
    with pytest.raises(InternalInconsistency):
        type(rep)._make((x, -y, p))
    assert type(rep._replace()) is type(rep) and rep._replace() == type(rep)._make(rep) == rep
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rep, protocol))
        assert type(back) is type(rep) and back == rep
    with pytest.raises(AttributeError):
        setattr(rep, rep._fields[0], bad)
    with pytest.raises(AttributeError):
        rep.q = 1


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


def test_represent_a3b_is_a_bounded_memo_that_checks_p_first(monkeypatch):
    calls = []
    descent = quadform._descend_a3b
    monkeypatch.setattr(quadform, "_descend_a3b", lambda p: calls.append(p) or descent(p))
    represent_a3b.cache_clear()
    rep = represent_a3b(13)
    assert represent_a3b(13) is rep and calls == [13]  # a second call runs no descent
    # one entry for 13 whatever its integer type: a Prime and the int 13 were two
    for p in (Prime(13), np.int64(13), Fraction(13), Decimal(13)):
        assert represent_a3b(p) is rep
    # 13 is cached, and still p is checked before the memo is read
    with pytest.raises(ValueError, match="must be an integer"):
        represent_a3b(13.0)
    with pytest.raises(CompositeModulus):
        represent_a3b(49)
    assert calls == [13]
    info = represent_a3b.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (5, 1, 1024, 1)
    # a stream of more fresh primes than it holds keeps 1024
    stream = primes_1mod3(20_000)
    assert len(stream) > 1024
    for p in stream:
        represent_a3b(p)
    assert represent_a3b.cache_info().currsize == 1024
    assert len(calls) == len(stream)  # one descent each, 13 counted when it was cached
    represent_a3b.cache_clear()


def primes_1mod3_61_bits(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if is_prime(n := 6 * rng.randrange((1 << 60) // 6 + 1, (1 << 61) // 6) + 1):
            out.append(n)
    return out


def test_a_prime_seeds_the_descent_with_its_char2():
    # the rep seeded by Prime.char2 against an independent Cornacchia solver
    diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    for p in primes_1mod3_61_bits(20261023, 2_000):
        ((x, y),) = diophantine.cornacchia(1, 3, p)
        assert represent_a3b(p) == (x if x % 3 == 1 else -x, y, p), p
    represent_a3b.cache_clear()


def test_a_prime_whose_2_is_no_cube_costs_the_descent_no_pow(monkeypatch):
    bases = []
    monkeypatch.setattr(quadform, "pow", lambda g, e, p: bases.append(g) or pow(g, e, p), raising=False)
    primes = primes_1mod3_61_bits(20261024, 40)
    cube = [p for p in primes if pow(2, (p - 1) // 3, p) == 1]
    assert cube and len(cube) < len(primes)
    assert {p % 4 for p in cube} == {1, 3}  # both branches of a cube case
    for p in primes:
        runs = []
        for q in (Prime(p), p):
            represent_a3b.cache_clear()
            bases.clear()
            represent_a3b(q)
            runs.append(bases[:])
        assert runs[1] == runs[0], p  # an int is checked into the same Prime
        if p not in cube:
            assert runs[0] == [], p  # the Prime's char2 is the root of unity
        elif p % 4 == 3:
            assert runs[0] == [3], p  # one pow, 3^((p+1)/4), a root of -3
        else:
            # odd g from 3 up, ending at the first non-cube
            assert runs[0] == list(range(3, 2 * len(runs[0]) + 3, 2)), p
            assert [pow(g, (p - 1) // 3, p) == 1 for g in runs[0]] == [True] * (len(runs[0]) - 1) + [False], p
    represent_a3b.cache_clear()


@pytest.mark.parametrize("p", [1939270450762495531, 1368793644238468897])
def test_a_prime_whose_2_and_3_are_cubes_gets_the_cornacchia_rep(p):
    # 2 and 3 are both cubes, so a search from 3 goes on to 5; one of each mod-4 class
    diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    assert pow(2, (p - 1) // 3, p) == pow(3, (p - 1) // 3, p) == 1
    ((x, y),) = diophantine.cornacchia(1, 3, p)
    represent_a3b.cache_clear()
    assert represent_a3b(p) == (x if x % 3 == 1 else -x, y, p)
    represent_a3b.cache_clear()


def test_represent_l27m_reuses_the_cached_rep(monkeypatch):
    # one descent per prime 1 (mod 3) of a sweep; represent_l27m used to
    # redo it on every call, 282 descents for these 94 primes
    calls = []
    descent = quadform._descend_a3b
    monkeypatch.setattr(quadform, "_descend_a3b", lambda p: calls.append(p) or descent(p))
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
    # QuadRep is the descent's only check: a wrong B must not come back;
    # the memo is emptied first, or a cached 13 would never reach the descent
    represent_a3b.cache_clear()
    monkeypatch.setattr(quadform, "isqrt", lambda n: math.isqrt(n) + 1)
    with pytest.raises(InternalInconsistency, match=r"A\^2 \+ 3B\^2 = "):
        represent_a3b(13)
