"""Closed-form counts against enumeration, plus the companion identities."""

import math
from fractions import Fraction

import pytest

from cubecount.closedform import (
    a_from_count,
    binom_mod,
    chi3,
    jacobi_check,
    jacobsthal_closed,
    l_from_count,
    von_sterneck_value,
    vp_2a,
    vp_closed,
    vp_cor24,
    vp_from_jacobsthal,
    vp_half_x2,
)
from cubecount.cubicres import CubicClass, cubic_class, in_c0, is_cubic_residue, k_map, t_map
from cubecount.errors import (
    CompositeModulus,
    CubecountError,
    MissingRep,
    NonIntegerResult,
    WrongResidueClass,
    ZeroArgument,
)
from cubecount.modarith import Prime, inv_mod
from cubecount.oracle import Domain, RationalMap, jacobsthal_all, jacobsthal_brute, vp_brute
from cubecount.quadform import represent_a3b, represent_l27m
from cubecount.sweep import run_sweep
from helpers import primes_1mod3, primes_upto, time_limit


def test_vp_closed_examples():
    assert vp_closed(1, 5).v == 3
    assert vp_closed(2, 7).v == 3
    assert vp_closed(1, 7).v == 4
    assert vp_closed(1, 13).v == 10
    assert vp_closed(2, 13).v == 9
    assert vp_closed(Fraction(1, 2), 7).v == vp_closed(4, 7).v
    with pytest.raises(ZeroArgument):
        vp_closed(0, 7)
    with pytest.raises(ZeroArgument):
        vp_closed(26, 13)


def test_vp_closed_breakdown_fields():
    b = vp_closed(2, 7)
    assert (b.p, b.a, b.A, b.B) == (7, 2, -2, 1)
    assert b.path_case == "unit"
    assert b.key_class is CubicClass.UNIT
    b = vp_closed(1, 5)
    assert b.path_case == "2mod3"
    assert b.A is None and b.B is None and b.key_class is None


def test_vp_closed_matches_enumeration():
    for p in primes_upto(200, start=5):
        for a in range(1, p):
            want = vp_brute(RationalMap.x2_plus_a_over_x(a), p, Domain.NONZERO).v
            assert vp_closed(a, p).v == want


def test_vp_closed_huge_prime():
    p = 2**61 - 1
    b = vp_closed(12345, p)
    assert b.A * b.A + 3 * b.B * b.B == p
    assert b.v in {(2 * p - 1 + 2 * b.A) // 3,
                   (2 * p - 1 - b.A + 3 * b.B) // 3,
                   (2 * p - 1 - b.A - 3 * b.B) // 3}


def test_character_route_agrees():
    # slower cross-check route: one Jacobsthal vector per prime, read at 2a^2
    for p in primes_upto(3000, start=5):
        sums = jacobsthal_all(p).tolist()
        for a in range(1, p):
            if vp_from_jacobsthal(sums[2 * a * a % p], p) != vp_closed(a, p).v:
                raise AssertionError(f"route mismatch at p={p}, a={a}")


def test_jacobsthal_closed_examples_and_errors():
    assert jacobsthal_closed(1, 7, represent_a3b(7)) == 3
    assert jacobsthal_closed(2, 13, represent_a3b(13)) == -6
    assert jacobsthal_closed(1, 5) == -1
    assert jacobsthal_closed(4, 11) == -1
    with pytest.raises(MissingRep):
        jacobsthal_closed(1, 7)
    with pytest.raises(ZeroArgument):
        jacobsthal_closed(0, 7, represent_a3b(7))


def test_jacobsthal_closed_matches_brute():
    for p in primes_upto(300, start=5):
        rep = represent_a3b(p) if p % 3 == 1 else None
        for m in range(1, p):
            assert jacobsthal_closed(m, p, rep) == jacobsthal_brute(m, p)


def test_count_from_jacobsthal_identity():
    # V = (2(p - 1) - Phi(2 a^2)) / 3 for p = 1 (mod 3)
    for p in primes_1mod3(300):
        rep = represent_a3b(p)
        for a in range(1, p):
            phi = jacobsthal_closed(2 * a * a % p, p, rep)
            num = 2 * (p - 1) - phi
            assert num % 3 == 0
            assert vp_closed(a, p).v == num // 3


def test_vp_2a_matches_main_family():
    for p in primes_1mod3(500):
        for a in range(1, p):
            assert vp_2a(a, p).v == vp_closed(2 * a % p, p).v
    with pytest.raises(WrongResidueClass):
        vp_2a(1, 5)
    with pytest.raises(ZeroArgument):
        vp_2a(13, 13)


def test_vp_2a_top_case_iff_cube():
    for p in primes_1mod3(500):
        rep = represent_a3b(p)
        top = (2 * p - 1 + 2 * rep.A) // 3
        for a in range(1, p):
            assert (vp_2a(a, p).v == top) == is_cubic_residue(a, p)


def test_vp_half_x2_examples():
    assert vp_half_x2(2, 7) == 4
    assert vp_half_x2(1, 5) == 3
    assert vp_half_x2(Fraction(1, 3), 7) == vp_half_x2(5, 7)
    with pytest.raises(ZeroArgument):
        vp_half_x2(0, 7)


def test_vp_half_x2_bridges_both_routes():
    for p in primes_upto(500, start=5):
        for a in range(1, p):
            closed = vp_half_x2(a, p)
            brute = vp_brute(RationalMap.x_plus_a_over_2x2(a), p, Domain.NONZERO).v
            assert closed == brute
            assert closed == vp_closed(2 * inv_mod(a, p) % p, p).v


def test_inversion_identities():
    for p in primes_1mod3(1000):
        v1 = vp_brute(RationalMap.x2_plus_a_over_x(1), p, Domain.NONZERO).v
        v2 = vp_brute(RationalMap.x2_plus_a_over_x(2), p, Domain.NONZERO).v
        assert a_from_count(p, v2) == represent_a3b(p).A
        assert l_from_count(p, v1) == represent_l27m(p).L


def test_inversion_errors():
    with pytest.raises(WrongResidueClass):
        a_from_count(5, 3)
    with pytest.raises(WrongResidueClass):
        l_from_count(5, 3)
    with pytest.raises(NonIntegerResult):
        a_from_count(7, 2)  # 3*2 + 1 is odd


def test_vp_cor24_examples_and_sweep():
    assert vp_cor24(7) == (6, 6)
    assert vp_cor24(13) == (6, 6)
    assert vp_cor24(31) == (19, 19)
    for p in primes_1mod3(500):
        v1, v2 = vp_cor24(p)
        want = vp_brute(RationalMap.x2_plus_a_over_x(4 % p), p, Domain.NONZERO).v
        assert v1 == v2 == want
    with pytest.raises(WrongResidueClass):
        vp_cor24(5)


def test_von_sterneck_examples_and_formula():
    assert von_sterneck_value(5) == 3
    assert von_sterneck_value(7) == 5
    assert von_sterneck_value(13) == 9
    for p in primes_upto(1000, start=5):
        chi = 1 if p % 3 == 1 else -1
        assert von_sterneck_value(p) == (2 * p + chi) // 3


def test_von_sterneck_matches_enumeration():
    # spot check with genuinely nondegenerate coefficient triples
    for p in primes_upto(150, start=5):
        for a1, a2, a3 in ((0, 1, 0), (1, 2, 3), (2, 0, 5 % p), (3, 3, 1)):
            if (a1 * a1 - 3 * a2) % p == 0:
                continue
            f = RationalMap.cubic(a1, a2, a3)
            assert vp_brute(f, p, Domain.ALL).v == von_sterneck_value(p)


def test_chi3():
    assert chi3(1) == 1
    assert chi3(2) == -1
    assert chi3(7) == 1
    assert chi3(-1) == -1
    with pytest.raises(WrongResidueClass):
        chi3(6)


def test_binom_mod_matches_math_comb():
    for p in (7, 13, 101, 997):
        for n in range(0, min(p, 40)):
            for k in range(0, n + 1):
                assert binom_mod(n, k, p) == math.comb(n, k) % p
    assert binom_mod(5, 7, 11) == 0
    assert binom_mod(10, -1, 11) == 0


def test_jacobi_check_examples_and_sweep():
    assert jacobi_check(7) == (True, True)
    assert jacobi_check(13) == (True, True)
    for p in primes_1mod3(1000):
        assert jacobi_check(p) == (True, True)
    with pytest.raises(WrongResidueClass):
        jacobi_check(5)


def test_composite_moduli_raise_promptly():
    # 35 = 2 (mod 3); 49, 91, 343 and the Carmichael number 1729 are 1 (mod 3)
    with time_limit(5):
        for n in (35, 49, 91, 343, 1729):
            for call in (
                lambda: vp_closed(2, n),
                lambda: vp_2a(2, n),
                lambda: vp_half_x2(2, n),
                lambda: jacobsthal_closed(2, n, represent_a3b(7)),
                lambda: jacobsthal_closed(2, n),
                lambda: vp_from_jacobsthal(-1, n),
                lambda: vp_cor24(n),
                lambda: jacobi_check(n),
                lambda: represent_a3b(n),
                lambda: represent_l27m(n),
                lambda: is_cubic_residue(2, n),
                lambda: t_map(2, n),
                lambda: k_map(2, n),
            ):
                with pytest.raises(CompositeModulus, match="is not prime"):
                    call()


def test_non_integral_parameters_raise():
    # a float or a bool is no residue: it is refused, never truncated
    rep = represent_a3b(7)
    for bad in (2.5, 2.0, True, "2"):
        for call in (
            lambda: vp_closed(bad, 7),
            lambda: vp_2a(bad, 7),
            lambda: vp_half_x2(bad, 7),
            lambda: jacobsthal_closed(bad, 7, rep),
            lambda: cubic_class(bad, 7, rep),
            lambda: is_cubic_residue(bad, 7),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: binom_mod(5.0, 2, 7), id="binom_mod-n"),
        pytest.param(lambda: binom_mod(5, 2.0, 7), id="binom_mod-k"),
        pytest.param(lambda: l_from_count(7, 1.5), id="l_from_count-float"),
        pytest.param(lambda: l_from_count(7, True), id="l_from_count-bool"),
        pytest.param(lambda: a_from_count(7, True), id="a_from_count-bool"),
        pytest.param(lambda: chi3(1.5), id="chi3"),
        pytest.param(lambda: k_map(1.5, 7), id="k_map"),
        pytest.param(lambda: t_map(Fraction(1, 2), 7), id="t_map"),
        pytest.param(lambda: in_c0(1, 0), id="in_c0-p0"),
        pytest.param(lambda: run_sweep(13.5), id="run_sweep-float"),
        pytest.param(lambda: run_sweep(True), id="run_sweep-bool"),
        pytest.param(lambda: vp_from_jacobsthal(1.5, 7), id="vp_from_jacobsthal-float"),
        pytest.param(lambda: vp_from_jacobsthal(True, 7), id="vp_from_jacobsthal-bool"),
    ],
)
def test_scalar_arguments_are_checked(call):
    # each is refused, never truncated, answered or left to a raw TypeError
    with pytest.raises((ValueError, CubecountError)):
        call()


def test_prime_and_plain_int_moduli_agree():
    for p in (7, 13, 31, 2**61 - 1):
        for a in (1, 2, 5):
            assert vp_closed(a, Prime(p)) == vp_closed(a, p)
            assert vp_half_x2(a, Prime(p)) == vp_half_x2(a, p)
