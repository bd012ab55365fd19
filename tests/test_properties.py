"""Closed-form identities at random 61-bit primes, far past any enumeration.

They pin the PLUS/MINUS orientation of the class -> (A, B) table: a
closed form with its orientation flipped breaks one of the first three,
and the whole table flipped breaks the fourth, whose L comes from B mod 3.
root_class, which names a root by (2c + 1) B = +-A, is held to the roots
class_value_targets computes with an inverse.  The descent is checked
from the other side: (A, B) is drawn first and the prime built from it.
Examples are drawn deterministically, so a run is repeatable.
"""

from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from cubecount.closedform import jacobsthal_closed, vp_2a, vp_closed, vp_half_x2
from cubecount.modarith import is_prime
from cubecount.quadform import (
    CubicClass,
    class_value_targets,
    l_from_ab,
    represent_a3b,
    represent_l27m,
    root_class,
)

LO, HI = 1 << 60, 1 << 61

SETTINGS = hypothesis.settings(
    derandomize=True, deadline=None, database=None, max_examples=200
)


def prime_1mod3_from(start: int) -> int:
    """The least prime p = 1 (mod 3) at or above start."""
    p = start + (1 - start) % 6  # p = 1 (mod 6): odd and 1 (mod 3)
    while not is_prime(p):
        p += 6
    return p


primes_1mod3 = st.integers(LO, HI - 10_000).map(prime_1mod3_from)


@SETTINGS
@hypothesis.given(st.data(), primes_1mod3)
def test_vp_2a_is_vp_closed_at_2a(data, p):
    a = data.draw(st.integers(1, p - 1))
    assert vp_2a(a, p).v == vp_closed(2 * a % p, p).v


@SETTINGS
@hypothesis.given(st.data(), primes_1mod3)
def test_vp_half_x2_is_vp_closed_at_2_over_a(data, p):
    a = data.draw(st.integers(1, p - 1))
    assert vp_half_x2(a, p) == vp_closed(2 * pow(a, -1, p) % p, p).v


@SETTINGS
@hypothesis.given(st.data(), primes_1mod3)
def test_vp_closed_from_jacobsthal_sum(data, p):
    a = data.draw(st.integers(1, p - 1))
    phi = jacobsthal_closed(2 * a * a % p, p, represent_a3b(p))
    assert 6 * vp_closed(a, p).v == 4 * (p - 1) - 2 * phi


@SETTINGS
@hypothesis.given(primes_1mod3)
def test_l_from_ab_is_eisenstein_l(p):
    assert l_from_ab(p, represent_a3b(p)) == represent_l27m(p).L


@SETTINGS
@hypothesis.given(st.data(), primes_1mod3)
def test_root_class_names_the_cube_roots_of_unity(data, p):
    rep = represent_a3b(p)
    t_plus, t_minus = class_value_targets(p, rep)
    want = {1: CubicClass.UNIT, t_plus: CubicClass.PLUS, t_minus: CubicClass.MINUS}
    for c, cls in want.items():
        assert root_class(c, p, rep) is cls
    c = data.draw(st.integers(0, p - 1))
    assert root_class(c, p, rep) is want.get(c)


@st.composite
def reps_61bit(draw) -> tuple[int, int]:
    """A normalised (A, B) with A^2 + 3B^2 a prime in [LO, HI).

    B is drawn, then |A| from where A^2 + 3B^2 enters the range; |A| walks
    up by 6, which keeps it prime to 3 and of the other parity from B,
    until A^2 + 3B^2 is prime.
    """
    b = draw(st.integers(1, 1 << 29))
    lo = isqrt(LO - 3 * b * b - 1) + 1
    hi = isqrt(HI - 1 - 3 * b * b)
    a = draw(st.integers(lo, hi - 6_000))
    while a % 3 == 0 or (a + b) % 2 == 0:
        a += 1
    while not is_prime(a * a + 3 * b * b):
        a += 6
    hypothesis.assume(a <= hi)
    return (a if a % 3 == 1 else -a), b


@SETTINGS
@hypothesis.given(reps_61bit())
def test_represent_a3b_finds_the_drawn_pair(rep):
    A, B = rep
    p = A * A + 3 * B * B
    assert LO <= p < HI
    got = represent_a3b(p)
    assert (got.A, got.B) == (A, B)
