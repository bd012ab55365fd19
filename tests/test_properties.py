"""Closed-form identities at random 61-bit primes, far past any enumeration.

They pin the PLUS/MINUS orientation of the class -> (A, B) table: a
closed form with its orientation flipped breaks one of the first three,
and the whole table flipped breaks the last, whose L comes from B mod 3.
Examples are drawn deterministically, so a run is repeatable.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from cubecount.closedform import jacobsthal_closed, vp_2a, vp_closed, vp_half_x2
from cubecount.modarith import inv_mod, is_prime
from cubecount.quadform import l_from_ab, represent_a3b, represent_l27m

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
    assert vp_half_x2(a, p) == vp_closed(2 * inv_mod(a, p) % p, p).v


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
