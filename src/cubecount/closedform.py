"""Closed-form residue counts for x^2 + a/x and their companion identities.

Let V_p(f) be the number of residues attained by f(x) as x runs over the
units mod p.  For p = 2 (mod 3) the count is (2p - 1)/3 regardless of a.
For p = 1 (mod 3), write p = A^2 + 3B^2 with A = 1 (mod 3) and B > 0; the
count is decided by the cubic class of 2a^2, and the companion families
x^2 + 2a/x and x + a/(2x^2) by the class of a itself.  Each case is
(2p - 1 + t)/3 with t = quadform.class_trace of the keyed class: 2A,
-A + 3B or -A - 3B.  All case numerators are divisible by 3; that
divisibility is asserted, never rounded.

Every public function here that takes a modulus p checks it first with
modarith.checked_prime, so a composite p raises CompositeModulus instead of
giving a meaningless count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._tables import check_int
from .errors import (
    InternalInconsistency,
    MissingRep,
    NonIntegerResult,
    WrongResidueClass,
)
from .modarith import _nonzero_residue, checked_prime, inv_mod
from .quadform import (
    CubicClass,
    QuadRep,
    _cached_a3b,
    _require_1mod3,
    _require_rep,
    _unit_class,
    class_trace,
    represent_l27m,
)

__all__ = [
    "VpBreakdown",
    "a_from_count",
    "binom_mod",
    "chi3",
    "jacobi_check",
    "jacobsthal_closed",
    "l_from_count",
    "von_sterneck_value",
    "vp_2a",
    "vp_closed",
    "vp_cor24",
    "vp_from_jacobsthal",
    "vp_half_x2",
]


@dataclass(frozen=True)
class VpBreakdown:
    """A closed-form count together with the case that produced it.

    path_case is "2mod3" when p = 2 (mod 3) and the class tag otherwise;
    key_class is the cubic class of the keyed quantity (2a^2 for the main
    family, a itself for the 2a family).  A and B are None for p = 2 (mod 3).
    """

    v: int
    path_case: str
    p: int
    a: int
    A: int | None = None
    B: int | None = None
    key_class: CubicClass | None = None


def _div3(num: int) -> int:
    q, r = divmod(num, 3)
    if r:
        raise NonIntegerResult(f"{num} is not divisible by 3")
    return q


def chi3(n: int) -> int:
    """The character (n/3): +1 for n = 1 (mod 3), -1 for n = 2 (mod 3)."""
    check_int("n", n)
    r = n % 3
    if r == 0:
        raise WrongResidueClass(f"{n} is divisible by 3")
    return 1 if r == 1 else -1


def vp_closed(a, p: int) -> VpBreakdown:
    """Closed-form count of distinct values of x^2 + a/x over the units.

    For p = 1 (mod 3) the case is keyed on c = (2a^2)^((p-1)/3) mod p:

        c = 1             ->  (2p - 1 + 2A) / 3
        c = (-1 + A/B)/2  ->  (2p - 1 - A + 3B) / 3
        c = (-1 - A/B)/2  ->  (2p - 1 - A - 3B) / 3

    a may be an int or a Fraction and is reduced mod p first.
    """
    p = checked_prime(p)
    a = _nonzero_residue(a, p)
    if p % 3 == 2:
        return VpBreakdown(_div3(2 * p - 1), "2mod3", p, a)
    rep = _cached_a3b(p)
    c = _unit_class(2 * a * a % p, p, rep)
    v = _div3(2 * p - 1 + class_trace(c, rep.A, rep.B))
    return VpBreakdown(v, c.value, p, a, rep.A, rep.B, c)


def vp_from_jacobsthal(phi: int, p: int) -> int:
    """The count of x^2 + a/x from Phi, the Jacobsthal sum at 2a^2.

    The character-sum route, for cross-checking vp_closed: with x3 = chi3(p),

        6 V = 4(p - x3) + (x3 - 1) + (1 - 3 x3) Phi,

    and the right side is divisible by 6 exactly.  Since a is a unit,
    (2a^2/p) = (2/p), so Phi needs no extra factor.
    """
    p = checked_prime(p)
    check_int("phi", phi)
    x3 = chi3(p)
    v6 = 4 * (p - x3) + (x3 - 1) + (1 - 3 * x3) * int(phi)
    q, r = divmod(v6, 6)
    if r:
        raise NonIntegerResult(f"{v6} is not divisible by 6")
    return q


def jacobsthal_closed(m, p: int, rep: QuadRep | None = None) -> int:
    """Jacobsthal sum at m in closed form.

    -1 for every nonzero m when p = 2 (mod 3).  For p = 1 (mod 3) the rep
    of p is required (MissingRep without it, or with the rep of another
    prime) and the value is -1 - t for the cubic class of m:

        m cube            ->  -1 - 2A
        m^((p-1)/3) = (-1 + A/B)/2  ->  -1 + A - 3B
        m^((p-1)/3) = (-1 - A/B)/2  ->  -1 + A + 3B
    """
    p = checked_prime(p)
    m = _nonzero_residue(m, p)
    if p % 3 == 2:
        return -1
    if rep is None:
        raise MissingRep("a QuadRep of p is required when p = 1 (mod 3)")
    _require_rep(p, rep)
    return -1 - class_trace(_unit_class(m, p, rep), rep.A, rep.B)


def vp_2a(a, p: int) -> VpBreakdown:
    """Closed-form count for the companion family x^2 + 2a/x, p = 1 (mod 3).

    (2p - 1 + t)/3 at the conjugate of the class of a: PLUS and MINUS
    swap relative to vp_closed, and the top case (2p - 1 + 2A)/3 occurs
    iff a is a cubic residue.  Always equals vp_closed(2a mod p, p).v.
    """
    p = checked_prime(p)
    _require_1mod3(p)
    a = _nonzero_residue(a, p)
    rep = _cached_a3b(p)
    c = _unit_class(a, p, rep)
    v = _div3(2 * p - 1 + class_trace(c, rep.A, -rep.B))
    return VpBreakdown(v, c.value, p, a, rep.A, rep.B, c)


def vp_half_x2(a, p: int) -> int:
    """Closed-form count for x + a/(2x^2) over the units.

    (2p - 1)/3 when p = 2 (mod 3); otherwise (2p - 1 + t)/3 at the class
    of a, the same orientation as vp_closed.  Substituting x -> 1/x and
    rescaling shows this family attains exactly as many values as
    x^2 + (2/a)/x, so the result also equals vp_closed(2 * inv(a), p).v.
    """
    p = checked_prime(p)
    a = _nonzero_residue(a, p)
    if p % 3 == 2:
        return _div3(2 * p - 1)
    rep = _cached_a3b(p)
    return _div3(2 * p - 1 + class_trace(_unit_class(a, p, rep), rep.A, rep.B))


def a_from_count(p: int, v2: int) -> int:
    """Invert the count of x^2 + 2/x: A = (3 v2 + 1)/2 - p."""
    p = checked_prime(p)
    _require_1mod3(p)
    check_int("v2", v2)
    t = 3 * v2 + 1
    if t % 2:
        raise NonIntegerResult(f"(3*{v2} + 1)/2 is not an integer")
    return t // 2 - p


def l_from_count(p: int, v1: int) -> int:
    """Invert the count of x^2 + 1/x: L = 2p - 1 - 3 v1."""
    p = checked_prime(p)
    _require_1mod3(p)
    check_int("v1", v1)
    return 2 * p - 1 - 3 * v1


def _cor24_value(p: int, rep: QuadRep) -> int:
    """The count shared by x^2 + 4/x and x + 2/x^2, straight off (A, B).

    The class is read from B mod 3 (0, 1, 2 -> UNIT, PLUS, MINUS), never
    from cubic_class, so vp_cor24 still compares two independent routes.
    """
    c = tuple(CubicClass)[rep.B % 3]
    return _div3(2 * p - 1 + class_trace(c, rep.A, rep.B))


def vp_cor24(p: int) -> tuple[int, int]:
    """Counts of x^2 + 4/x and x + 2/x^2 for p = 1 (mod 3).

    Both equal (2p - 1 + 2A)/3 when 3 | B and (2p - 1 - A + 3(B/3)B)/3
    otherwise, with (B/3) the character of B mod 3.  The two family
    evaluations are computed independently and must agree with the
    formula; a mismatch raises.
    """
    p = checked_prime(p)
    _require_1mod3(p)
    rep = _cached_a3b(p)
    want = _cor24_value(p, rep)
    via_x2 = vp_closed(4 % p, p).v
    via_half = vp_half_x2(4, p)  # x + 4/(2x^2) is x + 2/x^2
    if not (want == via_x2 == via_half):
        raise InternalInconsistency(
            f"count mismatch at p = {p}: formula {want}, "
            f"x^2+4/x {via_x2}, x+2/x^2 {via_half}"
        )
    return via_x2, via_half


def von_sterneck_value(p: int) -> int:
    """Distinct values of a nondegenerate cubic x^3 + a1 x^2 + a2 x + a3.

    Whenever a1^2 - 3 a2 is nonzero mod p the count over all of Z_p is
    (2p + (p/3))/3, independent of the coefficients (von Sterneck).
    """
    p = checked_prime(p)
    return _div3(2 * p + chi3(p))


def binom_mod(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) mod p for 0 <= k <= n < p.

    Multiplicative O(k) evaluation: the rising product over the numerator
    against k! in the denominator, both mod p.
    """
    p = checked_prime(p)
    check_int("n", n)
    check_int("k", k)
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(1, k + 1):
        num = num * ((n - k + i) % p) % p
        den = den * i % p
    return num * inv_mod(den, p) % p


def jacobi_check(p: int) -> tuple[bool, bool]:
    """Verify Jacobi's binomial congruences for A and L at a prime p = 1 (mod 3).

        A = (1/2) C((p-1)/2, (p-1)/6)   (mod p)
        L = -C(2(p-1)/3, (p-1)/3)       (mod p)

    Returns (A holds, L holds).
    """
    p = checked_prime(p)
    _require_1mod3(p)
    rep = _cached_a3b(p)
    eis = represent_l27m(p)
    k = (p - 1) // 3
    half_binom = binom_mod((p - 1) // 2, (p - 1) // 6, p) * ((p + 1) // 2) % p
    ok_a = rep.A % p == half_binom
    ok_l = eis.L % p == (p - binom_mod(2 * k, k, p)) % p
    return ok_a, ok_l
