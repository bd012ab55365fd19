"""Closed-form residue counts for x^2 + a/x and their companion identities.

Let V_p(f) be the number of residues attained by f(x) as x runs over the
units mod p.  For p = 2 (mod 3) the count is (2p - 1)/3 regardless of a.
For p = 1 (mod 3), write p = A^2 + 3B^2 with A = 1 (mod 3) and B > 0; the
count is decided by the cubic class of 2a^2, and the companion families
x^2 + 2a/x and x + a/(2x^2) by the class of a itself.  Each case is
(2p - 1 + t)/3 with t = quadform.class_trace of the keyed class: 2A,
-A + 3B or -A - 3B.  All case numerators are divisible by 3; that
divisibility is checked by _exact_div, never rounded.

Every public function here that takes a modulus p checks it first with
modarith.checked_prime (through quadform._require_1mod3 where p = 1 mod 3
is required), so a composite p raises CompositeModulus, not a meaningless count.

The three per-parameter closed forms, vp_closed, vp_2a and
jacobsthal_closed, are each their argument checks, one private kernel and
their result; vp_half_x2 is its checks and the kernel _jacobsthal.  A
kernel (_vp, _vp_2a, _jacobsthal) takes a prime p that its caller has
checked, a unit in [1, p) and the QuadRep of p (None when p = 2 mod 3),
and returns an int.  It checks none of the three; it keeps the _exact_div
guard and the InternalInconsistency of quadform._unit_class.
A caller that runs over every parameter of one prime, as the sweep does,
checks p and takes the rep once and then calls the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._tables import MAX_ENUM_PRIME, check_int
from .errors import NonIntegerResult, WrongResidueClass
from .modarith import Prime, _nonzero_residue, checked_prime
from .quadform import (
    CubicClass,
    QuadRep,
    _MINUS,
    _PLUS,
    _UNIT,
    _cached_a3b,
    _class_trace,
    _require_1mod3,
    _require_rep,
    _unit_class,
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
    "vp_from_jacobsthal",
    "vp_half_x2",
]


@dataclass(frozen=True)
class VpBreakdown:
    """A closed-form count together with the case that produced it.

    path_case is "2mod3" when p = 2 (mod 3) and otherwise the value of the
    CubicClass of the keyed quantity (2a^2 for the main family, a itself
    for the 2a family).  A and B are None for p = 2 (mod 3).
    """

    v: int
    path_case: str
    p: Prime
    a: int
    A: int | None = None
    B: int | None = None


def _exact_div(num: int, d: int) -> int:
    """num // d, or NonIntegerResult when d does not divide num."""
    q, r = divmod(num, d)
    if r:
        raise NonIntegerResult(f"{num} is not divisible by {d}")
    return q


def chi3(n: int) -> int:
    """The character (n/3): +1 for n = 1 (mod 3), -1 for n = 2 (mod 3)."""
    n = check_int("n", n)
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

    a may be an int or a Fraction and is reduced mod p first; a Fraction
    whose denominator p divides raises ZeroInverse.
    """
    p = checked_prime(p)
    a = _nonzero_residue(a, p)
    if p % 3 == 2:
        return VpBreakdown(_vp(a, p, None), "2mod3", p, a)
    rep = _cached_a3b(p)
    v = _vp(a, p, rep)
    return VpBreakdown(v, _count_class(v, p, rep.A, rep.B).value, p, a, rep.A, rep.B)


def _vp(a: int, p: int, rep: QuadRep | None) -> int:
    # vp_closed's count: the kernel convention of the module docstring
    if rep is None:
        return _exact_div(2 * p - 1, 3)
    c = _unit_class(2 * a * a % p, p, rep)
    return _exact_div(2 * p - 1 + _class_trace(c, rep.A, rep.B), 3)


def _count_class(v: int, p: int, a: int, b: int) -> CubicClass:
    # The class c whose count (2p - 1 + _class_trace(c, a, b))/3 is v.  The
    # three traces differ: a = +-b or b = 0 would make p = 4a^2 or a^2.
    t = 3 * v + 1 - 2 * p
    if t == 2 * a:
        return _UNIT
    return _PLUS if t == 3 * b - a else _MINUS


def vp_from_jacobsthal(phi: int, p: int) -> int:
    """The count of x^2 + a/x from Phi, the Jacobsthal sum at 2a^2.

    The character-sum route, for cross-checking vp_closed: with x3 = chi3(p),

        6 V = 4(p - x3) + (x3 - 1) + (1 - 3 x3) Phi,

    and the right side is divisible by 6 exactly.  Since a is a unit,
    (2a^2/p) = (2/p), so Phi needs no extra factor.
    """
    p = checked_prime(p)
    phi = check_int("phi", phi)
    x3 = chi3(p)
    v6 = 4 * (p - x3) + (x3 - 1) + (1 - 3 * x3) * phi
    return _exact_div(v6, 6)


def jacobsthal_closed(m, p: int, rep: QuadRep | None = None) -> int:
    """Jacobsthal sum at m in closed form.

    -1 for every nonzero m when p = 2 (mod 3), where no rep exists and a rep
    other than None is WrongResidueClass.  For p = 1 (mod 3) the rep of p
    is required (MissingRep without it, or with the rep of another prime)
    and the value is -1 - t for the cubic class of m:

        m cube            ->  -1 - 2A
        m^((p-1)/3) = (-1 + A/B)/2  ->  -1 + A - 3B
        m^((p-1)/3) = (-1 - A/B)/2  ->  -1 + A + 3B
    """
    p = checked_prime(p)
    m = _nonzero_residue(m, p)
    if p % 3 == 1:
        p = _require_rep(p, rep)
    elif rep is not None:
        raise WrongResidueClass(f"p = {p} is 2 (mod 3), where no QuadRep exists; got {rep!r}")
    return _jacobsthal(m, p, rep)


def _jacobsthal(m: int, p: int, rep: QuadRep | None) -> int:
    # jacobsthal_closed's sum: the kernel convention of the module docstring
    if rep is None:
        return -1
    return -1 - _class_trace(_unit_class(m, p, rep), rep.A, rep.B)


def vp_2a(a, p: int) -> VpBreakdown:
    """Closed-form count for the companion family x^2 + 2a/x, p = 1 (mod 3).

    (2p - 1 + t)/3 at the conjugate of the class of a: PLUS and MINUS
    swap relative to vp_closed, and the top case (2p - 1 + 2A)/3 occurs
    iff a is a cubic residue.  Always equals vp_closed(2a mod p, p).v.
    """
    p = _require_1mod3(p)
    a = _nonzero_residue(a, p)
    rep = _cached_a3b(p)
    v = _vp_2a(a, p, rep)
    return VpBreakdown(v, _count_class(v, p, rep.A, -rep.B).value, p, a, rep.A, rep.B)


def _vp_2a(a: int, p: int, rep: QuadRep) -> int:
    # vp_2a's count: the kernel convention of the module docstring, p = 1 (mod 3)
    return _exact_div(2 * p - 1 + _class_trace(_unit_class(a, p, rep), rep.A, -rep.B), 3)


def vp_half_x2(a, p: int) -> int:
    """Closed-form count for x + a/(2x^2) over the units: (2p - 2 - Phi(a))/3.

    x -> 1/x gives x^2 + (2/a)/x, whose count is (2(p - 1) - Phi(8/a^2))/3
    (vp_from_jacobsthal's identity).  8/a^2 = a (2/a)^3, and Phi(m) does
    not change when m is multiplied by a cube.  For p = 2 (mod 3) Phi = -1
    and the count is (2p - 1)/3.  Equals vp_closed(2 * inv(a), p).v.
    """
    p = checked_prime(p)
    a = _nonzero_residue(a, p)
    rep = None if p % 3 == 2 else _cached_a3b(p)
    return _exact_div(2 * p - 2 - _jacobsthal(a, p, rep), 3)


def a_from_count(p: int, v2: int) -> int:
    """Invert the count of x^2 + 2/x: A = (3 v2 + 1)/2 - p."""
    p = _require_1mod3(p)
    v2 = check_int("v2", v2)
    return _exact_div(3 * v2 + 1, 2) - p


def l_from_count(p: int, v1: int) -> int:
    """Invert the count of x^2 + 1/x: L = 2p - 1 - 3 v1."""
    p = _require_1mod3(p)
    v1 = check_int("v1", v1)
    return 2 * p - 1 - 3 * v1


def _cor24_value(p: int, rep: QuadRep) -> int:
    """Corollary 2.4: the count shared by x^2 + 4/x and x + 2/x^2, p = 1 (mod 3).

    Both equal (2p - 1 + 2A)/3 when 3 | B and (2p - 1 - A + 3(B/3)B)/3
    otherwise, with (B/3) the character of B mod 3.  The class is read
    from B mod 3 (0, 1, 2 -> UNIT, PLUS, MINUS), never from cubic_class, so
    sweep.check_cor24 compares a route independent of the closed forms'
    with both family enumerations.
    """
    c = tuple(CubicClass)[rep.B % 3]
    return _exact_div(2 * p - 1 + _class_trace(c, rep.A, rep.B), 3)


def von_sterneck_value(p: int) -> int:
    """Distinct values of a nondegenerate cubic x^3 + a1 x^2 + a2 x + a3.

    Whenever a1^2 - 3 a2 is nonzero mod p the count over all of Z_p is
    (2p + (p/3))/3, independent of the coefficients (von Sterneck).
    """
    p = checked_prime(p)
    return _exact_div(2 * p + chi3(p), 3)


def binom_mod(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) mod p; 0 unless 0 <= k <= n.

    One step of Lucas' theorem when k >= p, then a multiplicative O(k)
    product: the numerator's terms against k! (a unit), both mod p.  A k
    above MAX_ENUM_PRIME, the cap of every O(p) entry point, raises ValueError.
    """
    p = checked_prime(p)
    n, k = check_int("n", n), check_int("k", k)
    if k < 0 or k > n:
        return 0
    if k >= p:
        return binom_mod(n // p, k // p, p) * binom_mod(n % p, k % p, p) % p
    if k > MAX_ENUM_PRIME:
        raise ValueError(f"k = {k} is above the cap {MAX_ENUM_PRIME} of an O(k) product")
    num = den = 1
    for i in range(1, k + 1):
        num = num * ((n - k + i) % p) % p
        den = den * i % p
    return num * pow(den, -1, p) % p


def jacobi_check(p: int) -> tuple[bool, bool]:
    """Verify Jacobi's binomial congruences for A and L at a prime p = 1 (mod 3).

        A = (1/2) C((p-1)/2, (p-1)/6)   (mod p)
        L = -C(2(p-1)/3, (p-1)/3)       (mod p)

    Returns (A holds, L holds).  The binomials are O(p) products, so a p
    above MAX_ENUM_PRIME raises ValueError.
    """
    p = _require_1mod3(p)
    if p > MAX_ENUM_PRIME:
        raise ValueError(f"p = {p} is above the cap {MAX_ENUM_PRIME} of an O(p) product")
    rep = _cached_a3b(p)
    eis = represent_l27m(p)
    k = (p - 1) // 3
    half_binom = binom_mod((p - 1) // 2, (p - 1) // 6, p) * ((p + 1) // 2) % p
    ok_a = rep.A % p == half_binom
    ok_l = eis.L % p == (p - binom_mod(2 * k, k, p)) % p
    return ok_a, ok_l
