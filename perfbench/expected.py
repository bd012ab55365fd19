"""The benchmark's own re-derivation of every closed-form answer.

Given a prime's known (A, B), the cubic class of x is read off
c = x^((p-1)/3) mod p by comparing with 1 and the two cube roots of unity
(-1 + A/B)/2 ("plus") and (-1 - A/B)/2 ("minus"); each count is then one of
three formulas in (p, A, B).  Nothing here calls cubecount.
"""

from __future__ import annotations

from inputs import KnownPrime


class Expected:
    """Closed-form answers at one known prime p = 1 (mod 3)."""

    __slots__ = ("k", "e", "plus", "minus")

    def __init__(self, k: KnownPrime):
        p = k.p
        ab = k.A * pow(k.B, -1, p) % p
        inv2 = (p + 1) // 2
        self.k = k
        self.e = (p - 1) // 3
        self.plus = (ab - 1) * inv2 % p
        self.minus = (-ab - 1) * inv2 % p

    def cls(self, x: int) -> str:
        """'unit', 'plus' or 'minus': the cubic class of a unit x."""
        c = pow(x, self.e, self.k.p)
        if c == 1:
            return "unit"
        if c == self.plus:
            return "plus"
        if c == self.minus:
            return "minus"
        raise ValueError(f"{x}^((p-1)/3) mod {self.k.p} is not a cube root of unity")

    def vp(self, a: int) -> tuple[int, str]:
        """(V_p(x^2 + a/x), case): keyed on the class of 2a^2."""
        p, A, B = self.k.p, self.k.A, self.k.B
        case = self.cls(2 * a * a % p)
        num = {"unit": 2 * p - 1 + 2 * A, "plus": 2 * p - 1 - A + 3 * B, "minus": 2 * p - 1 - A - 3 * B}[case]
        if num % 3:
            raise ValueError(f"case numerator {num} is not divisible by 3")
        return num // 3, case

    def vp_2a(self, a: int) -> int:
        """V_p(x^2 + 2a/x), which must equal vp_closed(2a)."""
        return self.vp(2 * a % self.k.p)[0]

    def vp_half_x2(self, a: int) -> int:
        """V_p(x + a/(2x^2)), which must equal vp_closed(2/a)."""
        p = self.k.p
        return self.vp(2 * pow(a, -1, p) % p)[0]

    def jacobsthal(self, m: int) -> int:
        A, B = self.k.A, self.k.B
        return {"unit": -1 - 2 * A, "plus": -1 + A - 3 * B, "minus": -1 + A + 3 * B}[self.cls(m)]

    def is_eis_rep(self, L: int, M: int) -> bool:
        """Whether (L, M) is the normalised 4p = L^2 + 27M^2 (it is unique)."""
        return L * L + 27 * M * M == 4 * self.k.p and L % 3 == 1 and M > 0
