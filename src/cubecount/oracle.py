"""Brute-force ground truth by direct enumeration over Z_p.

Everything here is definitionally simple on purpose: these counts are the
oracles the closed forms are checked against, so they avoid the identities
the closed forms rely on.  numpy keeps the O(p) scans fast enough for
exhaustive sweeps into the thousands; it is imported on first use, inside
the functions that build arrays, so the closed-form layers never load it.

Two batched kernels answer a whole family at one prime: ``family_counts``
enumerates x^2 + a/x for every a at once, and ``jacobsthal_all`` gets every
Jacobsthal sum by correlating the cube histogram with the Legendre symbols.
They only enumerate or correlate; like the per-parameter oracles, they
never use cubic-class theory or a closed-form identity.  Only
family_counts is cached per prime; nothing else here is read twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from . import _tables
from .errors import EmptyDomain, InternalInconsistency, ZeroArgument

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CountResult",
    "Domain",
    "RationalMap",
    "discriminant_cubic",
    "family_counts",
    "jacobsthal_all",
    "jacobsthal_brute",
    "np_cubic_roots",
    "vp_brute",
]


class Domain(Enum):
    """Range of x for a residue count: all of Z_p, or the units only."""

    ALL = "all"
    NONZERO = "nonzero"


@dataclass(frozen=True)
class RationalMap:
    """A rational function given by coefficient tuples, ascending powers.

    Coefficients are arbitrary ints (reduced mod p at evaluation time), and
    anything else is a ValueError; leading zeros are permitted and
    evaluation is plain Horner on the lists as given.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...] = (1,)

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(self.numerator))
        object.__setattr__(self, "denominator", tuple(self.denominator))
        if not self.numerator or not self.denominator:
            raise ValueError("coefficient tuples must be non-empty")
        for c in self.numerator + self.denominator:
            _tables.check_int("coefficient", c)

    @classmethod
    def from_poly(cls, coeffs) -> "RationalMap":
        return cls(tuple(coeffs), (1,))

    @classmethod
    def x2_plus_a_over_x(cls, a: int) -> "RationalMap":
        """x^2 + a/x, written as (x^3 + a) / x."""
        return cls((a, 0, 0, 1), (0, 1))

    @classmethod
    def x_plus_a_over_2x2(cls, a: int) -> "RationalMap":
        """x + a/(2x^2), written as (2x^3 + a) / (2x^2)."""
        return cls((a, 0, 0, 2), (0, 0, 2))

    @classmethod
    def cubic(cls, a1: int, a2: int, a3: int) -> "RationalMap":
        """The polynomial x^3 + a1 x^2 + a2 x + a3."""
        return cls((a3, a2, a1, 1), (1,))


@dataclass(frozen=True)
class CountResult:
    """Number of attained residues, plus the attainment bitmap on request."""

    v: int
    attained: np.ndarray | None = None


def _eval_poly(coeffs: tuple[int, ...], xs: np.ndarray, p: int) -> np.ndarray:
    import numpy as np

    acc = np.full(xs.shape, coeffs[-1] % p, dtype=np.int64)
    for c in coeffs[-2::-1]:
        acc *= xs
        acc += c % p
        acc %= p
    return acc


#: Points x that vp_brute evaluates at a time.  A block holds four int64
#: arrays of this length (x, numerator, denominator, value), 512 KiB, next
#: to the p-byte bitmap of attained values.
BRUTE_BLOCK = 1 << 14


def vp_brute(f: RationalMap, p: int, domain: Domain, want_bitmap: bool = False) -> CountResult:
    """Count distinct values of f over the domain, by enumeration.

    Denominator zeros are skipped; if every point is one, EmptyDomain is
    raised.  O(p) time; p bytes plus one block of BRUTE_BLOCK points, on
    top of the cached inverse table.  The modulus is capped where int64
    products stop being exact (~3.0e9); enumeration is impractical long
    before that.
    """
    import numpy as np

    p = _tables.check_enumerable(p)
    inv = _tables.inv_table(p)
    seen = np.zeros(p, dtype=bool)
    for lo in range(0 if domain is Domain.ALL else 1, p, BRUTE_BLOCK):
        xs = np.arange(lo, min(lo + BRUTE_BLOCK, p), dtype=np.int64)
        num = _eval_poly(f.numerator, xs, p)
        den = _eval_poly(f.denominator, xs, p)
        ok = den != 0
        if not ok.all():
            num = num[ok]
            den = den[ok]
        vals = inv[den]
        vals *= num
        vals %= p
        seen[vals] = True
    # every point off the denominator's zeros marks one value
    v = int(np.count_nonzero(seen))
    if v == 0:
        raise EmptyDomain(f"denominator vanishes on the whole domain mod {p}")
    return CountResult(v, seen if want_bitmap else None)


#: Bytes family_counts holds per block of rows a: the int64 values of the
#: block and its attainment bitmap, 9 bytes per (a, x) cell, both allocated
#: once per call and reused by every block.
FAMILY_BLOCK_BYTES = 256 * 1024


@_tables.per_prime
def family_counts(p: int) -> np.ndarray:
    """V[a] = number of distinct values of x^2 + a/x over the units x.

    All p rows a in [0, p) by enumeration, a block of rows at a time:
    x^2 + a * x^(-1) is scattered into a (rows, p) bitmap, and each row is
    counted.  O(p^2) time; memory is O(p) plus FAMILY_BLOCK_BYTES (one row
    per block at least).  The read-only result is cached per prime.
    """
    import numpy as np

    xs = np.arange(1, p, dtype=np.int64)
    sq = xs * xs % p
    inv = _tables.inv_table(p)[1:]
    rows = max(1, FAMILY_BLOCK_BYTES // (9 * p))
    shift = np.arange(0, rows * p, p, dtype=np.int64)[:, None]
    vals = np.empty((rows, p - 1), dtype=np.int64)
    seen = np.empty((rows, p), dtype=bool)
    counts = np.empty(p, dtype=np.int64)
    for lo in range(0, p, rows):
        n = min(rows, p - lo)
        v, s = vals[:n], seen[:n]
        # v[i, x] = (x^2 + (lo + i) / x) mod p, shifted into row i of s
        np.multiply.outer(np.arange(lo, lo + n, dtype=np.int64), inv, out=v)
        v += sq
        v %= p
        v += shift[:n]
        s.fill(False)
        s.ravel()[v.ravel()] = True
        counts[lo : lo + n] = np.count_nonzero(s, axis=1)
    return counts


def discriminant_cubic(a1: int, a2: int, a3: int) -> int:
    """Discriminant of x^3 + a1 x^2 + a2 x + a3, as an exact integer.

    D = a1^2 a2^2 - 4 a2^3 - 4 a1^3 a3 - 27 a3^2 + 18 a1 a2 a3.
    """
    return (
        a1 * a1 * a2 * a2
        - 4 * a2**3
        - 4 * a1**3 * a3
        - 27 * a3 * a3
        + 18 * a1 * a2 * a3
    )


def np_cubic_roots(a1: int, a2: int, a3: int, p: int) -> int:
    """Number of distinct roots of x^3 + a1 x^2 + a2 x + a3 mod p (0..3)."""
    import numpy as np

    p = _tables.check_enumerable(p)
    for c in (a1, a2, a3):
        _tables.check_int("coefficient", c)
    vals = _eval_poly((a3, a2, a1, 1), np.arange(p, dtype=np.int64), p)
    return int(np.count_nonzero(vals == 0))


def _symbols_and_cubes(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The Legendre symbols (v/p) over v in [0, p) as int8, +1 exactly on the
    nonzero squares (the definition, not Euler's criterion), and y^3 mod p
    over y in [1, p)."""
    import numpy as np

    y = np.arange(1, p, dtype=np.int64)
    sq = y * y
    sq %= p
    symbols = np.full(p, -1, dtype=np.int8)
    symbols[0] = 0
    symbols[sq] = 1
    sq *= y
    sq %= p
    return symbols, sq


def jacobsthal_brute(m: int, p: int) -> int:
    """The cubic Jacobsthal sum (m/p) * sum_{y=1}^{p-1} ((y^3 + m)/p).

    Straight from the definition via the Legendre symbols.  Equals -1 for
    every nonzero m when p = 2 (mod 3), and is bounded by 2*sqrt(p) + 1 in
    absolute value.
    """
    p = _tables.check_enumerable(p)
    _tables.check_int("m", m)
    m %= p
    if m == 0:
        raise ZeroArgument("m must be nonzero mod p")
    symbols, cubes = _symbols_and_cubes(p)
    return int(symbols[m]) * int(symbols[(cubes + m) % p].sum())


def jacobsthal_all(p: int) -> np.ndarray:
    """J[m] = jacobsthal_brute(m, p) for every m in [0, p), with J[0] = 0.

    sum_y ((y^3 + m)/p) is the cyclic correlation, at shift m, of the
    histogram of nonzero cubes with the Legendre symbols; it is taken by
    real FFT in O(p log p) and rounded.  Every exact sum is an integer, so
    a float result further than 1/4 from one means the transform lost
    precision, and InternalInconsistency is raised rather than a rounded
    guess returned.  Not cached: a caller keeps the vector it reads again.
    """
    import numpy as np

    p = _tables.check_enumerable(p)
    symbols, cubes = _symbols_and_cubes(p)
    hist = np.bincount(cubes, minlength=p)
    sums = np.fft.irfft(np.fft.rfft(hist).conj() * np.fft.rfft(symbols), n=p)
    exact = np.rint(sums)
    err = float(np.abs(sums - exact).max())
    if err >= 0.25:
        raise InternalInconsistency(
            f"Jacobsthal correlation mod {p} is {err:.3f} from an integer"
        )
    return symbols * exact.astype(np.int64)
