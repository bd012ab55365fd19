"""Brute-force ground truth by direct enumeration over Z_p.

Everything here is definitionally simple on purpose: these counts are the
oracles the closed forms are checked against, so they avoid the identities
the closed forms rely on.  numpy keeps the O(p) scans fast enough for
exhaustive sweeps into the thousands; it is imported on first use, inside
the functions that build arrays, so the closed-form layers never load it.

Every oracle here enumerates the units one way, as views of the cached
_tables.unit_powers, pw[k] = g^k for a primitive root g: 1/x is the table
read backwards, the squares its even powers and the cubes three stride-3
views.  That is an order of enumeration; like everything here it uses no
cubic-class theory and no closed-form identity.  x = 0, where an oracle
takes it, is one scalar point.  Two batched kernels answer a whole family
at one prime: family_counts, cached per prime, enumerates x^2 + a/x for
every a at once, a/x a window of the doubled table, so each cell costs one
add and one scatter; jacobsthal_all correlates the histogram of the cube
views with the Legendre symbols.  vp_brute counts only maps whose
denominator is one term c x^j, Laurent polynomials, as is every map the
package counts, so it builds no inverse table.

The per-parameter oracles stream: vp_brute, np_cubic_roots and
jacobsthal_brute read BRUTE_BLOCK units at a time, each block widened to
int64 or cast to an index as _tables says, so on top of the cached
table each holds at most one or two p-byte arrays (the bitmap of attained
values, or the int8 Legendre symbols and their rotation by m) plus a few
blocks.  Polynomials go through _horner, which reduces mod p only where a
value can have reached p, with _tables.reduce_mod: a floor division at
under half the cost of numpy's int64 %, and still the dearest step.  The
one evaluator, _eval_laurent, takes f as a polynomial in x plus one in
1/x (none for a polynomial), widens the blocks of the table it is given
and reduces the sum once.  jacobsthal_brute computes nothing per point:
it gathers the rotated symbols at the cube views and sums.
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

    numerator and denominator are each a tuple or list of integers (a
    ValueError naming the argument for anything else); coefficients are
    stored as the ints _tables.check_int returns and reduced mod p at
    evaluation time; leading zeros are permitted and evaluation is plain
    Horner on the lists as given.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...] = (1,)

    def __post_init__(self):
        for name in ("numerator", "denominator"):
            coeffs = getattr(self, name)
            if not isinstance(coeffs, (tuple, list)):
                raise ValueError(f"{name} must be a tuple or list of integers, got {coeffs!r}")
            coeffs = tuple(_tables.check_int("coefficient", c) for c in coeffs)
            if not coeffs:
                raise ValueError("coefficient tuples must be non-empty")
            object.__setattr__(self, name, coeffs)

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


#: Units x that the enumerating oracles evaluate at a time.  _eval_laurent
#: widens a block of x, and of 1/x for a map with a part in 1/x, from the
#: cached uint32 power table to int64, one array of this length each; on
#: top of them a block holds at most two int64 arrays of this length for a
#: polynomial (the values and the quotient temporary of _tables.reduce_mod)
#: and three for a map with a part in 1/x (the parts in x and in 1/x, and
#: the quotient).  tracemalloc peaks at p = 1,000,003 with the table warm,
#: in bytes per residue, vp_brute's p-byte bitmap included: 1.40 for a
#: cubic over Z_p, 1.53 for x^2 + 5/x; 0.39 for np_cubic_roots.
#: jacobsthal_brute holds one intp index block and one int8 array of this
#: length (the gathered symbols) next to its 2p bytes of symbols and
#: rotation.
BRUTE_BLOCK = 1 << 14


def _horner(coeffs: tuple[int, ...], xs: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """(acc, bound): acc = f(x) mod p up to a multiple of p for every x in
    xs (int64, each in [0, p)), by Horner, and bound the largest value acc
    can hold.

    acc is reduced only when it can have reached p, before a multiply, so
    no value exceeds (p - 1)^2 + (p - 1) < 2^63 up to MAX_ENUM_PRIME.  Each
    reduction is _tables.reduce_mod in place, about 1.4 ns per element
    where numpy's int64 % costs 3.7 (an add costs 0.3; 2-core Xeon VM).
    A leading coefficient 1 starts from xs itself and a zero coefficient adds
    nothing; acc may be xs itself, and then bound is below p.
    """
    import numpy as np

    lead, *rest = (c % p for c in reversed(coeffs))
    if not rest:
        return np.full(xs.shape, lead, dtype=np.int64), lead
    acc = xs if lead == 1 else xs * lead
    bound = lead * (p - 1)
    for i, c in enumerate(rest):
        if i:
            if bound >= p:
                _tables.reduce_mod(acc, p)
                bound = p - 1
            acc = acc * xs if acc is xs else np.multiply(acc, xs, out=acc)
            bound *= p - 1
        if c:
            acc = acc + c if acc is xs else np.add(acc, c, out=acc)
            bound += c
    return acc, bound


def _eval_laurent(
    high: tuple[int, ...], xs: np.ndarray, p: int, low: tuple[int, ...] = (), inv=None
) -> np.ndarray:
    """high(x) + low(x^(-1)) mod p for every x in xs, inv their inverses:
    blocks of residues in [0, p) of any integer dtype, such as views of the
    uint32 _tables.unit_powers, each widened to int64 here.  Each part goes
    through _horner and the sum is reduced once, so that x^2 + a/x costs one
    reduction per point.  An empty low reads no inv, which may then be None,
    and x = 0 may be in xs."""
    import numpy as np

    xs = xs.astype(np.int64)  # a copy: the sum below may be written into it
    vals, bound = _horner(high, xs, p)
    if low:
        tail, tail_bound = _horner(low, inv.astype(np.int64), p)
        if bound + tail_bound >= 1 << 63:  # only for p above 2.1e9
            _tables.reduce_mod(vals, p)
            bound = p - 1
        np.add(vals, tail, out=vals)
        bound += tail_bound
    if bound >= p:
        _tables.reduce_mod(vals, p)
    return vals


def vp_brute(f: RationalMap, p: int, domain: Domain, want_bitmap: bool = False) -> CountResult:
    """Count distinct values of f over the domain, by enumeration.

    f is a Laurent polynomial: its denominator is one term c x^j mod p, as
    for every map the package counts (x^2 + a/x, x + a/(2x^2) and the
    cubics).  A denominator with two or more terms nonzero mod p, or a
    want_bitmap that is no bool, is a ValueError, and a denominator with no
    such term is EmptyDomain, each raised before anything is allocated.
    c^(-1) is folded into the numerator, so f(x) = high(x) + low(x^(-1)),
    through _eval_laurent at every unit: the units are walked a block of
    BRUTE_BLOCK at a time as x = pw[k] of the cached _tables.unit_powers,
    with x^(-1) = pw[p-1-k] the same table read backwards.  Over
    Domain.ALL, x = 0 is one more scalar point, f(0) = num[0] / c, when
    j = 0; for j > 0 it is a pole.  O(p) time; p bytes
    plus a few blocks on top of the cached table, and a cold prime builds
    and keeps the 4p-byte power table.  The modulus is capped where int64
    products stop being exact (~3.0e9); enumeration is impractical long
    before that.
    """
    import numpy as np

    p = _tables.check_enumerable(p)
    if not isinstance(f, RationalMap):
        raise ValueError(f"f must be a RationalMap, got {f!r}")
    if not isinstance(domain, Domain):
        raise ValueError(f"domain must be a Domain, got {domain!r}")
    if type(want_bitmap) is not bool:
        raise ValueError(f"want_bitmap must be a bool, got {want_bitmap!r}")
    num, den = f.numerator, f.denominator
    terms = [j for j, c in enumerate(den) if c % p]
    if not terms:
        raise EmptyDomain(f"denominator vanishes on the whole domain mod {p}")
    if len(terms) > 1:
        raise ValueError(f"the denominator must be one term c x^j mod {p}, got {den}")
    (j,) = terms
    # poly(x) / x^j = high(x) + low(1/x): high holds poly's terms of degree
    # j and up, low the rest, a polynomial in 1/x of degree j
    c_inv = pow(den[j], -1, p)
    poly = tuple(c * c_inv for c in num) + (0,) * (j + 1 - len(num))
    high, low = poly[j:], poly[:j][::-1]
    low = (0,) + low if any(c % p for c in low) else ()  # () if no 1/x part
    seen = np.zeros(p, dtype=bool)
    if domain is Domain.ALL and j == 0:
        seen[poly[0] % p] = True
    pw = _tables.unit_powers(p)
    units, rev = pw[: p - 1], pw[:0:-1]  # rev[k] = g^(p-1-k) = 1 / units[k]
    for lo in range(0, p - 1, BRUTE_BLOCK):
        hi = lo + BRUTE_BLOCK
        seen[_eval_laurent(high, units[lo:hi], p, low, rev[lo:hi])] = True
    return CountResult(int(np.count_nonzero(seen)), seen if want_bitmap else None)


#: Bytes family_counts holds per block of rows a, 18 per (a, x) cell: the
#: int64 values (8), the int64 squares shifted into each row's slot of the
#: bitmap (8) and the 2p-wide attainment bitmap (2).  All three are
#: allocated once per call.  1 MiB built the tables of a sweep about 13%
#: faster than 256 KiB on a 2-core Xeon VM with 2 MiB of L2 per core.
FAMILY_BLOCK_BYTES = 1 << 20


@_tables.per_prime
def family_counts(p: int) -> np.ndarray:
    """V[a] = number of distinct values of x^2 + a/x over the units x.

    All p rows a in [0, p) by enumeration, with the units taken in the
    order of a primitive root g: pw[k] = g^k (_tables.unit_powers).  For
    x = g^(-i) and a = g^j, a/x = pw[(i + j) mod (p - 1)], so row j reads
    a window of the doubled pw, a view with nothing computed, and x^2 =
    pw[p - 1 - 2i], the even powers read backwards, twice over.  A row is
    then one add of two residues below p, scattered into a 2p-wide bitmap
    whose halves are OR-ed and counted into V[pw[j]]; row a = 0 is the
    bitmap of the squares alone.  Every (a, x) cell is still written: the
    same enumeration in another order, with no multiply or % per cell.
    O(p^2) time; memory is O(p) plus FAMILY_BLOCK_BYTES (one row per block
    at least).  The read-only result is cached per prime.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    n_units = p - 1
    pw = _tables.unit_powers(p)
    # x^2 for x = g^(-i), i < p - 1
    sq = np.resize(pw[n_units:0:-2].astype(np.int64), n_units)
    pw = pw[:n_units]  # every unit once
    counts = np.empty(p, dtype=np.int64)
    squares = np.zeros(p, dtype=bool)
    squares[sq] = True
    counts[0] = np.count_nonzero(squares)
    # window j of the doubled powers is a/x over the units x, row a = g^j
    quotients = sliding_window_view(np.concatenate((pw, pw), dtype=np.int64), n_units)
    rows = min(n_units, max(1, FAMILY_BLOCK_BYTES // (18 * n_units)))
    # row r of the squares, shifted to start row r of the bitmap
    shifted = np.arange(0, rows * 2 * p, 2 * p, dtype=np.int64)[:, None] + sq
    vals = np.empty((rows, n_units), dtype=np.int64)
    seen = np.empty((rows, 2 * p), dtype=bool)
    for lo in range(0, n_units, rows):
        n = min(rows, n_units - lo)
        v, s = vals[:n], seen[:n]
        # v[r, i] = x^2 + a/x in [0, 2p), in row r of s
        np.add(quotients[lo : lo + n], shifted[:n], out=v)
        s.fill(False)
        s.ravel()[v.ravel()] = True
        low = s[:, :p]
        np.logical_or(low, s[:, p:], out=low)
        counts[pw[lo : lo + n]] = np.count_nonzero(low, axis=1)
    return counts


def discriminant_cubic(a1: int, a2: int, a3: int) -> int:
    """Discriminant of x^3 + a1 x^2 + a2 x + a3, as an exact integer.

    D = a1^2 a2^2 - 4 a2^3 - 4 a1^3 a3 - 27 a3^2 + 18 a1 a2 a3, for
    coefficients checked with _tables.check_int.
    """
    a1, a2, a3 = (_tables.check_int("coefficient", c) for c in (a1, a2, a3))
    return (
        a1 * a1 * a2 * a2
        - 4 * a2**3
        - 4 * a1**3 * a3
        - 27 * a3 * a3
        + 18 * a1 * a2 * a3
    )


def np_cubic_roots(a1: int, a2: int, a3: int, p: int) -> int:
    """Number of distinct roots of x^3 + a1 x^2 + a2 x + a3 mod p (0..3).

    x = 0 is a root exactly when a3 = 0 (mod p); the units are read as in
    vp_brute, BRUTE_BLOCK of the cached _tables.unit_powers at a time, each
    block widened to int64 by _eval_laurent.
    """
    import numpy as np

    p = _tables.check_enumerable(p)
    a1, a2, a3 = (_tables.check_int("coefficient", c) for c in (a1, a2, a3))
    units, cubic = _tables.unit_powers(p)[: p - 1], (a3, a2, a1, 1)
    roots = int(a3 % p == 0)
    for lo in range(0, p - 1, BRUTE_BLOCK):
        roots += int(np.count_nonzero(_eval_laurent(cubic, units[lo : lo + BRUTE_BLOCK], p) == 0))
    return roots


def _legendre_symbols(p: int) -> np.ndarray:
    """The Legendre symbols (v/p) over v in [0, p) as int8: +1 exactly on the
    nonzero squares (the definition, not Euler's criterion).  With y = g^k
    (_tables.unit_powers), y^2 = g^(2k mod (p - 1)) runs twice over the even
    powers pw[0:p-1:2], so the squares are a scatter of that view, a block
    of BRUTE_BLOCK indices at a time, with no multiply or reduction."""
    import numpy as np

    symbols = np.full(p, -1, dtype=np.int8)
    symbols[0] = 0
    squares = _tables.unit_powers(p)[: p - 1 : 2]
    for lo in range(0, len(squares), BRUTE_BLOCK):
        symbols[squares[lo : lo + BRUTE_BLOCK].astype(np.intp)] = 1
    return symbols


def _cube_views(p: int) -> list[np.ndarray]:
    """y^3 over every unit y, as three stride-3 views of _tables.unit_powers.

    With y = g^k and 3k in [t(p - 1), (t + 1)(p - 1)), y^3 = pw[3k - t(p - 1)],
    so view t is pw[(-t(p - 1)) mod 3 : p - 1 : 3], for t = 0, 1, 2.  For
    p = 1 (mod 3) the three are the same slice, each y^3 thrice; every view
    is still read in full, not one counted three times, which would take the
    3-to-1 cubing map from cubic-residue theory.
    """
    pw = _tables.unit_powers(p)
    return [pw[-t * (p - 1) % 3 : p - 1 : 3] for t in range(3)]


def jacobsthal_brute(m: int, p: int) -> int:
    """The cubic Jacobsthal sum (m/p) * sum_{y=1}^{p-1} ((y^3 + m)/p).

    Straight from the definition via the Legendre symbols: rotated by m,
    rotated[c] = ((c + m)/p), they are gathered at the cubes of
    _cube_views a block of BRUTE_BLOCK at a time and summed, with no add or
    reduction per point.  About 2 bytes per residue (the symbols and their
    rotation) plus one block, on top of the cached power table.  Equals -1
    for every nonzero m when p > 2 and p = 2 (mod 3), and is bounded by
    2*sqrt(p) + 1 in absolute value.
    """
    import numpy as np

    p = _tables.check_enumerable(p)
    m = _tables.check_int("m", m) % p
    if m == 0:
        raise ZeroArgument("m must be nonzero mod p")
    symbols = _legendre_symbols(p)
    rotated = np.roll(symbols, -m)
    total = 0
    for cubes in _cube_views(p):
        for lo in range(0, len(cubes), BRUTE_BLOCK):
            total += int(rotated[cubes[lo : lo + BRUTE_BLOCK].astype(np.intp)].sum())
    return int(symbols[m]) * total


def jacobsthal_all(p: int) -> np.ndarray:
    """J[m] = jacobsthal_brute(m, p) for every m in [0, p), with J[0] = 0.

    sum_y ((y^3 + m)/p) is the cyclic correlation, at shift m, of the
    histogram of the nonzero cubes, each of the three _cube_views counted
    in full, with the Legendre symbols; it is taken by real FFT in
    O(p log p) and rounded.  Every exact sum is an integer, so a float
    result further than 1/4 from one means the transform lost precision,
    and InternalInconsistency is raised rather than a rounded
    guess returned.  Not cached: a caller keeps the vector it reads again.
    """
    import numpy as np

    p = _tables.check_enumerable(p)
    symbols = _legendre_symbols(p)
    hist = np.zeros(p, dtype=np.int64)
    for cubes in _cube_views(p):
        hist += np.bincount(cubes, minlength=p)
    sums = np.fft.irfft(np.fft.rfft(hist).conj() * np.fft.rfft(symbols), n=p)
    exact = np.rint(sums)
    err = float(np.abs(sums - exact).max())
    if err >= 0.25:
        raise InternalInconsistency(
            f"Jacobsthal correlation mod {p} is {err:.3f} from an integer"
        )
    return symbols * exact.astype(np.int64)
