"""Brute-force enumeration oracles, checked against pure-python scans."""

import ast
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cubecount import _tables
from cubecount.cubicres import count_t_preimages, h_set, in_c0, t_preimage_counts
from cubecount.errors import CompositeModulus, EmptyDomain, InternalInconsistency, ZeroArgument
from cubecount.modarith import inv_mod, legendre
from cubecount.oracle import (
    BRUTE_BLOCK,
    FAMILY_BLOCK_BYTES,
    Domain,
    RationalMap,
    discriminant_cubic,
    family_counts,
    jacobsthal_all,
    jacobsthal_brute,
    np_cubic_roots,
    vp_brute,
)
from helpers import cubes_mod, primes_1mod3, primes_upto, sieve_upto, time_limit, trial_factor


def test_rational_map_constructors():
    f = RationalMap.x2_plus_a_over_x(3)
    assert f.numerator == (3, 0, 0, 1) and f.denominator == (0, 1)
    g = RationalMap.x_plus_a_over_2x2(3)
    assert g.numerator == (3, 0, 0, 2) and g.denominator == (0, 0, 2)
    h = RationalMap.cubic(4, 5, 6)
    assert h.numerator == (6, 5, 4, 1) and h.denominator == (1,)
    assert RationalMap.from_poly((0, 0, 1)).denominator == (1,)
    with pytest.raises(ValueError):
        RationalMap((), (1,))


def test_vp_brute_examples():
    assert vp_brute(RationalMap.x2_plus_a_over_x(1), 5, Domain.NONZERO).v == 3
    assert vp_brute(RationalMap.x2_plus_a_over_x(2), 7, Domain.NONZERO).v == 3
    assert vp_brute(RationalMap.x2_plus_a_over_x(4), 7, Domain.NONZERO).v == 6
    for p in (5, 7, 13, 101):
        sq = vp_brute(RationalMap.from_poly((0, 0, 1)), p, Domain.ALL)
        assert sq.v == (p + 1) // 2


def test_vp_brute_bitmap():
    res = vp_brute(RationalMap.x2_plus_a_over_x(4), 7, Domain.NONZERO, want_bitmap=True)
    assert res.attained is not None
    assert res.attained.shape == (7,) and res.attained.dtype == bool
    assert np.flatnonzero(res.attained).tolist() == [1, 2, 3, 4, 5, 6]
    assert res.attained.sum() == res.v
    plain = vp_brute(RationalMap.x2_plus_a_over_x(4), 7, Domain.NONZERO)
    assert plain.attained is None


def test_vp_brute_matches_pure_python():
    for p in primes_upto(60, start=5):
        for a in range(1, p):
            f = RationalMap.x2_plus_a_over_x(a)
            want = len({(x**3 + a) * pow(x, -1, p) % p for x in range(1, p)})
            assert vp_brute(f, p, Domain.NONZERO).v == want


def test_vp_brute_skips_denominator_zeros():
    # 1 / (x^2 - 1) is undefined at two points of the full domain
    f = RationalMap((1,), (-1, 0, 1))
    want = len({pow(x * x - 1, -1, 7) for x in range(7) if (x * x - 1) % 7})
    assert vp_brute(f, 7, Domain.ALL).v == want


def test_vp_brute_empty_domain_and_cap():
    with pytest.raises(EmptyDomain):
        vp_brute(RationalMap((1,), (0,)), 7, Domain.ALL)
    with pytest.raises(ValueError):
        vp_brute(RationalMap((0, 1), (1,)), 3_100_000_000, Domain.ALL)


def test_inv_table_inverts_every_unit():
    for p in primes_upto(2000):
        inv = _tables.inv_table(p)
        assert inv[0] == 0
        assert inv[1:].tolist() == [pow(x, -1, p) for x in range(1, p)], p


def test_inv_table_at_a_large_prime():
    p = 1_000_003
    inv = _tables.inv_table(p)
    assert inv.shape == (p,) and not inv.flags.writeable
    assert _tables.inv_table(p) is inv
    assert _tables.inv_table.cache_parameters()["maxsize"] == _tables.TABLE_PRIMES
    rng = random.Random(9)
    for x in [1, 2, p - 2, p - 1] + [rng.randrange(1, p) for _ in range(5_000)]:
        assert inv[x] == pow(x, -1, p)


def multiplicative_order(g: int, p: int) -> int:
    k, y = 1, g % p
    while y != 1:
        y = y * g % p
        k += 1
    return k


@pytest.mark.parametrize("p", [65_537, 200_087])
def test_primitive_root_is_the_least_generator(p):
    # 65537 - 1 = 2^16; 200087 - 1 = 2 * 100043 has a large prime cofactor
    if p == 200_087:
        assert trial_factor((p - 1) // 2) is None
    g = _tables.primitive_root(p)
    assert multiplicative_order(g, p) == p - 1
    assert all(multiplicative_order(h, p) < p - 1 for h in range(1, g))


def python_values(f: RationalMap, p: int, domain: Domain) -> set[int]:
    """The values of f over the domain, by scalar Horner and pow(., -1, p)."""

    def horner(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    xs = range(0 if domain is Domain.ALL else 1, p)
    dens = ((x, horner(f.denominator, x)) for x in xs)
    return {horner(f.numerator, x) * pow(d, -1, p) % p for x, d in dens if d}


#: The first primes above one and two blocks of vp_brute.
BLOCK_PRIMES = tuple(
    next(q for q in primes_upto(k * BRUTE_BLOCK + 1000) if q > k * BRUTE_BLOCK) for k in (1, 2)
)


@pytest.mark.parametrize("p", BLOCK_PRIMES)
def test_blocked_vp_brute_matches_python_values(p):
    # both domains end on a partial block; 1/(x - c) has its pole in the
    # last block
    maps = (
        RationalMap.x2_plus_a_over_x(5),
        RationalMap.cubic(1, 2, 3),
        RationalMap.x_plus_a_over_2x2(7),
        RationalMap((1,), (-(p - 3), 1)),
    )
    for f in maps:
        for domain in Domain:
            want = python_values(f, p, domain)
            got = vp_brute(f, p, domain, want_bitmap=True)
            assert got.v == len(want)
            assert np.flatnonzero(got.attained).tolist() == sorted(want)
    for domain in Domain:
        with pytest.raises(EmptyDomain):
            vp_brute(RationalMap((1,), (p,)), p, domain)


def test_vp_brute_memory_is_the_bitmap_plus_one_block():
    p = 1_000_003
    f = RationalMap.x2_plus_a_over_x(5)
    _tables.inv_table(p)  # the cached table is not the count's memory
    tracemalloc.start()
    try:
        vp_brute(f, p, Domain.NONZERO)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * p


def test_oracle_arguments_must_be_integers():
    for call in (
        lambda: jacobsthal_brute(2.5, 7),
        lambda: jacobsthal_brute(True, 7),
        lambda: np_cubic_roots(0.5, 0, 0, 7),
        lambda: np_cubic_roots(0, False, 0, 7),
        lambda: count_t_preimages(2.5, 13),
        lambda: RationalMap((1.5, 0, 0, 1), (0, 1)),
        lambda: RationalMap((1, 0, 0, 1), (0, "1")),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    # the modulus is checked before the argument is reduced by it
    for call in (lambda: jacobsthal_brute(1, True), lambda: count_t_preimages(1, True)):
        with pytest.raises(ValueError, match="modulus must be an integer"):
            call()
    assert jacobsthal_brute(np.int64(1), 7) == 3
    assert np_cubic_roots(np.int64(0), 0, 0, 7) == 1


def test_discriminant_examples_and_exactness():
    assert discriminant_cubic(0, 0, 0) == 0
    assert discriminant_cubic(0, -1, 0) == 4  # x^3 - x
    for b, a in ((1, 1), (2, 1), (5, -3), (11, 7)):
        assert discriminant_cubic(0, -b, a) == 4 * b**3 - 27 * a * a
    big = discriminant_cubic(10**8, -(10**8), 10**8)
    assert isinstance(big, int) and big % 10**8 == 0


def test_discriminant_vanishes_iff_repeated_root():
    for p in (7, 13, 31):
        for a1 in range(p):
            for a2 in range(p):
                for a3 in range(p):
                    rep = any(
                        (x**3 + a1 * x * x + a2 * x + a3) % p == 0
                        and (3 * x * x + 2 * a1 * x + a2) % p == 0
                        for x in range(p)
                    )
                    assert (discriminant_cubic(a1, a2, a3) % p == 0) == rep


def test_np_cubic_roots_examples():
    assert np_cubic_roots(0, 0, 0, 7) == 1  # x^3
    assert np_cubic_roots(0, -1, 0, 7) == 3  # x(x-1)(x+1)
    assert np_cubic_roots(0, 0, -2, 7) == 0  # 2 is not a cube mod 7


def test_np_cubic_roots_matches_scalar():
    for p in (5, 7, 11, 13):
        for a1 in range(p):
            for a2 in range(p):
                for a3 in (0, 1, p - 1):
                    want = sum(
                        1
                        for x in range(p)
                        if (x**3 + a1 * x * x + a2 * x + a3) % p == 0
                    )
                    assert np_cubic_roots(a1, a2, a3, p) == want


def test_root_count_law_small():
    # the discriminant's Legendre symbol pins the root count down
    for p in primes_upto(31, start=5):
        for a1 in range(p):
            for a2 in range(p):
                for a3 in range(p):
                    chi = legendre(discriminant_cubic(a1, a2, a3), p)
                    n = np_cubic_roots(a1, a2, a3, p)
                    if chi == -1:
                        assert n == 1
                    elif chi == 1:
                        assert n in (0, 3)
                    else:
                        assert 1 <= n <= 3


def test_value_count_is_substitution_invariant():
    # x -> a/(2x) carries x + a/(2x^2) onto a rescaling of x^2 + (2/a)/x,
    # so both families attain the same number of values
    for p in primes_upto(100, start=5):
        for a in range(1, p):
            lhs = vp_brute(RationalMap.x_plus_a_over_2x2(a), p, Domain.NONZERO).v
            partner = RationalMap.x2_plus_a_over_x(2 * inv_mod(a, p) % p)
            assert lhs == vp_brute(partner, p, Domain.NONZERO).v


def test_von_sterneck_count_all_pairs():
    # shifting a3 only translates the value set, so checking a3 = 0 for
    # every (a1, a2) covers all cubics; nondegenerate rows (a1^2 != 3 a2)
    # must attain (2p + (p/3))/3 values, the single degenerate row is a
    # shifted cube and attains p (p = 2 mod 3) or (p + 2)/3 values
    for p in primes_upto(200, start=5):
        xs = np.arange(p, dtype=np.int64)
        base = (xs * xs % p) * xs % p
        want = (2 * p + (1 if p % 3 == 1 else -1)) // 3
        deg_want = p if p % 3 == 2 else (p + 2) // 3
        for a1 in range(p):
            shifted = (base + a1 * (xs * xs % p)) % p
            vals = (shifted[None, :] + xs[:, None] * xs[None, :] % p) % p
            seen = np.zeros((p, p), dtype=bool)
            seen[np.repeat(xs, p), vals.ravel()] = True
            counts = seen.sum(axis=1)
            ok = (3 * xs - a1 * a1) % p != 0
            assert (counts[ok] == want).all()
            assert (counts[~ok] == deg_want).all()


def test_jacobsthal_examples():
    assert jacobsthal_brute(1, 7) == 3
    assert jacobsthal_brute(2, 13) == -6
    with pytest.raises(ZeroArgument):
        jacobsthal_brute(0, 7)
    with pytest.raises(ZeroArgument):
        jacobsthal_brute(26, 13)


def test_jacobsthal_matches_pure_python():
    # same definition, but scalar pow-based Legendre symbols instead of the
    # vectorised residue tables
    def scalar(m, p):
        tail = sum(legendre(pow(y, 3, p) + m, p) for y in range(1, p))
        return legendre(m, p) * tail

    for p in primes_upto(60, start=5):
        for m in range(1, p):
            assert jacobsthal_brute(m, p) == scalar(m, p)


def test_jacobsthal_constant_on_2mod3():
    for p in (5, 11, 17, 23, 29, 41, 53):
        assert all(jacobsthal_brute(m, p) == -1 for m in range(1, p))


def test_jacobsthal_hasse_bound():
    for p in primes_upto(500, start=5):
        for m in (1, 2, 3, p - 1):
            assert abs(jacobsthal_brute(m, p)) <= 2 * math.sqrt(p) + 1


def test_jacobsthal_cube_twist_invariance():
    # replacing m by c^3 m permutes the sum, so the value only depends on
    # the cubic class of m
    for p in primes_1mod3(200):
        cubes = sorted(cubes_mod(p))
        for m in (1, 2, 3):
            base = jacobsthal_brute(m, p)
            for c in cubes[:5]:
                assert jacobsthal_brute(c * m % p, p) == base


def test_batched_oracles_match_per_parameter_oracles():
    # both classes mod 3; 701 and 1009 span several row blocks of the family
    # table, the last one partial
    for p in (701, 1009):
        rows = FAMILY_BLOCK_BYTES // (9 * p)
        assert 1 < rows < p and p % rows != 0
    for p in (5, 7, 11, 13, 31, 37, 701, 1009):
        counts = family_counts(p)
        assert counts.shape == (p,) and not counts.flags.writeable
        for a in range(1, p):
            assert counts[a] == vp_brute(RationalMap.x2_plus_a_over_x(a), p, Domain.NONZERO).v
        sums = jacobsthal_all(p)
        assert sums.shape == (p,) and sums[0] == 0
        for m in range(1, p):
            assert sums[m] == jacobsthal_brute(m, p)


def test_jacobsthal_all_refuses_an_inexact_transform(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.4)
    with pytest.raises(InternalInconsistency):
        jacobsthal_all(13)


def test_jacobsthal_oracles_keep_nothing_allocated():
    # the Legendre symbols and cubes are built per call, not cached: after
    # both oracles less than one int8 table of p bytes stays allocated
    p = 1_000_003
    jacobsthal_all(13)  # numpy.fft is imported on first use and stays
    tracemalloc.start()
    try:
        jacobsthal_brute(5, p)
        jacobsthal_all(p)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < p


#: The tables that callers read again, and so the only ones per_prime caches.
PER_PRIME_TABLES = (_tables.inv_table, family_counts, t_preimage_counts)


def test_per_prime_decorates_exactly_the_tables_read_again():
    src = Path(__file__).resolve().parents[1] / "src" / "cubecount"
    decorated = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                # @per_prime is an ast.Name, @_tables.per_prime an ast.Attribute
                tags = {getattr(d, "id", getattr(d, "attr", None)) for d in node.decorator_list}
                if "per_prime" in tags:
                    decorated.add(node.name)
    assert decorated == {t.__name__ for t in PER_PRIME_TABLES}
    assert not hasattr(_tables, "qr_table") and not hasattr(_tables, "cubes_nonzero")


@pytest.mark.parametrize("table", PER_PRIME_TABLES, ids=lambda t: t.__name__)
def test_per_prime_tables_are_cached_and_read_only(table):
    first = table(31)
    assert table(31) is first
    with pytest.raises(ValueError):
        first[1] = 0
    assert table.cache_parameters()["maxsize"] == _tables.TABLE_PRIMES


def enumerating_calls(p: int) -> dict:
    """Every enumerating entry point, by name, as a call at the modulus p."""
    return {
        "vp_brute": lambda: vp_brute(RationalMap.x2_plus_a_over_x(1), p, Domain.NONZERO),
        "vp_brute_all": lambda: vp_brute(RationalMap.from_poly((0, 0, 1)), p, Domain.ALL),
        "family_counts": lambda: family_counts(p),
        "np_cubic_roots": lambda: np_cubic_roots(0, 0, 1, p),
        "jacobsthal_brute": lambda: jacobsthal_brute(1, p),
        "jacobsthal_all": lambda: jacobsthal_all(p),
        "h_set": lambda: h_set(p),
        "t_preimage_counts": lambda: t_preimage_counts(p),
        "count_t_preimages": lambda: count_t_preimages(1, p),
        "in_c0": lambda: in_c0(1, p),
        "inv_table": lambda: _tables.inv_table(p),
    }


#: The first prime above MAX_ENUM_PRIME.
P_UNENUMERABLE = 3_037_000_507

# Calls every enumerating entry point at P_UNENUMERABLE with the address
# space capped at 3 GiB, so an O(p) array (24 GB of int64) fails at once
# with MemoryError instead of taking the machine's memory; each call must
# raise ValueError before it allocates.
CAP_PROBE = """
import resource, sys
import numpy  # loaded before the address space is capped
sys.path.insert(0, sys.argv[2])
from cubecount import _tables
from test_oracle import enumerating_calls

p = int(sys.argv[1])
assert p > _tables.MAX_ENUM_PRIME
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
for name, call in enumerating_calls(p).items():
    try:
        call()
        got = "returned"
    except MemoryError:
        got = "MemoryError"
    except ValueError as exc:
        got = "ValueError" if "too large for array enumeration" in str(exc) else repr(exc)
    print(name, got)
"""


def test_enumeration_cap_is_checked_before_allocating():
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": str(tests.parent / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CAP_PROBE, str(P_UNENUMERABLE), str(tests)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert len(got) == 11 and set(got.values()) == {"ValueError"}, got


@pytest.mark.parametrize("n", [35, 561, 1729, 25326001])
def test_enumeration_refuses_composite_moduli(n):
    # Fermat inverses and squares-as-Legendre are wrong mod a composite:
    # at 35, vp_brute would count 8 values of x^2 + 1/x, not 12.  561 and
    # 1729 are Carmichael numbers; 25326001 is a strong pseudoprime to the
    # bases 2, 3 and 5.
    with time_limit(5):
        for modulus in (n, np.int64(n)):
            for call in enumerating_calls(modulus).values():
                with pytest.raises(CompositeModulus, match="is not prime"):
                    call()


def test_enumeration_takes_numpy_integer_moduli():
    # a numpy integer p is checked, then built from as a plain int
    plain = enumerating_calls(13)
    for name, call in enumerating_calls(np.int64(13)).items():
        got, want = call(), plain[name]()
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), name
        else:
            assert got == want, name


@pytest.mark.parametrize("p", [7.0, 13.0])
def test_enumeration_refuses_non_integer_moduli(p):
    # refused by type, not by value: family_counts(7) is cached, and the
    # cache must not answer for 7.0
    family_counts(7)
    with pytest.raises(ValueError, match="must be an integer"):
        _tables.check_enumerable(p)
    for call in enumerating_calls(p).values():
        with pytest.raises(ValueError, match="must be an integer"):
            call()


def test_check_enumerable_accepts_exactly_the_primes():
    flags = sieve_upto(100_000)
    bad = []
    for n in range(100_001):
        try:
            _tables.check_enumerable(n)
            prime = True
        except CompositeModulus:
            prime = False
        if prime != flags[n]:
            bad.append(n)
    assert bad == []
