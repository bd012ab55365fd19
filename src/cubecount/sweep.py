"""Exhaustive equivalence sweeps: closed forms vs enumeration, per prime.

Each check takes a prime and returns (pairs tested, mismatch rows).  The
checks on the x^2 + a/x family read one table of counts per prime
(family_counts), the Jacobsthal check one vector of sums (jacobsthal_all)
and the t-map check one vector of preimage counts (t_preimage_counts); the
closed form is still evaluated per parameter.  A
mismatch row is a dict with keys check / p / a / v_closed / v_brute; the
"a" slot carries whatever indexes the comparison (the family parameter, a
Jacobsthal argument, or a short label for per-prime identities).  Rows are
produced in ascending-p order and do not depend on how the work was split
across processes.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from functools import partial
from math import isqrt

from .closedform import (
    _cor24_value,
    a_from_count,
    jacobsthal_closed,
    l_from_count,
    von_sterneck_value,
    vp_2a,
    vp_closed,
    jacobi_check,
)
from .cubicres import is_cubic_residue, t_preimage_counts
from .oracle import Domain, RationalMap, family_counts, jacobsthal_all, vp_brute
from .quadform import _cached_a3b, represent_l27m

__all__ = ["CHECKS", "SweepReport", "primes_between", "run_sweep"]

#: Triples sampled per prime by the von Sterneck check.
VONSTERNECK_TRIALS = 24


@dataclass
class SweepReport:
    """Aggregate result of one sweep run."""

    prime_range: tuple[int, int]
    primes_checked: int
    pairs_checked: int
    mismatches: list[dict]
    elapsed: float
    config: dict = field(default_factory=dict)


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi], by sieve."""
    import numpy as np

    if hi < 2:
        return []
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return [int(q) for q in np.flatnonzero(sieve) if q >= lo]


def _row(check: str, p: int, a, v_closed, v_brute) -> dict:
    return {"check": check, "p": p, "a": a, "v_closed": v_closed, "v_brute": v_brute}


def check_theorem21(p: int):
    """Main count: vp_closed vs enumeration of x^2 + a/x, all nonzero a."""
    counts = family_counts(p).tolist()
    bad = []
    for a in range(1, p):
        vc = vp_closed(a, p).v
        if vc != counts[a]:
            bad.append(_row("theorem21", p, a, vc, counts[a]))
    return p - 1, bad


def check_lemma22(p: int):
    """Preimage counts of t_map: 2 at t = 27, otherwise 0 or 3."""
    counts = t_preimage_counts(p).tolist()
    bad = []
    t27 = 27 % p
    for t in range(1, p):
        n = counts[t]
        want = 2 if t == t27 else (3 if n else 0)
        if n != want:
            bad.append(_row("lemma22", p, t, want, n))
    return p - 1, bad


def check_lemma23(p: int):
    """Jacobsthal sums: closed form vs the definitional sum, all nonzero m."""
    rep = _cached_a3b(p) if p % 3 == 1 else None
    sums = jacobsthal_all(p).tolist()
    bad = []
    for m in range(1, p):
        jc = jacobsthal_closed(m, p, rep)
        if jc != sums[m]:
            bad.append(_row("lemma23", p, m, jc, sums[m]))
    return p - 1, bad


def check_cor21(p: int):
    """Companion family x^2 + 2a/x vs vp_2a, plus the cube criterion."""
    if p % 3 != 1:
        return 0, []
    rep = _cached_a3b(p)
    top = (2 * p - 1 + 2 * rep.A) // 3
    counts = family_counts(p).tolist()
    bad = []
    for a in range(1, p):
        vc = vp_2a(a, p).v
        vb = counts[2 * a % p]
        if vc != vb:
            bad.append(_row("cor21", p, a, vc, vb))
        elif is_cubic_residue(a, p) != (vc == top):
            # The count attains its maximum case exactly on cubes.
            bad.append(_row("cor21", p, a, top, vc))
    return p - 1, bad


def check_cor23(p: int):
    """Recover L and A from enumerated counts and compare with the forms."""
    if p % 3 != 1:
        return 0, []
    rep = _cached_a3b(p)
    eis = represent_l27m(p)
    counts = family_counts(p)
    v1 = int(counts[1])
    v1h = vp_brute(RationalMap.x_plus_a_over_2x2(2), p, Domain.NONZERO).v
    v2 = int(counts[2])
    bad = []
    if l_from_count(p, v1) != eis.L:
        bad.append(_row("cor23", p, "L|x^2+1/x", eis.L, l_from_count(p, v1)))
    if l_from_count(p, v1h) != eis.L:
        bad.append(_row("cor23", p, "L|x+1/x^2", eis.L, l_from_count(p, v1h)))
    if a_from_count(p, v2) != rep.A:
        bad.append(_row("cor23", p, "A|x^2+2/x", rep.A, a_from_count(p, v2)))
    return 3, bad


def check_cor24(p: int):
    """The a = 4 specialisation: formula vs both family enumerations."""
    if p % 3 != 1:
        return 0, []
    want = _cor24_value(p, _cached_a3b(p))
    c1 = int(family_counts(p)[4 % p])
    c2 = vp_brute(RationalMap.x_plus_a_over_2x2(4), p, Domain.NONZERO).v
    bad = []
    if c1 != want:
        bad.append(_row("cor24", p, "x^2+4/x", want, c1))
    if c2 != want:
        bad.append(_row("cor24", p, "x+2/x^2", want, c2))
    return 2, bad


def check_vonsterneck(p: int):
    """Sampled nondegenerate cubics all attain (2p + (p/3))/3 values.

    Trials are drawn from a generator seeded by p, so the sample (and the
    output) is the same however the sweep is scheduled.
    """
    want = von_sterneck_value(p)
    rng = random.Random(p)
    bad = []
    done = 0
    while done < VONSTERNECK_TRIALS:
        a1, a2, a3 = (rng.getrandbits(48) % p for _ in range(3))
        if (a1 * a1 - 3 * a2) % p == 0:
            continue
        done += 1
        v = vp_brute(RationalMap.cubic(a1, a2, a3), p, Domain.ALL).v
        if v != want:
            bad.append(_row("vonsterneck", p, f"{a1},{a2},{a3}", want, v))
    return VONSTERNECK_TRIALS, bad


def check_jacobi(p: int):
    """Jacobi's binomial congruences for A and L."""
    if p % 3 != 1:
        return 0, []
    ok_a, ok_l = jacobi_check(p)
    bad = []
    if not ok_a:
        bad.append(_row("jacobi", p, "A", 1, 0))
    if not ok_l:
        bad.append(_row("jacobi", p, "L", 1, 0))
    return 2, bad


CHECKS = {
    "theorem21": check_theorem21,
    "lemma22": check_lemma22,
    "lemma23": check_lemma23,
    "cor21": check_cor21,
    "cor23": check_cor23,
    "cor24": check_cor24,
    "vonsterneck": check_vonsterneck,
    "jacobi": check_jacobi,
}


def _check_prime(names: list[str], p: int) -> tuple[int, list[dict]]:
    """(pairs tested, mismatch rows) of the named checks at one prime."""
    done = [CHECKS[name](p) for name in names]
    return sum(n for n, _ in done), [row for _, rows in done for row in rows]


def run_sweep(max_p: int, checks=None, jobs: int | None = None) -> SweepReport:
    """Run the selected checks over every prime 3 < p <= max_p.

    Each prime is one task; workers are stateless and results are merged
    back in ascending order, so the report is identical for any job count.
    At most os.cpu_count() worker processes are started; config["jobs"]
    records the number used.
    """
    t0 = time.perf_counter()
    names = list(CHECKS) if checks is None else list(checks)
    if not names:
        raise ValueError(f"no checks selected (choose from {','.join(CHECKS)})")
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r} (choose from {','.join(CHECKS)})")
    ps = primes_between(5, max_p)
    if jobs is None or jobs < 1:
        jobs = 1
    jobs = min(jobs, os.cpu_count() or 1, max(1, len(ps)))
    check = partial(_check_prime, names)
    if jobs == 1:
        parts = list(map(check, ps))
    else:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            # chunksize=1: the default would batch the heaviest primes together
            parts = pool.map(check, ps, chunksize=1)
    pairs = sum(n for n, _ in parts)
    mism = [row for _, rows in parts for row in rows]
    return SweepReport(
        prime_range=(5, max_p),
        primes_checked=len(ps),
        pairs_checked=pairs,
        mismatches=mism,
        elapsed=time.perf_counter() - t0,
        config={"max_p": max_p, "checks": names, "jobs": jobs},
    )
