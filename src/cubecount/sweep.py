"""Exhaustive equivalence sweeps: closed forms vs enumeration, per prime.

Each check takes a prime and hands its comparisons to _compare as
(a, v_closed, v_brute) triples; it returns (pairs, mismatch rows), where
pairs is the number of comparisons it made.  A mismatch row is a dict
keyed by ROW_FIELDS (check / p / a / v_closed / v_brute); the "a" slot
carries whatever indexes the comparison (the family parameter, a
Jacobsthal argument, or a short label for per-prime identities).  cor21
makes one comparison per a: the two counts when they differ, otherwise
the cube criterion as booleans (is a a cube, is its count the top one).
The checks on the x^2 + a/x family read one table of counts per prime
(family_counts), the Jacobsthal check one vector of sums (jacobsthal_all)
and the t-map check one vector of preimage counts (t_preimage_counts).
The closed form is evaluated per parameter, but theorem21, lemma23 and
cor21 take p's rep once per prime (represent_a3b): at a = 1 they compare
the public function (vp_closed, jacobsthal_closed, vp_2a), which checks p,
at every other a its kernel (_vp, _jacobsthal, _vp_2a), the same arithmetic
at the sweep's plain-int p without the checks and the result object.  cor21's
cube test stays the public is_cubic_residue at every a, independent of vp_2a.
run_sweep checks primes in the calling process and in jobs - 1 processes it
starts, each taking the largest prime left until none is; rows are merged
in ascending-p order, so they do not depend on how the work was split.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from math import isqrt

from ._tables import MAX_ENUM_PRIME, check_int
from .closedform import (
    _cor24_value,
    _jacobsthal,
    _vp,
    _vp_2a,
    a_from_count,
    jacobsthal_closed,
    l_from_count,
    von_sterneck_value,
    vp_2a,
    vp_closed,
    jacobi_check,
)
from .cubicres import is_cubic_residue, t_preimage_counts
from .errors import WorkerLost
from .oracle import Domain, RationalMap, family_counts, jacobsthal_all, vp_brute
from .quadform import represent_a3b, represent_l27m

__all__ = ["CHECKS", "ROW_FIELDS", "SweepReport", "primes_between", "run_sweep"]

#: Triples sampled per prime by the von Sterneck check.
VONSTERNECK_TRIALS = 24

#: The keys of a mismatch row, in order.
ROW_FIELDS = ("check", "p", "a", "v_closed", "v_brute")


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
    """Primes in [lo, hi], by sieve, for integers lo and hi <= MAX_ENUM_PRIME."""
    import numpy as np

    lo, hi = check_int("lo", lo), check_int("hi", hi)
    if hi > MAX_ENUM_PRIME:
        raise ValueError(f"hi = {hi} is too large for array enumeration (limit {MAX_ENUM_PRIME})")
    if hi < 2:
        return []
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return [int(q) for q in np.flatnonzero(sieve) if q >= lo]


def _compare(check: str, p: int, triples) -> tuple[int, list[dict]]:
    """(pairs, mismatch rows) of one check's (a, v_closed, v_brute) triples."""
    pairs, rows = 0, []
    for triple in triples:
        pairs += 1
        if triple[1] != triple[2]:
            rows.append(dict(zip(ROW_FIELDS, (check, p, *triple))))
    return pairs, rows


def check_theorem21(p: int):
    """Main count: vp_closed vs enumeration of x^2 + a/x, all nonzero a."""
    rep = represent_a3b(p) if p % 3 == 1 else None
    v1 = vp_closed(1, p).v
    counts = family_counts(p).tolist()
    triples = ((a, _vp(a, p, rep) if a > 1 else v1, counts[a]) for a in range(1, p))
    return _compare("theorem21", p, triples)


def check_lemma22(p: int):
    """Preimage counts of t_map: 2 at t = 27, otherwise 0 or 3."""
    n = t_preimage_counts(p).tolist()
    t27 = 27 % p
    triples = ((t, 2 if t == t27 else 3 if n[t] else 0, n[t]) for t in range(1, p))
    return _compare("lemma22", p, triples)


def check_lemma23(p: int):
    """Jacobsthal sums: closed form vs the definitional sum, all nonzero m."""
    rep = represent_a3b(p) if p % 3 == 1 else None
    j1 = jacobsthal_closed(1, p, rep)
    sums = jacobsthal_all(p).tolist()
    triples = ((m, _jacobsthal(m, p, rep) if m > 1 else j1, sums[m]) for m in range(1, p))
    return _compare("lemma23", p, triples)


def check_cor21(p: int):
    """Companion family x^2 + 2a/x vs vp_2a, plus the cube criterion."""
    if p % 3 != 1:
        return 0, []
    rep = represent_a3b(p)
    top = vp_2a(1, p).v  # the count of the cube class, 1 being a cube
    counts = family_counts(p).tolist()

    def triples():
        for a in range(1, p):
            vc, vb = _vp_2a(a, p, rep) if a > 1 else top, counts[2 * a % p]
            # Where the counts agree, the top count occurs exactly on cubes.
            yield (a, vc, vb) if vc != vb else (a, is_cubic_residue(a, p), vb == top)

    return _compare("cor21", p, triples())


def check_cor23(p: int):
    """Recover L and A from enumerated counts and compare with the forms."""
    if p % 3 != 1:
        return 0, []
    A, L = represent_a3b(p).A, represent_l27m(p).L
    counts = family_counts(p)
    v1h = vp_brute(RationalMap.x_plus_a_over_2x2(2), p, Domain.NONZERO).v
    triples = [
        ("L|x^2+1/x", L, l_from_count(p, int(counts[1]))),
        ("L|x+1/x^2", L, l_from_count(p, v1h)),
        ("A|x^2+2/x", A, a_from_count(p, int(counts[2]))),
    ]
    return _compare("cor23", p, triples)


def check_cor24(p: int):
    """The a = 4 specialisation: formula vs both family enumerations."""
    if p % 3 != 1:
        return 0, []
    want = _cor24_value(p, represent_a3b(p))
    c1 = int(family_counts(p)[4 % p])
    c2 = vp_brute(RationalMap.x_plus_a_over_2x2(4), p, Domain.NONZERO).v
    return _compare("cor24", p, [("x^2+4/x", want, c1), ("x+2/x^2", want, c2)])


def check_vonsterneck(p: int):
    """Sampled nondegenerate cubics all attain (2p + (p/3))/3 values.

    Trials are drawn from a generator seeded by p, so the sample (and the
    output) is the same however the sweep is scheduled.
    """
    want = von_sterneck_value(p)
    rng = random.Random(p)

    def trials():
        done = 0
        while done < VONSTERNECK_TRIALS:
            a1, a2, a3 = (rng.getrandbits(48) % p for _ in range(3))
            if (a1 * a1 - 3 * a2) % p == 0:
                continue
            done += 1
            v = vp_brute(RationalMap.cubic(a1, a2, a3), p, Domain.ALL).v
            yield f"{a1},{a2},{a3}", want, v

    return _compare("vonsterneck", p, trials())


def check_jacobi(p: int):
    """Jacobi's binomial congruences for A and L."""
    if p % 3 != 1:
        return 0, []
    ok_a, ok_l = jacobi_check(p)
    return _compare("jacobi", p, [("A", 1, int(ok_a)), ("L", 1, int(ok_l))])


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


def _work(names: list[str], ps: list[int], left) -> dict[int, tuple[int, list[dict]]]:
    """{index into ps: _check_prime's result} of the primes this process takes.

    left is a shared multiprocessing.Value, the number of primes of ps that no
    process has taken yet; each take is the largest of them, so the last
    primes taken are the cheapest.
    """
    done = {}
    while True:
        with left.get_lock():
            if left.value == 0:
                return done
            left.value -= 1
            i = left.value
        done[i] = _check_prime(names, ps[i])


def _work_and_send(names: list[str], ps: list[int], left, conn) -> None:
    """A started process's share: its _work, or the exception it raised, sent on conn."""
    try:
        result = _work(names, ps, left)
    except Exception as exc:
        with left.get_lock():
            left.value = 0  # the other processes stop after the prime they hold
        result = exc
    conn.send(result)
    conn.close()


def run_sweep(max_p: int, checks=None, jobs: int | None = None) -> SweepReport:
    """Run the selected checks, a list or tuple of CHECKS names (None for
    all of them), over every prime 3 < p <= max_p.

    Each prime is one task.  The calling process works through the tasks with
    jobs - 1 processes it starts, each taking the largest prime left; results
    are merged back in ascending order, so the report is identical for any
    job count.  At most os.cpu_count() processes work, the caller included;
    config["jobs"] records the number used.  An exception raised in a started
    process is raised here, and a started process that ends without sending
    its results raises WorkerLost; either way no started process outlives
    the call.
    """
    t0 = time.perf_counter()
    max_p = check_int("max_p", max_p)
    if not (checks is None or isinstance(checks, (list, tuple))):
        raise ValueError(f"checks must be a list of check names, got {checks!r}")
    names = list(CHECKS) if checks is None else list(checks)
    if not names:
        raise ValueError(f"no checks selected (choose from {','.join(CHECKS)})")
    for i, name in enumerate(names):
        if not (isinstance(name, str) and name in CHECKS):
            raise ValueError(f"unknown check {name!r} (choose from {','.join(CHECKS)})")
        if name in names[:i]:
            raise ValueError(f"check {name!r} is named twice")
    jobs = 1 if jobs is None else max(1, check_int("jobs", jobs))
    ps = primes_between(5, max_p)
    jobs = min(jobs, os.cpu_count() or 1, max(1, len(ps)))
    from multiprocessing import Pipe, Process, Value

    left = Value("q", len(ps))
    procs, conns = [], []
    try:
        for _ in range(jobs - 1):
            conn, child_conn = Pipe(duplex=False)
            conns.append(conn)
            proc = Process(target=_work_and_send, args=(names, ps, left, child_conn), daemon=True)
            proc.start()
            procs.append(proc)
            child_conn.close()  # so that recv sees EOF once the process is gone
        done = _work(names, ps, left)
        for proc, conn in zip(procs, conns):
            try:
                got = conn.recv()
            except EOFError:
                proc.join()
                raise WorkerLost(
                    f"a sweep process ended with exit code {proc.exitcode} "
                    "before it sent its results"
                ) from None
            if isinstance(got, Exception):
                raise got
            done.update(got)
    finally:
        # every result is in hand or the sweep is failing: stop what still runs
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()
    parts = [done[i] for i in range(len(ps))]
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
