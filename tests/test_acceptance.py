"""End-to-end acceptance run.

One test per criterion, in order; each prints a single PASS/FAIL line
(visible under `pytest -s tests/test_acceptance.py`).  Expectations are
computed from definitions in this file or in helpers.py, so every closed
form is confronted with an independent route at full stated scale.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from cubecount.cli import main as cli_main
from cubecount.closedform import (
    a_from_count,
    l_from_count,
    vp_closed,
    vp_half_x2,
)
from cubecount.modarith import inv_mod, legendre
from cubecount.oracle import (
    Domain,
    RationalMap,
    discriminant_cubic,
    jacobsthal_brute,
    np_cubic_roots,
    vp_brute,
)
from cubecount.quadform import represent_a3b, represent_l27m
from cubecount.sweep import primes_between, run_sweep
from helpers import primes_1mod3, search_a3b, search_l27m


def _verdict(num: int, ok: bool, desc: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"{tag}  criterion {num:2d}: {desc}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


def test_criterion_01_closed_form_equals_enumeration():
    jobs = os.cpu_count() or 1
    rep = run_sweep(3000, ["theorem21"], jobs=jobs)
    want_pairs = sum(p - 1 for p in primes_between(5, 3000))
    ok = rep.mismatches == [] and rep.pairs_checked == want_pairs
    _verdict(
        1,
        ok,
        "closed-form count equals enumeration for every p <= 3000 and every a",
        f"{rep.pairs_checked} pairs in {rep.elapsed:.1f}s, jobs={jobs}",
    )


def test_criterion_02_jacobsthal_closed_form():
    rep = run_sweep(1000, ["lemma23"])
    want_pairs = sum(p - 1 for p in primes_between(5, 1000))
    ok = rep.mismatches == [] and rep.pairs_checked == want_pairs
    _verdict(
        2,
        ok,
        "closed-form Jacobsthal sum equals the direct sum for p <= 1000, all m",
        f"{rep.pairs_checked} sums in {rep.elapsed:.1f}s",
    )


def test_criterion_03_preimage_count_law():
    rep = run_sweep(500, ["lemma22"])
    ok = rep.mismatches == [] and rep.pairs_checked > 0
    _verdict(
        3,
        ok,
        "t-map preimage counts are 0 or 3 except count 2 at t = 27, p <= 500",
        f"{rep.pairs_checked} values in {rep.elapsed:.1f}s",
    )


def test_criterion_04_root_count_law_all_cubics():
    bad = 0
    triples = 0
    spots = 0
    t0 = time.perf_counter()
    for p in primes_between(5, 101):
        xs = np.arange(p, dtype=np.int64)
        qr = np.full(p, -1, dtype=np.int64)
        qr[0] = 0
        qr[np.unique(xs[1:] * xs[1:] % p)] = 1
        x2 = xs * xs % p
        x3 = x2 * xs % p
        # for fixed (a1, a2) the cubic has a root at x exactly when
        # a3 = -(x^3 + a1 x^2 + a2 x), so one bincount covers all a3;
        # the discriminant is a quadratic in a3 with leading term -27
        for a1 in range(p):
            c1_part = 18 * a1
            for a2 in range(p):
                g = (x3 + a1 * x2 + a2 * xs) % p
                counts = np.bincount((p - g) % p, minlength=p)
                c0 = (a1 * a1 * a2 * a2 - 4 * a2**3) % p
                c1 = (c1_part * a2 - 4 * a1**3) % p
                d = (c0 + c1 * xs + (p - 27 % p) * x2) % p
                chi = qr[d]
                if not (counts[chi == -1] == 1).all():
                    bad += 1
                if not np.isin(counts[chi == 1], (0, 3)).all():
                    bad += 1
                if (chi == 0).any():
                    if not (counts[chi == 0] <= 3).all():
                        bad += 1
                    # a3 kills the discriminant exactly when it makes some
                    # critical point of the cubic a repeated root
                    fp = (3 * x2 + 2 * a1 * xs + a2) % p
                    rz = np.unique((p - g[fp == 0]) % p)
                    if not np.array_equal(xs[chi == 0], rz):
                        bad += 1
                triples += p
        # tie the batched loop back to the public oracle on a sample
        rng = np.random.default_rng(p)
        for _ in range(40):
            a1, a2, a3 = (int(v) for v in rng.integers(0, p, 3))
            n = np_cubic_roots(a1, a2, a3, p)
            ch = legendre(discriminant_cubic(a1, a2, a3), p)
            fine = n == 1 if ch == -1 else (n in (0, 3) if ch == 1 else n <= 3)
            if not fine:
                bad += 1
            spots += 1
    _verdict(
        4,
        bad == 0,
        "the discriminant's character forces the root count for all p^3 cubics, p <= 101",
        f"{triples} cubics + {spots} oracle spot checks in {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_05_counts_invert_to_a_and_l():
    prs = primes_1mod3(3000)
    bad = []
    for p in prs:
        v1 = vp_brute(RationalMap.x2_plus_a_over_x(1), p, Domain.NONZERO).v
        v2 = vp_brute(RationalMap.x2_plus_a_over_x(2), p, Domain.NONZERO).v
        if l_from_count(p, v1) != represent_l27m(p).L:
            bad.append(p)
        elif a_from_count(p, v2) != represent_a3b(p).A:
            bad.append(p)
    _verdict(
        5,
        not bad,
        "enumerated counts at a = 1 and a = 2 invert to L and A, p = 1 (mod 3) <= 3000",
        f"{len(prs)} primes",
    )


def test_criterion_06_binomial_congruences():
    rep = run_sweep(10_000, ["jacobi"])
    ok = rep.mismatches == [] and rep.pairs_checked == 2 * len(primes_1mod3(10_000))
    _verdict(
        6,
        ok,
        "both binomial congruences for A and L hold for p = 1 (mod 3) <= 10^4",
        f"{rep.pairs_checked // 2} primes in {rep.elapsed:.1f}s",
    )


def test_criterion_07_representations_and_descent_speed():
    prs = primes_1mod3(100_000)
    t0 = time.perf_counter()
    reps = [represent_a3b(p) for p in prs]
    per_prime_ms = (time.perf_counter() - t0) * 1000 / len(prs)
    bad = 0
    for p, rep in zip(prs, reps):
        if (rep.A, rep.B) != search_a3b(p):
            bad += 1
        eis = represent_l27m(p)
        if (eis.L, eis.M) != search_l27m(p):
            bad += 1
    ok = bad == 0 and per_prime_ms < 1.0
    _verdict(
        7,
        ok,
        "descent output matches exhaustive search for p <= 10^5, under 1 ms per prime",
        f"{len(prs)} primes at {per_prime_ms:.4f} ms each",
    )


def test_criterion_08_hand_checked_vectors(capsys):
    vectors = [
        vp_closed(1, 5).v == 3,
        vp_closed(2, 7).v == 3,
        vp_closed(1, 7).v == 4,
        vp_brute(RationalMap.x2_plus_a_over_x(1), 5, Domain.NONZERO).v == 3,
        vp_brute(RationalMap.x2_plus_a_over_x(2), 7, Domain.NONZERO).v == 3,
        vp_brute(RationalMap.x2_plus_a_over_x(1), 7, Domain.NONZERO).v == 4,
        (represent_a3b(7).A, represent_a3b(7).B) == (-2, 1),
        (represent_l27m(7).L, represent_l27m(7).M) == (1, 1),
        (represent_a3b(13).A, represent_a3b(13).B) == (1, 2),
        (represent_l27m(13).L, represent_l27m(13).M) == (-5, 1),
        vp_brute(RationalMap.x2_plus_a_over_x(4), 7, Domain.NONZERO).v == 6,
        jacobsthal_brute(1, 7) == 3,
    ]
    code = cli_main(["selftest"])
    capsys.readouterr()  # selftest's own report is not part of this output
    ok = all(vectors) and code == 0
    _verdict(
        8,
        ok,
        "hand-checked vectors all hold and the CLI selftest exits 0",
        f"{len(vectors)} vectors",
    )


def test_criterion_09_half_family_bridge():
    # substituting x -> 1/x gives x + a/(2x^2) = (a/2) (x^2 + (2/a)/x), so
    # the left family attains exactly as many values as the partner family
    # at parameter 2/a; checked by enumeration on both sides and against
    # the closed form
    bad = 0
    pairs = 0
    for p in primes_between(5, 300):
        for a in range(1, p):
            lhs = vp_brute(RationalMap.x_plus_a_over_2x2(a), p, Domain.NONZERO).v
            partner = 2 * inv_mod(a, p) % p
            rhs = vp_brute(RationalMap.x2_plus_a_over_x(partner), p, Domain.NONZERO).v
            if lhs != rhs or lhs != vp_half_x2(a, p):
                bad += 1
            pairs += 1
    _verdict(
        9,
        bad == 0,
        "x + a/(2x^2) attains exactly the values of (a/2)(x^2 + (2/a)/x), p <= 300, all a",
        f"{pairs} pairs, enumeration both sides + closed form",
    )


def test_criterion_10_sweep_determinism():
    cmd = [sys.executable, "-m", "cubecount", "sweep", "--max-p", "200"]
    runs = [
        subprocess.run(cmd + ["--jobs", str(j)], capture_output=True)
        for j in (1, 8)
    ]
    ok = (
        runs[0].returncode == 0
        and runs[1].returncode == 0
        and len(runs[0].stdout) > 0
        and runs[0].stdout == runs[1].stdout
    )
    _verdict(
        10,
        ok,
        "sweep stdout is byte-identical with --jobs 1 and --jobs 8",
        f"{len(runs[0].stdout)} bytes of output compared",
    )
