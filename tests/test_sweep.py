"""Sweep harness: registry, report shape, and parallel determinism."""

import os

import pytest

from cubecount.sweep import CHECKS, SweepReport, _chunk_bounds, primes_between, run_sweep


def test_registry_names():
    assert sorted(CHECKS) == [
        "cor21",
        "cor23",
        "cor24",
        "jacobi",
        "lemma22",
        "lemma23",
        "theorem21",
        "vonsterneck",
    ]


def test_primes_between():
    assert primes_between(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_between(5, 4) == []
    assert primes_between(0, 1) == []


def test_run_sweep_small_all_checks():
    rep = run_sweep(100)
    assert isinstance(rep, SweepReport)
    assert rep.prime_range == (5, 100)
    assert rep.primes_checked == len(primes_between(5, 100))
    assert rep.pairs_checked > 0
    assert rep.mismatches == []
    assert rep.elapsed >= 0
    assert set(rep.config["checks"]) == set(CHECKS)


def test_run_sweep_check_subset_and_pair_accounting():
    rep = run_sweep(60, checks=["theorem21"])
    assert rep.config["checks"] == ["theorem21"]
    assert rep.pairs_checked == sum(p - 1 for p in primes_between(5, 60))


def test_run_sweep_unknown_check():
    for checks in (["nope"], []):
        with pytest.raises(ValueError):
            run_sweep(60, checks=checks)


def test_run_sweep_independent_of_jobs():
    a = run_sweep(150, jobs=1)
    b = run_sweep(150, jobs=3)
    assert a.pairs_checked == b.pairs_checked
    assert a.primes_checked == b.primes_checked
    assert a.mismatches == b.mismatches


def test_run_sweep_tiny_range():
    rep = run_sweep(5)
    assert rep.primes_checked == 1
    assert rep.mismatches == []


def test_run_sweep_caps_jobs_at_cpu_count(monkeypatch):
    # four primes up to 13, so even a broken cap starts at most four workers
    serial = run_sweep(13, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rep = run_sweep(13, jobs=1000)
    assert rep.config["jobs"] == 2
    assert rep.mismatches == serial.mismatches
    assert rep.pairs_checked == serial.pairs_checked
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_sweep(13, jobs=1000).config["jobs"] == 1


def test_chunks_are_contiguous_and_of_equal_cost():
    ps = primes_between(5, 1200)
    bounds = _chunk_bounds(ps, 8)
    assert bounds[0] == 0 and bounds[-1] == len(ps) and bounds == sorted(bounds)
    costs = [sum(p * p for p in ps[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    assert max(costs) <= sum(costs) / 8 + max(ps) ** 2
    assert _chunk_bounds([], 1) == [0, 0]
