"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Each workload is run once with a planted wrong answer (a wrapper that
returns v + 1), which must be counted as failed and fail the command.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from inputs import expected_pairs, is_prime, prime_from_rep, primes_upto
from latency import Latencies
from run import tree_rss_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Loaded by every Python process started with its directory on PYTHONPATH:
# wraps one function of the package so that its count comes out one high.
PLANTED = '''
import dataclasses, os, sys
try:
    import cubecount
except ImportError:
    cubecount = None
if cubecount is not None:
    name = os.environ["PLANTED_FAULT"]
    orig = getattr(cubecount, name)
    def planted(*args, **kwargs):
        r = orig(*args, **kwargs)
        return dataclasses.replace(r, v=r.v + 1)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "cubecount":
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, planted)
'''


def run_bench(workload: str, trace: int = 0, cwd: Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=175,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, fault",
    [("closed", "vp_closed"), ("oracle", "vp_brute"), ("sweep", "vp_closed"), ("cli", "vp_closed")],
)
def test_planted_wrong_answer_fails_the_run(tmp_path, workload, fault):
    (tmp_path / "sitecustomize.py").write_text(PLANTED)
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PLANTED_FAULT": fault}
    proc = run_bench(workload, env=env)
    assert proc.returncode == 1, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["failed_frac"] > 0


def test_clean_run_reports_every_end_to_end_metric():
    proc = run_bench("closed")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_closed_run_reports_layers_and_never_touches_tables():
    proc = run_bench("closed", trace=1)
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["closedform.vp_closed.calls"]["value"] > 0
    assert metrics["modarith.Prime.calls"]["value"] > 0
    assert metrics["tables.inv_table.calls"]["value"] == 0
    assert metrics["oracle.vp_brute.calls"]["value"] == 0


def test_tree_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("closed", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pair_rule_matches_a_small_sweep():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cubecount
    finally:
        sys.path.remove(str(ROOT / "src"))
    want = expected_pairs(13, list(cubecount.CHECKS))
    # p = 5, 7, 11, 13: 32 for each p - 1 check, 18 for cor21 (7 and 13),
    # 6 + 4 + 4 for cor23, cor24 and jacobi, and 24 sampled cubics per prime.
    assert sum(want.values()) == 3 * 32 + 18 + 6 + 4 + 4 + 96
    assert cubecount.run_sweep(13, jobs=1).pairs_checked == sum(want.values())


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    lat = Latencies()
    lat.add_ns([ms * 1_000_000 for ms in range(1, 65)])
    tail = lat.tail()
    assert tail["beyond"] == 10 and tail["samples"] == 64
    assert tail["ms"] == pytest.approx(54, rel=1e-3)
    assert lat.median_ms() == pytest.approx(32, rel=1e-3)
    few = Latencies()
    few.add_ns([ms * 1_000_000 for ms in range(1, 16)])
    assert few.tail()["ms"] == pytest.approx(15, rel=1e-3) and few.tail()["beyond"] == 0


def test_is_prime_matches_the_sieve_and_rejects_strong_pseudoprimes():
    small = set(primes_upto(100_000))
    assert all(is_prime(n) == (n in small) for n in range(100_000))
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051):
        assert not is_prime(n)


def test_tree_rss_counts_children():
    own = tree_rss_bytes(os.getpid())
    child = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"], stdin=subprocess.PIPE)
    try:
        assert own > 0 and tree_rss_bytes(os.getpid()) > own
    finally:
        child.stdin.close()
        child.wait()


def test_closed_stream_has_the_stated_repeat_share():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import Closed
    finally:
        sys.path.remove(str(ROOT / "src"))
    wl = Closed(5)
    events = wl.first + wl._events(8 * wl.BLOCK)
    props = wl.properties()
    assert abs(props["repeat_prime_query_share"] - Closed.REPEAT_SHARE) < 0.02
    assert sum(kind == "new" for kind, _, _ in events) == pytest.approx(len(events) / 3, rel=0.05)
    assert wl.units(15) == 150 and wl.units(0.01) == 1


def test_primes_come_with_their_representation():
    import random

    rng = random.Random(1)
    for lo, hi in ((1_000_000, 1_375_000), (1 << 60, 1 << 61)):
        k = prime_from_rep(rng, lo, hi)
        assert lo <= k.p < hi and is_prime(k.p)
        assert k.A * k.A + 3 * k.B * k.B == k.p and k.A % 3 == 1 and k.B > 0
