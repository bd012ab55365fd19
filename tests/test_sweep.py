"""Sweep harness: registry, report shape, and parallel determinism."""

import inspect
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from cubecount import closedform, errors, sweep
from cubecount.sweep import CHECKS, SweepReport, primes_between, run_sweep
from helpers import time_limit


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


# primes_between and run_sweep at a bound whose sieve would be 93 GiB, with
# the address space capped at 3 GiB so that an allocation fails at once with
# MemoryError; each must raise the enumeration cap's ValueError first.
SWEEP_CAP_PROBE = """
import resource
import numpy  # loaded before the address space is capped
from cubecount.sweep import primes_between, run_sweep

resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
for call in (lambda: primes_between(5, 10**11), lambda: run_sweep(10**11, ["jacobi"])):
    try:
        call()
        print("returned")
    except MemoryError:
        print("MemoryError")
    except ValueError as exc:
        print("ValueError" if "too large for array enumeration" in str(exc) else repr(exc))
"""


def test_sweep_bound_is_capped_before_the_sieve():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_CAP_PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError", "ValueError"], proc.stdout


def test_run_sweep_small_all_checks():
    rep = run_sweep(100)
    assert isinstance(rep, SweepReport)
    assert rep.prime_range == (5, 100)
    assert rep.primes_checked == len(primes_between(5, 100))
    assert rep.pairs_checked > 0
    assert rep.mismatches == []
    assert rep.elapsed >= 0
    assert set(rep.config["checks"]) == set(CHECKS)


def _pairs_at(check, p):
    """How many comparisons a check makes at the prime p."""
    if check in ("theorem21", "lemma22", "lemma23"):
        return p - 1
    if check == "vonsterneck":
        return sweep.VONSTERNECK_TRIALS
    per_prime = {"cor21": p - 1, "cor23": 3, "cor24": 2, "jacobi": 2}[check]
    return per_prime if p % 3 == 1 else 0


def test_run_sweep_check_subset_and_pair_accounting():
    for check in CHECKS:
        rep = run_sweep(60, checks=[check])
        assert rep.config["checks"] == [check]
        assert rep.pairs_checked == sum(_pairs_at(check, p) for p in primes_between(5, 60))


def test_run_sweep_unknown_check():
    for checks in (["nope"], [], ["theorem21", "theorem21"], [["theorem21"]]):
        with pytest.raises(ValueError):
            run_sweep(60, checks=checks)


def test_run_sweep_refuses_a_string_of_checks():
    # a string used to be walked one letter at a time: "unknown check 't'"
    with pytest.raises(ValueError, match="list of check names"):
        run_sweep(30, checks="theorem21")


def _rows(check, *triples):
    return [
        {"check": check, "p": 13, "a": a, "v_closed": vc, "v_brute": vb}
        for a, vc, vb in triples
    ]


def _t_counts_with_one_at_5(p, real=sweep.t_preimage_counts):
    counts = real(p).copy()
    counts[5] = 1
    return counts


# The von Sterneck sample at p = 13, in the order it is drawn.
_SAMPLE_13 = (
    "8,8,2 9,6,7 12,4,4 11,7,2 11,1,12 0,8,7 12,10,1 8,5,0 7,3,10 2,2,4 1,11,11 2,9,11 "
    "4,3,7 1,5,9 4,9,9 11,5,12 8,2,11 9,0,8 4,12,6 7,3,1 11,1,6 0,5,7 6,0,0 9,7,8"
).split()

# (check, name patched in cubecount.sweep, fake, pairs, rows) at p = 13,
# where A = 1, B = 2, L = -5 and the cubes are 1, 5, 8, 12.  theorem21,
# lemma23 and cor21 take a = 1 from the public closed form and every other
# a from its kernel, so each has a fault planted in both.
PLANTED_FAULTS = [
    (
        "theorem21",
        "_vp",
        lambda a, p, rep, real=sweep._vp: real(a, p, rep) + (a == 3),
        12,
        _rows("theorem21", (3, 10, 9)),
    ),
    (
        "theorem21",
        "vp_closed",
        lambda a, p, real=sweep.vp_closed: SimpleNamespace(v=real(a, p).v + (a == 1)),
        12,
        _rows("theorem21", (1, 11, 10)),
    ),
    ("lemma22", "t_preimage_counts", _t_counts_with_one_at_5, 12, _rows("lemma22", (5, 3, 1))),
    (
        "lemma23",
        "_jacobsthal",
        lambda m, p, rep, real=sweep._jacobsthal: real(m, p, rep) + (m == 2),
        12,
        _rows("lemma23", (2, -5, -6)),
    ),
    (
        "lemma23",
        "jacobsthal_closed",
        lambda m, p, rep, real=sweep.jacobsthal_closed: real(m, p, rep) + (m == 1),
        12,
        _rows("lemma23", (1, -2, -3)),
    ),
    (
        "cor21",
        "_vp_2a",
        lambda a, p, rep, real=sweep._vp_2a: real(a, p, rep) + (a == 4),
        12,
        _rows("cor21", (4, 11, 10)),
    ),
    (
        # a wrong top count at a = 1 is also a wrong cube criterion at every
        # cube (count 9, not the top) and at every a whose 2a is a cube (10)
        "cor21",
        "vp_2a",
        lambda a, p, real=sweep.vp_2a: SimpleNamespace(v=real(a, p).v + (a == 1)),
        12,
        _rows(
            "cor21",
            (1, 10, 9),
            *((a, a in (5, 8, 12), a not in (5, 8, 12)) for a in (4, 5, 6, 7, 8, 9, 12)),
        ),
    ),
    (
        "cor21",
        "is_cubic_residue",
        lambda a, p: False,
        12,
        _rows("cor21", *((a, False, True) for a in (1, 5, 8, 12))),
    ),
    (
        "cor23",
        "represent_l27m",
        lambda p: SimpleNamespace(L=-4, M=1),
        3,
        _rows("cor23", ("L|x^2+1/x", -4, -5), ("L|x+1/x^2", -4, -5)),
    ),
    (
        "cor24",
        "_cor24_value",
        lambda p, rep: 0,
        2,
        _rows("cor24", ("x^2+4/x", 0, 6), ("x+2/x^2", 0, 6)),
    ),
    (
        "vonsterneck",
        "von_sterneck_value",
        lambda p: 0,
        24,
        _rows("vonsterneck", *((label, 0, 9) for label in _SAMPLE_13)),
    ),
    ("jacobi", "jacobi_check", lambda p: (False, True), 2, _rows("jacobi", ("A", 1, 0))),
]


@pytest.mark.parametrize(
    "check, name, fake, pairs, rows",
    PLANTED_FAULTS,
    ids=[f"{check}-{name}" for check, name, *_ in PLANTED_FAULTS],
)
def test_planted_fault_gives_exact_rows(monkeypatch, check, name, fake, pairs, rows):
    assert CHECKS[check](13) == (pairs, [])
    monkeypatch.setattr(sweep, name, fake)
    assert CHECKS[check](13) == (pairs, rows)


# The closed forms a default sweep never calls, each with the test that
# checks it instead.
NOT_SWEPT = {
    "vp_from_jacobsthal": "test_character_route_agrees compares it with vp_closed "
    "at every a for every prime up to 3000",
    "vp_half_x2": "its count is the swept _jacobsthal's; criterion 9 compares it "
    "with enumeration of its own family at every a for every prime up to 300",
}


def test_sweep_calls_every_closed_form_not_listed(monkeypatch):
    # Each function is replaced wherever a cubecount module holds it, so calls
    # from the sweep and from other closed forms are both seen.
    names = [n for n in closedform.__all__ if inspect.isfunction(getattr(closedform, n))]
    names += ["_vp", "_vp_2a", "_jacobsthal", "_cor24_value"]
    called = set()
    for name in names:
        real = getattr(closedform, name)

        def wrapped(*args, real=real, name=name, **kwargs):
            called.add(name)
            return real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "cubecount":
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, wrapped)
    assert run_sweep(13, jobs=1).mismatches == []
    assert set(names) - called == set(NOT_SWEPT)


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
    # four primes up to 13, so even a broken cap starts at most three processes
    serial = run_sweep(13, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rep = run_sweep(13, jobs=1000)
    assert rep.config["jobs"] == 2
    assert rep.mismatches == serial.mismatches
    assert rep.pairs_checked == serial.pairs_checked
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_sweep(13, jobs=1000).config["jobs"] == 1


def flag_1mod4(p):
    """A planted check that fails at every p = 1 (mod 4)."""
    return sweep._compare("planted", p, [(1, 0, int(p % 4 == 1))])


only_under_fork = pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork",
    reason="a check planted in this process reaches only forked processes",
)


@only_under_fork
def test_mismatch_rows_merge_in_ascending_p(monkeypatch):
    monkeypatch.setitem(CHECKS, "planted", flag_1mod4)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = run_sweep(200, ["planted", "lemma22"], jobs=1)
    parallel = run_sweep(200, ["planted", "lemma22"], jobs=2)
    assert parallel.config["jobs"] == 2
    want = [p for p in primes_between(5, 200) if p % 4 == 1]
    assert [row["p"] for row in serial.mismatches] == want
    assert parallel.mismatches == serial.mismatches
    assert parallel.pairs_checked == serial.pairs_checked


def test_run_sweep_starts_one_process_fewer_than_jobs(monkeypatch):
    # the caller works too; a Pool's workers are started through the same method
    started = []
    real_start = multiprocessing.process.BaseProcess.start

    def counted_start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = run_sweep(60, ["lemma22", "jacobi"], jobs=1)
    assert started == []
    for jobs in (2, 3):
        started.clear()
        with time_limit(60):
            rep = run_sweep(60, ["lemma22", "jacobi"], jobs=jobs)
        assert rep.config["jobs"] == jobs
        assert len(started) == jobs - 1
        assert (rep.pairs_checked, rep.mismatches) == (serial.pairs_checked, serial.mismatches)
    assert multiprocessing.active_children() == []


@only_under_fork
def test_error_in_a_started_process_is_raised_by_run_sweep(monkeypatch):
    caller, taken, checked_here = os.getpid(), multiprocessing.Event(), []

    def planted(p):
        if os.getpid() != caller:
            taken.set()
            raise errors.InternalInconsistency("planted fault in a started process")
        taken.wait(30)  # the started process takes a prime before the caller takes them all
        checked_here.append(p)
        time.sleep(0.05)
        return 0, []

    monkeypatch.setitem(CHECKS, "planted", planted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fault = "^planted fault in a started process$"
    with time_limit(60), pytest.raises(errors.InternalInconsistency, match=fault):
        run_sweep(60, ["planted"], jobs=2)
    assert multiprocessing.active_children() == []
    # the failing process empties the shared counter, so the caller stops
    # early rather than checking the 13 primes no process took
    assert len(checked_here) < 13


@only_under_fork
def test_error_in_the_caller_stops_every_started_process(monkeypatch):
    caller, taken = os.getpid(), multiprocessing.Event()

    def planted(p):
        if os.getpid() != caller:
            taken.set()
            time.sleep(60)  # busy at one prime until it is stopped
            return 0, []
        taken.wait(30)
        raise errors.InternalInconsistency("planted fault in the caller")

    monkeypatch.setitem(CHECKS, "planted", planted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fault = "^planted fault in the caller$"
    with time_limit(20), pytest.raises(errors.InternalInconsistency, match=fault):
        run_sweep(60, ["planted"], jobs=2)
    assert multiprocessing.active_children() == []


def test_run_sweep_takes_the_largest_prime_left(monkeypatch):
    # so that the last primes any process takes are the cheapest
    taken = []
    monkeypatch.setitem(CHECKS, "planted", lambda p: taken.append(p) or (0, []))
    run_sweep(60, ["planted"], jobs=1)
    assert taken == primes_between(5, 60)[::-1]


# A spawned process, or one the forkserver starts (Linux's default from
# Python 3.14), begins from a fresh interpreter, where every submodule of
# cubecount is lazy, and imports cubecount.sweep by name to find the
# function it runs.
SPAWN_PROBE = """
import multiprocessing
import os
import sys

from cubecount.sweep import run_sweep

multiprocessing.set_start_method(sys.argv[1])
os.cpu_count = lambda: 2
rep = run_sweep(60, jobs=2)
print(rep.config["jobs"], rep.pairs_checked, len(rep.mismatches), len(multiprocessing.active_children()))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_run_sweep_under_spawn(method):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN_PROBE, method],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "1806", "0", "0"]


# A planted check ends any process but the caller with os._exit(3) once it
# has taken a prime.  run_sweep, and the CLI through it, must then fail at
# once and leave no child; a sweep that waits for the lost prime never ends.
LOST_PROCESS_PROBE = """
import multiprocessing
import os

from cubecount import cli, sweep
from cubecount.errors import CubecountError

caller, taken = os.getpid(), multiprocessing.Event()


def planted(p):
    if os.getpid() != caller:
        taken.set()
        os._exit(3)
    taken.wait(30)  # the started process takes a prime before the caller takes them all
    return 0, []


sweep.CHECKS["planted"] = planted
os.cpu_count = lambda: 2
try:
    sweep.run_sweep(60, ["planted"], jobs=2)
    print("returned")
except CubecountError as exc:
    print(type(exc).__name__, exc)
print("children", len(multiprocessing.active_children()))
taken.clear()
print("exit", cli.main(["sweep", "--max-p", "60", "--checks", "planted", "--jobs", "2"]))
print("children", len(multiprocessing.active_children()))
"""


@only_under_fork
def test_lost_process_raises_worker_lost():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", LOST_PROCESS_PROBE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lost = "a sweep process ended with exit code 3 before it sent its results"
    assert proc.stdout.splitlines() == [f"WorkerLost {lost}", "children 0", "exit 2", "children 0"]
    assert f"error: {lost}" in proc.stderr
    assert issubclass(errors.WorkerLost, ChildProcessError)
