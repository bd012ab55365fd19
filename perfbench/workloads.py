"""The four workloads.  Each runs in its own process, from a seed.

A workload object makes its inputs when constructed (that is set-up:
`import cubecount` has already happened in the same process), then runs one
of two ways:

- `timed(seconds)`: a closed loop with one client over a fixed amount of
  work, every operation's output checked outside the timed sections.  This
  gives the end-to-end metrics.  The amount depends only on `seconds`: it
  is `units(seconds)` units of nominally UNIT_S seconds each, so a faster
  program finishes sooner but is measured over the same operations, and its
  latency percentiles keep the same ranks.  The times of `closed` and
  `cli`, whose work is in the interpreter, are scaled to the reference
  machine speed (see calibrate.py); the raw ones are kept too.
- `fixed()`: a fixed amount of the same work, for the traced run and the
  untraced run it is compared with.  Fixed work makes the per-layer counts
  repeat exactly.

Every result carries `attempted` and `failed`; an operation fails when it
raises or its output check fails.  Checks that call the package run inside
`self.quiet()`, which the traced run sets so that they leave no spans.
The single-client workloads run pinned to one CPU, so that the probe and
the work share it; `sweep` uses both CPUs.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter_ns

import cubecount as cc
from calibrate import Section
from expected import Expected
from inputs import PAIR_RULES, expected_pairs, prime_from_rep, primes_upto
from latency import Latencies

MAX_FAILURE_NOTES = 5


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0
    raw_s: float = 0.0
    latencies: Latencies = field(default_factory=Latencies)
    raw_latencies: Latencies = field(default_factory=Latencies)
    notes: list = field(default_factory=list)
    properties: dict = field(default_factory=dict)

    def add(self, sec: Section, lat_ns=None) -> None:
        """Count a timed section; `lat_ns` are its operations' raw times
        (by default the section is one operation)."""
        lat = [sec.raw_ns] if lat_ns is None else lat_ns
        self.raw_s += sec.raw_ns / 1e9
        self.timed_s += sec.raw_ns * sec.scale / 1e9
        self.raw_latencies.add_ns(lat)
        self.latencies.add_ns([x * sec.scale for x in lat])

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(what)

    def to_json(self) -> dict:
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "timed_s": self.timed_s,
            "raw_timed_s": self.raw_s,
            "failure_notes": self.notes,
            "properties": self.properties,
        }
        if self.latencies.n:
            out["latency_p50_ms"] = self.latencies.median_ms()
            out["latency_tail"] = self.latencies.tail()
            out["raw_latency_p50_ms"] = self.raw_latencies.median_ms()
            out["raw_latency_tail_ms"] = self.raw_latencies.tail()["ms"]
        return out


class Workload:
    #: Entered around checks that call the package; the traced run pauses
    #: tracing there.
    quiet = staticmethod(nullcontext)
    #: Whether the workload is one client on one CPU.
    SINGLE_CPU = True
    #: Whether its time goes to the interpreter, so that it is scaled.
    CALIBRATED = True
    #: Seconds one unit of work (a block, pass, sweep or process) takes on
    #: the reference machine; it only sizes the timed run.
    UNIT_S = 1.0

    def units(self, seconds: float) -> int:
        """Units of work in a timed run of nominally `seconds`."""
        return max(1, round(seconds / self.UNIT_S))

    def pin(self) -> None:
        if self.SINGLE_CPU:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def timed_call(self, res: Outcome, fn, *args, **kwargs):
        """fn(*args, **kwargs) as one timed operation; an exception is returned."""
        with Section(self.CALIBRATED) as sec:
            try:
                r = fn(*args, **kwargs)
            except Exception as exc:  # a raising operation is a failed one
                r = exc
        res.add(sec)
        return r


# ---------------------------------------------------------------- closed


def vp_brute_bytes(n: int, p: int) -> int:
    """A fixed model, not a measurement: the working set of one vp_brute
    call over n points mod p, from the array shapes oracle.vp_brute has in
    the seed code.  Six int64 arrays of n (the points, numerator,
    denominator, gathered inverses, product and values), the n-byte
    denominator mask, the p-byte attainment bitmap, and the p-entry int64
    inverse table it reads.  No program change moves it; it only places a
    workload beside the cache sizes.  The traced run measures the real
    figure (`oracle.vp_brute.computed_bytes`).
    """
    return 8 * 6 * n + n + p + 8 * p


def prime_state_bytes() -> int:
    """Modelled: what the closed form keeps per prime, p, A, B and the two
    cube-root targets, as Python ints.  No arrays are involved."""
    return sum(sys.getsizeof(x) for x in (1 << 61, 1 << 30, 1 << 30, 1 << 61, 1 << 61))


class _LivePrime:
    __slots__ = ("exp", "P", "rep")

    def __init__(self, exp: Expected):
        self.exp = exp
        self.P = None  # the Prime the new-prime operation returned
        self.rep = None  # the caller's own memo of represent_a3b


class Closed(Workload):
    """The O(log p) route on 61-bit primes: Prime(p) and closed-form queries.

    The traffic is synthetic; the repository holds no record of real use.
    It is the simplest stream with both kinds of query in equal shares:
    each query is, with probability REPEAT_SHARE, on a prime drawn
    uniformly from the last LIVE_PRIMES primes brought in, and otherwise on
    a fresh prime, which costs one Prime(p) operation first.  LIVE_PRIMES
    is more than the smallest cache of the closed-form layer holds (64
    entries, class_value_targets).  The query kind is uniform over QUERIES.
    """

    LIVE_PRIMES = 256
    REPEAT_SHARE = 0.5
    BLOCK = 1024
    UNIT_S = 0.1
    FIXED_BLOCKS = 40
    BITS = 61
    QUERIES = ("vp_closed", "vp_2a", "vp_half_x2", "jacobsthal_closed")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.live: list[_LivePrime] = []
        self.queries = self.repeat_queries = self.primes_seen = 0
        self.pending: list = []
        self.first = self._events(self.BLOCK)

    def _fresh(self) -> _LivePrime:
        k = prime_from_rep(self.rng, 1 << (self.BITS - 1), 1 << self.BITS)
        lp = _LivePrime(Expected(k))
        self.live.append(lp)
        if len(self.live) > self.LIVE_PRIMES:
            self.live.pop(0)
        self.primes_seen += 1
        return lp

    def _events(self, count: int) -> list:
        """The next `count` operations of the seeded stream."""
        out, rng = self.pending, self.rng
        while len(out) < count:
            if self.live and rng.random() < self.REPEAT_SHARE:
                lp = rng.choice(self.live)
                self.repeat_queries += 1
            else:
                lp = self._fresh()
                out.append(("new", lp, 0))
            self.queries += 1
            out.append((rng.choice(self.QUERIES), lp, rng.randrange(1, lp.exp.k.p)))
        self.pending = out[count:]
        return out[:count]

    @staticmethod
    def _execute(events: list) -> tuple[list, list]:
        Prime, vp_closed, vp_2a = cc.Prime, cc.vp_closed, cc.vp_2a
        vp_half_x2, jacobsthal_closed, represent_a3b = cc.vp_half_x2, cc.jacobsthal_closed, cc.represent_a3b
        lat, out = [], []
        clock = perf_counter_ns
        for kind, lp, a in events:
            t0 = clock()
            try:
                if kind == "vp_closed":
                    r = vp_closed(a, lp.P)
                elif kind == "vp_2a":
                    r = vp_2a(a, lp.P)
                elif kind == "vp_half_x2":
                    r = vp_half_x2(a, lp.P)
                elif kind == "jacobsthal_closed":
                    if lp.rep is None:
                        lp.rep = represent_a3b(lp.P)
                    r = jacobsthal_closed(a, lp.P, lp.rep)
                else:
                    r = lp.P = Prime(lp.exp.k.p)
            except Exception as exc:  # a raising operation is a failed one
                r = exc
            lat.append(clock() - t0)
            out.append(r)
        return lat, out

    @staticmethod
    def _check(kind: str, lp: _LivePrime, a: int, r) -> bool:
        if isinstance(r, Exception):
            return False
        e, k = lp.exp, lp.exp.k
        if kind == "new":
            return int(r) == k.p
        if kind == "vp_half_x2":
            return r == e.vp_half_x2(a)
        if kind == "jacobsthal_closed":
            return r == e.jacobsthal(a) and (lp.rep.A, lp.rep.B) == (k.A, k.B)
        if (r.p, r.a, r.A, r.B) != (k.p, a, k.A, k.B):
            return False
        if kind == "vp_2a":
            return r.v == e.vp_2a(a)
        return (r.v, r.path_case) == e.vp(a)

    def _run_block(self, events: list, res: Outcome) -> None:
        with Section(self.CALIBRATED) as sec:
            lat, out = self._execute(events)
        res.add(sec, lat)
        res.attempted += len(events)
        for (kind, lp, a), r in zip(events, out):
            if not self._check(kind, lp, a, r):
                res.fail(f"{kind}(a={a}, p={lp.exp.k.p}) -> {r!r}")

    def timed(self, seconds: float) -> Outcome:
        res, events = Outcome(), self.first
        for i in range(self.units(seconds)):
            if i:
                events = self._events(self.BLOCK)
            self._run_block(events, res)
        res.properties = self.properties()
        return res

    def fixed(self) -> Outcome:
        res = Outcome()
        self._run_block(self.first, res)
        for _ in range(self.FIXED_BLOCKS - 1):
            self._run_block(self._events(self.BLOCK), res)
        res.properties = self.properties()
        return res

    def properties(self) -> dict:
        return {
            "live_primes": self.LIVE_PRIMES,
            "distinct_primes": self.primes_seen,
            "queries": self.queries,
            "repeat_prime_query_share": self.repeat_queries / self.queries if self.queries else 0.0,
            "repeat_share_set": self.REPEAT_SHARE,
            "prime_bits": self.BITS,
        }

    def working_set_bytes(self) -> int:
        return self.LIVE_PRIMES * prime_state_bytes()


# ---------------------------------------------------------------- oracle


class Oracle(Workload):
    """Enumeration at large p: 8 primes per pass, one within 1% of the
    middle of each eighth of [1e6, 4e6).  Every pass, whatever the seed,
    has nearly the same sizes, so time and memory vary little between seeds.

    Per prime: three vp_brute counts of x^2 + a/x, then one
    jacobsthal_brute.  Only the first count on a prime builds its tables
    cold; the jacobsthal sum's first call builds the square and cube tables.
    A timed run makes `units(seconds)` passes, each with fresh primes.
    """

    LO, HI, STRATA, SPREAD = 1_000_000, 4_000_000, 8, 0.01
    COUNTS = 3
    CALIBRATED = False
    UNIT_S = 7.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.passes = 0
        self.first = self._pass()

    def _pass(self) -> list:
        rng, width = self.rng, (self.HI - self.LO) / self.STRATA
        mids = [self.LO + (i + 0.5) * width for i in range(self.STRATA)]
        # Ascending sizes: the LRU caches then evict in the same order every
        # run, so the memory peak does not depend on the seed.
        primes = [prime_from_rep(rng, int(m * (1 - self.SPREAD)), int(m * (1 + self.SPREAD))) for m in mids]
        return [(k, [rng.randrange(1, k.p) for _ in range(self.COUNTS)], rng.randrange(1, k.p)) for k in primes]

    def _run_pass(self, groups: list, res: Outcome) -> None:
        self.passes += 1
        for k, avals, m in groups:
            got = []
            for a in avals:
                f = cc.RationalMap.x2_plus_a_over_x(a)
                r = self.timed_call(res, cc.vp_brute, f, k.p, cc.Domain.NONZERO)
                got.append(("vp_brute", a, getattr(r, "v", r)))
            got.append(("jacobsthal_brute", m, self.timed_call(res, cc.jacobsthal_brute, m, k.p)))
            with self.quiet():
                self._check(k, got, res)

    @staticmethod
    def _check(k, got: list, res: Outcome) -> None:
        """Against the closed forms, which are checked against (A, B) too."""
        e = Expected(k)
        for kind, x, r in got:
            res.attempted += 1
            if kind == "vp_brute":
                ok = r == cc.vp_closed(x, k.p).v == e.vp(x)[0]
            else:
                ok = r == cc.jacobsthal_closed(x, k.p, cc.represent_a3b(k.p)) == e.jacobsthal(x)
            if not ok:
                res.fail(f"{kind}({x}, p={k.p}) -> {r!r}")

    def timed(self, seconds: float) -> Outcome:
        res, groups = Outcome(), self.first
        for i in range(self.units(seconds)):
            if i:
                groups = self._pass()
            self._run_pass(groups, res)
        res.properties = self.properties(res.attempted)
        return res

    def fixed(self) -> Outcome:
        res = Outcome()
        self._run_pass(self.first, res)
        res.properties = self.properties(res.attempted)
        return res

    def properties(self, counts: int) -> dict:
        per_prime = self.COUNTS + 1
        return {
            "prime_range": [self.LO, self.HI],
            "primes_per_pass": self.STRATA,
            "passes": self.passes,
            "counts_per_prime": {"vp_brute": self.COUNTS, "jacobsthal_brute": 1},
            "cold_table_count_share": (counts // per_prime) / counts if counts else 0.0,
        }

    def working_set_bytes(self) -> int:
        """Modelled: one vp_brute count at the top of the range."""
        return vp_brute_bytes(self.HI - 1, self.HI)


# ---------------------------------------------------------------- sweep


class Sweep(Workload):
    """The paper's verification workflow: every check, every prime <= MAX_P.

    The inputs are fixed by design (the sweep is exhaustive); the seed is
    recorded but changes nothing.  An operation is one checked pair.
    """

    MAX_P = 1200
    JOBS = 2
    CHECKS = tuple(PAIR_RULES)
    SINGLE_CPU = False
    CALIBRATED = False
    UNIT_S = 5.0

    def __init__(self, seed: int):
        self.want = expected_pairs(self.MAX_P, self.CHECKS)
        self.want_primes = sum(1 for p in primes_upto(self.MAX_P) if p >= 5)
        self.reported_pairs: list[int] = []

    def _sweep(self, jobs: int, res: Outcome) -> None:
        want = sum(self.want.values())
        rep = self.timed_call(res, cc.run_sweep, self.MAX_P, list(self.CHECKS), jobs=jobs)
        res.attempted += want
        if isinstance(rep, Exception):
            res.failed += want
            res.notes.append(repr(rep))
            return
        self.reported_pairs.append(rep.pairs_checked)
        failed = len(rep.mismatches) + abs(rep.pairs_checked - want)
        if rep.primes_checked != self.want_primes:
            failed = max(failed, 1)
        res.failed += min(failed, want)
        for row in rep.mismatches[:MAX_FAILURE_NOTES]:
            res.notes.append(row)
        if rep.pairs_checked != want:
            res.notes.append(f"pairs_checked {rep.pairs_checked}, pair rule gives {want}")

    def timed(self, seconds: float) -> Outcome:
        res = Outcome()
        for _ in range(self.units(seconds)):
            self._sweep(self.JOBS, res)
        res.properties = self.properties()
        return res

    def fixed(self, jobs: int = 1) -> Outcome:
        res = Outcome()
        self._sweep(jobs, res)
        res.properties = self.properties()
        return res

    def properties(self) -> dict:
        return {
            "max_p": self.MAX_P,
            "jobs": self.JOBS,
            "primes": self.want_primes,
            "pairs_per_sweep": sum(self.want.values()),
            "pairs_checked_per_sweep_reported": self.reported_pairs,
            "check_mix_pairs": self.want,
        }

    def working_set_bytes(self) -> int:
        """Modelled: one vp_brute count at the largest prime of the sweep."""
        return vp_brute_bytes(self.MAX_P - 1, self.MAX_P)


# ---------------------------------------------------------------- cli


class Cli(Workload):
    """What a shell user waits for: one `python -m cubecount` process per
    operation, over 61-bit primes.  The command is uniform over MIX: a
    synthetic mix, as the repository holds no record of real use.
    """

    POOL = 64
    BITS = 61
    FIXED_OPS = 300
    UNIT_S = 0.25
    MIX = ("eval", "represent", "classify")

    def __init__(self, seed: int):
        import cubecount.cli  # noqa: F401  (the traced run wraps its main)

        self.rng = random.Random(seed)
        self.pool = [Expected(prime_from_rep(self.rng, 1 << (self.BITS - 1), 1 << self.BITS)) for _ in range(self.POOL)]
        self.mix = {c: 0 for c in set(self.MIX)}
        self.first = self._op()

    def _op(self) -> tuple:
        e = self.rng.choice(self.pool)
        cmd = self.rng.choice(self.MIX)
        self.mix[cmd] += 1
        argv = [cmd, "--p", str(e.k.p)]
        a = self.rng.randrange(1, e.k.p)
        if cmd != "represent":
            argv += ["--a", str(a)]
        return e, cmd, a, argv

    @staticmethod
    def library_record(e: Expected, cmd: str, a: int) -> dict | None:
        """The record the CLI prints, from in-process library calls, or None
        when those calls disagree with the benchmark's own derivation."""
        k, p = e.k, e.k.p
        if cmd == "eval":
            bd = cc.vp_closed(a, p)
            ok = (bd.v, bd.path_case) == e.vp(a) and (bd.A, bd.B) == (k.A, k.B)
            rec = {"p": p, "a_reduced": a, "v_closed": bd.v, "case": bd.path_case, "A": bd.A, "B": bd.B}
        elif cmd == "represent":
            quad, eis = cc.represent_a3b(p), cc.represent_l27m(p)
            ok = (quad.A, quad.B) == (k.A, k.B) and e.is_eis_rep(eis.L, eis.M)
            rec = {"p": p, "A": quad.A, "B": quad.B, "L": eis.L, "M": eis.M}
        else:
            tag = cc.cubic_class(a, p, cc.represent_a3b(p)).name
            cube = cc.is_cubic_residue(a, p)
            ok = tag.lower() == e.cls(a) and cube == (e.cls(a) == "unit")
            rec = {"p": p, "a": a, "class": tag, "is_cubic_residue": cube}
        return rec if ok else None

    def _run_op(self, op: tuple, res: Outcome) -> None:
        e, cmd, a, argv = op
        proc = self.timed_call(
            res, subprocess.run, [sys.executable, "-m", "cubecount", *argv], capture_output=True, text=True, timeout=60
        )
        res.attempted += 1
        if getattr(proc, "returncode", None) != 0:
            res.fail(f"{argv}: {proc!r}")
            return
        got = _json_or_none(proc.stdout)
        with self.quiet():
            want = self.library_record(e, cmd, a)
        if want is None or got != want:
            res.fail(f"{argv}: printed {proc.stdout.strip()!r}, library {want!r}")

    def timed(self, seconds: float) -> Outcome:
        res, op = Outcome(), self.first
        for i in range(self.units(seconds)):
            if i:
                op = self._op()
            self._run_op(op, res)
        res.properties = self.properties()
        return res

    def fixed(self) -> Outcome:
        """In-process `cubecount.cli.main` calls, stdout captured."""
        import contextlib
        import io

        res, op = Outcome(), self.first
        for i in range(self.FIXED_OPS):
            e, cmd, a, argv = op
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.timed_call(res, cc.cli.main, argv)
            res.attempted += 1
            with self.quiet():
                want = self.library_record(e, cmd, a)
            if code != 0 or want is None or _json_or_none(buf.getvalue()) != want:
                res.fail(f"{argv}: {code!r} {buf.getvalue()!r}")
            if i + 1 < self.FIXED_OPS:
                op = self._op()
        res.properties = self.properties()
        return res

    def fresh_process_metrics(self, runs: int = 7) -> dict:
        """`import cubecount` in a fresh process, minus a bare interpreter
        (medians of `runs` alternating pairs, scaled times), and whether
        `eval` run as `python -m cubecount` imports numpy (1) or not (0)."""
        def wall(code: str) -> float:
            with Section() as sec:
                subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
            return sec.raw_ns * sec.scale / 1e9

        bare, full = [], []
        for _ in range(runs):
            bare.append(wall("pass"))
            full.append(wall("import cubecount"))
        e, _, a, argv = self.first
        probe = (
            "import runpy, sys\n"
            f"sys.argv = ['cubecount', 'eval', '--p', '{e.k.p}', '--a', '{a}']\n"
            "try:\n    runpy.run_module('cubecount', run_name='__main__')\n"
            "except SystemExit:\n    pass\n"
            "sys.stderr.write('NUMPY=%d' % ('numpy' in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
        return {
            "import_s": statistics.median(full) - statistics.median(bare),
            "eval_imports_numpy": int("NUMPY=1" in proc.stderr),
        }

    def properties(self) -> dict:
        return {"prime_pool": self.POOL, "prime_bits": self.BITS, "command_mix": dict(sorted(self.mix.items()))}

    def working_set_bytes(self) -> int:
        return prime_state_bytes()


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


WORKLOADS = {"sweep": Sweep, "oracle": Oracle, "closed": Closed, "cli": Cli}

