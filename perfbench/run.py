"""The cubecount benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep|oracle|closed|cli \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree (it imports the package from src/).
Every workload runs in fresh worker processes started from the seed.

--trace 0 measures set-up in 2 * SETUP_RUNS fresh processes, around one
that runs the workload untraced for at least S seconds of timed work, and
reports the end-to-end metrics.  The times of interpreter-bound work
(set-up everywhere, all of `closed` and `cli`) are scaled to a reference
machine speed by a probe run next to them (calibrate.py); the raw times
are in the record.  --trace 1 runs a fixed amount of the workload twice,
untraced and then traced, in two fresh processes, and reports the per-layer
metrics; spans and a per-module table go to perfbench/out/.

Every output is checked.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
full record (machine, inputs, sample counts).  Exit status: 0 when every
operation passed its check, 1 when some failed, 2 when no result could be
measured (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import machine
from calibrate import REF_NS, probe_ns
from inputs import expected_pairs
from tracer import SWEEP_CHECKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5
RSS_INTERVAL_S = 0.1
SWEEP_BASELINE_ORDER = ("theorem21", "cor21", "lemma23", "lemma22", "vonsterneck")


class BenchError(Exception):
    pass


def tree_rss_bytes(root: int) -> int:
    """Sum of VmRSS over process `root` and all its descendants (read from /proc).

    Pages that forked children share with their parent count in each, as
    RSS counts them.
    """
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(d))
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        todo += children.get(pid, [])
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            pass
    return total


class TreeRss(threading.Thread):
    """Samples tree_rss_bytes(pid) every RSS_INTERVAL_S until stopped."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid, self.peak, self.samples = pid, 0, 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while True:
            self.peak = max(self.peak, tree_rss_bytes(self.pid))
            self.samples += 1
            if self._stop_event.wait(RSS_INTERVAL_S):
                return

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def run_worker(env: dict, argv: list[str], deadline: float, cpus=None, sample_rss=False):
    """Start worker.py and wait for it to end.

    Returns the seconds until it printed READY, the scale of that time to
    the reference machine (probed on `cpus` before and after, or 1.0 when
    `cpus` is None), the worker's result, and, with `sample_rss`, the peak
    sampled RSS of the worker's process tree in bytes (else 0).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    q0 = probe_ns(cpus) if cpus is not None else None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    rss = TreeRss(proc.pid) if sample_rss else None
    if rss is not None:
        rss.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        if rss is not None:
            rss.stop()
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {argv} exited with {proc.returncode}")
    scale = 2 * REF_NS / (q0 + probe_ns(cpus)) if cpus is not None else 1.0
    lines = rest.strip().splitlines()
    return ready, scale, json.loads(lines[-1]) if lines else None, rss.peak if rss is not None else 0


def end_to_end(args, env: dict, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # Set-up is sampled before and after the timed run, so that the samples
    # span the run's machine conditions.
    cpus = tuple(sorted(os.sched_getaffinity(0)))
    raw_setups = [run_worker(env, common + ["--mode", "setup"], deadline, cpus) for _ in range(SETUP_RUNS)]
    timed_argv = common + ["--mode", "timed", "--seconds", str(args.seconds)]
    _, _, res, tree_peak = run_worker(env, timed_argv, deadline, sample_rss=True)
    raw_setups += [run_worker(env, common + ["--mode", "setup"], deadline, cpus) for _ in range(SETUP_RUNS)]
    setups = [ready * scale for ready, scale, _, _ in raw_setups]
    tail = res["latency_tail"]
    # The kernel's exact peaks (the worker's own, plus its largest child's)
    # bound the tree's peak from below; sampling catches concurrent children.
    peak_rss_mb = max(res["peak_rss_mb"], tree_peak / 1e6)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["attempted"] / res["timed_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_tail_ms": tail["ms"],
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "attempted": res["attempted"],
        "failed": res["failed"],
        "timed_s": res["timed_s"],
        "setup_samples_s": setups,
        "raw_setup_samples_s": [ready for ready, _, _, _ in raw_setups],
        "latency_samples": tail["samples"],
        "latency_tail": tail,
        "raw": {
            "timed_s": res["raw_timed_s"],
            "ops_per_s": res["attempted"] / res["raw_timed_s"],
            "latency_p50_ms": res["raw_latency_p50_ms"],
            "latency_tail_ms": res["raw_latency_tail_ms"],
            "setup_s": statistics.median(ready for ready, _, _, _ in raw_setups),
        },
        "peak_rss": {
            "self_plus_largest_child_mb": res["peak_rss_mb"],
            "sampled_tree_mb": tree_peak / 1e6,
            "interval_s": RSS_INTERVAL_S,
        },
        "working_set_bytes": res["working_set_bytes"],
        "properties": res["properties"],
        "failure_notes": res["failure_notes"],
    }
    return values, detail


def _span(spans: dict, name: str, key: str) -> float:
    return spans.get(name, {}).get(key, 0)


def per_layer(args, env: dict, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    runs = {"untraced": run_worker(env, common + ["--mode", "fixed"], deadline)[2]}
    if args.workload == "sweep":
        runs["parallel"] = run_worker(env, common + ["--mode", "fixed", "--jobs", "2"], deadline)[2]
    runs["traced"] = run_worker(env, common + ["--mode", "traced", "--out", str(stem)], deadline)[2]
    traced, summary = runs["traced"], runs["traced"]["summary"]
    spans = summary["spans"]

    values = {}
    for span in (
        "modarith.Prime",
        "modarith.sqrt_mod",
        "quadform.represent_a3b",
        "quadform.class_value_targets",
        "cubicres.cubic_class",
        "cubicres.count_t_preimages",
        "closedform.vp_closed",
        "closedform.vp_2a",
        "closedform.vp_half_x2",
        "closedform.jacobsthal_closed",
        "closedform.jacobi_check",
        "oracle.vp_brute",
        "oracle.jacobsthal_brute",
        "_tables.inv_table",
        "_tables.qr_table",
        "_tables.cubes_nonzero",
    ):
        # Metric names may not start with "_", so _tables reports as "tables".
        metric = span.lstrip("_")
        values[f"{metric}.calls"] = _span(spans, span, "calls")
        values[f"{metric}.self_s"] = _span(spans, span, "self_s")
    for table in ("inv_table", "qr_table", "cubes_nonzero"):
        values[f"tables.{table}.builds"] = summary["tables_cache"].get(table, {}).get("builds", 0)
    values["quadform.represent_l27m.self_s"] = _span(spans, "quadform.represent_l27m", "self_s")
    values["quadform.rep_cache.hit_ratio"] = summary["rep_cache_hit_ratio"]
    residues, brute_s = summary["vp_brute_residues"], _span(spans, "oracle.vp_brute", "incl_s")
    values["oracle.vp_brute.residues"] = residues
    values["oracle.vp_brute.residues_per_s"] = residues / brute_s if brute_s else 0.0
    values["oracle.vp_brute.computed_bytes"] = summary["vp_brute_peak_alloc_bytes"]
    values["tables.cache.hit_ratio"] = summary["tables_cache_hit_ratio"]
    values["tables.retained_bytes"] = summary["tables_retained_peak_bytes"]
    check_s = {c: _span(spans, f"sweep.{c}", "incl_s") for c in SWEEP_CHECKS}
    for c in SWEEP_CHECKS:
        values[f"sweep.{c}.s"] = check_s[c]
        values[f"sweep.{c}.pairs"] = summary["check_pairs"][c]
    par = runs.get("parallel")
    values["sweep.parallel_efficiency"] = runs["untraced"]["timed_s"] / (2 * par["timed_s"]) if par else 0.0
    values["cli.import_s"] = traced.get("import_s", 0.0)
    values["cli.main.self_s"] = _span(spans, "cli.main", "self_s")
    values["cli.eval_imports_numpy"] = traced.get("eval_imports_numpy", 0)
    values["trace.overhead_frac"] = traced["timed_s"] / runs["untraced"]["timed_s"] - 1

    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    notes = [n for r in runs.values() for n in r["failure_notes"]]
    detail = {
        "runs": {k: {x: r[x] for x in ("attempted", "failed", "timed_s", "wall_s", "properties")} for k, r in runs.items()},
        "span_count": summary["span_count"],
        "closed_form_calls": summary["closed_form_calls"],
        "closed_form_calls_with_descent": summary["closed_form_calls_with_descent"],
        "tables_cache": summary["tables_cache"],
        "tables_lookups": summary["tables_lookups"],
        "working_set_bytes": traced["working_set_bytes"],
        "spans_file": str(stem.with_suffix(".spans.npz").relative_to(ROOT)),
        "summary_file": str(stem.with_suffix(".md").relative_to(ROOT)),
        "failure_notes": notes,
    }
    if args.workload == "sweep":
        # The traced sweep must have tested, check by check, what the pair rule says.
        want = expected_pairs(runs["traced"]["properties"]["max_p"], SWEEP_CHECKS)
        off = sum(abs(summary["check_pairs"][c] - want[c]) for c in SWEEP_CHECKS)
        failed += off
        if off:
            notes.append(f"per-check pairs {summary['check_pairs']}, pair rule gives {want}")
        total = sum(check_s.values())
        detail["check_split"] = {c: check_s[c] / total for c in SWEEP_CHECKS} if total else {}
        order = [check_s[c] for c in SWEEP_BASELINE_ORDER]
        detail["baseline_order_holds"] = all(x > y for x, y in zip(order, order[1:]))
        detail["theorem21_plus_cor21_share"] = (check_s["theorem21"] + check_s["cor21"]) / total if total else 0.0
    ratios = {k: v for k, v in values.items() if k.endswith(("hit_ratio", "_frac", "efficiency", "per_s"))}
    text = "\n".join(
        [
            f"# Traced run: {args.workload}, seed {args.seed}",
            "",
            traced["table"],
            "",
            "| ratio | value |",
            "| --- | ---: |",
            *(f"| {k} | {v:.4f} |" for k, v in ratios.items()),
            "",
            *(f"- {k}: {detail[k]}" for k in ("check_split", "baseline_order_holds", "theorem21_plus_cor21_share") if k in detail),
        ]
    )
    stem.with_suffix(".md").write_text(text + "\n")
    print(text, file=sys.stderr)
    detail["attempted"], detail["failed"] = attempted, min(failed, attempted)
    return values, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "oracle", "closed", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Past this the run stops with status 2: 4 * S + 60 s covers the timed
    # run, which is sized to take about S seconds, set-up and checks.
    deadline = time.monotonic() + 4 * args.seconds + 60

    if not (ROOT / "src" / "cubecount" / "__init__.py").is_file():
        print(f"error: no cubecount sources under {ROOT / 'src'}; run from a source tree", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    OUT.mkdir(exist_ok=True)

    try:
        values, detail = (per_layer if args.trace else end_to_end)(args, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 2

    attempted, failed = detail["attempted"], detail["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.describe(ROOT),
        "failed_frac": failed / attempted if attempted else 1.0,
        **detail,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    correct = failed == 0 and attempted > 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
