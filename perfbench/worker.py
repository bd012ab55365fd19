"""One workload process.  Started by run.py; not meant to be run by hand.

    worker.py --workload NAME --seed N --mode setup|timed|fixed|traced
              [--seconds S] [--jobs J] [--out STEM]

It imports cubecount and makes its inputs (set-up), prints READY, and then,
except in `setup` mode, runs the workload and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kib = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    wl.pin()
    extra = {}
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        wl.quiet = tracer.paused
    t0 = perf_counter()
    if args.mode == "timed":
        res = wl.timed(args.seconds)
    elif args.workload == "sweep":
        res = wl.fixed(args.jobs)
    else:
        res = wl.fixed()
    wall = perf_counter() - t0
    rss = peak_rss_mb()
    if tracer is not None:
        from tracer import save, summary_table

        summary = tracer.summarize()
        if args.workload == "cli":
            extra.update(wl.fresh_process_metrics())
        save(Path(args.out), tracer, summary, extra)
        extra["summary"] = summary
        extra["table"] = summary_table(summary)
    print(
        json.dumps(
            {
                **res.to_json(),
                **extra,
                "wall_s": wall,
                "peak_rss_mb": rss,
                "working_set_bytes": wl.working_set_bytes(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
