"""Spans around the public functions of every cubecount module.

The traced run wraps each function where its callers look it up: every
module of the package that holds the function under some name gets the
wrapper instead, and the values of the sweep's CHECKS registry are wrapped
in place.  No file of the package changes.

A span records its name, start, end and parent.  Spans stay in memory, in
flat integer arrays, and are written out when the run ends.  A span's self
time is its duration minus the durations of its direct children; the
program is single-threaded while traced, so children never overlap.

The first vp_brute call on each prime also runs under tracemalloc, which
numpy reports its array allocations to: the peak of what the call
allocates, tables built for it included, is measured rather than derived
from the array shapes, so a memory change in vp_brute moves it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import tracemalloc
from array import array
from collections import OrderedDict
from pathlib import Path
from time import perf_counter_ns

from inputs import PAIR_RULES

#: Functions traced, by module.  A name the package no longer has is skipped.
LAYERS = {
    "modarith": ("Prime", "sqrt_mod"),
    "quadform": ("represent_a3b", "represent_l27m", "class_value_targets"),
    "cubicres": ("cubic_class", "count_t_preimages"),
    "closedform": ("vp_closed", "vp_2a", "vp_half_x2", "jacobsthal_closed", "jacobi_check"),
    "oracle": ("vp_brute", "jacobsthal_brute"),
    "_tables": ("xs_all", "xs_nonzero", "inv_table", "qr_table", "cubes_nonzero"),
    "sweep": ("run_sweep",),
    "cli": ("main",),
}
CLOSED_FORM = ("closedform.vp_closed", "closedform.vp_2a", "closedform.vp_half_x2", "closedform.jacobsthal_closed")
SWEEP_CHECKS = tuple(PAIR_RULES)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self._stack = [-1]
        self._on = [True]
        # Counts taken at the boundaries.
        self.residues = 0
        self.vp_brute_peak_bytes = 0
        self._vp_brute_measured: set = set()
        self.check_pairs = {c: 0 for c in SWEEP_CHECKS}
        self._lru: dict[str, OrderedDict] = {}
        self._lru_size: dict[str, int] = {}
        self._retained = 0
        self.retained_peak = 0
        self._table_fns: dict[str, object] = {}
        self._cache_before: dict[str, tuple[int, int]] = {}

    def wrap(self, span: str, fn, hook=None):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        start, end, parent, name, stack, on = self.start, self.end, self.parent, self.name, self._stack, self._on

        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            sid = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn, updated=())

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: the benchmark's own checks call the package too."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    # -- hooks: counts at the boundaries ---------------------------------

    def _vp_brute_hook(self, args, kwargs, result):
        p = args[1] if len(args) > 1 else kwargs["p"]
        domain = args[2] if len(args) > 2 else kwargs["domain"]
        self.residues += p - 1 if getattr(domain, "value", domain) == "nonzero" else p

    def _measure_allocations(self, fn):
        """fn, with its first call per prime run under tracemalloc."""
        on, measured = self._on, self._vp_brute_measured

        def measuring(*args, **kwargs):
            p = args[1] if len(args) > 1 else kwargs.get("p")
            if not on[0] or p in measured or tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            measured.add(p)
            tracemalloc.start(1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.vp_brute_peak_bytes = max(self.vp_brute_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return functools.update_wrapper(measuring, fn, updated=())

    def _table_hook(self, table):
        lru = self._lru.setdefault(table, OrderedDict())

        def hook(args, kwargs, result):
            p = int(args[0] if args else kwargs["p"])
            if p in lru:
                lru.move_to_end(p)
                return
            lru[p] = result.nbytes
            self._retained += result.nbytes
            if len(lru) > self._lru_size[table]:
                self._retained -= lru.popitem(last=False)[1]
            self.retained_peak = max(self.retained_peak, self._retained)

        return hook

    def _check_hook(self, check):
        def hook(args, kwargs, result):
            self.check_pairs[check] += result[0]

        return hook

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function of the imported cubecount package."""
        mods = [m for n, m in list(sys.modules.items()) if n == "cubecount" or n.startswith("cubecount.")]
        for module, fns in LAYERS.items():
            mod = sys.modules.get(f"cubecount.{module}")
            for fn_name in fns:
                orig = getattr(mod, fn_name, None)
                if orig is None:
                    continue
                span = f"{module}.{fn_name}"
                hook = None
                if span == "oracle.vp_brute":
                    hook = self._vp_brute_hook
                elif module == "_tables":
                    self._table_fns[fn_name] = orig
                    self._lru_size[fn_name] = orig.cache_parameters()["maxsize"] or float("inf")
                    info = orig.cache_info()
                    self._cache_before[fn_name] = (info.hits, info.misses)
                    hook = self._table_hook(fn_name)
                wrapped = self.wrap(span, orig, hook)
                if span == "oracle.vp_brute":
                    wrapped = self._measure_allocations(wrapped)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
        checks = getattr(sys.modules.get("cubecount.sweep"), "CHECKS", {})
        for check, fn in list(checks.items()):
            hook = self._check_hook(check) if check in self.check_pairs else None
            checks[check] = self.wrap(f"sweep.{check}", fn, hook)

    def cache_deltas(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each _tables cache since install()."""
        out = {}
        for fn_name, fn in self._table_fns.items():
            info = fn.cache_info()
            h0, m0 = self._cache_before[fn_name]
            out[fn_name] = (info.hits - h0, info.misses - m0)
        return out

    # -- summary ---------------------------------------------------------

    def summarize(self) -> dict:
        """Per-span calls, self and inclusive seconds, and the layer ratios."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        k = len(self.names)
        dur = (end - start).astype(np.float64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_t, minlength=k) / 1e9
        incl_s = np.bincount(name, weights=dur, minlength=k) / 1e9
        spans = {
            self.names[i]: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i in range(k)
        }

        # Closed-form calls that had to run the descent for (A, B).
        cf_ids = {self._ids[s] for s in CLOSED_FORM if s in self._ids}
        cf_calls = sum(spans[s]["calls"] for s in CLOSED_FORM if s in spans)
        missed = set()
        rep_id = self._ids.get("quadform.represent_a3b")
        if rep_id is not None:
            for i in np.flatnonzero(name == rep_id):
                j = parent[i]
                while j >= 0:
                    if name[j] in cf_ids:
                        missed.add(int(j))
                    j = parent[j]
        cache = self.cache_deltas()
        hits = sum(h for h, _ in cache.values())
        lookups = sum(h + m for h, m in cache.values())
        return {
            "spans": spans,
            "span_count": int(len(dur)),
            "closed_form_calls": cf_calls,
            "closed_form_calls_with_descent": len(missed),
            "rep_cache_hit_ratio": (cf_calls - len(missed)) / cf_calls if cf_calls else 0.0,
            "tables_cache": {t: {"hits": h, "builds": m} for t, (h, m) in cache.items()},
            "tables_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "tables_lookups": lookups,
            "tables_retained_peak_bytes": self.retained_peak,
            "vp_brute_residues": self.residues,
            "vp_brute_peak_alloc_bytes": self.vp_brute_peak_bytes,
            "check_pairs": dict(self.check_pairs),
        }

    def write_spans(self, path: Path) -> None:
        """All spans as an .npz of int64 columns plus the span names."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def summary_table(summary: dict) -> str:
    """Markdown: calls, self and inclusive time per span, grouped by module."""
    spans = summary["spans"]
    total_self = sum(s["self_s"] for s in spans.values()) or 1.0
    rows = ["| span | calls | self s | incl s | share of self |", "| --- | ---: | ---: | ---: | ---: |"]
    by_module: dict[str, list[str]] = {}
    for span in spans:
        by_module.setdefault(span.split(".")[0], []).append(span)
    for module in sorted(by_module):
        m_calls = m_self = 0
        for span in sorted(by_module[module]):
            s = spans[span]
            m_calls += s["calls"]
            m_self += s["self_s"]
            rows.append(
                f"| {span} | {s['calls']} | {s['self_s']:.4f} | {s['incl_s']:.4f} | {s['self_s'] / total_self:.1%} |"
            )
        rows.append(f"| **{module}** | {m_calls} | {m_self:.4f} | | {m_self / total_self:.1%} |")
    return "\n".join(rows)


def save(path_stem: Path, tracer: Tracer, summary: dict, extra: dict) -> None:
    path_stem.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(path_stem.with_suffix(".spans.npz"))
    path_stem.with_suffix(".json").write_text(json.dumps({**summary, **extra}, indent=1) + "\n")
