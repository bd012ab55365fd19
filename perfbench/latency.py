"""Latency record with fixed memory, and the tail rule.

Latencies are kept in logarithmic buckets 0.1% wide, each with the count
and sum of its values, so a run that completes more operations does not
hold more memory (which would show up in peak RSS).  A quantile is by
nearest rank and reads the mean of the values in its bucket: exact when
the bucket holds one value, and within 0.1% otherwise.
"""

from __future__ import annotations

from math import ceil, log

_SCALE = 1000.0  # buckets per factor e
TAIL_CAP = 0.999  # the tail is never read above p99.9
TAIL_BEYOND = 10  # samples that must lie beyond the tail


class Latencies:
    def __init__(self):
        self.buckets: dict[int, list] = {}  # bucket -> [count, sum]
        self.n = 0

    def add_ns(self, values) -> None:
        b = self.buckets
        for v in values:
            k = int(log(v if v > 1 else 1) * _SCALE)
            if k in b:
                b[k][0] += 1
                b[k][1] += v
            else:
                b[k] = [1, v]
            self.n += 1

    def _at_rank(self, rank: int) -> float:
        """The value (ns) with `rank` smaller values, 0-based."""
        seen = 0
        for k in sorted(self.buckets):
            count, total = self.buckets[k]
            seen += count
            if seen > rank:
                return total / count
        raise IndexError(rank)

    def median_ms(self) -> float:
        return self._at_rank((self.n - 1) // 2) / 1e6

    def tail(self) -> dict:
        """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

        The percentile is capped at p99.9.  Below 2 * TAIL_BEYOND + 1 samples
        that percentile would not lie above the median, so the maximum is
        reported instead, with the number of samples beyond it (0).
        """
        n = self.n
        if n <= 2 * TAIL_BEYOND:
            rank = n - 1
        else:
            rank = min(n - 1 - TAIL_BEYOND, ceil(TAIL_CAP * n) - 1)
        return {
            "ms": self._at_rank(rank) / 1e6,
            "percentile": 100.0 * (rank + 1) / n,
            "beyond": n - 1 - rank,
            "samples": n,
        }
