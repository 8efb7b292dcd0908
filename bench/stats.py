"""Order statistics and span arithmetic used by the benchmark."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail_rank(n: int) -> int:
    """0-based rank (ascending) of the tail sample among n > TAIL_BEYOND samples.

    p90 by the nearest-rank rule once n >= 100; below that, the highest
    rank that still has TAIL_BEYOND samples after it.
    """
    return min(math.ceil(0.9 * n) - 1, n - 1 - TAIL_BEYOND)


def tail_percentile(values):
    """(percentile label, value) of a run's tail sample; see tail_rank.

    With TAIL_BEYOND or fewer samples no rank has that many beyond it; the
    median is returned instead, labelled 50.
    """
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return 50, statistics.median(s)
    r = tail_rank(len(s))
    return math.floor(100 * (r + 1) / len(s)), s[r]


def self_times(parent, start, end):
    """Self time of each span: its duration minus its direct children's.

    Spans are given as parallel sequences; parent[i] is the index of the
    enclosing span or -1.  Times are integer nanoseconds, so the
    subtraction is exact and never negative for properly nested spans.
    """
    dur = [e - s for s, e in zip(start, end)]
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    return [d - c for d, c in zip(dur, child)]


def per_name(names, name_id, parent, start, end):
    """{span name: (calls, self seconds)} aggregated over all spans."""
    selfs = self_times(parent, start, end)
    calls = [0] * len(names)
    total = [0] * len(names)
    for i, k in enumerate(name_id):
        calls[k] += 1
        total[k] += selfs[i]
    return {names[k]: (calls[k], total[k] / 1e9) for k in range(len(names))}


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)
