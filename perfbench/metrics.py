"""The benchmark's arithmetic: percentiles, spreads, verdicts, span self
time and the worker-pool derivations.  Pure functions, tested in
``perfbench/tests``."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

#: A tail percentile needs at least this many samples above it.
TAIL_BEYOND = 10


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[int, float] | None:
    """The highest whole percentile with at least ``beyond`` samples
    strictly above its value, as ``(q, value)``; None when no percentile
    has that many (fewer than ``beyond + 1`` samples)."""
    if len(samples) <= beyond:
        return None
    for q in range(99, 0, -1):
        value = percentile(samples, q)
        if sum(1 for s in samples if s > value) >= beyond:
            return q, value
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    """Compare two sets of runs of one metric.

    * ``unresolved`` — either side's spread exceeds ``bound`` and the sets
      overlap (no run of ``new`` beats every run of ``base`` or the reverse);
    * ``worse`` — the median moved the bad way by more than ``bound``;
    * ``better`` — the median moved the good way by more than ``base``'s
      own spread;
    * ``same`` — anything else.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (statistics.median(new) - statistics.median(base)) / statistics.median(base)
    if max(spread(base), spread(new)) > bound:
        if all(sign * n < min(sign * b for b in base) for n in new):
            return "better"
        if all(sign * n > max(sign * b for b in base) for n in new):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(base):
        return "better"
    return "same"


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[tuple]) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, span id)``: its duration
    minus the part of it that its child spans cover."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for pid, _tid, _sid, parent, _name, start, end, _work in spans:
        if parent:
            children[(pid, parent)].append((start, end))
    return {
        (pid, sid): (end - start) - covered(children.get((pid, sid), []), start, end)
        for pid, _tid, sid, _parent, _name, start, end, _work in spans
    }


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``total`` (outermost spans of that name only, so a
    recursive call is not counted twice), ``self``, ``calls`` and ``work``
    (summed over outermost spans)."""
    by_key = {(s[0], s[2]): s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "calls": 0, "work": 0}
    )
    for span in spans:
        pid, _tid, sid, parent, name, start, end, work = span
        entry = out[name]
        entry["self"] += selfs[(pid, sid)]
        ancestor = by_key.get((pid, parent))
        while ancestor is not None and ancestor[4] != name:
            ancestor = by_key.get((pid, ancestor[3]))
        if ancestor is None:
            entry["total"] += end - start
            entry["calls"] += 1
            entry["work"] += work
    return dict(out)


def pool_derivations(
    batch_s: float,
    workers: int,
    busy_s: dict[str, float],
    items: dict[str, float],
    dispatched: float,
) -> dict[str, float]:
    """Worker-pool figures from the master's registry.

    ``busy_s``/``items`` are per worker id.  Idle time is what the pool
    could have worked while the master waited in batches but did not;
    dispatch overhead is the batch wall time the busiest worker does not
    explain.
    """
    capacity = workers * batch_s
    busy = sum(busy_s.values())
    return {
        "worker_busy_s": busy,
        "worker_idle_s": max(0.0, capacity - busy),
        "worker_util": busy / capacity if capacity > 0 else 0.0,
        "max_worker_share": max(items.values()) / dispatched if items and dispatched else 0.0,
        "dispatch_overhead_s": max(0.0, batch_s - max(busy_s.values(), default=0.0)),
    }
