"""Per-layer metrics of a traced run.

Times come from the benchmark's spans (:mod:`perfbench.tracing`), counts
from the registries the program already keeps.  Time metrics are given
per evaluated candidate (``ms/cand``) so that two commits, whose fixed
windows score different numbers of candidates, compare like for like.
Layers that a workload may bypass (pool, fabric, service, checkpoint)
are given as shares or counts, which read 0 when the layer is unused.
"""

from __future__ import annotations

import statistics

from perfbench.metrics import layer_totals, pool_derivations

#: (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = (
    ("ga.next_generation_ms", "ms/cand", "lower"),
    ("ga.evaluate_ms", "ms/cand", "lower"),
    ("ga.evaluations", "count", "higher"),
    ("provider.score_ms", "ms/cand", "lower"),
    ("provider.self_ms", "ms/cand", "lower"),
    ("provider.cache.hit_ratio", "ratio", "higher"),
    ("delta.similarity_ms", "ms/cand", "lower"),
    ("delta.rows_rescored_ratio", "ratio", "lower"),
    ("delta.fallback_ratio", "ratio", "lower"),
    ("kernel.sweep_ms", "ms/cand", "lower"),
    ("kernel.rows_per_cand", "rows/cand", "lower"),
    ("kernel.pairs_per_s", "1/s", "higher"),
    ("database.update_similarity_ms", "ms/cand", "lower"),
    ("database.precompute_s", "s", "lower"),
    ("pipe.score_against_ms", "ms/cand", "lower"),
    ("pipe.evaluations", "count", "higher"),
    ("parallel.spawn_frac", "ratio", "lower"),
    ("parallel.batch_frac", "ratio", "lower"),
    ("parallel.worker_util", "ratio", "higher"),
    ("parallel.max_worker_share", "ratio", "lower"),
    ("parallel.dispatch_overhead_frac", "ratio", "lower"),
    ("parallel.retries", "count", "lower"),
    ("parallel.degraded_items", "count", "lower"),
    ("fabric.score_frac", "ratio", "lower"),
    ("fabric.mean_fused_size", "count", "higher"),
    ("fabric.clients_per_batch", "ratio", "higher"),
    ("service.queue_wait_frac", "ratio", "lower"),
    ("checkpoint.save_frac", "ratio", "lower"),
    ("checkpoint.writes", "count", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    record,
    spans: list[tuple],
    *,
    setup_spans: list[tuple],
    setups: int,
    setup_s: float,
    spawn_s: float,
    proteome_windows: int,
    span_cost_s: float,
) -> tuple[dict[str, float], list[tuple[str, str, str]]]:
    """The traced run's per-layer metrics and the report lines behind them.

    Returns ``(values, lines)``: ``values`` maps every :data:`PER_LAYER`
    name to a number; ``lines`` are ``(name, value text, note)`` rows for
    the printed report, including the seconds totals behind the figures.
    """
    window = [s for s in spans if record.start <= s[5] < record.end]
    totals = layer_totals(window)
    c = record.counters
    cands = max(record.candidates, 1)
    wall = record.wall_s

    def total(name: str, key: str = "total") -> float:
        return totals.get(name, {}).get(key, 0.0)

    def per_cand_ms(seconds: float) -> float:
        return 1000.0 * seconds / cands

    hits = c.get("provider.cache.hits", 0.0) + c.get("job.provider.cache.hits", 0.0)
    misses = c.get("provider.cache.misses", 0.0) + c.get("job.provider.cache.misses", 0.0)
    workers = int(record.gauges.get("parallel.pool_size", 0))
    busy = {
        k.split(".")[2]: v for k, v in c.items()
        if k.startswith("parallel.worker.") and k.endswith(".busy.total_s")
    }
    items = {
        k.split(".")[2]: v for k, v in c.items()
        if k.startswith("parallel.worker.") and k.endswith(".items")
    }
    batch_s = c.get("parallel.batch.total_s", 0.0)
    pool = pool_derivations(batch_s, workers, busy, items, c.get("parallel.dispatched", 0.0))
    fused = c.get("fabric.fused_batches", 0.0)
    campaign_s = total("ga.run")
    rows = total("kernel.sweep", "work")
    sweep_s = total("kernel.sweep")
    per_pid: dict[int, int] = {}
    for span in window:
        per_pid[span[0]] = per_pid.get(span[0], 0) + 1
    precompute = layer_totals(setup_spans).get("database.precompute", {}).get("total", 0.0)
    queue_wait = sum(q for q, _ in record.job_phases)
    save_s = c.get("job.checkpoint.save.total_s", 0.0)

    values = {
        "ga.next_generation_ms": per_cand_ms(total("ga.next_generation")),
        "ga.evaluate_ms": per_cand_ms(total("ga.evaluate")),
        "ga.evaluations": record.candidates,
        "provider.score_ms": per_cand_ms(total("provider.score")),
        "provider.self_ms": per_cand_ms(total("provider.score", "self")),
        "provider.cache.hit_ratio": _ratio(hits, hits + misses),
        "delta.similarity_ms": per_cand_ms(total("delta.similarity")),
        "delta.rows_rescored_ratio": _ratio(
            c.get("pipe.delta.rows_rescored", 0.0), c.get("pipe.delta.rows_total", 0.0)
        ),
        "delta.fallback_ratio": _ratio(
            c.get("pipe.delta.fallbacks", 0.0),
            c.get("pipe.delta.hits", 0.0) + c.get("pipe.delta.fallbacks", 0.0),
        ),
        "kernel.sweep_ms": per_cand_ms(sweep_s),
        "kernel.rows_per_cand": rows / cands,
        "kernel.pairs_per_s": _ratio(rows * proteome_windows, sweep_s),
        "database.update_similarity_ms": per_cand_ms(total("database.update_similarity")),
        "database.precompute_s": precompute / max(setups, 1),
        "pipe.score_against_ms": per_cand_ms(total("pipe.score_against")),
        "pipe.evaluations": total("pipe.score_against", "work"),
        "parallel.spawn_frac": _ratio(spawn_s, setup_s),
        "parallel.batch_frac": _ratio(batch_s, wall),
        "parallel.worker_util": pool["worker_util"],
        "parallel.max_worker_share": pool["max_worker_share"],
        "parallel.dispatch_overhead_frac": _ratio(pool["dispatch_overhead_s"], batch_s),
        "parallel.retries": c.get("parallel.retries", 0.0),
        "parallel.degraded_items": c.get("parallel.degraded_items", 0.0),
        "fabric.score_frac": _ratio(total("fabric.score"), campaign_s),
        "fabric.mean_fused_size": _ratio(c.get("fabric.fused_items", 0.0), fused),
        "fabric.clients_per_batch": _ratio(total("fabric.wait", "calls"), fused),
        "service.queue_wait_frac": _ratio(queue_wait, sum(q + r for q, r in record.job_phases)),
        "checkpoint.save_frac": _ratio(save_s, campaign_s),
        "checkpoint.writes": c.get("job.checkpoint.writes", 0.0),
        "checkpoint.bytes": c.get("job.checkpoint.bytes", 0.0),
        "trace.overhead_frac": _ratio(max(per_pid.values(), default=0) * span_cost_s, wall),
        "trace.unattributed_frac": _ratio(total("ga.run", "self"), campaign_s),
    }

    in_workers = len(per_pid) > 1
    no_pool = "n/a: no worker pool in this workload"
    no_fabric = "n/a: no fabric in this workload"
    no_jobs = "n/a: no service jobs in this workload"
    where = f"summed over {len(per_pid)} processes" if in_workers else "benchmark process"
    if workers and not in_workers:
        where = "not measured: no worker spans were written"

    def secs(value: float) -> str:
        return f"{value:.4f} s"

    lines = [
        ("ga.next_generation_s", secs(total("ga.next_generation")), ""),
        ("ga.evaluate_s", secs(total("ga.evaluate")), ""),
        ("ga.evaluations", f"{record.candidates}", "count"),
        ("provider.score_s", secs(total("provider.score")), ""),
        ("provider.self_s", secs(total("provider.score", "self")), "minus timed children"),
        (
            "provider.cache.hit_ratio",
            f"{values['provider.cache.hit_ratio']:.4f}",
            f"of {int(hits + misses)} lookups",
        ),
        ("delta.similarity_s", secs(total("delta.similarity")), where),
        (
            "delta.rows_rescored_ratio",
            f"{values['delta.rows_rescored_ratio']:.4f}",
            f"of {int(c.get('pipe.delta.rows_total', 0))} delta rows",
        ),
        (
            "delta.fallback_ratio",
            f"{values['delta.fallback_ratio']:.4f}",
            f"of {int(c.get('pipe.delta.hits', 0) + c.get('pipe.delta.fallbacks', 0))} delta lookups",
        ),
        ("kernel.sweep_s", secs(sweep_s), where),
        ("kernel.rows_swept", f"{int(rows)}", "count"),
        ("kernel.window_pairs", f"{int(rows * proteome_windows)}", "computed: rows x proteome windows"),
        ("kernel.pairs_per_s", f"{values['kernel.pairs_per_s']:.4g} 1/s", "computed pairs per kernel second"),
        ("database.update_similarity_s", secs(total("database.update_similarity")), where),
        ("database.precompute_s", secs(values["database.precompute_s"]), "per set-up, inside setup_s"),
        ("pipe.score_against_s", secs(total("pipe.score_against")), where),
        ("pipe.evaluations", f"{int(values['pipe.evaluations'])}", "candidate-protein pairs scored"),
    ]
    if workers:
        lines += [
            ("parallel.spawn_s", secs(spawn_s), f"inside setup_s ({values['parallel.spawn_frac']:.3f} of it)"),
            ("parallel.batch_s", secs(batch_s), f"{values['parallel.batch_frac']:.3f} of wall"),
            ("parallel.worker_busy_s", secs(pool["worker_busy_s"]), f"{workers} workers"),
            ("parallel.worker_idle_s", secs(pool["worker_idle_s"]), "workers x batch - busy"),
            ("parallel.worker_util", f"{pool['worker_util']:.4f}", "busy / (workers x batch)"),
            (
                "parallel.max_worker_share",
                f"{pool['max_worker_share']:.4f}",
                f"of {int(c.get('parallel.dispatched', 0))} dispatched items",
            ),
            ("parallel.dispatch_overhead_s", secs(pool["dispatch_overhead_s"]), "batch - busiest worker"),
            ("parallel.retries", f"{int(values['parallel.retries'])}", "count"),
            ("parallel.degraded_items", f"{int(values['parallel.degraded_items'])}", "count"),
        ]
    else:
        lines.append(("parallel.*", "-", no_pool))
    if fused:
        lines += [
            ("fabric.score_s", secs(total("fabric.score")), f"{values['fabric.score_frac']:.3f} of campaign time"),
            ("fabric.mean_fused_size", f"{values['fabric.mean_fused_size']:.2f}", f"items per fused batch, {int(fused)} batches"),
            ("fabric.clients_per_batch", f"{values['fabric.clients_per_batch']:.3f}", "client scoring calls / fused batches"),
            ("fabric.queue_wait_s_p50", secs(record.gauges.get("fabric.queue_wait.p50", 0.0)), "per item"),
        ]
    else:
        lines.append(("fabric.*", "-", no_fabric))
    if record.job_phases:
        lines += [
            ("service.submit_s", secs(total("service.submit")), f"{int(total('service.submit', 'calls'))} submissions"),
            ("service.queue_wait_s_p50", secs(statistics.median(q for q, _ in record.job_phases)), "started - submitted"),
            ("service.run_s_p50", secs(statistics.median(r for _, r in record.job_phases)), "finished - started"),
            ("checkpoint.save_s", secs(save_s), f"{values['checkpoint.save_frac']:.3f} of campaign time"),
            ("checkpoint.writes", f"{int(values['checkpoint.writes'])}", "count"),
            ("checkpoint.bytes", f"{int(values['checkpoint.bytes'])}", "bytes"),
        ]
    else:
        lines += [("service.*", "-", no_jobs), ("checkpoint.*", "-", no_jobs)]
    lines += [
        (
            "trace.overhead_frac",
            f"{values['trace.overhead_frac']:.5f}",
            f"{max(per_pid.values(), default=0)} spans x {span_cost_s * 1e6:.2f} us / wall, busiest process",
        ),
        ("trace.unattributed_frac", f"{values['trace.unattributed_frac']:.5f}", "campaign time outside every layer span"),
    ]
    return values, lines
