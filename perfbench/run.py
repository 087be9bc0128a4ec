#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign-serial --seed 0 --seconds 30 --trace 0

Set-up (world build, provider/fabric/service construction, similarity
precompute, pool spawn) runs :data:`~perfbench.workloads.SETUPS` times;
then the workload runs for a window of about ``--seconds``, every result
is checked against ``oracle.json``, and no shared-memory segment, worker
process or pending-work gauge may outlive the run.  An untraced run sets
up :data:`~perfbench.workloads.SETUPS_AFTER` more times after the window,
so that ``setup_s``, the median of all set-ups, samples both ends of it.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
program's layer entry points (:mod:`perfbench.tracing`), reports the
per-layer metrics and writes the spans to ``.perfbench-out/``.  The last
line of standard output is the JSON result; the lines before it are the
human-readable report (machine, inputs, every metric with its unit).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("campaign-serial", "campaign-process", "service-mixed")

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("candidates_per_s", "1/s"),
    ("gen_s_p50", "s"),
    ("job_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "perfbench" / "oracle.json").is_file():
        print(
            f"perfbench: {ROOT} holds no src/repro package or no oracle; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import system

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        system.stop_helpers()
    print(json.dumps(result))
    return 0


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def run(args: argparse.Namespace, workdir: Path) -> dict:
    from perfbench import layers, metrics, system
    from perfbench import workloads as wl
    from perfbench.tracing import Tracer

    workload = wl.WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shm_before = system.shm_segments()
    tracer = None
    if args.trace:
        tracer = Tracer(run_id, workdir)
        for name in tracer.install():
            print(f"trace: entry point {name} not found; its layer reads 0")

    setup_s: list[float] = []
    spawn_s: list[float] = []

    def set_up() -> wl.Session:
        start = time.perf_counter()
        session = workload.setup(workdir)
        setup_s.append(time.perf_counter() - start)
        spawn = session.registry.snapshot().get("parallel.spawn", {})
        spawn_s.append(float(spawn.get("total_s", 0.0)))
        return session

    for _ in range(wl.SETUPS - 1):
        set_up().close()
    session = set_up()
    setup_end = time.perf_counter()
    try:
        record = workload.run(session, args.seed, args.seconds)
        pool = [p.pid for p in multiprocessing.active_children()]
        peak_rss = system.peak_rss_mb([os.getpid(), *pool])
    finally:
        session.close()
    if not args.trace:
        for _ in range(wl.SETUPS_AFTER):
            set_up().close()

    # Resource invariants: each violation is one failed operation.
    checks = 4
    violations = [f"leaked shared-memory segment {name}" for name in sorted(system.shm_segments() - shm_before)]
    survivors = {p.pid for p in multiprocessing.active_children()}
    survivors.update(pid for pid in pool if system.alive(pid))
    violations += [f"worker process {pid} outlived close()" for pid in sorted(survivors)]
    final = session.registry.snapshot()
    for gauge in ("fabric.pending_items", "parallel.queue_depth"):
        value = final.get(gauge, {}).get("value", 0.0)
        if value:
            violations.append(f"gauge {gauge} is {value} after the run, not 0")
    problems = record.problems + violations
    attempted = record.candidates + checks
    failed = record.failed_candidates + len(violations)

    e2e = {
        "candidates_per_s": record.candidates_per_s,
        "gen_s_p50": _median(record.gen_s),
        "job_s_p50": _median(record.job_s),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setup_s),
    }
    tail = metrics.tail_percentile(record.gen_s)

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s window, trace {args.trace}")
    print("machine: " + json.dumps(system.machine()))
    print("inputs: " + json.dumps(record.inputs))
    print(f"  {'candidates_per_s':<28} {e2e['candidates_per_s']:.4f} 1/s  ({record.candidates} candidates in {record.wall_s:.3f} s)")
    print(f"  {'gen_s_p50':<28} {e2e['gen_s_p50']:.4f} s  (n={len(record.gen_s)} warm generations)")
    if tail is None:
        print(f"  {'gen_s_tail':<28} -  (n={len(record.gen_s)}: no percentile has {metrics.TAIL_BEYOND} samples beyond it)")
    else:
        print(f"  {'gen_s_tail':<28} {tail[1]:.4f} s  (p{tail[0]}, n={len(record.gen_s)})")
    print(f"  {'gen0_s':<28} {_median(record.gen0_s):.4f} s  (n={len(record.gen0_s)})")
    print(f"  {'job_s_p50':<28} {e2e['job_s_p50']:.4f} s  (n={len(record.job_s)} jobs)")
    print(f"  {'peak_rss_mb':<28} {peak_rss:.1f} MB  (VmHWM of this process + {len(pool)} workers)")
    print(f"  {'setup_s':<28} {e2e['setup_s']:.4f} s  (median of {len(setup_s)}: {', '.join(f'{s:.3f}' for s in setup_s)})")
    print(f"  {'failed_frac':<28} {failed / attempted:.4f}  ({failed} of {attempted}: candidates + {checks} resource checks)")
    for problem in problems:
        print(f"  FAILED: {problem}")

    reported = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if tracer is not None:
        spans = tracer.collect()
        tracer.uninstall()
        setup_spans = [s for s in spans if s[5] < setup_end]
        proteome_windows = sum(
            max(0, len(p.encoded) - session.world.engine.database.window_size + 1)
            for p in session.world.proteins
        )
        values, lines = layers.per_layer(
            record,
            spans,
            setup_spans=setup_spans,
            setups=len(setup_s),
            setup_s=e2e["setup_s"],
            spawn_s=statistics.median(spawn_s),
            proteome_windows=proteome_windows,
            span_cost_s=tracer.span_cost_s(),
        )
        print("per layer:")
        for name, text, note in lines:
            print(f"  {name:<28} {text}" + (f"  ({note})" if note else ""))
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"trace-{run_id}.jsonl"
        tracer.write(trace_path, spans)
        print(f"spans: {len(spans)} written to {trace_path.relative_to(ROOT)}")
        reported = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }


if __name__ == "__main__":
    sys.exit(main())
