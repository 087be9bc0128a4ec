#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 0-9 --seconds 30 --out runs.json
    python3 perfbench/sweep.py --workloads service-mixed --seeds 0-4 --out a.json

Each run is a separate ``perfbench/run.py`` process.  The output file maps
each workload to its runs (seed, machine record and JSON result); the
summary prints, per metric, the median, the quartiles and the spread
(inter-quartile distance over the median) next to a third of the bound
that ``BENCHMARK.json`` fixes.  ``perfbench/compare.py`` compares two
such files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import quartiles, spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    machine = next(
        (json.loads(line[len("machine: "):]) for line in lines if line.startswith("machine: ")),
        None,
    )
    return {"seed": seed, "machine": machine, "result": json.loads(lines[-1]), "report": lines[:-1]}


def summarise(runs: dict[str, list[dict]], bounds: dict[str, float]) -> None:
    for workload, items in runs.items():
        print(f"{workload} ({len(items)} runs, failed ops {sum(r['result']['failed'] for r in items)})")
        names = items[0]["result"]["metrics"]
        for name, first in names.items():
            values = [r["result"]["metrics"][name]["value"] for r in items]
            q1, med, q3 = quartiles(values)
            bound = bounds.get(name)
            limit = f"  bound/3 {bound / 3:.3f}" if bound is not None else ""
            flag = "  <-- too wide" if bound is not None and spread(values) > bound / 3 else ""
            print(
                f"  {name:<32} median {med:.6g} {first['unit']}  q1 {q1:.6g}  q3 {q3:.6g}"
                f"  spread {spread(values):.4f}{limit}{flag}"
            )


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            item = run_once(workload, seed, args.seconds, args.trace)
            runs.setdefault(workload, []).append(item)
            print(f"{workload} seed {seed}: " + json.dumps(item["result"]["metrics"]), flush=True)
            args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    bounds = {} if args.trace else {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summarise(runs, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
