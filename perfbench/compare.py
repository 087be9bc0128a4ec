#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py before.json after.json

Both files are written by ``perfbench/sweep.py``.  For each workload and
end-to-end metric the report gives each side's median and quartiles, the
change of the median as a share of the first side's median, and a
verdict (:func:`perfbench.metrics.verdict`): ``better``, ``worse``,
``same`` (within the bound ``BENCHMARK.json`` fixes) or ``unresolved``
(a side's spread exceeds the bound and the runs overlap).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import quartiles, verdict  # noqa: E402


def compare(before: dict, after: dict, end_to_end: list[dict]) -> list[str]:
    lines = []
    for workload in before:
        if workload not in after:
            lines.append(f"{workload}: only in the first set")
            continue
        lines.append(
            f"{workload}: {len(before[workload])} runs vs {len(after[workload])} runs"
        )
        for metric in end_to_end:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in before[workload]]
            b = [r["result"]["metrics"][name]["value"] for r in after[workload]]
            qa, qb = quartiles(a), quartiles(b)
            change = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            lines.append(
                f"  {name:<18} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                f"  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {metric['unit']}"
                f"  {change:+.2%} of A's median"
                f"  -> {verdict(a, b, metric['bound'], metric['better'])}"
                f" (bound {metric['bound']:.0%}, {metric['better']} is better)"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before = json.loads(args.before.read_text(encoding="utf-8"))
    after = json.loads(args.after.read_text(encoding="utf-8"))
    print("\n".join(compare(before, after, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
