"""Shared scoring fabric vs dedicated pools: N concurrent campaigns.

The fabric's headline numbers: run ``N_CAMPAIGNS`` concurrent design
campaigns (different targets, same proteome) once as clients of a single
:class:`~repro.fabric.ScoringFabric` (one shared-memory segment, one
pool) and once on dedicated one-pool-per-campaign providers.  Reported
per configuration in ``extra_info``:

* **aggregate throughput** — total candidates scored / wall-clock for
  the whole fleet of campaigns (fused batches keep the one pool
  saturated where dedicated pools idle between their campaign's
  generations, and the fleet pays one pool spawn instead of N);
* **total worker RSS** — summed ``VmRSS`` of every live worker process
  (one shm segment + one pool vs N of each).

The bit-exact-per-campaign guard is *gating*: every campaign's history
must be identical between the fabric and its dedicated-pool run.  The
aggregate-throughput guard (>= 1.5x at 4 campaigns) is non-gating —
wall-clock on shared CI runners is advisory; the exported benchmark JSON
carries the real comparison.
"""

from __future__ import annotations

import json
import threading
import time
import warnings

import pytest

from repro import GAParams, InSiPSEngine
from repro.fabric import ScoringFabric
from repro.parallel.mp_backend import MultiprocessScoreProvider

N_CAMPAIGNS = 4
POPULATION = 8
LENGTH = 16
SEED = 2015
GENERATIONS = 2
THROUGHPUT_GUARD = 1.5


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _total_worker_rss_kb(providers) -> int:
    return sum(
        _rss_kb(proc.pid)
        for provider in providers
        for proc in provider._workers.values()
    )


@pytest.fixture(scope="module")
def problems(tiny_world):
    anchor = "YBL051C"
    targets = [anchor, *tiny_world.non_targets_for(anchor, limit=N_CAMPAIGNS - 1)]
    probs = [(t, tiny_world.non_targets_for(t, limit=8)) for t in targets]
    for target, non_targets in probs:
        tiny_world.engine.database.precompute([target, *non_targets])
    return probs


def _campaign(provider):
    engine = InSiPSEngine(
        provider,
        GAParams(),
        population_size=POPULATION,
        candidate_length=LENGTH,
        seed=SEED,
    )
    return engine.run(GENERATIONS)


def _run_fleet(make_provider, providers_out):
    """Run every campaign concurrently; returns (results, peak_rss_kb).

    ``make_provider(i)`` builds (or fetches) campaign *i*'s provider;
    provider/pool construction is inside the timed region on purpose —
    spawning one pool instead of N is part of the fabric's pitch.
    """
    results: dict[int, object] = {}

    def run(i):
        provider = make_provider(i)
        results[i] = _campaign(provider)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(N_CAMPAIGNS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    rss = _total_worker_rss_kb(providers_out)
    return [results[i] for i in range(N_CAMPAIGNS)], rss


def _candidates_scored(results) -> int:
    # Every campaign scores its population each generation plus the
    # initial population; identical across configurations by seeding.
    return sum(POPULATION * (GENERATIONS + 1) for _ in results)


def test_bench_fabric_vs_dedicated_pools(benchmark, tiny_world, problems):
    """4 concurrent campaigns: one fabric vs one pool per campaign."""
    engine = tiny_world.engine

    # -- dedicated: one MultiprocessScoreProvider per campaign ----------
    dedicated_providers = []

    def dedicated_provider(i):
        target, non_targets = problems[i]
        provider = MultiprocessScoreProvider(
            engine, target, non_targets, num_workers=1, timeout=300.0
        )
        dedicated_providers.append(provider)
        return provider

    start = time.perf_counter()
    dedicated_results, dedicated_rss = _run_fleet(
        dedicated_provider, dedicated_providers
    )
    dedicated_time = time.perf_counter() - start
    for provider in dedicated_providers:
        provider.close()

    # -- fabric: every campaign a client of one pool --------------------
    fabric_results = None
    fabric_stats = None
    fabric_rss = 0

    def run_fabric():
        nonlocal fabric_results, fabric_stats, fabric_rss
        with ScoringFabric(engine, num_workers=1, max_items=32) as fabric:
            lock = threading.Lock()

            def fabric_client(i):
                target, non_targets = problems[i]
                with lock:  # client registration is the only shared step
                    return fabric.client(target, non_targets)

            fabric_results, fabric_rss = _run_fleet(
                fabric_client, [fabric.provider] if fabric.provider else []
            )
            # provider exists after the first client; measure at the end.
            fabric_rss = _total_worker_rss_kb([fabric.provider])
            fabric_stats = fabric.fabric_stats()
        return fabric_results

    # Timed by hand like the dedicated side: ``benchmark.stats`` is None
    # under ``--benchmark-disable``.
    start = time.perf_counter()
    benchmark.pedantic(run_fabric, rounds=1, iterations=1)
    fabric_time = time.perf_counter() - start

    # Gating: every campaign bit-exact between fabric and dedicated pool.
    for got, ref in zip(fabric_results, dedicated_results):
        assert got.best.sequence == ref.best.sequence
        assert json.dumps(got.history.to_payload()) == json.dumps(
            ref.history.to_payload()
        )

    scored = _candidates_scored(fabric_results)
    fabric_tput = scored / fabric_time if fabric_time > 0 else 0.0
    dedicated_tput = scored / dedicated_time if dedicated_time > 0 else 0.0
    benchmark.extra_info["campaigns"] = N_CAMPAIGNS
    benchmark.extra_info["candidates_scored"] = scored
    benchmark.extra_info["aggregate_throughput_per_s"] = {
        "fabric": round(fabric_tput, 2),
        "dedicated": round(dedicated_tput, 2),
        "speedup": round(fabric_tput / dedicated_tput, 3)
        if dedicated_tput
        else None,
    }
    benchmark.extra_info["total_worker_rss_kb"] = {
        "fabric": fabric_rss,
        "dedicated": dedicated_rss,
    }
    benchmark.extra_info["fabric"] = {
        "fused_batches": fabric_stats["fused_batches"],
        "fused_items": fabric_stats["fused_items"],
        "mean_fused_size": round(fabric_stats["mean_fused_size"], 2),
    }

    # Non-gating: the fabric should aggregate >= 1.5x the dedicated
    # fleet's throughput at 4 campaigns (one pool spawn instead of four,
    # fused batches instead of four trickles).
    if dedicated_tput and fabric_tput < THROUGHPUT_GUARD * dedicated_tput:
        warnings.warn(
            f"fabric aggregate throughput {fabric_tput:.1f}/s is below "
            f"{THROUGHPUT_GUARD}x the dedicated fleet's "
            f"{dedicated_tput:.1f}/s (advisory only)",
            stacklevel=1,
        )
