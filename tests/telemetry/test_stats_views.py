"""Runtime stats are views over one telemetry registry.

The process provider, the fabric and the service keep no second copy of
a count: each ``*_stats()`` view reads the registry the component
records into.  These tests pin that the views equal the registry, that
a component built without ``telemetry=`` still counts (into a private
registry that never reaches the shared engine), that reading a view
creates no instrument, and that ``NULL_REGISTRY`` turns the views off.
"""

import time

import numpy as np
import pytest

from repro.fabric import ScoringFabric
from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.parallel.mp_backend import MultiprocessScoreProvider
from repro.parallel.worker import FaultPlan
from repro.resilience import CircuitBreaker
from repro.service import DesignService, JobSpec, JobState
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

FAULT_KEYS = (
    "worker_deaths",
    "respawns",
    "retries",
    "stale_dropped",
    "failures",
    "degraded_items",
    "degraded_batches",
    "force_killed",
)


def _seqs(rng, n, size=25):
    return [rng.integers(0, 20, size=size).astype(np.uint8) for _ in range(n)]


def _open_breaker():
    """A breaker that keeps every batch in the master."""
    breaker = CircuitBreaker(probe_after=10**6)
    breaker.record_failure()
    return breaker


def test_provider_counts_into_a_private_registry(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    engine_registry = tiny_engine.telemetry
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=2,
        timeout=60.0,
        poll_interval=0.1,
        faults=FaultPlan(crash_on_item=1, only_worker=0),
    ) as provider:
        provider.scores(_seqs(rng, 6))
        registry = provider.telemetry
        assert isinstance(registry, MetricsRegistry) and registry.enabled
        assert tiny_engine.telemetry is engine_registry
        faults = provider.fault_stats()
        assert faults["worker_deaths"] >= 1
        assert faults["respawns"] >= 1
        for key in FAULT_KEYS:
            assert type(faults[key]) is int
            assert faults[key] == registry.counted(f"parallel.{key}")
        runtime = provider.runtime_stats()
        assert runtime["dispatched"] == registry.counted("parallel.dispatched") > 0
        assert type(runtime["batches"]) is int and runtime["batches"] == 1
        workers = provider.worker_stats()
        assert sum(w["items"] for w in workers.values()) == 6
        for wid, w in workers.items():
            busy = registry.lookup(f"parallel.worker.{wid}.busy")
            assert w["busy_s"] == busy.total
        elastic = provider.elastic_stats()
        for key in ("scale_ups", "scale_downs", "retired"):
            assert type(elastic[key]) is int


def test_delta_stats_include_master_serial_scoring(tiny_engine, tiny_problem):
    """Items scored in the master (breaker open) count in ``delta_stats``
    exactly as in the registry's ``pipe.delta.*`` counters."""
    target, non_targets = tiny_problem
    registry = MetricsRegistry()
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        breaker=_open_breaker(),
        telemetry=registry,
    ) as provider:
        InSiPSEngine(
            provider,
            GAParams(),
            population_size=4,
            candidate_length=16,
            seed=3,
        ).run(3)
        delta = provider.delta_stats()
        assert not provider._workers  # the pool never started
    assert provider.fault_stats()["degraded_items"] > 0
    assert delta["hits"] + delta["fallbacks"] > 0
    for key in ("hits", "fallbacks", "rows_rescored", "rows_total"):
        assert type(delta[key]) is int
        assert delta[key] == registry.counted(f"pipe.delta.{key}")


def test_reading_views_creates_no_instruments(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1
    )
    stats = provider.runtime_stats()
    assert stats["dispatched"] == stats["batches"] == 0
    assert stats["workers"] == {}
    assert provider.telemetry.snapshot() == {}
    provider.close()


def test_null_registry_turns_the_views_off(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        breaker=_open_breaker(),
        telemetry=NULL_REGISTRY,
    ) as provider:
        assert len(provider.scores(_seqs(rng, 3))) == 3
        assert provider.fault_stats()["degraded_batches"] == 0
        assert provider.runtime_stats()["batches"] == 0


def test_fabric_counts_into_a_private_registry(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    engine_registry = tiny_engine.telemetry
    with ScoringFabric(tiny_engine, num_workers=1) as fabric:
        client = fabric.client(target, non_targets)
        client.scores(_seqs(rng, 5))
        registry = fabric.telemetry
        assert registry.enabled and fabric.provider.telemetry is registry
        assert tiny_engine.telemetry is engine_registry
        stats = fabric.fabric_stats()
    assert stats["fused_items"] == registry.counted("fabric.fused_items") == 5
    assert stats["fused_batches"] == registry.counted("fabric.fused_batches") > 0
    assert stats["per_client"][0]["items"] == 5
    assert stats["pending"] == 0 and stats["abandoned_items"] == 0
    for key in ("fused_batches", "fused_items", "abandoned_items", "pending"):
        assert type(stats[key]) is int


def test_service_shares_one_private_registry(tiny_world, tmp_path):
    engine_registry = tiny_world.engine.telemetry
    spec = JobSpec(
        tenant="alice",
        target="YBL051C",
        seed=7,
        generations=2,
        population_size=6,
        candidate_length=16,
    )
    with DesignService(
        tiny_world, tmp_path / "svc", max_concurrent=1, fsync=False, num_workers=1
    ) as service:
        registry = service.telemetry
        assert registry.enabled
        assert service.fabric.telemetry is registry
        assert tiny_world.engine.telemetry is engine_registry
        job_id = service.submit(spec)
        deadline = time.monotonic() + 120.0
        while (
            service.status(job_id)["state"] != JobState.DONE
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert service.status(job_id)["state"] == JobState.DONE
        stats = service.service_stats()
    assert stats["submitted"] == registry.counted("service.submitted") == 1
    for key in ("submitted", "rejected", "resumed", "recovered"):
        assert type(stats[key]) is int
        assert stats[key] == registry.counted(f"service.{key}")
    assert stats["fabric"]["fused_batches"] == registry.counted(
        "fabric.fused_batches"
    ) > 0


@pytest.mark.parametrize("component", ["fabric", "service"])
def test_null_registry_fabric_and_service_views_are_zero(
    tiny_engine, tmp_path, component
):
    # An explicit registry reaches the shared engine; put it back after.
    engine_registry = tiny_engine.telemetry
    try:
        if component == "fabric":
            with ScoringFabric(tiny_engine, telemetry=NULL_REGISTRY) as fabric:
                stats = fabric.fabric_stats()
            assert stats["fused_batches"] == stats["pending"] == 0
        else:
            with DesignService(
                tiny_engine, tmp_path, fsync=False, telemetry=NULL_REGISTRY
            ) as service:
                assert service.fabric.telemetry is NULL_REGISTRY
                assert service.service_stats()["submitted"] == 0
    finally:
        tiny_engine.set_telemetry(engine_registry)
