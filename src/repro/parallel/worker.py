"""The InSiPS worker (Algorithm 2).

A worker receives the broadcast data once (here: via process inheritance /
pickled arguments, standing in for the paper's MPI broadcast that "relieves
considerable stress from the shared disks"), then loops: take the next
chunk of candidates from its own queue, score them with
:func:`~repro.ga.fitness.score_batch` against the target and every
non-target, and return the chunk's scores in one reply.

A candidate whose evaluation raises does **not** kill the worker: the
exception is captured as a :class:`~repro.parallel.messages.WorkFailure`
(with the full traceback) and the loop continues, so one poisoned sequence
costs one reply, not a worker process.  For deterministic testing of the
master's recovery paths, :class:`WorkerContext` optionally carries a
:class:`FaultPlan` that can delay, fail or hard-crash the worker on a
chosen item.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_mod
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.ga import fitness
from repro.parallel.messages import (
    ChunkResult,
    EndSignal,
    RetireSignal,
    WorkChunk,
    WorkFailure,
    WorkItem,
    WorkResult,
)
from repro.ppi.delta import SimilarityLRU
from repro.ppi.pipe import PipeConfig, PipeEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ppi.shm import SharedProteomeHandle, SharedProteomeView

__all__ = [
    "FaultPlan",
    "WorkerContext",
    "worker_loop",
]


@dataclass(frozen=True)
class FaultPlan:
    """Test-only fault injection for the worker loop.

    Item indices are 0-based counts of items *this worker* has taken off
    its queue, counted across chunks.  ``only_worker`` restricts
    injection to one worker id; respawned workers receive fresh
    (monotonically increasing) ids, so a crash plan targeting worker 0
    fires at most once per run — the replacement worker is unaffected
    and recovery is deterministic.

    Attributes
    ----------
    fail_on_item:
        Raise inside the scoring path at this item (surfaces as a
        :class:`~repro.parallel.messages.WorkFailure`).
    crash_on_item:
        Hard-exit the worker process (``os._exit``) at this item — its
        whole chunk is lost in flight, simulating a node failure.
    hang_on_item / hang_s:
        Stop responding at this item: sleep ``hang_s`` seconds (bounded,
        so an orphaned test process still dies) while holding its chunk —
        simulating a hung node the master can only time out on.
    delay_on_item / delay:
        Sleep ``delay`` seconds before scoring; the item's reported
        elapsed (and hence the master's latency EWMA) includes it,
        simulating a genuinely slow item.  With ``delay_on_item`` set,
        only that item is delayed, otherwise every item is.
    """

    fail_on_item: int | None = None
    crash_on_item: int | None = None
    hang_on_item: int | None = None
    hang_s: float = 3600.0
    delay_on_item: int | None = None
    delay: float = 0.0
    only_worker: int | None = None

    def applies_to(self, worker_id: int) -> bool:
        return self.only_worker is None or self.only_worker == worker_id


@dataclass
class WorkerContext:
    """Everything a worker needs: the broadcast engine and the problem.

    The engine travels one of two ways.  Classic broadcast: ``engine`` is
    set and the whole database pickles into the worker at spawn.
    Shared-memory broadcast: ``engine`` is ``None`` and ``shm_handle`` +
    ``config`` describe a :class:`~repro.ppi.shm.SharedProteomeView`
    segment the worker attaches to (:meth:`ensure_engine`), so only a
    kilobyte-scale handle crosses the process boundary and every worker
    reads the same physical proteome pages.

    ``faults`` is a test-only :class:`FaultPlan`; production runs leave it
    ``None`` (the default) and pay nothing for it.

    ``similarity_cache_size`` bounds the worker-local LRU of per-sequence
    similarity structures that the delta-scoring path patches from;
    ``use_delta=False`` disables incremental re-scoring entirely (every
    candidate pays the full sweep, the pre-delta behaviour).

    ``problems`` (optional) is the fabric's registered-problem table:
    ``problem_id -> (target, non_targets)``.  Items carrying a
    ``problem_id`` are scored against that problem instead of the context
    default; a worker spawned after registration inherits the table at
    spawn, and items are self-describing anyway (see
    :class:`~repro.parallel.messages.WorkItem`).
    """

    engine: PipeEngine | None
    target: str
    non_targets: list[str]
    faults: FaultPlan | None = None
    similarity_cache_size: int = 256
    use_delta: bool = True
    shm_handle: "SharedProteomeHandle | None" = None
    config: "PipeConfig | None" = None
    problems: dict[int, tuple[str, tuple[str, ...]]] | None = None

    def __post_init__(self) -> None:
        if self.engine is None:
            if self.shm_handle is None or self.config is None:
                raise ValueError(
                    "WorkerContext needs an engine, or a shm_handle + config "
                    "to rebuild one from shared memory"
                )
            # Name validation happens in ensure_engine, worker-side.
            return
        graph = self.engine.database.graph
        graph.index_of(self.target)
        for nt in self.non_targets:
            graph.index_of(nt)

    def for_shipment(self, handle: "SharedProteomeHandle") -> "WorkerContext":
        """A lightweight copy to pickle to workers: the engine is replaced
        by the shared-memory handle (plus the scalar config)."""
        if self.engine is None:
            raise ValueError("context already engine-less")
        return replace(
            self, engine=None, shm_handle=handle, config=self.engine.config
        )

    def ensure_engine(self) -> "SharedProteomeView | None":
        """Materialise :attr:`engine` if it travelled as a shm handle.

        Returns the attached view (the caller owns its ``close()``), or
        ``None`` when the engine was shipped directly.
        """
        if self.engine is not None:
            return None
        from repro.ppi.shm import SharedProteomeView

        view = SharedProteomeView.attach(self.shm_handle)
        database = view.build_database()
        self.engine = PipeEngine(database, self.config)
        graph = database.graph
        graph.index_of(self.target)
        for nt in self.non_targets:
            graph.index_of(nt)
        return view

    def warm_cache(self) -> None:
        """Precompute target/non-target similarity structures (the paper's
        offline preprocessing of natural proteins) — for the context
        problem and every registered fabric problem."""
        names = [self.target, *self.non_targets]
        for tgt, nts in (self.problems or {}).values():
            names.append(tgt)
            names.extend(nts)
        self.engine.database.precompute(list(dict.fromkeys(names)))


def worker_loop(
    worker_id: int,
    context: WorkerContext,
    task_queue,
    result_queue,
) -> int:
    """Worker main loop; returns the number of candidates processed.

    ``task_queue`` is this worker's own queue, the only one it blocks on.
    The master sends it one :class:`~repro.parallel.messages.WorkChunk`
    at a time and the next when the :class:`ChunkResult` comes back — the
    paper's on-demand dispatch at chunk granularity.  Runs until an
    :class:`EndSignal` (shutdown) or :class:`RetireSignal` (elastic
    scale-down) arrives.  A failing item is reported as a
    :class:`WorkFailure`; the rest of its chunk is still scored.
    """
    view = context.ensure_engine()
    try:
        return _serve(worker_id, context, task_queue, result_queue)
    finally:
        if view is not None:
            view.close()


def _serve(worker_id: int, context: WorkerContext, task_queue, result_queue) -> int:
    context.warm_cache()
    faults = context.faults
    inject = faults is not None and faults.applies_to(worker_id)
    similarity_cache = (
        SimilarityLRU(context.similarity_cache_size) if context.use_delta else None
    )
    # Fabric problem table: seeded from the shipped context, extended
    # in place from self-describing items (problems registered after
    # this worker spawned).
    problems: dict[int, tuple[str, tuple[str, ...]]] = dict(
        context.problems or {}
    )
    default_problem = (context.target, context.non_targets)
    processed = 0
    while True:
        message = task_queue.get()
        if isinstance(message, (EndSignal, RetireSignal)):
            break
        if not isinstance(message, WorkChunk):
            raise TypeError(f"unexpected message {type(message).__name__}")
        # (item, problem, injected delay) of every item that reaches scoring.
        ready: list[tuple[WorkItem, tuple, float]] = []
        for item in message.items:
            delay = 0.0
            try:
                if inject:
                    if faults.crash_on_item == processed:
                        # Simulated node failure: the chunk dies with us.
                        os._exit(1)
                    if faults.hang_on_item == processed:
                        # Simulated hung node: hold the chunk without replying.
                        time.sleep(faults.hang_s)
                    if faults.delay > 0.0 and faults.delay_on_item in (
                        None,
                        processed,
                    ):
                        started = time.perf_counter()
                        time.sleep(faults.delay)
                        delay = time.perf_counter() - started
                    if faults.fail_on_item == processed:
                        raise RuntimeError(
                            f"injected failure on item {processed} of worker "
                            f"{worker_id}"
                        )
                problem = default_problem
                if item.problem_id is not None:
                    problem = _resolve_problem(context, problems, item)
            except Exception as exc:
                result_queue.put(_failure(worker_id, message, item, exc))
            else:
                ready.append((item, problem, delay))
            processed += 1
        if not ready:
            continue
        started = time.perf_counter()
        try:
            scored = fitness.score_batch(
                context.engine,
                similarity_cache,
                [item.decode() for item, _, _ in ready],
                [item.provenance for item, _, _ in ready],
                [problem for _, problem, _ in ready],
                context.use_delta,
            )
        except Exception as exc:
            result_queue.put(_failure(worker_id, message, ready[0][0], exc))
            continue
        # The batch is scored as one unit; each item is charged an equal
        # share of its wall time plus its own injected delay.
        share = (time.perf_counter() - started) / len(ready)
        result_queue.put(
            ChunkResult(
                worker_id,
                message.batch_epoch,
                tuple(
                    WorkResult(
                        item.sequence_id,
                        worker_id,
                        scores,
                        delay + share,
                        batch_epoch=message.batch_epoch,
                        delta=stats,
                    )
                    for (item, _, delay), (scores, stats) in zip(ready, scored)
                ),
            )
        )
    return processed


def _resolve_problem(
    context: WorkerContext,
    problems: dict[int, tuple[str, tuple[str, ...]]],
    item: WorkItem,
) -> tuple[str, tuple[str, ...]]:
    """The fabric problem an item is bound to, registering it on first
    sight from the item's own spec."""
    problem = problems.get(item.problem_id)
    if problem is None:
        if item.problem is None:
            raise RuntimeError(
                f"unknown problem id {item.problem_id} (item carries no spec)"
            )
        problem = item.problem
        problems[item.problem_id] = problem
        # One-time warm-up per newly seen problem: its target/non-target
        # structures enter the shared known-protein cache.
        context.engine.database.precompute([problem[0], *problem[1]])
    return problem


def _failure(
    worker_id: int, chunk: WorkChunk, item: WorkItem, exc: Exception
) -> WorkFailure:
    return WorkFailure(
        sequence_id=item.sequence_id,
        worker_id=worker_id,
        error=f"{type(exc).__name__}: {exc}",
        traceback=traceback_mod.format_exc(),
        batch_epoch=chunk.batch_epoch,
    )
