"""Multiprocessing realisation of the master/worker runtime.

:class:`MultiprocessScoreProvider` plugs into the GA engine through the
:class:`~repro.ga.fitness.ScoreProvider` interface, so
``InSiPSEngine(provider, ...)`` runs the identical GA whether scores come
from this parallel backend or the serial reference path — the property the
integration tests assert.

The runtime is fault tolerant at the task level, the property the paper's
days-long Blue Gene/Q campaigns depend on:

* every batch is stamped with a monotonically increasing ``batch_epoch``;
  a reply from an earlier epoch (orphaned by a timeout or a dead worker)
  is counted and dropped, never assigned to a later candidate that reuses
  the same ``sequence_id``;
* the collection loop polls on short sub-timeouts and checks
  ``Process.is_alive()`` whenever the result queue is quiet — a dead
  worker is reaped, a replacement (with a fresh worker id) is spawned,
  and the dead worker's unacknowledged chunk goes to a live worker under
  a bounded per-item retry budget;
* a worker-side scoring exception arrives as a
  :class:`~repro.parallel.messages.WorkFailure` and is re-raised on the
  master as :class:`WorkerFailureError` carrying the worker traceback,
  instead of killing the worker process silently.

Graceful degradation (the campaign-supervisor contract)
-------------------------------------------------------
By default the provider **never abandons a batch to the pool**: when the
re-dispatch retry budget is exhausted (workers keep dying) or the
collection loop stalls past ``timeout`` (workers hang), the lost items
are scored *serially in the master* through the same
:func:`~repro.ga.fitness.score_batch` the workers run — bit-exact with
the pool's answers — and counted as ``parallel.degraded_items`` /
``parallel.degraded_batches``.  A
:class:`~repro.resilience.CircuitBreaker` then keeps subsequent batches
serial (no respawn-and-die thrash); every few batches it lets one
*half-open probe* try the pool again, closing the breaker on success.
``fail_fast=True`` restores the pre-supervisor behaviour: exhausting the
budget raises :class:`DeadWorkerError` naming the dead workers and lost
items, and a stall raises ``RuntimeError``.

Shutdown is bounded: ``close()`` joins each worker under a grace period,
then escalates ``terminate()`` → ``kill()`` (counted as
``parallel.force_killed``), so a hung worker cannot wedge the master.

Chunked dispatch
----------------
Each worker has its own queue and holds at most one chunk at a time.
The master splits every batch into one balanced share per live worker
(:func:`plan_chunks`: each share within one item of ``ceil(n/live)``),
placing a child with the worker that scored its parent whenever balance
allows — that worker's similarity LRU then answers the delta re-score.
A worker's share goes out as one :class:`~repro.parallel.messages.WorkChunk`;
when its :class:`~repro.parallel.messages.ChunkResult` comes back the
worker gets the next chunk (a requeued one, the rest of its share, or
part of the largest remaining share), so no worker idles while work is
undispatched.  Affinity is advisory: a mis-placed child only costs a
full sweep, never a wrong score.

Elastic pool (the telemetry-driven control loop)
------------------------------------------------
The pool is *elastic*: a :class:`~repro.parallel.elastic.ScalingPolicy`
(``scaling="fixed" | "queue-depth" | "latency-target"``, or any policy
instance) observes queue depth, a per-item latency EWMA and per-worker
backlog skew on every scheduling step and resizes the pool between
``min_workers`` and ``max_workers``:

* **scale-up** spawns workers that *late-attach* to the existing
  :class:`~repro.ppi.shm.SharedProteomeView` segment (a handle, not a
  pickled engine, crosses the process boundary — the same broadcast the
  initial pool got);
* **scale-down** takes back a retiring worker's chunk if it is still
  queued, hands it to a live worker, then sends a
  :class:`~repro.parallel.messages.RetireSignal` — a retiring worker
  that crashes instead of exiting cleanly is recovered by the exact
  death machinery above;
* **chunk size**: the policy may cap it (latency-target sizes chunks to
  ``target_s`` of work per worker), keeping the master responsive to
  stragglers.

Policies decide, the provider executes — so elastic runs return scores
bit-exact with the fixed pool, whatever the policy does.  The control
loop shares the resilience layer's injectable clock
(:class:`~repro.resilience.Deadline` cooldowns; the provider's ``clock``
parameter also drives stall detection, making timeout paths testable
without real sleeps).

The provider shares the bounded-LRU score cache with the serial path
through :class:`~repro.ga.fitness.CachingScoreProvider` and reports the
master-side view of the runtime through telemetry: batch wall time
(``parallel.batch`` for pool dispatch, ``parallel.batch_wall`` for
every scoring call), dispatch counters, the live outstanding-item count
(``parallel.queue_depth``, decaying to 0 as each batch drains), the pool
size and latency signals (``parallel.pool_size``,
``parallel.item_latency_ewma``, ``parallel.scale_{up,down}``,
``parallel.retired``), the fault-tolerance counters
(``parallel.{worker_deaths,respawns,retries,stale_dropped,failures}``)
and — from the worker-reported per-item wall times — per-worker busy
time, item counts, throughput and utilisation
(:meth:`MultiprocessScoreProvider.worker_stats`), exactly the quantities
behind the paper's Figures 5–6.

Every ``*_stats()`` view reads those instruments by name (a private
registry unless ``telemetry=`` is given; providers sharing one registry
add up in each other's views).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from collections import Counter, OrderedDict, deque

import numpy as np

from repro.ga import fitness
from repro.ga.fitness import CachingScoreProvider, ScoreSet
from repro.parallel.elastic import (
    ElasticController,
    PoolSnapshot,
    ScalingPolicy,
    make_scaling_policy,
)
from repro.parallel.messages import (
    ChunkResult,
    EndSignal,
    RetireSignal,
    WorkChunk,
    WorkFailure,
    WorkItem,
    WorkResult,
)
from repro.parallel.worker import FaultPlan, WorkerContext, worker_loop
from repro.ppi.delta import Provenance, SimilarityLRU
from repro.ppi.pipe import PipeEngine
from repro.ppi.shm import SharedProteomeView
from repro.resilience.policies import BreakerState, CircuitBreaker
from repro.telemetry import MetricsRegistry, TimerStat

__all__ = [
    "MultiprocessScoreProvider",
    "WorkerFailureError",
    "DeadWorkerError",
    "plan_chunks",
]


class WorkerFailureError(RuntimeError):
    """Scoring raised inside a worker; carries the worker traceback."""


class DeadWorkerError(RuntimeError):
    """Workers died and an item exhausted its re-dispatch retry budget."""


def _worker_entry(worker_id, context, task_queue, result_queue):
    """Top-level function so it pickles under any start method."""
    worker_loop(worker_id, context, task_queue, result_queue)


def plan_chunks(
    preferred: list[int | None], workers: list[int]
) -> tuple[dict[int, list[int]], int]:
    """Split items ``0..n-1`` into one balanced share per worker.

    Every worker gets ``floor(n/live)`` or ``ceil(n/live)`` items; the
    ``n % live`` larger shares go to the workers most items prefer.  Item
    ``i`` joins its ``preferred[i]`` worker (the one that scored its
    parent) while that share has room; the rest fill the remaining room
    in ``workers`` order.  Returns the shares, each in item order, and
    how many items were placed with their preferred worker.
    """
    if not workers:
        raise ValueError("plan_chunks needs at least one worker")
    base, extra = divmod(len(preferred), len(workers))
    demand = Counter(p for p in preferred if p is not None)
    ranked = sorted(workers, key=lambda wid: (-demand[wid], wid))
    quota = {wid: base + (rank < extra) for rank, wid in enumerate(ranked)}
    shares: dict[int, list[int]] = {wid: [] for wid in workers}
    unplaced: list[int] = []
    for i, wid in enumerate(preferred):
        if wid in shares and len(shares[wid]) < quota[wid]:
            shares[wid].append(i)
        else:
            unplaced.append(i)
    routed = len(preferred) - len(unplaced)
    rest = iter(unplaced)
    for wid in workers:
        for _ in range(quota[wid] - len(shares[wid])):
            shares[wid].append(next(rest))
        shares[wid].sort()
    return shares, routed


class MultiprocessScoreProvider(CachingScoreProvider):
    """Master-side score provider dispatching candidates to worker
    processes on demand, with task-level fault tolerance (see the module
    docstring for the recovery semantics).

    Use as a context manager (``with MultiprocessScoreProvider(...) as p:``)
    so the workers are reaped even when the surrounding GA raises.

    Parameters
    ----------
    engine:
        The broadcast PIPE engine (pickled to each worker at spawn — the
        paper's "broadcast all loaded data to worker processes").
    target, non_targets:
        The design problem.
    num_workers:
        Initial worker process count (paper: nodes - 1; default:
        available CPUs).  Under an elastic policy this is where the pool
        *starts*; it then floats between ``min_workers`` and
        ``max_workers``.
    min_workers, max_workers:
        Bounds of the elastic pool.  Default to ``num_workers`` for the
        fixed policy (no resizing) and to ``(1, num_workers)`` for the
        adaptive ones.  Ignored when ``scaling`` is already a policy
        instance (its own bounds win).
    scaling:
        ``"fixed"`` (default — the classic constant pool),
        ``"queue-depth"``, ``"latency-target"``, or any
        :class:`~repro.parallel.elastic.ScalingPolicy` instance.
    latency_target_s:
        The ``latency-target`` policy's wall-clock drain target.
    scale_cooldown_s:
        Minimum time (by ``clock``) between resizes — hysteresis against
        scale thrash; 0 disables.
    clock:
        Monotonic clock used by stall detection and the elastic
        controller's cooldowns (injectable for tests; default
        :func:`time.monotonic`).
    timeout:
        Seconds of *no progress* (no reply received, no dead worker
        recovered) the collection loop tolerates before declaring the
        pool stalled (degrading the batch, or raising under
        ``fail_fast``).
    poll_interval:
        Sub-timeout of each result-queue poll; between polls the loop
        checks worker liveness, so a worker death is detected within
        roughly one interval instead of one full ``timeout``.
    max_retries:
        Per-item budget of re-dispatches after worker deaths; exceeding
        it degrades the batch to master-serial scoring (or raises
        :class:`DeadWorkerError` under ``fail_fast``).
    fail_fast:
        When True, pool loss raises (:class:`DeadWorkerError` /
        ``RuntimeError``) exactly as before the supervisor existed; when
        False (default) lost items are scored serially in the master and
        the circuit breaker keeps the provider serial until a half-open
        probe finds the pool healthy again.
    breaker:
        The :class:`~repro.resilience.CircuitBreaker` guarding the pool;
        defaults to one that probes every 4th batch while open.  Ignored
        under ``fail_fast``.
    close_grace_s:
        Per-worker join grace during :meth:`close` before escalating to
        ``terminate()`` then ``kill()`` (``parallel.force_killed``).
    cache_size:
        Bound of the shared LRU score cache.
    similarity_cache_size:
        Bound of each worker's local similarity-structure LRU (the delta
        path's patch source) and of the master's parent→worker affinity
        map that mirrors it.
    use_delta:
        When False, workers always run the full similarity sweep and
        chunks are planned without parent affinity (the benchmark
        baseline).
    share_memory:
        When True (default), the database's read-only arrays are placed
        in a single ``multiprocessing.shared_memory`` segment
        (:class:`~repro.ppi.shm.SharedProteomeView`) and workers receive
        a kilobyte-scale handle instead of a pickled engine — every
        worker maps the same physical proteome pages.  The segment is
        refcounted and unlinked on the provider's last :meth:`close`;
        a SIGKILLed worker cannot leak it.  Set False to restore the
        classic pickle-the-engine broadcast.
    faults:
        Test-only :class:`~repro.parallel.worker.FaultPlan` forwarded to
        the workers; leave ``None`` in production.
    telemetry:
        Metrics registry the runtime records into and every ``*_stats()``
        view reads; defaults to a fresh private
        :class:`~repro.telemetry.MetricsRegistry` (``NULL_REGISTRY``
        turns recording, and with it the views, off).
    """

    def __init__(
        self,
        engine: PipeEngine,
        target: str,
        non_targets: list[str],
        *,
        num_workers: int | None = None,
        min_workers: int | None = None,
        max_workers: int | None = None,
        scaling: "ScalingPolicy | str" = "fixed",
        latency_target_s: float = 0.25,
        scale_cooldown_s: float = 0.0,
        clock=time.monotonic,
        timeout: float = 300.0,
        poll_interval: float = 0.25,
        max_retries: int = 3,
        start_method: str | None = None,
        cache_size: int = 100_000,
        similarity_cache_size: int = 256,
        use_delta: bool = True,
        fail_fast: bool = False,
        breaker: CircuitBreaker | None = None,
        close_grace_s: float = 10.0,
        share_memory: bool = True,
        faults: FaultPlan | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {poll_interval}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if similarity_cache_size < 1:
            raise ValueError(
                f"similarity_cache_size must be >= 1, got {similarity_cache_size}"
            )
        if close_grace_s < 0:
            raise ValueError(f"close_grace_s must be >= 0, got {close_grace_s}")
        super().__init__(
            cache_size=cache_size,
            telemetry=telemetry if telemetry is not None else MetricsRegistry(),
        )
        self.context = WorkerContext(
            engine,
            target,
            list(non_targets),
            faults,
            similarity_cache_size=similarity_cache_size,
            use_delta=use_delta,
        )
        self.num_workers = num_workers or max(1, os.cpu_count() or 1)
        if isinstance(scaling, ScalingPolicy):
            self._policy = scaling
        else:
            if scaling == "fixed":
                lo = min_workers if min_workers is not None else self.num_workers
                hi = max_workers if max_workers is not None else self.num_workers
            else:
                lo = min_workers if min_workers is not None else 1
                hi = max_workers if max_workers is not None else max(
                    self.num_workers, min_workers or 1
                )
            self._policy = make_scaling_policy(
                scaling,
                min_workers=lo,
                max_workers=hi,
                latency_target_s=latency_target_s,
            )
        self.min_workers = self._policy.min_workers
        self.max_workers = self._policy.max_workers
        self._clock = clock
        self._controller = ElasticController(
            self._policy, cooldown_s=scale_cooldown_s, clock=clock
        )
        self._target_workers = self._policy.clamp(self.num_workers)
        self.timeout = float(timeout)
        self.poll_interval = float(poll_interval)
        self.max_retries = int(max_retries)
        self.use_delta = bool(use_delta)
        self.fail_fast = bool(fail_fast)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.close_grace_s = float(close_grace_s)
        method = start_method or ("fork" if "fork" in mp.get_all_start_methods() else None)
        self._ctx = mp.get_context(method)
        self.share_memory = bool(share_memory)
        self._shm_view: SharedProteomeView | None = None
        self._ship_context: WorkerContext = self.context
        self._result_queue = None
        self._workers: dict[int, mp.Process] = {}
        # Each worker's own queue: its chunks, then End/RetireSignal.
        self._queues: dict[int, object] = {}
        self._retiring: dict[int, mp.Process] = {}
        self._next_worker_id = 0
        # Fabric-registered problems: items dispatched through
        # :meth:`score_fused` carry one of these ids and are scored
        # against that problem instead of the context default.
        self._problems: dict[int, tuple[str, tuple[str, ...]]] = {}
        self._next_problem_id = 0
        self._epoch = 0
        # Master-side similarity LRU backing the serial-degradation path
        # (same role as each worker's local LRU).
        self._master_similarity = SimilarityLRU(int(similarity_cache_size))
        # Which worker last scored each sequence (by encoded bytes),
        # bounded to mirror the worker-side similarity LRUs it predicts.
        self._affinity: OrderedDict[bytes, int] = OrderedDict()
        self._affinity_size = int(similarity_cache_size)

    @property
    def target(self) -> str:
        """The design problem's target, mirroring the serial provider's
        attribute — checkpoint fingerprints read it off any provider."""
        return self.context.target

    @property
    def non_targets(self) -> list[str]:
        return list(self.context.non_targets)

    # -- fused multi-problem scoring (the fabric surface) --------------------

    def register_problem(self, target: str, non_targets: list[str]) -> int:
        """Register one ``(target, non_targets)`` design problem and
        return its id for :meth:`score_fused` items.

        Validates the names against the proteome up front (a typo fails
        here, not inside a worker).  Problems registered before the pool
        starts contribute their similarity structures to the shared
        proteome segment; later registrations are self-describing on the
        wire and warmed worker-side on first sight.
        """
        non_targets = list(non_targets)
        if target in non_targets:
            raise ValueError(
                f"target {target!r} also appears in the non-target list"
            )
        graph = self.context.engine.database.graph
        graph.index_of(target)
        for nt in non_targets:
            graph.index_of(nt)
        pid = self._next_problem_id
        self._next_problem_id += 1
        spec = (target, tuple(non_targets))
        self._problems[pid] = spec
        if self.context.problems is None:
            self.context.problems = {}
        # The ship context shares this dict (dataclasses.replace copies
        # the reference), so workers spawned later inherit the table.
        self.context.problems[pid] = spec
        return pid

    def score_fused(
        self,
        arrays: list[np.ndarray],
        provenances: list[Provenance | None] | None,
        problem_ids: list[int | None],
    ) -> list[ScoreSet]:
        """Score one fused batch whose items may belong to *different*
        registered problems.

        This entry point deliberately bypasses the provider-level score
        cache: that LRU is keyed by sequence bytes alone, which is only
        correct when every item shares one problem.  Fabric clients keep
        their own per-problem caches instead.  Degradation, retries,
        chunk planning and the elastic pool behave exactly as in
        :meth:`scores` — the similarity sweep is problem-independent, so
        parent affinity across problems stays valid.
        """
        arrs = [np.asarray(a, dtype=np.uint8) for a in arrays]
        provs = (
            list(provenances) if provenances is not None else [None] * len(arrs)
        )
        pids = list(problem_ids)
        if len(provs) != len(arrs) or len(pids) != len(arrs):
            raise ValueError(
                f"{len(arrs)} sequences, {len(provs)} provenances, "
                f"{len(pids)} problem ids — lengths must match"
            )
        for pid in pids:
            if pid is not None and pid not in self._problems:
                raise ValueError(f"unregistered problem id {pid}")
        self._closed = False
        return self._score_problem_batch(arrs, provs, pids)

    # -- lifecycle ---------------------------------------------------------

    def _spawn_worker(self) -> int:
        """Start one worker process under a fresh, never-reused worker id,
        with its own queue.

        A worker spawned mid-campaign (elastic scale-up) late-attaches to
        the existing shared proteome segment; if the segment is somehow
        gone the pickled engine is shipped instead — slower, never wrong.
        """
        wid = self._next_worker_id
        self._next_worker_id += 1
        ship = self._ship_context
        if ship is not self.context and self._shm_view is not None:
            if self._shm_view.closed or not SharedProteomeView.attachable(
                self._shm_view.handle
            ):  # pragma: no cover - defensive, segment lives while open
                ship = self.context
        task_queue = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(wid, ship, task_queue, self._result_queue),
            daemon=True,
        )
        proc.start()
        self._workers[wid] = proc
        self._queues[wid] = task_queue
        self.telemetry.set_gauge("parallel.pool_size", len(self._workers))
        return wid

    def _ensure_started(self) -> None:
        if self._workers:
            return
        # Warm the shared engine cache *before* forking so every worker
        # inherits the preprocessed target/non-target structures instead of
        # recomputing them (the paper's offline preprocessing + broadcast).
        with self.telemetry.span("parallel.spawn"):
            self.context.warm_cache()
            if self.share_memory and self._shm_view is None:
                # One segment holds the proteome arrays plus the
                # preprocessed target/non-target similarity CSRs; workers
                # get the handle, not the engine.
                names = [self.context.target, *self.context.non_targets]
                for tgt, nts in self._problems.values():
                    names.append(tgt)
                    names.extend(nts)
                self._shm_view = SharedProteomeView.share(
                    self.context.engine.database,
                    similarity_names=list(dict.fromkeys(names)),
                    telemetry=self.telemetry,
                )
                self._ship_context = self.context.for_shipment(
                    self._shm_view.handle
                )
            self._result_queue = self._ctx.Queue()
            for _ in range(self._target_workers):
                self._spawn_worker()
        self.telemetry.count("parallel.spawns")

    def close(self) -> None:
        if not self._workers and not self._retiring:
            self._release_shm()
            super().close()
            return
        # Chunks a failed or timed-out batch left on the queues would be
        # scored ahead of the EndSignal — wasted work that delays
        # shutdown.  Take them back first and account for them as stale,
        # like the orphaned replies drained while the workers exit.
        for task_queue in self._queues.values():
            self._drain_stale(task_queue)
            task_queue.put(EndSignal())
        for proc in [*self._workers.values(), *self._retiring.values()]:
            deadline = time.monotonic() + self.close_grace_s
            while proc.is_alive() and time.monotonic() < deadline:
                # Keep reading replies so no worker blocks flushing one.
                self._drain_stale(self._result_queue)
                proc.join(timeout=0.05)
            if proc.is_alive():
                # A hung or wedged worker will never see the EndSignal;
                # escalate so close() stays bounded.
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
                self.telemetry.count("parallel.force_killed")
        self._drain_stale(self._result_queue)
        self._workers = {}
        self._queues = {}
        self._retiring = {}
        self._affinity.clear()
        self._result_queue = None
        # Workers are gone (joined, terminated or killed above), so this
        # is the last mapping in our ownership scope: unlink-on-last-close.
        self._release_shm()
        super().close()

    def _drain_stale(self, source) -> None:
        """Empty a queue, counting every item of every chunk, result or
        failure on it as stale."""
        while True:
            try:
                msg = source.get_nowait()
            except queue_mod.Empty:
                return
            if isinstance(msg, WorkChunk):
                self._drop_stale(len(msg.items))
            elif isinstance(msg, ChunkResult):
                self._drop_stale(len(msg.results))
            elif isinstance(msg, WorkFailure):
                self._drop_stale()

    def _release_shm(self) -> None:
        """Drop the shared proteome segment; safe with dead workers (the
        kernel frees memory when the last mapping disappears)."""
        if self._shm_view is not None:
            self._shm_view.close()
            self._shm_view = None
        self._ship_context = self.context

    # -- scoring -----------------------------------------------------------

    def _preferred_worker(self, provenance: Provenance | None) -> int | None:
        """The live worker most likely to hold the parents' similarity
        structures (by the master's scored-by affinity map), weighted by
        how many child residues each parent covers."""
        if provenance is None:
            return None
        votes: dict[int, int] = {}
        for segment in provenance.segments:
            wid = self._affinity.get(segment.parent_key)
            if wid is not None and wid in self._workers:
                votes[wid] = votes.get(wid, 0) + segment.length
        if not votes:
            return None
        return max(votes, key=lambda wid: (votes[wid], -wid))

    def _problem_of(self, pid: int | None) -> tuple[str, tuple[str, ...]]:
        if pid is None:
            return self.context.target, tuple(self.context.non_targets)
        return self._problems[pid]

    def _score_uncached(
        self,
        arrays: list[np.ndarray],
        provenances: list[Provenance | None] | None = None,
    ) -> list[ScoreSet]:
        provs = (
            list(provenances) if provenances is not None else [None] * len(arrays)
        )
        return self._score_problem_batch(arrays, provs, [None] * len(arrays))

    def _score_problem_batch(
        self,
        arrays: list[np.ndarray],
        provs: list[Provenance | None],
        pids: list[int | None],
    ) -> list[ScoreSet]:
        """One batch through the supervised pool; ``pids`` binds each item
        to a registered problem (None = the context default)."""
        start = time.perf_counter()
        degrade = not self.fail_fast
        if degrade and not self.breaker.allow():
            # Breaker open: the pool recently lost a batch; stay serial
            # (no respawn-and-die thrash) until a probe is due.
            results = self._score_in_master(
                arrays, provs, pids, reason="breaker_open"
            )
        else:
            probing = degrade and self.breaker.state == BreakerState.HALF_OPEN
            if probing:
                self.telemetry.count("parallel.breaker_probes")
            degraded = 0
            try:
                results, degraded = self._score_via_pool(arrays, provs, pids)
            finally:
                # A WorkerFailureError (scoring bug) says nothing about
                # pool health, so only batches that ran to completion
                # update the breaker.
                if degrade and (degraded or probing):
                    if degraded:
                        self.breaker.record_failure()
                    else:
                        self.breaker.record_success()
        self.telemetry.record_timing(
            "parallel.batch_wall", time.perf_counter() - start
        )
        return results

    def _set_queue_depth(self, depth: int) -> None:
        self.telemetry.set_gauge("parallel.queue_depth", depth)

    def _score_via_pool(
        self,
        arrays: list[np.ndarray],
        provs: list[Provenance | None],
        pids: list[int | None],
    ) -> tuple[list[ScoreSet], int]:
        """Dispatch one batch to the worker pool; returns the scores and
        how many items had to be degraded to master-serial scoring."""
        self._ensure_started()
        # Workers lost *between* batches: reap them now so the plan and
        # the controller observe the real pool, then refill to target.
        if self._reap_dead_workers():
            self._respawn_to_target()
        self._epoch += 1
        epoch = self._epoch
        degraded = 0
        results: list[ScoreSet | None] = [None] * len(arrays)
        with self.telemetry.span("parallel.batch"):
            items = [
                WorkItem.from_encoded(
                    sid,
                    arr,
                    batch_epoch=epoch,
                    provenance=provs[sid] if self.use_delta else None,
                    problem_id=pids[sid],
                    problem=self._problems[pids[sid]]
                    if pids[sid] is not None
                    else None,
                )
                for sid, arr in enumerate(arrays)
            ]
            pending = set(range(len(items)))
            # Planned, not yet sent: one share per worker, plus the items
            # taken back from dead or retiring workers (served first).
            shares: dict[int, deque[int]] = {}
            requeued: deque[int] = deque()
            # The one sent, unacknowledged chunk of each worker.
            inflight: dict[int, tuple[int, ...]] = {}
            retries: dict[int, int] = {}

            def load() -> dict[int, int]:
                return {
                    wid: len(shares.get(wid, ())) + len(inflight.get(wid, ()))
                    for wid in self._workers
                }

            def snapshot() -> PoolSnapshot:
                return PoolSnapshot(
                    live_workers=len(self._workers),
                    backlog=len(pending),
                    outstanding=sum(len(c) for c in inflight.values()),
                    latency_ewma_s=self._controller.latency_ewma_s,
                    max_sticky_backlog=max(load().values(), default=0),
                    batch_size=len(items),
                )

            def resize() -> None:
                for wid, taken in self._maybe_resize(snapshot(), load()).items():
                    if taken:
                        inflight.pop(wid, None)
                        requeued.extend(taken)

            def fill() -> None:
                # On demand: every idle live worker gets its next chunk,
                # capped by the policy's chunk size (None = whole share).
                limit = self._controller.chunk_limit(snapshot())
                cap = (
                    None
                    if limit is None
                    else max(1, limit // max(1, len(self._workers)))
                )
                idle = [wid for wid in self._workers if wid not in inflight]
                # Workers with a share of their own are served before any
                # idle worker steals from the largest remaining share.
                idle.sort(key=lambda wid: not shares.get(wid))
                for wid in idle:
                    source = (
                        requeued
                        or shares.get(wid)
                        or max(shares.values(), key=len, default=None)
                    )
                    if not source:
                        break  # nothing left to send
                    take = len(source) if cap is None else min(cap, len(source))
                    sids = tuple(sorted(source.popleft() for _ in range(take)))
                    if source is not requeued:
                        self.telemetry.count("parallel.dispatched", take)
                    inflight[wid] = sids
                    self._queues[wid].put(
                        WorkChunk(tuple(items[sid] for sid in sids), epoch)
                    )
                self._set_queue_depth(len(pending))

            try:
                resize()
                preferred = [
                    self._preferred_worker(prov) if self.use_delta else None
                    for prov in provs
                ]
                plan, routed = plan_chunks(preferred, list(self._workers))
                shares.update((wid, deque(sids)) for wid, sids in plan.items())
                if routed:
                    self.telemetry.count("parallel.sticky_routed", routed)
                fill()
                last_progress = self._clock()
                while pending:
                    try:
                        msg = self._result_queue.get(timeout=self.poll_interval)
                    except queue_mod.Empty:
                        dead = self._reap_dead_workers()
                        if dead:
                            lost = sorted(
                                sid for wid in dead for sid in inflight.pop(wid, ())
                            )
                            try:
                                self._recover(dead, lost, retries)
                            except DeadWorkerError as exc:
                                if self.fail_fast:
                                    raise
                                degraded += self._degrade_pending(
                                    arrays, provs, pids, pending, results,
                                    reason=str(exc),
                                )
                                break
                            requeued.extend(lost)
                            last_progress = self._clock()
                        elif self._clock() - last_progress > self.timeout:
                            missing = sorted(pending)
                            if self.fail_fast:
                                raise RuntimeError(
                                    f"timed out waiting for worker results "
                                    f"({len(arrays) - len(pending)}/{len(arrays)} "
                                    f"received; missing sequence ids {missing[:10]})"
                                ) from None
                            degraded += self._degrade_pending(
                                arrays, provs, pids, pending, results,
                                reason=(
                                    f"collection stalled for {self.timeout}s "
                                    f"with {len(pending)} item(s) outstanding"
                                ),
                            )
                            break
                        resize()
                        fill()
                        continue
                    last_progress = self._clock()
                    if isinstance(msg, WorkFailure):
                        if msg.batch_epoch != epoch:
                            self._drop_stale()
                            continue
                        self.telemetry.count("parallel.failures")
                        raise WorkerFailureError(
                            f"worker {msg.worker_id} failed on sequence "
                            f"{msg.sequence_id}: {msg.error}\n"
                            f"--- worker traceback ---\n{msg.traceback}"
                        )
                    if not isinstance(msg, ChunkResult):  # pragma: no cover
                        raise TypeError(f"unexpected result {type(msg).__name__}")
                    if msg.batch_epoch != epoch:
                        # Orphaned by an earlier, abandoned batch.
                        self._drop_stale(len(msg.results))
                        continue
                    inflight.pop(msg.worker_id, None)
                    for result in msg.results:
                        sid = result.sequence_id
                        if sid not in pending:
                            # A requeued item that completed twice.
                            self._drop_stale()
                            continue
                        results[sid] = result.scores
                        pending.discard(sid)
                        self._record_result(result, items[sid].payload)
                    resize()
                    fill()
            finally:
                # Whatever path ended the batch, consumers of the gauge
                # must never read a stale mid-batch depth.
                self._set_queue_depth(0)
        assert all(r is not None for r in results)
        return results, degraded  # type: ignore[return-value]

    # -- graceful degradation ----------------------------------------------

    def _score_in_master(
        self,
        arrays: list[np.ndarray],
        provs: list[Provenance | None],
        pids: list[int | None],
        *,
        reason: str,
    ) -> list[ScoreSet]:
        """Score items serially in the master, exactly as a worker would.

        Runs the same :func:`~repro.ga.fitness.score_batch` the workers
        run (delta re-scoring is bit-exact with the full sweep), so a
        degraded item's scores match the pool's answer bit for bit.
        Counts one degraded batch and ``len(arrays)`` degraded items.
        """
        # The pool may never have started (breaker tripped on batch one of
        # a fresh provider after resume); make sure the master's engine
        # holds the preprocessed problem structures.
        self.context.warm_cache()
        self.telemetry.count("parallel.degraded_batches")
        self.telemetry.event("parallel.degraded", items=len(arrays), reason=reason)
        with self.telemetry.span("parallel.degraded_scoring"):
            scored = fitness.score_batch(
                self.context.engine,
                self._master_similarity,
                arrays,
                provs,
                [self._problem_of(pid) for pid in pids],
                self.use_delta,
            )
        for _, stats in scored:
            self._record_delta(stats)
        self.telemetry.count("parallel.degraded_items", len(scored))
        return [scores for scores, _ in scored]

    def _degrade_pending(
        self,
        arrays: list[np.ndarray],
        provs: list[Provenance | None],
        pids: list[int | None],
        pending: set[int],
        results: list[ScoreSet | None],
        *,
        reason: str,
    ) -> int:
        """Score this batch's unacknowledged items serially in the master.

        Called when the pool is lost (retry budget exhausted) or stalled
        (no progress past ``timeout``); fills ``results`` in place and
        empties ``pending``.
        """
        sids = sorted(pending)
        scores = self._score_in_master(
            [arrays[sid] for sid in sids],
            [provs[sid] for sid in sids],
            [pids[sid] for sid in sids],
            reason=reason,
        )
        for sid, score_set in zip(sids, scores):
            results[sid] = score_set
        pending.clear()
        return len(sids)

    # -- elastic control ---------------------------------------------------

    def _maybe_resize(
        self, snap: PoolSnapshot, load: dict[int, int]
    ) -> dict[int, list[int]]:
        """Converge the pool toward the controller's decision.

        Scale-up spawns workers (late-attaching to the shared proteome
        segment); scale-down retires the least-loaded workers first,
        never dropping below one live worker mid-batch.  The target is
        then pinned to the executed size so death recovery
        (:meth:`_respawn_to_target`) refills to what the policy last
        wanted, not the original ``num_workers``.  Returns, per retired
        worker, the sequence ids of the chunk taken back from its queue.
        """
        desired = self._controller.decide(snap)
        live = len(self._workers)
        taken: dict[int, list[int]] = {}
        if desired > live:
            added = 0
            while len(self._workers) < desired:
                self._spawn_worker()
                added += 1
            self.telemetry.count("parallel.scale_up", added)
        elif desired < live:
            floor = max(1, self.min_workers)
            # Retire the coldest workers first: the least work to hand
            # over, the least affinity state thrown away.
            candidates = sorted(
                self._workers, key=lambda wid: (load.get(wid, 0), -wid)
            )
            for wid in candidates:
                if len(self._workers) <= max(floor, desired):
                    break
                taken[wid] = self._retire_worker(wid)
            if taken:
                self.telemetry.count("parallel.scale_down", len(taken))
        self._target_workers = len(self._workers)
        return taken

    def _retire_worker(self, wid: int) -> list[int]:
        """Retire one worker: take back its chunk if still queued, then
        send the :class:`RetireSignal` (FIFO guarantees no chunk can be
        trapped behind the signal).  Returns the taken-back sequence ids
        of the current batch."""
        proc = self._workers.pop(wid)
        self._retiring[wid] = proc
        task_queue = self._queues.pop(wid)
        taken: list[int] = []
        while True:
            try:
                parked = task_queue.get_nowait()
            except queue_mod.Empty:
                break
            if isinstance(parked, WorkChunk):
                if parked.batch_epoch == self._epoch:
                    taken.extend(item.sequence_id for item in parked.items)
                else:
                    self._drop_stale(len(parked.items))
        task_queue.put(RetireSignal())
        self.telemetry.set_gauge("parallel.pool_size", len(self._workers))
        return taken

    def _respawn_to_target(self) -> None:
        """Refill the pool to the controller's last executed target."""
        while len(self._workers) < max(1, self._target_workers):
            self._spawn_worker()
            self.telemetry.count("parallel.respawns")

    # -- fault handling ----------------------------------------------------

    def _reap_dead_workers(self) -> list[int]:
        """Remove and count workers whose processes have exited.

        Retiring workers (elastic scale-down) are reaped here too: a clean
        exit (``exitcode`` 0) is the expected retirement and counts as
        ``parallel.retired``; a nonzero exit is a death like any other and
        joins the returned list so recovery re-dispatches its chunk.
        """
        dead = [wid for wid, proc in self._workers.items() if not proc.is_alive()]
        for wid in dead:
            proc = self._workers.pop(wid)
            proc.join(timeout=0.1)
            self._queues.pop(wid, None)
            self.telemetry.count("parallel.worker_deaths")
        for wid in [w for w, p in self._retiring.items() if not p.is_alive()]:
            proc = self._retiring.pop(wid)
            proc.join(timeout=0.1)
            if proc.exitcode not in (0, None):
                # Died mid-retirement — its chunk in hand needs recovery.
                dead.append(wid)
                self.telemetry.count("parallel.worker_deaths")
            else:
                self.telemetry.count("parallel.retired")
        if dead:
            self.telemetry.set_gauge("parallel.pool_size", len(self._workers))
        return dead

    def _recover(
        self, dead: list[int], lost: list[int], retries: dict[int, int]
    ) -> None:
        """Respawn replacements and charge the dead workers' lost items
        one retry each; the caller requeues them for a live worker.

        Raises :class:`DeadWorkerError` when an item has already used its
        ``max_retries`` re-dispatches.
        """
        self._respawn_to_target()
        exhausted = [sid for sid in lost if retries.get(sid, 0) >= self.max_retries]
        if exhausted:
            raise DeadWorkerError(
                f"worker(s) {sorted(dead)} died and sequence(s) "
                f"{exhausted[:10]} exhausted the retry budget of "
                f"{self.max_retries}; {len(lost)} item(s) lost"
            )
        for sid in lost:
            retries[sid] = retries.get(sid, 0) + 1
        if lost:
            self.telemetry.count("parallel.retries", len(lost))

    def _drop_stale(self, items: int = 1) -> None:
        self.telemetry.count("parallel.stale_dropped", items)

    def _record_result(self, msg: WorkResult, payload: bytes | None = None) -> None:
        wid = msg.worker_id
        ewma = self._controller.observe_latency(msg.elapsed)
        self.telemetry.set_gauge("parallel.item_latency_ewma", ewma)
        if payload is not None:
            # This worker now holds the sequence's similarity structure in
            # its local LRU — future children of this sequence stick here.
            self._affinity[payload] = wid
            self._affinity.move_to_end(payload)
            while len(self._affinity) > self._affinity_size:
                self._affinity.popitem(last=False)
        self._record_delta(msg.delta)
        self.telemetry.count(f"parallel.worker.{wid}.items")
        self.telemetry.record_timing(f"parallel.worker.{wid}.busy", msg.elapsed)

    # -- runtime statistics --------------------------------------------------

    def _timer(self, name: str) -> TimerStat:
        found = self.telemetry.lookup(name)
        return found if isinstance(found, TimerStat) else TimerStat()

    def worker_stats(self) -> dict[int, dict[str, float]]:
        """Per-worker throughput summary from worker-reported wall times
        (``parallel.worker.<id>.items`` / ``.busy``).

        ``utilisation`` divides a worker's busy time by the provider's
        total batch wall time (``parallel.batch_wall``) — the per-worker
        efficiency panel of the paper's worker-scaling figures.
        """
        batch_wall = self._timer("parallel.batch_wall").total
        out: dict[int, dict[str, float]] = {}
        for wid in range(self._next_worker_id):
            items = self.telemetry.counted(f"parallel.worker.{wid}.items")
            if not items:
                continue
            busy = self._timer(f"parallel.worker.{wid}.busy").total
            out[wid] = {
                "items": float(items),
                "busy_s": busy,
                "throughput_per_s": items / busy if busy > 0 else 0.0,
                "utilisation": busy / batch_wall if batch_wall > 0 else 0.0,
            }
        return out

    def delta_stats(self) -> dict[str, int]:
        """The ``pipe.delta.*`` counters, pool and master-serial scoring
        alike; ``sticky_routed`` (``parallel.sticky_routed``) counts items
        the chunk planner placed with the worker that scored their parent.
        """
        read = self.telemetry.counted
        keys = ("hits", "fallbacks", "rows_rescored", "rows_total")
        return {
            **{key: read(f"pipe.delta.{key}") for key in keys},
            "sticky_routed": read("parallel.sticky_routed"),
        }

    def fault_stats(self) -> dict[str, object]:
        """Fault-tolerance counters (``parallel.<key>``), the breaker and
        the current batch epoch."""
        keys = (
            "worker_deaths", "respawns", "retries", "stale_dropped",
            "failures", "degraded_items", "degraded_batches", "force_killed",
        )
        return {
            **{key: self.telemetry.counted(f"parallel.{key}") for key in keys},
            "breaker": self.breaker.stats(),
            "epoch": self._epoch,
        }

    def elastic_stats(self) -> dict[str, object]:
        """The elastic controller's state plus the resize counters
        (``parallel.scale_up`` / ``scale_down`` / ``retired``)."""
        read = self.telemetry.counted
        return {
            **self._controller.stats(),
            "live_workers": len(self._workers),
            "target_workers": self._target_workers,
            "scale_ups": read("parallel.scale_up"),
            "scale_downs": read("parallel.scale_down"),
            "retired": read("parallel.retired"),
        }

    def runtime_stats(self) -> dict[str, object]:
        """Master-side runtime summary (batches, wall time, cache, workers)."""
        batch = self._timer("parallel.batch_wall")
        return {
            "num_workers": self.num_workers,
            "dispatched": self.telemetry.counted("parallel.dispatched"),
            "batches": batch.count,
            "batch_wall_s": batch.total,
            "cache": self.cache_stats,
            "workers": self.worker_stats(),
            "fault_tolerance": self.fault_stats(),
            "elastic": self.elastic_stats(),
            "delta": self.delta_stats(),
            "shm": self.shm_stats(),
        }

    def shm_stats(self) -> dict[str, object] | None:
        """Shared-proteome segment accounting; None when ``share_memory``
        is off or the pool has not started."""
        return self._shm_view.stats() if self._shm_view is not None else None
