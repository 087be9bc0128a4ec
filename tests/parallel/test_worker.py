"""Tests for the worker main loop (in-process, no child processes)."""

import queue

import numpy as np
import pytest

import repro.parallel.mp_backend as mp_backend
import repro.parallel.worker as worker_mod
from repro.ga import fitness
from repro.ga.fitness import SerialScoreProvider, score_batch
from repro.parallel.messages import (
    ChunkResult,
    EndSignal,
    WorkChunk,
    WorkFailure,
    WorkItem,
    WorkResult,
)
from repro.parallel.mp_backend import MultiprocessScoreProvider
from repro.parallel.worker import FaultPlan, WorkerContext, worker_loop


@pytest.fixture()
def context(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    return WorkerContext(tiny_engine, target, non_targets)


def _chunk(rng, n, epoch=0):
    return WorkChunk(
        tuple(
            WorkItem.from_encoded(
                i, rng.integers(0, 20, size=20).astype(np.uint8), batch_epoch=epoch
            )
            for i in range(n)
        ),
        epoch,
    )


def test_context_validates_names(tiny_engine):
    with pytest.raises(KeyError):
        WorkerContext(tiny_engine, "NOPE", [])
    with pytest.raises(KeyError):
        WorkerContext(tiny_engine, "YBL051C", ["NOPE"])


def test_score_batch_matches_engine(context, rng):
    seq = rng.integers(0, 20, size=30).astype(np.uint8)
    problem = (context.target, context.non_targets)
    ((scores, stats),) = score_batch(
        context.engine, None, [seq], [None], [problem], False
    )
    assert scores.target_score == pytest.approx(
        context.engine.score(seq, context.target)
    )
    assert len(scores.non_target_scores) == len(context.non_targets)
    assert stats is None


def test_warm_cache(context):
    context.warm_cache()
    info = context.engine.database.cache_info()
    assert info["entries"] >= len(context.non_targets) + 1


def test_worker_loop_processes_until_end(context, rng):
    task_q = queue.Queue()
    result_q = queue.Queue()
    task_q.put(_chunk(rng, 3, epoch=4))
    task_q.put(EndSignal())
    processed = worker_loop(0, context, task_q, result_q)
    assert processed == 3
    reply = result_q.get_nowait()
    assert isinstance(reply, ChunkResult)
    assert reply.worker_id == 0
    assert reply.batch_epoch == 4
    assert [r.sequence_id for r in reply.results] == [0, 1, 2]
    assert all(isinstance(r, WorkResult) for r in reply.results)
    assert all(r.elapsed >= 0.0 for r in reply.results)
    assert result_q.empty()  # one reply per chunk


def test_worker_loop_failed_item_spares_rest_of_chunk(
    tiny_engine, tiny_problem, rng
):
    target, non_targets = tiny_problem
    context = WorkerContext(
        tiny_engine, target, non_targets, FaultPlan(fail_on_item=1)
    )
    task_q = queue.Queue()
    result_q = queue.Queue()
    task_q.put(_chunk(rng, 3))
    task_q.put(EndSignal())
    assert worker_loop(0, context, task_q, result_q) == 3
    failure = result_q.get_nowait()
    assert isinstance(failure, WorkFailure)
    assert failure.sequence_id == 1
    assert "injected failure" in failure.error
    reply = result_q.get_nowait()
    assert [r.sequence_id for r in reply.results] == [0, 2]


def test_worker_loop_rejects_garbage(context):
    task_q = queue.Queue()
    result_q = queue.Queue()
    task_q.put("garbage")
    with pytest.raises(TypeError):
        worker_loop(0, context, task_q, result_q)


def test_worker_loop_immediate_end(context):
    task_q = queue.Queue()
    result_q = queue.Queue()
    task_q.put(EndSignal())
    assert worker_loop(1, context, task_q, result_q) == 0


def test_every_backend_scores_through_score_batch(
    tiny_engine, tiny_problem, rng, monkeypatch
):
    """The serial provider, a worker chunk and the master's degraded path
    all run the one ``score_batch``."""
    assert worker_mod.fitness is fitness
    assert mp_backend.fitness is fitness
    target, non_targets = tiny_problem
    calls: list[int] = []

    def counting(engine, cache, arrays, *args):
        calls.append(len(arrays))
        return score_batch(engine, cache, arrays, *args)

    monkeypatch.setattr(fitness, "score_batch", counting)
    seqs = [rng.integers(0, 20, size=20).astype(np.uint8) for _ in range(3)]

    serial = SerialScoreProvider(tiny_engine, target, non_targets)
    want = serial.scores(seqs)
    assert calls == [3]

    task_q = queue.Queue()
    result_q = queue.Queue()
    task_q.put(_chunk(rng, 2))
    task_q.put(EndSignal())
    worker_loop(0, WorkerContext(tiny_engine, target, non_targets), task_q, result_q)
    assert calls == [3, 2]

    provider = MultiprocessScoreProvider(tiny_engine, target, non_targets)
    results = [None] * 3
    degraded = provider._degrade_pending(
        seqs, [None] * 3, [None] * 3, {0, 1, 2}, results, reason="test"
    )
    assert degraded == 3
    assert calls == [3, 2, 3]
    assert results == want
