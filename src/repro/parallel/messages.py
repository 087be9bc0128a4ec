"""Wire protocol between the InSiPS master and workers.

Mirrors the MPI message flow of Algorithms 1–2 at chunk granularity: the
master answers each worker's request for work with either a
:class:`WorkChunk` of candidate sequences or an END signal, and the
worker's :class:`ChunkResult` for one chunk is its request for the next.
Each worker has its own queue, so the request is implicit: the master
sends a worker its next chunk when the previous one comes back.

Every dispatch-side message carries a ``batch_epoch``: the master tags each
batch with a monotonically increasing epoch and drops any reply stamped
with an older one, so a result orphaned by a timeout or a worker death can
never be mis-assigned to a later batch that happens to reuse the same
``sequence_id``.  A worker-side exception travels back as a
:class:`WorkFailure` (with the full traceback) instead of silently killing
the worker process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ga.fitness import ScoreSet
from repro.ppi.delta import DeltaStats, Provenance

__all__ = [
    "ChunkResult",
    "EndSignal",
    "RetireSignal",
    "WorkChunk",
    "WorkFailure",
    "WorkItem",
    "WorkResult",
]


@dataclass(frozen=True)
class WorkItem:
    """One candidate sequence dispatched for PIPE analysis.

    ``provenance`` (optional) records how the candidate was derived from
    its parent(s); a worker holding the parents' similarity structures in
    its local LRU re-sweeps only the dirty windows.  It is advisory —
    a worker that never saw the parents simply does the full sweep.

    ``problem_id`` (optional) binds the item to a fabric-registered
    ``(target, non_targets)`` problem instead of the worker context's
    default one, so one pool can serve many concurrent design campaigns
    (see :mod:`repro.fabric`).  ``problem`` carries the problem spec
    itself; a worker seeing an unknown id registers it from the spec on
    first sight — self-describing items make registration race-free (no
    control-message ordering to get wrong).
    """

    sequence_id: int
    payload: bytes  # encoded (uint8) sequence bytes; cheap to pickle
    batch_epoch: int = 0
    provenance: Provenance | None = None
    problem_id: int | None = None
    problem: tuple[str, tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        if self.sequence_id < 0:
            raise ValueError(f"sequence_id must be >= 0, got {self.sequence_id}")
        if not self.payload:
            raise ValueError("payload must be non-empty")
        if self.batch_epoch < 0:
            raise ValueError(f"batch_epoch must be >= 0, got {self.batch_epoch}")
        if self.problem_id is not None and self.problem_id < 0:
            raise ValueError(f"problem_id must be >= 0, got {self.problem_id}")
        if self.problem is not None and self.problem_id is None:
            raise ValueError("problem spec requires a problem_id")

    @classmethod
    def from_encoded(
        cls,
        sequence_id: int,
        encoded: np.ndarray,
        *,
        batch_epoch: int = 0,
        provenance: Provenance | None = None,
        problem_id: int | None = None,
        problem: tuple[str, tuple[str, ...]] | None = None,
    ) -> "WorkItem":
        return cls(
            sequence_id,
            np.asarray(encoded, dtype=np.uint8).tobytes(),
            batch_epoch,
            provenance,
            problem_id,
            problem,
        )

    def decode(self) -> np.ndarray:
        return np.frombuffer(self.payload, dtype=np.uint8)


@dataclass(frozen=True)
class WorkResult:
    """PIPE scores returned by a worker for one candidate.

    ``elapsed`` is the worker-side wall-clock seconds spent computing the
    scores; the master aggregates it into per-worker busy time and
    throughput telemetry (the Fig. 5/6 quantities).  ``batch_epoch`` echoes
    the dispatching :class:`WorkItem`'s epoch so the master can reject
    stale replies from an earlier, abandoned batch.  ``delta`` reports the
    worker-side delta-scoring outcome (worker registries are process-local,
    so the accounting rides the reply and the master folds it into the
    ``pipe.delta.*`` counters).
    """

    sequence_id: int
    worker_id: int
    scores: ScoreSet
    elapsed: float = 0.0
    batch_epoch: int = 0
    delta: DeltaStats | None = None


@dataclass(frozen=True)
class WorkChunk:
    """Master → one worker: a run of items the worker scores as one batch.

    The unit of dispatch.  The master sends each worker at most one chunk
    at a time, on that worker's own queue, and sends the next one when
    the :class:`ChunkResult` comes back.
    """

    items: tuple[WorkItem, ...]
    batch_epoch: int = 0


@dataclass(frozen=True)
class ChunkResult:
    """Worker → master: the scores of one :class:`WorkChunk`, one
    :class:`WorkResult` per item (an item that failed is reported by its
    own :class:`WorkFailure` instead)."""

    worker_id: int
    batch_epoch: int
    results: tuple[WorkResult, ...]


@dataclass(frozen=True)
class WorkFailure:
    """Worker → master: scoring raised for one candidate.

    Carries the exception summary and the full formatted traceback so the
    master can surface the *worker-side* stack in its own error instead of
    reporting an opaque timeout.
    """

    sequence_id: int
    worker_id: int
    error: str
    traceback: str
    batch_epoch: int = 0


@dataclass(frozen=True)
class EndSignal:
    """Master → worker: no more work (Algorithm 1's END)."""

    reason: str = "complete"


@dataclass(frozen=True)
class RetireSignal:
    """Master → one worker: finish the chunk in hand and exit (elastic
    scale-down).

    Unlike :class:`EndSignal` (sent to every worker at shutdown), a
    retire stops one worker while the rest of the pool keeps serving.
    The master takes back any chunk still waiting on the worker's queue
    *before* sending the signal and hands it to a live worker, so no item
    can be lost behind it.
    """

    reason: str = "scale_down"
