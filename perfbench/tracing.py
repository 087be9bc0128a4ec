"""In-memory spans around the program's layer entry points.

The benchmark's traced run wraps public methods of each ``repro`` layer
(see :data:`LAYER_SPANS`) with a function that records one span per call:
``(pid, thread, span id, parent span id, name, start, end, work)``.  The
parent is the innermost open span of the same thread.  Nothing inside
``src/`` changes; an untraced run installs no wrapper at all.

Worker processes are forked after the wrappers are installed, so they
inherit them.  Each forked process starts an empty span list and writes
it to ``<spill_dir>/spans-<pid>.jsonl`` when it exits normally; the master
reads those files after the pool is closed.  A worker that is killed
leaves no file, and its spans are missing from the trace.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path


def _rows(window_size: int, sequences) -> int:
    return sum(max(0, len(seq) - window_size + 1) for seq in sequences)


def _kernel_rows_batch(args, kwargs) -> int:
    db, seqs = args[1], args[2]
    return _rows(db.window_size, seqs)


def _kernel_rows_one(args, kwargs) -> int:
    db, seq = args[1], args[2]
    return _rows(db.window_size, [seq])


def _pairs_scored(args, kwargs) -> int:
    names = args[2] if len(args) > 2 else kwargs["protein_names"]
    return len(names)


#: (module, class, method, span name, work counter) of every wrapped entry
#: point.  Entries whose class or method no longer exists are skipped and
#: reported by :meth:`Tracer.install`.
LAYER_SPANS = (
    ("repro.ga.engine", "InSiPSEngine", "run", "ga.run", None),
    ("repro.ga.engine", "InSiPSEngine", "next_generation", "ga.next_generation", None),
    ("repro.ga.engine", "InSiPSEngine", "evaluate_population", "ga.evaluate", None),
    ("repro.ga.fitness", "CachingScoreProvider", "scores_with_provenance", "provider.score", None),
    ("repro.fabric", "FabricClient", "scores_with_provenance", "fabric.score", None),
    ("repro.fabric", "FabricClient", "_score_uncached", "fabric.wait", None),
    ("repro.parallel.mp_backend", "MultiprocessScoreProvider", "_score_uncached", "parallel.score", None),
    ("repro.parallel.mp_backend", "MultiprocessScoreProvider", "score_fused", "parallel.score", None),
    ("repro.ppi.delta", "SimilarityLRU", "similarity_batch", "delta.similarity", None),
    ("repro.ppi.delta", "SimilarityLRU", "similarity_for", "delta.similarity", None),
    ("repro.ppi.database", "PipeDatabase", "update_similarity", "database.update_similarity", None),
    ("repro.ppi.database", "PipeDatabase", "precompute", "database.precompute", None),
    ("repro.ppi.kernels", "SimilarityKernel", "sweep_sparse", "kernel.sweep", _kernel_rows_one),
    ("repro.ppi.kernels", "SimilarityKernel", "sweep_batch_sparse", "kernel.sweep", _kernel_rows_batch),
    ("repro.ppi.kernels", "BatchedNumpyKernel", "sweep_sparse", "kernel.sweep", _kernel_rows_one),
    ("repro.ppi.kernels", "BatchedNumpyKernel", "sweep_batch_sparse", "kernel.sweep", _kernel_rows_batch),
    ("repro.ppi.pipe", "PipeEngine", "score_against", "pipe.score_against", _pairs_scored),
    ("repro.service", "DesignService", "submit", "service.submit", None),
    ("repro.checkpoint", "CheckpointManager", "save", "checkpoint.save", None),
)

#: Field order of a span tuple.
FIELDS = ("pid", "tid", "id", "parent", "name", "start", "end", "work")


class Tracer:
    """Records spans for one benchmark run (``run_id``) in memory."""

    def __init__(self, run_id: str, spill_dir: Path):
        self.run_id = run_id
        self.spill_dir = Path(spill_dir)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[type, str, object]] = []
        self.pid = os.getpid()

    # -- wrapping ----------------------------------------------------------

    def install(self, entries=LAYER_SPANS) -> list[str]:
        """Wrap every entry point; returns the ones that do not exist."""
        import importlib

        for module_name, class_name, attr, span, work in entries:
            owner = getattr(importlib.import_module(module_name), class_name, None)
            if owner is None or not inspect.isfunction(owner.__dict__.get(attr)):
                self.missing.append(f"{module_name}.{class_name}.{attr}")
                continue
            self.wrap(owner, attr, span, work)
        mp_util.register_after_fork(self, Tracer._after_fork)
        return self.missing

    def wrap(self, owner: type, attr: str, name: str, work=None) -> None:
        original = owner.__dict__[attr]
        tracer = self
        perf_counter = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (
                        tracer.pid,
                        get_ident(),
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        work(args, kwargs) if work is not None else 0,
                    )
                )

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attr)
        traced.__qualname__ = getattr(original, "__qualname__", attr)
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- processes ---------------------------------------------------------

    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()
        self.pid = os.getpid()
        mp_util.Finalize(None, self.spill, exitpriority=100)

    def spill(self) -> None:
        """Write this process's spans to the spill directory."""
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def collect(self) -> list[tuple]:
        """This process's spans plus every spilled worker's."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(tuple(json.loads(line)) for line in fh if line.strip())
        return spans

    def write(self, path: Path, spans: list[tuple]) -> None:
        """Write the run's spans (one JSON object per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps({"run": self.run_id, **dict(zip(FIELDS, span))}) + "\n")

    # -- cost --------------------------------------------------------------

    def span_cost_s(self, calls: int = 20000) -> float:
        """Measured bookkeeping cost of one span: a wrapped no-op call minus
        a bare one, best of three."""

        class _Probe:
            def noop(self):
                return None

        probe_tracer = Tracer(self.run_id, self.spill_dir)
        bare = _Probe()
        best_bare = best_traced = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                bare.noop()
            best_bare = min(best_bare, time.perf_counter() - start)
        probe_tracer.wrap(_Probe, "noop", "probe")
        try:
            for _ in range(3):
                probe_tracer.spans.clear()
                start = time.perf_counter()
                for _ in range(calls):
                    bare.noop()
                best_traced = min(best_traced, time.perf_counter() - start)
        finally:
            probe_tracer.uninstall()
        return max(0.0, best_traced - best_bare) / calls
