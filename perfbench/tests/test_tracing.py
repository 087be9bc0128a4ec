import multiprocessing
import threading

from perfbench.metrics import layer_totals
from perfbench.tracing import Tracer


class Layered:
    def outer(self, n):
        return [self.inner(i) for i in range(n)]

    def inner(self, i):
        return i * 2


def _call_outer(n):
    Layered().outer(n)


def test_wrapped_calls_record_parents_and_uninstall_restores(tmp_path):
    original = Layered.__dict__["outer"]
    tracer = Tracer("t", tmp_path)
    tracer.wrap(Layered, "outer", "layer.outer")
    tracer.wrap(Layered, "inner", "layer.inner", work=lambda args, kwargs: args[1])
    try:
        assert Layered().outer(3) == [0, 2, 4]
    finally:
        tracer.uninstall()
    assert Layered.__dict__["outer"] is original
    (outer,) = [s for s in tracer.spans if s[4] == "layer.outer"]
    inners = [s for s in tracer.spans if s[4] == "layer.inner"]
    assert len(inners) == 3 and all(s[3] == outer[2] for s in inners)
    assert outer[3] == 0
    assert layer_totals(tracer.spans)["layer.inner"]["work"] == 0 + 1 + 2


def test_threads_keep_separate_stacks(tmp_path):
    tracer = Tracer("t", tmp_path)
    tracer.wrap(Layered, "outer", "layer.outer")
    tracer.wrap(Layered, "inner", "layer.inner")
    try:
        threads = [threading.Thread(target=_call_outer, args=(50,)) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        tracer.uninstall()
    outers = {(s[1], s[2]) for s in tracer.spans if s[4] == "layer.outer"}
    for s in tracer.spans:
        if s[4] == "layer.inner":
            assert (s[1], s[3]) in outers


def test_forked_process_spills_its_spans(tmp_path):
    tracer = Tracer("t", tmp_path)
    tracer.install(entries=())
    tracer.wrap(Layered, "outer", "layer.outer")
    tracer.wrap(Layered, "inner", "layer.inner")
    try:
        Layered().outer(1)
        proc = multiprocessing.get_context("fork").Process(target=_call_outer, args=(2,))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    child = [s for s in spans if s[0] == proc.pid]
    assert sorted(s[4] for s in child) == ["layer.inner", "layer.inner", "layer.outer"]
    assert len(spans) == len(child) + 2


def test_span_cost_is_small_and_non_negative(tmp_path):
    cost = Tracer("t", tmp_path).span_cost_s(calls=2000)
    assert 0.0 <= cost < 1e-4
