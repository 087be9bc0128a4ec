"""The benchmark's traced run wraps ``repro`` entry points by name; a
refactor that renames or removes one would silently drop its spans."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_layer_entry_point(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    tracer = Tracer("tier1", tmp_path)
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    assert missing == []
