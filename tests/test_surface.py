"""The package surface that the benchmark's traced run wraps by name.

``perfbench/spans.py`` lists in ``LAYERS`` the functions that ``instrument``
wraps; a deleted or renamed one makes every traced sample fail.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import chi_lie

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_layer_resolves(monkeypatch):
    layers = load_layers(monkeypatch)
    assert layers
    for modname, attr, _, _ in layers:
        obj = importlib.import_module(f"chi_lie.{modname}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{modname}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{attr}"


def test_every_exported_name_resolves():
    missing = [name for name in chi_lie.__all__ if not hasattr(chi_lie, name)]
    assert missing == []
