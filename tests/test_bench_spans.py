"""The benchmark's spans name functions that prhf still defines."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_a_prhf_function():
    # a renamed or deleted target breaks the traced benchmark runs and the self-test
    spans = _load_spans()
    names = [f"{mod}.{func}" for mod, funcs in spans.TARGETS.items() for func in funcs]
    assert names
    missing = []
    for name in names + [spans.ROOT_SPAN]:
        mod, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"prhf.{mod}"), func, None)):
            missing.append(name)
    assert missing == []
