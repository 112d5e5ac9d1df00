"""The benchmark's spans name functions that prhf still defines, and the
configs it writes still parse."""

import importlib
import importlib.util
import sys
from pathlib import Path

from prhf.cli import _options_from_config, _system_from_config, parse_config

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


def _load_run(monkeypatch):
    # bench/run.py does `import spans`, and its dataclasses look their
    # module up in sys.modules while the class bodies run
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_bench_config_parses(tmp_path, monkeypatch):
    # a key the benchmark still writes but prhf no longer reads would make
    # every benchmark operation exit 1
    run = _load_run(monkeypatch)
    assert run.WORKLOADS
    for wl in run.WORKLOADS.values():
        for size, n in (("full", wl.config["n"]), ("tiny", wl.tiny_n)):
            cfg = {**wl.config, "n": n}
            if wl.command == "verify":
                cfg["kato_seed"] = run.kato_seed(7)
            cfg["output_dir"] = str(tmp_path / wl.name / size)
            path = tmp_path / f"{wl.name}-{size}.cfg"
            path.write_text("".join(f"{k} = {run._fmt_value(v)}\n" for k, v in cfg.items()))
            parsed = parse_config(path)
            _system_from_config(parsed)
            _options_from_config(parsed)
