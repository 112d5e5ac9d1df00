"""The benchmark's spans name functions that prhf still defines, the
configs it writes still parse, and its tiny workloads still meet their
recorded references."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from prhf.cli import _options_from_config, _system_from_config, parse_config

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"


def _load(name, path, monkeypatch):
    # bench/ is loaded read-only: no bytecode is written there. bench/run.py
    # does `import spans`, and its dataclasses look their module up in
    # sys.modules while the class bodies run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_a_prhf_function(monkeypatch):
    # a renamed or deleted target breaks the traced benchmark runs and the self-test
    spans = _load("bench_spans", SPANS, monkeypatch)
    names = [f"{mod}.{func}" for mod, funcs in spans.TARGETS.items() for func in funcs]
    assert names
    missing = []
    for name in names + [spans.ROOT_SPAN]:
        mod, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"prhf.{mod}"), func, None)):
            missing.append(name)
    assert missing == []


def test_every_bench_config_parses(tmp_path, monkeypatch):
    # a key the benchmark still writes but prhf no longer reads would make
    # every benchmark operation exit 1
    run = _load("bench_run", BENCH / "run.py", monkeypatch)
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


def test_tiny_workloads_meet_their_references(tmp_path, monkeypatch):
    # each workload at its tiny n, through the command line with one BLAS
    # thread as the benchmark runs it, against references.json's gate; the
    # references hold to 1e-10 Ha only on the BLAS kernel and the numpy and
    # scipy they were recorded with
    run = _load("bench_run", BENCH / "run.py", monkeypatch)
    refs = json.loads(run.REFERENCES.read_text())
    recorded = refs["recorded_with"]
    here = {"blas_core": _load("bench_worker", BENCH / "worker.py", monkeypatch)._openblas_core(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    if any(here[key] != recorded[key] for key in here):
        pytest.skip(f"references recorded with {recorded}, running with {here}")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **{k: "1" for k in run.THREAD_VARS}}
    problems = {}
    for wl in run.WORKLOADS.values():
        cfg = {**wl.config, "n": wl.tiny_n, "output_dir": str(tmp_path / wl.name)}
        if wl.command == "verify":
            cfg["kato_seed"] = run.kato_seed(0)
        path = tmp_path / f"{wl.name}.cfg"
        path.write_text("".join(f"{k} = {run._fmt_value(v)}\n" for k, v in cfg.items()))
        commands = ["solve", "verify"] if wl.command == "verify" else ["solve"]
        for command in commands:
            exit_code = subprocess.run(
                [sys.executable, "-m", "prhf.cli", command, str(path), "--log-level", "warning"],
                env=env, cwd=tmp_path, capture_output=True,
            ).returncode
            if exit_code:
                break
        seen = run.observe(wl, tmp_path / wl.name) if exit_code == 0 else None
        problems[wl.name] = run.gate(wl, exit_code, seen, refs["workloads"][wl.name]["tiny"])
    assert problems == {name: [] for name in run.WORKLOADS}
