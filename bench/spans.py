"""Spans recorded around prhf's public functions, from outside the package.

A worker process calls `install()` after importing prhf. Every target
function is replaced by a wrapper in every prhf module namespace that binds
it: `from .radial import kinetic_operator` gives scf, coulomb, analysis and
cli their own name for the same function, so patching only the defining
module would miss those callers. Spans stay in memory until `dump()`.

`layer_metrics()` turns the spans of one operation into the per-layer
metrics; it needs no prhf import and runs in bench/run.py.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public functions wrapped in a span of the same dotted name
TARGETS = {
    "radial": ("kinetic_operator", "spectral_function"),
    "coulomb": ("exchange_matrix", "energy_terms", "exchange_energy"),
    "functional": ("total_energy", "line_coefficients"),
    "scf": (
        "solve_scf", "fock_build", "aufbau_projection", "oda_step",
        "commutator_residual", "orbital_residuals",
    ),
    "greens": ("greens_kernel", "radial_convolution", "resolvent_apply"),
    "analysis": (
        "minimizer_certificate", "binding_monotonicity", "herbst_bound_check",
        "kato_probe", "decay_fit",
    ),
}
ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span list: [name, start, end, parent index] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.solve_iterations: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
        if name == "scf.solve_scf":
            self.solve_iterations.append(int(result[0].iterations))
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "solve_iterations": self.solve_iterations}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded prhf module that binds it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "prhf" or name.startswith("prhf."))]
    for mod_name, funcs in TARGETS.items():
        defining = sys.modules[f"prhf.{mod_name}"]
        for func in funcs:
            original = getattr(defining, func)
            wrapper = tracer.wrap(f"{mod_name}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


# per-layer metric -> unit; the order is the order of BENCHMARK.json
UNITS = {
    "radial.kinetic_operator_s": "s",
    "radial.kinetic_operator_calls": "count",
    "radial.spectral_function_calls": "count",
    "radial.kinetic_hit_ratio": "ratio",
    "coulomb.exchange_matrix_s": "s",
    "coulomb.exchange_matrix_calls": "count",
    "coulomb.energy_terms_s": "s",
    "coulomb.exchange_energy_s": "s",
    "functional.total_energy_s": "s",
    "functional.total_energy_calls": "count",
    "functional.line_coefficients_s": "s",
    "scf.solve_scf_s": "s",
    "scf.solve_scf_self_s": "s",
    "scf.solve_scf_calls": "count",
    "scf.iterations": "count",
    "scf.fock_build_s": "s",
    "scf.fock_build_calls": "count",
    "scf.fock_builds_per_iteration": "ratio",
    "scf.aufbau_projection_s": "s",
    "scf.aufbau_projection_calls": "count",
    "scf.oda_step_s": "s",
    "scf.commutator_residual_s": "s",
    "scf.orbital_residuals_s": "s",
    "greens.greens_kernel_s": "s",
    "greens.greens_kernel_calls": "count",
    "greens.radial_convolution_s": "s",
    "greens.resolvent_apply_s": "s",
    "greens.resolvent_apply_calls": "count",
    "analysis.minimizer_certificate_s": "s",
    "analysis.binding_monotonicity_s": "s",
    "analysis.herbst_bound_check_s": "s",
    "analysis.kato_probe_s": "s",
    "analysis.kato_probe_calls": "count",
    "analysis.decay_fit_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(trace: dict, report_iterations: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    `<name>_s` is the wall time inside spans of that name (outermost ones
    only, so a nested call of the same function is not counted twice);
    `<name>_calls` counts every span. Self time is a span's duration minus
    its direct children's, which cover disjoint intervals on one thread.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def outermost(i):
        name = spans[i][0]
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        if outermost(i):
            total[name] = total.get(name, 0.0) + (end - start)

    # a kinetic_operator call misses its cache when it builds a spectral function
    misses = sum(
        1 for name, _s, _e, parent in spans
        if name == "radial.spectral_function" and parent >= 0
        and spans[parent][0] == "radial.kinetic_operator"
    )
    kin_calls = calls.get("radial.kinetic_operator", 0)
    solve_iterations = sum(trace["solve_iterations"])
    fock_calls = calls.get("scf.fock_build", 0)

    out = {
        "radial.kinetic_hit_ratio": 1.0 - misses / kin_calls if kin_calls else 0.0,
        "scf.solve_scf_self_s": self_time.get("scf.solve_scf", 0.0),
        "scf.iterations": float(report_iterations),
        "scf.fock_builds_per_iteration": (
            fock_calls / solve_iterations if solve_iterations else 0.0
        ),
        "cli.self_s": self_time.get(ROOT_SPAN, 0.0),
    }
    for metric in UNITS:
        if metric in out:
            continue
        layer, rest = metric.split(".", 1)
        func, kind = rest.rsplit("_", 1)
        span = f"{layer}.{func}"
        out[metric] = float(calls.get(span, 0)) if kind == "calls" else total.get(span, 0.0)
    return out
