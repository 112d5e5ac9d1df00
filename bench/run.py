"""Closed-loop benchmark of the prhf command-line pipelines.

    python3 bench/run.py --workload solve_he_n1600 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test
    python3 bench/run.py --record-references

One client runs one operation at a time, each in a fresh single-threaded
worker process (bench/worker.py), for --seconds seconds. Every operation is
checked against references recorded from the program (bench/references.json).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics from spans with --trace 1. The line before it carries
the machine facts and every sample. See bench/README.md.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"

TOL_HA = 1e-10              # reference match, as in the ROADMAP
RUN_LIMIT_S = 150.0         # no operation starts that could end past this
PERTURBATION_HA = 1e-9      # self-test: a reference moved by this must fail
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# end-to-end times are given at the machine speed where worker.speed_probe()
# takes this long: time * PROBE_REF_S / probe, so that the host's drift in
# speed over minutes cancels (bench/README.md, "Machine speed")
PROBE_REF_S = 0.150

# configs/helium.cfg as it stood when the benchmark was defined, so the
# inputs stay fixed while the shipped config evolves
HELIUM = {
    "Z": 2, "N": 2, "alpha": 0.0072973525205055605, "q": 2,
    "n": 1200, "r_max": 20, "max_iter": 200,
    "tol_energy": 1e-10, "tol_commutator": 1e-6, "algorithm": "optimal-damping",
    "verify_decay": True, "verify_kato": True, "verify_herbst": True,
    "verify_greens": True, "verify_binding": True, "kato_samples": 100,
}
# closed-shell neon, 1s2 2s2 2p6: the only input with an ell = 1 channel
NEON = {"Z": 10, "N": 10, "n": 800, "r_max": 15, "ell_max": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    tiny_n: int             # grid size of the self-test variant
    min_setups: int         # set-up samples per untraced run


# why each workload was chosen: bench/README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("solve_he_n1600", "solve", {**HELIUM, "n": 1600}, 300, 5),
    Workload("verify_he", "verify", HELIUM, 300, 3),
    Workload("solve_ne_p", "solve", NEON, 200, 5),
)}

WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
WORKER_ENV.update({k: "1" for k in THREAD_VARS})


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Paths:
    config: Path
    outdir: Path
    log: Path


@dataclass
class Op:
    traced: bool
    setup_s: float | None = None
    run_s: float | None = None
    peak_rss_mb: float | None = None
    probe_s: float | None = None
    problems: list = field(default_factory=list)
    layers: dict | None = None


def kato_seed(seed: int) -> int:
    return random.Random(seed).randrange(2**31)


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return v if isinstance(v, str) else repr(v)


def prepare(wl: Workload, size: str, seed: int) -> Paths:
    """Write the workload's config, generated from the seed, into the work area."""
    base = WORK / wl.name / size
    base.mkdir(parents=True, exist_ok=True)
    cfg = dict(wl.config)
    if size == "tiny":
        cfg["n"] = wl.tiny_n
    if wl.command == "verify":
        cfg["kato_seed"] = kato_seed(seed)
    outdir = base / "out"
    cfg["output_dir"] = str(outdir.relative_to(ROOT))   # workers run in ROOT
    path = base / "bench.cfg"
    path.write_text("".join(f"{k} = {_fmt_value(v)}\n" for k, v in cfg.items()))
    return Paths(config=path, outdir=outdir, log=base / "worker.log")


def worker(paths: Paths, command: str, *flags: str, timeout: float) -> dict | None:
    """Run bench/worker.py to completion; its JSON line, or None if it crashed."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(SRC), command, str(paths.config), *flags]
    with open(paths.log, "ab") as log:
        try:
            proc = subprocess.run(cmd, env=WORKER_ENV, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=log, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            log.write(f"worker killed after {timeout:.0f} s\n".encode())
            return None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


# --- correctness gate ---------------------------------------------------------


def observe(wl: Workload, outdir: Path) -> dict:
    """The values the gate compares, read from the pipeline's output files."""
    report = json.loads((outdir / "report.json").read_text())
    seen = {"iterations": report["report"]["iterations"]}
    if wl.command == "solve":
        seen["certificate_passed"] = report["certificates"]["passed"]
        seen["total"] = report["report"]["energy"]["total"]
        # keyed order: near-degenerate spin levels may swap places in the table
        seen["occupied"] = sorted(
            [e["ell"], e["spin"], e["index"], e["value_hartree"]]
            for e in report["report"]["eigenvalues"] if e["occupation"] > 0.5
        )
    else:
        verify = json.loads((outdir / "verify.json").read_text())
        seen["all_passed"] = verify["all_passed"]
        seen["binding_totals"] = [row["total"] for row in verify["suites"]["binding"]["rows"]]
    return seen


def gate(wl: Workload, exit_code, seen: dict | None, ref: dict) -> list[str]:
    """Reasons the operation fails; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if seen is None:
        return ["output files missing"]
    problems = []

    def close(label, got, want):
        if abs(got - want) > TOL_HA:
            problems.append(f"{label}: {got!r} vs reference {want!r}")

    if wl.command == "solve":
        if not seen["certificate_passed"]:
            problems.append("certificates.passed is false")
        close("total energy", seen["total"], ref["total"])
        if [o[:3] for o in seen["occupied"]] != [o[:3] for o in ref["occupied"]]:
            problems.append(f"occupied levels {seen['occupied']} vs {ref['occupied']}")
        else:
            for got, want in zip(seen["occupied"], ref["occupied"]):
                close(f"eigenvalue {want[:3]}", got[3], want[3])
    else:
        if not seen["all_passed"]:
            problems.append("all_passed is false")
        if len(seen["binding_totals"]) != len(ref["binding_totals"]):
            problems.append(f"binding rows {seen['binding_totals']} vs {ref['binding_totals']}")
        else:
            for n, (got, want) in enumerate(zip(seen["binding_totals"], ref["binding_totals"]), 1):
                close(f"binding total N={n}", got, want)
    return problems


def _observe_or_none(wl, outdir):
    try:
        return observe(wl, outdir)
    except (OSError, ValueError, KeyError):
        return None


# --- operations ---------------------------------------------------------------


def _prerequisite(wl: Workload, paths: Paths, timeout: float) -> str | None:
    """Clear the output directory; verify also needs a completed solve in it."""
    shutil.rmtree(paths.outdir, ignore_errors=True)
    if wl.command != "verify":
        return None
    pre = worker(paths, "solve", timeout=timeout)
    if pre is None or pre["exit"] != 0:
        return f"prerequisite solve failed: {pre}"
    return None


def run_op(wl: Workload, paths: Paths, ref: dict, traced: bool, timeout: float) -> Op:
    op = Op(traced=traced)
    start = time.monotonic()
    problem = _prerequisite(wl, paths, timeout)
    if problem:
        op.problems.append(problem)
        return op
    flags = ["--spans", str(paths.outdir.parent / "spans.json")] if traced else []
    res = worker(paths, wl.command, "--probe", *flags, timeout=timeout - (time.monotonic() - start))
    if res is None:
        op.problems.append(f"worker crashed; see {paths.log}")
        return op
    op.setup_s = res["ready"] - start
    op.run_s = res["run_s"]
    op.peak_rss_mb = res["peak_rss_mb"]
    op.probe_s = res["probe_s"]
    seen = _observe_or_none(wl, paths.outdir)
    op.problems = gate(wl, res["exit"], seen, ref)
    if traced:
        trace = json.loads(Path(flags[1]).read_text())
        op.layers = spans.layer_metrics(trace, seen["iterations"] if seen else 0)
    return op


def setup_sample(wl: Workload, paths: Paths, timeout: float) -> float:
    start = time.monotonic()
    problem = _prerequisite(wl, paths, timeout)
    res = None if problem else worker(paths, wl.command, "--setup-only", timeout=timeout)
    if res is None:
        raise BenchError(f"set-up of {wl.name} failed: {problem or paths.log}")
    return res["ready"] - start


def machine_facts(worker_facts: dict) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():   # never the commit of an enclosing repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        **worker_facts,
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, size: str = "full"):
    """One benchmark run; returns (result line, details)."""
    refs = json.loads(REFERENCES.read_text())["workloads"][wl.name][size]
    paths = prepare(wl, size, seed)
    paths.log.unlink(missing_ok=True)
    started = time.monotonic()

    # warm-up: compiles bytecode and fills the page cache, which users do not
    # pay on every run; also reports the facts of the worker's environment
    warm = worker(paths, wl.command, "--setup-only", "--facts", timeout=RUN_LIMIT_S)
    if warm is None:
        raise BenchError(f"worker cannot start; see {paths.log}")

    ops: list[Op] = []
    loop_start = time.monotonic()
    longest = 0.0
    need = 2 if trace else 1
    while len(ops) < need or time.monotonic() - loop_start < seconds:
        elapsed = time.monotonic() - started
        if len(ops) >= need and elapsed + longest > RUN_LIMIT_S:
            break
        t0 = time.monotonic()
        # the traced run alternates untraced and traced operations
        ops.append(run_op(wl, paths, refs, traced=trace and len(ops) % 2 == 1,
                          timeout=RUN_LIMIT_S + 25.0 - elapsed))
        longest = max(longest, time.monotonic() - t0)

    measured = [op for op in ops if op.run_s is not None]
    plain = [op for op in measured if not op.traced]
    if not plain:
        raise BenchError(f"no operation of {wl.name} completed: {ops[0].problems}")
    failed = sum(1 for op in ops if op.problems)
    setups = [op.setup_s for op in plain]

    if trace:
        traced = [op for op in measured if op.traced]
        if not traced:
            raise BenchError(f"no traced operation of {wl.name} completed")
        values = {name: statistics.median(op.layers[name] for op in traced)
                  for name in spans.UNITS}
        units = dict(spans.UNITS)
        traced_run = statistics.median(op.run_s for op in traced)
        plain_run = statistics.median(op.run_s for op in plain)
        values.update({"trace.run_s": traced_run, "trace.untraced_run_s": plain_run,
                       "trace.overhead_s": traced_run - plain_run})
        units.update({"trace.run_s": "s", "trace.untraced_run_s": "s", "trace.overhead_s": "s"})
    else:
        while len(setups) < wl.min_setups and time.monotonic() - started < RUN_LIMIT_S:
            setups.append(setup_sample(wl, paths, RUN_LIMIT_S + 25.0))
        # each operation's run at the speed probed around it; set-ups at the
        # run's median speed
        scale = PROBE_REF_S / statistics.median(op.probe_s for op in plain)
        values = {
            "setup_s": statistics.median(setups) * scale,
            "run_s": statistics.median(op.run_s * PROBE_REF_S / op.probe_s for op in plain),
            "peak_rss_mb": statistics.median(op.peak_rss_mb for op in plain),
            "passed_share": (len(ops) - failed) / len(ops),
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB", "passed_share": "ratio"}

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    details = {
        "workload": wl.name, "size": size, "seed": seed, "seconds": seconds, "trace": int(trace),
        "kato_seed": kato_seed(seed) if wl.command == "verify" else None,
        "machine": machine_facts(warm["facts"]),
        "setup_samples_s": setups,
        "ops": [{"traced": op.traced, "setup_s": op.setup_s, "run_s": op.run_s,
                 "peak_rss_mb": op.peak_rss_mb, "probe_s": op.probe_s,
                 "problems": op.problems} for op in ops],
        "wall_s": time.monotonic() - started,
    }
    return result, details


# --- references and self-test -------------------------------------------------


def record_references() -> None:
    """Solve every workload once at each size and store what the gate compares."""
    out = {"tolerance_ha": TOL_HA, "workloads": {}}
    facts = None
    for wl in WORKLOADS.values():
        out["workloads"][wl.name] = {}
        for size in ("full", "tiny"):
            paths = prepare(wl, size, seed=0)
            problem = _prerequisite(wl, paths, RUN_LIMIT_S)
            res = None if problem else worker(paths, wl.command, "--facts", timeout=600)
            if res is None or res["exit"] != 0:
                raise BenchError(f"{wl.name}/{size} did not run cleanly: {problem or res}")
            seen = observe(wl, paths.outdir)
            if not seen.get("certificate_passed", seen.get("all_passed")):
                raise BenchError(f"{wl.name}/{size} did not pass its own checks")
            out["workloads"][wl.name][size] = seen
            facts = res["facts"]
            print(f"recorded {wl.name}/{size}", file=sys.stderr)
    out["recorded_with"] = machine_facts(facts)
    REFERENCES.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def _perturbed(ref: dict):
    """Copies of a reference with one compared value moved past the tolerance."""
    for key in ("total", "occupied", "binding_totals"):
        if key not in ref:
            continue
        bad = copy.deepcopy(ref)
        if key == "total":
            bad[key] += PERTURBATION_HA
        elif key == "occupied":
            bad[key][-1][3] += PERTURBATION_HA
        else:
            bad[key][-1] += PERTURBATION_HA
        yield key, bad


def self_test() -> bool:
    """Tiny-n run of every workload in both modes, plus the gate's own check."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads(REFERENCES.read_text())["workloads"]
    ok = True

    def check(cond, what):
        nonlocal ok
        ok = ok and bool(cond)
        print(f"{'PASS' if cond else 'FAIL'} {what}")

    check([w["name"] for w in declared["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json declares exactly the workloads run.py runs")

    for wl in WORKLOADS.values():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, details = run(wl, seed=7, seconds=0, trace=trace, size="tiny")
            check(result["correct"] and result["failed"] == 0,
                  f"{wl.name} trace={int(trace)} passes the gate {details['ops']}")
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{wl.name} trace={int(trace)} emits every {section} metric with its unit")
            if trace:
                m = result["metrics"]
                check(m["radial.kinetic_operator_calls"]["value"] > 0
                      and m["scf.fock_build_calls"]["value"] > 0
                      and m["analysis.minimizer_certificate_s"]["value"] > 0,
                      f"{wl.name} spans reach radial, scf and analysis through every binding")
                if wl.command == "verify":
                    check(m["greens.greens_kernel_calls"]["value"] > 0
                          and m["analysis.kato_probe_calls"]["value"] == wl.config["kato_samples"],
                          f"{wl.name} spans reach greens and every kato probe")
        paths = prepare(wl, "tiny", seed=7)
        seen = observe(wl, paths.outdir)
        ref = refs[wl.name]["tiny"]
        check(not gate(wl, 0, seen, ref), f"{wl.name} gate passes its own outputs")
        check(gate(wl, 3, seen, ref), f"{wl.name} gate fails a non-zero exit code")
        for key, bad in _perturbed(ref):
            check(gate(wl, 0, seen, bad), f"{wl.name} gate fails a reference with {key} moved by {PERTURBATION_HA}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args()

    if not (SRC / "prhf" / "cli.py").is_file():
        print(f"no prhf sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.record_references:
            record_references()
            return 0
        if args.self_test:
            return 0 if self_test() else 1
        if args.workload is None:
            ap.error("--workload is required")
        result, details = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({**details, "result": result}, indent=2) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
