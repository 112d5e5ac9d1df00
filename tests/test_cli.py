import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import prhf.analysis
import prhf.cli
import prhf.greens
import prhf.radial
import prhf.scf
from prhf import AtomSystem, ConfigError, SolverOptions
from prhf.analysis import binding_monotonicity
from prhf.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    main,
    parse_config,
    run_greens,
    run_solve,
    run_sweep,
    run_verify,
)


def _write_config(path: Path, outdir: Path, **overrides) -> Path:
    base = {
        "Z": 2.0,
        "N": 2,
        "n": 240,
        "r_max": 14.0,
        "output_dir": str(outdir),
        "verify_greens": "false",
        "verify_binding": "false",
        "kato_samples": 25,
    }
    base.update(overrides)
    lines = ["# test configuration"]
    for key, val in base.items():
        lines.append(f"{key} = {val}")
    cfg = path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


def test_parse_config_roundtrip(tmp_path):
    cfg = _write_config(tmp_path, tmp_path / "out", alpha=0.001)
    values = parse_config(cfg)
    assert values["Z"] == 2.0
    assert values["N"] == 2
    assert values["alpha"] == 0.001
    assert values["tol_energy"] == 1e-10      # default fills in
    assert values["verify_greens"] is False


def test_parse_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("Z = 2\nN = 2\noutput_dir = out\nzmax = 3\ncolor = red\n")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert "color" in str(info.value) and "zmax" in str(info.value)


def test_parse_config_missing_required(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("Z = 2\noutput_dir = out\n")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert "N" in str(info.value)


def test_parse_config_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("Z: 2\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_solve_helium_writes_outputs(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir)
    assert run_solve(cfg) == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())
    assert report["report"]["converged"] is True
    assert report["certificates"]["passed"] is True
    orbitals = (outdir / "orbitals.csv").read_text().splitlines()
    assert orbitals[0] == "r,P_l0_s0_0,P_l0_s1_0"
    assert len(orbitals) == 241
    trace = (outdir / "energy_trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,total,kinetic,nuclear,direct,exchange"


def test_solve_supercritical_exits_1(tmp_path):
    cfg = _write_config(tmp_path, tmp_path / "out", Z=90.0)
    assert run_solve(cfg) == EXIT_CONFIG


@pytest.mark.parametrize("key, value, code", [
    ("frobnicate", "1", EXIT_CONFIG),
    ("level_shift", "0.5", EXIT_CONFIG),            # the Roothaan path is gone
    ("algorithm", "roothaan-levelshift", EXIT_CONFIG),
    ("algorithm", "optimal-damping", EXIT_OK),
])
def test_solve_unknown_key_exits_1(tmp_path, key, value, code):
    outdir = tmp_path / "out"
    assert run_solve(_write_config(tmp_path, outdir, **{key: value})) == code
    assert outdir.exists() == (code == EXIT_OK)


def test_solve_not_converged_exits_2(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, max_iter=1, tol_energy=1e-15)
    assert run_solve(cfg) == EXIT_NOT_CONVERGED
    report = json.loads((outdir / "report.json").read_text())
    assert report["report"]["converged"] is False


def test_solve_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = _write_config(tmp_path, out1)
    assert run_solve(cfg1) == EXIT_OK
    cfg2 = (tmp_path / "run2.cfg")
    cfg2.write_text(cfg1.read_text().replace(str(out1), str(out2)))
    assert run_solve(cfg2) == EXIT_OK
    assert (out1 / "orbitals.csv").read_bytes() == (out2 / "orbitals.csv").read_bytes()
    assert (out1 / "energy_trace.csv").read_bytes() == (out2 / "energy_trace.csv").read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("timestamp"), r2.pop("timestamp")
    r1["config"].pop("output_dir"), r2["config"].pop("output_dir")
    assert r1 == r2


def test_verify_helium_suites_pass(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir)
    assert run_verify(cfg) == EXIT_OK
    verify = json.loads((outdir / "verify.json").read_text())
    assert verify["all_passed"] is True
    for name in ("minimizer", "decay", "kato", "herbst"):
        assert verify["suites"][name]["status"] == "passed", name
    # solve artifacts were produced on the way
    assert (outdir / "orbitals.csv").is_file()


def test_verify_reuses_existing_solution(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir)
    assert run_solve(cfg) == EXIT_OK
    stamp = (outdir / "report.json").stat().st_mtime_ns
    assert run_verify(cfg) == EXIT_OK
    assert (outdir / "report.json").stat().st_mtime_ns == stamp


def test_verify_from_an_empty_directory_reuses_the_solves_operator(tmp_path, monkeypatch):
    builds, certificates = [], []
    fock_build = prhf.scf.fock_build
    certificate = prhf.analysis.minimizer_certificate

    def counting_build(*args, **kwargs):
        builds.append(args)
        return fock_build(*args, **kwargs)

    def counting_certificate(*args, **kwargs):
        certificates.append(args)
        return certificate(*args, **kwargs)

    for module in (prhf.scf, prhf.cli, prhf.analysis):
        monkeypatch.setattr(module, "fock_build", counting_build)
    monkeypatch.setattr(prhf.analysis, "minimizer_certificate", counting_certificate)
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, verify_kato="false", verify_herbst="false")
    assert run_verify(cfg) == EXIT_OK
    assert len(builds) == 10        # the solve's; a rebuild for the suites made 11
    assert len(certificates) == 1   # the solve's, reused by the minimizer suite
    solved = json.loads((outdir / "verify.json").read_text())
    builds.clear(), certificates.clear()
    assert run_verify(cfg) == EXIT_OK       # on the stored solve: one build, one certificate
    assert len(builds) == 1 and len(certificates) == 1
    stored = json.loads((outdir / "verify.json").read_text())
    solved.pop("timestamp"), stored.pop("timestamp")
    assert solved == stored


def test_solve_report_records_every_iteration(tmp_path):
    outdir = tmp_path / "out"
    assert run_solve(_write_config(tmp_path, outdir)) == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())["report"]
    steps = report["steps"]
    assert report["iterations"] > 3 and len(steps) == report["iterations"]
    assert {tuple(sorted(s)) for s in steps} == {
        ("E", "a", "b", "commutator_residual", "dE", "iteration", "t"),
    }
    assert [s["iteration"] for s in steps] == list(range(1, len(steps) + 1))
    totals = [e["total"] for e in report["energy_trace"]][:len(steps) + 1]
    assert [s["E"] for s in steps] == totals[1:]
    assert [s["dE"] for s in steps] == [a - b for a, b in zip(totals, totals[1:])]
    assert all(0.0 <= s["t"] <= 1.0 and s["commutator_residual"] >= 0.0 for s in steps)
    # the record stays out of the CSVs
    trace = (outdir / "energy_trace.csv").read_text().splitlines()
    assert len(trace) == 1 + len(report["energy_trace"])


def _truncate_report(outdir):
    text = (outdir / "report.json").read_text()
    (outdir / "report.json").write_text(text[: len(text) // 2])


def _truncate_orbitals(outdir):
    lines = (outdir / "orbitals.csv").read_text().splitlines()
    (outdir / "orbitals.csv").write_text("\n".join(lines[:100]) + "\n")


def _drop_orbital_column(outdir):
    lines = (outdir / "orbitals.csv").read_text().splitlines()
    rows = [lines[0]] + [line.rsplit(",", 1)[0] for line in lines[1:]]
    (outdir / "orbitals.csv").write_text("\n".join(rows) + "\n")


def _scale_an_orbital(outdir):
    # every file still reads back whole; the orbital's norm is off by 1e-6
    lines = (outdir / "orbitals.csv").read_text().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[1] = f"{float(cells[1]) * (1.0 + 1e-6):.16e}"
        rows.append(",".join(cells))
    (outdir / "orbitals.csv").write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("damage", [
    _truncate_report, _truncate_orbitals, _drop_orbital_column, _scale_an_orbital,
])
def test_verify_resolves_a_damaged_solution(tmp_path, damage):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir)
    assert run_solve(cfg) == EXIT_OK
    whole = (outdir / "orbitals.csv").read_bytes()
    damage(outdir)
    assert run_verify(cfg) == EXIT_OK
    assert (outdir / "orbitals.csv").read_bytes() == whole
    assert json.loads((outdir / "verify.json").read_text())["all_passed"] is True


def test_verify_resolves_a_stored_nan_occupation(tmp_path, caplog):
    """A NaN occupation fails every admissibility comparison: the solve counts as damaged."""
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir)
    assert run_solve(cfg) == EXIT_OK
    payload = json.loads((outdir / "report.json").read_text())
    payload["report"]["occupations"][0]["f"] = float("nan")
    (outdir / "report.json").write_text(json.dumps(payload))
    with caplog.at_level("WARNING", logger="prhf.cli"):
        assert run_verify(cfg) == EXIT_OK
    assert "damaged" in caplog.text and "NotAdmissible: occupation out of [0,1]" in caplog.text
    stored = json.loads((outdir / "report.json").read_text())["report"]["occupations"]
    assert all(np.isfinite(occ["f"]) for occ in stored)        # solved again and rewritten
    assert json.loads((outdir / "verify.json").read_text())["all_passed"] is True


def test_report_records_the_eigensolver_work(tmp_path):
    """He at n = 400: one-column fills, the table at N + 4, no dense fallback; CSVs unchanged."""
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, n=400)
    assert run_solve(cfg) == EXIT_OK
    record = json.loads((outdir / "report.json").read_text())["report"]["eigensolves"]
    blocks, iterations = record["lobpcg_blocks"], record["lobpcg_iterations"]
    *fills, table = blocks
    assert fills and set(fills) == {1} and table == 2 + 4
    assert record["lobpcg_solves"] == len(blocks) == len(iterations)
    assert all(its > 1 for its in iterations)
    assert record["lobpcg_work"] == sum(its * (1 + k) for k, its in zip(blocks, iterations))
    assert record["dense_fallbacks"] == 0
    for name in ("energy_trace.csv", "orbitals.csv"):
        assert "lobpcg" not in (outdir / name).read_text()


@pytest.mark.parametrize("key", ["decay_window_lo", "decay_window_hi"])
def test_half_set_decay_window_exits_1(tmp_path, key):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, **{key: 8.0})
    assert run_verify(cfg) == EXIT_CONFIG
    assert not outdir.exists()


def test_verify_nonrelativistic_kinetic(tmp_path):
    # the verify suites must certify with the kinetic energy the solve used
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, alpha=0.05, n=400, kinetic="nonrelativistic")
    assert run_verify(cfg) == EXIT_OK
    verify = json.loads((outdir / "verify.json").read_text())
    assert verify["suites"]["minimizer"]["clauses"]["hf_equations"]["passed"] is True
    # the output names the law it certified; the herbst bound is on the square-root h0
    assert verify["system"]["kinetic"] == "nonrelativistic"
    assert verify["suites"]["herbst"]["kinetic"] == "pseudorelativistic"


@pytest.mark.parametrize("stored, requested", [
    ({"n": 240}, {"n": 300}),
    ({"Z": 2.0}, {"Z": 3.0}),
])
def test_verify_resolves_a_stale_solution(tmp_path, stored, requested):
    outdir = tmp_path / "out"
    assert run_solve(_write_config(tmp_path, outdir, **stored)) == EXIT_OK
    assert run_verify(_write_config(tmp_path, outdir, **requested)) == EXIT_OK
    report = json.loads((outdir / "report.json").read_text())
    assert report["grid"]["n"] == requested.get("n", 240)
    assert report["config"]["Z"] == requested.get("Z", 2.0)


def test_verify_solves_a_solve_stored_with_the_old_channel_keys_again_once(tmp_path, caplog):
    """A report.json with `ell_max = null` and `include_p_shells` is solved again, then reused."""
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir)
    assert run_solve(cfg) == EXIT_OK
    payload = json.loads((outdir / "report.json").read_text())
    payload["config"].update(ell_max=None, include_p_shells=False)
    (outdir / "report.json").write_text(json.dumps(payload))
    with caplog.at_level("WARNING", logger="prhf.cli"):
        assert run_verify(cfg) == EXIT_OK
    assert "BadCount: ell_max=None must be a non-negative integer" in caplog.text
    config = json.loads((outdir / "report.json").read_text())["config"]
    assert config["ell_max"] == 0 and "include_p_shells" not in config
    stamp = (outdir / "report.json").stat().st_mtime_ns
    assert run_verify(cfg) == EXIT_OK
    assert (outdir / "report.json").stat().st_mtime_ns == stamp


def test_verify_binding_row_from_solution(tmp_path, monkeypatch):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, verify_binding="true")
    assert run_solve(cfg) == EXIT_OK
    solved = []
    solve_scf = prhf.analysis.solve_scf

    def counting_solve(sys, options):
        solved.append(sys.N)
        return solve_scf(sys, options)

    monkeypatch.setattr(prhf.analysis, "solve_scf", counting_solve)
    assert run_verify(cfg) == EXIT_OK
    assert solved == [1]        # N = 2 comes from the stored solve
    monkeypatch.undo()
    system = AtomSystem(Z=2.0, N=2, alpha=1.0 / 137.036)
    rows, ok = binding_monotonicity(system, 2, SolverOptions(n=240, r_max=14.0))
    verify = json.loads((outdir / "verify.json").read_text())
    assert ok and verify["suites"]["binding"]["rows"] == rows


def test_verify_s_only_forms_no_dense_matrix(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense n x n path ran")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(prhf.radial, "spectral_function", refuse)
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, verify_greens="true", verify_binding="true")
    assert run_verify(cfg) == EXIT_OK
    verify = json.loads((outdir / "verify.json").read_text())
    assert verify["all_passed"] is True
    assert set(verify["suites"]) == {"minimizer", "decay", "kato", "herbst", "greens", "binding"}


@pytest.mark.parametrize("runner, key, value", [
    (run_verify, "kato_samples", 0),
    (run_verify, "binding_n_max", 0),
    (run_sweep, "sweep_n_max", -1),
])
def test_counts_below_one_exit_1(tmp_path, runner, key, value):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, verify_binding="true", **{key: value})
    assert runner(cfg) == EXIT_CONFIG
    assert not outdir.exists()


@pytest.mark.parametrize("runner", [run_verify, run_greens])
@pytest.mark.parametrize("energy", [0.5, -200.0])
def test_bad_greens_energy_exits_1_before_any_work(tmp_path, monkeypatch, runner, energy):
    def no_work(*args, **kwargs):
        raise AssertionError("ran work for an invalid greens_energy")

    monkeypatch.setattr(prhf.cli, "solve_scf", no_work)
    monkeypatch.setattr(prhf.greens, "greens_kernel", no_work)
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, verify_greens="true", greens_energy=energy)
    assert runner(cfg) == EXIT_CONFIG
    assert not outdir.exists()
    # inside (-alpha^-1, 0) the value parses
    cfg = _write_config(tmp_path, outdir, greens_energy=-0.01)
    assert parse_config(cfg)["greens_energy"] == -0.01


# carbon asking for a p-shell seed on the s channels alone
_CARBON_P_SEED = {
    "Z": 6.0, "N": 6, "n": 200, "ell_max": 0, "include_p_shells": "true", "initial_guess": "shells",
}


@pytest.mark.parametrize("runner, overrides", [
    # the grid-size cases keep their plain ids
    pytest.param(runner, overrides, id=name if case == "n=8" else f"{name}-{case}")
    for name, runner in (
        ("solve", run_solve), ("verify", run_verify), ("greens", run_greens), ("sweep", run_sweep),
    )
    for case, overrides in [
        (f"{key}={value}", {key: value}) for key, value in (
            ("n", 8), ("r_max", "nan"), ("r_max", "inf"), ("tol_energy", "nan"),
            ("tol_commutator", "nan"), ("alpha", "nan"), ("Z", "nan"), ("ell_max", -1),
            ("ell_max", "auto"), ("include_p_shells", "true"),
        )
    ] + [("carbon_p_seed", _CARBON_P_SEED)]
])
def test_invalid_solver_option_exits_1_before_any_work(tmp_path, monkeypatch, runner, overrides):
    def no_work(*args, **kwargs):
        raise AssertionError("ran work for invalid solver options")

    monkeypatch.setattr(prhf.cli, "solve_scf", no_work)
    monkeypatch.setattr(prhf.analysis, "solve_scf", no_work)
    monkeypatch.setattr(prhf.greens, "greens_kernel", no_work)
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, verify_greens="true", verify_binding="true", **overrides)
    assert runner(cfg) == EXIT_CONFIG
    assert not outdir.exists()


@pytest.mark.parametrize("runner, overrides, written", [
    (run_verify, {}, {"report.json", "orbitals.csv", "energy_trace.csv"}),
    (run_verify, {"verify_minimizer": "false", "verify_decay": "false", "verify_kato": "false",
                  "verify_herbst": "false", "verify_binding": "true"}, set()),
    (run_sweep, {"sweep_n_max": 2}, set()),
], ids=["verify_solves_first", "verify_binding_only", "sweep"])
def test_not_converged_exits_2(tmp_path, runner, overrides, written):
    # only the unconverged solve of the configured system is written
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, max_iter=1, tol_energy=1e-15, **overrides)
    assert runner(cfg) == EXIT_NOT_CONVERGED
    assert {path.name for path in outdir.iterdir()} == written
    if written:
        assert json.loads((outdir / "report.json").read_text())["report"]["converged"] is False


def test_stalled_optimal_damping_exits_2(tmp_path, monkeypatch):
    # a line with a >= 0 and b > 0 gives t = 0: the step keeps gamma
    monkeypatch.setattr(prhf.scf, "line_coefficients", lambda *args, **kwargs: (1.0, 1.0))
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, n=200, max_iter=50)
    assert main(["solve", str(cfg)]) == EXIT_NOT_CONVERGED
    report = json.loads((outdir / "report.json").read_text())["report"]
    assert report["converged"] is False
    assert report["iterations"] == 1
    assert report["message"] == "optimal damping stalled at iteration 1 (t = 0)"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_neon_tight_tolerance_ends_by_iteration_40(tmp_path, threads):
    """Neon at tol 1e-12 ends long before max_iter, whatever the BLAS threads.

    Whether the run stalls at t = 0 or converges depends on the BLAS build
    and its thread count. A run that exits 0 must carry a final commutator
    residual within tol_commutator: the residual is a sum of squares, so
    roundoff cannot make it read below the tolerance on a state above it.
    """
    outdir = tmp_path / "out"
    cfg = _write_config(
        tmp_path, outdir, Z=10.0, N=10, n=200, r_max=15.0, ell_max=1,
        tol_energy=1e-12, tol_commutator=1e-12, max_iter=300,
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    proc = subprocess.run(
        [sys.executable, "-m", "prhf.cli", "solve", str(cfg)],
        env=env, capture_output=True, timeout=120,
    )
    payload = json.loads((outdir / "report.json").read_text())
    report = payload["report"]
    assert report["iterations"] <= 40
    if proc.returncode == EXIT_OK:
        assert report["commutator_residual"] <= payload["config"]["tol_commutator"]
    else:
        assert proc.returncode == EXIT_NOT_CONVERGED
        assert report["message"].startswith("optimal damping stalled")


@pytest.mark.parametrize("lo, hi", [(10.0, 5.0), (8.0, 13.9), (0.0, 5.0)],
                         ids=["reversed", "wall", "origin"])
def test_bad_decay_window_exits_1(tmp_path, monkeypatch, lo, hi):
    # r_max = 14: a window must sit inside (0, 10.5]
    def refuse(*args, **kwargs):
        raise AssertionError("solved a configuration with a bad decay window")

    monkeypatch.setattr(prhf.cli, "solve_scf", refuse)
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, decay_window_lo=lo, decay_window_hi=hi)
    assert run_verify(cfg) == EXIT_CONFIG
    assert not outdir.exists()


def test_verify_narrow_window_inconclusive(tmp_path):
    # a valid window with fewer than 20 nodes (h = 14/241) cannot be fitted
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, decay_window_lo=8.0, decay_window_hi=8.5)
    assert run_verify(cfg) == EXIT_CERTIFICATE
    verify = json.loads((outdir / "verify.json").read_text())
    assert verify["suites"]["decay"]["status"] == "inconclusive"


def test_verify_greens_only_without_solution(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write_config(
        tmp_path, outdir,
        verify_minimizer="false", verify_decay="false", verify_kato="false",
        verify_herbst="false", verify_greens="true", verify_binding="false",
    )
    assert run_verify(cfg) == EXIT_OK
    assert not (outdir / "orbitals.csv").exists()
    verify = json.loads((outdir / "verify.json").read_text())
    assert verify["suites"]["greens"]["status"] == "passed"


def test_verify_tabulates_the_kernel_once(tmp_path, monkeypatch):
    calls = []
    greens_kernel = prhf.greens.greens_kernel

    def counting_kernel(*args, **kwargs):
        calls.append(args)
        return greens_kernel(*args, **kwargs)

    monkeypatch.setattr(prhf.greens, "greens_kernel", counting_kernel)
    outdir = tmp_path / "out"
    cfg = _write_config(
        tmp_path, outdir,
        verify_minimizer="false", verify_decay="false", verify_kato="false",
        verify_herbst="false", verify_greens="true", verify_binding="false",
    )
    assert run_verify(cfg) == EXIT_OK
    assert len(calls) == 1


def test_verify_every_shipped_config(tmp_path):
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert configs
    failed = {}
    for shipped in configs:
        outdir = tmp_path / shipped.stem
        lines = [
            f"output_dir = {outdir}" if line.split("=")[0].strip() == "output_dir" else line
            for line in shipped.read_text().splitlines()
        ]
        cfg = tmp_path / shipped.name
        cfg.write_text("\n".join(lines) + "\n")
        code = run_verify(cfg)
        if code != EXIT_OK:
            failed[shipped.stem] = code
    assert failed == {}


def test_greens_command(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir)
    assert run_greens(cfg) == EXIT_OK
    header = (outdir / "greens.csv").read_text().splitlines()[0]
    assert header == "u,G,term1,term2,term3"
    payload = json.loads((outdir / "greens.json").read_text())
    assert payload["suite"]["status"] == "passed"


def test_sweep_command(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, sweep_n_max=2)
    assert run_sweep(cfg) == EXIT_OK
    rows = json.loads((outdir / "sweep.json").read_text())["rows"]
    assert [row["N"] for row in rows] == [1, 2]
    assert rows[1]["total"] < rows[0]["total"]


def test_main_dispatch(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir)
    assert main(["solve", str(cfg)]) == EXIT_OK
    assert main(["greens", str(cfg)]) == EXIT_OK
    missing = tmp_path / "missing.cfg"
    assert main(["solve", str(missing)]) == EXIT_CONFIG
