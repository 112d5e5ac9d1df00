import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import prhf.analysis
import prhf.radial
from prhf import ConfigError, SolverOptions
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


def test_solve_unknown_key_exits_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("Z = 2\nN = 2\noutput_dir = out\nfrobnicate = 1\n")
    assert run_solve(cfg) == EXIT_CONFIG


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


def test_verify_nonrelativistic_kinetic(tmp_path):
    # the verify suites must certify with the kinetic energy the solve used
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, alpha=0.05, n=400, kinetic="nonrelativistic")
    assert run_verify(cfg) == EXIT_OK
    verify = json.loads((outdir / "verify.json").read_text())
    assert verify["suites"]["minimizer"]["clauses"]["hf_equations"]["passed"] is True


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
    rows, ok = binding_monotonicity(2.0, 1.0 / 137.036, 2, SolverOptions(n=240, r_max=14.0))
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


def test_verify_wall_window_inconclusive(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write_config(
        tmp_path, outdir,
        decay_window_lo=8.0, decay_window_hi=13.9,
    )
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
