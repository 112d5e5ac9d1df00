import ast
import json
import logging
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import prhf.analysis
import prhf.cli
import prhf.coulomb
import prhf.functional
import prhf.greens
import prhf.lapack
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
    builds, certificates, suite_solves = [], [], []
    fock_build = prhf.scf.fock_build
    certificate = prhf.analysis.minimizer_certificate
    suite = prhf.analysis.minimizer_suite

    def counting_build(*args, **kwargs):
        builds.append(args)
        return fock_build(*args, **kwargs)

    def counting_certificate(*args, **kwargs):
        certificates.append(args)
        return certificate(*args, **kwargs)

    def recording_suite(fock):
        before = len(fock.eigensolves)
        record = suite(fock)
        suite_solves.append((before, len(fock.eigensolves)))
        return record

    for module in (prhf.scf, prhf.cli, prhf.analysis):
        monkeypatch.setattr(module, "fock_build", counting_build)
    monkeypatch.setattr(prhf.analysis, "minimizer_certificate", counting_certificate)
    monkeypatch.setattr(prhf.analysis, "minimizer_suite", recording_suite)
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, verify_kato="false", verify_herbst="false")
    assert run_verify(cfg) == EXIT_OK
    assert len(builds) == 10        # the solve's; a rebuild for the suites made 11
    assert len(certificates) == 2   # the solve's, and the minimizer suite's on its operator
    # the suite's certificate reads the level table the solve's certificate solved
    [(before, after)] = suite_solves
    assert before > 0 and after == before
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
    """He at n = 400: one-column fills, the table at its one orbital plus one, warm starts,
    no fallback, each solve's tolerance; CSVs unchanged."""
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, n=400)
    assert run_solve(cfg) == EXIT_OK
    record = json.loads((outdir / "report.json").read_text())["report"]["eigensolves"]
    blocks, iterations = record["lobpcg_blocks"], record["lobpcg_iterations"]
    *fills, table = blocks
    assert fills and set(fills) == {1} and table == 1 + 1
    assert record["lobpcg_solves"] == len(blocks) == len(iterations)
    assert all(its > 1 for its in iterations)
    assert record["lobpcg_work"] == sum(its * (1 + k) for k, its in zip(blocks, iterations))
    assert record["dense_fallbacks"] == 0
    # only the fill of the h0 guess, whose density is empty, starts cold
    assert record["lobpcg_warm"] == [False] + [True] * (len(blocks) - 1)
    # the h0 fill and the last fill solve to full tolerance, the table to the level one,
    # and a search direction's fill to at most 1e-6
    rtols = record["lobpcg_rtol"]
    assert len(rtols) == len(blocks)
    assert rtols[0] == rtols[-2] == prhf.scf.LOBPCG_RTOL
    assert rtols[-1] == prhf.scf.LOBPCG_LEVEL_RTOL
    assert max(rtols) <= 1e-6
    for name in ("energy_trace.csv", "orbitals.csv"):
        text = (outdir / name).read_text()
        assert "lobpcg" not in text and "warm" not in text


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


def test_verify_reads_a_stored_solve_on_the_grid_of_its_options(tmp_path, caplog):
    """The stored config, not report.json's grid block, names the grid the orbitals are read
    on: a config edited to another n makes the stored CSV the wrong length, so the solve
    counts as damaged and the requested grid is solved."""
    outdir = tmp_path / "out"
    assert run_solve(_write_config(tmp_path, outdir, n=240)) == EXIT_OK
    payload = json.loads((outdir / "report.json").read_text())
    payload["config"]["n"] = 300
    (outdir / "report.json").write_text(json.dumps(payload))
    with caplog.at_level("WARNING", logger="prhf.cli"):
        assert run_verify(_write_config(tmp_path, outdir, n=300)) == EXIT_OK
    assert "damaged" in caplog.text
    assert "orbitals.csv is (240, 3), expected (300, 3)" in caplog.text
    report = json.loads((outdir / "report.json").read_text())
    assert report["grid"]["n"] == report["config"]["n"] == 300
    assert len((outdir / "orbitals.csv").read_text().splitlines()) == 1 + 300


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
    assert "stored config does not parse" in caplog.text and "damaged" not in caplog.text
    config = json.loads((outdir / "report.json").read_text())["config"]
    assert config["ell_max"] == 0 and "include_p_shells" not in config
    stamp = (outdir / "report.json").stat().st_mtime_ns
    assert run_verify(cfg) == EXIT_OK
    assert (outdir / "report.json").stat().st_mtime_ns == stamp


@pytest.mark.parametrize("stored", [{"ell_max": None}, {"n": -5}], ids=["null-ell_max", "negative-n"])
def test_verify_names_a_stored_config_that_does_not_parse(stored, tmp_path, caplog):
    """Whole files under a stored config that does not parse are solved again, not called damaged."""
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir)
    assert run_solve(cfg) == EXIT_OK
    whole = (outdir / "orbitals.csv").read_bytes()
    payload = json.loads((outdir / "report.json").read_text())
    payload["config"].update(stored)
    (outdir / "report.json").write_text(json.dumps(payload))
    with caplog.at_level("WARNING", logger="prhf.cli"):
        assert run_verify(cfg) == EXIT_OK
    [record] = caplog.records
    assert "its stored config does not parse under this version" in record.getMessage()
    assert "damaged" not in caplog.text
    assert json.loads((outdir / "report.json").read_text())["config"]["ell_max"] == 0
    assert (outdir / "orbitals.csv").read_bytes() == whole


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


def test_binding_rows_and_sweep_solve_no_level_table(tmp_path, monkeypatch):
    """Binding rows read each solve's energy and HOMO only: no level table is solved.

    Only a level table (or the certificate, which asks for the same levels)
    solves at LOBPCG_LEVEL_RTOL.
    """
    tables, rtols = [], []
    table, levels = prhf.scf._level_table, prhf.scf._lobpcg_levels

    def counting_table(*args):
        tables.append(args)
        return table(*args)

    def recording(fock, key, k, rtol):
        rtols.append(rtol)
        return levels(fock, key, k, rtol)

    monkeypatch.setattr(prhf.scf, "_level_table", counting_table)
    monkeypatch.setattr(prhf.scf, "_lobpcg_levels", recording)
    system = AtomSystem(Z=2.0, N=2, alpha=1.0 / 137.036)
    rows, ok = binding_monotonicity(system, 2, SolverOptions(n=240, r_max=14.0))
    assert ok and [row["N"] for row in rows] == [1, 2]
    assert run_sweep(_write_config(tmp_path, tmp_path / "out", Z=3.0, N=3, r_max=16.0)) == EXIT_OK
    assert rtols and prhf.scf.LOBPCG_LEVEL_RTOL not in rtols
    assert tables == []


def test_s_only_solve_and_verify_start_no_thread(tmp_path, monkeypatch):
    """Only dense channel solves run side by side: helium's solve and verify start no thread."""
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = _write_config(tmp_path, tmp_path / "out", verify_greens="true", verify_binding="true")
    assert run_solve(cfg) == EXIT_OK
    assert run_verify(cfg) == EXIT_OK


def test_verify_s_only_forms_no_dense_matrix(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense n x n path ran")

    monkeypatch.setattr(prhf.lapack, "syevr", refuse)
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
])
def test_counts_below_one_exit_1(tmp_path, runner, key, value):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, verify_binding="true", **{key: value})
    assert runner(cfg) == EXIT_CONFIG
    assert not outdir.exists()


@pytest.mark.parametrize("runner, key", [
    (run_verify, "binding_n_max"),
    (run_sweep, "sweep_n_max"),
])
def test_removed_count_keys_exit_1(tmp_path, runner, key):
    # the binding suite and the sweep run N = 1..N of the config
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, verify_binding="true", **{key: 2})
    with pytest.raises(ConfigError, match=f"unknown configuration keys: {key}"):
        parse_config(cfg)
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


@pytest.mark.parametrize("runner", [run_solve, run_verify, run_greens, run_sweep])
def test_key_set_twice_exits_1_before_any_work(tmp_path, monkeypatch, runner):
    def no_work(*args, **kwargs):
        raise AssertionError("ran work for a config that sets a key twice")

    monkeypatch.setattr(prhf.cli, "solve_scf", no_work)
    monkeypatch.setattr(prhf.analysis, "solve_scf", no_work)
    monkeypatch.setattr(prhf.greens, "greens_kernel", no_work)
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, n=300)       # n on line 4 of 9
    cfg.write_text(cfg.read_text() + "n = 400\n")
    with pytest.raises(ConfigError, match="run.cfg:10: key n already set on line 4"):
        parse_config(cfg)
    assert runner(cfg) == EXIT_CONFIG
    assert not outdir.exists()


@pytest.mark.parametrize("case", ["non_utf8_config", "output_dir_below_a_file"])
def test_unreadable_config_or_unmakeable_output_dir_exits_1(tmp_path, monkeypatch, caplog, case):
    """Bad input is a configuration error: one log line and exit 1, no traceback and no solve."""
    def no_work(*args, **kwargs):
        raise AssertionError("solved for a config that cannot run")

    monkeypatch.setattr(prhf.cli, "solve_scf", no_work)
    if case == "non_utf8_config":
        outdir = tmp_path / "out"
        cfg = _write_config(tmp_path, outdir)
        cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
    else:
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        outdir = blocker / "out"
        cfg = _write_config(tmp_path, outdir)
    with caplog.at_level(logging.INFO, logger="prhf"):
        assert run_solve(cfg) == EXIT_CONFIG
    assert not outdir.exists()
    [record] = caplog.records
    assert record.levelno == logging.ERROR and record.exc_info is None


def _sink_nuclear_trace(monkeypatch):
    """Every total falls alpha^-2 Tr gamma below the -alpha^-2 Tr gamma floor."""
    terms = prhf.functional.energy_terms

    def sunk(gamma, grid, sys):
        tr_T, tr_V, D, Ex = terms(gamma, grid, sys)
        return tr_T, tr_V + 2.0 * sys.alpha_inv * gamma.trace(), D, Ex

    monkeypatch.setattr(prhf.functional, "energy_terms", sunk)


# guard -> (a monkeypatch that trips it on the first energy or step, its message)
_RUNTIME_GUARDS = {
    "EnergyBoundViolated": (_sink_nuclear_trace, "fell below -alpha^-2*Tr"),
    "NonFiniteEnergy": (
        lambda mp: mp.setattr(prhf.coulomb, "exchange_energy", lambda gamma, grid: float("nan")),
        "Ex evaluated to nan"),
    # a negative slack makes every step's energy read as a rise
    "LineSearchFailure": (lambda mp: mp.setattr(prhf.scf, "DESCENT_SLACK", -1.0), "energy rose"),
}


@pytest.mark.parametrize("guard", sorted(_RUNTIME_GUARDS))
def test_solve_exits_1_when_a_runtime_guard_fires(guard, tmp_path, monkeypatch, caplog):
    """A guard that fires inside the solve is a SolverError: one log line, exit 1, no traceback."""
    trip, message = _RUNTIME_GUARDS[guard]
    trip(monkeypatch)
    outdir = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="prhf"):
        assert main(["solve", str(_write_config(tmp_path, outdir))]) == EXIT_CONFIG
    [record] = caplog.records
    assert record.levelno == logging.ERROR and record.exc_info is None
    assert message in record.getMessage()
    assert not (outdir / "report.json").exists()


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
    (run_sweep, {}, set()),
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


def test_verify_anion_with_unbound_homo_is_inconclusive(tmp_path):
    """He-: the HOMO lies above 0, so decay and greens record inconclusive and verify exits 3."""
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, N=3, n=200, r_max=40.0, verify_kato="false",
                        verify_greens="true")
    assert run_verify(cfg) == EXIT_CERTIFICATE
    verify = json.loads((outdir / "verify.json").read_text())
    suites = verify["suites"]
    assert verify["all_passed"] is False
    assert {name: s["status"] for name, s in suites.items()} == {
        "minimizer": "failed", "decay": "inconclusive", "herbst": "passed", "greens": "inconclusive",
    }
    assert suites["minimizer"]["clauses"]["negativity"]["passed"] is False
    for name in ("decay", "greens"):
        assert suites[name]["reason"].startswith("E=") and "outside" in suites[name]["reason"]
    assert suites["greens"]["E"] > 0.0


def test_verify_herbst_failure_keeps_its_record(tmp_path, monkeypatch):
    """A lowest h0 level below the bound fails the herbst record; nothing raises."""
    spectra = prhf.scf._channel_spectra

    def sunk(fock):
        ainv = fock.system.alpha_inv
        return {key: (vals - ainv, vecs) for key, (vals, vecs) in spectra(fock).items()}

    monkeypatch.setattr(prhf.scf, "_channel_spectra", sunk)
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, verify_minimizer="false", verify_decay="false",
                        verify_kato="false")
    assert run_verify(cfg) == EXIT_CERTIFICATE
    herbst = json.loads((outdir / "verify.json").read_text())["suites"]["herbst"]
    assert herbst["status"] == "failed" and herbst["passed"] is False
    assert herbst["min_eigenvalue"] < herbst["bound"]
    assert herbst["margin"] == herbst["min_eigenvalue"] - herbst["bound"]
    assert herbst["kinetic"] == "pseudorelativistic"


def test_final_state_is_the_same_from_a_fresh_and_a_stored_solve(tmp_path):
    cfg = parse_config(_write_config(tmp_path, tmp_path / "out"))
    sys_, options = prhf.cli._system_from_config(cfg), prhf.cli._options_from_config(cfg)
    outdir = Path(cfg["output_dir"])
    outdir.mkdir()
    fresh, fresh_record = prhf.cli._final_state(cfg, sys_, options, outdir)
    stored, stored_record = prhf.cli._final_state(cfg, sys_, options, outdir)
    assert json.loads(json.dumps(fresh_record)) == stored_record
    assert fresh.gamma.blocks.keys() == stored.gamma.blocks.keys()
    for key, blk in fresh.gamma.blocks.items():
        assert np.array_equal(blk.orbitals, stored.gamma.blocks[key].orbitals)
        assert np.array_equal(blk.occupations, stored.gamma.blocks[key].occupations)
    assert prhf.analysis.minimizer_suite(stored) == prhf.analysis.minimizer_suite(fresh)


def test_cli_holds_no_suite_verdict_or_tolerance():
    """Every verify suite, its verdict and its tolerances live in analysis, not in cli."""
    tree = ast.parse(Path(prhf.cli.__file__).read_text())
    functions = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert [name for name in functions if "suite" in name] == []
    names = [t.id for n in tree.body if isinstance(n, ast.Assign)
             for t in n.targets if isinstance(t, ast.Name)]
    assert [name for name in names if "TOL" in name.upper()] == []
    # thresholds are float literals; the only ones left bound greens_energy to (-alpha^-1, 0)
    floats = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and type(n.value) is float}
    assert floats <= {0.0, 1.0}


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


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


def _shipped_copy(tmp_path: Path, shipped: Path) -> tuple[Path, Path]:
    """(config, output_dir): the shipped config with its output_dir moved under tmp_path."""
    outdir = tmp_path / shipped.stem
    lines = [
        f"output_dir = {outdir}" if line.split("=")[0].strip() == "output_dir" else line
        for line in shipped.read_text().splitlines()
    ]
    cfg = tmp_path / shipped.name
    cfg.write_text("\n".join(lines) + "\n")
    return cfg, outdir


def test_verify_every_shipped_config(tmp_path):
    configs = sorted(SHIPPED.glob("*.cfg"))
    assert configs
    failed = {}
    for shipped in configs:
        cfg, _outdir = _shipped_copy(tmp_path, shipped)
        code = run_verify(cfg)
        if code != EXIT_OK:
            failed[shipped.stem] = code
    assert failed == {}


def test_helium_verify_writes_only_the_checks_that_read_the_kernel(tmp_path):
    """Every check of helium's greens record depends on the kernel at its HOMO."""
    cfg, outdir = _shipped_copy(tmp_path, SHIPPED / "helium.cfg")
    assert run_verify(cfg) == EXIT_OK
    greens = json.loads((outdir / "verify.json").read_text())["suites"]["greens"]
    assert set(greens["checks"]) == {
        "positivity", "est1_envelope", "tail_slope", "exp_moment", "resolvent_roundtrip",
        "resolvent_vs_dense"}
    assert greens["status"] == "passed"


def test_greens_command(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir)
    assert run_greens(cfg) == EXIT_OK
    header = (outdir / "greens.csv").read_text().splitlines()[0]
    assert header == "u,G,term1,term2,term3"
    payload = json.loads((outdir / "greens.json").read_text())
    assert payload["suite"]["status"] == "passed"


def _assert_nu_one_inconclusive(suite):
    assert suite == {"status": "inconclusive", "reason": "nu=1.0 outside (0, alpha^-1)", "E": None}


def test_verify_greens_at_alpha_one_is_inconclusive(tmp_path):
    """At alpha >= 1 the default nu = 1 has no energy; the greens record says so and verify exits 3."""
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, Z=0.5, N=1, alpha=1.0, verify_minimizer="false",
                        verify_decay="false", verify_greens="true")
    assert run_verify(cfg) == EXIT_CERTIFICATE
    suites = json.loads((outdir / "verify.json").read_text())["suites"]
    assert set(suites) == {"kato", "herbst", "greens"}
    _assert_nu_one_inconclusive(suites["greens"])


def test_greens_command_at_alpha_one_is_inconclusive(tmp_path):
    """With no kernel to tabulate, greens writes greens.json alone and exits 3."""
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir, Z=0.5, N=1, alpha=1.0)
    assert run_greens(cfg) == EXIT_CERTIFICATE
    _assert_nu_one_inconclusive(json.loads((outdir / "greens.json").read_text())["suite"])
    assert not (outdir / "greens.csv").exists()


def test_sweep_command(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write_config(tmp_path, outdir)
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


def _fresh_interpreter(code: str) -> list[str]:
    """Run `code` in a new interpreter that imports prhf from this checkout; its last line, split."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return (proc.stdout.splitlines() or [""])[-1].split()


def _loaded_line(prefix) -> str:
    return f"print('loaded:', *sorted(m for m in sys.modules if m.startswith({prefix!r})))\n"


def test_cli_import_leaves_unused_scipy_subpackages_unloaded():
    """import prhf.cli and parse_config load no scipy module at all.

    No module of prhf imports scipy: the dense eigensolves call the LAPACK
    that numpy links (prhf.lapack), and the DST-I of every grid length runs
    on numpy.fft. Other tests import scipy subpackages as oracles, so the
    check runs in a fresh interpreter.
    """
    cfg = Path(__file__).resolve().parents[1] / "configs" / "helium.cfg"
    code = f"import sys, prhf.cli\nprhf.cli.parse_config({str(cfg)!r})\n" + _loaded_line("scipy")
    assert _fresh_interpreter(code) == ["loaded:"]


def test_cli_import_loads_the_eigensolver_but_not_lapack():
    """import prhf.cli and parse_config load these prhf modules and no other.

    The eigensolver module comes with scf; prhf.lapack waits for the first
    dense eigensolve, so an s-only run never compiles it.
    """
    cfg = Path(__file__).resolve().parents[1] / "configs" / "helium.cfg"
    code = f"import sys, prhf.cli\nprhf.cli.parse_config({str(cfg)!r})\n" + _loaded_line("prhf")
    assert _fresh_interpreter(code) == [
        "loaded:", "prhf", "prhf.analysis", "prhf.cli", "prhf.coulomb", "prhf.eigen",
        "prhf.errors", "prhf.functional", "prhf.greens", "prhf.model", "prhf.radial", "prhf.scf"]


def test_cli_import_loads_no_numpy_random():
    """import prhf.cli and parse_config leave numpy.random unloaded.

    verify's Kato battery draws from the stdlib's `random`, so no pipeline
    pays numpy.random's import at start-up.
    """
    cfg = Path(__file__).resolve().parents[1] / "configs" / "helium.cfg"
    code = f"import sys, prhf.cli\nprhf.cli.parse_config({str(cfg)!r})\n"
    assert _fresh_interpreter(code + _loaded_line("numpy.random")) == ["loaded:"]


def test_cli_import_loads_no_thread_pool():
    """import prhf.cli and parse_config leave concurrent.futures unloaded: only the first
    side-by-side dense solve imports it."""
    cfg = Path(__file__).resolve().parents[1] / "configs" / "helium.cfg"
    code = f"import sys, prhf.cli\nprhf.cli.parse_config({str(cfg)!r})\n"
    assert _fresh_interpreter(code + _loaded_line("concurrent")) == ["loaded:"]


def test_s_only_solve_and_verify_load_no_fft_or_linalg(tmp_path):
    """An s-only helium solve and its verify load no scipy module.

    With n + 1 = 241 prime the DST-I goes by Rader's algorithm, with
    801 = 9*89 by the odd extension; each grid runs in its own interpreter.
    """
    for n in (240, 800):
        outdir = tmp_path / f"n{n}"
        cfg = _write_config(tmp_path, outdir, n=n, verify_greens="true", verify_binding="true")
        code = (
            "import sys\nfrom prhf.cli import main\n"
            f"assert main(['solve', {str(cfg)!r}]) == main(['verify', {str(cfg)!r}]) == 0\n"
            + _loaded_line("scipy")
        )
        assert _fresh_interpreter(code) == ["loaded:"], n
        verify = json.loads((outdir / "verify.json").read_text())
        assert verify["all_passed"] is True
        assert set(verify["suites"]) == {"minimizer", "decay", "kato", "herbst", "greens", "binding"}


def test_sweep_and_greens_load_no_scipy(tmp_path):
    """A lithium sweep and a greens run load no scipy module, with n + 1 = 401 prime or 801 = 9*89."""
    for n in (400, 800):
        outdir = tmp_path / f"n{n}"
        cfg = _write_config(tmp_path, outdir, Z=3.0, N=3, n=n, r_max=25.0)
        code = (
            "import sys\nfrom prhf.cli import main\n"
            f"assert main(['sweep', {str(cfg)!r}]) == main(['greens', {str(cfg)!r}]) == 0\n"
            + _loaded_line("scipy")
        )
        assert _fresh_interpreter(code) == ["loaded:"], n
        rows = json.loads((outdir / "sweep.json").read_text())["rows"]
        assert [row["N"] for row in rows] == [1, 2, 3]
        assert (outdir / "greens.csv").is_file()


def test_run_path_loads_no_numpy_submodule_on_first_use(tmp_path):
    """Every numpy submodule a solve or verify uses is loaded by import prhf.cli.

    A submodule first loaded inside the run would charge its import to the run.
    """
    cfg = _write_config(tmp_path, tmp_path / "out", verify_greens="true", verify_binding="true")
    code = (
        "import sys\nfrom prhf.cli import main\n"
        "before = set(sys.modules)\n"
        f"assert main(['solve', {str(cfg)!r}]) == main(['verify', {str(cfg)!r}]) == 0\n"
        "print('new:', *sorted(m for m in set(sys.modules) - before if m.startswith('numpy')))\n"
    )
    assert _fresh_interpreter(code) == ["new:"]


def test_p_channel_solve_loads_no_scipy_and_passes(tmp_path):
    """ell_max = 1 takes the dense eigensolves, on the LAPACK that numpy links: no scipy module loads."""
    cfg = _write_config(tmp_path, tmp_path / "out", ell_max=1)
    code = (
        "import sys\nfrom prhf.cli import main\n"
        f"assert main(['solve', {str(cfg)!r}]) == 0\n" + _loaded_line("scipy")
    )
    assert _fresh_interpreter(code) == ["loaded:"]


def test_runs_without_scipy_installed(tmp_path):
    """With scipy unimportable, solve and verify of helium and an ell_max = 1 solve exit 0.

    A finder first on sys.meta_path refuses scipy and every submodule, as
    an environment without scipy would: scipy is a test dependency only.
    """
    helium = Path(__file__).resolve().parents[1] / "configs" / "helium.cfg"
    p_cfg = _write_config(tmp_path, tmp_path / "p", ell_max=1)
    he_cfg = tmp_path / "helium.cfg"
    he_cfg.write_text(helium.read_text().replace("out/helium", str(tmp_path / "he")))
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "try:\n"
        "    import scipy.linalg\n"
        "    raise SystemExit('the finder let scipy through')\n"
        "except ModuleNotFoundError:\n"
        "    pass\n"
        "from prhf.cli import main\n"
        f"codes = [main(['solve', {str(he_cfg)!r}]), main(['verify', {str(he_cfg)!r}]),\n"
        f"         main(['solve', {str(p_cfg)!r}])]\n"
        "print('exits:', *codes)\n"
    )
    assert _fresh_interpreter(code) == ["exits:", "0", "0", "0"]
    assert (tmp_path / "he" / "verify.json").is_file() and (tmp_path / "p" / "report.json").is_file()


def test_p_channel_solve_without_the_lapack_routines_exits_1(tmp_path, monkeypatch, caplog):
    """A numpy whose LAPACK lacks dsyevr and dstemr fails an ell_max = 1 solve at its first
    dense use: one ERROR record naming the routine, exit 1, no traceback."""
    monkeypatch.setattr(prhf.lapack, "_library", lambda: types.SimpleNamespace())
    outdir = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="prhf"):
        assert main(["solve", str(_write_config(tmp_path, outdir, ell_max=1))]) == EXIT_CONFIG
    [record] = caplog.records
    assert record.levelno == logging.ERROR and record.exc_info is None
    assert "exports no 64-bit d" in record.getMessage()
    assert not (outdir / "report.json").exists()
