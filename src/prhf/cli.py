"""Batch front door: solve / verify / greens / sweep pipelines.

Configuration is a flat key=value text file with # comments. Results are
written as machine-readable files only (report.json, orbitals.csv,
energy_trace.csv, verify.json, greens.csv/json, sweep.csv/json); logs go
to stderr and are never meant to be parsed.

Exit codes: 0 success, 1 configuration error, 2 not converged,
3 certificate or verification failure.

CSV numbers use 17-significant-digit scientific notation so identical
runs produce byte-identical files. BLAS thread counts are taken from
the usual environment variables (OMP_NUM_THREADS and friends); nothing
else is read from the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import logging
import sys as _sys
from pathlib import Path

import numpy as np
from scipy.special import kv as _indep_kv

from . import analysis, greens
from .coulomb import ChannelBlock, DensityMatrix
from .errors import (
    BoundViolated,
    ConfigError,
    NotConverged,
    SolverError,
    WindowTooNoisy,
)
from .model import AtomSystem, SolverOptions, validate_system
from .radial import build_grid, dst, kinetic_operator
from .scf import fock_build, orbital_residuals, solve_scf

log = logging.getLogger("prhf")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_CERTIFICATE = 3

_DECAY_RATE_TOL = 0.05
_KATO_TOL = 5e-3

# the one SCF algorithm, which the `algorithm` key may name
_ALGORITHM = "optimal-damping"

# key -> (parser, default); required keys carry the REQUIRED sentinel
_REQUIRED = object()


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_auto_float(text: str):
    return None if text.strip().lower() == "auto" else float(text)


def _parse_auto_int(text: str):
    return None if text.strip().lower() == "auto" else int(text)


def _parse_algorithm(text: str) -> str:
    if text != _ALGORITHM:
        raise ValueError(f"unknown algorithm {text!r}; the solver runs {_ALGORITHM!r}")
    return text


def _fields_schema(cls, **parsers) -> dict:
    """Schema entries for the fields of a model dataclass, with its defaults."""
    return {
        f.name: (parsers[f.name], _REQUIRED if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)
    }


_SCHEMA = {
    **_fields_schema(AtomSystem, Z=float, N=int, alpha=float, q=int, kinetic=str),
    **_fields_schema(
        SolverOptions, n=int, r_max=float, max_iter=int, tol_energy=float,
        tol_commutator=float, initial_guess=str, ell_max=int,
    ),
    "algorithm": (_parse_algorithm, _ALGORITHM),
    "output_dir": (str, _REQUIRED),
    "verify_minimizer": (_parse_bool, True),
    "verify_decay": (_parse_bool, True),
    "verify_kato": (_parse_bool, True),
    "verify_herbst": (_parse_bool, True),
    "verify_greens": (_parse_bool, True),
    "verify_binding": (_parse_bool, True),
    "kato_samples": (int, 100),
    "kato_seed": (int, 20240817),
    "greens_energy": (_parse_auto_float, None),
    "binding_n_max": (_parse_auto_int, None),
    "sweep_n_max": (_parse_auto_int, None),
    "decay_window_lo": (_parse_auto_float, None),
    "decay_window_hi": (_parse_auto_float, None),
}
# counts that, when set, must be at least 1
_COUNTS = ("kato_samples", "binding_n_max", "sweep_n_max")


def parse_config(path: str | Path) -> dict:
    """Read a flat key=value config; unknown keys are rejected by name."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    unknown: list[str] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            unknown.append(key)
            continue
        parser, _default = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(sorted(unknown))}")
    for key, (_parser, default) in _SCHEMA.items():
        if key in values:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"missing required configuration key: {key}")
        values[key] = default
    for key in _COUNTS:
        if values[key] is not None and values[key] < 1:
            raise ConfigError(f"{key} = {values[key]} must be at least 1")
    E, alpha = values["greens_energy"], values["alpha"]
    # a non-positive alpha is rejected with the system
    if E is not None and alpha > 0.0 and not (-1.0 / alpha < E < 0.0):
        raise ConfigError(f"greens_energy = {E} must lie in (-alpha^-1, 0)")
    window = (values["decay_window_lo"], values["decay_window_hi"])
    if (window[0] is None) != (window[1] is None):
        raise ConfigError("decay_window_lo and decay_window_hi must be set together")
    if window[0] is not None:
        problem = analysis.window_error(window, values["r_max"])
        if problem is not None:
            raise ConfigError(f"decay {problem}")
    return values


def _from_config(cls, cfg: dict):
    return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls)})


def _system_from_config(cfg: dict) -> AtomSystem:
    return validate_system(_from_config(AtomSystem, cfg))


def _options_from_config(cfg: dict) -> SolverOptions:
    return _from_config(SolverOptions, cfg).validated()


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _orbital_label(ell: int, spin: int, idx: int) -> str:
    return f"P_l{ell}_s{spin}_{idx}"


def _write_json(path: Path, payload: dict) -> None:
    """Stamp a result document with the UTC time and write it as sorted JSON."""
    payload = {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(), **payload}
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_solution(outdir: Path, cfg: dict, report, gamma, certificates) -> None:
    grid = report.fock.grid
    _write_json(outdir / "report.json", {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "grid": {"n": grid.n, "r_max": grid.r_max, "h": grid.h},
        "report": report.as_dict(),
        "certificates": certificates,
    })

    labels = ["r"]
    columns = [grid.nodes]
    for (ell, spin), blk in gamma.blocks.items():
        for a in range(blk.m):
            labels.append(_orbital_label(ell, spin, a))
            columns.append(blk.orbitals[:, a])
    rows = ([_fmt(col[i]) for col in columns] for i in range(grid.n))
    _write_csv(outdir / "orbitals.csv", labels, rows)

    header = ["iteration", "total", "kinetic", "nuclear", "direct", "exchange"]
    rows = (
        [str(i), _fmt(e.total), _fmt(e.kinetic), _fmt(e.nuclear), _fmt(e.direct), _fmt(e.exchange)]
        for i, e in enumerate(report.energy_trace)
    )
    _write_csv(outdir / "energy_trace.csv", header, rows)


def _load_solution(outdir: Path, sys_: AtomSystem, options: SolverOptions):
    """Rebuild (report_dict, gamma, grid) from a completed solve directory.

    None unless that solve converged for an equal system and equal options
    and its files read back whole, with orthonormal orbitals and admissible
    occupations: a damaged solve counts as absent.
    """
    report_path = outdir / "report.json"
    orbitals_path = outdir / "orbitals.csv"
    if not (report_path.is_file() and orbitals_path.is_file()):
        return None
    try:
        payload = json.loads(report_path.read_text())
        stored = payload["config"]
        if not (payload["report"]["converged"]
                and _system_from_config(stored) == sys_
                and _options_from_config(stored) == options):
            return None
        grid = build_grid(payload["grid"]["n"], payload["grid"]["r_max"])
        with open(orbitals_path) as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(orbitals_path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (grid.n, len(header)):
            raise ValueError(f"orbitals.csv is {data.shape}, expected ({grid.n}, {len(header)})")
        cols = {name: data[:, i] for i, name in enumerate(header)}
        blocks: dict = {}
        for occ in payload["report"]["occupations"]:
            key = (occ["ell"], occ["spin"])
            label = _orbital_label(occ["ell"], occ["spin"], occ["index"])
            blocks.setdefault(key, []).append((occ["index"], cols[label], occ["f"]))
        for key, entries in blocks.items():
            entries.sort()
            blocks[key] = ChannelBlock(
                orbitals=np.column_stack([v for (_i, v, _f) in entries]),
                occupations=np.array([f for (_i, _v, f) in entries]),
            )
        gamma = DensityMatrix(blocks).validate(grid, sys_.N)
    except (ValueError, KeyError, TypeError, SolverError) as exc:
        log.warning("ignoring the damaged solve in %s: %s: %s", outdir, type(exc).__name__, exc)
        return None
    return payload, gamma, grid


def _command(pipeline):
    """A command on a config path from a body `pipeline(cfg, sys_, options, outdir)`.

    The config, the system and the solver options are checked before the
    output directory is made and the body runs. NotConverged exits 2 and
    any other SolverError exits 1; otherwise the body's exit code stands.
    """

    @functools.wraps(pipeline)
    def command(config_path: str | Path) -> int:
        try:
            cfg = parse_config(config_path)
            sys_ = _system_from_config(cfg)
            options = _options_from_config(cfg)
            outdir = Path(cfg["output_dir"])
            outdir.mkdir(parents=True, exist_ok=True)
            return pipeline(cfg, sys_, options, outdir)
        except NotConverged as exc:
            log.error("SCF did not converge: %s", exc)
            return EXIT_NOT_CONVERGED
        except SolverError as exc:
            log.error("%s", exc)
            return EXIT_CONFIG

    return command


def _solve_and_write(cfg: dict, sys_: AtomSystem, options: SolverOptions, outdir: Path):
    """Shared by solve and verify: solve, certify, write; returns (report, gamma, certificate).

    An unconverged solve is written with its certificate skipped, and its
    NotConverged is raised again.
    """
    try:
        report, gamma = solve_scf(sys_, options)
    except NotConverged as exc:
        if exc.report is not None and exc.density is not None:
            _write_solution(outdir, cfg, exc.report, exc.density,
                            {"passed": False, "clauses": {}, "skipped": "not converged"})
        raise
    cert = analysis.minimizer_certificate(gamma, report.fock)
    _write_solution(outdir, cfg, report, gamma, dataclasses.asdict(cert))
    log.info(
        "converged=%s iterations=%d total=%.12f certificate=%s",
        report.converged, report.iterations, report.energy.total, cert.passed,
    )
    return report, gamma, cert


def _solve_pipeline(cfg: dict, sys_: AtomSystem, options: SolverOptions, outdir: Path) -> int:
    *_, cert = _solve_and_write(cfg, sys_, options, outdir)
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


run_solve = _command(_solve_pipeline)


# --- verification suites ----------------------------------------------------


def _suite_minimizer(gamma, fock, cert=None) -> dict:
    if cert is None:
        cert = analysis.minimizer_certificate(gamma, fock)
    return {**dataclasses.asdict(cert), "status": "passed" if cert.passed else "failed"}


def _suite_decay(gamma, fock, sys_, cfg) -> dict:
    occupied = orbital_residuals(fock, gamma)
    window = None
    if cfg["decay_window_lo"] is not None:      # parse_config sets both or neither
        window = (cfg["decay_window_lo"], cfg["decay_window_hi"])
    fits = []
    try:
        for (ell, spin), idx, eps, _res in occupied:
            fits.append(analysis.decay_fit(
                gamma.blocks[(ell, spin)].orbitals[:, idx], eps, fock.grid, sys_.alpha,
                window=window, orbital_id=_orbital_label(ell, spin, idx),
                charge=sys_.Z - sys_.N + 1,
            ))
    except WindowTooNoisy as exc:
        return {"status": "inconclusive", "reason": str(exc),
                "fits": [dataclasses.asdict(f) for f in fits]}
    eps_arr = np.array([eps for _key, _idx, eps, _res in occupied])
    homo_pos = int(np.argmax(eps_arr))
    nu_homo = analysis.nu_of_energy(float(eps_arr[homo_pos]), sys_.alpha)
    homo_ok = abs(fits[homo_pos].beta_hat - nu_homo) <= _DECAY_RATE_TOL * nu_homo
    lower_ok = all(f.beta_hat >= 0.95 * nu_homo for f in fits)
    # fitted rates must order like the predicted ones, for pairs whose
    # predictions are separated beyond the fit resolution
    ordering_ok = True
    for i in range(len(fits)):
        for j in range(len(fits)):
            if fits[i].nu_predicted < fits[j].nu_predicted * (1.0 - 0.02):
                ordering_ok = ordering_ok and fits[i].beta_hat < fits[j].beta_hat
    passed = homo_ok and lower_ok and ordering_ok
    return {
        "status": "passed" if passed else "failed",
        "homo_rate_ok": bool(homo_ok),
        "all_above_095_nu_homo": bool(lower_ok),
        "ordering_ok": ordering_ok,
        "nu_homo": nu_homo,
        "tolerance": _DECAY_RATE_TOL,
        "fits": [dataclasses.asdict(f) for f in fits],
    }


def _solution_suites(cfg: dict, sys_: AtomSystem, options: SolverOptions, outdir: Path):
    """(report dict, grid, suites): the minimizer and decay suites on a solution.

    A converged solve of this configuration stored in outdir is read back
    and its Fock operator built on the options' channels; otherwise the
    configuration is solved and written first, and the suites reuse the
    solve's operator and certificate. The operator is released before the
    remaining suites run.
    """
    loaded = _load_solution(outdir, sys_, options)
    if loaded is None:
        log.info("no converged solve of this configuration in %s; solving first", outdir)
        report, gamma, cert = _solve_and_write(cfg, sys_, options, outdir)
        payload, fock = {"report": report.as_dict()}, report.fock
    else:
        payload, gamma, grid = loaded
        fock, cert = fock_build(gamma, grid, sys_, ell_max=options.ell_max), None
    suites = {}
    if cfg["verify_minimizer"]:
        suites["minimizer"] = _suite_minimizer(gamma, fock, cert)
    if cfg["verify_decay"]:
        suites["decay"] = _suite_decay(gamma, fock, sys_, cfg)
    return payload, fock.grid, suites


def _suite_kato(grid, sys_, cfg) -> dict:
    battery = analysis.random_smooth_battery(grid, cfg["kato_samples"], cfg["kato_seed"])
    worst = -np.inf
    for u in battery:
        lhs, rhs = analysis.kato_probe(u, grid, sys_.alpha)
        worst = max(worst, lhs / rhs - 1.0)
    passed = worst <= _KATO_TOL
    return {
        "status": "passed" if passed else "failed",
        "samples": cfg["kato_samples"],
        "worst_excess": float(worst),
        "tolerance": _KATO_TOL,
    }


def _suite_herbst(grid, sys_, cfg) -> dict:
    try:
        rep = analysis.herbst_bound_check(sys_, grid)
    except BoundViolated as exc:
        rep = {"status": "failed", "reason": str(exc)}
    else:
        rep["status"] = "passed"
    # the bound is on the square-root h0, whatever kinetic law the system carries
    rep["kinetic"] = "pseudorelativistic"
    return rep


def _greens_battery(grid):
    widths = [(10.0, 1.5), (14.0, 2.0), (8.0, 1.5), (12.0, 2.5), (16.0, 1.8)]
    return [np.exp(-(((grid.nodes - c) / s) ** 2)) for (c, s) in widths]


def _suite_greens(cfg, sys_, eps_homo: float | None):
    """Standalone kernel suite on a fixed n=400 grid; no SCF solution needed.

    Returns (suite dict, the tabulated kernel it checked).
    """
    alpha = sys_.alpha
    E = cfg.get("greens_energy")
    if E is None:
        E = eps_homo if eps_homo is not None else greens.energy_of_nu(1.0, alpha)
    nu = greens.nu_of_energy(E, alpha)
    kernel = greens.greens_kernel(E, alpha)
    checks = {}

    positive = bool(np.all(kernel.values > 0.0))
    checks["positivity"] = {"passed": positive, "min_value": float(kernel.values.min())}

    env = kernel.envelope()
    margin = float(np.min(env - kernel.values))
    checks["est1_envelope"] = {
        "passed": bool(np.all(kernel.values <= env)),
        "min_margin": margin,
        "constant": kernel.c_bound,
    }

    ts = np.geomspace(1e-3, 1e3, 61)
    k1_vals = greens.bessel_k(1, ts)
    checks["k1_bound"] = {
        "passed": bool(np.all(k1_vals <= 1.0 / ts)),
        "worst_ratio": float(np.max(k1_vals * ts)),
    }

    ts2 = np.geomspace(1e-3, 600.0, 40)
    rec = greens.bessel_k(2, ts2)
    indep = _indep_kv(2, ts2)
    rec_resid = float(np.max(np.abs(rec - indep) / np.abs(indep)))
    checks["k2_recurrence"] = {"passed": rec_resid <= 1e-10, "residual": rec_resid}

    slope = greens.tail_slope(kernel)
    checks["tail_slope"] = {
        "passed": bool(slope >= -nu - 1e-3),
        "slope": slope,
        "nu": nu,
    }

    moment, tail_frac = greens.exp_moment(kernel, 0.9 * nu)
    checks["exp_moment"] = {
        "passed": bool(np.isfinite(moment) and tail_frac < 0.05),
        "value": moment,
        "tail_fraction": tail_frac,
    }

    # resolvent round trip against the discrete operator at n=400; T - E
    # is diagonal under the DST-I, so its exact inverse is a division
    rgrid = build_grid(400, 40.0)
    T = kinetic_operator(rgrid, 0, alpha)
    worst_rt, worst_dense = 0.0, 0.0
    for f in _greens_battery(rgrid):
        v = greens.resolvent_apply(f, kernel, rgrid)
        rt = float(np.linalg.norm(T.apply(v) - E * v - f) / np.linalg.norm(f))
        exact = dst(dst(f) / (T.symbol - E))
        dv = float(np.linalg.norm(v - exact) / np.linalg.norm(exact))
        worst_rt, worst_dense = max(worst_rt, rt), max(worst_dense, dv)
    checks["resolvent_roundtrip"] = {"passed": worst_rt <= 1e-3, "worst": worst_rt}
    checks["resolvent_vs_dense"] = {"passed": worst_dense <= 1e-3, "worst": worst_dense}

    passed = all(c["passed"] for c in checks.values())
    return {
        "status": "passed" if passed else "failed",
        "E": E, "nu": nu,
        "checks": checks,
        "kernel_mesh_size": int(kernel.mesh.size),
    }, kernel


def _suite_binding(cfg, sys_, options, known) -> dict:
    n_max = cfg.get("binding_n_max")
    if n_max is None:
        n_max = sys_.N
    n_max = min(n_max, int(np.floor(sys_.Z)))   # stay inside N < Z + 1
    if n_max < 1:
        return {"status": "passed", "rows": [], "note": "no bound runs in range"}
    rows, ok = analysis.binding_monotonicity(sys_, n_max, options, _known=known)
    return {"status": "passed" if ok else "failed", "rows": rows}


@_command
def run_verify(cfg: dict, sys_: AtomSystem, options: SolverOptions, outdir: Path) -> int:
    suites: dict = {}
    eps_homo = None
    known = None
    if cfg["verify_minimizer"] or cfg["verify_decay"]:
        payload, grid, suites = _solution_suites(cfg, sys_, options, outdir)
        occ_eps = [
            e["value"] for e in payload["report"]["eigenvalues"] if e["occupation"] > 0.5
        ]
        if occ_eps:
            eps_homo = max(occ_eps)
            known = {sys_.N: (payload["report"]["energy"]["total"], eps_homo)}
    else:
        grid = build_grid(cfg["n"], cfg["r_max"])

    if cfg["verify_kato"]:
        suites["kato"] = _suite_kato(grid, sys_, cfg)
    if cfg["verify_herbst"]:
        suites["herbst"] = _suite_herbst(grid, sys_, cfg)
    if cfg["verify_greens"]:
        suites["greens"], _kernel = _suite_greens(cfg, sys_, eps_homo)
    if cfg["verify_binding"]:
        suites["binding"] = _suite_binding(cfg, sys_, options, known)

    all_passed = all(s.get("status") == "passed" for s in suites.values())
    _write_json(outdir / "verify.json", {
        "system": {
            "Z": sys_.Z, "N": sys_.N, "alpha": sys_.alpha, "q": sys_.q, "kinetic": sys_.kinetic,
        },
        "suites": suites,
        "all_passed": all_passed,
    })
    for name, suite in suites.items():
        log.info("suite %-10s %s", name, suite.get("status"))
    return EXIT_OK if all_passed else EXIT_CERTIFICATE


@_command
def run_greens(cfg: dict, sys_: AtomSystem, options: SolverOptions, outdir: Path) -> int:
    suite, kernel = _suite_greens(cfg, sys_, None)
    header = ["u", "G", "term1", "term2", "term3"]
    rows = (
        [_fmt(kernel.mesh[i]), _fmt(kernel.values[i]), _fmt(kernel.term1[i]),
         _fmt(kernel.term2[i]), _fmt(kernel.term3[i])]
        for i in range(kernel.mesh.size)
    )
    _write_csv(outdir / "greens.csv", header, rows)
    _write_json(outdir / "greens.json", {"suite": suite})
    log.info("greens suite %s", suite["status"])
    return EXIT_OK if suite["status"] == "passed" else EXIT_CERTIFICATE


@_command
def run_sweep(cfg: dict, sys_: AtomSystem, options: SolverOptions, outdir: Path) -> int:
    n_max = cfg.get("sweep_n_max") or sys_.N
    rows, ok = analysis.binding_monotonicity(sys_, n_max, options)
    header = ["N", "total", "eps_homo_hartree", "gap_prev", "gap_required"]
    csv_rows = []
    for row in rows:
        csv_rows.append([
            str(row["N"]), _fmt(row["total"]), _fmt(row["eps_homo_hartree"]),
            _fmt(row["gap_prev"]) if row["gap_prev"] is not None else "nan",
            _fmt(row["gap_required"]) if row["gap_required"] is not None else "nan",
        ])
    _write_csv(outdir / "sweep.csv", header, csv_rows)
    _write_json(outdir / "sweep.json", {"rows": rows, "monotone": ok})
    log.info("sweep monotone=%s over N=1..%d", ok, n_max)
    return EXIT_OK if ok else EXIT_CERTIFICATE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prhf",
        description="Pseudorelativistic Hartree-Fock solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("solve", "run the SCF minimization and write report/orbitals/trace"),
        ("verify", "run the enabled verification suites against a solve"),
        ("greens", "tabulate the resolvent kernel and run its checks"),
        ("sweep", "solve for N = 1..sweep_n_max and check binding monotonicity"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to a key=value configuration file")
        p.add_argument(
            "--log-level", default="info", choices=["debug", "info", "warning"]
        )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # keep the documented exit contract: usage errors are config errors
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    logging.basicConfig(
        stream=_sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    runner = {
        "solve": run_solve,
        "verify": run_verify,
        "greens": run_greens,
        "sweep": run_sweep,
    }[args.command]
    return runner(args.config)


if __name__ == "__main__":
    raise SystemExit(main())
