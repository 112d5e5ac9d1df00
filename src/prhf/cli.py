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
else is read from the environment. When BLAS runs one thread per call,
the dense channel solves of an ell_max >= 1 run go side by side on the
usable cores (`prhf.lapack.syevr_each`), with the same results.
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

from . import analysis
from .coulomb import ChannelBlock, DensityMatrix
from .errors import ConfigError, NotConverged, SolverError
from .model import AtomSystem, SolverOptions, validate_system
from .radial import build_grid
from .scf import ALGORITHM, fock_build, solve_scf

log = logging.getLogger("prhf")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_CERTIFICATE = 3

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


def _parse_algorithm(text: str) -> str:
    if text != ALGORITHM:
        raise ValueError(f"unknown algorithm {text!r}; the solver runs {ALGORITHM!r}")
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
    "algorithm": (_parse_algorithm, ALGORITHM),
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
    "decay_window_lo": (_parse_auto_float, None),
    "decay_window_hi": (_parse_auto_float, None),
}


def parse_config(path: str | Path) -> dict:
    """Read a flat key=value config; unknown and repeated keys are rejected by name."""
    path = Path(path)
    try:        # a missing file, a directory and non-UTF-8 bytes alike
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    unknown: list[str] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key} already set on line {seen[key]}")
        seen[key] = lineno
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
    if values["kato_samples"] < 1:
        raise ConfigError(f"kato_samples = {values['kato_samples']} must be at least 1")
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


_FLOAT = "%.16e"


def _fmt(x: float) -> str:
    return _FLOAT % x


def _fmt_rows(columns):
    """CSV rows of equal-length float columns, each value as `_fmt` writes it.

    One %-format per row costs less than a `_fmt` call per value.
    """
    fmt = ",".join([_FLOAT] * len(columns))
    return ([fmt % row] for row in zip(*(np.asarray(c).tolist() for c in columns)))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    """Stamp a result document with the UTC time and write it as sorted JSON."""
    payload = {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(), **payload}
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_solution(outdir: Path, cfg: dict, report, certificates) -> None:
    grid, gamma = report.fock.grid, report.fock.gamma
    _write_json(outdir / "report.json", {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "grid": {"n": grid.n, "r_max": grid.r_max, "h": grid.h},   # the uniform grid's record
        "report": report.as_dict(),
        "certificates": certificates,
    })

    labels = ["r"]
    columns = [grid.nodes]
    for (ell, spin), blk in gamma.blocks.items():
        for a in range(blk.m):
            labels.append(analysis.orbital_label(ell, spin, a))
            columns.append(blk.orbitals[:, a])
    _write_csv(outdir / "orbitals.csv", labels, _fmt_rows(columns))

    header = ["iteration", "total", "kinetic", "nuclear", "direct", "exchange"]
    rows = (
        [str(i), _fmt(e.total), _fmt(e.kinetic), _fmt(e.nuclear), _fmt(e.direct), _fmt(e.exchange)]
        for i, e in enumerate(report.energy_trace)
    )
    _write_csv(outdir / "energy_trace.csv", header, rows)


def _load_solution(outdir: Path, sys_: AtomSystem, options: SolverOptions):
    """Rebuild (report record, gamma, grid) from a completed solve directory.

    None unless that solve converged for an equal system and equal options
    and its files read back whole on the grid of those options, with
    orthonormal orbitals and admissible occupations: a damaged solve counts
    as absent. So does a solve whose stored config does not parse under
    this version, which the warning names apart from a damaged solve.
    """
    report_path = outdir / "report.json"
    orbitals_path = outdir / "orbitals.csv"
    if not (report_path.is_file() and orbitals_path.is_file()):
        return None
    failure = "ignoring the damaged solve in %s"
    try:
        payload = json.loads(report_path.read_text())
        if not payload["report"]["converged"]:
            return None
        stored = payload["config"]
        failure = "ignoring the solve in %s: its stored config does not parse under this version"
        if not (_system_from_config(stored) == sys_ and _options_from_config(stored) == options):
            return None
        failure = "ignoring the damaged solve in %s"
        grid = build_grid(options.n, options.r_max)
        with open(orbitals_path) as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(orbitals_path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (grid.n, len(header)):
            raise ValueError(f"orbitals.csv is {data.shape}, expected ({grid.n}, {len(header)})")
        cols = {name: data[:, i] for i, name in enumerate(header)}
        blocks: dict = {}
        for occ in payload["report"]["occupations"]:
            key = (occ["ell"], occ["spin"])
            label = analysis.orbital_label(occ["ell"], occ["spin"], occ["index"])
            blocks.setdefault(key, []).append((occ["index"], cols[label], occ["f"]))
        for key, entries in blocks.items():
            entries.sort()
            blocks[key] = ChannelBlock(
                orbitals=np.column_stack([v for (_i, v, _f) in entries]),
                occupations=np.array([f for (_i, _v, f) in entries]),
            )
        gamma = DensityMatrix(blocks).validate(grid, sys_.N)
    except (ValueError, KeyError, TypeError, SolverError) as exc:
        log.warning(failure + ": %s: %s", outdir, type(exc).__name__, exc)
        return None
    return payload["report"], gamma, grid


def _command(pipeline):
    """A command on a config path from a body `pipeline(cfg, sys_, options, outdir)`.

    The config, the system and the solver options are checked before the
    output directory is made and the body runs; an output directory that
    cannot be made is a ConfigError. NotConverged exits 2 and any other
    SolverError exits 1; otherwise the body's exit code stands.
    """

    @functools.wraps(pipeline)
    def command(config_path: str | Path) -> int:
        try:
            cfg = parse_config(config_path)
            sys_ = _system_from_config(cfg)
            options = _options_from_config(cfg)
            outdir = Path(cfg["output_dir"])
            try:
                outdir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot make output_dir {outdir}: {exc}") from exc
            return pipeline(cfg, sys_, options, outdir)
        except NotConverged as exc:
            log.error("SCF did not converge: %s", exc)
            return EXIT_NOT_CONVERGED
        except SolverError as exc:
            log.error("%s", exc)
            return EXIT_CONFIG

    return command


def _solve_and_write(cfg: dict, sys_: AtomSystem, options: SolverOptions, outdir: Path):
    """Shared by solve and verify: solve, certify, write; returns (report, certificate).

    An unconverged solve is written with its certificate skipped, and its
    NotConverged is raised again.
    """
    try:
        report, _gamma = solve_scf(sys_, options)
    except NotConverged as exc:
        _write_solution(outdir, cfg, exc.report,
                        {"passed": False, "clauses": {}, "skipped": "not converged"})
        raise
    cert = analysis.minimizer_certificate(report.fock)
    _write_solution(outdir, cfg, report, dataclasses.asdict(cert))
    log.info(
        "converged=%s iterations=%d total=%.12f certificate=%s",
        report.converged, report.iterations, report.energy.total, cert.passed,
    )
    return report, cert


def _solve_pipeline(cfg: dict, sys_: AtomSystem, options: SolverOptions, outdir: Path) -> int:
    _report, cert = _solve_and_write(cfg, sys_, options, outdir)
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


run_solve = _command(_solve_pipeline)


def _final_state(cfg: dict, sys_: AtomSystem, options: SolverOptions, outdir: Path):
    """(fock, report record) of this configuration's converged solve.

    `fock.gamma` is the density. A converged solve stored in outdir is
    read back and its Fock operator built on the options' channels;
    otherwise the configuration is solved and written first, and the
    solve's own operator, which keeps the level table its certificate
    solved, is returned. Either way the suites see the same state.
    """
    loaded = _load_solution(outdir, sys_, options)
    if loaded is not None:
        record, gamma, grid = loaded
        return fock_build(gamma, grid, sys_, ell_max=options.ell_max), record
    log.info("no converged solve of this configuration in %s; solving first", outdir)
    report, _cert = _solve_and_write(cfg, sys_, options, outdir)
    return report.fock, report.as_dict()


@_command
def run_verify(cfg: dict, sys_: AtomSystem, options: SolverOptions, outdir: Path) -> int:
    """Run the enabled suites of `analysis` and write verify.json.

    A solve is read, or made, only for the minimizer and decay suites; its
    HOMO (`analysis.homo_eigenvalue`) is then the greens suite's E unless
    greens_energy is set, and its total energy and HOMO are the binding
    suite's row N.
    """
    suites: dict = {}
    eps_homo = known = None
    if cfg["verify_minimizer"] or cfg["verify_decay"]:
        fock, record = _final_state(cfg, sys_, options, outdir)
        grid = fock.grid
        if cfg["verify_minimizer"]:
            suites["minimizer"] = analysis.minimizer_suite(fock)
        if cfg["verify_decay"]:
            window = None
            if cfg["decay_window_lo"] is not None:      # parse_config sets both or neither
                window = (cfg["decay_window_lo"], cfg["decay_window_hi"])
            suites["decay"] = analysis.decay_suite(fock, window)
        eps_homo = analysis.homo_eigenvalue(fock)
        del fock        # freed before the remaining suites run
        if eps_homo is not None:
            known = {sys_.N: (record["energy"]["total"], eps_homo)}
    else:
        grid = build_grid(cfg["n"], cfg["r_max"])

    if cfg["verify_kato"]:
        suites["kato"] = analysis.kato_suite(grid, cfg["kato_samples"], cfg["kato_seed"])
    if cfg["verify_herbst"]:
        suites["herbst"] = analysis.herbst_bound_check(sys_, grid)
    if cfg["verify_greens"]:
        E = eps_homo if cfg["greens_energy"] is None else cfg["greens_energy"]
        suites["greens"], _kernel = analysis.greens_suite(sys_.alpha, E)
    if cfg["verify_binding"]:
        suites["binding"] = analysis.binding_suite(sys_, options, known)

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
    suite, kernel = analysis.greens_suite(sys_.alpha, cfg["greens_energy"])
    if kernel is not None:      # None with an inconclusive suite
        header = ["u", "G", "term1", "term2", "term3"]
        columns = [kernel.mesh, kernel.values, kernel.term1, kernel.term2, kernel.term3]
        _write_csv(outdir / "greens.csv", header, _fmt_rows(columns))
    _write_json(outdir / "greens.json", {"suite": suite})
    log.info("greens suite %s", suite["status"])
    return EXIT_OK if suite["status"] == "passed" else EXIT_CERTIFICATE


@_command
def run_sweep(cfg: dict, sys_: AtomSystem, options: SolverOptions, outdir: Path) -> int:
    rows, ok = analysis.binding_monotonicity(sys_, sys_.N, options)
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
    log.info("sweep monotone=%s over N=1..%d", ok, sys_.N)
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
        ("sweep", "solve for N = 1..N and check binding monotonicity"),
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
