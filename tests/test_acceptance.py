"""Acceptance suite: one test per criterion, each printing its measured values.

Run with -s (or read the captured output) to see the measurements; the
terminal summary lists one PASS/FAIL line per criterion.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from prhf import (
    AtomSystem,
    SolverOptions,
    SubcriticalityViolated,
    bessel_k,
    build_grid,
    decay_fit,
    greens_kernel,
    herbst_bound_check,
    kato_probe,
    kinetic_operator,
    line_coefficients,
    minimizer_certificate,
    nu_of_energy,
    radial_convolution,
    rank2_delta,
    resolvent_apply,
    slater_yk,
    total_energy,
    validate_system,
)
from prhf.analysis import binding_monotonicity, random_smooth_battery
from prhf.coulomb import ChannelBlock, DensityMatrix, combine
from prhf.greens import energy_of_nu
from prhf.scf import _mix_blocks, aufbau_projection

from oracles import multipole_kernel

ALPHA = 1.0 / 137.036
AINV = 137.036
TWO_OVER_PI = 2.0 / math.pi


def _normalized(grid, values):
    v = np.asarray(values, dtype=float)
    return v / np.sqrt(grid.h * (v @ v))


def test_c01_subcriticality_gate():
    start = time.perf_counter()
    with pytest.raises(SubcriticalityViolated):
        validate_system(AtomSystem(Z=88.0, N=2, alpha=ALPHA))
    with pytest.raises(SubcriticalityViolated):
        validate_system(AtomSystem(Z=TWO_OVER_PI / ALPHA, N=1, alpha=ALPHA))
    accepted = validate_system(
        AtomSystem(Z=(TWO_OVER_PI - 1e-12) / ALPHA, N=1, alpha=ALPHA)
    )
    elapsed = time.perf_counter() - start
    print(f"C1 gate: boundary rejected, 2/pi - 1e-12 accepted (Z*a = {accepted.z_alpha:.15f}), {elapsed:.3f} s")
    assert elapsed < 1.0


def test_c02_herbst_lower_bound():
    grid = build_grid(1200, 30.0)
    for Z in (1.0, 20.0, 50.0, 87.0):
        sys = validate_system(AtomSystem(Z=Z, N=1, alpha=ALPHA))
        start = time.perf_counter()
        rep = herbst_bound_check(sys, grid)
        elapsed = time.perf_counter() - start
        print(
            f"C2 Z={Z:4.0f}: eig={rep['min_eigenvalue']:+.6e} bound={rep['bound']:+.6e} "
            f"margin={rep['margin']:.3e} ({elapsed:.1f} s)"
        )
        assert rep["passed"]
        assert elapsed < 60.0


def test_c03_nonrelativistic_hydrogen_limit(hydrogen_limit_solution):
    sol = hydrogen_limit_solution
    eps1 = min(lv.value for lv in sol.report.fock.levels if lv.occupation > 0.5)
    value = eps1 / sol.sys.alpha
    rel = abs(value + 0.5) / 0.5
    print(f"C3 hydrogen: alpha^-1 eps1 = {value:.8f} (rel err {rel:.2e}), solve {sol.wall_time:.1f} s")
    assert rel <= 1e-3
    assert sol.wall_time < 120.0


def test_c04_global_lower_bound(he_solution, li_solution, be_solution, hydrogen_limit_solution):
    worst = math.inf
    for sol in (he_solution, li_solution, be_solution, hydrogen_limit_solution):
        floor = -sol.sys.alpha_inv**2 * sol.sys.N
        for entry in sol.report.energy_trace:
            slack = entry.total - floor
            worst = min(worst, slack / abs(floor))
            assert entry.total >= floor - 1e-12 * abs(floor)
    print(f"C4 lower bound: every evaluated total above -a^-2 N (min slack {worst:.3e} relative)")


@pytest.mark.parametrize("name", ["he", "li", "be"])
def test_c05_oda_monotone_descent(name, he_solution, li_solution, be_solution):
    sol = {"he": he_solution, "li": li_solution, "be": be_solution}[name]
    assert sol.report.converged
    assert sol.report.iterations <= 200
    trace = [e.total for e in sol.report.energy_trace]
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-12 * (1.0 + abs(a))
    print(
        f"C5 {name}: E = {trace[-1]:.10f}, iters = {sol.report.iterations}, "
        f"monotone over {len(trace)} entries, {sol.wall_time:.1f} s"
    )
    assert sol.wall_time < 300.0


@pytest.mark.parametrize("name", ["he", "li", "be"])
def test_c06_lieb_purification(name, he_solution, li_solution, be_solution):
    sol = {"he": he_solution, "li": li_solution, "be": be_solution}[name]
    impurity = sol.gamma.max_impurity()
    trace_err = abs(sol.gamma.trace() - sol.sys.N)
    print(f"C6 {name}: max occupation impurity {impurity:.2e}, trace error {trace_err:.2e}")
    assert impurity <= 1e-6
    assert trace_err <= 1e-9


@pytest.mark.parametrize("name", ["he", "li", "be"])
def test_c07_aufbau_and_negativity(name, he_solution, li_solution, be_solution):
    sol = {"he": he_solution, "li": li_solution, "be": be_solution}[name]
    cert = minimizer_certificate(sol.fock)
    for clause in ("aufbau", "negativity", "hf_equations"):
        assert cert.clauses[clause]["passed"], cert.clauses[clause]
    print(
        f"C7 {name}: aufbau gap {cert.clauses['aufbau']['measured']:.3e}, "
        f"eps range {cert.clauses['negativity']['measured']}, "
        f"max residual {cert.clauses['hf_equations']['measured']:.2e} "
        f"(tol {cert.clauses['hf_equations']['tolerance']:.2e})"
    )


def test_c08_exponential_decay(he_solution, be_solution):
    for name, sol in (("he", he_solution), ("be", be_solution)):
        occ = sol.occupied()
        eps_arr = [eps for (_l, _s, _i, _P, eps) in occ]
        nu_homo = nu_of_energy(max(eps_arr), sol.sys.alpha)
        assert nu_homo * 0.75 * sol.grid.r_max >= 8.0   # >= 8 e-folds available
        fits = []
        for (ell, spin, idx, P, eps) in occ:
            fit = decay_fit(P, eps, sol.grid, sol.sys.alpha, orbital_id=f"l{ell}s{spin}o{idx}")
            fits.append(fit)
        homo = max(range(len(fits)), key=lambda i: eps_arr[i])
        ratio = fits[homo].beta_hat / nu_homo
        print(f"C8 {name}: HOMO beta/nu = {ratio:.4f}, windows " +
              " ".join(f"{f.orbital_id}:[{f.window[0]:.1f},{f.window[1]:.1f}]b={f.beta_hat:.3f}/nu={f.nu_predicted:.3f}"
                       for f in fits))
        assert abs(fits[homo].beta_hat - nu_homo) <= 0.05 * nu_homo
        for fit in fits:
            assert fit.beta_hat >= 0.95 * nu_homo
        for i in range(len(fits)):
            for j in range(len(fits)):
                if fits[i].nu_predicted < fits[j].nu_predicted * (1.0 - 0.02):
                    assert fits[i].beta_hat < fits[j].beta_hat


def test_c09_greens_kernel():
    E = energy_of_nu(1.0, ALPHA)
    kernel = greens_kernel(E, ALPHA)
    assert np.all(kernel.values > 0.0)
    env = kernel.envelope()
    assert np.all(kernel.values <= env)

    ts = np.geomspace(1e-3, 1e3, 61)
    assert np.all(bessel_k(1, ts) <= 1.0 / ts)
    ts2 = np.geomspace(1e-3, 600.0, 50)
    rec_resid = float(np.max(np.abs(bessel_k(2, ts2) - kv(2, ts2)) / kv(2, ts2)))
    assert rec_resid <= 1e-10

    grid = build_grid(400, 40.0)
    T = kinetic_operator(grid, 0, ALPHA).matrix
    A = T - E * np.eye(grid.n)
    worst_rt = worst_dense = 0.0
    for c, s in [(10.0, 1.5), (14.0, 2.0), (8.0, 1.5), (12.0, 2.5), (16.0, 1.8)]:
        f = np.exp(-(((grid.nodes - c) / s) ** 2))
        v = resolvent_apply(f, kernel, grid)
        worst_rt = max(worst_rt, float(np.linalg.norm(A @ v - f) / np.linalg.norm(f)))
        dense = np.linalg.solve(A, f)
        worst_dense = max(worst_dense, float(np.linalg.norm(v - dense) / np.linalg.norm(dense)))
    print(
        f"C9 greens: kernel positive on {kernel.mesh.size} points, est1 margin ok, "
        f"K2 recurrence {rec_resid:.1e}, roundtrip {worst_rt:.2e}, dense {worst_dense:.2e}"
    )
    assert worst_rt <= 1e-3
    assert worst_dense <= 1e-3


def test_c10_binding_monotonicity():
    options = SolverOptions(n=800, r_max=25.0)
    rows, ok = binding_monotonicity(AtomSystem(Z=3.0, N=3, alpha=ALPHA), 3, options)
    for row in rows:
        print(
            f"C10 N={row['N']}: E = {row['total']:.8f}"
            + (f", gap {row['gap_prev']:.6f} >= required {row['gap_required']:.6f}"
               if row["gap_prev"] is not None else "")
        )
    assert ok
    totals = [row["total"] for row in rows]
    assert totals[0] > totals[1] > totals[2]


def test_c11_kato_probe():
    grid = build_grid(1200, 20.0)
    worst = -math.inf
    for u in random_smooth_battery(grid, 100, seed=20240817):
        lhs, rhs = kato_probe(u, grid)
        worst = max(worst, lhs / rhs - 1.0)
    print(f"C11 kato: worst lhs/rhs - 1 = {worst:.3e} over 100 probes (tol 5e-3)")
    assert worst <= 5e-3


def test_c12_rank2_and_line(he_solution, rng):
    sol = he_solution
    grid, sys, gamma = sol.grid, sol.sys, sol.gamma
    worst = 0.0
    for _ in range(20):
        c1, w1 = rng.uniform(2.0, 9.0), rng.uniform(0.7, 1.8)
        c2, w2 = rng.uniform(2.0, 9.0), rng.uniform(0.7, 1.8)
        u1 = _normalized(grid, np.exp(-(((grid.nodes - c1) / w1) ** 2)))
        u2 = _normalized(grid, np.exp(-(((grid.nodes - c2) / w2) ** 2)))
        for (spin, u) in ((0, u1), (1, u2)):
            blk = gamma.blocks[(0, spin)]
            for a in range(blk.m):
                u -= grid.h * (blk.orbitals[:, a] @ u) * blk.orbitals[:, a]
            u /= np.sqrt(grid.h * (u @ u))
        eps1, eps2 = rng.uniform(0.05, 0.95, size=2)
        delta = rank2_delta(sol.fock, u1, u2, eps1, eps2, 0, 0, 0, 1)
        perturbed = combine([(1.0, gamma)] + [
            (eps, DensityMatrix({(0, spin): ChannelBlock(u[:, None], np.array([1.0]))}))
            for spin, u, eps in ((0, u1, eps1), (1, u2, eps2))
        ])
        direct = total_energy(perturbed, grid, sys).total - total_energy(gamma, grid, sys).total
        worst = max(worst, abs(delta - direct) / max(abs(direct), 1e-300))
    assert worst <= 1e-10

    trial = aufbau_projection(sol.fock, sys.N)
    e_gamma = total_energy(gamma, grid, sys)
    a, b = line_coefficients(sol.fock, trial, e_gamma, total_energy(trial, grid, sys))
    e0 = e_gamma.total
    mid = _mix_blocks(gamma, trial, 0.5, grid)
    e_mid = total_energy(mid, grid, sys).total
    mid_err = abs(e_mid - (e0 + a / 2 + b / 4)) / (1.0 + abs(e_mid))
    print(f"C12 rank2 worst rel dev {worst:.2e} (tol 1e-10); line midpoint {mid_err:.2e} (tol 1e-9)")
    assert mid_err <= 1e-9


def test_c13_oracle_equivalences(grid200):
    # slater_yk against the O(n^2) double-sum kernel at n=200
    Pa = _normalized(grid200, grid200.nodes * np.exp(-grid200.nodes))
    Pb = _normalized(grid200, grid200.nodes**2 * np.exp(-0.7 * grid200.nodes))
    worst_yk = 0.0
    for k in (0, 1, 2):
        y = slater_yk(Pa, Pb, k, grid200) / grid200.nodes
        direct = grid200.h * (multipole_kernel(grid200, k) @ (Pa * Pb))
        worst_yk = max(worst_yk, float(np.max(np.abs(y - direct) / np.max(np.abs(direct)))))
    assert worst_yk <= 1e-9

    # radial convolution against the analytic Gaussian result
    mesh = np.linspace(1e-6, 16.0, 4000)
    def g3(s, sig):
        return (2.0 * np.pi * sig**2) ** -1.5 * np.exp(-(s**2) / (2.0 * sig**2))
    conv = radial_convolution(g3(mesh, 0.8), g3(mesh, 1.1), mesh)
    conv_err = float(np.max(np.abs(conv - g3(mesh, math.sqrt(0.8**2 + 1.1**2)))))
    assert conv_err <= 1e-6

    # bessel_k against the integral representation
    worst_bessel = 0.0
    for order in (0, 1):
        for t in (0.5, 2.0, 10.0):
            ref, _ = quad(
                lambda u: np.exp(-t * np.cosh(u)) * np.cosh(order * u),
                0, 40.0, limit=300, epsabs=1e-16, epsrel=1e-13,
            )
            worst_bessel = max(worst_bessel, abs(bessel_k(order, t) - ref) / ref)
    assert worst_bessel <= 1e-9
    print(f"C13 oracles: yk {worst_yk:.1e} (1e-9), gaussian conv {conv_err:.1e} (1e-6), bessel {worst_bessel:.1e} (1e-9)")


def test_c14_determinism(tmp_path):
    from prhf.cli import EXIT_OK, run_solve

    def write_cfg(outdir):
        cfg = tmp_path / f"{outdir.name}.cfg"
        cfg.write_text(
            "\n".join([
                "Z = 2", "N = 2", "n = 300", "r_max = 15",
                f"output_dir = {outdir}",
            ]) + "\n"
        )
        return cfg

    out1, out2 = tmp_path / "runA", tmp_path / "runB"
    assert run_solve(write_cfg(out1)) == EXIT_OK
    assert run_solve(write_cfg(out2)) == EXIT_OK
    same_orbitals = (out1 / "orbitals.csv").read_bytes() == (out2 / "orbitals.csv").read_bytes()
    same_trace = (out1 / "energy_trace.csv").read_bytes() == (out2 / "energy_trace.csv").read_bytes()
    print(f"C14 determinism: orbitals identical {same_orbitals}, trace identical {same_trace}")
    assert same_orbitals and same_trace
