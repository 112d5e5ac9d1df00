from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from prhf import (
    AtomSystem,
    ChannelBlock,
    DensityMatrix,
    SolverOptions,
    WindowTooNoisy,
    build_grid,
    decay_fit,
    herbst_bound_check,
    kato_probe,
    minimizer_certificate,
    validate_system,
)
from prhf.analysis import binding_monotonicity, random_smooth_battery
from prhf.greens import energy_of_nu
from prhf.radial import channel_laplacian, kinetic_operator
from prhf.scf import fock_build

ALPHA = 1.0 / 137.036


def test_decay_fit_exact_exponential():
    grid = build_grid(1000, 30.0)
    P = grid.nodes * np.exp(-0.5 * grid.nodes)
    eps = energy_of_nu(0.5, ALPHA)
    fit = decay_fit(P, eps, grid, ALPHA, window=(8.0, 20.0))
    assert fit.beta_hat == pytest.approx(0.5, abs=1e-3)
    assert fit.residual <= 1e-6
    assert fit.nu_predicted == pytest.approx(0.5, rel=1e-12)


def test_decay_fit_modulated_exponential():
    grid = build_grid(1000, 30.0)
    P = grid.nodes * np.exp(-0.5 * grid.nodes) * (1.0 + 0.1 * np.sin(grid.nodes))
    eps = energy_of_nu(0.5, ALPHA)
    fit = decay_fit(P, eps, grid, ALPHA, window=(8.0, 20.0))
    assert fit.beta_hat == pytest.approx(0.5, abs=2e-2)
    assert fit.residual > 1e-4


def test_decay_fit_removes_coulomb_power_law():
    grid = build_grid(1000, 30.0)
    nu, charge = 0.6, 1.0
    eps = energy_of_nu(nu, ALPHA)
    p = (1.0 + ALPHA * eps) * charge / nu - 1.0
    P = grid.nodes ** (p + 1.0) * np.exp(-nu * grid.nodes)
    fit = decay_fit(P, eps, grid, ALPHA, window=(8.0, 20.0), charge=charge)
    assert fit.beta_hat == pytest.approx(nu, rel=1e-9)
    assert fit.residual <= 1e-9
    # a pure exponential fit reads the power law as a slower decay
    plain = decay_fit(P, eps, grid, ALPHA, window=(8.0, 20.0))
    assert plain.beta_hat < 0.95 * nu


def test_decay_fit_rejects_wall_window():
    grid = build_grid(1000, 30.0)
    P = grid.nodes * np.exp(-0.5 * grid.nodes)
    eps = energy_of_nu(0.5, ALPHA)
    with pytest.raises(WindowTooNoisy):
        decay_fit(P, eps, grid, ALPHA, window=(10.0, 29.0))


def test_decay_fit_rejects_noise_floor():
    grid = build_grid(1000, 60.0)
    P = grid.nodes * np.exp(-1.5 * grid.nodes)   # reaches 1e-38 by r=60
    eps = energy_of_nu(1.5, ALPHA)
    with pytest.raises(WindowTooNoisy):
        decay_fit(P, eps, grid, ALPHA, window=(30.0, 44.0))


def test_decay_fit_auto_window():
    grid = build_grid(1200, 30.0)
    P = grid.nodes * np.exp(-0.8 * grid.nodes)
    eps = energy_of_nu(0.8, ALPHA)
    fit = decay_fit(P, eps, grid, ALPHA)
    assert fit.beta_hat == pytest.approx(0.8, rel=5e-3)
    r1, r2 = fit.window
    assert 0.0 < r1 < r2 <= 0.75 * grid.r_max
    assert fit.efolds >= 5.0


def test_decay_fit_auto_window_is_above_roundoff(hydrogen_limit_solution):
    # the dense eigensolve's orbital agrees with the solver's to 2.5e-13 of
    # the peak; a window that ends in that roundoff moves the rate by 1e-4
    sol = hydrogen_limit_solution
    P = sol.gamma.blocks[(0, 0)].orbitals[:, 0]
    _vals, vecs = scipy.linalg.eigh(sol.fock.matrices[(0, 0)], subset_by_index=(0, 0))
    dense = vecs[:, 0] * np.sign(vecs[0, 0] * P[0]) / np.sqrt(sol.grid.h)
    assert np.abs(dense - P).max() <= 1e-12 * np.abs(P).max()
    eps = min(e for (_l, _s, _i, e, _eh, occ) in sol.report.eigenvalues if occ > 0.5)
    fit = decay_fit(P, eps, sol.grid, sol.sys.alpha)
    fit_dense = decay_fit(dense, eps, sol.grid, sol.sys.alpha)
    assert fit_dense.window == fit.window
    assert abs(fit_dense.beta_hat - fit.beta_hat) <= 1e-5 * fit.beta_hat


def test_certificate_passes_on_converged(he_small):
    cert = minimizer_certificate(he_small.gamma, he_small.fock)
    assert cert.passed, cert.clauses


def test_certificate_reuses_the_final_spectrum(he_small, monkeypatch):
    # solve_scf's eigenvalue table already diagonalized the final operator
    def no_eigh(*args, **kwargs):
        raise AssertionError("the final Fock operator was diagonalized again")

    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    cert = minimizer_certificate(he_small.gamma, he_small.report.fock)
    assert cert.passed, cert.clauses


def test_certificate_detects_wrong_occupation_order(he_small):
    grid, sys = he_small.grid, he_small.sys
    fock = he_small.fock
    # occupy the second eigenvector instead of the lowest in one channel
    import scipy.linalg

    vals, vecs = scipy.linalg.eigh(fock.matrices[(0, 0)], subset_by_index=(0, 3))
    vecs = vecs / np.sqrt(grid.h)
    bad = DensityMatrix({
        (0, 0): ChannelBlock(vecs[:, [1]], np.array([1.0])),
        (0, 1): he_small.gamma.blocks[(0, 1)],
    })
    fock_bad = fock_build(bad, grid, sys, ell_max=0)
    cert = minimizer_certificate(bad, fock_bad)
    assert cert.passed is False
    failed = [name for name, c in cert.clauses.items() if not c["passed"]]
    assert "aufbau" in failed and "trace" not in failed and "idempotent" not in failed


def test_certificate_detects_fractional_occupation(he_small):
    grid, sys = he_small.grid, he_small.sys
    blocks = {
        k: ChannelBlock(b.orbitals.copy(), b.occupations.copy())
        for k, b in he_small.gamma.blocks.items()
    }
    blocks[(0, 0)].occupations[0] = 0.5
    bad = DensityMatrix(blocks)
    fock_bad = fock_build(bad, grid, sys, ell_max=0)
    cert = minimizer_certificate(bad, fock_bad)
    assert not cert.clauses["idempotent"]["passed"]
    assert not cert.clauses["trace"]["passed"]


def test_kato_probe_lowest_box_mode(grid200):
    u = np.sin(np.pi * grid200.nodes / grid200.r_max)
    u /= np.sqrt(grid200.h * (u @ u))
    lhs, rhs = kato_probe(u, grid200, ALPHA)
    assert lhs < rhs


def test_kato_probe_random_battery(grid200):
    for u in random_smooth_battery(grid200, 100, seed=7):
        lhs, rhs = kato_probe(u, grid200, ALPHA)
        assert lhs <= rhs * (1.0 + 5e-3)


def test_kato_probe_far_concentration(grid200):
    u = np.exp(-(((grid200.nodes - 0.8 * grid200.r_max) / 0.4) ** 2))
    u /= np.sqrt(grid200.h * (u @ u))
    lhs, rhs = kato_probe(u, grid200, ALPHA)
    assert lhs / rhs < 0.2


def _dense_kato_probe(u, grid):
    """kato_probe through a dense eigendecomposition of the ell = 0 Laplacian."""
    vals, vecs = scipy.linalg.eigh(channel_laplacian(grid, 0).matrix)
    coef = vecs.T @ u
    rhs = 0.5 * np.pi * grid.h * float(coef @ (np.sqrt(vals) * coef))
    return grid.h * float(np.sum(u * u / grid.nodes)), rhs


def _dense_herbst_lowest(sys, grid, ell_max=0):
    """Lowest eigenvalue of T - Z alpha/r over the channels, by dense eigh."""
    lowest = np.inf
    for ell in range(ell_max + 1):
        H = kinetic_operator(grid, ell, sys.alpha).matrix - np.diag(sys.z_alpha / grid.nodes)
        val = scipy.linalg.eigh(H, subset_by_index=(0, 0), eigvals_only=True)[0]
        lowest = min(lowest, float(val))
    return lowest


def test_kato_probe_matches_dense_oracle():
    grid = build_grid(1200, 20.0)
    for u in random_smooth_battery(grid, 20, seed=20240817):
        lhs, rhs = kato_probe(u, grid, ALPHA)
        lhs_ref, rhs_ref = _dense_kato_probe(u, grid)
        assert lhs == lhs_ref
        assert rhs == pytest.approx(rhs_ref, rel=1e-10)


@pytest.mark.parametrize("Z, n, r_max, ell_max", [
    (2.0, 1200, 20.0, 0),       # the helium grid: LOBPCG converges
    (50.0, 1200, 30.0, 0),      # under-resolved: falls back to dense eigh
    (1.0, 200, 12.0, 1),        # a p channel: dense throughout
])
def test_herbst_bound_matches_dense_oracle(Z, n, r_max, ell_max):
    sys = validate_system(AtomSystem(Z=Z, N=1, alpha=ALPHA))
    grid = build_grid(n, r_max)
    rep = herbst_bound_check(sys, grid, ell_max=ell_max)
    assert rep["min_eigenvalue"] == pytest.approx(_dense_herbst_lowest(sys, grid, ell_max), abs=1e-10)


def test_herbst_bound_hydrogen(grid200):
    sys = validate_system(AtomSystem(Z=1.0, N=1, alpha=ALPHA))
    rep = herbst_bound_check(sys, grid200)
    assert rep["passed"]
    # eps1 ~ -alpha Z^2/2 sits well above the bound
    assert rep["min_eigenvalue"] == pytest.approx(-ALPHA / 2.0, rel=5e-2)
    assert rep["margin"] > 0


def test_herbst_bound_near_critical():
    grid = build_grid(600, 2.0)
    Z = 0.995 * (2.0 / np.pi) / ALPHA
    sys = validate_system(AtomSystem(Z=Z, N=1, alpha=ALPHA))
    rep = herbst_bound_check(sys, grid)
    assert rep["passed"]
    assert rep["bound"] >= -sys.alpha_inv


def test_herbst_bound_neutral_kinetic(grid200):
    sys = AtomSystem(Z=0.0, N=1, alpha=ALPHA)
    rep = herbst_bound_check(sys, grid200)
    assert rep["bound"] == 0.0
    assert rep["min_eigenvalue"] >= -1e-12


def test_herbst_bound_checks_the_square_root_operator(grid200):
    # the bound is the paper's, so a nonrelativistic system is checked
    # against the same pseudorelativistic h0
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    nonrel = herbst_bound_check(replace(sys, kinetic="nonrelativistic"), grid200)
    assert nonrel == herbst_bound_check(sys, grid200)


def test_binding_single_row():
    opts = SolverOptions(n=240, r_max=14.0)
    rows, ok = binding_monotonicity(AtomSystem(Z=1.0, N=1, alpha=ALPHA), 1, opts)
    assert ok
    assert len(rows) == 1
    assert rows[0]["gap_prev"] is None


def test_binding_rows_keep_the_kinetic_law():
    # the square root lies below alpha*(-Delta)/2, so every row of a sweep
    # that kept the nonrelativistic law lies above its relativistic twin
    opts = SolverOptions(n=240, r_max=14.0)
    nonrel = AtomSystem(Z=2.0, N=2, alpha=0.05, kinetic="nonrelativistic")
    rows, _ok = binding_monotonicity(nonrel, 2, opts)
    rel_rows, _ok = binding_monotonicity(replace(nonrel, kinetic="pseudorelativistic"), 2, opts)
    assert all(r["total"] < nr["total"] for r, nr in zip(rel_rows, rows))


def test_grid_refinement_stability(he_solution):
    """Halving the mesh changes certified quantities by less than their tolerances."""
    from prhf import solve_scf

    sys = he_solution.sys
    coarse_report, coarse_gamma = solve_scf(
        sys, SolverOptions(n=600, r_max=he_solution.grid.r_max)
    )
    coarse_grid = build_grid(600, he_solution.grid.r_max)
    coarse_fock = fock_build(coarse_gamma, coarse_grid, sys, ell_max=0)
    cert = minimizer_certificate(coarse_gamma, coarse_fock)
    assert cert.passed
    assert coarse_gamma.max_impurity() <= 1e-6
    assert abs(coarse_gamma.trace() - sys.N) <= 1e-9

    # decay rate moves by far less than its 5% acceptance tolerance
    def homo_fit(gamma, grid, fock):
        blk = gamma.blocks[(0, 0)]
        P = blk.orbitals[:, 0]
        eps = grid.h * float(P @ (fock.matrices[(0, 0)] @ P))
        return decay_fit(P, eps, grid, sys.alpha), eps

    fit_c, eps_c = homo_fit(coarse_gamma, coarse_grid, coarse_fock)
    fit_f, eps_f = homo_fit(he_solution.gamma, he_solution.grid, he_solution.fock)
    nu = fit_f.nu_predicted
    assert abs(fit_c.beta_hat - fit_f.beta_hat) <= 0.05 * nu
    # eigenvalues drift only at the O(h^2) discretization level
    assert abs(eps_c - eps_f) <= 5e-3 * abs(eps_f)
