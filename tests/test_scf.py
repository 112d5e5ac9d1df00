import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prhf import (
    AtomSystem,
    ChannelBlock,
    DensityMatrix,
    NotConverged,
    SolverOptions,
    aufbau_projection,
    build_grid,
    fock_build,
    kinetic_operator,
    oda_step,
    solve_scf,
    total_energy,
    validate_system,
)
from prhf.coulomb import exchange_matrix, hartree_potential, reduced_density
from prhf import radial, scf
from prhf.scf import (
    _channel_spectra, _levels_needed, _mix_blocks, commutator_residual, density_from_shells,
    orbital_residuals,
)
from prhf.model import ShellSpec
import scipy.linalg

ALPHA = 1.0 / 137.036


def test_fock_empty_is_bare_operator(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    fock = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    T = kinetic_operator(grid200, 0, ALPHA).matrix
    h0 = T - np.diag(sys.z_alpha / grid200.nodes)
    assert np.allclose(fock.matrices[(0, 0)], h0, atol=0)
    assert np.allclose(fock.matrices[(0, 1)], h0, atol=0)


def test_fock_lowest_eigenvalue_respects_bound(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    fock = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    val = scipy.linalg.eigh(fock.matrices[(0, 0)], subset_by_index=(0, 0), eigvals_only=True)[0]
    ainv = sys.alpha_inv
    bound = ainv * (np.sqrt(1.0 - (np.pi * sys.z_alpha / 2) ** 2) - 1.0)
    assert val >= bound - 1e-8 * ainv


def test_fock_consistency_identity(he_small):
    """alpha^-1 (Tr[h g] + Tr[V g] - a Tr[R g] + a Tr[K g]) == alpha^-1 Tr[T g]."""
    sys, grid, gamma = he_small.sys, he_small.grid, he_small.gamma
    fock = he_small.fock
    h = grid.h
    tr_h = tr_R = tr_K = 0.0
    w = reduced_density(gamma, grid)
    R = hartree_potential(w, grid)
    for (ell, spin), blk in gamma.blocks.items():
        H = fock.matrices[(ell, spin)]
        K = exchange_matrix(gamma, ell, spin, grid)
        for a in range(blk.m):
            P = blk.orbitals[:, a]
            f = blk.occupations[a]
            tr_h += f * h * (P @ (H @ P))
            tr_R += f * h * (P @ (R * P))
            tr_K += f * h * (P @ (K @ P))
    tr_V = sys.z_alpha * h * np.sum(w / grid.nodes)
    from prhf.coulomb import energy_terms

    tr_T = energy_terms(gamma, grid, sys)[0]
    lhs = (tr_h + tr_V - ALPHA * tr_R + ALPHA * tr_K) / ALPHA
    assert lhs == pytest.approx(tr_T / ALPHA, rel=1e-10)


def test_fock_bounded_below(he_small):
    """Converged Fock channels stay above -alpha^-1, up to discretization."""
    ainv = he_small.sys.alpha_inv
    for key, H in he_small.fock.matrices.items():
        val = scipy.linalg.eigh(H, subset_by_index=(0, 0), eigvals_only=True)[0]
        assert val >= -ainv - 1e-8 * ainv


def test_fock_min_eigenvalue_grows_with_density(he_small):
    """R - K >= 0 pushes channel eigenvalues up relative to h0."""
    sys, grid, gamma = he_small.sys, he_small.grid, he_small.gamma
    bare = fock_build(DensityMatrix({}), grid, sys, ell_max=0)
    e_bare = scipy.linalg.eigh(bare.matrices[(0, 0)], subset_by_index=(0, 0), eigvals_only=True)[0]
    e_full = scipy.linalg.eigh(he_small.fock.matrices[(0, 0)], subset_by_index=(0, 0), eigvals_only=True)[0]
    assert e_full >= e_bare - 1e-12


@pytest.mark.parametrize("name", ["he_small", "li_solution"])
def test_fock_apply_matches_matrices(name, request, rng):
    sol = request.getfixturevalue(name)
    fock = fock_build(sol.gamma, sol.grid, sol.sys, ell_max=0)
    assert fock.matrix_free
    assert len(fock.groups) == (1 if sol.sys.N == 2 else 2)
    X = rng.standard_normal((sol.grid.n, 4))
    P = sol.gamma.blocks[(0, 0)].orbitals
    for key, H in fock.matrices.items():
        HX = H @ X
        assert np.linalg.norm(fock.apply(key, X) - HX) <= 1e-13 * np.linalg.norm(HX)
        assert np.linalg.norm(fock.apply(key, X[:, 0]) - HX[:, 0]) <= 1e-13 * np.linalg.norm(HX[:, 0])
        # H P of a smooth orbital is small beside |H| |P|; the roundoff of
        # either form is on the operator's scale
        scale = np.linalg.norm(HX) / np.linalg.norm(X) * np.linalg.norm(P)
        assert np.linalg.norm(fock.apply(key, P) - H @ P) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["he_small", "li_solution"])
def test_lobpcg_levels_match_dense(name, request, caplog):
    """At a fixed density the matrix-free levels are the dense eigh levels."""
    sol = request.getfixturevalue(name)
    fock = fock_build(sol.gamma, sol.grid, sol.sys, ell_max=0)
    k = _levels_needed(sol.sys.N)
    with caplog.at_level(logging.WARNING, logger="prhf.scf"):
        spectra = _channel_spectra(fock, k)
    assert not caplog.records              # no fallback to the dense eigensolve
    for key, (vals, vecs) in spectra.items():
        dense, dvecs = scipy.linalg.eigh(fock.matrices[key], subset_by_index=(0, k - 1))
        assert np.max(np.abs(vals - dense)) / sol.sys.alpha <= 1e-10
        overlap = np.abs(np.sum(vecs * dvecs, axis=0)) * np.sqrt(sol.grid.h)
        assert np.allclose(overlap[:2], 1.0, rtol=0, atol=1e-10)
        assert np.all(vecs[0] > 0.0)       # signed positive at the first node


def _broken_lobpcg(*args, **kwargs):
    raise ValueError("eigh has failed in lobpcg postprocessing")


@pytest.mark.parametrize("patch, fill", [
    (("LOBPCG_MAXITER", 1), False), (("lobpcg", _broken_lobpcg), False),
    (("LOBPCG_MAXITER", 1), True), (("lobpcg", _broken_lobpcg), True),
], ids=["maxiter", "breakdown", "maxiter-fill", "breakdown-fill"])
def test_lobpcg_nonconvergence_falls_back_to_dense(patch, fill, he_small, monkeypatch, caplog):
    monkeypatch.setattr(scf, *patch)
    fock = fock_build(he_small.gamma, he_small.grid, he_small.sys, ell_max=0)
    # the fill of helium's one spin group asks for one level
    k = 1 if fill else _levels_needed(he_small.sys.N)
    with caplog.at_level(logging.WARNING, logger="prhf.scf"):
        if fill:
            spectra = scf._fill_spectra(fock, he_small.sys.N)
        else:
            spectra = _channel_spectra(fock, k)
    assert len(caplog.records) == 1       # one eigensolve for the one spin group
    assert "using dense eigh" in caplog.text
    assert [(block, fell_back) for block, _its, fell_back in fock.eigensolves] == [(k, True)]
    vals, vecs = scipy.linalg.eigh(fock.matrices[(0, 0)], subset_by_index=(0, k - 1))
    for key in ((0, 0), (0, 1)):
        assert np.array_equal(spectra[key][0], vals)
        assert np.array_equal(spectra[key][1], vecs / np.sqrt(he_small.grid.h))


def _fill_pair(fock, N):
    """The fill from group-sized spectra and the fill from the table count."""
    full = {
        (0, spin): scf._group_levels(fock, 0, grp, _levels_needed(N), scf.LOBPCG_RTOL)
        for grp in fock.groups for spin in grp
    }
    return scf._fill(scf._fill_spectra(fock, N), N), scf._fill(full, N)


@settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(
    Z=st.integers(1, 10),
    quarters=st.integers(4, 44),
    q=st.sampled_from([1, 2]),
    n=st.integers(80, 160),
)
def test_group_sized_fill_picks_the_table_fill(Z, quarters, q, n):
    """A spin group's level j is reachable only past j |group| electrons per level."""
    N = min(quarters / 4.0, Z + 1.0)
    sys = AtomSystem(Z=float(Z), N=N, alpha=ALPHA, q=q)
    grid = build_grid(n, 10.0)
    bare = fock_build(DensityMatrix({}), grid, sys, ell_max=0)
    small, full = _fill_pair(bare, N)
    assert small == full
    # an open shell splits the spins into two groups of one
    fock = fock_build(aufbau_projection(bare, N), grid, sys, ell_max=0)
    small, full = _fill_pair(fock, N)
    assert small == full


def test_fill_asks_for_the_levels_it_can_reach(grid200):
    """Group sizes 2 and 1 at N = 3: 2 levels (+ guard) for the pair, 3 (+ guard) apart."""
    sys = AtomSystem(Z=3.0, N=3, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    gamma = aufbau_projection(bare, sys.N)
    assert [block for block, *_ in bare.eigensolves] == [2 + scf.FILL_GUARD]
    fock = fock_build(gamma, grid200, sys, ell_max=0)
    assert fock.groups == [[0], [1]]
    aufbau_projection(fock, sys.N)
    assert [block for block, *_ in fock.eigensolves] == [3 + scf.FILL_GUARD] * 2


def test_fill_of_tied_levels_takes_the_table_count(he_small, monkeypatch):
    """The reachable count rests on strictly increasing levels; a tie falls back."""
    fock = fock_build(he_small.gamma, he_small.grid, he_small.sys, ell_max=0)
    N = 3.0         # two levels for the one group of two spins
    solve = scf._lobpcg_levels

    def tied(fock, key, k, rtol):
        vals, vecs = solve(fock, key, k, rtol)
        vals = vals.copy()
        vals[1] = vals[0]
        return vals, vecs

    monkeypatch.setattr(scf, "_lobpcg_levels", tied)
    spectra = scf._fill_spectra(fock, N)
    assert spectra[(0, 0)][0].size == _levels_needed(N)


def test_helium_solve_asks_one_column_per_fill(monkeypatch):
    """He: every fill solve is one column; only the final table asks for N + 4."""
    solves = []
    solve = scf._lobpcg_levels

    def recording(fock, key, k, rtol):
        solves.append((k, rtol))
        return solve(fock, key, k, rtol)

    monkeypatch.setattr(scf, "_lobpcg_levels", recording)
    sys = validate_system(AtomSystem(Z=2.0, N=2, alpha=ALPHA))
    report, _gamma = solve_scf(sys, SolverOptions(n=300, r_max=15.0))
    assert report.converged and report.iterations > 3
    *fills, table = solves
    assert set(fills) == {(1, scf.LOBPCG_RTOL)}
    assert table == (_levels_needed(sys.N), scf.LOBPCG_LEVEL_RTOL)
    assert report.eigensolves["lobpcg_blocks"] == [k for k, _rtol in solves]


def test_neon_fill_and_table_share_one_eigh(grid200, monkeypatch):
    """A dense operator keeps the table count for its fill: one eigh per channel group."""
    counts = []
    dense = scf._dense_levels

    def recording(H, k):
        counts.append(k)
        return dense(H, k)

    monkeypatch.setattr(scf, "_dense_levels", recording)
    sys = AtomSystem(Z=10.0, N=10, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid200, sys, ell_max=1)
    gamma = aufbau_projection(bare, sys.N)
    scf._final_eigen_table(bare, gamma, _levels_needed(sys.N))
    assert counts == [14, 14]            # ell = 0 and 1, one spin group
    assert bare.eigensolves == []


def test_s_only_solve_builds_no_dense_operator(monkeypatch):
    """Solve and certificate of an s-only system never form an n x n matrix."""
    from prhf import minimizer_certificate

    def refuse(*args, **kwargs):
        raise AssertionError("dense operator built on an s-only system")

    monkeypatch.setattr(scf, "exchange_matrix", refuse)
    monkeypatch.setattr(radial, "spectral_function", refuse)
    sys = validate_system(AtomSystem(Z=3.0, N=3, alpha=ALPHA))
    report, gamma = solve_scf(sys, SolverOptions(n=250, r_max=13.0))  # a grid no other test builds
    assert report.converged
    assert "matrices" not in vars(report.fock)
    assert minimizer_certificate(gamma, report.fock).passed


def test_solve_keeps_the_operator_of_a_kept_density(monkeypatch):
    """After a t = 0 step the last Fock operator is the final one: no rebuild, same report."""
    builds = []
    build = scf.fock_build

    def counting_build(*args, **kwargs):
        builds.append(build(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(scf, "fock_build", counting_build)
    # pin the line search to t = 0 (for one electron its sign is roundoff);
    # He+ then converges at iteration 1 on the density of its h0 guess
    monkeypatch.setattr(scf, "line_coefficients", lambda *args, **kwargs: (0.0, 1.0))
    sys = validate_system(AtomSystem(Z=2.0, N=1, alpha=ALPHA))
    report, gamma = solve_scf(sys, SolverOptions(n=240, r_max=14.0))
    assert report.converged and report.iterations == 1
    assert len(builds) == 2         # the h0 guess and iteration 1
    assert report.fock is builds[1] and report.fock.gamma is gamma
    fresh = build(gamma, report.fock.grid, sys, ell_max=0)
    assert report.eigenvalues == scf._final_eigen_table(fresh, gamma, _levels_needed(sys.N))
    assert report.commutator_residual == commutator_residual(fresh, gamma)
    assert report.max_orbital_residual == max(res for *_, res in orbital_residuals(fresh, gamma))


@pytest.mark.parametrize("n", [240, 241, 300])
def test_one_electron_solve_ends_on_its_flat_first_line(monkeypatch, n):
    """For N = 1 the first trial is the h0 density again: a and b are roundoff, t = 0."""
    builds = []
    build = scf.fock_build

    def counting_build(*args, **kwargs):
        builds.append(build(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(scf, "fock_build", counting_build)
    sys = validate_system(AtomSystem(Z=2.0, N=1, alpha=ALPHA))
    report, _gamma = solve_scf(sys, SolverOptions(n=n, r_max=14.0))
    assert report.converged and report.iterations == 1
    assert len(builds) == 2         # the h0 guess and iteration 1
    assert len(report.steps) == report.iterations
    step = report.steps[0]
    assert step["iteration"] == 1 and step["t"] == 0.0 and step["dE"] == 0.0
    flat = scf.LINE_ROUNDOFF * (1.0 + abs(step["E"]))
    assert abs(step["a"]) <= flat and abs(step["b"]) <= flat


def _commutator_trace_oracle(fock, gamma):
    """|[F, gamma]|_F as 2h Tr[A^T A] - 2 Tr[(h C^T A)^2], A = F C Lambda; cancels near 0."""
    h = fock.grid.h
    total = 0.0
    for (ell, spin), blk in gamma.blocks.items():
        C = blk.orbitals
        A = fock.apply((ell, spin), C) * (blk.occupations / (2 * ell + 1))
        CtA = h * (C.T @ A)
        total += (2 * ell + 1) * 2.0 * (h * np.sum(A * A) - np.trace(CtA @ CtA))
    return np.sqrt(total)


def test_commutator_residual_matches_trace_and_dense_forms(grid200):
    """Away from the fixed point, with fractional occupations, all three forms agree."""
    sys = AtomSystem(Z=3.0, N=3, alpha=ALPHA)
    gamma0 = aufbau_projection(fock_build(DensityMatrix({}), grid200, sys, ell_max=0), sys.N)
    trial = aufbau_projection(fock_build(gamma0, grid200, sys, ell_max=0), sys.N)
    gamma = _mix_blocks(gamma0, trial, 0.3, grid200)
    assert 0.01 < gamma.max_impurity() < 0.5
    fock = fock_build(gamma, grid200, sys, ell_max=0)
    residual = commutator_residual(fock, gamma)
    dense = 0.0
    for (ell, spin), blk in gamma.blocks.items():
        F = fock.matrices[(ell, spin)]
        G = grid200.h * (blk.orbitals * (blk.occupations / (2 * ell + 1))) @ blk.orbitals.T
        dense += (2 * ell + 1) * np.sum((F @ G - G @ F) ** 2)
    assert residual > 1e-3
    assert residual == pytest.approx(_commutator_trace_oracle(fock, gamma), rel=1e-10)
    assert residual == pytest.approx(np.sqrt(dense), rel=1e-10)


def test_commutator_residual_resolves_an_eigenstate(grid200):
    """On eigenvectors of F it is the orbital residuals, far below the trace form's noise."""
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    gamma = aufbau_projection(bare, sys.N)
    residual = commutator_residual(bare, gamma)
    residuals = [res for *_, res in orbital_residuals(bare, gamma)]
    expected = np.sqrt(2.0 * np.sum(np.square(residuals)))
    assert residual == pytest.approx(expected, rel=1e-10)
    assert residual < 1e-9


@pytest.mark.parametrize("ell_max", [0, 1], ids=["matrix_free", "dense"])
def test_orbital_residuals_match_a_column_loop(grid200, ell_max):
    """One blocked apply per channel gives the eps and residual of per-column applies."""
    sys = AtomSystem(Z=5.0, N=5, alpha=ALPHA)
    gamma = aufbau_projection(fock_build(DensityMatrix({}), grid200, sys, ell_max), sys.N)
    fock = fock_build(gamma, grid200, sys, ell_max)     # gamma is not its ground state
    expected = []
    for key, blk in gamma.blocks.items():
        for a in range(blk.m):
            P = blk.orbitals[:, a]
            FP = fock.apply(key, P)
            eps = grid200.h * (P @ FP)
            expected.append((key, a, eps, np.sqrt(grid200.h * np.sum((FP - eps * P) ** 2))))
    rows = orbital_residuals(fock, gamma)
    assert [row[:2] for row in rows] == [row[:2] for row in expected]
    assert min(row[3] for row in rows) > 1e-3
    np.testing.assert_allclose([row[2:] for row in rows], [row[2:] for row in expected],
                               rtol=1e-12, atol=0)


# total energy and occupied eigenvalues (Ha) of the conftest solutions, as
# the dense eigensolver on every channel gave them; (ell, spin, index) keys
DENSE_REFERENCE = {
    "he_solution": (-2.861417886925893, {
        (0, 0, 0): -0.9177941403429798, (0, 1, 0): -0.9177941403429798,
    }),
    "li_solution": (-7.4285432504058715, {
        (0, 0, 0): -2.484633601253703, (0, 0, 1): -0.19634624589093974,
        (0, 1, 0): -2.4666114950441766,
    }),
    "be_solution": (-14.54746888552658, {
        (0, 0, 0): -4.720815837542795, (0, 0, 1): -0.3091290089676937,
        (0, 1, 0): -4.720815837542795, (0, 1, 1): -0.3091290089676937,
    }),
}


@pytest.mark.parametrize("name", sorted(DENSE_REFERENCE))
def test_solution_matches_dense_reference(name, request):
    sol = request.getfixturevalue(name)
    total, occupied = DENSE_REFERENCE[name]
    assert abs(sol.report.energy.total - total) <= 1e-10
    got = {
        (ell, spin, idx): val_h
        for (ell, spin, idx, _val, val_h, occ) in sol.report.eigenvalues if occ > 0.5
    }
    assert set(got) == set(occupied)
    for key, val in occupied.items():
        assert abs(got[key] - val) <= 1e-10


def test_aufbau_single_electron(grid200):
    sys = AtomSystem(Z=1.0, N=1, alpha=ALPHA)
    fock = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    gamma = aufbau_projection(fock, 1)
    assert list(gamma.blocks) == [(0, 0)]
    assert gamma.blocks[(0, 0)].occupations.tolist() == [1.0]
    assert gamma.trace() == pytest.approx(1.0)


def test_aufbau_helium_channel_symmetry(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    fock = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    gamma = aufbau_projection(fock, 2)
    b0, b1 = gamma.blocks[(0, 0)], gamma.blocks[(0, 1)]
    assert np.array_equal(b0.orbitals, b1.orbitals)
    assert np.array_equal(b0.occupations, b1.occupations)


def test_aufbau_fractional_frontier(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    fock = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    gamma = aufbau_projection(fock, 1.5)
    occs = sorted(
        (key, blk.occupations.tolist()) for key, blk in gamma.blocks.items()
    )
    assert occs == [((0, 0), [1.0]), ((0, 1), [0.5])]
    assert gamma.trace() == pytest.approx(1.5)


def test_oda_stationary_at_minimizer(he_small):
    grid, sys, gamma = he_small.grid, he_small.sys, he_small.gamma
    e_gamma = total_energy(gamma, grid, sys)
    nxt, step = oda_step(gamma, he_small.fock, e_gamma)
    e0 = e_gamma.total
    assert abs(step.energy.total - e0) <= 1e-12 * (1.0 + abs(e0))
    assert step.t <= 1e-5 or abs(step.a) <= 1e-12 * (1 + abs(e0))


def test_oda_first_step_descends(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    gamma0 = aufbau_projection(bare, sys.N)
    e0 = total_energy(gamma0, grid200, sys)
    nxt, step = oda_step(gamma0, fock_build(gamma0, grid200, sys, ell_max=0), e0)
    assert step.energy.total < e0.total


def test_oda_tstar_matches_scan(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    gamma0 = aufbau_projection(bare, sys.N)
    fock0 = fock_build(gamma0, grid200, sys, ell_max=0)
    trial = aufbau_projection(fock0, sys.N)
    _, step = oda_step(gamma0, fock0, total_energy(gamma0, grid200, sys))
    ts = np.linspace(0.0, 1.0, 101)
    energies = [
        total_energy(_mix_blocks(gamma0, trial, float(t), grid200), grid200, sys).total
        for t in ts
    ]
    t_scan = ts[int(np.argmin(energies))]
    assert abs(step.t - t_scan) <= 0.01 + 1e-12


def _mix_blocks_oracle(ga, gb, t, grid):
    """The convex mix with its own column concatenation, kept as an oracle."""
    out = {}
    sqh = np.sqrt(grid.h)
    for key in sorted(set(ga.blocks) | set(gb.blocks)):
        cols, weights = [], []
        for dm, fac in ((ga, 1.0 - t), (gb, t)):
            blk = dm.blocks.get(key)
            if blk is not None and fac > 0.0:
                cols.append(blk.orbitals)
                weights.append(fac * blk.occupations)
        if not cols:
            continue
        B = np.column_stack(cols)
        fv = np.concatenate(weights)
        Q, _ = np.linalg.qr(B * sqh)
        coef = Q.T @ (B * sqh)
        M = (coef * fv) @ coef.T
        lam, V = np.linalg.eigh(0.5 * (M + M.T))
        cap = 2 * key[0] + 1
        keep = lam > scf.OCC_DROP * cap
        if not np.any(keep):
            continue
        lam = np.clip(lam[keep], 0.0, cap)
        V = V[:, keep]
        order = np.argsort(-lam, kind="stable")
        out[key] = ChannelBlock(orbitals=(Q @ V)[:, order] / sqh, occupations=lam[order])
    return DensityMatrix(out)


def test_mix_blocks_matches_the_concatenating_oracle(grid200):
    # neon's h0 density and its first trial carry s and p blocks; dropping
    # a channel from the trial leaves a channel that only one side holds
    sys = AtomSystem(Z=10.0, N=10, alpha=ALPHA)
    gamma0 = aufbau_projection(fock_build(DensityMatrix({}), grid200, sys, ell_max=1), sys.N)
    trial = aufbau_projection(fock_build(gamma0, grid200, sys, ell_max=1), sys.N)
    partial = DensityMatrix({k: b for k, b in trial.blocks.items() if k != (1, 1)})
    for gb in (trial, partial):
        for t in (0.0, 1e-9, 0.3, 0.5, 1.0):
            new, old = _mix_blocks(gamma0, gb, t, grid200), _mix_blocks_oracle(gamma0, gb, t, grid200)
            assert list(new.blocks) == list(old.blocks)
            for key, blk in old.blocks.items():
                assert np.array_equal(new.blocks[key].orbitals, blk.orbitals)
                assert np.array_equal(new.blocks[key].occupations, blk.occupations)


def test_oda_run_monotone_and_admissible(grid200):
    sys = AtomSystem(Z=3.0, N=3, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    gamma = aufbau_projection(bare, sys.N)
    e_gamma = total_energy(gamma, grid200, sys)
    energy = e_gamma.total
    e_bare = scipy.linalg.eigh(bare.matrices[(0, 0)], subset_by_index=(0, 0), eigvals_only=True)[0]
    for _ in range(12):
        gamma, step = oda_step(gamma, fock_build(gamma, grid200, sys, ell_max=0), e_gamma)
        e_gamma = step.energy
        assert step.energy.total <= energy + 1e-12 * (1.0 + abs(energy))
        # descent direction: the aufbau trial makes the linear term negative
        # away from stationarity
        if abs(energy - step.energy.total) > 1e-11 * (1.0 + abs(energy)):
            assert step.a < 0.0
        energy = step.energy.total
        gamma.validate(grid200, sys.N)
        assert gamma.trace() == pytest.approx(sys.N, abs=1e-9)
        fock = fock_build(gamma, grid200, sys, ell_max=0)
        e_min = min(
            scipy.linalg.eigh(fock.matrices[key], subset_by_index=(0, 0), eigvals_only=True)[0]
            for key in fock.matrices
        )
        assert e_min >= e_bare - 1e-10


def test_solve_hydrogen_nonrelativistic_limit_small():
    sys = validate_system(AtomSystem(Z=1.0, N=1, alpha=1e-3))
    report, gamma = solve_scf(sys, SolverOptions(n=800, r_max=30.0))
    assert report.converged
    eps1 = min(e for (_l, _s, _i, e, _eh, occ) in report.eigenvalues if occ > 0.5)
    assert eps1 / 1e-3 == pytest.approx(-0.5, rel=1e-3)


def test_solve_relativistic_below_nonrelativistic(grid200):
    sys = validate_system(AtomSystem(Z=2.0, N=2, alpha=ALPHA))
    opts = SolverOptions(n=grid200.n, r_max=grid200.r_max)
    rel, _ = solve_scf(sys, opts)
    nonrel, _ = solve_scf(replace(sys, kinetic="nonrelativistic"), opts)
    assert rel.energy.total <= nonrel.energy.total + 1e-12


def test_solve_energy_decreases_with_N_small():
    opts = SolverOptions(n=240, r_max=14.0)
    totals = []
    for N in (1, 2, 3):
        sys = validate_system(AtomSystem(Z=3.0, N=N, alpha=ALPHA))
        report, _ = solve_scf(sys, opts)
        totals.append(report.energy.total)
    assert totals[0] > totals[1] > totals[2]


def test_solve_trace_is_monotone(he_small):
    trace = [e.total for e in he_small.report.energy_trace]
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-12 * (1.0 + abs(a))


def test_solve_not_converged_carries_report(grid200):
    sys = validate_system(AtomSystem(Z=2.0, N=2, alpha=ALPHA))
    opts = SolverOptions(n=grid200.n, r_max=grid200.r_max, max_iter=1, tol_energy=1e-15)
    with pytest.raises(NotConverged) as info:
        solve_scf(sys, opts)
    assert info.value.report is not None
    assert info.value.density is not None
    assert not info.value.report.converged


def test_solve_anion_regime_flag(grid200):
    sys = validate_system(AtomSystem(Z=1.0, N=2, alpha=ALPHA))
    opts = SolverOptions(n=grid200.n, r_max=grid200.r_max, max_iter=300)
    try:
        report, _ = solve_scf(sys, opts)
    except NotConverged as exc:
        report = exc.report
    assert report.anion_regime


def test_solve_spinless_variant():
    sys = validate_system(AtomSystem(Z=2.0, N=2, alpha=ALPHA, q=1))
    report, gamma = solve_scf(sys, SolverOptions(n=240, r_max=14.0))
    assert report.converged
    assert list(gamma.blocks) == [(0, 0)]
    assert gamma.blocks[(0, 0)].occupations.tolist() == [1.0, 1.0]
    # polarized system binds less than the paired one
    paired, _ = solve_scf(
        validate_system(AtomSystem(Z=2.0, N=2, alpha=ALPHA, q=2)),
        SolverOptions(n=240, r_max=14.0),
    )
    assert report.energy.total > paired.energy.total


def test_solve_neon_closed_p_shell():
    """Filled 2p multiplet: capacity-3 aufbau and ell=1 exchange in the loop."""
    from prhf import minimizer_certificate

    sys = validate_system(AtomSystem(Z=10.0, N=10, alpha=ALPHA))
    opts = SolverOptions(n=500, r_max=14.0, ell_max=1)
    report, gamma = solve_scf(sys, opts)
    assert report.converged
    occ = {(o["ell"], o["spin"]): 0.0 for o in report.occupations}
    for o in report.occupations:
        occ[(o["ell"], o["spin"])] += o["f"]
    assert occ == {(0, 0): 2.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 3.0}
    grid = build_grid(opts.n, opts.r_max)
    fock = fock_build(gamma, grid, sys, ell_max=1)
    assert minimizer_certificate(gamma, fock).passed


def test_solve_boron_open_shell_is_honestly_fractional():
    """An open 2p shell has lambda = 1/3 in the central-field class; the
    purification clause reports it rather than hiding it."""
    from prhf import minimizer_certificate

    sys = validate_system(AtomSystem(Z=5.0, N=5, alpha=ALPHA))
    opts = SolverOptions(n=400, r_max=16.0, ell_max=1, max_iter=300)
    report, gamma = solve_scf(sys, opts)
    assert report.converged
    assert gamma.max_impurity() == pytest.approx(1.0 / 3.0, abs=1e-9)
    grid = build_grid(opts.n, opts.r_max)
    fock = fock_build(gamma, grid, sys, ell_max=1)
    cert = minimizer_certificate(gamma, fock)
    assert not cert.clauses["idempotent"]["passed"]
    for clause in ("trace", "aufbau", "negativity", "hf_equations"):
        assert cert.clauses[clause]["passed"], cert.clauses[clause]


def test_p_seeded_beryllium_relaxes_to_s_shells():
    """Cross-channel aufbau moves 2p seed electrons into 2s."""
    sys = validate_system(AtomSystem(Z=4.0, N=4, alpha=ALPHA))
    opts = SolverOptions(n=240, r_max=14.0, ell_max=1, initial_guess="shells", max_iter=300)
    grid = build_grid(opts.n, opts.r_max)
    shells = [
        ShellSpec(0, 0, 1.0), ShellSpec(0, 1, 1.0),
        ShellSpec(1, 0, 1.0), ShellSpec(1, 1, 1.0),
    ]
    seeded = density_from_shells(shells, sys, grid)
    assert max(ell for ell, _spin in seeded.blocks) == 1
    # run from the p seed by hand, on the channels ell <= 1
    gamma = seeded
    e_gamma = total_energy(gamma, grid, sys)
    energy = e_gamma.total
    for _ in range(200):
        gamma, step = oda_step(gamma, fock_build(gamma, grid, sys, ell_max=opts.ell_max), e_gamma)
        e_gamma = step.energy
        if abs(energy - step.energy.total) < 1e-10:
            energy = step.energy.total
            break
        energy = step.energy.total
    p_weight = sum(
        blk.occupations.sum() for (ell, s), blk in gamma.blocks.items() if ell == 1
    )
    assert p_weight <= 1e-6
    s_report, _ = solve_scf(sys, SolverOptions(n=240, r_max=14.0))
    assert energy == pytest.approx(s_report.energy.total, abs=5e-9)
