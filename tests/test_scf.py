import ast
import collections
import functools
import logging
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prhf import (
    AtomSystem,
    ChannelBlock,
    DensityMatrix,
    EigFailure,
    LineSearchFailure,
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
from prhf import coulomb, eigen, lapack, radial, scf
from prhf.scf import (
    _channel_spectra, _levels_needed, _mix_blocks, commutator_residual, density_from_shells,
    orbital_residuals,
)
from prhf.analysis import minimizer_certificate
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
    with caplog.at_level(logging.WARNING, logger="prhf.scf"):
        spectra = _channel_spectra(fock)
    assert not caplog.records              # no fallback to the dense eigensolve
    for key, (vals, vecs) in spectra.items():
        k = sol.gamma.blocks[key].m + 1
        assert vals.size == k
        dense, dvecs = scipy.linalg.eigh(fock.matrices[key], subset_by_index=(0, k - 1))
        assert np.max(np.abs(vals - dense)) / sol.sys.alpha <= 1e-10
        overlap = np.abs(np.sum(vecs * dvecs, axis=0)) * np.sqrt(sol.grid.h)
        assert np.allclose(overlap[:2], 1.0, rtol=0, atol=1e-10)
        assert np.all(vecs[0] > 0.0)       # signed positive at the first node


def _broken_ritz(*args):
    """Every Rayleigh-Ritz pencil fails: the solve breaks down at its start."""
    return None


def _garbage_lobpcg(apply, precondition, X, tol, maxiter, ceiling):
    """Finite levels and vectors that are no eigenpairs, after three iterations."""
    return np.zeros(X.shape[1]), X + 1.0, 3


_true_ritz = eigen._ritz


def _nan_ritz(*args):
    """Every Rayleigh-Ritz step returns its last Ritz value as NaN."""
    vals, C = _true_ritz(*args)
    return np.concatenate([vals[:-1], [np.nan]]), C


@pytest.mark.parametrize("patch, fill", [
    ((scf, "LOBPCG_MAXITER", 1), False), ((eigen, "_ritz", _broken_ritz), False),
    ((scf, "LOBPCG_MAXITER", 1), True), ((eigen, "_ritz", _broken_ritz), True),
    ((eigen, "lobpcg", _garbage_lobpcg), False), ((eigen, "lobpcg", _garbage_lobpcg), True),
    ((eigen, "_ritz", _nan_ritz), False), ((eigen, "_ritz", _nan_ritz), True),
], ids=["maxiter", "breakdown", "maxiter-fill", "breakdown-fill", "garbage", "garbage-fill",
        "nan-ritz", "nan-ritz-fill"])
def test_lobpcg_nonconvergence_falls_back_to_dense(patch, fill, he_small, monkeypatch, caplog):
    monkeypatch.setattr(*patch)
    fock = fock_build(he_small.gamma, he_small.grid, he_small.sys, ell_max=0)
    # the fill of helium's one spin group asks for one level, its table for
    # one more than its one orbital
    k = 1 if fill else 2
    with caplog.at_level(logging.WARNING, logger="prhf.scf"):
        if fill:
            spectra = _channel_spectra(fock, he_small.sys.N, scf.LOBPCG_RTOL)
        else:
            spectra = _channel_spectra(fock)
    # one eigensolve for the one spin group: its warm start from helium's
    # orbitals fails and dense eigh takes over
    assert len(caplog.records) == 1
    assert "using dense eigh" in caplog.text
    rtol = scf.LOBPCG_RTOL if fill else scf.LOBPCG_LEVEL_RTOL
    assert [(block, warm, fb, tol) for block, _its, warm, fb, tol in fock.eigensolves] == [
        (k, True, True, rtol)]
    summary = scf._eigensolve_summary(fock.eigensolves)
    assert summary["lobpcg_warm"] == [True] and summary["dense_fallbacks"] == 1
    vals, vecs = _dst_dense_levels(fock, (0, 0), k)
    for key in ((0, 0), (0, 1)):
        assert np.array_equal(spectra[key][0], vals)
        assert np.array_equal(spectra[key][1], vecs / np.sqrt(he_small.grid.h))
        assert np.all(spectra[key][1][0] > 0.0)
    _assert_matches_node_space_eigh(fock, (0, 0), vals, vecs)


def _dst_dense_levels(fock, key, k):
    """Lowest k eigenpairs of the channel's operator in DST-I coordinates, mapped back.

    The operator is built here, column by column from the identity, and the
    vectors are signed P > 0 at the first node, in the unit inner product.
    """
    t = fock.kinetic[key[0]].symbol[:, None]
    eye = np.eye(fock.grid.n)
    A = t * eye + radial.dst(fock.potential_apply(key, radial.dst(eye)))
    vals, vecs = scipy.linalg.eigh(A, subset_by_index=(0, k - 1))
    vecs = radial.dst(vecs)
    vecs *= np.where(vecs[0] < 0.0, -1.0, 1.0)
    return vals, vecs


def _assert_matches_node_space_eigh(fock, key, vals, vecs):
    """An independent oracle: eigh of the node-space matrix, levels in Ha and unit vectors."""
    k = vals.size
    dense, dvecs = scipy.linalg.eigh(fock.matrices[key], subset_by_index=(0, k - 1))
    dvecs *= np.where(dvecs[0] < 0.0, -1.0, 1.0)
    assert np.max(np.abs(vals - dense)) / fock.system.alpha <= 1e-10
    assert np.max(np.abs(vecs - dvecs)) <= 1e-10


@pytest.mark.parametrize("patch", [
    (eigen, "lobpcg", _garbage_lobpcg), (scf, "LOBPCG_MAXITER", 1)], ids=["garbage", "maxiter"])
def test_s_only_fallback_builds_no_dense_operator(patch, he_small, monkeypatch, caplog):
    """A matrix-free channel whose LOBPCG fails falls back without a node-space matrix."""
    def refuse(*args, **kwargs):
        raise AssertionError("a dense node-space operator was built")

    monkeypatch.setattr(*patch)
    monkeypatch.setattr(scf, "exchange_matrix", refuse)
    monkeypatch.setattr(radial, "spectral_function", refuse)
    fock = fock_build(he_small.gamma, he_small.grid, he_small.sys, ell_max=0)
    with caplog.at_level(logging.WARNING, logger="prhf.scf"):
        _channel_spectra(fock, he_small.sys.N, scf.LOBPCG_RTOL)
        _channel_spectra(fock)
    assert "using dense eigh" in caplog.text
    assert [fb for _k, _its, _warm, fb, _rtol in fock.eigensolves] == [True, True]
    assert "matrices" not in vars(fock)


def _shifted(symbol):
    """The Ritz-shifted preconditioner (symbol + max(-theta, 0))^-1 of a positive symbol row."""
    def precondition(R, theta):
        return R / (symbol + np.maximum(-theta, 0.0)[:, None])

    return precondition


def _small_problem(n=150):
    """A symmetric matrix with a graded diagonal, a shifted preconditioner and a recording apply."""
    rng = np.random.default_rng(11)
    d = np.linspace(1.0, 60.0, n)
    B = 0.3 * rng.standard_normal((n, n))
    A = np.diag(d) + 0.5 * (B + B.T)
    widths = []

    def op(Y):
        widths.append(Y.shape[1])
        return A @ Y

    return A, _shifted(d + 1.0), op, widths, rng


@pytest.mark.parametrize("k", [1, 6])
def test_inhouse_lobpcg_matches_eigh(k):
    A, precondition, op, widths, rng = _small_problem()
    tol = 1e-12 * np.linalg.norm(A, 2)
    vals, X, its = eigen.lobpcg(op, precondition, rng.standard_normal((A.shape[0], k)), tol, 200)
    dense, dvecs = np.linalg.eigh(A)
    assert 0 < its == len(widths) - 1 < 200
    assert np.max(np.abs(vals - dense[:k])) <= 1e-10
    assert np.allclose(X.T @ X, np.eye(k), rtol=0, atol=1e-12)
    assert np.max(np.linalg.norm(A @ X - X * vals, axis=0)) <= scf.LOBPCG_SLACK * tol
    # the span is the eigh span: the projectors onto them coincide
    assert np.max(np.abs(X @ X.T - dvecs[:, :k] @ dvecs[:, :k].T)) <= 1e-10


def test_inhouse_lobpcg_locks_a_converged_column():
    """A start column that is already an eigenvector is never applied again."""
    A, precondition, op, widths, rng = _small_problem()
    k = 4
    _dense, dvecs = np.linalg.eigh(A)
    X0 = rng.standard_normal((A.shape[0], k))
    X0[:, 0] = dvecs[:, 0]
    X0[:, 1:] -= np.outer(dvecs[:, 0], dvecs[:, 0] @ X0[:, 1:])
    tol = 1e-10 * np.linalg.norm(A, 2)
    vals, X, its = eigen.lobpcg(op, precondition, X0, tol, 200)
    assert np.max(np.abs(vals - _dense[:k])) <= 1e-10
    # after the start block, every apply is of the active columns alone,
    # and a locked column never comes back
    assert widths[0] == k and all(w < k for w in widths[1:])
    assert widths[1:] == sorted(widths[1:], reverse=True)


def test_inhouse_lobpcg_shifts_bound_levels_by_their_ritz_values():
    """A negative well below the positive symbol: bound levels, each preconditioned at its own value."""
    A, precondition, _op, _widths, rng = _small_problem()
    n, k = A.shape[0], 3
    A = A - np.diag(40.0 * np.exp(-np.arange(n) / 10.0))
    dense, dvecs = np.linalg.eigh(A)
    assert np.all(dense[:k] < 0.0)          # every column's shift is its own -theta
    tol = 1e-12 * np.linalg.norm(A, 2)
    X0 = rng.standard_normal((n, k))
    vals, X, its = eigen.lobpcg(lambda Y: A @ Y, precondition, X0, tol, 200)
    assert 0 < its < 200
    assert np.max(np.abs(vals - dense[:k])) <= 1e-10
    assert np.max(np.linalg.norm(A @ X - X * vals, axis=0)) <= scf.LOBPCG_SLACK * tol
    assert np.max(np.abs(X @ X.T - dvecs[:, :k] @ dvecs[:, :k].T)) <= 1e-10


def test_shifted_symbol_is_at_least_the_smallest_symbol(he_small, monkeypatch):
    """(T + max(-theta, 0))^-1: T - theta below zero, T itself above, never below min T.

    The preconditioner that `_lobpcg_levels` hands to `eigen.lobpcg`,
    applied to unit residual rows at chosen Ritz values.
    """
    preconditioners = []
    solve = eigen.lobpcg

    def recording(apply, precondition, *args, **kwargs):
        preconditioners.append(precondition)
        return solve(apply, precondition, *args, **kwargs)

    monkeypatch.setattr(eigen, "lobpcg", recording)
    fock = fock_build(he_small.gamma, he_small.grid, he_small.sys, ell_max=0)
    scf._lobpcg_levels(fock, (0, 0), 1, scf.LOBPCG_LEVEL_RTOL)
    [precondition] = preconditioners
    symbol = fock.kinetic[0].symbol
    vals = np.array([-7.5, -1e-3, -0.0, 0.0, 1e-3, 4.0, 1e3])
    W = precondition(np.ones((len(vals), symbol.size)), vals)
    assert W.shape == (len(vals), symbol.size)
    assert np.all(W <= 1.0 / symbol.min())
    assert np.array_equal(W[vals < 0.0], 1.0 / (symbol - vals[vals < 0.0, None]))
    assert np.array_equal(W[vals >= 0.0], np.broadcast_to(1.0 / symbol, W[vals >= 0.0].shape))
    assert np.all(np.isnan(precondition(np.ones((1, symbol.size)), np.array([np.nan]))))


def _bad_gram(kind, k=4):
    """An indefinite or a NaN k x k Gram matrix."""
    A = np.random.default_rng(5).standard_normal((k, 3 * k))
    G = A @ A.T
    if kind == "indefinite":
        G[-1, -1] = -1.0
    else:
        G[1, 2] = G[2, 1] = np.nan
    return G


@pytest.mark.parametrize("kind", ["indefinite", "nan"])
def test_small_factorizations_refuse_a_bad_gram(kind):
    G = _bad_gram(kind)
    assert eigen._inverse_cholesky(G) is None
    assert eigen._ritz(np.diag(np.arange(1.0, 5.0)), G, 2) is None
    if kind == "nan":           # a NaN in the projected matrix instead
        assert eigen._ritz(G, np.eye(4), 2) is None


def _numpy_inverse_cholesky(G):
    """`eigen._inverse_cholesky` through numpy.linalg alone, at every block size."""
    try:
        R = np.linalg.cholesky(G, upper=True)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.inv(R) if np.isfinite(R[-1, -1]) else None


_SCALAR_EDGES = [0.0, -0.0, -1.0, 5e-324, 2.2e-308, 1.0, 4.0, 1.7e308, np.inf, -np.inf, np.nan]


def test_one_by_one_blocks_match_numpy_linalg():
    """The 1 x 1 Cholesky inverse and Rayleigh quotient are numpy.linalg's bits."""
    rng = np.random.default_rng(11)
    values = np.concatenate([10.0 ** rng.uniform(-300, 300, 2000), rng.uniform(0.5, 2.0, 2000),
                             -rng.uniform(0.0, 1.0, 50), _SCALAR_EDGES])
    for g in values:
        G = np.array([[g]])
        ours, ref = eigen._inverse_cholesky(G), _numpy_inverse_cholesky(G)
        assert (ours is None) == (ref is None), g
        if ref is not None:
            assert ours.shape == ref.shape and np.array_equal(ours, ref), g
        # dsyevd's 1 x 1 eigenpair is the entry and a unit vector, which
        # leaves the rotated block C^T X as it was
        vals, C = np.linalg.eigh(G)
        assert np.array_equal(vals, G[0], equal_nan=True) and np.array_equal(C, [[1.0]]), g


@pytest.mark.parametrize("dependent", ["zero", "sum"])
def test_rank_deficient_start_block_does_not_raise(dependent, he_small, monkeypatch, caplog):
    """A start block with dependent columns still gives the dense levels, or falls back to them."""
    k = 3
    Y0 = np.random.default_rng(5).standard_normal((he_small.grid.n, k))
    Y0[:, 2] = 0.0 if dependent == "zero" else Y0[:, 0] + Y0[:, 1]
    monkeypatch.setattr(scf, "_start_block", lambda _fock, _key, _k: (False, Y0.copy()))
    fock = fock_build(he_small.gamma, he_small.grid, he_small.sys, ell_max=0)
    with caplog.at_level(logging.WARNING, logger="prhf.scf"):
        vals, vecs = scf._lobpcg_levels(fock, (0, 0), k, scf.LOBPCG_LEVEL_RTOL)
    [(block, its, warm, fell_back, rtol)] = fock.eigensolves
    assert (block, warm, rtol) == (k, False, scf.LOBPCG_LEVEL_RTOL)
    assert fell_back == ("using dense eigh" in caplog.text)
    # a zero column stops the solve before its first apply
    assert dependent == "sum" or (fell_back and its == 0)
    dense = scipy.linalg.eigh(fock.matrices[(0, 0)], subset_by_index=(0, k - 1), eigvals_only=True)
    assert np.max(np.abs(vals - dense)) / he_small.sys.alpha <= 1e-10


def _cold_only(monkeypatch):
    """Make every LOBPCG solve start from a seeded Gaussian block, which knows nothing of gamma."""
    def gaussian(fock, _key, k):
        return False, np.random.default_rng(20240817).standard_normal((fock.grid.n, k))

    monkeypatch.setattr(scf, "_start_block", gaussian)


def _h0_and_converged_levels(sol):
    """Fill and table of the operators of the h0 guess's density and of the converged one."""
    N = sol.sys.N
    bare = fock_build(DensityMatrix({}), sol.grid, sol.sys, ell_max=0)
    out = []
    for gamma in (aufbau_projection(bare, N), sol.gamma):
        fock = fock_build(gamma, sol.grid, sol.sys, ell_max=0)
        spectra = [_channel_spectra(fock, N, scf.LOBPCG_RTOL), _channel_spectra(fock)]
        out.append((fock.eigensolves, spectra))
    return out


@pytest.mark.parametrize("name", ["he_small", "li_solution", "be_solution"])
def test_warm_started_levels_match_cold_started_ones(name, request, monkeypatch):
    """The fill and the table of a warm start are the cold start's levels and spans."""
    sol = request.getfixturevalue(name)
    warm = _h0_and_converged_levels(sol)
    _cold_only(monkeypatch)
    cold = _h0_and_converged_levels(sol)
    for (warm_records, warm_spectra), (cold_records, cold_spectra) in zip(warm, cold):
        assert [(w, fb) for _k, _its, w, fb, _rtol in warm_records] == [(True, False)] * len(
            warm_records)
        assert not any(w for _k, _its, w, *_ in cold_records)
        for sw, sc in zip(warm_spectra, cold_spectra):
            for key, (vals, vecs) in sw.items():
                cvals, cvecs = sc[key]
                assert np.max(np.abs(vals - cvals) / np.abs(cvals)) <= 1e-12
                # the spans agree: the projectors onto them coincide
                assert np.max(np.abs(sol.grid.h * (vecs @ vecs.T - cvecs @ cvecs.T))) <= 1e-10


def test_warm_start_repeats_bit_for_bit(he_small):
    """Two builds of one operator give the same levels, bit for bit."""
    N = he_small.sys.N
    levels = []
    for _ in range(2):
        fock = fock_build(he_small.gamma, he_small.grid, he_small.sys, ell_max=0)
        levels.append([_channel_spectra(fock, N, scf.LOBPCG_RTOL), _channel_spectra(fock)])
    for first, again in zip(*levels):
        for key, (vals, vecs) in first.items():
            assert np.array_equal(vals, again[key][0]) and np.array_equal(vecs, again[key][1])


def _s_seed(r, Z, j):
    """The normalized s function of principal number j + 1 at charge Z, in DST coordinates."""
    P = r * np.exp(-Z * r / (j + 1)) * np.polynomial.laguerre.lagval(
        2.0 * Z * r / (j + 1), [0.0] * j + [1.0])
    y = radial.dst(P)
    return y / np.linalg.norm(y)


def test_empty_density_keeps_the_cold_start(grid200):
    """An operator without density starts from the hydrogenic block at its charge alone."""
    sys = AtomSystem(Z=3.0, N=3, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    warm, Y0 = scf._start_block(bare, (0, 0), 4)
    assert not warm
    for j in range(4):
        assert np.allclose(Y0[:, j], _s_seed(grid200.nodes, 3.0, j), rtol=0, atol=1e-14)
    again = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    assert np.array_equal(scf._start_block(again, (0, 0), 4)[1], Y0)
    aufbau_projection(bare, sys.N)
    assert [(warm, fb) for _k, _its, warm, fb, _rtol in bare.eigensolves] == [(False, False)]


def test_tiny_grid_fill_builds_no_start_block(monkeypatch):
    """Below 5 k nodes the dense solve runs at once: no hydrogenic seed, warmth from the density."""
    grid = build_grid(16, 8.0)
    sys = AtomSystem(Z=3.0, N=3, alpha=ALPHA)
    seeds = []
    hydrogenic_seed = scf._hydrogenic_seed
    bare = fock_build(DensityMatrix({}), grid, sys, ell_max=0)
    gamma = aufbau_projection(bare, sys.N)

    def counting_seed(*args):
        seeds.append(args)
        return hydrogenic_seed(*args)

    monkeypatch.setattr(scf, "_hydrogenic_seed", counting_seed)
    for density, warm in ((DensityMatrix({}), False), (gamma, True)):
        fock = fock_build(density, grid, sys, ell_max=0)
        assert fock.matrix_free
        vals, _vecs = scf._lobpcg_levels(fock, (0, 0), 4, scf.LOBPCG_LEVEL_RTOL)
        assert fock.eigensolves == [(4, 0, warm, False, scf.LOBPCG_LEVEL_RTOL)]
        dense = scipy.linalg.eigh(fock.matrices[(0, 0)], subset_by_index=(0, 3), eigvals_only=True)
        assert np.max(np.abs(vals - dense)) / sys.alpha <= 1e-10
    assert seeds == []


def test_warm_start_completes_the_orbitals_with_hydrogenic_seeds(he_small):
    """A channel with fewer orbitals than columns starts from them, then from seeds j = m..k-1."""
    k = 4
    fock = fock_build(he_small.gamma, he_small.grid, he_small.sys, ell_max=0)
    warm, Y0 = scf._start_block(fock, (0, 0), k)
    blk = he_small.gamma.blocks[(0, 0)]
    assert warm and blk.m == 1
    assert np.array_equal(Y0[:, 0], radial.dst(blk.orbitals[:, 0] * np.sqrt(he_small.grid.h)))
    for j in range(1, k):
        assert np.allclose(Y0[:, j], _s_seed(he_small.grid.nodes, 2.0, j), rtol=0, atol=1e-14)
    again = fock_build(he_small.gamma, he_small.grid, he_small.sys, ell_max=0)
    assert np.array_equal(scf._start_block(again, (0, 0), k)[1], Y0)


def test_helium_anion_needs_no_dense_fallback():
    """He- (Z = 2, N = 3) at n = 400, r_max 40: every LOBPCG solve meets its tolerance."""
    sys = validate_system(AtomSystem(Z=2.0, N=3, alpha=ALPHA))
    report, _gamma = solve_scf(sys, SolverOptions(n=400, r_max=40.0))
    assert report.converged
    assert report.eigensolves["dense_fallbacks"] == 0


def test_heavy_helium_like_ion_needs_no_dense_fallback():
    """He-like Z = 50 at n = 1200, r_max 30: the 1s level lies at -6.9 in operator units, and
    each column's Ritz shift brings every solve home well inside the iteration cap."""
    sys = validate_system(AtomSystem(Z=50.0, N=2, alpha=ALPHA))
    report, _gamma = solve_scf(sys, SolverOptions(n=1200, r_max=30.0))
    assert report.converged
    assert report.eigensolves["dense_fallbacks"] == 0
    assert max(report.eigensolves["lobpcg_iterations"]) <= 50


def test_hydrogen_empty_spin_channel_converges_quickly(hydrogen_limit_solution):
    """The empty spin channel starts from its bare-charge seed alone and takes few iterations."""
    assert max(hydrogen_limit_solution.report.eigensolves["lobpcg_iterations"]) <= 30


def test_beryllium_cold_fill_converges_quickly(be_solution):
    """Be's h0 fill (block 2, hydrogenic seeds 1s and 2s at Z = 4) is the run's first solve."""
    record = be_solution.report.eigensolves
    assert (record["lobpcg_blocks"][0], record["lobpcg_warm"][0]) == (2, False)
    assert record["lobpcg_iterations"][0] <= 30


def test_warm_start_cuts_helium_work_and_repeats():
    """He on a small grid: less LOBPCG work than the cold start, the same count twice."""
    sys = validate_system(AtomSystem(Z=2.0, N=2, alpha=ALPHA))
    options = SolverOptions(n=320, r_max=15.0)
    works = [solve_scf(sys, options)[0].eigensolves for _ in range(2)]
    assert works[0] == works[1]
    assert works[0]["lobpcg_warm"] == [False] + [True] * (works[0]["lobpcg_solves"] - 1)
    with pytest.MonkeyPatch.context() as mp:
        _cold_only(mp)
        cold = solve_scf(sys, options)[0].eigensolves
    assert not any(cold["lobpcg_warm"])
    assert works[0]["lobpcg_work"] < cold["lobpcg_work"]


def _fill_pair(fock, N):
    """The fill from group-sized spectra and the fill from the table count."""
    full = {
        (0, spin): scf._group_levels(fock, 0, grp, _levels_needed(N), scf.LOBPCG_RTOL)
        for grp in fock.groups for spin in grp
    }
    return scf._fill(_channel_spectra(fock, N, scf.LOBPCG_RTOL), N), scf._fill(full, N)


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
    """Group sizes 2 and 1 at N = 3: 2 levels for the pair, 3 apart."""
    sys = AtomSystem(Z=3.0, N=3, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    gamma = aufbau_projection(bare, sys.N)
    assert [block for block, *_ in bare.eigensolves] == [2]
    fock = fock_build(gamma, grid200, sys, ell_max=0)
    assert fock.groups == [[0], [1]]
    aufbau_projection(fock, sys.N)
    assert [block for block, *_ in fock.eigensolves] == [3, 3]


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
    spectra = _channel_spectra(fock, N, scf.LOBPCG_RTOL)
    assert spectra[(0, 0)][0].size == _levels_needed(N)


def test_helium_solve_asks_one_column_per_fill(monkeypatch):
    """He: every fill solve is one column, at the tolerance its step needs; only the final
    table asks for two, its one orbital plus one, on the report's first read of it, and
    its solve comes last.

    The h0 fill and the fill of every iteration whose commutator residual meets
    tol_commutator solve to LOBPCG_RTOL; the other fills are search directions at
    max(LOBPCG_RTOL, min(1e-8, 1e-5 r)).
    """
    solves = []
    solve = scf._lobpcg_levels

    def recording(fock, key, k, rtol):
        solves.append((k, rtol))
        return solve(fock, key, k, rtol)

    monkeypatch.setattr(scf, "_lobpcg_levels", recording)
    sys = validate_system(AtomSystem(Z=2.0, N=2, alpha=ALPHA))
    options = SolverOptions(n=300, r_max=15.0)
    report, _gamma = solve_scf(sys, options)
    assert report.converged and report.iterations > 3
    fills = list(solves)
    assert report.fock.levels and solves[:-1] == fills
    table = solves[-1]
    assert {k for k, _rtol in fills} == {1}
    # the h0 fill, then one fill per iteration (every step takes t = 1: no purity finish)
    h0, *steps = [rtol for _k, rtol in fills]
    assert h0 == scf.LOBPCG_RTOL and len(steps) == report.iterations
    for rtol, step in zip(steps, report.steps):
        r = step["commutator_residual"]
        if r < options.tol_commutator:
            assert rtol == scf.LOBPCG_RTOL
        else:
            assert rtol == max(scf.LOBPCG_RTOL, min(1e-8, 1e-5 * r)) <= 1e-6
    assert max(steps) > scf.LOBPCG_RTOL and steps[-1] == scf.LOBPCG_RTOL
    assert table == (2, scf.LOBPCG_LEVEL_RTOL)
    assert report.eigensolves["lobpcg_blocks"] == [k for k, _rtol in solves]
    assert report.eigensolves["lobpcg_rtol"] == [rtol for _k, rtol in solves]


def test_level_table_records_do_not_depend_on_who_solves_first(he_small):
    """He: the table and its records are the same whether the report or the certificate
    solves the final levels first, and a later read solves nothing."""
    from prhf import minimizer_certificate

    sys, options = he_small.sys, he_small.options
    table_first, gamma = solve_scf(sys, options)
    expected = (table_first.fock.levels, table_first.eigensolves)
    assert minimizer_certificate(table_first.fock).passed
    assert table_first.eigensolves["lobpcg_solves"] == len(table_first.fock.eigensolves)
    report, gamma = solve_scf(sys, options)
    assert minimizer_certificate(report.fock).passed
    assert (report.fock.levels, report.eigensolves) == expected
    assert report.eigensolves["lobpcg_rtol"][-1] == scf.LOBPCG_LEVEL_RTOL


def _solve_recording_fills(sys, options, monkeypatch):
    """solve_scf with every aufbau fill recorded as (density, rtol)."""
    fills = []

    def recording(fock, N, rtol=scf.LOBPCG_RTOL):
        gamma = aufbau_projection(fock, N, rtol)
        fills.append((gamma, rtol))
        return gamma

    monkeypatch.setattr(scf, "aufbau_projection", recording)
    report, gamma = solve_scf(sys, options)
    return report, gamma, fills


def _occupied_levels(report):
    """The occupied levels (Ha) in table order."""
    alpha = report.fock.system.alpha
    return np.array([lv.value / alpha for lv in report.fock.levels if lv.occupation > 0.5])


@pytest.mark.parametrize("Z, n, r_max", [(2.0, 300, 15.0), (3.0, 400, 25.0), (4.0, 400, 30.0)],
                         ids=["he", "li", "be"])
def test_residual_tied_fill_tolerance_keeps_the_scf_path(Z, n, r_max, monkeypatch):
    """Neutral He, Li and Be: loose search-direction fills take the path of full-tolerance ones.

    The oracle solves every fill to LOBPCG_RTOL. Both runs take the same
    iterations to convergence, their totals agree to 1e-12 Ha and their
    occupied levels to 1e-10 Ha (the bench references' gate), neither falls
    back to dense eigh, and the final state comes from a fill at LOBPCG_RTOL.
    """
    sys = validate_system(AtomSystem(Z=Z, N=int(Z), alpha=ALPHA))
    options = SolverOptions(n=n, r_max=r_max)
    report, gamma, fills = _solve_recording_fills(sys, options, monkeypatch)
    monkeypatch.setattr(scf, "_fill_rtol", lambda _r, _tol: scf.LOBPCG_RTOL)
    oracle, _gamma, oracle_fills = _solve_recording_fills(sys, options, monkeypatch)
    assert report.converged and oracle.converged
    assert report.iterations == oracle.iterations
    assert abs(report.energy.total - oracle.energy.total) <= 1e-12
    assert np.max(np.abs(_occupied_levels(report) - _occupied_levels(oracle))) <= 1e-10
    assert report.eigensolves["dense_fallbacks"] == oracle.eigensolves["dense_fallbacks"] == 0
    assert max(rtol for _g, rtol in fills) > scf.LOBPCG_RTOL           # the rule did loosen
    assert {rtol for _g, rtol in oracle_fills} == {scf.LOBPCG_RTOL}
    final, rtol = fills[-1]
    assert final is gamma and rtol == scf.LOBPCG_RTOL


def test_neon_fill_and_table_share_one_eigh(grid200, monkeypatch):
    """A dense operator keeps the table count for its fill: one eigh per channel group,
    every channel of the operator in one call."""
    counts = []
    dense = eigen.dense

    def recording(Hs, k):
        counts.append((len(Hs), k))
        return dense(Hs, k)

    monkeypatch.setattr(eigen, "dense", recording)
    sys = AtomSystem(Z=10.0, N=10, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid200, sys, ell_max=1)
    aufbau_projection(bare, sys.N)
    bare.levels
    assert counts == [(2, 14)]           # ell = 0 and 1, one spin group, in one call
    assert bare.eigensolves == []


def test_dense_table_rows_are_slices_of_one_eigh(monkeypatch):
    """Neon (n = 200, ell_max 1): each channel's m + 1 table rows are the first m + 1 levels
    of its one eigh of _levels_needed(N) levels, bit for bit, vectors included."""
    counts = []
    dense = eigen.dense

    def recording(Hs, k):
        counts.append((len(Hs), k))
        return dense(Hs, k)

    grid = build_grid(200, 15.0)
    sys = AtomSystem(Z=10.0, N=10, alpha=ALPHA)
    gamma = aufbau_projection(fock_build(DensityMatrix({}), grid, sys, ell_max=1), sys.N)
    fock = fock_build(gamma, grid, sys, ell_max=1)
    monkeypatch.setattr(eigen, "dense", recording)
    spectra = _channel_spectra(fock)
    assert counts == [(2, _levels_needed(sys.N))]        # ell = 0 and 1, one spin group
    assert {key: blk.m for key, blk in gamma.blocks.items()} == {
        (0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 1}
    for key, (vals, vecs) in spectra.items():
        k = gamma.blocks[key].m + 1
        full_vals, full_vecs = scipy.linalg.eigh(
            fock.matrices[key], subset_by_index=(0, _levels_needed(sys.N) - 1))
        assert np.array_equal(vals, full_vals[:k])
        assert np.array_equal(vecs, radial.from_unit(grid, full_vecs)[:, :k])
    assert fock.eigensolves == []


def test_dense_request_past_the_shared_solve_solves_its_channel_alone(monkeypatch):
    """Neon (n = 200, ell_max 1): 20 levels of the s-channel, past the 14 that every channel
    gets in the first call, come from a solve of that channel alone at 20 levels; the
    p-channel keeps its first solve."""
    calls = []
    dense = eigen.dense

    def recording(Hs, k):
        calls.append((len(Hs), k))
        return dense(Hs, k)

    grid = build_grid(200, 15.0)
    sys = AtomSystem(Z=10.0, N=10, alpha=ALPHA)
    fock = fock_build(DensityMatrix({}), grid, sys, ell_max=1)
    monkeypatch.setattr(eigen, "dense", recording)
    p_levels = scf._group_levels(fock, 1, [0, 1], 3, scf.LOBPCG_RTOL)
    vals, vecs = scf._group_levels(fock, 0, [0, 1], 20, scf.LOBPCG_RTOL)
    assert calls == [(2, _levels_needed(sys.N)), (1, 20)]
    ref_vals, ref_vecs = scipy.linalg.eigh(fock.matrices[(0, 0)], subset_by_index=(0, 19))
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(vecs, radial.from_unit(grid, ref_vecs))
    again = scf._group_levels(fock, 1, [0, 1], 3, scf.LOBPCG_RTOL)
    assert all(np.array_equal(a, b) for a, b in zip(again, p_levels))
    assert calls == [(2, _levels_needed(sys.N)), (1, 20)]


def test_neon_solve_is_the_same_on_one_worker_and_on_two(monkeypatch, one_blas_thread):
    """Neon (n = 200, ell_max 1) with its dense channel solves serial and side by side:
    the report (levels and eigensolves records included) and the orbitals are identical."""
    sys = validate_system(AtomSystem(Z=10.0, N=10, alpha=ALPHA))
    options = SolverOptions(n=200, r_max=15.0, ell_max=1)
    solve = lapack.syevr
    runs = []
    for workers in (1, 2):
        on_main = []

        def recording(H, k):
            on_main.append(threading.current_thread() is threading.main_thread())
            return solve(H, k)

        monkeypatch.setattr(lapack, "_workers", lambda count, w=workers: min(count, w))
        monkeypatch.setattr(lapack, "syevr", recording)
        report, gamma = solve_scf(sys, options)
        assert report.converged and on_main and set(on_main) == {workers == 1}
        runs.append((report.as_dict(), gamma))
    (serial, serial_gamma), (threaded, threaded_gamma) = runs
    assert serial == threaded
    assert serial_gamma.blocks.keys() == threaded_gamma.blocks.keys()
    for key, blk in serial_gamma.blocks.items():
        assert np.array_equal(blk.orbitals, threaded_gamma.blocks[key].orbitals)
        assert np.array_equal(blk.occupations, threaded_gamma.blocks[key].occupations)


@pytest.mark.parametrize("Z, n, r_max, ell_max", [
    (2.0, 300, 15.0, 0), (3.0, 300, 20.0, 0), (10.0, 200, 15.0, 1), (2.0, 200, 15.0, 1),
], ids=["he", "li", "neon", "he-ell1"])
def test_level_table_holds_each_channels_orbitals_plus_one(Z, n, r_max, ell_max):
    """The report's table has m_c + 1 rows on every channel c where gamma holds m_c orbitals:
    the occupied levels and the channel's lowest unoccupied one. Li's spins differ, and He
    with ell_max 1 has empty p-channels, which give one row each."""
    sys = validate_system(AtomSystem(Z=Z, N=int(Z), alpha=ALPHA))
    report, gamma = solve_scf(sys, SolverOptions(n=n, r_max=r_max, ell_max=ell_max))
    assert report.converged
    m = {(ell, spin): gamma.blocks[(ell, spin)].m if (ell, spin) in gamma.blocks else 0
         for ell in range(ell_max + 1) for spin in range(sys.q)}
    table = report.fock.levels
    assert len(table) == sum(mc + 1 for mc in m.values())
    for key, mc in m.items():
        rows = sorted((lv.index, lv.occupation) for lv in table if (lv.ell, lv.spin) == key)
        assert [idx for idx, _occ in rows] == list(range(mc + 1))
        assert [occ > 0.5 for _idx, occ in rows] == [True] * mc + [False]
    assert report.eigensolves["dense_fallbacks"] == 0


def test_neon_fock_matrices_are_exactly_symmetric():
    """On neon's s and p densities H = local - alpha K needs no symmetrization.

    local and K are each exactly symmetric, so H equals its transpose and
    the old 0.5 (H + H^T) form bit for bit.
    """
    grid = build_grid(200, 15.0)
    sys = AtomSystem(Z=10.0, N=10, alpha=ALPHA)
    gamma0 = aufbau_projection(fock_build(DensityMatrix({}), grid, sys, ell_max=1), sys.N)
    trial = aufbau_projection(fock_build(gamma0, grid, sys, ell_max=1), sys.N)
    for gamma in (gamma0, trial):
        assert (1, 0) in gamma.blocks
        fock = fock_build(gamma, grid, sys, ell_max=1)
        for (ell, spin), H in fock.matrices.items():
            local = fock.kinetic[ell].matrix + np.diag(fock.potential)
            old = local - ALPHA * exchange_matrix(gamma, ell, spin, grid)
            assert np.array_equal(H, H.T)
            assert np.array_equal(H, 0.5 * (old + old.T))


def test_neon_dense_build_holds_only_its_channel_matrices():
    """A dense build keeps its channel matrices and no n x n kernel, buffer or copy.

    No cache holds anything for the grid but the kinetic matrices, which
    the bare operator's fill has built before the trace starts.
    """
    grid = build_grid(263, 15.0)
    sys = AtomSystem(Z=10.0, N=10, alpha=ALPHA)
    gamma = aufbau_projection(fock_build(DensityMatrix({}), grid, sys, ell_max=1), sys.N)
    tracemalloc.start()
    try:
        fock = fock_build(gamma, grid, sys, ell_max=1)
        matrices = sum({id(H): H.nbytes for H in fock.matrices.values()}.values())
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n2 = 8 * grid.n**2
    assert matrices == 2 * n2           # one array per channel, shared by the two spins
    assert matrices <= retained < matrices + 16 * 8 * grid.n
    assert peak < matrices + 1.5 * n2


def test_neon_solve_holds_one_dense_operator_at_a_time(monkeypatch):
    """While a Fock operator builds its matrices, no other operator with matrices is alive."""
    built, others = [], []
    build, exchange = scf.fock_build, scf.exchange_matrix

    def recording(*args, **kwargs):
        fock = build(*args, **kwargs)
        built.append(weakref.ref(fock))
        return fock

    def checking(*args, **kwargs):
        others.append(sum("matrices" in vars(ref()) for ref in built if ref() is not None))
        return exchange(*args, **kwargs)

    monkeypatch.setattr(scf, "fock_build", recording)
    monkeypatch.setattr(scf, "exchange_matrix", checking)
    sys = validate_system(AtomSystem(Z=10.0, N=10, alpha=ALPHA))
    report, _gamma = solve_scf(sys, SolverOptions(n=200, r_max=15.0, ell_max=1))
    assert report.converged
    # every iteration's operator and the final one built their matrices
    assert len(others) >= 2 * (report.iterations + 1)
    assert max(others) == 0


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
    assert minimizer_certificate(report.fock).passed


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
    assert report.fock.levels == fresh.levels
    # the table asks the occupied spin for its orbital plus one, the empty spin for one
    assert [(block, rtol) for block, *_, rtol in fresh.eigensolves] == [
        (2, scf.LOBPCG_LEVEL_RTOL), (1, scf.LOBPCG_LEVEL_RTOL)]
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
        (lv.ell, lv.spin, lv.index): lv.value / sol.sys.alpha
        for lv in sol.report.fock.levels if lv.occupation > 0.5
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
    nxt, step = oda_step(he_small.fock, e_gamma)
    e0 = e_gamma.total
    assert abs(step.energy.total - e0) <= 1e-12 * (1.0 + abs(e0))
    assert step.t <= 1e-5 or abs(step.a) <= 1e-12 * (1 + abs(e0))


def test_oda_first_step_descends(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    gamma0 = aufbau_projection(bare, sys.N)
    e0 = total_energy(gamma0, grid200, sys)
    nxt, step = oda_step(fock_build(gamma0, grid200, sys, ell_max=0), e0)
    assert step.energy.total < e0.total


def test_oda_step_raises_when_the_energy_rises(grid200):
    """Descent is monotone by construction: a step that ends above e_gamma raises.

    The first He step from the h0 density, given an e_gamma 1 Ha below its
    true energy, ends between the two and so above it.
    """
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    gamma0 = aufbau_projection(fock_build(DensityMatrix({}), grid200, sys, ell_max=0), sys.N)
    fock = fock_build(gamma0, grid200, sys, ell_max=0)
    e0 = total_energy(gamma0, grid200, sys)
    with pytest.raises(LineSearchFailure, match="energy rose"):
        oda_step(fock, replace(e0, total=e0.total - 1.0))


def test_fill_raises_when_the_levels_cannot_hold_every_electron():
    """Two electrons over one s level: EigFailure, not a density of one electron."""
    spectra = {(0, 0): (np.array([-1.0]), np.zeros((16, 1)))}
    assert scf._fill(spectra, 1.0) == {(0, 0): [(0, 1.0)]}
    with pytest.raises(EigFailure, match="not enough levels computed"):
        scf._fill(spectra, 2.0)


def _scf_private_reads(source: str) -> set:
    """The underscore names of scf that a module's source imports or reads as attributes."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    tree = ast.parse(source)
    modules, found = {"prhf.scf"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "scf":     # from .scf / prhf.scf import
                found |= {a.name for a in node.names if private(a.name)}
            elif node.module in (None, "prhf"):                 # from . / prhf import scf
                modules |= {a.asname or a.name for a in node.names if a.name == "scf"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "prhf.scf" and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            if ast.unparse(node.value) in modules:
                found.add(node.attr)
    return found


def test_no_module_but_scf_reads_a_private_name_of_scf():
    """Which levels a channel reports, their order and their overlaps stay behind scf:
    no other module of prhf imports or reads an underscore name of scf."""
    assert _scf_private_reads(
        "from .scf import FockOperator, _a\nfrom . import scf as s\ns._b(s.__name__)\n"
        "import prhf.scf\nprhf.scf._c\nfrom prhf.scf import _d\n") == {"_a", "_b", "_c", "_d"}
    package = Path(scf.__file__).parent
    reads = {path.name: _scf_private_reads(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "scf.py"}
    assert "analysis.py" in reads and "cli.py" in reads
    assert {name: found for name, found in reads.items() if found} == {}


def test_oda_tstar_matches_scan(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid200, sys, ell_max=0)
    gamma0 = aufbau_projection(bare, sys.N)
    fock0 = fock_build(gamma0, grid200, sys, ell_max=0)
    trial = aufbau_projection(fock0, sys.N)
    _, step = oda_step(fock0, total_energy(gamma0, grid200, sys))
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
        gamma, step = oda_step(fock_build(gamma, grid200, sys, ell_max=0), e_gamma)
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
    eps1 = min(lv.value for lv in report.fock.levels if lv.occupation > 0.5)
    assert eps1 / 1e-3 == pytest.approx(-0.5, rel=1e-3)


def test_nonrelativistic_helium_reaches_the_hartree_fock_limit():
    """An external anchor: under the nonrelativistic law the model is plain
    HF, whose helium limit is -2.8616799956 Ha (Bunge, Barrientos and Bunge,
    At. Data Nucl. Data Tables 53 (1993) 113). The grid error is O(h^2) with
    an h^4 term next, so two Richardson levels over three halvings of h
    remove both."""
    sys = validate_system(AtomSystem(Z=2.0, N=2, alpha=ALPHA, kinetic="nonrelativistic"))
    energies = []
    for n in (599, 1199, 2399):         # h = r_max / (n + 1) halves each time
        opts = SolverOptions(n=n, r_max=20.0, tol_energy=1e-12, tol_commutator=1e-8)
        report, _ = solve_scf(sys, opts)
        assert report.converged
        energies.append(report.energy.total)
    e0, e1, e2 = energies
    assert 3.9 <= (e1 - e0) / (e2 - e1) <= 4.1
    r0, r1 = (4.0 * e1 - e0) / 3.0, (4.0 * e2 - e1) / 3.0
    limit = (16.0 * r1 - r0) / 15.0
    assert limit == pytest.approx(-2.8616799956, abs=1e-8)


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
    report = info.value.report
    assert report is not None
    assert report.fock.gamma is not None
    assert not report.converged
    # the unconverged solve's orbitals are written from the report's
    # operator, whose density is the one the report describes
    assert [tuple(o.values()) for o in report.as_dict()["occupations"]] == list(
        report.fock.gamma.occupation_list())


def test_solve_anion_regime_flag(grid200):
    sys = validate_system(AtomSystem(Z=1.0, N=2, alpha=ALPHA))
    opts = SolverOptions(n=grid200.n, r_max=grid200.r_max, max_iter=300)
    try:
        report, _ = solve_scf(sys, opts)
    except NotConverged as exc:
        report = exc.report
    assert report.as_dict()["anion_regime"]


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
    occupations = report.as_dict()["occupations"]
    occ = {(o["ell"], o["spin"]): 0.0 for o in occupations}
    for o in occupations:
        occ[(o["ell"], o["spin"])] += o["f"]
    assert occ == {(0, 0): 2.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 3.0}
    assert minimizer_certificate(report.fock).passed


def test_solve_boron_open_shell_is_honestly_fractional():
    """An open 2p shell has lambda = 1/3 in the central-field class; the
    purification clause reports it rather than hiding it."""
    from prhf import minimizer_certificate

    sys = validate_system(AtomSystem(Z=5.0, N=5, alpha=ALPHA))
    opts = SolverOptions(n=400, r_max=16.0, ell_max=1, max_iter=300)
    report, gamma = solve_scf(sys, opts)
    assert report.converged
    assert gamma.max_impurity() == pytest.approx(1.0 / 3.0, abs=1e-9)
    cert = minimizer_certificate(report.fock)
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
        gamma, step = oda_step(fock_build(gamma, grid, sys, ell_max=opts.ell_max), e_gamma)
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


# (Z, N, n, r_max) of the small s-shell atoms solved from every initial guess
_GUESS_ATOMS = {"he": (2.0, 2, 300, 15.0), "li": (3.0, 3, 300, 15.0), "be": (4.0, 4, 400, 20.0)}


@functools.lru_cache(maxsize=None)
def _solve_from(name, guess):
    Z, N, n, r_max = _GUESS_ATOMS[name]
    sys = validate_system(AtomSystem(Z=Z, N=N, alpha=ALPHA))
    return solve_scf(sys, SolverOptions(n=n, r_max=r_max, initial_guess=guess))


@pytest.mark.parametrize("guess", ["h0", "screened", "shells"])
@pytest.mark.parametrize("name", sorted(_GUESS_ATOMS))
def test_every_initial_guess_reaches_the_h0_minimizer(name, guess):
    """The screened and shell seeds converge, certify and land on the h0 guess's total."""
    report, gamma = _solve_from(name, guess)
    assert report.converged
    cert = minimizer_certificate(report.fock)
    assert cert.passed, cert.clauses
    assert abs(report.energy.total - _solve_from(name, "h0")[0].energy.total) <= 1e-9


def _bytes_spin_groups(gamma, q):
    """Spin groups from the bytes of every block, as they were formed before blocks were shared."""
    groups = {}
    for spin in range(q):
        key = tuple(
            (ell, blk.orbitals.shape, blk.occupations.tobytes(), blk.orbitals.tobytes())
            for (ell, s), blk in gamma.blocks.items() if s == spin
        )
        groups.setdefault(key, []).append(spin)
    return list(groups.values())


def _defeat_partner_sharing(mp):
    """Every density holds a distinct copy of each block; spin groups still form by bytes.

    The copies keep their memory layout: BLAS products of C- and
    F-ordered orbitals differ in their last bits.
    """
    mp.setattr(coulomb, "_share_partners", lambda blocks: {
        key: ChannelBlock(blk.orbitals.copy(order="K"), blk.occupations.copy(order="K"))
        for key, blk in blocks.items()
    })
    mp.setattr(scf, "_spin_groups", _bytes_spin_groups)


# (Z, N, r_max, ell_max) of the partner-sharing oracle, all at n = 200
_PARTNER_ATOMS = {
    "he": (2.0, 2, 15.0, 0), "he_p": (2.0, 2, 15.0, 1), "li": (3.0, 3, 20.0, 0),
    "be": (4.0, 4, 20.0, 0), "ne": (10.0, 10, 15.0, 1),
}


@pytest.mark.parametrize("name", sorted(_PARTNER_ATOMS))
def test_partner_sharing_keeps_every_bit(name):
    """A solve with shared spin partners equals, bit for bit, one that keeps a copy per spin."""
    Z, N, r_max, ell_max = _PARTNER_ATOMS[name]
    sys = validate_system(AtomSystem(Z=Z, N=N, alpha=ALPHA))
    options = SolverOptions(n=200, r_max=r_max, ell_max=ell_max)
    runs = []
    for defeat in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if defeat:
                _defeat_partner_sharing(mp)
            runs.append(solve_scf(sys, options))
    (shared, gamma), (separate, gamma_sep) = runs
    assert gamma_sep.owner == {key: key for key in gamma_sep.blocks}
    if N % 2 == 0 and name != "ne":
        assert gamma.blocks[(0, 1)] is gamma.blocks[(0, 0)]
    for field_ in ("energy_trace", "steps", "iterations",
                   "commutator_residual", "max_orbital_residual", "eigensolves"):
        assert getattr(shared, field_) == getattr(separate, field_), field_
    assert shared.fock.levels == separate.fock.levels
    assert shared.as_dict()["occupations"] == separate.as_dict()["occupations"]
    assert list(gamma.blocks) == list(gamma_sep.blocks)
    for key, blk in gamma.blocks.items():
        other = gamma_sep.blocks[key]
        assert blk.orbitals.tobytes() == other.orbitals.tobytes()
        assert blk.occupations.tobytes() == other.occupations.tobytes()


def _count_work(mp, counts):
    """Count DST-I calls, exchange applies, and F applied to a block of its own density.

    An apply to its own block counts under (the operator's number in order
    of first apply, its spin group).
    """
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    mp.setattr(radial, "dst", counted("dst", radial.dst))
    mp.setattr(scf, "dst", counted("dst", scf.dst))
    mp.setattr(scf, "exchange_apply", counted("exchange_apply", scf.exchange_apply))
    apply, operators = scf.FockOperator.apply, []

    def spied(fock, key, X):
        blk = fock.gamma.blocks.get(key)
        if blk is not None and X is blk.orbitals:
            if not any(f is fock for f in operators):
                operators.append(fock)
            number = next(i for i, f in enumerate(operators) if f is fock)
            counts[(number, fock.group(key))] += 1
        return apply(fock, key, X)

    mp.setattr(scf.FockOperator, "apply", spied)


def test_helium_solve_counts_its_work():
    """He at n = 200: F meets each spin group's own block once per operator, and the counts repeat.

    Every operator applies itself to its own blocks once, for the
    residual and the gamma side of the line search alike. Against a solve
    that keeps a copy per spin, sharing saves per iteration the second
    spin's own apply and its trial apply, and at the end its own apply,
    each one exchange apply and one kinetic DST-I pair, and a kinetic
    DST-I pair per energy evaluation; the LOBPCG work is the same.
    """
    sys = validate_system(AtomSystem(Z=2.0, N=2, alpha=ALPHA))
    options = SolverOptions(n=200, r_max=15.0)
    tallies, reports = [], []
    for defeat in (False, False, True):
        counts = collections.Counter()
        with pytest.MonkeyPatch.context() as mp:
            if defeat:
                _defeat_partner_sharing(mp)
            _count_work(mp, counts)
            reports.append(solve_scf(sys, options)[0])
        tallies.append(counts)
    shared, again, separate = tallies
    assert shared == again
    its = reports[0].iterations
    # one spin group, applied once in every operator (each iteration's and
    # the final one), where the copies take one apply per spin
    own = {(i, 0): 1 for i in range(its + 1)}
    assert {k: v for k, v in shared.items() if isinstance(k, tuple)} == own
    assert {k: v for k, v in separate.items() if isinstance(k, tuple)} == {k: 2 for k in own}
    assert reports[2].eigensolves == reports[0].eigensolves
    saved = 2 * its + 1
    energies = 1 + its + sum(0.0 < step["t"] < 1.0 for step in reports[0].steps)
    assert separate["exchange_apply"] - shared["exchange_apply"] == saved
    assert separate["dst"] - shared["dst"] == 2 * saved + 2 * energies


def test_diverged_lobpcg_falls_back_to_dense_without_overflow():
    """A LOBPCG solve that stalls stops early, falls back to dense eigh, and does not warn.

    Z = 9, N = 8, n = 148, 12 levels of the h0 fill's operator: the worst
    residual bottoms out at iteration 21, above the tolerance, and then
    grows, and the Ritz values grow past any Rayleigh quotient of the
    operator. The divergence stop (LOBPCG_DIVERGED times the norm bound)
    ended it at iteration 67, where it ran all LOBPCG_MAXITER iterations
    to Ritz values near 1e161; the stall stop (`eigen.STALL_APPLIES`)
    ends it at iteration 36.
    """
    sys = AtomSystem(Z=9.0, N=8.0, alpha=ALPHA, q=2)
    grid = build_grid(148, 10.0)
    fock = fock_build(DensityMatrix({}), grid, sys, ell_max=0)
    fock = fock_build(aufbau_projection(fock, sys.N), grid, sys, ell_max=0)
    vals, vecs = scf._group_levels(fock, 0, [0, 1], _levels_needed(sys.N), scf.LOBPCG_RTOL)
    _k, its, _warm, fell_back, _rtol = fock.eigensolves[-1]
    assert fell_back and its <= 36
    dense, dvecs = _dst_dense_levels(fock, (0, 0), 12)
    assert np.array_equal(vals, dense)
    assert np.array_equal(vecs, dvecs / np.sqrt(grid.h))
    _assert_matches_node_space_eigh(fock, (0, 0), dense, dvecs)
