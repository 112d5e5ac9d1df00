"""prhf.lapack against scipy.linalg, its oracle: the same LAPACK calls, bit for bit."""

import types

import numpy as np
import pytest
import scipy.linalg

from prhf import AtomSystem, DensityMatrix, EigFailure, aufbau_projection, build_grid, fock_build
from prhf import eigen, lapack, radial, scf
from prhf.radial import _laplacian_bands

ALPHA = 1.0 / 137.036


def _assert_same(ours, ref):
    """Equal bits, dtype and layout: layout steers later BLAS calls, so it must match too."""
    for a, b in zip(ours, ref):
        assert a.dtype == b.dtype == np.float64
        assert a.shape == b.shape and np.array_equal(a, b)
        assert a.flags.f_contiguous == b.flags.f_contiguous


@pytest.mark.parametrize("n", [50, 200, 800])
def test_syevr_is_scipy_eigh_on_random_symmetric_matrices(n, rng):
    A = rng.standard_normal((n, n))
    H = A + A.T
    before = H.copy()
    for k in (1, 14, n):
        _assert_same(lapack.syevr(H, k), scipy.linalg.eigh(H, subset_by_index=(0, k - 1)))
    assert np.array_equal(H, before)


def test_syevr_reads_the_lower_triangle_as_scipy_does(rng):
    """On a matrix that is not symmetric both read the same (lower) triangle."""
    H = rng.standard_normal((60, 60))
    _assert_same(lapack.syevr(H, 5), scipy.linalg.eigh(H, subset_by_index=(0, 4)))


def test_syevr_is_scipy_eigh_on_neons_first_fock_matrices():
    """Neon's bare operator and its first Fock operator (n = 120, ell_max 1), every channel."""
    grid = build_grid(120, 15.0)
    sys = AtomSystem(Z=10.0, N=10, alpha=ALPHA)
    bare = fock_build(DensityMatrix({}), grid, sys, ell_max=1)
    first = fock_build(aufbau_projection(bare, sys.N), grid, sys, ell_max=1)
    k = scf._levels_needed(sys.N)
    for fock in (bare, first):
        for H in fock.matrices.values():
            for kk in (1, k):
                _assert_same(lapack.syevr(H, kk), scipy.linalg.eigh(H, subset_by_index=(0, kk - 1)))


@pytest.mark.parametrize("n", [50, 263, 800, 1600])
def test_stemr_is_scipy_eigh_tridiagonal_on_the_channel_laplacians(n):
    grid = build_grid(n, 15.0)
    for ell in range(4):
        d, e = _laplacian_bands(grid, ell)
        ref = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")
        _assert_same(lapack.stemr(d, e), ref)


def test_non_finite_input_raises_eig_failure():
    H = np.eye(20)
    H[3, 2] = np.nan
    with pytest.raises(EigFailure, match="infs or NaNs"):
        lapack.syevr(H, 2)
    with pytest.raises(EigFailure, match="infs or NaNs"):
        eigen.dense(H, 2)
    d, e = _laplacian_bands(build_grid(20, 5.0), 1)
    e[4] = np.inf
    with pytest.raises(EigFailure, match="infs or NaNs"):
        lapack.stemr(d, e)


def test_shapes_are_checked_before_any_pointer_is_passed():
    """A non-square matrix, a k out of 1..n or mismatched bands never reach LAPACK."""
    with pytest.raises(ValueError, match="square"):
        lapack.syevr(np.eye(6)[:, :5], 2)
    for k in (0, 7):
        with pytest.raises(ValueError, match="1 <= k <= n"):
            lapack.syevr(np.eye(6), k)
    with pytest.raises(ValueError, match="lengths n and n - 1"):
        lapack.stemr(np.ones(6), np.ones(6))
    with pytest.raises(ValueError, match="lengths n and n - 1"):
        lapack.stemr(np.ones((6, 1)), np.ones(5))


def test_nonzero_info_and_missing_levels_raise_eig_failure():
    with pytest.raises(EigFailure, match="info=2"):
        lapack._checked("dsyevr", lapack._INT(2), lapack._INT(5), 5)
    with pytest.raises(EigFailure, match="returned 4 of the 5 levels"):
        lapack._checked("dsyevr", lapack._INT(0), lapack._INT(4), 5)
    lapack._checked("dsyevr", lapack._INT(0), lapack._INT(5), 5)


def test_a_lapack_without_the_routines_raises_eig_failure_at_first_dense_use(monkeypatch):
    """A library exporting neither name of a routine fails the dense path with EigFailure, naming it."""
    monkeypatch.setattr(lapack, "_library", lambda: types.SimpleNamespace())
    with pytest.raises(EigFailure, match="no 64-bit dsyevr"):
        eigen.dense(np.eye(8), 2)
    with pytest.raises(EigFailure, match="no 64-bit dstemr"):
        radial.spectral_function(build_grid(50, 5.0), 1, np.sqrt)

