"""prhf.lapack against scipy.linalg, its oracle: the same LAPACK calls, bit for bit."""

import sys
import threading
import tracemalloc
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
            assert np.array_equal(H, H.T)     # what the scf's hand-off of H.T relies on
            for kk in (1, k):
                _assert_same(lapack.syevr(H, kk), scipy.linalg.eigh(H, subset_by_index=(0, kk - 1)))


def _symmetric(n, rng):
    A = rng.standard_normal((n, n))
    return A + A.T


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 263, 800])
def test_syevr_in_place_is_the_copy_bit_for_bit(n, rng):
    """An F-contiguous H is solved in its own buffer with the bits of the copy path,
    and left with its own bits; 63 to 65 straddle the rebuild's column block."""
    H = _symmetric(n, rng)
    before = H.copy()
    for k in sorted({1, min(14, n), n}):
        _assert_same(lapack.syevr(H.T, k), lapack.syevr(H, k))
        assert np.array_equal(H.view(np.int64), before.view(np.int64))


def test_syevr_in_place_makes_no_copy(rng):
    """The in-place solve allocates far less than the n^2 copy it replaces."""
    n = 263
    H = _symmetric(n, rng)
    peaks = []
    for A in (H.T, H):
        tracemalloc.start()
        lapack.syevr(A, 14)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < 0.5 * H.nbytes < H.nbytes < peaks[1]


def test_syevr_copies_an_f_contiguous_matrix_that_is_not_symmetric(rng):
    """Only a bitwise symmetric matrix is solved in place: any other keeps its lower triangle."""
    H = np.asfortranarray(rng.standard_normal((60, 60)))
    before = H.copy(order="F")
    _assert_same(lapack.syevr(H, 5), scipy.linalg.eigh(H, subset_by_index=(0, 4)))
    assert np.array_equal(H, before)
    S = np.asfortranarray(_symmetric(60, rng))
    S[3, 7], S[7, 3] = -0.0, 0.0     # equal, but not in their bits
    _assert_same(lapack.syevr(S, 5), scipy.linalg.eigh(S, subset_by_index=(0, 4)))
    assert np.signbit(S[3, 7]) and not np.signbit(S[7, 3])


def test_a_failed_in_place_solve_still_restores_h(monkeypatch, rng):
    """LAPACK's nonzero INFO raises EigFailure after H is rebuilt."""
    H = _symmetric(100, rng)
    before = H.copy()
    real = lapack._query_then_call

    def failing(name, call, info):
        real(name, call, info)          # the factorization overwrote the lower triangle
        info.value = 7

    monkeypatch.setattr(lapack, "_query_then_call", failing)
    with pytest.raises(EigFailure, match="info=7"):
        lapack.syevr(H.T, 5)
    assert np.array_equal(H.view(np.int64), before.view(np.int64))


@pytest.mark.parametrize("blas, cores, count, workers", [
    (1, 2, 4, 2), (1, 8, 4, 4), (1, 2, 1, 1), (1, 1, 4, 1), (2, 2, 4, 1), (None, 2, 4, 1),
])
def test_solves_run_side_by_side_only_on_single_threaded_blas(monkeypatch, blas, cores, count,
                                                              workers):
    """min(solves, usable cores) threads when BLAS runs 1 thread per call; one otherwise."""
    monkeypatch.setattr(lapack, "_blas_threads", lambda: blas)
    monkeypatch.setattr(lapack, "_usable_cores", lambda: cores)
    assert lapack._workers(count) == workers


def test_numpy_blas_reports_its_threads():
    assert lapack._blas_threads() >= 1


def _refuse_threads(monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)


@pytest.mark.parametrize("blas", [2, None])
def test_multithreaded_or_unknown_blas_solves_in_the_calling_thread(monkeypatch, rng, blas):
    Hs = [_symmetric(80, rng) for _ in range(3)]
    ref = [lapack.syevr(H, 6) for H in Hs]
    monkeypatch.setattr(lapack, "_blas_threads", lambda: blas)
    _refuse_threads(monkeypatch)
    for ours, want in zip(eigen.dense([H.T for H in Hs], 6), ref):
        _assert_same(ours, want)


def test_side_by_side_solves_keep_the_input_order(monkeypatch, rng, one_blas_thread):
    """More workers than cores on eight matrices, switching threads often, for 20 rounds: each
    result is its own matrix's, in order, bit for bit; every matrix keeps its bits and every
    worker is joined."""
    Hs = [_symmetric(n, rng) for n in (120, 40, 90, 60, 1, 75, 64, 30)]
    before = [H.copy() for H in Hs]
    ref = [lapack.syevr(H, 1) for H in Hs]
    threads = threading.active_count()
    on_main = []
    solve = lapack.syevr

    def recording(H, k):
        on_main.append(threading.current_thread() is threading.main_thread())
        return solve(H, k)

    monkeypatch.setattr(lapack, "_workers", lambda count: 4)
    monkeypatch.setattr(lapack, "syevr", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rounds = [lapack.syevr_each([H.T for H in Hs], 1) for _ in range(20)]
    finally:
        sys.setswitchinterval(interval)
    for solved in rounds:
        for ours, want in zip(solved, ref):
            _assert_same(ours, want)
    for H, old in zip(Hs, before):
        assert np.array_equal(H, old)
    assert on_main == [False] * (20 * len(Hs))
    assert threading.active_count() == threads


def test_matrices_sharing_memory_are_solved_one_after_another(monkeypatch, rng):
    H = _symmetric(50, rng)
    before = H.copy()
    monkeypatch.setattr(lapack, "_workers", lambda count: 2)
    _refuse_threads(monkeypatch)
    first, second = lapack.syevr_each([H.T, H.T], 4)
    _assert_same(first, second)
    assert np.array_equal(H, before)


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
        eigen.dense([H], 2)
    d, e = _laplacian_bands(build_grid(20, 5.0), 1)
    e[4] = np.inf
    with pytest.raises(EigFailure, match="infs or NaNs"):
        lapack.stemr(d, e)


@pytest.mark.parametrize("order", ["C", "F"])
def test_finiteness_scan_holds_no_n_by_n_mask(order, rng):
    """`_finite` on an 800 x 800 matrix allocates under 0.25 n^2 bytes: a whole-matrix
    isfinite mask would take n^2. A non-finite entry in the last block still fails."""
    n = 800
    H = np.array(rng.standard_normal((n, n)), order=order)
    tracemalloc.start()
    lapack._finite("dsyevr", H)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 0.25 * n * n
    H[n - 1, n - 1] = -np.inf
    with pytest.raises(EigFailure, match="dsyevr: the input holds infs or NaNs"):
        lapack._finite("dsyevr", H)


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
        eigen.dense([np.eye(8)], 2)
    with pytest.raises(EigFailure, match="no 64-bit dstemr"):
        radial.spectral_function(build_grid(50, 5.0), 1, np.sqrt)

