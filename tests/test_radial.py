import ast
import collections
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from prhf import (
    AtomSystem,
    BadGrid,
    LengthMismatch,
    build_grid,
    channel_laplacian,
    inner,
    integrate,
    kinetic_operator,
    spectral_function,
)
from prhf.coulomb import hartree_potential, slater_yk
from prhf.radial import (
    _rader_plan, column_inner, dst, from_unit, gram, laplacian_symbol, sweeps, to_unit,
)

ALPHA = 1.0 / 137.036


def test_grid_nodes_formula():
    grid = build_grid(19, 20.0)
    assert grid.h == pytest.approx(1.0)
    assert np.allclose(grid.nodes, np.arange(1, 20, dtype=float))


def test_grid_large():
    grid = build_grid(1000, 40.0)
    assert grid.h == pytest.approx(40.0 / 1001.0)
    assert grid.nodes[0] == pytest.approx(grid.h)
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[-1] < grid.r_max


def test_grid_rejects_bad_sizes():
    with pytest.raises(BadGrid):
        build_grid(0, 1.0)
    with pytest.raises(BadGrid):
        build_grid(3, 4.0)
    with pytest.raises(BadGrid):
        build_grid(100, -2.0)


def test_integrate_ones():
    grid = build_grid(19, 20.0)
    assert integrate(grid, np.ones(19)) == pytest.approx(19.0)
    with pytest.raises(LengthMismatch):
        integrate(grid, np.ones(7))


def test_integrate_sine_squared():
    grid = build_grid(2000, 13.0)
    vals = np.sin(np.pi * grid.nodes / grid.r_max) ** 2
    assert integrate(grid, vals) == pytest.approx(grid.r_max / 2.0, abs=1e-6)


# the quadrature helpers against the inline expressions they replaced,
# bit for bit: n + 1 = 1601 is prime, 801 is not
QUADRATURE_GRIDS = [(1600, 20.0), (800, 15.0)]


def _hartree_inline(w, grid):
    r, h = grid.nodes, grid.h
    inside = np.cumsum(w) * h
    outer = np.cumsum((w / r)[::-1])[::-1] * h - (w / r) * h
    return inside / r + outer


def _slater_yk_inline(P_a, P_b, k, grid):
    h = grid.h
    rho = P_a * P_b
    r = grid.nodes.reshape((-1,) + (1,) * (rho.ndim - 1))
    inside = np.cumsum(rho * r**k, axis=0) * h
    tail = rho / r ** (k + 1)
    outer = np.cumsum(tail[::-1], axis=0)[::-1] * h - tail * h
    return inside / r**k + r ** (k + 1) * outer


@pytest.mark.parametrize("n, r_max", QUADRATURE_GRIDS)
def test_quadrature_helpers_are_the_inline_expressions(n, r_max, rng):
    grid = build_grid(n, r_max)
    h = grid.h
    x, y = rng.standard_normal((2, n))
    X, Y = rng.standard_normal((2, n, 3))
    assert integrate(grid, x) == float(h * np.sum(x)) == h * float(np.sum(x))
    assert np.array_equal(integrate(grid, X), h * np.sum(X, axis=0))
    assert inner(grid, x, y) == float(h * (x @ y))
    assert np.sqrt(inner(grid, x, x)) == np.sqrt(h * (x @ x))
    for B in (y, Y):
        assert np.array_equal(gram(grid, X, B), h * X.T @ B)
        assert np.array_equal(to_unit(grid, B), B * np.sqrt(h))
        assert np.array_equal(from_unit(grid, B), B / np.sqrt(h))
    for A, B in ((x[:, None], y[:, None]), (X, Y)):
        assert np.array_equal(column_inner(grid, A, B), h * np.einsum("ia,ia->a", A, B))


@pytest.mark.parametrize("n, r_max", QUADRATURE_GRIDS)
def test_sweeps_keep_hartree_and_yk_bits(n, r_max, rng):
    grid = build_grid(n, r_max)
    P = np.abs(rng.standard_normal(n))
    X = rng.standard_normal((n, 3))
    w = P * P
    assert np.array_equal(hartree_potential(w, grid), _hartree_inline(w, grid))
    inside, outside = sweeps(grid, w, w / grid.nodes)
    assert np.array_equal(inside / grid.nodes + outside, _hartree_inline(w, grid))
    for k in (0, 1, 2):
        for P_a, P_b in ((P, 1.0), (P, X[:, 0]), (P[:, None], X)):
            assert np.array_equal(
                slater_yk(P_a, P_b, k, grid), _slater_yk_inline(P_a, P_b, k, grid)
            )


# the sites outside radial.py that may read the grid spacing: the
# uniform-only constructions, and sums whose order no helper keeps
SPACING_READS = {
    "analysis._auto_window": 1,       # two-spacing margin of the fit window
    "analysis.kato_probe": 1,         # Parseval sum over the DST-I modes
    "cli._write_solution": 1,         # the grid record of report.json
    "coulomb.exchange_matrix": 1,     # K *= h after the term sum
    "coulomb.energy_terms": 1,        # h times each shell sum of Tr[T gamma]
    "greens.resolvent_apply": 1,      # Toeplitz/Hankel cell offsets and the reach check
    "scf.commutator_residual": 1,     # h * (C^T W), not (h C^T) W
}


def _spacing_reads(path: pathlib.Path) -> collections.Counter:
    reads: collections.Counter = collections.Counter()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        elif isinstance(node, ast.Attribute) and node.attr == "h" and isinstance(node.ctx, ast.Load):
            reads[".".join([path.stem, *scope])] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return reads


def test_only_radial_reads_the_grid_spacing():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "prhf"
    reads = collections.Counter()
    for path in sorted(src.glob("*.py")):
        if path.name != "radial.py":
            reads += _spacing_reads(path)
    assert dict(reads) == SPACING_READS


def test_inner_positive_definite(rng):
    grid = build_grid(64, 8.0)
    for _ in range(10):
        a = rng.standard_normal(64)
        assert inner(grid, a, a) > 0.0
    assert inner(grid, np.zeros(64), np.zeros(64)) == 0.0
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    assert inner(grid, a, b) == pytest.approx(inner(grid, b, a), abs=0)


def test_laplacian_structure():
    grid = build_grid(19, 20.0)
    lap = channel_laplacian(grid, 0)
    assert np.allclose(np.diag(lap), 2.0)
    assert np.allclose(np.diag(lap, 1), -1.0)
    assert np.allclose(lap, lap.T, atol=0)


def test_laplacian_spectrum_analytic():
    # Dirichlet eigenvalues of the discrete 1D Laplacian:
    # (4/h^2) sin^2(k pi / (2(n+1))), k = 1..n
    grid = build_grid(180, 9.0)
    vals, _ = scipy.linalg.eigh(channel_laplacian(grid, 0))
    k = np.arange(1, grid.n + 1)
    exact = (4.0 / grid.h**2) * np.sin(k * np.pi / (2 * (grid.n + 1))) ** 2
    assert np.allclose(np.sort(vals), np.sort(exact), rtol=1e-10)
    assert np.allclose(laplacian_symbol(grid), exact, rtol=1e-14, atol=0)


def test_dst_diagonalizes_s_laplacian():
    # the orthonormal DST-I is its own inverse and its modes are the
    # ell = 0 eigenvectors, in the order of laplacian_symbol
    grid = build_grid(180, 9.0)
    S = dst(np.eye(grid.n))
    assert np.allclose(S @ S, np.eye(grid.n), rtol=0, atol=1e-13)
    lap = channel_laplacian(grid, 0)
    D = S @ lap @ S
    sym = laplacian_symbol(grid)
    assert np.allclose(np.diag(D), sym, rtol=1e-12, atol=0)
    assert np.max(np.abs(D - np.diag(np.diag(D)))) <= 1e-12 * sym.max()


def _scipy_dst(X):
    return scipy.fft.dst(X, type=1, norm="ortho", axis=0)


# n + 1 prime: 17, 241, 401, 1201, 1601, 4801
@pytest.mark.parametrize("n", [16, 240, 400, 1200, 1600, 4800])
def test_dst_prime_length_matches_scipy(n, rng):
    base = rng.standard_normal((2 * n, 12))
    for X in (base[:n, 0], base[:n, :6].copy(), np.asfortranarray(base[:n, :6]), base[::2, 1::2]):
        ref = _scipy_dst(X)
        out = dst(X)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def _scipy_rader_dst(X):
    """`dst`'s Rader transform with scipy.fft's rfft and irfft in place of numpy.fft's."""
    n = X.shape[0]
    p, plan = n + 1, _rader_plan(n)
    kernel = np.sin(2.0 * np.pi * (plan.gather + 1)[-np.arange(n) % n] / p)
    spectrum = scipy.fft.rfft(kernel) * np.sqrt(2.0 / p)
    cols = X.reshape(n, -1)
    k = cols.shape[1]
    Z = np.empty((2, n, k))
    np.take(cols, plan.gather, axis=0, out=Z[0])
    np.multiply(Z[0], plan.signs[:, None], out=Z[1])
    F = scipy.fft.rfft(Z, axis=1)
    F *= spectrum[:, None]
    C = scipy.fft.irfft(F, n, axis=1, overwrite_x=True)
    return np.take(C.reshape(2 * n, k), plan.scatter, axis=0).reshape(X.shape)


@pytest.mark.parametrize("n", [16, 240, 400, 1200, 1600, 4800])
def test_dst_rader_on_numpy_fft_equals_scipy_fft(n, rng):
    base = rng.standard_normal((n, 6))
    for X in (base[:, 0], base, np.asfortranarray(base)):
        assert np.array_equal(dst(X), _scipy_rader_dst(X))


# n + 1 composite: 18, 120, 200, 801 = 9*89, 1501 = 19*79, 1600, 2400, 4800.
# At 120 and 2400 a scale rounded in double, not long double, is an ulp off.
@pytest.mark.parametrize("n", [17, 119, 199, 800, 1500, 1599, 2399, 4799])
def test_dst_composite_length_is_scipy(n, rng):
    base = rng.standard_normal((2 * n, 12))
    for X in (base[:n, 0], base[:n, :6].copy(), np.asfortranarray(base[:n, :6]), base[::2, 1::2]):
        out = dst(X)
        assert out.dtype == np.float64 and np.array_equal(out, _scipy_dst(X))


@pytest.mark.parametrize("n", [240, 1200, 800])
def test_dst_is_an_involution(n, rng):
    X = rng.standard_normal((n, 3))
    assert np.max(np.abs(dst(dst(X)) - X)) <= 1e-14 * np.max(np.abs(X))


def test_dst_runs_on_numpy_fft_alone(rng, monkeypatch):
    """Rader's length (n + 1 = 241 prime) and the odd extension's (240) call no scipy.fft."""
    x = rng.standard_normal(240)
    refs = [_scipy_dst(x), _scipy_dst(x[:-1])]

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.fft called")

    for name in ("dst", "rfft"):
        monkeypatch.setattr(scipy.fft, name, refuse)
    assert np.max(np.abs(dst(x) - refs[0])) <= 1e-14 * np.max(np.abs(refs[0]))
    assert np.array_equal(dst(x[:-1]), refs[1])


def test_laplacian_box_ground_state():
    grid = build_grid(2000, 10.0)
    vals, _ = scipy.linalg.eigh(channel_laplacian(grid, 0))
    assert vals[0] == pytest.approx((np.pi / grid.r_max) ** 2, rel=0.01)


def test_laplacian_centrifugal_monotone():
    grid = build_grid(120, 12.0)
    v0, _ = scipy.linalg.eigh(channel_laplacian(grid, 0))
    v1, _ = scipy.linalg.eigh(channel_laplacian(grid, 1))
    assert np.all(v1 >= v0 - 1e-9)


def test_eigensystem_reconstructs():
    grid = build_grid(90, 9.0)
    lap = channel_laplacian(grid, 2)
    vals, vecs = scipy.linalg.eigh(lap)
    rebuilt = (vecs * vals) @ vecs.T
    err = np.linalg.norm(rebuilt - lap) / np.linalg.norm(lap)
    assert err <= 1e-12


def test_spectral_function_identity():
    grid = build_grid(60, 6.0)
    lap = channel_laplacian(grid, 0)
    same = spectral_function(grid, 0, lambda x: x)
    err = np.linalg.norm(same - lap) / np.linalg.norm(lap)
    assert err <= 1e-12


def test_spectral_function_composition():
    # f(g(L)) against f applied to the matrix g(L) through its own spectrum
    grid = build_grid(60, 6.0)
    g = lambda lam: np.sqrt(lam + 4.0)
    f = lambda lam: lam**2 - lam
    direct = spectral_function(grid, 0, lambda lam: f(g(lam)))
    vals, vecs = scipy.linalg.eigh(spectral_function(grid, 0, g))
    chained = (vecs * f(vals)) @ vecs.T
    assert np.allclose(direct, chained, rtol=0, atol=1e-9 * np.abs(direct).max())


# the grids of the tridiagonal spectrum's oracle; above 800 nodes only the
# channels a p-shell atom builds (ell = 0, 1), to bound the dense eighs' time
_SPECTRUM_GRIDS = [(n, ell) for n in (148, 200, 300, 400, 599, 800) for ell in range(4)] + [
    (n, ell) for n in (1200, 1600) for ell in (0, 1)]


@pytest.mark.parametrize("n, ell", _SPECTRUM_GRIDS)
def test_spectral_function_equals_the_dense_eigh_oracle(n, ell):
    """The tridiagonal spectrum gives the bits of a dense eigh of the channel Laplacian."""
    grid = build_grid(n, 20.0)
    T = kinetic_operator(grid, ell, ALPHA)
    vals, vecs = scipy.linalg.eigh(channel_laplacian(grid, ell))
    oracle = (vecs * T.evaluate(vals)) @ vecs.T
    assert np.array_equal(spectral_function(grid, ell, T.evaluate), 0.5 * (oracle + oracle.T))


def test_spectral_sqrt_squares_back():
    grid = build_grid(80, 8.0)
    lap = channel_laplacian(grid, 1)
    root = spectral_function(grid, 1, np.sqrt)
    err = np.linalg.norm(root @ root - lap) / np.linalg.norm(lap)
    assert err <= 1e-10


def test_spectral_function_commutes():
    grid = build_grid(70, 7.0)
    lap = channel_laplacian(grid, 0)
    f_op = spectral_function(grid, 0, lambda lam: np.log1p(lam))
    comm = f_op @ lap - lap @ f_op
    scale = np.linalg.norm(lap) * np.linalg.norm(f_op)
    assert np.linalg.norm(comm) <= 1e-10 * scale


def test_kinetic_eigenvalue_map_points():
    # f(0) = 0 and f(3 alpha^-2) = alpha^-1 exactly
    ainv = 1.0 / ALPHA
    f = lambda lam: np.sqrt(lam + ainv**2) - ainv
    assert f(0.0) == pytest.approx(0.0, abs=1e-10)
    assert f(3.0 * ainv**2) == pytest.approx(ainv, rel=1e-14)


def test_kinetic_spectral_mapping():
    grid = build_grid(150, 10.0)
    ainv = 1.0 / ALPHA
    lap_vals, _ = scipy.linalg.eigh(channel_laplacian(grid, 0))
    kin_vals = scipy.linalg.eigvalsh(kinetic_operator(grid, 0, ALPHA).matrix)
    expected = np.sqrt(np.sort(lap_vals) + ainv**2) - ainv
    assert np.allclose(np.sort(kin_vals), expected, rtol=1e-10)


def test_kinetic_positive_semidefinite():
    grid = build_grid(150, 10.0)
    for ell in (0, 1, 2):
        vals = scipy.linalg.eigvalsh(kinetic_operator(grid, ell, ALPHA).matrix)
        assert vals[0] >= -1e-12 / ALPHA


def test_kinetic_monotone_in_ell():
    grid = build_grid(150, 10.0)
    mins = [
        scipy.linalg.eigvalsh(kinetic_operator(grid, ell, ALPHA).matrix)[0] for ell in (0, 1, 2)
    ]
    assert mins[1] >= mins[0] - 1e-12
    assert mins[2] >= mins[1] - 1e-12


def test_kinetic_large_alpha_expansion():
    # alpha^-2 small: T = sqrt(L) - alpha^-1 + remainder, with the remainder
    # bounded by alpha^-2 / (2 sqrt(mu)) per eigenvalue
    grid = build_grid(150, 10.0)
    alpha = 1e3
    lap_vals, _ = scipy.linalg.eigh(channel_laplacian(grid, 0))
    kin_vals = scipy.linalg.eigvalsh(kinetic_operator(grid, 0, alpha).matrix)
    mu = np.sort(lap_vals)
    rem = np.sort(kin_vals) - (np.sqrt(mu) - 1.0 / alpha)
    assert np.all(rem >= -1e-12)
    assert np.all(rem <= alpha**-2 / (2.0 * np.sqrt(mu)) + 1e-12)


def test_nonrelativistic_limit_eigenvalues():
    # alpha -> 0: alpha^-1 T -> L/2 on the lowest modes
    grid = build_grid(1500, 40.0)
    alpha = 1e-3
    lap_vals, _ = scipy.linalg.eigh(channel_laplacian(grid, 0))
    kin_vals = scipy.linalg.eigvalsh(kinetic_operator(grid, 0, alpha).matrix)
    lhs = np.sort(kin_vals)[:10] / alpha
    rhs = np.sort(lap_vals)[:10] / 2.0
    assert np.allclose(lhs, rhs, rtol=1e-3)


def test_nonrelativistic_kinetic_dominates():
    grid = build_grid(150, 10.0)
    T = kinetic_operator(grid, 0, ALPHA).matrix
    Tnr = kinetic_operator(grid, 0, ALPHA, "nonrelativistic").matrix
    vals = np.linalg.eigvalsh(Tnr - T)
    assert vals[0] >= -1e-10


def test_nonrelativistic_kinetic_is_cached():
    grid = build_grid(150, 10.0)
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA, kinetic="nonrelativistic")
    op = kinetic_operator(grid, 1, ALPHA, "nonrelativistic")
    assert kinetic_operator(build_grid(150, 10.0), 1, ALPHA, "nonrelativistic") is op
    assert kinetic_operator(grid, 1, sys.alpha, sys.kinetic) is op
    # one entry per law, whether or not the caller names the default one
    default = kinetic_operator(grid, 1, ALPHA)
    assert kinetic_operator(grid, 1, ALPHA, "pseudorelativistic") is default
    assert default is not op
    with pytest.raises(BadGrid):
        kinetic_operator(grid, 1, ALPHA, "relativistic")


@pytest.mark.parametrize("law", ["pseudorelativistic", "nonrelativistic"],
                         ids=["kinetic_operator", "nonrelativistic_kinetic"])
def test_kinetic_dst_apply_matches_dense(law, rng):
    grid = build_grid(300, 15.0)
    op = kinetic_operator(grid, 0, ALPHA, law)
    X = rng.standard_normal((grid.n, 4))
    for Y in (X, X[:, 0]):
        dense = op.matrix @ Y
        assert np.linalg.norm(op.apply(Y) - dense) <= 1e-13 * np.linalg.norm(dense)
    # T u of a smooth u is small beside |T| |u|: compare on the operator's scale
    u = grid.nodes * np.exp(-grid.nodes)
    scale = np.linalg.norm(op.matrix @ X) / np.linalg.norm(X) * np.linalg.norm(u)
    assert np.linalg.norm(op.apply(u) - op.matrix @ u) <= 1e-13 * scale


def test_kinetic_apply_refuses_the_p_channel(rng):
    # only ell = 0 has a DST-I symbol; ell >= 1 channels go through the dense matrix
    grid = build_grid(150, 10.0)
    op = kinetic_operator(grid, 1, ALPHA)
    X = rng.standard_normal((grid.n, 2))
    with pytest.raises(BadGrid):
        op.apply(X)
    with pytest.raises(BadGrid):
        op.symbol


def test_kinetic_dense_form_is_lazy_and_unchanged():
    grid = build_grid(170, 11.0)       # a grid no other test builds
    ainv = 1.0 / ALPHA
    for ell in (0, 1):
        op = kinetic_operator(grid, ell, ALPHA)
        nonrel = kinetic_operator(grid, ell, ALPHA, "nonrelativistic")
        if ell == 0:
            op.apply(grid.nodes)
            nonrel.apply(grid.nodes)
        assert "matrix" not in vars(op) and "matrix" not in vars(nonrel)
        ref = spectral_function(grid, ell, lambda lam: np.sqrt(lam + ainv**2) - ainv)
        assert np.array_equal(op.matrix, ref)
        assert np.array_equal(nonrel.matrix, 0.5 * ALPHA * channel_laplacian(grid, ell))


def test_dense_kinetic_keeps_only_its_matrix():
    # building T_ell leaves the n x n matrix behind and nothing else,
    # no eigendecomposition of the channel Laplacian
    grid = build_grid(301, 17.0)       # a grid no other test builds
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for ell in (0, 1):
            kinetic_operator(grid, ell, ALPHA).matrix
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert retained < 2.5 * grid.n**2 * 8
