"""prhf.eigen: an algorithm that knows no grid, and its first channel beyond ell = 0."""

import ast
from pathlib import Path

import numpy as np
import pytest

from prhf import AtomSystem, DensityMatrix, SolverOptions, fock_build, solve_scf, validate_system
from prhf import eigen, lapack, radial, scf

ALPHA = 1.0 / 137.036


def test_eigen_knows_no_grid_channel_or_fock_operator():
    """At module level eigen.py imports math and numpy alone; `lapack` only inside `dense`;
    and it names no RadialGrid, dst or FockOperator."""
    tree = ast.parse(Path(eigen.__file__).read_text())
    top = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            top |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            top.add("." * node.level + (node.module or ""))
    assert top == {"math", "numpy"}
    inner = [(fn.name, ast.unparse(node)) for fn in tree.body if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == [("dense", "from . import lapack")]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"RadialGrid", "dst", "FockOperator", "radial", "scf", "coulomb"}


@pytest.fixture(scope="module")
def neon_p():
    """Converged neon (n = 263, r_max 15, ell_max 1): its final operator."""
    sys = validate_system(AtomSystem(Z=10.0, N=10, alpha=ALPHA))
    report, _gamma = solve_scf(sys, SolverOptions(n=263, r_max=15.0, ell_max=1))
    assert report.converged
    return report.fock


@pytest.mark.parametrize("start", ["warm", "cold"])
@pytest.mark.parametrize("k", [2, 4])
def test_lobpcg_on_neons_p_channel_matches_syevr(neon_p, k, start):
    """LOBPCG on neon's dense p-channel matrix, in DST-I coordinates, with the ell = 0
    kinetic symbol plus the ell = 1 centrifugal term as its Ritz-shifted preconditioner:
    the levels agree with `lapack.syevr` to 1e-12 in operator units, warm or cold.

    The centrifugal term is the DST-I diagonal of 2 / r^2, added to the Laplacian
    symbol before the kinetic law. Warm starts from neon's 2p orbital and
    hydrogenic seeds (`scf._start_block`), cold from the seeds alone.
    """
    fock, key = neon_p, (1, 0)
    grid = fock.grid
    H = fock.matrices[key]
    S = radial.dst(np.eye(grid.n))           # orthonormal and its own inverse
    A = S @ H @ S
    A = 0.5 * (A + A.T)
    centrifugal = (S**2).T @ (2.0 / grid.nodes**2)
    symbol = fock.kinetic[1].evaluate(radial.laplacian_symbol(grid) + centrifugal)
    norm = symbol.max() + np.abs(fock.potential).max()
    tol = scf.LOBPCG_RTOL * norm

    def precondition(R, theta):
        return R / (symbol + np.maximum(-theta, 0.0)[:, None])

    owner = fock if start == "warm" else fock_build(DensityMatrix({}), grid, fock.system, ell_max=1)
    warm, Y0 = scf._start_block(owner, key, k)
    assert warm == (start == "warm")
    vals, X, its = eigen.lobpcg(lambda Y: A @ Y, precondition, Y0, tol, scf.LOBPCG_MAXITER)
    ref, ref_vecs = lapack.syevr(H, k)
    assert 0 < its <= 30
    assert np.max(np.abs(vals - ref)) <= 1e-12
    assert np.max(np.linalg.norm(A @ X - X * vals, axis=0)) <= scf.LOBPCG_SLACK * tol
    # the spans agree: the projectors onto them coincide
    V = S @ X
    assert np.max(np.abs(V @ V.T - ref_vecs @ ref_vecs.T)) <= 1e-10


@pytest.mark.parametrize("case", ["random", "zero", "nan", "inf"])
def test_one_column_start_is_its_rayleigh_quotient_bit_for_bit(case, rng):
    """With maxiter 0 a one-column solve returns the Rayleigh quotient of the
    orthonormalized start and that start, the bits the start's own formula gives:
    the 1 x 1 eigh returns its entry and [[1.0]]."""
    n = 40
    A = rng.standard_normal((n, n))
    A = {"random": A + A.T, "zero": np.zeros((n, n)),
         "nan": np.full((n, n), np.nan), "inf": np.diag(np.full(n, np.inf))}[case]
    X0 = rng.standard_normal((n, 1))

    def apply(Y):
        return A @ Y

    with np.errstate(invalid="ignore"):
        vals, X, its = eigen.lobpcg(apply, lambda R, theta: R, X0, 1e-12, 0)
        start = eigen._orthonormalize(X0.T)[0]
        quotient = (start @ np.ascontiguousarray(apply(np.ascontiguousarray(start.T)).T).T)[0]
    assert its == 0
    assert vals.shape == (1,) and vals.tobytes() == quotient.tobytes()
    assert X.shape == (n, 1) and X.tobytes() == start.T.tobytes()
