"""Radial discretization and spectral matrix functions.

Everything lives on a uniform grid r_i = i*h, i = 1..n, h = r_max/(n+1),
with Dirichlet values pinned to zero at r = 0 and r = r_max. Reduced
radial functions P(r) = r*phi(r) are stored as plain vectors on the
nodes; integrals are h-weighted sums (rectangle and trapezoid coincide
under the Dirichlet endpoints).

The kinetic operator sqrt(-d^2/dr^2 + ell(ell+1)/r^2 + alpha^-2) - alpha^-1
is a function of the tridiagonal channel Laplacian. On ell = 0 the
DST-I diagonalizes that Laplacian exactly, so the operator is applied
in O(n log n) from its symbol. The dense matrix is realized spectrally
from the Laplacian's eigendecomposition, only when first asked for;
eigenvector bases are cached per (n, r_max, ell) and reused across
alpha values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.linalg

from .errors import BadGrid, EigFailure, LengthMismatch


@dataclass(frozen=True)
class RadialGrid:
    """Uniform Dirichlet grid on (0, r_max)."""

    n: int
    r_max: float
    h: float = field(init=False, compare=False)
    nodes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        h = self.r_max / (self.n + 1)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", h * np.arange(1, self.n + 1))

    def __hash__(self):
        return hash((self.n, self.r_max))


def build_grid(n: int, r_max: float) -> RadialGrid:
    if n < 16:
        raise BadGrid(f"grid size n={n} below minimum 16")
    if not np.isfinite(r_max) or r_max <= 0:
        raise BadGrid(f"box radius r_max={r_max} must be positive and finite")
    return RadialGrid(n=int(n), r_max=float(r_max))


def integrate(grid: RadialGrid, values) -> float:
    values = np.asarray(values)
    if values.shape[-1] != grid.n:
        raise LengthMismatch(f"expected {grid.n} node values, got {values.shape[-1]}")
    return float(grid.h * values.sum(axis=-1))


def inner(grid: RadialGrid, a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != (grid.n,) or b.shape != (grid.n,):
        raise LengthMismatch("inner() arguments must be node vectors")
    return float(grid.h * (a @ b))


class ChannelOperator:
    """Dense symmetric operator on one angular channel.

    The eigendecomposition is computed on first use and then shared
    read-only.
    """

    def __init__(self, ell: int, matrix: np.ndarray):
        self.ell = int(ell)
        self.matrix = matrix
        self._eig = None

    def eigensystem(self):
        """Return (eigenvalues ascending, orthonormal eigenvector columns)."""
        if self._eig is None:
            try:
                self._eig = scipy.linalg.eigh(self.matrix)
            except scipy.linalg.LinAlgError as exc:  # pragma: no cover
                raise EigFailure(str(exc)) from exc
        return self._eig

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def channel_laplacian(grid: RadialGrid, ell: int) -> ChannelOperator:
    """-d^2/dr^2 + ell(ell+1)/r^2 with Dirichlet ends, second-order stencil."""
    if ell < 0:
        raise BadGrid(f"angular momentum ell={ell} must be non-negative")
    n, h, r = grid.n, grid.h, grid.nodes
    mat = np.zeros((n, n))
    idx = np.arange(n)
    mat[idx, idx] = 2.0 / h**2 + ell * (ell + 1) / r**2
    mat[idx[:-1], idx[:-1] + 1] = -1.0 / h**2
    mat[idx[:-1] + 1, idx[:-1]] = -1.0 / h**2
    return ChannelOperator(ell, mat)


def spectral_function(op: ChannelOperator, f) -> ChannelOperator:
    """Apply a scalar function to a symmetric operator through its spectrum."""
    vals, vecs = op.eigensystem()
    fvals = np.asarray(f(vals), dtype=float)
    if not np.all(np.isfinite(fvals)):
        raise EigFailure("scalar function produced non-finite values on the spectrum")
    out = (vecs * fvals) @ vecs.T
    out = 0.5 * (out + out.T)
    result = ChannelOperator(op.ell, out)
    order = np.argsort(fvals, kind="stable")
    result._eig = (fvals[order], vecs[:, order])
    return result


def laplacian_symbol(grid: RadialGrid) -> np.ndarray:
    """Eigenvalues of the ell = 0 channel Laplacian in DST-I mode order.

    (2/h sin(j pi / (2(n+1))))^2 for j = 1..n, ascending; mode j is
    sin(i j pi / (n+1)), the j-th DST-I basis vector.
    """
    j = np.arange(1, grid.n + 1)
    return (2.0 / grid.h * np.sin(j * np.pi / (2 * (grid.n + 1)))) ** 2


def dst(X: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of node vectors (one vector, or columns); its own inverse."""
    return scipy.fft.dst(X, type=1, norm="ortho", axis=0)


class KineticOperator:
    """A scalar function f of one channel Laplacian L_ell.

    `apply` multiplies node vectors by f(L_ell): on ell = 0 through the
    DST-I symbol with no n x n matrix, otherwise through the dense
    matrix. The dense operator (`matrix`, `eigensystem()`) is built on
    first use only.
    """

    def __init__(self, grid: RadialGrid, ell: int, f, dense):
        self.grid = grid
        self.ell = int(ell)
        self._f = f
        self._build_dense = dense

    @functools.cached_property
    def dense(self) -> ChannelOperator:
        return self._build_dense()

    @property
    def matrix(self) -> np.ndarray:
        return self.dense.matrix

    def eigensystem(self):
        return self.dense.eigensystem()

    @functools.cached_property
    def symbol(self) -> np.ndarray:
        """f at the ell = 0 Laplacian eigenvalues, in DST-I mode order."""
        if self.ell != 0:
            raise BadGrid(f"no DST-I symbol on channel ell={self.ell}")
        return np.asarray(self._f(laplacian_symbol(self.grid)), dtype=float)

    def apply(self, X: np.ndarray) -> np.ndarray:
        if self.ell != 0:
            return self.matrix @ X
        coef = dst(X)
        coef *= self.symbol if coef.ndim == 1 else self.symbol[:, None]
        return dst(coef)


# caches keyed on the grid, which hashes and compares on (n, r_max)
@functools.lru_cache(maxsize=8)
def _cached_laplacian(grid: RadialGrid, ell: int) -> ChannelOperator:
    op = channel_laplacian(grid, ell)
    op.eigensystem()
    return op


@functools.lru_cache(maxsize=12)
def kinetic_operator(grid: RadialGrid, ell: int, alpha: float) -> KineticOperator:
    """T_ell = sqrt(L_ell + alpha^-2) - alpha^-1; cached, dense form built on first use."""
    if alpha <= 0:
        raise BadGrid(f"alpha={alpha} must be positive")
    ainv = 1.0 / alpha

    def f(lam):
        return np.sqrt(lam + ainv**2) - ainv

    return KineticOperator(
        grid, ell, f, lambda: spectral_function(_cached_laplacian(grid, ell), f)
    )


def nonrelativistic_kinetic(grid: RadialGrid, ell: int, alpha: float) -> KineticOperator:
    """alpha*L_ell/2; comparison operator satisfying T_ell <= alpha*L_ell/2."""

    def dense():
        lap = _cached_laplacian(grid, ell)
        op = ChannelOperator(ell, 0.5 * alpha * lap.matrix)
        if lap._eig is not None:
            vals, vecs = lap._eig
            op._eig = (0.5 * alpha * vals, vecs)
        return op

    return KineticOperator(grid, ell, lambda lam: 0.5 * alpha * lam, dense)


def channel_kinetic(
    grid: RadialGrid, ell: int, alpha: float, kinetic: str = "pseudorelativistic"
) -> KineticOperator:
    """The kinetic operator of one channel for a `kinetic` mode of the solver."""
    if kinetic == "nonrelativistic":
        return nonrelativistic_kinetic(grid, ell, alpha)
    return kinetic_operator(grid, ell, alpha)
