"""Radial discretization and spectral matrix functions.

Everything lives on a uniform grid r_i = i*h, i = 1..n, h = r_max/(n+1),
with Dirichlet values pinned to zero at r = 0 and r = r_max. Reduced
radial functions P(r) = r*phi(r) are stored as plain vectors on the
nodes; integrals are h-weighted sums (rectangle and trapezoid coincide
under the Dirichlet endpoints). The helpers `integrate`, `inner`, `gram`,
`column_inner`, `to_unit`, `from_unit` and `sweeps` are the one home of
that rule; the few other sites that use h say why they are uniform-only.

The kinetic operator sqrt(-d^2/dr^2 + ell(ell+1)/r^2 + alpha^-2) - alpha^-1
is a function of the tridiagonal channel Laplacian. On ell = 0 the
DST-I diagonalizes that Laplacian exactly, so the operator is applied
in O(n log n) from its symbol. The dense matrix is realized spectrally
from one eigendecomposition of the Laplacian, only when first asked
for, and only the matrix is kept.

The DST-I of length n is taken by Rader's algorithm (Proc. IEEE 56
(1968) 1107) when p = n + 1 is an odd prime, as on the helium and
beryllium grids (n = 1200, 1600, 4800). For such lengths pocketfft
falls back to Bluestein's algorithm and is several times slower; Rader
turns the transform into real cyclic correlations of length n, and n is
smooth on those grids. Every other n, as on the lithium_sweep and
hydrogen_limit grids (n = 800, 1500), takes the rfft of the odd
extension of length 2(n + 1), the steps of scipy's DST-I. Both ways run
on numpy.fft's rfft and irfft, the same pocketfft as scipy's, and give
scipy's DST-I bit for bit (tested). The dense `spectral_function`
takes the Laplacian's spectrum from the LAPACK that numpy links
(`lapack.stemr`), so no solve on any grid or channel loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.fft  # loaded with the module, not on a solve's first transform

from .errors import BadGrid, EigFailure, LengthMismatch
from .model import KINETICS


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


def integrate(grid: RadialGrid, values):
    """h sum_i values_i: a float for a node vector, one per column of a node-first (n, m) block."""
    values = np.asarray(values)
    if values.shape[:1] != (grid.n,):
        raise LengthMismatch(f"expected {grid.n} node values on axis 0, got shape {values.shape}")
    total = grid.h * np.sum(values, axis=0)
    return float(total) if values.ndim == 1 else total


def inner(grid: RadialGrid, a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != (grid.n,) or b.shape != (grid.n,):
        raise LengthMismatch("inner() arguments must be node vectors")
    return float(grid.h * (a @ b))


def gram(grid: RadialGrid, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(h A^T) B: the inner products of the columns of A with the columns (or vector) B."""
    return (grid.h * A.T) @ B


def column_inner(grid: RadialGrid, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """h sum_i A_ia B_ia: the inner product of each column of A with the same column of B."""
    return grid.h * np.einsum("ia,ia->a", A, B)


def to_unit(grid: RadialGrid, X: np.ndarray) -> np.ndarray:
    """X sqrt(h): node values in coordinates where the grid inner product is the dot product."""
    return X * np.sqrt(grid.h)


def from_unit(grid: RadialGrid, Y: np.ndarray) -> np.ndarray:
    """Y / sqrt(h), the inverse of `to_unit`."""
    return Y / np.sqrt(grid.h)


def sweeps(grid: RadialGrid, inside: np.ndarray, outside: np.ndarray):
    """(h sum_{j<=i} inside_j, h sum_{j>i} outside_j) along axis 0: a min/max kernel's sweeps."""
    h = grid.h
    return np.cumsum(inside, axis=0) * h, np.cumsum(outside[::-1], axis=0)[::-1] * h - outside * h


def _laplacian_bands(grid: RadialGrid, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the tridiagonal channel Laplacian L_ell."""
    if ell < 0:
        raise BadGrid(f"angular momentum ell={ell} must be non-negative")
    h, r = grid.h, grid.nodes
    return 2.0 / h**2 + ell * (ell + 1) / r**2, np.full(grid.n - 1, -1.0 / h**2)


def channel_laplacian(grid: RadialGrid, ell: int) -> np.ndarray:
    """-d^2/dr^2 + ell(ell+1)/r^2 with Dirichlet ends, second-order stencil."""
    diag, off = _laplacian_bands(grid, ell)
    mat = np.diag(diag)
    idx = np.arange(grid.n - 1)
    mat[idx, idx + 1] = mat[idx + 1, idx] = off
    return mat


def spectral_function(grid: RadialGrid, ell: int, f) -> np.ndarray:
    """f(L_ell) as a dense symmetric matrix, through the Laplacian's spectrum.

    The spectrum comes from LAPACK's tridiagonal `dstemr` on L_ell's bands
    (`lapack.stemr`, on the LAPACK that numpy links): the same bits as a
    dense `eigh` of `channel_laplacian`, whose `dsyevr` reduces the matrix
    to that tridiagonal form first, without the O(n^3) reduction.
    """
    from . import lapack    # loaded on first dense use, so an s-only run never compiles it

    vals, vecs = lapack.stemr(*_laplacian_bands(grid, ell))
    fvals = np.asarray(f(vals), dtype=float)
    if not np.all(np.isfinite(fvals)):
        raise EigFailure("scalar function produced non-finite values on the spectrum")
    out = (vecs * fvals) @ vecs.T
    return 0.5 * (out + out.T)


def laplacian_symbol(grid: RadialGrid) -> np.ndarray:
    """Eigenvalues of the ell = 0 channel Laplacian in DST-I mode order.

    (2/h sin(j pi / (2(n+1))))^2 for j = 1..n, ascending; mode j is
    sin(i j pi / (n+1)), the j-th DST-I basis vector.
    """
    j = np.arange(1, grid.n + 1)
    return (2.0 / grid.h * np.sin(j * np.pi / (2 * (grid.n + 1)))) ** 2


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, math.isqrt(p) + 1, 2))


def _primitive_root(p: int) -> int:
    """Least generator of the multiplicative group mod the prime p."""
    m, factors, d = p - 1, [], 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return g


@dataclass(frozen=True)
class _RaderPlan:
    gather: np.ndarray      # node index of j = g^r, r = 0..n-1
    signs: np.ndarray       # (-1)^(j+1) at j = g^r
    spectrum: np.ndarray    # rfft of the kernel sin(2 pi g^-q / p), times sqrt(2/p)
    scatter: np.ndarray     # mode k -> row of the two stacked correlations


@functools.lru_cache(maxsize=8)
def _rader_plan(n: int) -> _RaderPlan | None:
    """Permutations and kernel spectrum of the length-n DST-I; None unless n + 1 is an odd prime.

    With p = n + 1 and g a primitive root mod p, write j = g^r and
    m = g^-s. An even mode k = 2m is sum_j x_j sin(2 pi j m / p); an odd
    mode k = p - 2m is the same sum over (-1)^(j+1) x_j. Both are cyclic
    correlations of length n in r with the kernel sin(2 pi g^(r-s) / p).
    """
    p = n + 1
    if not _is_odd_prime(p):
        return None
    g = _primitive_root(p)
    # g^r mod p for r = 0..n-1 by doubling; products stay below p^2
    powers = np.ones(n, dtype=np.int64)
    span, step = 1, g
    while span < n:
        m = min(span, n - span)
        powers[span:span + m] = powers[:m] * step % p
        span, step = span + m, step * step % p
    r = np.arange(n)
    kernel = np.sin(2.0 * np.pi * powers[-r % n] / p)
    log = np.empty(p, dtype=np.int64)
    log[powers] = r
    m = np.arange(1, n // 2 + 1)
    s = -log[m] % n
    scatter = np.empty(n, dtype=np.int64)
    scatter[2 * m - 1] = s              # k = 2m, from the plain correlation
    scatter[p - 2 * m - 1] = n + s      # k = p - 2m, from the signed one
    return _RaderPlan(
        gather=powers - 1,
        signs=np.where(powers % 2 == 1, 1.0, -1.0),
        spectrum=np.fft.rfft(kernel) * np.sqrt(2.0 / p),
        scatter=scatter,
    )


def dst(X: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of node vectors (one vector, or columns); its own inverse.

    Both ways run on numpy.fft, in float64. A length n with n + 1 an odd
    prime goes by Rader's algorithm, both correlations of every column in
    one rfft/irfft pair. Any other n takes -Im rfft of the odd extension
    [0, x, 0, -reverse(x)] of length 2(n + 1), scaled after the transform
    by 1/sqrt(2(n + 1)): the steps and the bits of scipy's DST-I.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    plan = _rader_plan(n)
    if plan is None:
        Z = np.zeros((2 * (n + 1),) + X.shape[1:])
        Z[1:n + 1] = X
        np.negative(X[::-1], out=Z[n + 2:])
        # rounded from long double, as pocketfft rounds its orthonormal factor
        scale = float(1 / np.sqrt(np.longdouble(2 * (n + 1))))
        return np.fft.rfft(Z, axis=0)[1:n + 1].imag * -scale
    cols = X.reshape(n, -1)
    k = cols.shape[1]
    # both correlations of each column run along the last, contiguous axis
    Z = np.empty((2, k, n))
    cols.T.take(plan.gather, axis=1, out=Z[0])
    np.multiply(Z[0], plan.signs, out=Z[1])
    F = np.fft.rfft(Z)
    F *= plan.spectrum
    C = np.fft.irfft(F, n)
    return C.transpose(0, 2, 1).reshape(2 * n, k).take(plan.scatter, axis=0).reshape(X.shape)


class KineticOperator:
    """The kinetic operator of one channel under one kinetic law.

    The law "pseudorelativistic" is T_ell = sqrt(L_ell + alpha^-2) - alpha^-1,
    the law "nonrelativistic" the comparison operator alpha*L_ell/2, with
    T_ell <= alpha*L_ell/2. `apply` multiplies node vectors by the
    operator on ell = 0 through the uniform grid's DST-I symbol, with no
    n x n matrix; on ell >= 1 it raises BadGrid, because L_ell has no
    DST-I symbol there. The dense `matrix` is built on first use only.
    """

    def __init__(self, grid: RadialGrid, ell: int, alpha: float, law: str):
        if alpha <= 0:
            raise BadGrid(f"alpha={alpha} must be positive")
        if law not in KINETICS:
            raise BadGrid(f"unknown kinetic law {law!r}")
        self.grid = grid
        self.ell = int(ell)
        self.alpha = alpha
        self.law = law

    def evaluate(self, lam):
        """The law as a scalar function of Laplacian eigenvalues lam."""
        if self.law == "nonrelativistic":
            return 0.5 * self.alpha * lam
        ainv = 1.0 / self.alpha
        return np.sqrt(lam + ainv**2) - ainv

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        if self.law == "nonrelativistic":
            return 0.5 * self.alpha * channel_laplacian(self.grid, self.ell)
        return spectral_function(self.grid, self.ell, self.evaluate)

    @functools.cached_property
    def symbol(self) -> np.ndarray:
        """The law at the ell = 0 Laplacian eigenvalues, in DST-I mode order."""
        if self.ell != 0:
            raise BadGrid(f"no DST-I symbol on channel ell={self.ell}")
        return np.asarray(self.evaluate(laplacian_symbol(self.grid)), dtype=float)

    def apply(self, X: np.ndarray) -> np.ndarray:
        symbol = self.symbol
        coef = dst(X)
        coef *= symbol if coef.ndim == 1 else symbol[:, None]
        return dst(coef)


_kinetic_cache = functools.lru_cache(maxsize=12)(KineticOperator)


def kinetic_operator(
    grid: RadialGrid, ell: int, alpha: float, law: str = "pseudorelativistic"
) -> KineticOperator:
    """T_ell of channel ell under `law`; cached, dense form built on first use.

    One instance per (grid, ell, alpha, law), whether or not the caller
    names the law.
    """
    return _kinetic_cache(grid, ell, alpha, law)
