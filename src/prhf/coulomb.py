"""Coulomb machinery: densities, Hartree potential, Slater integrals, exchange.

Density matrices are stored per (ell, spin) channel. Each channel block
holds orthonormal radial orbitals P_a (columns, inner-product normalized
with the grid weight) together with shell occupations f_a in
[0, 2*ell+1]. One column with f = 2*ell+1 represents a filled multiplet
of 2*ell+1 degenerate m-orbitals; the per-orbital eigenvalue of the
density operator is lambda_a = f_a / (2*ell+1) in [0, 1].

With w(r) = sum f_a P_a(r)^2 the radial charge (so integrate(w) equals
the trace), the spherically averaged interaction terms reduce to
one-dimensional multipole integrals. Exchange between shells a and b
carries the Legendre weight

    (3j(ell_a k ell_b; 0 0 0))^2

per multipole order k, which is exact for the m-averaged channel
density matrices used here (the 3D quadrature oracle in the test suite
pins this normalization).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEnergy, NotAdmissible
from .model import AtomSystem
from .radial import RadialGrid, channel_kinetic

ORTHO_TOL = 1e-10


@dataclass
class ChannelBlock:
    """Orbitals and shell occupations of one (ell, spin) channel."""

    orbitals: np.ndarray   # (n, m), columns inner-orthonormal
    occupations: np.ndarray  # (m,), shell occupations f_a

    @property
    def m(self) -> int:
        return self.orbitals.shape[1]


class DensityMatrix:
    """Per-channel density matrix: 0 <= gamma <= Id, or a signed `combine` of such."""

    def __init__(self, blocks: dict[tuple[int, int], ChannelBlock]):
        self.blocks = dict(sorted(blocks.items()))

    def trace(self) -> float:
        return float(sum(b.occupations.sum() for b in self.blocks.values()))

    def occupation_list(self):
        """Flat [(ell, spin, index, f, lambda)] in deterministic order."""
        out = []
        for (ell, spin), blk in self.blocks.items():
            for a, f in enumerate(blk.occupations):
                out.append((ell, spin, a, float(f), float(f) / (2 * ell + 1)))
        return out

    def max_impurity(self) -> float:
        """max over orbitals of min(lambda, 1 - lambda)."""
        worst = 0.0
        for (ell, _spin), blk in self.blocks.items():
            lam = blk.occupations / (2 * ell + 1)
            if lam.size:
                worst = max(worst, float(np.max(np.minimum(lam, 1.0 - lam))))
        return worst

    def validate(self, grid: RadialGrid, n_electrons: float | None = None):
        for (ell, spin), blk in self.blocks.items():
            lam = blk.occupations / (2 * ell + 1)
            # written so that a NaN occupation fails
            if not (np.all(lam >= -1e-12) and np.all(lam <= 1 + 1e-12)):
                raise NotAdmissible(
                    f"occupation out of [0,1] in channel (ell={ell}, spin={spin})"
                )
            gram = grid.h * blk.orbitals.T @ blk.orbitals
            if not np.allclose(gram, np.eye(blk.m), rtol=0.0, atol=ORTHO_TOL):
                raise NotAdmissible(
                    f"orbitals not orthonormal in channel (ell={ell}, spin={spin})"
                )
        if n_electrons is not None and not self.trace() <= n_electrons + 1e-9:
            raise NotAdmissible(
                f"trace {self.trace()} exceeds electron count {n_electrons}"
            )
        return self


def combine(terms) -> DensityMatrix:
    """The signed linear combination sum_i c_i gamma_i of (c_i, gamma_i) pairs.

    Per channel, the blocks' columns are concatenated in term order and
    their occupations scaled by c_i; terms with c_i = 0 are dropped. No
    validation and no re-diagonalization: the result is meant for maps
    that are linear in gamma, such as the two-body part of the Fock
    operator, or for a caller that re-diagonalizes it.
    """
    parts: dict[tuple[int, int], list[ChannelBlock]] = {}
    for c, gamma in terms:
        if c != 0.0:
            for key, blk in gamma.blocks.items():
                parts.setdefault(key, []).append(ChannelBlock(blk.orbitals, c * blk.occupations))
    return DensityMatrix({
        key: ChannelBlock(
            np.column_stack([b.orbitals for b in blks]),
            np.concatenate([b.occupations for b in blks]),
        )
        for key, blks in parts.items()
    })


def reduced_density(gamma: DensityMatrix, grid: RadialGrid) -> np.ndarray:
    """Radial charge w(r_i) = sum_blocks sum_a f_a P_a(r_i)^2."""
    w = np.zeros(grid.n)
    for blk in gamma.blocks.values():
        w += (blk.orbitals**2 * blk.occupations).sum(axis=1)
    return w


def hartree_potential(w: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Electrostatic potential of the radial charge w by Newton's theorem.

    R(r_i) = (1/r_i) int_0^{r_i} w + int_{r_i}^{r_max} w(s)/s ds, realized
    with two cumulative sums so that the implied pair kernel is exactly
    1/max(r_i, r_j).
    """
    r, h = grid.nodes, grid.h
    inside = np.cumsum(w) * h
    outer = np.cumsum((w / r)[::-1])[::-1] * h - (w / r) * h
    return inside / r + outer


def slater_yk(P_a: np.ndarray, P_b: np.ndarray, k: int, grid: RadialGrid) -> np.ndarray:
    """Screening function Y^k of the orbital product P_a*P_b.

    Y^k(r) = r * int ( min(r,s)^k / max(r,s)^{k+1} ) P_a(s) P_b(s) ds,
    evaluated with two cumulative sweeps (the node r itself is counted in
    the inner sweep, matching the double-sum kernel convention). P_a and
    P_b are node vectors or column blocks (nodes on axis 0) that
    broadcast against each other; each column is swept independently.
    """
    h = grid.h
    rho = P_a * P_b
    r = grid.nodes.reshape((-1,) + (1,) * (rho.ndim - 1))
    inside = np.cumsum(rho * r**k, axis=0) * h          # sum_{s <= r} s^k rho
    tail = rho / r ** (k + 1)
    outer = np.cumsum(tail[::-1], axis=0)[::-1] * h - tail * h
    return inside / r**k + r ** (k + 1) * outer


def _threej000_sq(l1: int, l2: int, l3: int) -> float:
    """Squared Wigner 3j symbol with zero projections, exact closed form."""
    J = l1 + l2 + l3
    if J % 2 == 1:
        return 0.0
    if abs(l1 - l2) > l3 or l3 > l1 + l2:
        return 0.0
    g = J // 2
    fact = math.factorial
    num = fact(J - 2 * l1) * fact(J - 2 * l2) * fact(J - 2 * l3)
    val = num / fact(J + 1)
    val *= (fact(g) / (fact(g - l1) * fact(g - l2) * fact(g - l3))) ** 2
    return val


def angular_coefficient(ell_a: int, ell_b: int, k: int) -> float:
    """Closed-shell-averaged exchange weight c^k = (2*ell_b+1) * 3j(...)^2.

    Vanishes unless |ell_a - ell_b| <= k <= ell_a + ell_b with
    k + ell_a + ell_b even; c^0(0,0) = 1.
    """
    return (2 * ell_b + 1) * _threej000_sq(ell_a, k, ell_b)


def exchange_multipole_weight(ell_a: int, ell_b: int, k: int) -> float:
    """Per-pair multipole weight (3j)^2 = c^k / (2*ell_b + 1)."""
    return _threej000_sq(ell_a, k, ell_b)


def _k_values(ell_a: int, ell_b: int):
    return range(abs(ell_a - ell_b), ell_a + ell_b + 1, 2)


@functools.lru_cache(maxsize=8)
def multipole_kernel(grid: RadialGrid, k: int) -> np.ndarray:
    """Dense pair kernel min(r_i,r_j)^k / max(r_i,r_j)^{k+1}, cached."""
    r = grid.nodes
    mx = np.maximum.outer(r, r)
    if k == 0:
        return 1.0 / mx
    return np.minimum.outer(r, r) ** k / mx ** (k + 1)


def exchange_matrix(gamma: DensityMatrix, ell: int, spin: int, grid: RadialGrid) -> np.ndarray:
    """Radial exchange operator K^(ell,spin) as a dense symmetric matrix.

    K[i,j] = h * sum_{blocks (ell',spin)} sum_a f_a *
             sum_k (3j(ell k ell';000))^2 * kernel_k(r_i,r_j) * P_a(r_i) P_a(r_j).

    Only same-spin blocks couple. Positive semidefinite because every
    multipole kernel is a positive-definite pair kernel.
    """
    n = grid.n
    K = np.zeros((n, n))
    for (ell_b, spin_b), blk in gamma.blocks.items():
        if spin_b != spin:
            continue
        for k in _k_values(ell, ell_b):
            wk = exchange_multipole_weight(ell, ell_b, k)
            if wk == 0.0:
                continue
            ker = multipole_kernel(grid, k)
            weighted = blk.orbitals * blk.occupations
            K += wk * ((weighted @ blk.orbitals.T) * ker)
    K *= grid.h
    return 0.5 * (K + K.T)


def exchange_apply(
    gamma: DensityMatrix, ell: int, spin: int, X: np.ndarray, grid: RadialGrid
) -> np.ndarray:
    """K^(ell,spin) X without the n x n matrix of exchange_matrix.

    (K x)(r) = sum_a f_a sum_k (3j)^2 P_a(r) Y^k[P_a x](r) / r: one
    slater_yk sweep per shell and multipole, O(n m) per column of X.
    """
    out = np.zeros(X.shape)
    for (ell_b, spin_b), blk in gamma.blocks.items():
        if spin_b != spin:
            continue
        for k in _k_values(ell, ell_b):
            wk = exchange_multipole_weight(ell, ell_b, k)
            if wk == 0.0:
                continue
            for P, f in zip(blk.orbitals.T, blk.occupations):
                P = P if X.ndim == 1 else P[:, None]
                out += (wk * f) * P * slater_yk(P, X, k, grid)
    r = grid.nodes if X.ndim == 1 else grid.nodes[:, None]
    return out / r


def slater_rk(prod_left: np.ndarray, prod_right: np.ndarray, k: int, grid: RadialGrid) -> float:
    """Two-electron radial integral of two node products against kernel k.

    R^k = int int prod_left(r) kernel_k(r,s) prod_right(s) dr ds via the
    cumulative sweep form; symmetric in its arguments.
    """
    y = slater_yk(prod_right, np.ones_like(prod_right), k, grid)
    return float(grid.h * np.sum(prod_left * y / grid.nodes))


def direct_energy(w: np.ndarray, grid: RadialGrid) -> float:
    """D = (1/2) int w R_w, the classical self-repulsion of the charge w."""
    R = hartree_potential(w, grid)
    return 0.5 * float(grid.h * np.sum(w * R))


def exchange_energy(gamma: DensityMatrix, grid: RadialGrid) -> float:
    """Ex = (1/2) sum_spin sum_{a,b} f_a f_b sum_k (3j)^2 R^k(ab;ba)."""
    total = 0.0
    items = list(gamma.blocks.items())
    for (la, sa), blka in items:
        for (lb, sb), blkb in items:
            if sa != sb:
                continue
            for a in range(blka.m):
                fa = blka.occupations[a]
                for b in range(blkb.m):
                    fb = blkb.occupations[b]
                    if fa == 0.0 or fb == 0.0:
                        continue
                    prod = blka.orbitals[:, a] * blkb.orbitals[:, b]
                    for k in _k_values(la, lb):
                        wk = exchange_multipole_weight(la, lb, k)
                        if wk == 0.0:
                            continue
                        total += 0.5 * fa * fb * wk * slater_rk(prod, prod, k, grid)
    return total


def energy_terms(
    gamma: DensityMatrix, grid: RadialGrid, sys: AtomSystem
) -> tuple[float, float, float, float]:
    """(Tr[T gamma], Tr[V gamma], D(gamma), Ex(gamma)) in operator units.

    The one-body traces carry no alpha^-1 prefactor here; the total
    energy assembly applies it.
    """
    r, h = grid.nodes, grid.h
    # densities with a p or higher block keep the dense products for every
    # block, so their energies do not move by a roundoff change
    s_only = all(ell == 0 for (ell, _spin) in gamma.blocks)
    tr_T = 0.0
    for (ell, _spin), blk in gamma.blocks.items():
        T = channel_kinetic(grid, ell, sys)
        TP = T.apply(blk.orbitals) if s_only else T.matrix @ blk.orbitals
        tr_T += float(h * np.sum(blk.occupations * np.einsum("ia,ia->a", blk.orbitals, TP)))
    w = reduced_density(gamma, grid)
    tr_V = sys.z_alpha * float(h * np.sum(w / r))
    D = direct_energy(w, grid)
    Ex = exchange_energy(gamma, grid)
    for name, val in (("Tr[T]", tr_T), ("Tr[V]", tr_V), ("D", D), ("Ex", Ex)):
        if not np.isfinite(val):
            raise NonFiniteEnergy(f"{name} evaluated to {val}")
    return tr_T, tr_V, D, Ex
