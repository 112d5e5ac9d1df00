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
from .radial import RadialGrid, gram, integrate, kinetic_operator, sweeps

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
    """Per-channel density matrix: 0 <= gamma <= Id, or a signed `combine` of such.

    Immutable once built. A block whose arrays are bytes-equal to the block
    of a lower spin on the same ell becomes that same `ChannelBlock`
    object (`_share_partners`), whose arrays are then read-only: the two
    spins of a closed shell hold one block. `owner` maps each channel to
    the first channel on its ell that holds its block object, and
    `once_per_block` evaluates per-block work once per such owner.
    """

    def __init__(self, blocks: dict[tuple[int, int], ChannelBlock]):
        self.blocks = _share_partners(dict(sorted(blocks.items())))
        self.owner = {
            key: next(k for k, b in self.blocks.items() if k[0] == key[0] and b is blk)
            for key, blk in self.blocks.items()
        }

    def once_per_block(self, fn, tag=None) -> list:
        """[fn(key, block) for every block in order], fn run once per shared block.

        Channels whose blocks are one object take one value; `tag(key)`, when
        given, tells apart channels whose values differ although they share a
        block (the spin groups of a Fock operator). A caller that sums the
        values in this order keeps the bits of a sum over every channel.
        """
        memo: dict = {}
        out = []
        for key, blk in self.blocks.items():
            unit = (self.owner[key], None if tag is None else tag(key))
            if unit not in memo:
                memo[unit] = fn(key, blk)
            out.append(memo[unit])
        return out

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
            if not np.allclose(gram(grid, blk.orbitals, blk.orbitals), np.eye(blk.m),
                               rtol=0.0, atol=ORTHO_TOL):
                raise NotAdmissible(
                    f"orbitals not orthonormal in channel (ell={ell}, spin={spin})"
                )
        if n_electrons is not None and not self.trace() <= n_electrons + 1e-9:
            raise NotAdmissible(
                f"trace {self.trace()} exceeds electron count {n_electrons}"
            )
        return self


def _same_bytes(a: ChannelBlock, b: ChannelBlock) -> bool:
    """Equal shapes, dtypes and bytes: -0.0 against 0.0, or one ulp, tells blocks apart."""
    return a is b or all(
        x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.occupations, b.occupations), (a.orbitals, b.orbitals))
    )


def _share_partners(blocks: dict) -> dict:
    """Each block bytes-equal to the block of a lower spin on its ell becomes that block.

    `blocks` is in (ell, spin) order. A shared block's arrays are made
    read-only, so that no write through one spin can change the other.
    """
    out: dict[tuple[int, int], ChannelBlock] = {}
    for (ell, spin), blk in blocks.items():
        for (ell_p, _spin_p), partner in out.items():
            if ell_p == ell and _same_bytes(partner, blk):
                blk = partner
                partner.orbitals.flags.writeable = False
                partner.occupations.flags.writeable = False
                break
        out[(ell, spin)] = blk
    return out


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
    for charge in gamma.once_per_block(
            lambda _key, blk: (blk.orbitals**2 * blk.occupations).sum(axis=1)):
        w += charge
    return w


def hartree_potential(w: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Electrostatic potential of the radial charge w by Newton's theorem.

    R(r_i) = (1/r_i) int_0^{r_i} w + int_{r_i}^{r_max} w(s)/s ds, realized
    with two cumulative sums so that the implied pair kernel is exactly
    1/max(r_i, r_j).
    """
    r = grid.nodes
    inside, outer = sweeps(grid, w, w / r)
    return inside / r + outer


def slater_yk(P_a: np.ndarray, P_b: np.ndarray, k: int, grid: RadialGrid) -> np.ndarray:
    """Screening function Y^k of the orbital product P_a*P_b.

    Y^k(r) = r * int ( min(r,s)^k / max(r,s)^{k+1} ) P_a(s) P_b(s) ds,
    evaluated with two cumulative sweeps (the node r itself is counted in
    the inner sweep, matching the double-sum kernel convention). P_a and
    P_b are node vectors or column blocks (nodes on axis 0) that
    broadcast against each other; each column is swept independently.
    """
    rho = P_a * P_b
    r = grid.nodes.reshape((-1,) + (1,) * (rho.ndim - 1))
    inside, outer = sweeps(grid, rho * r**k, rho / r ** (k + 1))
    return inside / r**k + r ** (k + 1) * outer


def exchange_multipole_weight(ell_a: int, ell_b: int, k: int) -> float:
    """Per-pair multipole weight 3j(ell_a k ell_b; 0 0 0)^2, exact closed form.

    Vanishes unless |ell_a - ell_b| <= k <= ell_a + ell_b with
    k + ell_a + ell_b even; the weight of (0, 0, 0) is 1. Times
    (2*ell_b + 1) it is the closed-shell-averaged exchange weight c^k.
    """
    J = ell_a + k + ell_b
    if J % 2 == 1:
        return 0.0
    if abs(ell_a - k) > ell_b or ell_b > ell_a + k:
        return 0.0
    g = J // 2
    fact = math.factorial
    num = fact(J - 2 * ell_a) * fact(J - 2 * k) * fact(J - 2 * ell_b)
    val = num / fact(J + 1)
    val *= (fact(g) / (fact(g - ell_a) * fact(g - k) * fact(g - ell_b))) ** 2
    return val


@functools.cache
def _multipoles(ell_a: int, ell_b: int) -> tuple[tuple[int, float], ...]:
    """The exchange sums' one table: (k, 3j(ell_a k ell_b; 0 0 0)^2) for k from |ell_a - ell_b|
    to ell_a + ell_b in steps of 2, where parity and the triangle rule hold: every weight is > 0."""
    return tuple((k, exchange_multipole_weight(ell_a, ell_b, k))
                 for k in range(abs(ell_a - ell_b), ell_a + ell_b + 1, 2))


# rows of K filled per pass of the term sum; 32 and 128-400 were slower at n = 800
_ROW_BLOCK = 64


def _kernel_rows(rk: np.ndarray, rk1: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Rows i0:i1 of the pair kernel min(r_i,r_j)^k / max(r_i,r_j)^{k+1}.

    rk = r**k and rk1 = r**(k+1) are increasing, so off the diagonal block
    the kernel is rk[j] / rk1[i] left of it and rk[i] / rk1[j] right of
    it, the same bits as powers of the pair's min and max.
    """
    rows = np.empty((i1 - i0, rk.size))
    np.divide(rk[:i0], rk1[i0:i1, None], out=rows[:, :i0])
    np.divide(np.minimum.outer(rk[i0:i1], rk[i0:i1]), np.maximum.outer(rk1[i0:i1], rk1[i0:i1]),
              out=rows[:, i0:i1])
    np.divide(rk[i0:i1, None], rk1[i1:], out=rows[:, i1:])
    return rows


def exchange_matrix(gamma: DensityMatrix, ell: int, spin: int, grid: RadialGrid) -> np.ndarray:
    """Radial exchange operator K^(ell,spin) as a dense symmetric matrix.

    K[i,j] = h * sum_{blocks (ell',spin)} sum_a f_a *
             sum_k (3j(ell k ell';000))^2 * kernel_k(r_i,r_j) * P_a(r_i) P_a(r_j).

    k and its weight run over `_multipoles(ell, ell')`. Only same-spin
    blocks couple. Positive semidefinite because every multipole kernel
    is a positive-definite pair kernel. K is filled
    _ROW_BLOCK rows at a time, every term in turn on each block of rows
    with its kernel rows (`_kernel_rows`), then scaled by h and
    symmetrized in place block pair by block pair: no n x n buffer
    beside K itself.
    """
    n = grid.n
    r = grid.nodes
    terms = []
    for (ell_b, spin_b), blk in gamma.blocks.items():
        if spin_b != spin:
            continue
        for k, wk in _multipoles(ell, ell_b):
            terms.append((blk.orbitals * blk.occupations, blk.orbitals, k, wk))
    powers = {k: (r**k, r ** (k + 1)) for k in {term[2] for term in terms}}
    K = np.zeros((n, n))
    for i0 in range(0, n, _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, n)
        for weighted, P, k, wk in terms:
            G = weighted[i0:i1] @ P.T
            G *= _kernel_rows(*powers[k], i0, i1)
            G *= wk
            K[i0:i1] += G
    K *= grid.h     # the quadrature weight, factored out of the term sum: uniform grid only
    for a0 in range(0, n, _ROW_BLOCK):
        a = slice(a0, a0 + _ROW_BLOCK)
        for b0 in range(a0, n, _ROW_BLOCK):
            b = slice(b0, b0 + _ROW_BLOCK)
            s = K[a, b] + K[b, a].T
            s *= 0.5
            K[a, b] = s
            K[b, a] = s.T
    return K


def exchange_apply(
    gamma: DensityMatrix, ell: int, spin: int, X: np.ndarray, grid: RadialGrid
) -> np.ndarray:
    """K^(ell,spin) X without the n x n matrix of exchange_matrix.

    (K x)(r) = sum_a f_a sum_k (3j)^2 P_a(r) Y^k[P_a x](r) / r over `_multipoles`:
    one slater_yk sweep per shell and multipole, O(n m) per column of X.
    """
    out = np.zeros(X.shape)
    for (ell_b, spin_b), blk in gamma.blocks.items():
        if spin_b != spin:
            continue
        for k, wk in _multipoles(ell, ell_b):
            for P, f in zip(blk.orbitals.T, blk.occupations):
                P = P if X.ndim == 1 else P[:, None]
                out += (wk * f) * P * slater_yk(P, X, k, grid)
    r = grid.nodes if X.ndim == 1 else grid.nodes[:, None]
    return out / r


def _pair_terms(la: int, blka: ChannelBlock, lb: int, blkb: ChannelBlock, grid: RadialGrid):
    """The terms f_a f_b (3j)^2 R^k(ab;ba) / 2 of one pair of blocks, in summation order."""
    terms = []
    for a in range(blka.m):
        fa = blka.occupations[a]
        for b in range(blkb.m):
            fb = blkb.occupations[b]
            if fa == 0.0 or fb == 0.0:
                continue
            prod = blka.orbitals[:, a] * blkb.orbitals[:, b]
            for k, wk in _multipoles(la, lb):
                # R^k(ab;ba) = int int prod(r) kernel_k(r,s) prod(s) dr ds
                y = slater_yk(prod, 1.0, k, grid)
                rk = integrate(grid, prod * y / grid.nodes)
                terms.append(0.5 * fa * fb * wk * rk)
    return terms


def exchange_energy(gamma: DensityMatrix, grid: RadialGrid) -> float:
    """Ex = (1/2) sum_spin sum_{a,b} f_a f_b sum_k (3j)^2 R^k(ab;ba), k over `_multipoles`.

    The terms of a pair of blocks are computed once per pair of owners
    (`DensityMatrix.owner`), so spin partners share them, and are added
    once per spin.
    """
    total = 0.0
    pairs: dict = {}
    items = list(gamma.blocks.items())
    for (la, sa), blka in items:
        for (lb, sb), blkb in items:
            if sa != sb:
                continue
            pair = (gamma.owner[(la, sa)], gamma.owner[(lb, sb)])
            if pair not in pairs:
                pairs[pair] = _pair_terms(la, blka, lb, blkb, grid)
            for term in pairs[pair]:
                total += term
    return total


def energy_terms(
    gamma: DensityMatrix, grid: RadialGrid, sys: AtomSystem
) -> tuple[float, float, float, float]:
    """(Tr[T gamma], Tr[V gamma], D(gamma), Ex(gamma)) in operator units.

    The one-body traces carry no alpha^-1 prefactor here; the total
    energy assembly applies it.
    """
    r = grid.nodes
    # densities with a p or higher block keep the dense products for every
    # block, so their energies do not move by a roundoff change
    s_only = all(ell == 0 for (ell, _spin) in gamma.blocks)
    h = grid.h      # h stays factored out of each shell sum: uniform grid only

    def kinetic_trace(key, blk):
        T = kinetic_operator(grid, key[0], sys.alpha, sys.kinetic)
        TP = T.apply(blk.orbitals) if s_only else T.matrix @ blk.orbitals
        return float(h * np.sum(blk.occupations * np.einsum("ia,ia->a", blk.orbitals, TP)))

    tr_T = 0.0      # spin partners share one trace, added once per spin
    for trace in gamma.once_per_block(kinetic_trace):
        tr_T += trace
    w = reduced_density(gamma, grid)
    tr_V = sys.z_alpha * integrate(grid, w / r)
    D = 0.5 * integrate(grid, w * hartree_potential(w, grid))
    Ex = exchange_energy(gamma, grid)
    for name, val in (("Tr[T]", tr_T), ("Tr[V]", tr_V), ("D", D), ("Ex", Ex)):
        if not np.isfinite(val):
            raise NonFiniteEnergy(f"{name} evaluated to {val}")
    return tr_T, tr_V, D, Ex
