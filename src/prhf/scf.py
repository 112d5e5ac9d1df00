"""Fock operator and self-consistent minimization over density matrices.

The minimization walks the convex set {0 <= gamma <= Id, Tr gamma = N}
by optimal damping (Cances and Le Bris, IJQC 79 (2000)): each iteration
diagonalizes the current Fock operator, fills the lowest levels
(aufbau), and takes the exact minimizer of the quadratic energy
restriction along the segment towards that trial. Energy descent is
monotone by construction; a violation raises LineSearchFailure because
it can only come from a bug.
"""

from __future__ import annotations

import functools
import logging
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import lobpcg

from .coulomb import (
    ChannelBlock,
    DensityMatrix,
    combine,
    exchange_apply,
    exchange_matrix,
    hartree_potential,
    reduced_density,
)
from .errors import EigFailure, LineSearchFailure, NotConverged
from .functional import EnergyBreakdown, line_coefficients, total_energy
from .model import AtomSystem, SolverOptions, default_shells, validate_system
from .radial import RadialGrid, build_grid, channel_kinetic, dst

log = logging.getLogger(__name__)

OCC_DROP = 1e-13          # discard mixed eigenvalues below this weight
DESCENT_SLACK = 1e-12     # per-step slack on monotone descent
# a line whose coefficients a and b are both within this many (1 + |E|)
# of zero is flat to roundoff: the step keeps gamma (t = 0). A one-electron
# system's first trial is its h0 density again, and a, b ~ 1e-15 there.
LINE_ROUNDOFF = 32.0 * np.finfo(float).eps
PURITY_TOL = 1e-6
# LOBPCG on matrix-free channels: preconditioner shift in units of alpha;
# residual tolerances relative to the operator's norm, one for the aufbau
# fill, whose columns become the orbitals (their tails must hold down to
# 1e-11 of their peak for the decay fits), and one for level tables, of
# which only eigenvalues and overlaps are read; iteration cap; seed of the
# start block; the factor on the tolerance above which a residual hands
# the channel to the dense eigensolve; and the columns a fill solve asks
# for beyond the levels it can reach, when it can reach more than one
LOBPCG_SIGMA = 0.4
LOBPCG_RTOL = 1e-15
LOBPCG_LEVEL_RTOL = 1e-11
LOBPCG_MAXITER = 200
LOBPCG_SEED = 20240817
LOBPCG_SLACK = 10.0
FILL_GUARD = 2


@dataclass
class FockOperator:
    """Per-channel Fock operator F = h0 + G(gamma) of one density gamma.

    h0 = T - Z*alpha/r is the one-body part; G(gamma) = alpha*(R - K) is
    the two-body part, linear in gamma, which `two_body_apply` applies.
    Its channels, ell = 0..ell_max for every spin, are the channel set of
    the run: the SCF stages and the certificate take the grid, the system
    and the channels from the operator they are given. An operator whose channels are all s-channels (ell_max = 0) is
    matrix-free: `apply` takes T through the DST-I, the local potential
    as a vector and exchange through slater_yk sweeps, and its levels
    come from LOBPCG: the aufbau fill asks each spin group for the levels
    it can reach, at the fill tolerance, and a level table asks for its
    count at the looser level tolerance. Any other operator applies its
    dense `matrices`, which are assembled on first access only, and
    computes its fill and its table by one `eigh`. Nothing is modified
    after the build, so each eigensolve (channel, count, tolerance) runs
    once and is kept. Every LOBPCG solve appends a (block, iterations,
    fell back to dense) record to `eigensolves`, a list the caller may
    share between operators.
    """

    system: AtomSystem
    grid: RadialGrid
    gamma: DensityMatrix
    kinetic: list           # kinetic operator of channel ell, ell = 0..ell_max
    potential: np.ndarray   # -Z*alpha/r + alpha*R on the nodes
    hartree: np.ndarray     # alpha*R on the nodes, the local part of G(gamma)
    groups: list            # spins with equal channel content share work
    eigensolves: list = field(default_factory=list, repr=False, compare=False)
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def ell_max(self) -> int:
        return len(self.kinetic) - 1

    @property
    def matrix_free(self) -> bool:
        return self.ell_max == 0

    @functools.cached_property
    def matrices(self) -> dict[tuple[int, int], np.ndarray]:
        """Dense channel matrices; spins of one group share one array."""
        matrices: dict[tuple[int, int], np.ndarray] = {}
        for ell, kin in enumerate(self.kinetic):
            T = kin.matrix
            for grp in self.groups:
                H = T + np.diag(self.potential)
                K = exchange_matrix(self.gamma, ell, grp[0], self.grid)
                H = H - self.system.alpha * K
                H = 0.5 * (H + H.T)
                for spin in grp:
                    matrices[(ell, spin)] = H
        return matrices

    def apply(self, key: tuple[int, int], X: np.ndarray) -> np.ndarray:
        """The channel operator times a node vector or a block of columns."""
        if not self.matrix_free:
            return self.matrices[key] @ X
        return self.kinetic[key[0]].apply(X) + self.potential_apply(key, X)

    def potential_apply(self, key: tuple[int, int], X: np.ndarray) -> np.ndarray:
        """Everything but the kinetic energy, applied matrix-free."""
        return self._minus_exchange(self.potential, key, X)

    def two_body_apply(self, key: tuple[int, int], X: np.ndarray) -> np.ndarray:
        """G(gamma) X = alpha R X - alpha K[gamma] X, matrix-free on any channel."""
        return self._minus_exchange(self.hartree, key, X)

    def _minus_exchange(self, local, key, X):
        ell, spin = key
        local = local if X.ndim == 1 else local[:, None]
        return local * X - self.system.alpha * exchange_apply(self.gamma, ell, spin, X, self.grid)


@dataclass
class SCFReport:
    converged: bool
    iterations: int
    energy: EnergyBreakdown
    energy_trace: list = field(default_factory=list)
    eigenvalues: list = field(default_factory=list)
    occupations: list = field(default_factory=list)
    commutator_residual: float = float("nan")
    max_orbital_residual: float = float("nan")
    anion_regime: bool = False
    message: str = ""
    # one record per iteration: E, dE, t, a, b, commutator_residual
    steps: list = field(default_factory=list)
    # the eigensolver's work over the whole solve (`_eigensolve_summary`)
    eigensolves: dict = field(default_factory=dict)
    # the operator of the final density; not serialized
    fock: FockOperator | None = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "algorithm": "optimal-damping",
            "energy": asdict(self.energy),
            "energy_trace": [asdict(e) for e in self.energy_trace],
            "eigenvalues": [
                {
                    "ell": ell,
                    "spin": spin,
                    "index": idx,
                    "value": val,
                    "value_hartree": val_h,
                    "occupation": occ,
                }
                for (ell, spin, idx, val, val_h, occ) in self.eigenvalues
            ],
            "occupations": self.occupations,
            "commutator_residual": self.commutator_residual,
            "max_orbital_residual": self.max_orbital_residual,
            "anion_regime": self.anion_regime,
            "message": self.message,
            "steps": self.steps,
            "eigensolves": self.eigensolves,
        }


def _spin_groups(gamma: DensityMatrix, q: int):
    """Group spins whose channel content is identical, to share work."""
    groups: dict[tuple, list[int]] = {}
    for spin in range(q):
        key = tuple(
            (ell, blk.orbitals.shape, blk.occupations.tobytes(), blk.orbitals.tobytes())
            for (ell, s), blk in gamma.blocks.items() if s == spin
        )
        groups.setdefault(key, []).append(spin)
    return list(groups.values())


def fock_build(
    gamma: DensityMatrix,
    grid: RadialGrid,
    sys: AtomSystem,
    ell_max: int,
    eigensolves: list | None = None,
) -> FockOperator:
    """Fock operator on all channels ell <= ell_max, all spins.

    gamma may be any signed `combine` of density matrices. The build
    holds node vectors only; dense channel matrices wait for first use.
    The operator's LOBPCG records go to `eigensolves` when it is given.
    """
    hartree = sys.alpha * hartree_potential(reduced_density(gamma, grid), grid)
    return FockOperator(
        system=sys, grid=grid, gamma=gamma,
        kinetic=[channel_kinetic(grid, ell, sys) for ell in range(ell_max + 1)],
        potential=-sys.z_alpha / grid.nodes + hartree, hartree=hartree,
        groups=_spin_groups(gamma, sys.q),
        eigensolves=[] if eigensolves is None else eigensolves,
    )


def _dense_levels(H: np.ndarray, k: int):
    try:
        return scipy.linalg.eigh(H, subset_by_index=(0, k - 1))
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigFailure(str(exc)) from exc


def _lobpcg_levels(fock: FockOperator, key: tuple[int, int], k: int, rtol: float):
    """Lowest k eigenpairs of a matrix-free channel by preconditioned LOBPCG.

    The iteration runs in DST-I coordinates y = S x (S is its own
    inverse), where the kinetic energy and the preconditioner
    (T + sigma)^-1, the discrete resolvent of the kinetic energy, are
    diagonal: one transform pair per operator apply and none per
    preconditioner apply. The start is a seeded Gaussian block, so
    repeated solves agree bit for bit. The residual tolerance is `rtol`
    times the operator's norm. A solve whose residuals exceed it by more
    than LOBPCG_SLACK falls back to dense eigh. The solve is recorded in
    `fock.eigensolves` with its iteration count, the length of LOBPCG's
    residual history (one entry per block residual it evaluated; 0 when
    LOBPCG solved densely itself or broke down).
    """
    n = fock.grid.n
    t = fock.kinetic[key[0]].symbol[:, None]
    inv = 1.0 / (t + LOBPCG_SIGMA * fock.system.alpha)
    tol = rtol * (t.max() + np.abs(fock.potential).max())

    def op(Y):      # lobpcg passes blocks of columns
        return t * Y + dst(fock.potential_apply(key, dst(Y)))

    Y0 = np.random.default_rng(LOBPCG_SEED).standard_normal((n, k))
    try:
        with warnings.catch_warnings():
            # non-convergence, and the ill-conditioned Gram matrices LOBPCG
            # restarts from, are judged below from the residuals themselves
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            # a grid below 5 k columns is solved densely, without a history
            vals, vecs, *history = lobpcg(
                op, Y0, M=lambda Y: inv * Y, tol=tol, maxiter=LOBPCG_MAXITER, largest=False,
                retResidualNormsHistory=True,
            )
    except (np.linalg.LinAlgError, ValueError):    # its Rayleigh-Ritz broke down
        vals, vecs, history = np.full(k, np.nan), Y0, []
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], dst(vecs[:, order])
    # sign convention P > 0 at the first node, so the orbitals written
    # out do not depend on the start block or the iteration count
    vecs *= np.where(vecs[0] < 0.0, -1.0, 1.0)
    worst = float(np.max(np.linalg.norm(fock.apply(key, vecs) - vecs * vals, axis=0)))
    fell_back = not worst <= LOBPCG_SLACK * tol     # also catches a NaN residual
    fock.eigensolves.append((k, len(history[0]) if history else 0, fell_back))
    if fell_back:
        log.warning(
            "LOBPCG on channel %s left residual %.3e above %.3e; using dense eigh",
            key, worst, LOBPCG_SLACK * tol,
        )
        return _dense_levels(fock.matrices[key], k)
    return vals, vecs


def _eigensolve_summary(records: list) -> dict:
    """The `eigensolves` record of report.json from (block, iterations, fell back) records.

    LOBPCG work is the sum of iterations * (1 + block): each iteration
    applies the operator to a block of new directions and LOBPCG's cost
    grows with the block width.
    """
    return {
        "lobpcg_solves": len(records),
        "lobpcg_blocks": [k for k, _its, _fb in records],
        "lobpcg_iterations": [its for _k, its, _fb in records],
        "lobpcg_work": sum(its * (1 + k) for k, its, _fb in records),
        "dense_fallbacks": sum(fb for *_, fb in records),
    }


def _group_levels(fock: FockOperator, ell: int, grp: list, count: int, rtol: float):
    """Lowest `count` eigenpairs of channel ell of one spin group, grid-normalized.

    Memoized on the operator; callers must not modify the arrays. The
    tolerance `rtol` only concerns LOBPCG, so a dense operator keeps one
    solve per count.
    """
    k = min(count, fock.grid.n)
    memo = (ell, grp[0], k, rtol if fock.matrix_free else None)
    level = fock._spectra.get(memo)
    if level is None:
        key = (ell, grp[0])
        if fock.matrix_free:
            vals, vecs = _lobpcg_levels(fock, key, k, rtol)
        else:
            vals, vecs = _dense_levels(fock.matrices[key], k)
        level = fock._spectra[memo] = (vals, vecs / np.sqrt(fock.grid.h))
    return level


def _channel_spectra(fock: FockOperator, count: int):
    """Lowest `count` eigenpairs per channel, one eigensolve per spin group.

    For level tables, of which only eigenvalues and overlaps are read:
    LOBPCG solves at the level tolerance.
    """
    spectra = {}
    for ell in range(fock.ell_max + 1):
        for grp in fock.groups:
            level = _group_levels(fock, ell, grp, count, LOBPCG_LEVEL_RTOL)
            for spin in grp:
                spectra[(ell, spin)] = level
    return dict(sorted(spectra.items()))


def _levels_needed(N: float) -> int:
    # the count of a level table: worst case all electrons in one channel
    # with unit capacity, plus four unoccupied levels
    return int(np.ceil(N)) + 4


def _fill_count(N: float, group_size: int, ell: int) -> int:
    """Levels of channel ell of one spin group that the aufbau fill can reach.

    The spins of a group share one spectrum, and the fill takes levels in
    (value, ell, spin, index) order. If a channel's levels are strictly
    increasing, its level j comes after levels 0..j-1 of every spin of
    the group, and those hold j * group_size * (2 ell + 1) electrons. So
    only the first b = ceil(N / (group_size (2 ell + 1))) levels can be
    filled. When b > 1 the top wanted level sits among closely spaced
    high levels, where a block of b + FILL_GUARD columns converges in
    fewer applies than a block of b.
    """
    b = int(np.ceil(N / (group_size * (2 * ell + 1))))
    return b + FILL_GUARD if b > 1 else b


def _fill_spectra(fock: FockOperator, N: float) -> dict:
    """The spectra an aufbau fill of N electrons reads, per channel.

    A matrix-free operator solves each spin group for its `_fill_count`
    levels at the fill tolerance, or for the table count when two of the
    computed levels tie, since the count rests on increasing levels. A dense
    operator computes the table count, whose `eigh` the level table then
    shares: a smaller subset would change the bits of the levels.
    """
    if not fock.matrix_free:
        return _channel_spectra(fock, _levels_needed(N))
    spectra = {}
    for ell in range(fock.ell_max + 1):
        for grp in fock.groups:
            level = _group_levels(fock, ell, grp, _fill_count(N, len(grp), ell), LOBPCG_RTOL)
            if not np.all(np.diff(level[0]) > 0.0):
                level = _group_levels(fock, ell, grp, _levels_needed(N), LOBPCG_RTOL)
            for spin in grp:
                spectra[(ell, spin)] = level
    return dict(sorted(spectra.items()))


def _fill(spectra: dict, N: float) -> dict[tuple[int, int], list[tuple[int, float]]]:
    """Bathtub fill of N electrons: the (index, occupation) picks per channel.

    Levels are taken from the merged spectrum in (value, ell, spin, index)
    order, capacity 2*ell+1 per level.
    """
    levels = []
    for (ell, spin), (vals, _vecs) in spectra.items():
        for idx, val in enumerate(vals):
            levels.append((float(val), ell, spin, idx))
    levels.sort()
    remaining = float(N)
    chosen: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for _val, ell, spin, idx in levels:
        if remaining <= 1e-14:
            break
        f = min(float(2 * ell + 1), remaining)
        chosen.setdefault((ell, spin), []).append((idx, f))
        remaining -= f
    if remaining > 1e-12:
        raise EigFailure("not enough levels computed to place all electrons")
    return chosen


def aufbau_projection(fock: FockOperator, N: float) -> DensityMatrix:
    """Occupy the N lowest Fock levels across channels (ties: lower ell, spin)."""
    spectra = _fill_spectra(fock, N)
    blocks = {}
    for key, picks in _fill(spectra, N).items():
        _vals, vecs = spectra[key]
        idxs = [i for (i, _f) in picks]
        occs = np.array([f for (_i, f) in picks])
        blocks[key] = ChannelBlock(orbitals=vecs[:, idxs].copy(), occupations=occs)
    return DensityMatrix(blocks)


def _mix_blocks(
    ga: DensityMatrix, gb: DensityMatrix, t: float, grid: RadialGrid
) -> DensityMatrix:
    """Convex combination (1-t) ga + t gb, re-diagonalized per channel.

    Works in the joint column span of the `combine`d blocks, so the
    result is an exact eigendecomposition of the mixed operator
    (symmetric orthogonalization comes for free) at O(n m^2) cost.
    """
    out = {}
    sqh = np.sqrt(grid.h)
    for key, blk in combine([(1.0 - t, ga), (t, gb)]).blocks.items():
        B, fv = blk.orbitals, blk.occupations
        Q, _ = np.linalg.qr(B * sqh)
        coef = Q.T @ (B * sqh)           # columns of B in the Q basis
        M = (coef * fv) @ coef.T
        lam, V = np.linalg.eigh(0.5 * (M + M.T))
        ell = key[0]
        cap = 2 * ell + 1
        keep = lam > OCC_DROP * cap
        if not np.any(keep):
            continue
        lam = np.clip(lam[keep], 0.0, cap)
        V = V[:, keep]
        order = np.argsort(-lam, kind="stable")
        newC = (Q @ V)[:, order] / sqh
        out[key] = ChannelBlock(orbitals=newC, occupations=lam[order])
    return DensityMatrix(out)


def commutator_residual(fock: FockOperator, gamma: DensityMatrix) -> float:
    """Frobenius norm of [F, gamma] summed over channels with multiplicity.

    On a channel gamma = h C Lambda C^T with h C^T C = I. With
    M = h C^T F C and P the projector onto the columns of C, the squared
    norm is 2h |(1 - P) F C Lambda|^2 (occupied to virtual) plus
    |M Lambda - Lambda M|^2 (within the occupied span, nonzero only for
    fractional occupations). Both are sums of squares, so the norm does
    not cancel as a difference of traces would.
    """
    h = fock.grid.h
    total = 0.0
    for (ell, spin), blk in gamma.blocks.items():
        C = blk.orbitals
        lam = blk.occupations / (2 * ell + 1)
        W = fock.apply((ell, spin), C)
        M = h * (C.T @ W)
        virtual = (W - C @ M) * lam
        occupied = M * (lam[None, :] - lam[:, None])
        total += (2 * ell + 1) * (2.0 * h * np.sum(virtual**2) + np.sum(occupied**2))
    return float(np.sqrt(total))


def orbital_residuals(fock: FockOperator, gamma: DensityMatrix) -> list[tuple]:
    """(channel, index, eps, residual) of every occupied orbital P_a.

    eps = <P_a, F P_a> and residual = |F P_a - eps P_a|, both in the grid
    inner product, from one blocked apply of F per channel.
    """
    h = fock.grid.h
    out = []
    for key, blk in gamma.blocks.items():
        C = blk.orbitals
        FC = fock.apply(key, C)
        eps = h * np.einsum("ia,ia->a", C, FC)
        res = np.sqrt(h * np.sum((FC - C * eps) ** 2, axis=0))
        out.extend((key, a, float(eps[a]), float(res[a])) for a in range(blk.m))
    return out


@dataclass
class StepInfo:
    t: float
    a: float
    b: float
    energy: EnergyBreakdown
    trial_energy: EnergyBreakdown


def oda_step(
    gamma: DensityMatrix, fock: FockOperator, e_gamma: EnergyBreakdown
) -> tuple[DensityMatrix, StepInfo]:
    """One optimal-damping step from gamma, whose operator is `fock` and energy e_gamma.

    Aufbau trial on the operator's channels, exact line search, mix.
    """
    grid, sys = fock.grid, fock.system
    trial = aufbau_projection(fock, sys.N)
    e_trial = total_energy(trial, grid, sys)
    a, b = line_coefficients(gamma, trial, fock, e_gamma, e_trial)
    if max(abs(a), abs(b)) <= LINE_ROUNDOFF * (1.0 + abs(e_gamma.total)):
        t = 0.0
    elif b > 0.0:
        t = min(1.0, max(0.0, -a / (2.0 * b)))
    else:
        t = 1.0 if a + b < 0.0 else 0.0
    if t >= 1.0:
        nxt, e_next = trial, e_trial
    elif t <= 0.0:
        nxt, e_next = gamma, e_gamma
    else:
        nxt = _mix_blocks(gamma, trial, t, grid)
        e_next = total_energy(nxt, grid, sys)
    if e_next.total > e_gamma.total + DESCENT_SLACK * (1.0 + abs(e_gamma.total)):
        raise LineSearchFailure(
            f"energy rose from {e_gamma.total!r} to {e_next.total!r} at t={t}"
        )
    return nxt, StepInfo(t=t, a=a, b=b, energy=e_next, trial_energy=e_trial)


def _initial_density(
    sys: AtomSystem, grid: RadialGrid, options: SolverOptions, eigensolves: list
) -> DensityMatrix:
    guess = options.initial_guess
    if guess in ("h0", "screened"):
        Z_eff = sys.Z if guess == "h0" else max(sys.Z - 0.5 * max(sys.N - 1, 0), 0.5)
        fock = fock_build(DensityMatrix({}), grid, replace(sys, Z=Z_eff),
                          ell_max=options.ell_max, eigensolves=eigensolves)
        return aufbau_projection(fock, sys.N)
    # hydrogenic radial seeds on the s-shells of the aufbau ordering
    return density_from_shells(default_shells(sys), sys, grid)


def density_from_shells(shells, sys: AtomSystem, grid: RadialGrid) -> DensityMatrix:
    """Hydrogen-like radial functions per shell, orthonormalized per channel."""
    r = grid.nodes
    per_channel: dict[tuple[int, int], list[tuple[np.ndarray, float]]] = {}
    counter: dict[tuple[int, int], int] = {}
    for shell in shells:
        key = (shell.ell, shell.spin)
        k = counter.get(key, 0)
        counter[key] = k + 1
        npr = shell.ell + 1 + k          # principal quantum number
        zeff = max(sys.Z - 0.3 * k, 0.7)
        x = 2.0 * zeff * r / npr
        P = r ** (shell.ell + 1) * np.exp(-zeff * r / npr) * np.polynomial.laguerre.lagval(
            x, [0.0] * k + [1.0]
        )
        per_channel.setdefault(key, []).append((P, shell.occupation))
    blocks = {}
    for key, entries in per_channel.items():
        B = np.column_stack([p for (p, _f) in entries])
        occ = np.array([f for (_p, f) in entries])
        # Gram-Schmidt in the grid inner product, stable enough for seeds
        Q, _ = np.linalg.qr(B * np.sqrt(grid.h))
        blocks[key] = ChannelBlock(orbitals=Q / np.sqrt(grid.h), occupations=occ)
    return DensityMatrix(blocks)


def _final_eigen_table(fock: FockOperator, gamma: DensityMatrix, count: int):
    """Merged eigenvalue table with occupations matched by subspace overlap."""
    spectra = _channel_spectra(fock, count)
    grid = fock.grid
    table = []
    for (ell, spin), (vals, vecs) in sorted(spectra.items()):
        blk = gamma.blocks.get((ell, spin))
        for idx, val in enumerate(vals):
            occ = 0.0
            if blk is not None and blk.m:
                coef = grid.h * blk.orbitals.T @ vecs[:, idx]
                occ = float(coef @ (blk.occupations * coef))
            table.append(
                (ell, spin, idx, float(val), float(val) / fock.system.alpha,
                 occ)
            )
    table.sort(key=lambda t: (t[3], t[0], t[1]))
    return table


def solve_scf(sys: AtomSystem, options: SolverOptions) -> tuple[SCFReport, DensityMatrix]:
    """Minimize the functional; returns the report and the final density.

    Raises NotConverged (with the best iterate attached) when the
    tolerances are not met within max_iter iterations, or when an
    optimal-damping step takes t = 0 without meeting them.
    """
    sys = validate_system(sys)
    opts = options.validated()
    ell_max = opts.ell_max
    grid = build_grid(opts.n, opts.r_max)

    eigensolves: list = []      # one record per LOBPCG solve of every operator built
    gamma = _initial_density(sys, grid, opts, eigensolves)
    energy = total_energy(gamma, grid, sys)
    trace = [energy]
    steps = []

    converged = False
    stalled = False
    iterations = 0
    for it in range(1, opts.max_iter + 1):
        iterations = it
        fock = fock_build(gamma, grid, sys, ell_max=ell_max, eigensolves=eigensolves)
        residual = commutator_residual(fock, gamma)
        gamma_next, step = oda_step(gamma, fock, energy)
        dE = energy.total - step.energy.total
        log.debug(
            "iter %3d  E=%.12f  dE=%.3e  t=%.3f  resid=%.3e",
            it, step.energy.total, dE, step.t, residual,
        )
        gamma, energy = gamma_next, step.energy
        trace.append(energy)
        steps.append({
            "iteration": it, "E": energy.total, "dE": dE, "t": float(step.t),
            "a": float(step.a), "b": float(step.b), "commutator_residual": residual,
        })
        if abs(dE) < opts.tol_energy and residual < opts.tol_commutator:
            converged = True
            break
        if step.t <= 0.0:
            # a t = 0 step keeps gamma, and every solve is deterministic,
            # so each later iteration would repeat this one bit for bit
            stalled = True
            break

    # purity finish: adopt the aufbau projection when it does not raise
    # energy; also clears stray near-zero occupations left by the last mix
    if gamma.max_impurity() > 0.0:
        fock = fock_build(gamma, grid, sys, ell_max=ell_max, eigensolves=eigensolves)
        pure = aufbau_projection(fock, sys.N)
        e_pure = total_energy(pure, grid, sys)
        if e_pure.total <= energy.total + DESCENT_SLACK * (1 + abs(energy.total)):
            gamma, energy = pure, e_pure
            trace.append(energy)

    # after a t = 0 step or a rejected purity finish, `fock` is already the
    # operator of the final density (matrix-free, it then solves its table
    # beside its fill)
    final_fock = fock if fock.gamma is gamma else fock_build(
        gamma, grid, sys, ell_max=ell_max, eigensolves=eigensolves)
    residual = commutator_residual(final_fock, gamma)
    orb_res = orbital_residuals(final_fock, gamma)
    table = _final_eigen_table(final_fock, gamma, _levels_needed(sys.N))
    if converged:
        message = ""
    elif stalled:
        message = f"optimal damping stalled at iteration {iterations} (t = 0)"
    else:
        message = "iteration cap reached"
    report = SCFReport(
        converged=converged,
        iterations=iterations,
        energy=energy,
        energy_trace=trace,
        eigenvalues=table,
        occupations=[
            {"ell": ell, "spin": spin, "index": idx, "f": f, "lambda": lam}
            for (ell, spin, idx, f, lam) in gamma.occupation_list()
        ],
        commutator_residual=residual,
        max_orbital_residual=max((r for *_, r in orb_res), default=0.0),
        anion_regime=sys.N >= sys.Z + 1,
        message=message,
        steps=steps,
        eigensolves=_eigensolve_summary(eigensolves),
        fock=final_fock,
    )
    if not converged:
        reason = message if stalled else f"no convergence within {opts.max_iter} iterations"
        raise NotConverged(
            f"{reason} (|dE| tol {opts.tol_energy}, commutator tol {opts.tol_commutator})",
            report=report,
            density=gamma,
        )
    return report, gamma

