"""Fock operator and self-consistent minimization over density matrices.

The minimization walks the convex set {0 <= gamma <= Id, Tr gamma = N}
by optimal damping (Cances and Le Bris, IJQC 79 (2000)): each iteration
diagonalizes the current Fock operator, fills the lowest levels
(aufbau), and takes the exact minimizer of the quadratic energy
restriction along the segment towards that trial. Energy descent is
monotone by construction; a violation raises LineSearchFailure because
it can only come from a bug. The levels come from `eigen`; this module
chooses the solver, the start block and the preconditioner per channel.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import numpy.polynomial  # loaded with the module, not on the first cold start

from .coulomb import (
    ChannelBlock,
    DensityMatrix,
    combine,
    exchange_apply,
    exchange_matrix,
    hartree_potential,
    reduced_density,
)
from . import eigen
from .errors import EigFailure, LineSearchFailure, NotConverged
from .functional import EnergyBreakdown, line_coefficients, total_energy
from .model import AtomSystem, SolverOptions, default_shells, validate_system
from .radial import (RadialGrid, build_grid, column_inner, dst, from_unit, gram, integrate,
                     kinetic_operator, to_unit)

log = logging.getLogger(__name__)

OCC_DROP = 1e-13          # discard mixed eigenvalues below this weight
DESCENT_SLACK = 1e-12     # per-step slack on monotone descent
# a line whose coefficients a and b are both within this many (1 + |E|)
# of zero is flat to roundoff: the step keeps gamma (t = 0). A one-electron
# system's first trial is its h0 density again, and a, b ~ 1e-15 there.
LINE_ROUNDOFF = 32.0 * np.finfo(float).eps
# LOBPCG on matrix-free channels, whose preconditioner takes no constant
# (each column is shifted by its own Ritz value, `_lobpcg_levels`): residual
# tolerances relative to the operator's norm. LOBPCG_RTOL is for fills whose
# columns can become the orbitals written out (their tails must hold down
# to 1e-11 of their peak for the decay fits): the h0 start, the purity
# finish, and every SCF iteration whose commutator residual r already meets
# tol_commutator, since that iteration may be the last and its trial the
# final state. Any other SCF fill is only a search direction, whose true
# energy the line search evaluates, so it solves to
# max(LOBPCG_RTOL, min(LOBPCG_FILL_CAP, LOBPCG_FILL_FACTOR * r)) (`_fill_rtol`),
# the residual-tied tolerance of DFTK's adaptive diagtol (Herbst, Levitt
# and Cances, JuliaCon Proc. 3 (2021) 69). On He at n = 1600 this cuts the
# LOBPCG work from 208 to 162, and on Li (n = 1200) from 1776 to 1324, with
# the same iterations; occupied levels move by at most 1.0e-11 Ha on He, Li
# and Be, n = 400 to 1600. Looser rules failed: a cap of 1e-6 left the
# first fills loose enough to move Be's 1s level 4.9e-10 Ha at every n,
# loose fills in every iteration left He's written orbitals from a loose
# final trial (its last step takes t = 1), a factor of 1e-4 moved He's
# level 2.2e-10 Ha, and one of 1e-2 changes He's path. LOBPCG_LEVEL_RTOL is
# for level tables, of which only eigenvalues and overlaps are read. A
# table's block ends at its channel's lowest unoccupied level, often a box
# state close below the next one, and LOBPCG fixes that column only to the
# tolerance over the gap: at 1e-11 the spin-down table of Li (n = 1200)
# from a warm and from a cold start differed by 1.0e-10 in its projector,
# at 1e-12 by 3.9e-12, with the same iterations on He and Li. Then
# the iteration cap, the factor on the tolerance above which a residual
# hands the channel to the dense eigensolve, and the factor on the
# operator's norm bound past which a Ritz value shows a diverged solve
# (a Rayleigh quotient of the operator cannot leave its norm).
LOBPCG_RTOL = 1e-15
LOBPCG_FILL_FACTOR = 1e-5
LOBPCG_FILL_CAP = 1e-8
LOBPCG_LEVEL_RTOL = 1e-12
LOBPCG_MAXITER = 200
LOBPCG_SLACK = 10.0
LOBPCG_DIVERGED = 100.0
# the one SCF algorithm: report.json's `algorithm`, which a config may name
ALGORITHM = "optimal-damping"


def _fill_rtol(residual: float, tol_commutator: float) -> float:
    """LOBPCG tolerance of an SCF iteration's aufbau fill from its commutator residual.

    LOBPCG_RTOL once the residual meets tol_commutator, the residual-tied
    search-direction tolerance otherwise (see LOBPCG_FILL_FACTOR).
    """
    if residual < tol_commutator:
        return LOBPCG_RTOL
    return max(LOBPCG_RTOL, min(LOBPCG_FILL_CAP, LOBPCG_FILL_FACTOR * residual))


@dataclass(frozen=True)
class Level:
    """Level `index` of channel (ell, spin) in a level table (`FockOperator.levels`).

    value / alpha is in hartree. With coef the level's overlaps with gamma's
    orbitals on the channel, `occupation` = coef^T f coef and `projection` =
    |coef|^2; both are 0 where gamma holds no orbital.
    """

    ell: int
    spin: int
    index: int
    value: float
    occupation: float
    projection: float


@dataclass
class FockOperator:
    """Per-channel Fock operator F = h0 + G(gamma) of one density gamma.

    h0 = T - Z*alpha/r is the one-body part; G(gamma) = alpha*(R - K) is
    the two-body part, linear in gamma, which `two_body_apply` applies.
    Its channels, ell = 0..ell_max for every spin, are the channel set of
    the run: the SCF stages and the certificate take gamma, the grid, the
    system and the channels from the operator alone.

    An operator whose channels are all s-channels (ell_max = 0) is
    matrix-free: `apply` takes T through the DST-I, the local potential
    as a vector and exchange through slater_yk sweeps, and its levels
    come from the block LOBPCG of `eigen.lobpcg` (`_lobpcg_levels`): the
    aufbau fill asks each spin group for the levels it can reach, at the
    tolerance its caller passes (LOBPCG_RTOL, or `_fill_rtol` of the
    commutator residual for an SCF search direction), and a level table
    asks for one level more than gamma has orbitals on the channel, at
    the looser level tolerance.
    Each solve starts from the orbitals of gamma on its channel,
    completed by hydrogenic seeds at the operator's charge
    (`_start_block`), and falls back to a dense eigh of its own apply if
    its residuals fail: it never builds `matrices`. Any other operator
    applies its dense `matrices`, which are assembled on first access
    only, and computes its fill and its table by one `eigh` per spin
    group and channel, all in one `eigen.dense` call (`_dense_levels`),
    whatever the tolerance asked. Nothing is modified after the build (a
    dense solve factors a matrix in place and restores its bits before
    it returns), so each eigensolve (channel, count, tolerance) runs
    once and is kept: a level table read twice is solved once. Every
    LOBPCG solve appends a (block, iterations, warm, fell back to dense,
    rtol) record to `eigensolves`, a list the caller may share between
    operators.

    `groups` are the spins that hold the same block objects of gamma on
    every channel (`DensityMatrix` shares bytes-equal spin partners); their
    operators are one operator. F applied to gamma's own blocks
    (`own_products`) is computed once per spin group and kept, for the
    commutator residual, the orbital residuals and the line search.
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
        """Dense channel matrices; spins of one group share one array.

        Each is T - alpha K formed in the array of K, with the potential
        added on the diagonal only: (T_ii + potential_i) - alpha K_ii.
        """
        matrices: dict[tuple[int, int], np.ndarray] = {}
        for ell, kin in enumerate(self.kinetic):
            T = kin.matrix
            for grp in self.groups:
                H = exchange_matrix(self.gamma, ell, grp[0], self.grid)
                H *= self.system.alpha
                diagonal = (T.diagonal() + self.potential) - H.diagonal()
                # T and K are each exactly symmetric, so H is too
                np.subtract(T, H, out=H)
                np.fill_diagonal(H, diagonal)
                for spin in grp:
                    matrices[(ell, spin)] = H
        return matrices

    @functools.cached_property
    def levels(self) -> list[Level]:
        """The level table: gamma's occupied levels, each channel's lowest unoccupied one."""
        return _level_table(self)

    def group(self, key: tuple[int, int]) -> int:
        """The index of the spin group of channel key: channels of one group share F."""
        return next(i for i, grp in enumerate(self.groups) if key[1] in grp)

    def products(self, dm: DensityMatrix, apply=None) -> dict[tuple[int, int], np.ndarray]:
        """apply(key, orbitals) for every block of dm, F's own `apply` by default.

        `apply` is an operator with this operator's spin groups. Each block
        object is applied once per spin group; F times gamma's own blocks is
        `own_products`.
        """
        if apply is None:
            if dm is self.gamma:
                return self.own_products
            apply = self.apply
        return dict(zip(dm.blocks, dm.once_per_block(lambda key, blk: apply(key, blk.orbitals),
                                                     self.group)))

    @functools.cached_property
    def own_products(self) -> dict[tuple[int, int], np.ndarray]:
        """F times the orbitals of each block of gamma, one array per spin group."""
        return self.products(self.gamma, self.apply)

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
    """The record of one solve; `fock` is the operator of its final density.

    The final state itself (its density, occupations and level table) is
    read from `fock`. The table (`fock.levels`) is solved when it,
    `eigensolves` or `as_dict()` is first read, and kept: a caller that
    reads only the energy and the occupied orbitals, such as the binding
    rows, never pays for it.
    """

    converged: bool
    iterations: int
    # the energy of the initial density, then of every density adopted
    energy_trace: list
    commutator_residual: float
    max_orbital_residual: float
    message: str
    # one record per iteration: E, dE, t, a, b, commutator_residual
    steps: list
    # the operator of the final density; not serialized
    fock: FockOperator = field(repr=False, compare=False)

    @property
    def energy(self) -> EnergyBreakdown:
        """The energy of the final density, the last of `energy_trace`."""
        return self.energy_trace[-1]

    @functools.cached_property
    def eigensolves(self) -> dict:
        """The eigensolver's work over the whole solve, its level table last (`_eigensolve_summary`).

        The records of `fock.eigensolves`, which every operator of the
        solve shares, once the table is solved. The certificate asks for
        the table's levels: when it solves them first, it leaves the same
        records.
        """
        self.fock.levels        # solved first
        return _eigensolve_summary(self.fock.eigensolves)

    def as_dict(self) -> dict:
        sys, gamma = self.fock.system, self.fock.gamma
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "algorithm": ALGORITHM,
            "energy": asdict(self.energy),
            "energy_trace": [asdict(e) for e in self.energy_trace],
            "eigenvalues": [
                {"ell": lv.ell, "spin": lv.spin, "index": lv.index, "value": lv.value,
                 "value_hartree": lv.value / sys.alpha, "occupation": lv.occupation}
                for lv in self.fock.levels
            ],
            "occupations": [
                {"ell": ell, "spin": spin, "index": idx, "f": f, "lambda": lam}
                for (ell, spin, idx, f, lam) in gamma.occupation_list()
            ],
            "commutator_residual": self.commutator_residual,
            "max_orbital_residual": self.max_orbital_residual,
            "anion_regime": sys.N >= sys.Z + 1,
            "message": self.message,
            "steps": self.steps,
            "eigensolves": self.eigensolves,
        }


def _spin_groups(gamma: DensityMatrix, q: int):
    """Group spins that hold the same block objects on every channel, to share work.

    `DensityMatrix` has already made bytes-equal spin partners one object.
    """
    groups: dict[tuple, list[int]] = {}
    for spin in range(q):
        key = tuple(gamma.owner[(ell, s)] for (ell, s) in gamma.blocks if s == spin)
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
        kinetic=[kinetic_operator(grid, ell, sys.alpha, sys.kinetic) for ell in range(ell_max + 1)],
        potential=-sys.z_alpha / grid.nodes + hartree, hartree=hartree,
        groups=_spin_groups(gamma, sys.q),
        eigensolves=[] if eigensolves is None else eigensolves,
    )


def _start_block(fock: FockOperator, key: tuple[int, int], k: int):
    """LOBPCG start block (warm, Y0) of a channel in DST-I coordinates.

    Column j is the density's orbital j on the channel, in its stored
    order, when the density has one; otherwise it is the normalized
    hydrogenic seed of principal number ell + 1 + j at the operator's
    charge Z (`_hydrogenic_seed`). The start is warm when it holds at
    least one orbital. A grid of fewer than 5 k nodes gets no block
    (Y0 is None): its dense solve reads none.
    """
    blk = fock.gamma.blocks.get(key)
    m = 0 if blk is None else min(blk.m, k)
    if fock.grid.n < 5 * k:
        return m > 0, None
    Y0 = np.empty((fock.grid.n, k))
    if m:
        Y0[:, :m] = dst(to_unit(fock.grid, blk.orbitals[:, :m]))
    if m < k:
        Z, r = fock.system.Z, fock.grid.nodes
        seeds = dst(np.column_stack([_hydrogenic_seed(key[0], j, Z, r) for j in range(m, k)]))
        Y0[:, m:] = seeds / np.linalg.norm(seeds, axis=0)
    return m > 0, Y0


def _lobpcg_levels(fock: FockOperator, key: tuple[int, int], k: int, rtol: float):
    """Lowest k eigenpairs of a matrix-free channel by preconditioned LOBPCG.

    The iteration (`eigen.lobpcg`) runs in DST-I coordinates y = S x (S is
    its own inverse), where the kinetic energy and the preconditioner are
    diagonal (uniform grid only): one transform pair per operator apply,
    none per preconditioner apply. Column j is preconditioned by
    (T - theta_j)^-1 at its current Ritz value theta_j when that is
    negative, a bound level, and by T^-1 otherwise, the band-energy shift
    of plane-wave codes (Teter, Payne and Allan, PRB 40 (1989) 12255).
    T's smallest symbol is positive on the Dirichlet grid under both
    kinetic laws and the shift max(-theta_j, 0) is never negative, so
    each is positive definite; a NaN Ritz value gives a NaN row. The
    residual tolerance is `rtol` times the operator's norm bound
    max T + max |V|, and a Ritz value past LOBPCG_DIVERGED times that
    bound ends the solve as diverged.

    The start block (`_start_block`) depends on the operator alone, so
    repeated solves agree bit for bit. Where its density has orbitals on
    the channel, which the SCF has converged to within its commutator
    residual, the solve starts warm from them. A solve whose residuals,
    from a fresh apply, exceed the tolerance by more than LOBPCG_SLACK
    falls back, so a wrong level never passes; a bad start costs one
    LOBPCG run to at most LOBPCG_MAXITER iterations and then the dense
    solve. A fallback and a grid of fewer than 5 k nodes, which has no
    start block, alike take that one dense solve (`eigen.dense`) of
    op(I), the operator in DST-I coordinates, mapped back. The solve is
    recorded in `fock.eigensolves` as (block, iterations, warm, fell
    back, rtol), with `eigen.lobpcg`'s count of applies after the first
    as its iterations (0 on a tiny grid).
    """
    t = fock.kinetic[key[0]].symbol[:, None]
    norm = t.max() + np.abs(fock.potential).max()
    tol = rtol * norm

    def op(Y):
        return t * Y + dst(fock.potential_apply(key, dst(Y)))

    def precondition(R, theta):
        return R / (t.T + np.maximum(-theta, 0.0)[:, None])

    warm, Y0 = _start_block(fock, key, k)
    its, fell_back = 0, False
    if Y0 is not None:
        vals, vecs, its = eigen.lobpcg(op, precondition, Y0, tol, LOBPCG_MAXITER,
                                       ceiling=LOBPCG_DIVERGED * norm)
        vecs = dst(vecs)
        # a diverged solve's residual may overflow to inf: this check judges it
        with np.errstate(over="ignore", invalid="ignore"):
            worst = float(np.max(np.linalg.norm(fock.apply(key, vecs) - vecs * vals, axis=0)))
        fell_back = not worst <= LOBPCG_SLACK * tol     # also catches a NaN residual
        if fell_back:
            log.warning("LOBPCG on channel %s left residual %.3e above %.3e; using dense eigh",
                        key, worst, LOBPCG_SLACK * tol)
    fock.eigensolves.append((k, its, warm, fell_back, rtol))
    if Y0 is None or fell_back:
        [(vals, vecs)] = eigen.dense([op(np.eye(fock.grid.n))], k)
        vecs = dst(vecs)
    # sign convention P > 0 at the first node, so the orbitals written out
    # do not depend on the start block, the iteration count or a fallback
    vecs *= np.where(vecs[0] < 0.0, -1.0, 1.0)
    return vals, vecs


def _eigensolve_summary(records: list) -> dict:
    """The `eigensolves` record of report.json from `_lobpcg_levels`' records.

    A solve's iterations are `eigen.lobpcg`'s block applies after the first,
    the one of the start block (0 on a dense solve). LOBPCG work is the
    sum of iterations * (1 + block): each iteration applies the operator
    to a block of new directions and LOBPCG's cost grows with the block
    width. `lobpcg_rtol` is each solve's residual tolerance relative to
    the operator's norm.
    """
    return {
        "lobpcg_solves": len(records),
        "lobpcg_blocks": [k for k, *_ in records],
        "lobpcg_iterations": [its for _k, its, *_ in records],
        "lobpcg_warm": [warm for _k, _its, warm, *_ in records],
        "lobpcg_rtol": [rtol for *_, rtol in records],
        "lobpcg_work": sum(its * (1 + k) for k, its, *_ in records),
        "dense_fallbacks": sum(fb for _k, _its, _warm, fb, _rtol in records),
    }


def _group_levels(fock: FockOperator, ell: int, grp: list, count: int, rtol: float):
    """Lowest `count` eigenpairs of channel ell of one spin group, grid-normalized.

    The one choice of eigensolver. A matrix-free channel runs one LOBPCG
    solve per (count, rtol). A dense channel's request is a slice of
    `_dense_levels`: a smaller subset would change the bits of the
    levels, and `rtol` does not concern it. Memoized on the operator;
    callers must not modify the arrays.
    """
    key = (ell, grp[0])
    k = min(count, fock.grid.n)
    if not fock.matrix_free:
        level = _dense_levels(fock, key, k)
    elif (level := fock._spectra.get((key, k, rtol))) is None:
        vals, vecs = _lobpcg_levels(fock, key, k, rtol)
        level = fock._spectra[(key, k, rtol)] = (vals, from_unit(fock.grid, vecs))
    return level[0][:k], level[1][:, :k]


def _dense_levels(fock: FockOperator, key: tuple[int, int], k: int):
    """At least k lowest eigenpairs of dense channel `key`, grid-normalized, kept on the operator.

    The first request solves every channel of every spin group at
    min(_levels_needed(N), n) levels in one `eigen.dense` call, which
    runs the solves side by side. It hands LAPACK `fock.matrices[key].T`,
    the F-ordered view of an exactly symmetric C array: the numbers of
    the copy it would make otherwise, without the copy. A channel asked
    for more levels is solved again alone.
    """
    if not fock._spectra:
        keys = [(ell, grp[0]) for ell in range(fock.ell_max + 1) for grp in fock.groups]
        _solve_dense(fock, keys, min(_levels_needed(fock.system.N), fock.grid.n))
    if len(fock._spectra[key][0]) < k:
        _solve_dense(fock, [key], k)
    return fock._spectra[key]


def _solve_dense(fock: FockOperator, keys: list, k: int) -> None:
    """Solve the dense channels `keys` at k levels in one call and keep them on the operator."""
    solved = eigen.dense([fock.matrices[key].T for key in keys], k)
    for key, (vals, vecs) in zip(keys, solved):
        fock._spectra[key] = (vals, from_unit(fock.grid, vecs))


def _levels_needed(N: float) -> int:
    """ceil(N) + 4: all electrons in one channel of unit capacity, plus four levels.

    The levels a dense channel solves once and slices for its fill and
    its table (a smaller subset would change neon's bits), and the fill's
    count when computed levels tie (`_channel_spectra`). Level tables
    (`FockOperator.levels`) ask for fewer.
    """
    return int(np.ceil(N)) + 4


def _fill_count(N: float, group_size: int, ell: int) -> int:
    """Levels of channel ell of one spin group that the aufbau fill can reach.

    The spins of a group share one spectrum, and the fill takes levels in
    (value, ell, spin, index) order. If a channel's levels are strictly
    increasing, its level j comes after levels 0..j-1 of every spin of
    the group, and those hold j * group_size * (2 ell + 1) electrons. So
    only the first ceil(N / (group_size (2 ell + 1))) levels can be
    filled.
    """
    return int(np.ceil(N / (group_size * (2 * ell + 1))))


def _channel_spectra(fock: FockOperator, N: float | None = None,
                     rtol: float = LOBPCG_LEVEL_RTOL) -> dict:
    """Eigenpairs per channel, one eigensolve per spin group: an aufbau fill's or the table's.

    The fill of N electrons asks each spin group for its `_fill_count`
    levels at the fill tolerance `rtol`, or for `_levels_needed(N)`
    levels when two of the computed levels tie, since the count rests on
    increasing levels. The level table (N None) asks a channel on which
    fock.gamma holds m orbitals for its m + 1 lowest levels, an empty
    channel for its lowest one: every occupied level and the channel's
    lowest unoccupied one, which is all the table's readers need
    (`analysis.minimizer_certificate` says why). Only the table's
    eigenvalues and overlaps are read (`_level_table`), so LOBPCG solves
    it at the level tolerance.
    """
    spectra = {}
    for ell in range(fock.ell_max + 1):
        for grp in fock.groups:
            blk = fock.gamma.blocks.get((ell, grp[0]))
            count = (1 if blk is None else blk.m + 1) if N is None else _fill_count(N, len(grp), ell)
            level = _group_levels(fock, ell, grp, count, rtol)
            if N is not None and not np.all(np.diff(level[0]) > 0.0):
                level = _group_levels(fock, ell, grp, _levels_needed(N), rtol)
            for spin in grp:
                spectra[(ell, spin)] = level
    return dict(sorted(spectra.items()))


def _merged(spectra: dict) -> list[tuple[float, int, int, int]]:
    """(value, ell, spin, index) of every level of `spectra`, sorted: the fill's and table's order.

    Equal values go to the lower ell, then the lower spin, then the lower index.
    """
    return sorted((float(val), ell, spin, idx)
                  for (ell, spin), (vals, _vecs) in spectra.items()
                  for idx, val in enumerate(vals))


def _fill(spectra: dict, N: float) -> dict[tuple[int, int], list[tuple[int, float]]]:
    """Bathtub fill of N electrons: the (index, occupation) picks per channel.

    Levels are taken in `_merged` order, capacity 2*ell+1 per level.
    """
    remaining = float(N)
    chosen: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for _val, ell, spin, idx in _merged(spectra):
        if remaining <= 1e-14:
            break
        f = min(float(2 * ell + 1), remaining)
        chosen.setdefault((ell, spin), []).append((idx, f))
        remaining -= f
    if remaining > 1e-12:
        raise EigFailure("not enough levels computed to place all electrons")
    return chosen


def _level_table(fock: FockOperator) -> list[Level]:
    """The levels of `_channel_spectra` in `_merged` order, matched to fock.gamma by overlap."""
    spectra = _channel_spectra(fock)
    table = []
    for val, ell, spin, idx in _merged(spectra):
        blk = fock.gamma.blocks.get((ell, spin))
        occ = proj = 0.0
        if blk is not None and blk.m:
            _vals, vecs = spectra[(ell, spin)]
            coef = gram(fock.grid, blk.orbitals, vecs[:, idx])
            occ, proj = float(coef @ (blk.occupations * coef)), float(coef @ coef)
        table.append(Level(ell, spin, idx, val, occ, proj))
    return table


def aufbau_projection(fock: FockOperator, N: float, rtol: float = LOBPCG_RTOL) -> DensityMatrix:
    """Occupy the N lowest Fock levels across channels (ties: lower ell, spin).

    A matrix-free channel solves its levels to `rtol` (`_channel_spectra`).
    """
    spectra = _channel_spectra(fock, N, rtol)
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
    def mix(key, blk):
        U, fv = to_unit(grid, blk.orbitals), blk.occupations
        Q, _ = np.linalg.qr(U)
        coef = Q.T @ U                  # columns of U in the Q basis
        M = (coef * fv) @ coef.T
        lam, V = np.linalg.eigh(0.5 * (M + M.T))
        ell = key[0]
        cap = 2 * ell + 1
        keep = lam > OCC_DROP * cap
        if not np.any(keep):
            return None
        lam = np.clip(lam[keep], 0.0, cap)
        V = V[:, keep]
        order = np.argsort(-lam, kind="stable")
        newC = from_unit(grid, (Q @ V)[:, order])
        return ChannelBlock(orbitals=newC, occupations=lam[order])

    # spin partners of the combination are one block, mixed once
    mixed = combine([(1.0 - t, ga), (t, gb)])
    return DensityMatrix({
        key: blk for key, blk in zip(mixed.blocks, mixed.once_per_block(mix)) if blk is not None
    })


def commutator_residual(fock: FockOperator, gamma: DensityMatrix) -> float:
    """Frobenius norm of [F, gamma] summed over channels with multiplicity.

    On a channel gamma = h C Lambda C^T with h C^T C = I. With
    M = h C^T F C and P the projector onto the columns of C, the squared
    norm is 2h |(1 - P) F C Lambda|^2 (occupied to virtual) plus
    |M Lambda - Lambda M|^2 (within the occupied span, nonzero only for
    fractional occupations). Both are sums of squares, so the norm does
    not cancel as a difference of traces would.
    """
    h = fock.grid.h     # h * (C^T W) keeps other bits than `gram`'s (h C^T) W
    products = fock.products(gamma)

    def norm2(key, blk):
        C = blk.orbitals
        lam = blk.occupations / (2 * key[0] + 1)
        W = products[key]
        M = h * (C.T @ W)
        virtual = (W - C @ M) * lam
        occupied = M * (lam[None, :] - lam[:, None])
        return (2 * key[0] + 1) * (2.0 * h * np.sum(virtual**2) + np.sum(occupied**2))

    total = 0.0     # a spin group's term, added once per spin
    for term in gamma.once_per_block(norm2, fock.group):
        total += term
    return float(np.sqrt(total))


def orbital_residuals(fock: FockOperator, gamma: DensityMatrix) -> list[tuple]:
    """(channel, index, eps, residual) of every occupied orbital P_a.

    eps = <P_a, F P_a> and residual = |F P_a - eps P_a|, both in the grid
    inner product, from F applied once per block and spin group (kept on
    the operator when gamma is its own density).
    """
    products = fock.products(gamma)

    def rows(key, blk):
        C, FC = blk.orbitals, products[key]
        eps = column_inner(fock.grid, C, FC)
        return eps, np.sqrt(integrate(fock.grid, (FC - C * eps) ** 2))

    out = []
    for (key, blk), (eps, res) in zip(gamma.blocks.items(), gamma.once_per_block(rows, fock.group)):
        out.extend((key, a, float(eps[a]), float(res[a])) for a in range(blk.m))
    return out


@dataclass
class StepInfo:
    t: float
    a: float
    b: float
    energy: EnergyBreakdown


def oda_step(
    fock: FockOperator, e_gamma: EnergyBreakdown, rtol: float = LOBPCG_RTOL,
) -> tuple[DensityMatrix, StepInfo]:
    """One optimal-damping step from gamma = fock.gamma, whose energy is e_gamma.

    Aufbau trial on the operator's channels, its levels solved to `rtol`,
    exact line search, mix.
    """
    grid, sys, gamma = fock.grid, fock.system, fock.gamma
    trial = aufbau_projection(fock, sys.N, rtol)
    e_trial = total_energy(trial, grid, sys)
    a, b = line_coefficients(fock, trial, e_gamma, e_trial)
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
    return nxt, StepInfo(t=t, a=a, b=b, energy=e_next)


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


def _hydrogenic_seed(ell: int, k: int, Z: float, r: np.ndarray) -> np.ndarray:
    """Hydrogen-like radial function with k nodes on channel ell at charge Z, unnormalized.

    Principal number npr = ell + 1 + k: r^(ell+1) exp(-Z r / npr) L_k(2 Z r / npr).
    """
    npr = ell + 1 + k
    x = 2.0 * Z * r / npr
    laguerre = np.polynomial.laguerre.lagval(x, [0.0] * k + [1.0])
    return r ** (ell + 1) * np.exp(-Z * r / npr) * laguerre


def density_from_shells(shells, sys: AtomSystem, grid: RadialGrid) -> DensityMatrix:
    """Hydrogen-like radial functions per shell, orthonormalized per channel."""
    r = grid.nodes
    per_channel: dict[tuple[int, int], list[tuple[np.ndarray, float]]] = {}
    counter: dict[tuple[int, int], int] = {}
    for shell in shells:
        key = (shell.ell, shell.spin)
        k = counter.get(key, 0)
        counter[key] = k + 1
        P = _hydrogenic_seed(shell.ell, k, max(sys.Z - 0.3 * k, 0.7), r)
        per_channel.setdefault(key, []).append((P, shell.occupation))
    blocks = {}
    for key, entries in per_channel.items():
        B = np.column_stack([p for (p, _f) in entries])
        occ = np.array([f for (_p, f) in entries])
        # Gram-Schmidt in the grid inner product, stable enough for seeds
        Q, _ = np.linalg.qr(to_unit(grid, B))
        blocks[key] = ChannelBlock(orbitals=from_unit(grid, Q), occupations=occ)
    return DensityMatrix(blocks)


def solve_scf(sys: AtomSystem, options: SolverOptions) -> tuple[SCFReport, DensityMatrix]:
    """Minimize the functional; returns the report and the final density.

    Raises NotConverged (with the report of the last iterate) when the
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
        # the trial is a search direction until the residual meets its tolerance
        rtol = _fill_rtol(residual, opts.tol_commutator)
        gamma_next, step = oda_step(fock, energy, rtol)
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
    # operator of the final density (matrix-free, its level table is then
    # solved beside its fill); rebinding it frees the old operator's
    # matrices before the final ones are built
    if fock.gamma is not gamma:
        fock = fock_build(gamma, grid, sys, ell_max=ell_max, eigensolves=eigensolves)
    residual = commutator_residual(fock, gamma)
    orb_res = orbital_residuals(fock, gamma)
    if converged:
        message = ""
    elif stalled:
        message = f"optimal damping stalled at iteration {iterations} (t = 0)"
    else:
        message = "iteration cap reached"
    report = SCFReport(
        converged=converged,
        iterations=iterations,
        energy_trace=trace,
        commutator_residual=residual,
        max_orbital_residual=max((r for *_, r in orb_res), default=0.0),
        message=message,
        steps=steps,
        fock=fock,
    )
    if not converged:
        reason = message if stalled else f"no convergence within {opts.max_iter} iterations"
        raise NotConverged(
            f"{reason} (|dE| tol {opts.tol_energy}, commutator tol {opts.tol_commutator})",
            report=report,
        )
    return report, gamma

