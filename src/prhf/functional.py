"""Total-energy assembly, rank-two perturbation identity, exact line segments.

The functional is quadratic in the density matrix: the one-body part
(with its alpha^-1 prefactor) is linear and the direct-minus-exchange
pair is a quadratic form. Both the rank-two increment formula and the
exact quadratic restriction along convex segments follow from that
structure and are cross-checked against direct re-evaluation in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .coulomb import ChannelBlock, DensityMatrix, combine, energy_terms
from .errors import EnergyBoundViolated, NotAdmissible, TraceMismatch
from .model import AtomSystem
from .radial import RadialGrid, inner

if TYPE_CHECKING:
    from .scf import FockOperator

LOWER_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy contributions on the Hartree-like scale of the functional."""

    kinetic: float    # alpha^-1 Tr[T gamma]
    nuclear: float    # alpha^-1 Tr[V gamma], entered with a minus sign
    direct: float     # D(gamma)
    exchange: float   # Ex(gamma), entered with a minus sign
    total: float


def total_energy(gamma: DensityMatrix, grid: RadialGrid, sys: AtomSystem) -> EnergyBreakdown:
    """Assemble the functional value with the alpha^-1 one-body prefactor.

    Enforces the global floor total >= -alpha^-2 * Tr[gamma] as a hard
    runtime assertion; a breach signals an implementation bug, not a
    data condition.
    """
    tr_T, tr_V, D, Ex = energy_terms(gamma, grid, sys)
    ainv = sys.alpha_inv
    kin = ainv * tr_T
    nuc = ainv * tr_V
    tot = kin - nuc + D - Ex
    floor = -(ainv**2) * gamma.trace()
    if tot < floor - LOWER_BOUND_SLACK * (1.0 + abs(floor)):
        raise EnergyBoundViolated(
            f"total {tot} fell below -alpha^-2*Tr = {floor}"
        )
    return EnergyBreakdown(kinetic=kin, nuclear=nuc, direct=D, exchange=Ex, total=tot)


def _shell_traces(apply, dm: DensityMatrix, grid: RadialGrid):
    """Per channel of dm, sum_a f_a <P_a, A P_a> for A given by its blocked apply."""
    for key, blk in dm.blocks.items():
        vals = grid.h * np.einsum("ia,ia->a", blk.orbitals, apply(key, blk.orbitals))
        yield float(np.sum(blk.occupations * vals))


def rank2_delta(
    gamma: DensityMatrix,
    fock: FockOperator,
    u1: np.ndarray,
    u2: np.ndarray,
    eps1: float,
    eps2: float,
    ell1: int,
    spin1: int,
    ell2: int,
    spin2: int,
) -> float:
    """Energy change from gamma to gamma + eps1*u1u1* + eps2*u2u2*.

    `fock` is the Fock operator of gamma; the grid, the system and the
    channel set are its own. u1, u2 are orbitals of channels (ell1,
    spin1) and (ell2, spin2) with eigenvalue weights eps1, eps2 (a shell
    of 2*ell+1 degenerate orbitals each); for ell = 0 shells this is the
    literal rank-two increment

        alpha^-1 eps1 <u1,h u1> + alpha^-1 eps2 <u2,h u2> + eps1 eps2 R_u

    with R_u the antisymmetrized pair repulsion. In general it is
    alpha^-1 (Tr[F delta] + Tr[G(delta) delta] / 2) for delta = gamma~ -
    gamma and G the two-body part of the operator of delta. Because the
    functional is quadratic, this equals total_energy(gamma~) -
    total_energy(gamma) exactly (to rounding). A perturbation outside
    the operator's channels is not admissible.
    """
    from .scf import fock_build

    grid, sys = fock.grid, fock.system
    for u, ell, spin, eps in ((u1, ell1, spin1, eps1), (u2, ell2, spin2, eps2)):
        if not (0 <= ell <= fock.ell_max and 0 <= spin < sys.q):
            raise NotAdmissible(
                f"channel (ell={ell}, spin={spin}) is outside the operator's "
                f"channels ell <= {fock.ell_max}, spin < {sys.q}"
            )
        if abs(inner(grid, u, u) - 1.0) > 1e-8:
            raise NotAdmissible("perturbation orbitals must be normalized")
        blk = gamma.blocks.get((ell, spin))
        lam_here = 0.0
        if blk is not None and blk.m:
            # occupation gamma already assigns along u; exact when u matches
            # an eigenvector, a quadratic-form proxy otherwise
            coef = grid.h * blk.orbitals.T @ u
            lam_here = float(coef @ (blk.occupations / (2 * ell + 1) * coef))
        if not (-1e-12 - lam_here <= eps <= 1.0 - lam_here + 1e-12):
            raise NotAdmissible(
                f"weight eps={eps} pushes channel (ell={ell}, spin={spin}) "
                "outside 0 <= gamma <= Id"
            )
    if (ell1, spin1) == (ell2, spin2) and abs(inner(grid, u1, u2)) > 1e-8:
        raise NotAdmissible("perturbation orbitals must be mutually orthogonal")

    delta = combine(
        (eps, DensityMatrix({(ell, spin): ChannelBlock(u[:, None], np.array([2.0 * ell + 1]))}))
        for u, ell, spin, eps in ((u1, ell1, spin1, eps1), (u2, ell2, spin2, eps2))
    )
    g = fock_build(delta, grid, sys, ell_max=fock.ell_max).two_body_apply
    linear = sum(_shell_traces(fock.apply, delta, grid))
    return sys.alpha_inv * (linear + 0.5 * sum(_shell_traces(g, delta, grid)))


def line_coefficients(
    gamma: DensityMatrix,
    gamma_target: DensityMatrix,
    fock: FockOperator,
    e_gamma: EnergyBreakdown,
    e_target: EnergyBreakdown,
) -> tuple[float, float]:
    """Exact quadratic profile along the segment (1-t) gamma + t gamma_target.

    E(t) = E(gamma) + a t + b t^2 with a = alpha^-1 Tr[h_gamma (target -
    gamma)], h_gamma = `fock` the Fock operator of gamma, and b recovered
    from the energies e_gamma and e_target of the two ends.
    """
    if abs(gamma.trace() - gamma_target.trace()) > 1e-9:
        raise TraceMismatch(
            f"traces differ: {gamma.trace()} vs {gamma_target.trace()}"
        )
    a = 0.0
    for dm, sign in ((gamma_target, 1.0), (gamma, -1.0)):
        for tr in _shell_traces(fock.apply, dm, fock.grid):
            a += sign * tr
    a *= fock.system.alpha_inv
    b = e_target.total - e_gamma.total - a
    return a, b
