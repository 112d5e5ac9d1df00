"""Physical parameters, shell configurations, and solver options.

Unit convention: hbar = e = m = 1 throughout. The kinetic operator is
sqrt(-Delta + alpha^-2) - alpha^-1 and one-body terms carry an alpha^-1
prefactor in the total energy, so reported totals come out on a
Hartree-like scale. The nonrelativistic comparison operator alpha*(-Delta)/2
is a model choice of the system, not a solver setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadCount, SubcriticalityViolated

TWO_OVER_PI = 2.0 / math.pi

FINE_STRUCTURE_ALPHA = 1.0 / 137.036

KINETICS = ("pseudorelativistic", "nonrelativistic")


@dataclass(frozen=True)
class AtomSystem:
    """An atom: nuclear charge Z, N electrons, coupling alpha, q spin states.

    `kinetic` is the kinetic law its electrons carry, one of KINETICS.
    """

    Z: float
    N: int
    alpha: float = FINE_STRUCTURE_ALPHA
    q: int = 2
    kinetic: str = "pseudorelativistic"

    @property
    def alpha_inv(self) -> float:
        return 1.0 / self.alpha

    @property
    def z_alpha(self) -> float:
        return self.Z * self.alpha


@dataclass(frozen=True)
class ShellSpec:
    """Occupation of one (ell, spin) shell; at most 2*ell+1 electrons per spin."""

    ell: int
    spin: int
    occupation: float


@dataclass(frozen=True)
class SolverOptions:
    """Numerical knobs of the optimal-damping SCF run.

    ell_max sets the channel set: the solver minimizes over the central-field
    channels ell = 0..ell_max, and every operator of the run carries them.
    """

    n: int = 1200
    r_max: float = 30.0
    max_iter: int = 200
    tol_energy: float = 1e-10
    tol_commutator: float = 1e-6
    initial_guess: str = "h0"
    ell_max: int = 0

    _GUESSES = ("h0", "screened", "shells")

    def validated(self) -> "SolverOptions":
        # every comparison is written so that NaN fails it
        if self.n < 16:
            raise BadCount(f"grid size n={self.n} below minimum 16")
        if not 0 < self.r_max < math.inf:
            raise BadCount(f"box radius r_max={self.r_max} must be positive and finite")
        if not (self.tol_energy > 0 and self.tol_commutator > 0):
            raise BadCount("tolerances must be positive")
        if self.max_iter < 1:
            raise BadCount("max_iter must be at least 1")
        if self.initial_guess not in self._GUESSES:
            raise BadCount(f"unknown initial guess {self.initial_guess!r}")
        if not (isinstance(self.ell_max, int) and self.ell_max >= 0):
            raise BadCount(f"ell_max={self.ell_max!r} must be a non-negative integer")
        return self


def validate_system(sys: AtomSystem) -> AtomSystem:
    """Check the admissibility gates and return the system unchanged.

    The subcritical condition is Z*alpha < 2/pi; the boundary case is
    refused. Every comparison is written so that NaN fails it.
    """
    if sys.N < 1:
        raise BadCount(f"electron count N={sys.N} must be >= 1")
    if sys.q < 1:
        raise BadCount(f"spin multiplicity q={sys.q} must be >= 1")
    if not 0 < sys.alpha < math.inf:
        raise BadCount(f"alpha={sys.alpha} must be positive and finite")
    if not sys.Z >= 0:
        raise BadCount(f"nuclear charge Z={sys.Z} must be non-negative")
    if sys.kinetic not in KINETICS:
        raise BadCount(f"unknown kinetic mode {sys.kinetic!r}")
    if not sys.z_alpha < TWO_OVER_PI:
        raise SubcriticalityViolated(
            f"Z*alpha = {sys.z_alpha:.12g} >= 2/pi = {TWO_OVER_PI:.12g}; "
            "the solver requires the strictly subcritical regime"
        )
    return sys


def default_shells(sys: AtomSystem) -> list[ShellSpec]:
    """Seed shell configuration: fill s-shells 1s, 2s, ... across spins.

    Each (shell, spin) slot takes at most one electron (2*ell+1 = 1 for
    ell = 0).
    """
    shells: list[ShellSpec] = []
    remaining = float(sys.N)
    while remaining > 0:
        for spin in range(sys.q):
            if remaining <= 0:
                break
            occ = min(1.0, remaining)
            shells.append(ShellSpec(ell=0, spin=spin, occupation=occ))
            remaining -= occ
    return shells
