"""Exception types shared across the package."""


class SolverError(Exception):
    """Base class for all prhf errors."""


class SubcriticalityViolated(SolverError):
    """Z*alpha is at or beyond the 2/pi threshold the model requires."""


class BadCount(SolverError):
    """Electron count or spin multiplicity out of range."""


class BadGrid(SolverError):
    """Invalid radial grid parameters."""


class EigFailure(SolverError):
    """Dense symmetric eigendecomposition did not converge."""


class LengthMismatch(SolverError):
    """Array length does not match the grid."""


class NonFiniteEnergy(SolverError):
    """An energy contribution evaluated to NaN or infinity."""


class EnergyBoundViolated(SolverError):
    """A total energy fell below the -alpha^-2 * Tr gamma floor."""


class NotAdmissible(SolverError):
    """A perturbed density matrix leaves the convex set 0 <= gamma <= Id."""


class TraceMismatch(SolverError):
    """Two density matrices that must share a trace do not."""


class LineSearchFailure(SolverError):
    """An optimal-damping step raised the energy; indicates a bug."""


class NotConverged(SolverError):
    """SCF iteration ended without meeting its tolerances.

    Either the iteration cap was reached or an optimal-damping step
    took t = 0 (a stall: every later step would repeat it). Carries the
    best iterate and its diagnostics so callers can inspect or resume.
    """

    def __init__(self, message, report=None, density=None):
        super().__init__(message)
        self.report = report
        self.density = density


class WindowTooNoisy(SolverError):
    """Decay-fit window reaches the quadrature noise floor."""


class BoundViolated(SolverError):
    """A discretized eigenvalue undercut an analytic lower bound."""


class DomainError(SolverError):
    """Argument outside the mathematical domain of a special function."""


class ConfigError(SolverError):
    """Malformed or inconsistent run configuration."""
