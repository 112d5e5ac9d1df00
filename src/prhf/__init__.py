"""Pseudorelativistic Hartree-Fock for atoms: solver plus verification harness."""

from .analysis import (
    DecayFit,
    binding_monotonicity,
    decay_fit,
    herbst_bound_check,
    kato_probe,
    minimizer_certificate,
)
from .coulomb import (
    ChannelBlock,
    DensityMatrix,
    angular_coefficient,
    energy_terms,
    exchange_matrix,
    hartree_potential,
    reduced_density,
    slater_yk,
)
from .errors import (
    BadCount,
    BadGrid,
    BoundViolated,
    ConfigError,
    DomainError,
    EigFailure,
    EnergyBoundViolated,
    LengthMismatch,
    LineSearchFailure,
    NonFiniteEnergy,
    NotAdmissible,
    NotConverged,
    SolverError,
    SubcriticalityViolated,
    TraceMismatch,
    WindowTooNoisy,
)
from .functional import EnergyBreakdown, line_coefficients, rank2_delta, total_energy
from .greens import (
    GreensKernel,
    bessel_k,
    greens_kernel,
    nu_of_energy,
    radial_convolution,
    resolvent_apply,
)
from .model import (
    AtomSystem,
    ShellSpec,
    SolverOptions,
    default_shells,
    validate_system,
)
from .radial import (
    ChannelOperator,
    RadialGrid,
    build_grid,
    channel_laplacian,
    inner,
    integrate,
    kinetic_operator,
    spectral_function,
)
from .scf import (
    FockOperator,
    SCFReport,
    aufbau_projection,
    fock_build,
    oda_step,
    solve_scf,
)

__version__ = "0.1.0"
