"""Post-hoc certification of converged solutions.

Each check is a hard assertion with an explicit tolerance; reports
serialize measured values next to their thresholds so a failed clause
is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # loaded with the module, not on verify's first Kato battery

from .coulomb import DensityMatrix
from .errors import BoundViolated, WindowTooNoisy
from .greens import nu_of_energy
from .model import AtomSystem, SolverOptions, validate_system
from .radial import RadialGrid, dst, gram, inner, integrate, laplacian_symbol
from .scf import (
    FockOperator, _channel_spectra, _levels_needed, fock_build, orbital_residuals, solve_scf,
)

NOISE_FLOOR_REL = 1e-14
# the automatic fit window ends where |P| falls below this fraction of
# its peak: far enough above the 1e-14 roundoff of the eigensolvers that
# a roundoff-size change of the orbital does not move the fitted rate
WINDOW_END_REL = 1e-9
MIN_WINDOW_POINTS = 20
EFOLD_SPAN = 6.5
# a fit window must end this fraction of r_max short of the Dirichlet wall
WINDOW_REACH = 0.75


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential rate of one orbital tail."""

    orbital_id: str
    window: tuple[float, float]
    beta_hat: float
    residual: float
    nu_predicted: float
    efolds: float


def window_error(window: tuple[float, float], r_max: float) -> str | None:
    """Why a decay-fit window cannot be fitted on a box of radius r_max; None if it can."""
    r1, r2 = window
    if 0.0 < r1 < r2 <= WINDOW_REACH * r_max + 1e-12:
        return None
    return f"window [{r1:.3g}, {r2:.3g}] must sit inside (0, {WINDOW_REACH}*r_max]"


def _auto_window(P: np.ndarray, grid: RadialGrid, nu_est: float) -> tuple[float, float]:
    """Rightmost clean window: away from the Dirichlet wall, above noise."""
    absP = np.abs(P)
    usable = absP > WINDOW_END_REL * float(absP.max())
    r_hi_wall = 0.7 * grid.r_max
    idx = np.nonzero(usable & (grid.nodes <= r_hi_wall))[0]
    if idx.size == 0:
        raise WindowTooNoisy("no usable tail above the noise floor")
    r2 = grid.nodes[idx[-1]]
    r1 = r2 - EFOLD_SPAN / nu_est
    peak = grid.nodes[int(np.argmax(absP))]
    r1 = max(r1, 1.3 * peak + 2.0 * grid.h)     # two spacings: uniform grid only
    return (r1, r2)


def decay_fit(
    orbital: np.ndarray,
    eps: float,
    grid: RadialGrid,
    alpha: float,
    window: tuple[float, float] | None = None,
    orbital_id: str = "",
    charge: float | None = None,
) -> DecayFit:
    """Fit log|P(r)/r| ~ -beta r on a tail window; compare against nu(eps).

    With the asymptotic charge Z - N + 1 given, the Coulomb power law of
    the tail, P/r ~ r^p e^{-nu r} with p = (1 + alpha eps) charge / nu - 1,
    is removed before the fit; without it the tail is taken as a pure
    exponential.

    Raises WindowTooNoisy when the tail magnitude reaches the quadrature
    noise floor inside the window (or the window collapses).
    """
    P = np.asarray(orbital, dtype=float)
    nu_pred = nu_of_energy(eps, alpha)
    if window is None:
        window = _auto_window(P, grid, nu_pred)
    r1, r2 = window
    problem = window_error(window, grid.r_max)
    if problem is not None:
        raise WindowTooNoisy(problem)
    sel = (grid.nodes >= r1) & (grid.nodes <= r2)
    if np.count_nonzero(sel) < MIN_WINDOW_POINTS:
        raise WindowTooNoisy(f"fewer than {MIN_WINDOW_POINTS} nodes in the fit window")
    r = grid.nodes[sel]
    vals = np.abs(P[sel])
    floor = NOISE_FLOOR_REL * float(np.abs(P).max())
    if np.any(vals <= floor):
        raise WindowTooNoisy("tail magnitude reaches the noise floor inside the window")
    y = np.log(vals / r)
    efolds = float(y[0] - y[-1])
    if charge is not None:
        y -= ((1.0 + alpha * eps) * charge / nu_pred - 1.0) * np.log(r)
    slope, intercept = np.polyfit(r, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * r + intercept)) ** 2)))
    return DecayFit(
        orbital_id=orbital_id,
        window=(float(r1), float(r2)),
        beta_hat=float(-slope),
        residual=resid,
        nu_predicted=nu_pred,
        efolds=efolds,
    )


@dataclass
class CertificateReport:
    clauses: dict
    passed: bool


def minimizer_certificate(gamma: DensityMatrix, fock: FockOperator) -> CertificateReport:
    """Check the structural properties of a converged minimizer.

    `fock` is the Fock operator of gamma; the system, the grid and the
    channels checked are its own. (a) occupations within 1e-6 of {0,1};
    (b) trace equals N; (c) the occupied levels are the N lowest across
    channels (tie tolerance 1e-8 alpha^-1); (d) occupied eigenvalues in
    (-alpha^-1, 0); (e) per-orbital eigen-residual below 1e-7 alpha^-1.
    """
    sys, grid = fock.system, fock.grid
    ainv = sys.alpha_inv
    clauses = {}

    impurity = gamma.max_impurity()
    clauses["idempotent"] = {
        "passed": impurity <= 1e-6, "measured": impurity, "tolerance": 1e-6,
    }

    tr_err = abs(gamma.trace() - sys.N)
    clauses["trace"] = {
        "passed": tr_err <= 1e-9, "measured": tr_err, "tolerance": 1e-9,
    }

    # occupied Rayleigh values and residuals, and the lowest levels
    # orthogonal to the occupied orbitals
    occupied = orbital_residuals(fock, gamma)
    occ_eps = [eps for _key, _idx, eps, _res in occupied]
    unocc_eps = []
    spectra = _channel_spectra(fock, _levels_needed(sys.N))
    for key, (vals, vecs) in spectra.items():
        blk = gamma.blocks.get(key)
        if blk is not None and blk.m:
            overlaps = gram(grid, blk.orbitals, vecs)   # (m, k)
            proj = np.sum(overlaps**2, axis=0)
        else:
            proj = np.zeros(vals.size)
        for i, val in enumerate(vals):
            if proj[i] < 0.5:
                unocc_eps.append(float(val))
    worst_gap = -np.inf
    if occ_eps and unocc_eps:
        worst_gap = max(occ_eps) - min(unocc_eps)
    clauses["aufbau"] = {
        "passed": worst_gap <= 1e-8 * ainv,
        "measured": worst_gap,
        "tolerance": 1e-8 * ainv,
        "detail": "max occupied eigenvalue minus min unoccupied",
    }

    eps_arr = np.array(occ_eps) if occ_eps else np.array([np.nan])
    neg_ok = bool(np.all(eps_arr < 0.0) and np.all(eps_arr > -ainv))
    clauses["negativity"] = {
        "passed": neg_ok,
        "measured": [float(eps_arr.max()), float(eps_arr.min())],
        "tolerance": [0.0, -ainv],
    }

    worst_res = max((res for *_, res in occupied), default=0.0)
    clauses["hf_equations"] = {
        "passed": worst_res <= 1e-7 * ainv,
        "measured": worst_res,
        "tolerance": 1e-7 * ainv,
    }

    return CertificateReport(clauses=clauses, passed=all(c["passed"] for c in clauses.values()))


def kato_probe(u: np.ndarray, grid: RadialGrid) -> tuple[float, float]:
    """(int u^2/r dr, (pi/2) <u, |p| u>) for an s-channel function u.

    |p| is the square root of the ell = 0 Laplacian, diagonal under the
    DST-I, so rhs is a Parseval sum: uniform grid only. The coupling
    inequality lhs <= rhs holds up to discretization slack (5e-3 is the
    acceptance tolerance).
    """
    u = np.asarray(u, dtype=float)
    coef = dst(u)
    rhs = 0.5 * np.pi * grid.h * float(coef @ (np.sqrt(laplacian_symbol(grid)) * coef))
    lhs = integrate(grid, u * u / grid.nodes)
    return lhs, rhs


def random_smooth_battery(grid: RadialGrid, count: int, seed: int, modes: int = 30):
    """Deterministic battery of normalized smooth s-channel probe functions."""
    rng = np.random.default_rng(seed)
    basis = np.sin(np.outer(grid.nodes, np.arange(1, modes + 1)) * np.pi / grid.r_max)
    out = []
    for _ in range(count):
        c = rng.standard_normal(modes) / np.arange(1, modes + 1)
        u = basis @ c
        u /= np.sqrt(inner(grid, u, u))
        out.append(u)
    return out


def herbst_bound_check(sys: AtomSystem, grid: RadialGrid) -> dict:
    """Lowest discretized eigenvalue of h0 against the analytic lower bound.

    h0 = T - Z alpha/r is the Fock operator of the empty density with the
    paper's square-root T, whatever kinetic law `sys` carries. Its lowest
    level lies on ell = 0, since T_ell grows with ell. Bound:
    alpha^-1 (sqrt(1 - (pi Z alpha / 2)^2) - 1), with a slack of
    1e-8 alpha^-1. Violation raises BoundViolated (it would signal an
    inconsistent discretization).
    """
    ainv = sys.alpha_inv
    tol = 1e-8 * ainv
    bound = ainv * (np.sqrt(max(1.0 - (np.pi * sys.z_alpha / 2.0) ** 2, 0.0)) - 1.0)
    h0 = fock_build(DensityMatrix({}), grid, replace(sys, kinetic="pseudorelativistic"), 0)
    spectra = _channel_spectra(h0, 1)
    lowest = min(float(vals[0]) for vals, _vecs in spectra.values())
    ok = lowest >= bound - tol
    report = {
        "Z": sys.Z, "alpha": sys.alpha, "bound": bound,
        "min_eigenvalue": lowest, "margin": lowest - bound, "passed": bool(ok),
    }
    if not ok:
        raise BoundViolated(
            f"lowest eigenvalue {lowest} undercuts the bound {bound} by more than {tol}"
        )
    return report


def binding_monotonicity(
    system: AtomSystem, N_max: int, options: SolverOptions,
    _known: dict[int, tuple[float, float]] | None = None,
) -> tuple[list[dict], bool]:
    """E(N) table for N = 1..N_max of `system`, checking that E(N) decreases.

    Every row is `system` with its electron count replaced, so Z, alpha,
    q and the kinetic law are the template's. Each step must gain at
    least half the (Hartree-scale) frontier eigenvalue of the larger-N
    run. Propagates NotConverged. `_known` maps N to the (total, HOMO
    eigenvalue) of a converged solve with these options, which then is
    not solved again.
    """
    alpha = system.alpha
    rows = []
    prev_total = None
    all_ok = True
    for N in range(1, N_max + 1):
        if _known and N in _known:
            total, eps_homo = _known[N]
        else:
            report, _gamma = solve_scf(validate_system(replace(system, N=N)), options)
            occ_eps = [e for (ell, s, i, e, eh, occ) in report.eigenvalues if occ > 0.5]
            total = report.energy.total
            eps_homo = max(occ_eps) if occ_eps else float("nan")
        row = {
            "N": N,
            "total": total,
            "eps_homo_hartree": eps_homo / alpha,
            "gap_prev": None,
            "gap_required": None,
            "ok": True,
        }
        if prev_total is not None:
            gap = prev_total - total
            required = 0.5 * abs(eps_homo / alpha)
            row["gap_prev"] = gap
            row["gap_required"] = required
            row["ok"] = bool(gap >= required)
            all_ok = all_ok and row["ok"]
        rows.append(row)
        prev_total = total
    return rows, all_ok
