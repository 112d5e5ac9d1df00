"""Post-hoc certification of converged solutions, and verify's suites.

Each check is a hard assertion with an explicit tolerance; reports
serialize measured values next to their thresholds so a failed clause
is auditable. Each `*_suite` function (and `herbst_bound_check`) returns
one record of verify.json with its status decided inside it: "passed",
"failed", or "inconclusive" with a reason when the check cannot be
made. No suite raises to report its verdict.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import greens
from .coulomb import DensityMatrix
from .errors import DomainError, WindowTooNoisy
from .greens import nu_of_energy
from .model import AtomSystem, SolverOptions, validate_system
from .radial import (
    RadialGrid, build_grid, dst, inner, integrate, kinetic_operator, laplacian_symbol,
)
from .scf import FockOperator, fock_build, orbital_residuals, solve_scf

NOISE_FLOOR_REL = 1e-14
# the automatic fit window ends where |P| falls below this fraction of
# its peak: far enough above the 1e-14 roundoff of the eigensolvers that
# a roundoff-size change of the orbital does not move the fitted rate
WINDOW_END_REL = 1e-9
MIN_WINDOW_POINTS = 20
EFOLD_SPAN = 6.5
# a fit window must end this fraction of r_max short of the Dirichlet wall
WINDOW_REACH = 0.75
# the HOMO's fitted decay rate must match nu(eps_homo) to this fraction
DECAY_RATE_TOL = 0.05
# the coupling probe's worst lhs / rhs - 1 over the battery
KATO_TOL = 5e-3


def _status(passed: bool) -> str:
    return "passed" if passed else "failed"


def orbital_label(ell: int, spin: int, idx: int) -> str:
    """An orbital's name: its orbitals.csv column and its decay fit's id."""
    return f"P_l{ell}_s{spin}_{idx}"


def homo_eigenvalue(fock: FockOperator) -> float | None:
    """The HOMO of fock.gamma; None if no orbital is occupied above 0.5.

    The largest orbital energy <P_a, F P_a> over the orbitals whose
    occupation f_a exceeds 0.5 (`orbital_residuals`), Koopmans' ionization
    energy (Physica 1 (1934) 104). It needs no level table, and a stored
    solve read back gives the bits of the solve itself.
    """
    gamma = fock.gamma
    return max((eps for key, a, eps, _res in orbital_residuals(fock, gamma)
                if gamma.blocks[key].occupations[a] > 0.5), default=None)


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


def decay_suite(fock: FockOperator, window: tuple[float, float] | None = None) -> dict:
    """verify's decay record: a tail fit of every occupied orbital of fock.gamma.

    The HOMO's rate must match nu(eps_homo) to DECAY_RATE_TOL, every rate
    must reach 0.95 nu(eps_homo), and the rates must order like their
    predictions. A tail that cannot be fitted, or an occupied eigenvalue
    outside (-alpha^-1, 0), makes the suite inconclusive.
    """
    sys, gamma = fock.system, fock.gamma
    occupied = orbital_residuals(fock, gamma)
    fits = []
    try:
        for (ell, spin), idx, eps, _res in occupied:
            fits.append(decay_fit(
                gamma.blocks[(ell, spin)].orbitals[:, idx], eps, fock.grid, sys.alpha,
                window=window, orbital_id=orbital_label(ell, spin, idx),
                charge=sys.Z - sys.N + 1,
            ))
    except (WindowTooNoisy, DomainError) as exc:
        return {"status": "inconclusive", "reason": str(exc), "fits": [asdict(f) for f in fits]}
    eps_arr = np.array([eps for _key, _idx, eps, _res in occupied])
    homo_pos = int(np.argmax(eps_arr))
    nu_homo = nu_of_energy(float(eps_arr[homo_pos]), sys.alpha)
    homo_ok = abs(fits[homo_pos].beta_hat - nu_homo) <= DECAY_RATE_TOL * nu_homo
    lower_ok = all(f.beta_hat >= 0.95 * nu_homo for f in fits)
    # fitted rates must order like the predicted ones, for pairs whose
    # predictions are separated beyond the fit resolution
    ordering_ok = all(fi.beta_hat < fj.beta_hat for fi in fits for fj in fits
                      if fi.nu_predicted < fj.nu_predicted * (1.0 - 0.02))
    return {
        "status": _status(homo_ok and lower_ok and ordering_ok),
        "homo_rate_ok": bool(homo_ok),
        "all_above_095_nu_homo": bool(lower_ok),
        "ordering_ok": ordering_ok,
        "nu_homo": nu_homo,
        "tolerance": DECAY_RATE_TOL,
        "fits": [asdict(f) for f in fits],
    }


@dataclass
class CertificateReport:
    clauses: dict
    passed: bool


def minimizer_certificate(fock: FockOperator) -> CertificateReport:
    """Check the structural properties of a converged minimizer gamma = fock.gamma.

    The system, the grid and the channels checked are the operator's. (a)
    occupations within 1e-6 of {0,1}; (b) trace equals N; (c) the occupied
    levels are the N lowest across channels (tie tolerance 1e-8 alpha^-1);
    (d) occupied eigenvalues in (-alpha^-1, 0); (e) per-orbital
    eigen-residual below 1e-7 alpha^-1.

    Clause (c) reads the operator's level table (`fock.levels`): the m + 1
    lowest levels of a channel on which gamma holds m orbitals, where a
    level projecting below 0.5 onto gamma's orbitals is unoccupied. That is
    enough. Where the occupied span is invariant under F, as (e) checks,
    each level lies in it or is orthogonal to it, and at most m levels lie
    in an m-dimensional span; so the channel's lowest unoccupied level is
    among its m + 1 lowest. It lies at or below every other unoccupied
    level of the channel, so an occupied level above any of them lies above
    it, and "max occupied minus min unoccupied" over the table measures the
    same gap as over the whole spectrum.
    """
    sys, gamma = fock.system, fock.gamma
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
    unocc_eps = [lv.value for lv in fock.levels if lv.projection < 0.5]
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


def minimizer_suite(fock: FockOperator) -> dict:
    """verify's minimizer record: the certificate of fock.gamma, from the levels kept on fock."""
    cert = minimizer_certificate(fock)
    return {**asdict(cert), "status": _status(cert.passed)}


@functools.lru_cache(maxsize=8)
def _momentum_symbol(grid: RadialGrid) -> np.ndarray:
    """|p| in DST-I mode order: the square root of the ell = 0 Laplacian symbol; read-only."""
    symbol = np.sqrt(laplacian_symbol(grid))
    symbol.flags.writeable = False
    return symbol


def kato_probe(u: np.ndarray, grid: RadialGrid) -> tuple[float, float]:
    """(int u^2/r dr, (pi/2) <u, |p| u>) for an s-channel function u.

    |p| is the square root of the ell = 0 Laplacian, diagonal under the
    DST-I (`_momentum_symbol`, kept per grid), so rhs is a Parseval sum:
    uniform grid only. The coupling inequality lhs <= rhs holds up to
    discretization slack (KATO_TOL).
    """
    u = np.asarray(u, dtype=float)
    coef = dst(u)
    rhs = 0.5 * np.pi * grid.h * float(coef @ (_momentum_symbol(grid) * coef))
    lhs = integrate(grid, u * u / grid.nodes)
    return lhs, rhs


def _standard_normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Seeded standard normal draws without numpy.random.

    Box-Muller on 53-bit uniforms from the stdlib's Mersenne Twister,
    `random.Random(seed)`, which numpy itself loads: `numpy.random` is left
    out of every pipeline's start-up.
    """
    size = math.prod(shape)
    words = np.frombuffer(random.Random(seed).randbytes(16 * size), dtype="<u8")
    u1, u2 = (words >> 11).reshape(2, size) * 2.0**-53     # uniforms in [0, 1)
    normals = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    return normals.reshape(shape)


def random_smooth_battery(grid: RadialGrid, count: int, seed: int, modes: int = 30):
    """Deterministic battery of normalized smooth s-channel probe functions.

    Probe i is sum_m c_im sin(m pi r / r_max) with c_im = z_im / m and
    standard normal z (`_standard_normals`), normalized in the grid inner
    product.
    """
    basis = np.sin(np.outer(grid.nodes, np.arange(1, modes + 1)) * np.pi / grid.r_max)
    out = []
    for c in _standard_normals(seed, (count, modes)) / np.arange(1, modes + 1):
        u = basis @ c
        u /= np.sqrt(inner(grid, u, u))
        out.append(u)
    return out


def kato_suite(grid: RadialGrid, samples: int, seed: int) -> dict:
    """verify's Kato record: the worst coupling excess over a seeded battery."""
    battery = random_smooth_battery(grid, samples, seed)
    worst = max(lhs / rhs - 1.0 for lhs, rhs in (kato_probe(u, grid) for u in battery))
    return {"status": _status(worst <= KATO_TOL), "samples": samples,
            "worst_excess": float(worst), "tolerance": KATO_TOL}


def herbst_bound_check(sys: AtomSystem, grid: RadialGrid) -> dict:
    """verify's Herbst record: the lowest level of h0 against the analytic lower bound.

    h0 = T - Z alpha/r is the Fock operator of the empty density with the
    paper's square-root T, whatever kinetic law `sys` carries, and the
    record says so. Its lowest level lies on ell = 0, since T_ell grows
    with ell. Bound: alpha^-1 (sqrt(1 - (pi Z alpha / 2)^2) - 1), with a
    slack of 1e-8 alpha^-1. A level below it fails the record (it would
    signal an inconsistent discretization).
    """
    ainv = sys.alpha_inv
    bound = ainv * (np.sqrt(max(1.0 - (np.pi * sys.z_alpha / 2.0) ** 2, 0.0)) - 1.0)
    h0 = fock_build(DensityMatrix({}), grid, replace(sys, kinetic="pseudorelativistic"), 0)
    lowest = h0.levels[0].value     # the table's first row; one level per channel
    ok = bool(lowest >= bound - 1e-8 * ainv)
    return {
        "Z": sys.Z, "alpha": sys.alpha, "bound": bound,
        "min_eigenvalue": lowest, "margin": lowest - bound, "passed": ok,
        "status": _status(ok), "kinetic": "pseudorelativistic",
    }


def _greens_battery(grid: RadialGrid) -> np.ndarray:
    """The resolvent check's five Gaussian sources, one per column."""
    widths = [(10.0, 1.5), (14.0, 2.0), (8.0, 1.5), (12.0, 2.5), (16.0, 1.8)]
    return np.column_stack([np.exp(-(((grid.nodes - c) / s) ** 2)) for (c, s) in widths])


def _k2_cosh_integral(t: np.ndarray) -> np.ndarray:
    """K_2(t) = int_0^inf e^{-t cosh s} cosh 2s ds, by the trapezoid rule.

    Shares no code with greens.bessel_k. The integrand is even in s and
    analytic, so the trapezoid rule converges geometrically; each t gets
    200 steps over [0, S], where t (cosh S - 1) = 700 leaves e^-700 of
    the integrand, and the step S/200 resolves the e^{-t s^2/2} core of
    large t. The e^-t scale factor is taken out of the integrand.
    """
    t = np.asarray(t, dtype=float)[:, None]
    s = np.arccosh(1.0 + 700.0 / t) * np.linspace(0.0, 1.0, 201)
    # cosh s - 1 = 2 sinh^2(s/2), without the cancellation that a large t magnifies
    f = np.exp(-2.0 * t * np.sinh(0.5 * s) ** 2) * np.cosh(2.0 * s)
    ds = s[:, 1]
    return np.exp(-t[:, 0]) * ds * (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1]))


def greens_suite(alpha: float, E: float | None = None):
    """(record, kernel) of the resolvent-kernel checks at E, or at nu = 1 when E is None.

    Needs no solution: the round trip runs on its own n = 400 grid. An E
    outside (-alpha^-1, 0), such as the HOMO of an anion that binds no
    last electron, makes the record inconclusive, with no kernel; so does
    E = None when nu = 1 lies outside (0, alpha^-1), at alpha >= 1.
    """
    try:
        if E is None:
            E = greens.energy_of_nu(1.0, alpha)
        nu = nu_of_energy(E, alpha)
    except DomainError as exc:
        return {"status": "inconclusive", "reason": str(exc), "E": E}, None
    kernel = greens.greens_kernel(E, alpha)
    checks = {}

    checks["positivity"] = {"passed": bool(np.all(kernel.values > 0.0)),
                            "min_value": float(kernel.values.min())}

    env = kernel.envelope()
    checks["est1_envelope"] = {"passed": bool(np.all(kernel.values <= env)),
                               "min_margin": float(np.min(env - kernel.values)),
                               "constant": kernel.c_bound}

    ts = np.geomspace(1e-3, 1e3, 61)
    k1_vals = greens.bessel_k(1, ts)
    checks["k1_bound"] = {"passed": bool(np.all(k1_vals <= 1.0 / ts)),
                          "worst_ratio": float(np.max(k1_vals * ts))}

    ts2 = np.geomspace(1e-3, 600.0, 40)
    rec = greens.bessel_k(2, ts2)
    indep = _k2_cosh_integral(ts2)
    rec_resid = float(np.max(np.abs(rec - indep) / np.abs(indep)))
    checks["k2_recurrence"] = {"passed": rec_resid <= 1e-10, "residual": rec_resid}

    slope = greens.tail_slope(kernel)
    checks["tail_slope"] = {"passed": bool(slope >= -nu - 1e-3), "slope": slope, "nu": nu}

    moment, tail_frac = greens.exp_moment(kernel, 0.9 * nu)
    checks["exp_moment"] = {"passed": bool(np.isfinite(moment) and tail_frac < 0.05),
                            "value": moment, "tail_fraction": tail_frac}

    # resolvent round trip against the discrete operator at n=400; T - E
    # is diagonal under the DST-I, so its exact inverse is a division
    rgrid = build_grid(400, 40.0)
    T = kinetic_operator(rgrid, 0, alpha)
    F = _greens_battery(rgrid)
    V = greens.resolvent_apply(F, kernel, rgrid)
    rt = np.linalg.norm(T.apply(V) - E * V - F, axis=0) / np.linalg.norm(F, axis=0)
    exact = dst(dst(F) / (T.symbol - E)[:, None])
    dv = np.linalg.norm(V - exact, axis=0) / np.linalg.norm(exact, axis=0)
    worst_rt, worst_dense = float(rt.max()), float(dv.max())
    checks["resolvent_roundtrip"] = {"passed": worst_rt <= 1e-3, "worst": worst_rt}
    checks["resolvent_vs_dense"] = {"passed": worst_dense <= 1e-3, "worst": worst_dense}

    return {
        "status": _status(all(c["passed"] for c in checks.values())),
        "E": E, "nu": nu,
        "checks": checks,
        "kernel_mesh_size": int(kernel.mesh.size),
    }, kernel


def binding_monotonicity(
    system: AtomSystem, N_max: int, options: SolverOptions,
    _known: dict[int, tuple[float, float]] | None = None,
) -> tuple[list[dict], bool]:
    """E(N) table for N = 1..N_max of `system`, checking that E(N) decreases.

    Every row is `system` with its electron count replaced, so Z, alpha,
    q and the kinetic law are the template's. Each step must gain at
    least half the (Hartree-scale) frontier eigenvalue of the larger-N
    run, whose HOMO is `homo_eigenvalue` of its final state. Propagates
    NotConverged. `_known` maps N to the (total, HOMO eigenvalue) of a
    converged solve with these options, which then is not solved again.
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
            total, eps_homo = report.energy.total, homo_eigenvalue(report.fock)
            eps_homo = float("nan") if eps_homo is None else eps_homo
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


def binding_suite(
    system: AtomSystem, options: SolverOptions,
    known: dict[int, tuple[float, float]] | None = None,
) -> dict:
    """verify's binding record: `binding_monotonicity` over N = 1..min(N, floor Z).

    `known` is binding_monotonicity's `_known`.
    """
    n_max = min(system.N, int(np.floor(system.Z)))   # stay inside N < Z + 1
    if n_max < 1:
        return {"status": "passed", "rows": [], "note": "no bound runs in range"}
    rows, ok = binding_monotonicity(system, n_max, options, _known=known)
    return {"status": _status(ok), "rows": rows}
