import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, cumulative_trapezoid, quad
from scipy.special import kv, kve

from prhf import (
    DomainError,
    bessel_k,
    build_grid,
    greens_kernel,
    kinetic_operator,
    nu_of_energy,
    radial_convolution,
    resolvent_apply,
)
from prhf import greens
from prhf.greens import (
    _cell_edges,
    _cumulative_simpson,
    _cumulative_trapezoid,
    _itk0,
    default_kernel_mesh,
    energy_of_nu,
    est1_constant,
    exp_moment,
    tail_slope,
)

ALPHA = 1.0 / 137.036
AINV = 137.036


def g3(s, sig):
    """Normalized 3D Gaussian profile: integral against 4 pi s^2 ds is 1."""
    return (2.0 * np.pi * sig**2) ** -1.5 * np.exp(-(s**2) / (2.0 * sig**2))


def _abs_interval_oracle(r, a, b, F):
    ra = F(np.abs(r - a))
    rb = F(np.abs(r - b))
    return np.where(r >= b, ra - rb, np.where(r <= a, rb - ra, ra + rb))


def _radial_convolution_oracle(f, g, mesh):
    """radial_convolution as a row-chunked sweep with four A calls per cell.

    Returns the convolution and, per row, the sum of the absolute values
    of its terms in the same units (scaled by 2 pi / r like the result).
    """
    def _rms_range(p):
        mass = np.trapezoid(np.abs(p) * mesh**2, mesh)
        if mass <= 0.0:
            return 0.0
        return float(np.sqrt(np.trapezoid(np.abs(p) * mesh**4, mesh) / mass))

    rf, rg = _rms_range(f), _rms_range(g)
    if rf < rg or (rf == rg and f.tobytes() <= g.tobytes()):
        outer, inner = g, f
    else:
        outer, inner = f, g
    edges = _cell_edges(mesh)
    tg = cumulative_simpson(mesh * inner, x=mesh, initial=0.0)
    tg -= tg[-1]
    acc = cumulative_simpson(tg, x=mesh, initial=0.0)
    m0, t0 = mesh[0], tg[0]

    def A(x):
        return np.interp(x, mesh, acc) + np.minimum(x - m0, 0.0) * t0

    sf = mesh * outer
    out = np.empty_like(mesh)
    size = np.empty_like(mesh)
    for lo in range(0, mesh.size, 256):
        hi = min(lo + 256, mesh.size)
        r = mesh[lo:hi, None]
        a = edges[None, :-1]
        b = edges[None, 1:]
        plus = A(r + b) - A(r + a)
        minus = _abs_interval_oracle(r, a, b, A)
        terms = sf[None, :] * (plus - minus)
        out[lo:hi] = terms.sum(axis=1)
        size[lo:hi] = np.abs(terms).sum(axis=1)
    return 2.0 * np.pi * out / mesh, 2.0 * np.pi * size / mesh


def _resolvent_apply_oracle(f, kernel, grid):
    """resolvent_apply with the three kernel terms integrated cell by cell."""
    E, nu, mesh = kernel.E, kernel.nu, kernel.mesh
    ainv = 1.0 / kernel.alpha
    r, h = grid.nodes, grid.h
    T3 = np.concatenate([[0.0], cumulative_trapezoid(mesh * kernel.term3, mesh)])
    A3 = np.concatenate([[0.0], cumulative_trapezoid(T3, mesh)])

    def A3f(x):
        return np.interp(x, mesh, A3) + np.maximum(x - mesh[-1], 0.0) * T3[-1]

    def cum_exp(x):
        return (1.0 - np.exp(-nu * x)) / nu

    def cum_k0(x):
        return _itk0(ainv * x) / ainv

    c1 = (E + ainv) / (2.0 * nu)
    ri = r[:, None]
    a = (r - 0.5 * h)[None, :]
    b = (r + 0.5 * h)[None, :]
    J1 = _abs_interval_oracle(ri, a, b, cum_exp)
    J2 = np.exp(-nu * ri) * (np.exp(-nu * a) - np.exp(-nu * b)) / nu
    I1 = _abs_interval_oracle(ri, a, b, cum_k0)
    I2 = (_itk0(ainv * (ri + b)) - _itk0(ainv * (ri + a))) / ainv
    K2 = A3f(ri + b) - A3f(ri + a)
    K1 = _abs_interval_oracle(ri, a, b, A3f)
    W = c1 * (J1 - J2) + (I1 - I2) / np.pi + 2.0 * np.pi * (K2 - K1)
    return W @ f


# --- Bessel functions --------------------------------------------------------


def test_k1_upper_bound_over_decades():
    ts = np.geomspace(1e-3, 1e3, 61)
    vals = bessel_k(1, ts)
    assert np.all(vals <= 1.0 / ts)


def test_k1_exponential_envelope():
    ts = np.linspace(1.0, 40.0, 50)
    env = bessel_k(1, ts) * np.sqrt(ts) * np.exp(ts)
    assert np.all(env <= 2.0)
    assert np.all(env >= 1.0)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
def test_bessel_integral_representation(order, t):
    # K_nu(t) = int_0^inf exp(-t cosh u) cosh(nu u) du
    val, _err = quad(
        lambda u: np.exp(-t * np.cosh(u)) * np.cosh(order * u),
        0, 40.0, limit=300, epsabs=1e-16, epsrel=1e-13,
    )
    assert bessel_k(order, t) == pytest.approx(val, rel=1e-9, abs=0)


def test_k2_recurrence_against_independent():
    ts = np.geomspace(1e-3, 600.0, 50)
    ours = bessel_k(2, ts)
    ref = kv(2, ts)
    assert np.max(np.abs(ours - ref) / ref) <= 1e-10


def test_bessel_domain_and_underflow():
    with pytest.raises(DomainError):
        bessel_k(1, 0.0)
    with pytest.raises(DomainError):
        bessel_k(0, -2.0)
    with pytest.raises(DomainError):
        bessel_k(3, 1.0)
    assert bessel_k(1, 800.0) == 0.0


def _mp_relative_errors(values, refs):
    return np.array([float(abs((mpmath.mpf(v) - r) / r)) for v, r in zip(values, refs)])


@pytest.mark.parametrize("order", [0, 1])
def test_bessel_k_matches_mpmath(order):
    """K0 and K1 within 2e-15 relative of 30-digit mpmath, log-spaced over [1e-8, 700]."""
    ts = np.concatenate([np.geomspace(1e-8, 700.0, 501), np.linspace(1.5, 2.5, 21)])
    with mpmath.workdps(30):
        refs = [mpmath.besselk(order, mpmath.mpf(t)) for t in ts]
        err = _mp_relative_errors(bessel_k(order, ts), refs)
    assert err.max() <= 2e-15, ts[err.argmax()]


def test_itk0_matches_mpmath():
    """int_0^x K0 within 2e-15 relative of mpmath on (1e-8, 35], the band 8-15 included."""
    xs = np.concatenate([np.geomspace(1e-8, 35.0, 201), np.linspace(8.0, 15.0, 36),
                         np.linspace(1.5, 2.5, 11)])
    with mpmath.workdps(45):
        # Abramowitz-Stegun 11.1.8: int_0^x K0 = (pi x / 2) (K0 L_-1 + K1 L_0)
        refs = [mpmath.pi * x / 2 * (mpmath.besselk(0, x) * mpmath.struvel(-1, x)
                                     + mpmath.besselk(1, x) * mpmath.struvel(0, x))
                for x in map(mpmath.mpf, xs)]
        err = _mp_relative_errors(_itk0(xs), refs)
    assert err.max() <= 2e-15, xs[err.argmax()]
    assert np.all(_itk0(np.array([40.0, 1e3, 1e6])) == 0.5 * np.pi)


def test_bessel_k_underflow_is_exact_and_silent():
    with np.errstate(all="raise"):
        for order in (0, 1, 2):
            assert bessel_k(order, 800.0) == 0.0
            assert np.all(bessel_k(order, np.array([746.0, 800.0, 1e6])) == 0.0)


def test_bessel_k_keeps_the_argument_shape():
    t = np.geomspace(0.1, 50.0, 12).reshape(3, 4)
    for order in (0, 1, 2):
        out = bessel_k(order, t)
        assert out.shape == t.shape
        assert np.array_equal(out.ravel(), bessel_k(order, t.ravel()))
        assert bessel_k(order, float(t[1, 2])) == out[1, 2]
    assert isinstance(bessel_k(1, 3.0), float)
    assert bessel_k(1, np.array(3.0)).shape == ()


# --- decay rate --------------------------------------------------------------


def test_nu_limits_and_identity():
    assert nu_of_energy(-1e-9 * AINV, ALPHA) == pytest.approx(0.0, abs=1e-2)
    E = -AINV * (1.0 - 1.0 / np.sqrt(2.0))
    nu = nu_of_energy(E, ALPHA)
    alt = np.sqrt(AINV**2 - (E + AINV) ** 2)
    assert nu == pytest.approx(alt, rel=1e-14)
    for E in (-0.9 * AINV, -0.5 * AINV, -1e-3 * AINV):
        assert nu_of_energy(E, ALPHA) < AINV


def test_nu_domain():
    with pytest.raises(DomainError):
        nu_of_energy(0.0, ALPHA)
    with pytest.raises(DomainError):
        nu_of_energy(-1.1 * AINV, ALPHA)
    with pytest.raises(DomainError):
        nu_of_energy(0.3, ALPHA)


def test_energy_of_nu_roundtrip():
    for nu in (0.1, 1.0, 10.0):
        E = energy_of_nu(nu, ALPHA)
        assert nu_of_energy(E, ALPHA) == pytest.approx(nu, rel=1e-12)


# --- radial convolution ------------------------------------------------------


def test_convolution_gaussians_analytic():
    mesh = np.linspace(1e-6, 16.0, 4000)
    f = g3(mesh, 0.8)
    g = g3(mesh, 1.1)
    conv = radial_convolution(f, g, mesh)
    exact = g3(mesh, np.sqrt(0.8**2 + 1.1**2))
    assert np.max(np.abs(conv - exact)) <= 1e-6


def test_convolution_mass_product():
    mesh = np.linspace(1e-6, 16.0, 4000)
    f = 1.3 * g3(mesh, 0.8)
    g = 0.7 * g3(mesh, 1.1)
    conv = radial_convolution(f, g, mesh)
    mass = np.trapezoid(conv * 4 * np.pi * mesh**2, mesh)
    assert mass == pytest.approx(1.3 * 0.7, rel=1e-6)


def test_convolution_delta_like_identity():
    mesh = np.linspace(1e-6, 16.0, 6000)
    f = g3(mesh, 1.2)
    bump = g3(mesh, 0.02)
    conv = radial_convolution(f, bump, mesh)
    sel = mesh < 8.0
    # deviation is dominated by the genuine width of the bump
    assert np.max(np.abs(conv[sel] - f[sel])) <= 5e-4 * f.max()
    widened = g3(mesh, np.sqrt(1.2**2 + 0.02**2))
    assert np.max(np.abs(conv[sel] - widened[sel])) <= 1e-4 * f.max()


def test_convolution_symmetric(rng):
    mesh = np.linspace(1e-6, 12.0, 1500)
    for _ in range(5):
        f = g3(mesh, rng.uniform(0.5, 2.0)) * rng.uniform(0.5, 2.0)
        g = g3(mesh, rng.uniform(0.5, 2.0)) * rng.uniform(0.5, 2.0)
        a = radial_convolution(f, g, mesh)
        b = radial_convolution(g, f, mesh)
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))


def test_convolution_matches_quadrature_oracle():
    nu = 1.0
    E = energy_of_nu(nu, ALPHA)
    mesh = default_kernel_mesh(E, ALPHA)
    f = bessel_k(1, AINV * mesh) / mesh
    g = np.exp(-nu * mesh) / (4.0 * np.pi * mesh)
    conv = radial_convolution(f, g, mesh)

    def oracle(u):
        fn = lambda s: kv(1, AINV * s) * (np.exp(-nu * abs(u - s)) - np.exp(-nu * (u + s)))
        a, _ = quad(fn, 0.0, 30 * ALPHA, points=[u] if u < 30 * ALPHA else None, limit=200)
        b, _ = quad(fn, 30 * ALPHA, np.inf, limit=200)
        return (a + b) / (2.0 * u * nu)

    for u in (0.01, 0.1, 1.0, 5.0, 20.0, 40.0):
        i = int(np.searchsorted(mesh, u))
        assert conv[i] == pytest.approx(oracle(mesh[i]), rel=1e-3)


def _default_mesh_pair(nu=1.0, ainv=AINV):
    """The kernel's convolution pair K1(u/alpha)/u and e^{-nu u}/(4 pi u) on its mesh."""
    mesh = default_kernel_mesh(energy_of_nu(nu, 1.0 / ainv), 1.0 / ainv)
    return bessel_k(1, ainv * mesh) / mesh, np.exp(-nu * mesh) / (4.0 * np.pi * mesh), mesh


def _unsaturated_pair():
    # both profiles keep most of their mass past the mesh end: the
    # cumulatives still move there, and the band is the whole mesh
    mesh = np.linspace(1e-3, 6.0, 400)
    return np.exp(-0.1 * mesh) / mesh, np.exp(-0.2 * mesh) / mesh, mesh


def _gaussian_pair(n, u_max, sig_f, sig_g):
    mesh = np.linspace(1e-6, u_max, n)
    return g3(mesh, sig_f), g3(mesh, sig_g), mesh


@pytest.mark.parametrize("f, g, mesh", [
    _default_mesh_pair(),
    _gaussian_pair(4000, 16.0, 0.8, 1.1),
    _gaussian_pair(6000, 16.0, 1.2, 0.02),
    _gaussian_pair(1500, 12.0, 0.7, 1.9),
    _default_mesh_pair(nu=0.3),
    _default_mesh_pair(nu=20.0),
    _default_mesh_pair(ainv=1e3),
    _unsaturated_pair(),
], ids=["default_kernel_mesh", "n4000", "n6000_bump", "n1500",
        "default_kernel_mesh_nu0.3", "default_kernel_mesh_nu20", "default_kernel_mesh_alpha1e-3",
        "unsaturated"])
def test_convolution_equals_loop_oracle(f, g, mesh):
    """Each row is the oracle's up to the worst-case error of summing its terms in any order.

    Any order of summing m terms is within (m - 1) u sum|terms| of the
    exact sum (u = eps / 2; Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4), so two orders differ by under m eps sum|terms|;
    the two roundings of the 2 pi / r scaling on each side add 2 eps.
    """
    conv = radial_convolution(f, g, mesh)
    ref, size = _radial_convolution_oracle(f, g, mesh)
    m = mesh.size
    assert np.all(np.abs(conv - ref) <= (m + 2) * np.finfo(float).eps * size)


def test_abs_interval_equals_the_three_case_oracle():
    """The signed rule F~(b - r) - F~(a - r) is the left/right/straddle rule bit for bit."""
    rng = np.random.default_rng(11)
    mesh = np.geomspace(1e-3, 5.0, 300)
    tg = cumulative_simpson(mesh * np.exp(-3.0 * mesh), x=mesh, initial=0.0)
    tg -= tg[-1]
    acc = cumulative_simpson(tg, x=mesh, initial=0.0)

    def A(x):
        # negative, with the linear continuation below mesh[0]
        return np.interp(x, mesh, acc) + np.minimum(x - mesh[0], 0.0) * tg[0]

    def cum_exp(x):
        return (1.0 - np.exp(-2.0 * x)) / 2.0

    r = rng.uniform(0.0, 4.0, (500, 1))
    width = rng.uniform(1e-4, 0.5, (1, 40))
    # cells left of r, right of r, straddling r, and ones with an edge
    # within mesh[0] of r, where A continues linearly
    a = np.concatenate([r - 2.0 * width - 1e-3, r + 1e-3 + np.zeros_like(width),
                        r - rng.uniform(0.0, 1.0, (500, 40)) * width,
                        r - 1e-4 * rng.uniform(0.0, 1.0, (500, 40))], axis=1)
    b = a + np.concatenate([width] * 4, axis=1)
    assert np.any(b < r) and np.any(a > r) and np.any((a < r) & (r < b))
    for F in (A, cum_exp):
        assert np.array_equal(greens._abs_interval(r, a, b, F), _abs_interval_oracle(r, a, b, F))


@pytest.mark.parametrize("mesh", [
    np.linspace(0.0, 10.0, 200),
    np.linspace(-1.0, 10.0, 200),
    np.linspace(10.0, 0.01, 200),
    np.array([0.1, 0.2, 0.2, 0.3]),
    np.array([0.1, 0.2, np.nan, 0.3]),
    np.array([0.1, 0.2, np.inf]),
    np.array([0.5]),
], ids=["from_zero", "negative", "decreasing", "repeated", "nan", "inf", "one_point"])
def test_convolution_rejects_a_bad_mesh(mesh):
    f, g = np.exp(-mesh), np.exp(-2.0 * mesh)
    with pytest.raises(DomainError):
        radial_convolution(f, g, mesh)


def test_convolution_rejects_non_finite_profiles():
    mesh = np.linspace(0.01, 10.0, 200)
    f = np.exp(-mesh)
    bad = f.copy()
    bad[-1] = np.nan
    with pytest.raises(DomainError):
        radial_convolution(f, bad, mesh)
    with pytest.raises(DomainError):
        radial_convolution(bad, f, mesh)


@pytest.mark.parametrize("mesh", [np.linspace(0.0, 40.0, 500), np.linspace(-1.0, 40.0, 500)],
                         ids=["from_zero", "negative"])
def test_kernel_rejects_a_mesh_that_does_not_start_above_zero(mesh):
    with pytest.raises(DomainError):
        greens_kernel(energy_of_nu(1.0, ALPHA), ALPHA, mesh=mesh)


def _interp_points(monkeypatch, f, g, mesh):
    """The number of points radial_convolution passes to np.interp."""
    points = []
    interp = np.interp

    def counting_interp(x, *args, **kwargs):
        points.append(np.size(x))
        return interp(x, *args, **kwargs)

    monkeypatch.setattr(np, "interp", counting_interp)
    radial_convolution(f, g, mesh)
    monkeypatch.undo()
    return sum(points)


def test_convolution_evaluates_only_the_band(monkeypatch):
    # a sweep over every cell interpolates 2 m (m + 1) points; past the
    # saturation of the K1 cumulative (u = 0.244) every cell is an exact zero
    f, g, mesh = _default_mesh_pair()
    m = mesh.size
    assert _interp_points(monkeypatch, f, g, mesh) < 0.1 * 2 * m * (m + 1)


def test_convolution_band_of_an_unsaturated_pair_is_the_whole_mesh(monkeypatch):
    f, g, mesh = _unsaturated_pair()
    m = mesh.size
    assert _interp_points(monkeypatch, f, g, mesh) == 2 * m * (m + 1)


# --- tabulated kernel --------------------------------------------------------


@pytest.fixture(scope="module")
def kernel():
    E = energy_of_nu(1.0, ALPHA)
    return greens_kernel(E, ALPHA)


def test_kernel_positive(kernel):
    assert np.all(kernel.values > 0.0)


def test_kernel_est1_envelope(kernel):
    env = kernel.envelope()
    assert np.all(kernel.values <= env)


def test_kernel_est1_envelope_fast_decay():
    # at nu >= 2 the integrand K1(a s) e^{nu s} s of the envelope constant
    # is 0 * inf in double precision far out; the closed form never forms it
    strong = greens_kernel(energy_of_nu(3.0, ALPHA), ALPHA)
    assert np.isfinite(strong.c_bound)
    assert np.all(strong.values <= strong.envelope())


def test_kernel_shares_one_k1_evaluation(monkeypatch):
    """One K1 call per tabulation; terms, values and envelope equal the three-call form."""
    E, alpha = -0.918, ALPHA
    calls = []
    k1 = greens._k1

    def counting_k1(t):
        calls.append(t.size)
        return k1(t)

    monkeypatch.setattr(greens, "_k1", counting_k1)
    kern = greens_kernel(E, alpha)
    env = kern.envelope()
    assert len(calls) == 1
    # the unshared form: K1 evaluated for term2, for f_tab and for the envelope
    ainv, nu, u = 1.0 / alpha, kern.nu, kern.mesh
    term1 = (E + ainv) * np.exp(-nu * u) / (4.0 * np.pi * u)
    term2 = (ainv / (2.0 * np.pi**2)) * k1(ainv * u) / u
    f_tab = k1(ainv * u) / u
    g_tab = np.exp(-nu * u) / (4.0 * np.pi * u)
    term3 = (E + ainv) ** 2 * (ainv / (2.0 * np.pi**2)) * radial_convolution(f_tab, g_tab, u)
    yuk = kern.c_bound * np.exp(-nu * u) / (4.0 * np.pi * u)
    ref_env = yuk + (ainv / (2.0 * np.pi**2)) * k1(ainv * u) / u
    assert np.array_equal(kern.term2, term2)
    assert np.array_equal(kern.term3, term3)
    assert np.array_equal(kern.values, term1 + term2 + term3)
    assert np.array_equal(env, ref_env)


def _cumulative_cases():
    """(y, x) pairs: kernel profiles on default meshes, random data of both parities."""
    for E in (-0.918, energy_of_nu(1.0, ALPHA), energy_of_nu(3.0, ALPHA)):
        u = default_kernel_mesh(E, ALPHA)
        nu = nu_of_energy(E, ALPHA)
        yield kv(1, AINV * u) / u, u
        yield np.exp(-nu * u) / (4.0 * np.pi), u
    rng = np.random.default_rng(7)
    for m in (3, 4, 5, 200, 201):
        yield rng.standard_normal(m), np.cumsum(rng.uniform(0.01, 1.0, m))


@pytest.mark.parametrize("y, x", list(_cumulative_cases()))
def test_cumulative_ports_equal_scipy(y, x):
    assert np.array_equal(_cumulative_trapezoid(y, x), cumulative_trapezoid(y, x))
    for initial in (0.0, 1.5):
        assert np.array_equal(_cumulative_simpson(y, x, initial),
                              cumulative_simpson(y, x=x, initial=initial))


def test_cumulative_simpson_rejects_unordered_mesh():
    with pytest.raises(DomainError):
        _cumulative_simpson(np.ones(4), np.array([0.0, 1.0, 1.0, 2.0]), 0.0)


def _est1_constant_by_quad(E, alpha):
    """The envelope constant with its integral by adaptive quadrature."""
    ainv, nu = 1.0 / alpha, nu_of_energy(E, alpha)
    integrand = lambda s: kve(1, ainv * s) * np.exp((nu - ainv) * s) * s
    cut = 50.0 * alpha
    total = quad(integrand, 0.0, cut, limit=200)[0] + quad(integrand, cut, np.inf, limit=200)[0]
    return (E + ainv) + (E + ainv) ** 2 * (2.0 * ainv / np.pi) * total


@pytest.mark.parametrize("nu", [1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0, 100.0])
def test_est1_constant_matches_quadrature(nu):
    E = energy_of_nu(nu, ALPHA)
    assert est1_constant(E, ALPHA) == pytest.approx(_est1_constant_by_quad(E, ALPHA), rel=1e-9)


@pytest.mark.parametrize("nu, alpha", [(1e-3, ALPHA), (1.0, ALPHA), (30.0, ALPHA), (1.0, 1e-3)])
def test_est1_constant_matches_mpmath(nu, alpha):
    # at alpha = 1e-3 the quad form above reads 6e-9 relative too high
    E = energy_of_nu(nu, alpha)
    with mpmath.workdps(20):
        a, Em = 1 / mpmath.mpf(alpha), mpmath.mpf(E)
        s, num = Em + a, mpmath.sqrt(-Em * (2 * a + Em))
        # int_0^inf K1(a t) e^{nu t} t dt with x = a t
        integral = mpmath.quad(lambda x: mpmath.besselk(1, x) * mpmath.exp(num / a * x) * x,
                               [0, mpmath.inf]) / a**2
        ref = float(s + s**2 * (2 * a / mpmath.pi) * integral)
    assert est1_constant(E, alpha) == pytest.approx(ref, rel=1e-13)


def test_kernel_third_term_coefficient(kernel):
    # alpha^-2 - nu^2 equals (E + alpha^-1)^2 as an identity
    lhs = AINV**2 - kernel.nu**2
    rhs = (kernel.E + AINV) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_kernel_exp_moment_finite(kernel):
    total, tail_fraction = exp_moment(kernel, 0.9 * kernel.nu)
    assert np.isfinite(total) and total > 0
    assert tail_fraction < 0.05


def test_kernel_tail_slope(kernel):
    slope = tail_slope(kernel)
    assert slope >= -kernel.nu - 1e-3
    assert slope <= -0.9 * kernel.nu


# --- resolvent application ---------------------------------------------------


def test_resolvent_zero(kernel):
    grid = build_grid(64, 20.0)
    v = resolvent_apply(np.zeros(64), kernel, grid)
    assert np.all(v == 0.0)


def test_resolvent_rejects_short_kernel_mesh():
    E = energy_of_nu(1.0, ALPHA)
    short = greens_kernel(E, ALPHA, mesh=np.geomspace(1e-6, 10.0, 300))
    with pytest.raises(DomainError):
        resolvent_apply(np.ones(64), short, build_grid(64, 20.0))


def test_resolvent_roundtrip_and_dense(kernel):
    grid = build_grid(400, 40.0)
    T = kinetic_operator(grid, 0, ALPHA).matrix
    A = T - kernel.E * np.eye(grid.n)
    for c, s in [(10.0, 1.5), (14.0, 2.0), (8.0, 1.5), (12.0, 2.5), (16.0, 1.8)]:
        f = np.exp(-(((grid.nodes - c) / s) ** 2))
        v = resolvent_apply(f, kernel, grid)
        roundtrip = np.linalg.norm(A @ v - f) / np.linalg.norm(f)
        assert roundtrip <= 1e-3
        dense = np.linalg.solve(A, f)
        agree = np.linalg.norm(v - dense) / np.linalg.norm(dense)
        assert agree <= 1e-3


def test_resolvent_applies_a_block_column_by_column(kernel):
    grid = build_grid(400, 40.0)
    rng = np.random.default_rng(400)
    F = rng.standard_normal((grid.n, 5))
    V = resolvent_apply(F, kernel, grid)
    assert V.shape == F.shape
    for j in range(F.shape[1]):
        v = resolvent_apply(F[:, j], kernel, grid)
        assert np.max(np.abs(V[:, j] - v)) <= 1e-14 * np.max(np.abs(v))
    with pytest.raises(DomainError):
        resolvent_apply(np.ones((grid.n + 1, 2)), kernel, grid)
    with pytest.raises(DomainError):
        resolvent_apply(np.ones((grid.n, 2, 2)), kernel, grid)


def test_resolvent_apply_peaks_below_one_and_a_half_matrices(kernel):
    """W is one n x n array read from strided Toeplitz and Hankel views.

    Two n x n index arrays and their gathers peaked at 3 n^2 float64.
    """
    grid = build_grid(400, 30.0)
    f = np.exp(-grid.nodes)
    tracemalloc.start()
    try:
        resolvent_apply(f, kernel, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * grid.n**2


@pytest.mark.parametrize("n, r_max", [(400, 40.0), (63, 20.0)])
def test_resolvent_matches_cellwise_oracle(kernel, n, r_max):
    grid = build_grid(n, r_max)
    battery = [np.exp(-(((grid.nodes - c) / s) ** 2))
               for (c, s) in [(10.0, 1.5), (14.0, 2.0), (8.0, 1.5), (12.0, 2.5), (16.0, 1.8)]]
    battery.append(np.random.default_rng(63).standard_normal(n))
    for f in battery:
        v = resolvent_apply(f, kernel, grid)
        ref = _resolvent_apply_oracle(f, kernel, grid)
        assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref))
