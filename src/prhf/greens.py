"""Resolvent kernel of the radial square-root kinetic operator.

For E in (-alpha^-1, 0) the operator T - E is invertible with an
explicit radial kernel

    G_E(u) = (E + a) e^{-nu u} / (4 pi u)
           + (a / 2 pi^2) K_1(a u) / u
           + (E + a)^2 (a / 2 pi^2) [ K_1(a|.|)/|.| * e^{-nu|.|}/(4 pi |.|) ](u)

with a = alpha^-1, nu = sqrt(-E (2 a + E)) = sqrt(a^2 - (E+a)^2), K_1 a
modified Bessel function of the second kind, and * the 3D convolution
of radial profiles. The kernel is positive and bounded by

    G_E(u) <= C * e^{-nu u} / (4 pi u) + (a / 2 pi^2) K_1(a u) / u,

where C is recorded on the tabulated kernel. It is the Newton bound on
the convolution term, in closed form (est1_constant): with s = E + a,

    C = s + (2/pi) (a^2 arccos(-nu/a) / s + nu).

The cumulative integrals below are 1-D ports of scipy's
cumulative_trapezoid and cumulative_simpson, equal to them bit for bit,
and K0, K1 and int_0^x K0 are numpy series, so that importing this
module loads no scipy.

radial_convolution tabulates the third term in O(m * band) work on an
m-point mesh: the cumulative of the short-range K_1 profile is constant
to the last bit past a saturation point near u = 33 alpha (0.244 bohr at
alpha = 1/137), and every cell farther than that from the row
contributes an exact zero, so only a band of cells around each row is
evaluated and summed. One signed rule (_signed) integrates g(|r - s|)
over a cell left of r, right of r or across it, there and in
resolvent_apply.

resolvent_apply realizes v = G_E * f for reduced s-channel functions
through exact per-cell integrals of the reduced pair kernel
M(r, s) = g(|r - s|) - g(r + s): the first two kernel terms have
elementary/Bessel antiderivatives and the convolution term a double
cumulative of its tabulation, which keeps the log-singular diagonal
under control. On the uniform grid the |r - s| cell integrals depend on
i - j only and the r + s ones on i + j only, so one antiderivative of g
evaluated at O(n) offsets fills the whole Toeplitz-minus-Hankel matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .radial import RadialGrid

_CONV_CHUNK = 64
# the default kernel mesh ends at nu*u = 80, where the exponential
# kernel terms have decayed by e^-80
_NU_U_MAX = 80.0

# --- K0, K1 and int_0^x K0 on numpy ----------------------------------------
#
# Cephes' layout. For t <= 2, power series in y = t^2 (Abramowitz-Stegun
# 9.6.10-9.6.13; psi is the digamma function, a_k = 1 / (4^k k!^2)):
#
#   I0(t) = sum a_k y^k,
#   K0(t) = -ln(t/2) I0(t) + sum c_k y^k,             c_k = psi(k+1) a_k,
#   I1(t) = t sum y^k / (2 4^k k! (k+1)!),
#   K1(t) = 1/t + ln(t/2) I1(t) - t sum (psi(k+1) + psi(k+2)) y^k / (4^(k+1) k! (k+1)!),
#
# and, term by term, int_0^x K0 = x [sum (c_k + a_k / (2k+1)) y^k / (2k+1)
# - ln(x/2) sum a_k y^k / (2k+1)]. For t > 2, Chebyshev series in
# s = 4/t - 1 of e^t sqrt(t) K0(t), e^t sqrt(t) K1(t) and
# e^t sqrt(t) int_t^inf K0, the last through int_0^x K0 = pi/2 - int_x^inf K0.
#
# The coefficients were computed with mpmath at 36 digits and rounded to
# double: the series ones from their formulas, the Chebyshev ones by
# interpolation at 48 Chebyshev points, of mpmath.besselk for K0 and K1
# and, for the K0 tail, of its Gaussian form
#
#   e^t sqrt(t) int_t^inf K0 = int_0^inf e^{-v^2/2} dv / ((1 + v^2/2t) sqrt(1 + v^2/4t))
#
# (v = 2 sqrt(t) sinh(s/2) in int_t^inf K0 = int_0^inf e^{-t cosh s} / cosh s ds),
# summed by the trapezoid rule. The series stop where a term falls below
# 1e-19 of the first at t = 2, the K0 and K1 Chebyshev series where the
# dropped coefficients sum to under 2e-18, the K0-tail one under 5e-16
# (the tail is at most 7% of the integral there).

_BESSEL_SPLIT = 2.0
# e^-t underflows to 0 past t = 745.2, and so do K0 and K1
_BESSEL_ZERO = 746.0
# int_x^inf K0 < 1e-18 past x = 40, below half an ulp of pi/2
_ITK0_SATURATED = 40.0

_I0_SERIES = (
    1.0, 0.25, 0.015625,
    0.00043402777777777775, 6.781684027777777e-06, 6.781684027777778e-08,
    4.709502797067901e-10, 2.4028075495244395e-12, 9.385966990329842e-15,
    2.896903392077112e-17, 7.242258480192779e-20, 1.4963343967340453e-22,
    2.5978027721077174e-25,
)
_K0_SERIES = (
    -0.5772156649015329, 0.10569608377461678, 0.014418505235913549,
    0.0005451899602568578, 1.0214014135957849e-05, 1.1570350941513404e-07,
    8.819883064451181e-10, 4.843198560366338e-12, 2.009199025022224e-14,
    6.523109713385803e-17, 1.7032000131483784e-19, 3.655038691331976e-22,
    6.562036847904768e-25, 1.0002763062684308e-27,
)
_I1_SERIES = (
    0.5, 0.0625, 0.0026041666666666665,
    5.425347222222222e-05, 6.781684027777778e-07, 5.651403356481481e-09,
    3.363930569334215e-11, 1.5017547184527747e-13, 5.214426105738801e-16,
    1.4484516960385557e-18, 3.2919356728148996e-21, 6.234726653058522e-24,
    9.991549123491221e-27,
)
_K1_SERIES = (
    0.03860783245076643, -0.042049020943654196, -0.002837111983763369,
    -7.493042905988501e-05, -1.0892182538735626e-06, -1.0112909397634626e-08,
    -6.54019722956043e-11, -3.12085877013226e-13, -1.1451907144886734e-15,
    -3.3339774414948293e-18, -7.891451681256942e-21, -1.548910815776067e-23,
    -2.5622893612075694e-26,
)
_ITI0_SERIES = (
    1.0, 0.08333333333333333, 0.003125,
    6.200396825396825e-05, 7.535204475308642e-07, 6.165167297979798e-09,
    3.622694459283001e-11, 1.6018716996829596e-13, 5.521157053135201e-16,
    1.5246859958300587e-18, 3.4486945143775135e-21, 6.5058017249306315e-24,
    1.039121108843087e-26,
)
_ITK0_SERIES = (
    0.42278433509846713, 0.06300980570265004, 0.00350870104718271,
    8.674198978726088e-05, 1.218614953720968e-06, 1.1078970610283076e-08,
    7.063194238753447e-11, 3.3355904868897563e-13, 1.2143591738550447e-15,
    3.513462269983583e-18, 8.274699801391207e-21, 1.6174333515570793e-23,
    2.666379583515631e-26,
)
_K0_CHEB = (
    1.2201515410329777, -0.0314481013119645, 0.0015698838857300533,
    -0.00012849549581627802, 1.39498137188765e-05, -1.8317555227191195e-06,
    2.766813639445015e-07, -4.660489897687948e-08, 8.574034017414225e-09,
    -1.6975345093890614e-09, 3.5773972814003283e-10, -7.957489244477396e-11,
    1.8559491149549264e-11, -4.514597883374519e-12, 1.1403405882073441e-12,
    -2.9800969231481784e-13, 8.032890775068375e-14, -2.2275133267462965e-14,
    6.340076476276646e-15, -1.848593377920907e-15, 5.5120559994043335e-16,
    -1.6782311257549006e-16, 5.2103917776435543e-17, -1.6475805939842632e-17,
    5.3004337711773354e-18, -1.7331712005821001e-18,
)
_K1_CHEB = (
    1.3603130952422213, 0.10392373657681724, -0.002857816859622779,
    0.00019521551847135162, -1.936197974166083e-05, 2.406484947837217e-06,
    -3.5019606030878126e-07, 5.7410841254500495e-08, -1.0345762465678097e-08,
    2.0150497551970347e-09, -4.1903547593419254e-10, 9.218315187605315e-11,
    -2.129967838427791e-11, 5.139639673482343e-12, -1.2891739609498229e-12,
    3.348419666052243e-13, -8.976705182010146e-14, 2.4771544242195988e-14,
    -7.0198370892147685e-15, 2.038703166239861e-15, -6.057047270643018e-16,
    1.8380935752430455e-16, -5.689462849193648e-17, 1.7940510478863572e-17,
    -5.7567444820733025e-18, 1.8778651901623268e-18,
)
_ITK0_CHEB = (
    1.1206780274986525, -0.11715459069850548, 0.013036970236823027,
    -0.0019806761821353283, 0.00036376878778932644, -7.629903071848918e-05,
    1.769140752643676e-05, -4.441259963374044e-06, 1.1899212195550535e-06,
    -3.3672827874851224e-07, 9.98585047187354e-08, -3.08453824760776e-08,
    9.876226440707194e-09, -3.2649783182163054e-09, 1.110833576391333e-09,
    -3.878982558929465e-10, 1.387035374512601e-10, -5.068767306224177e-11,
    1.8898287875308314e-11, -7.177991391723474e-12, 2.773814268711974e-12,
    -1.089293793453941e-12, 4.342706374315094e-13, -1.7560032645303447e-13,
    7.195840250257876e-14, -2.986109432368278e-14, 1.2540208296211585e-14,
    -5.326129484125827e-15, 2.286561112529725e-15, -9.917325004086796e-16,
    4.3435161399747193e-16,
)


def _horner(coef, y):
    """sum_k coef[k] y^k."""
    out = np.full_like(y, coef[-1])
    for c in coef[-2::-1]:
        out *= y
        out += c
    return out


def _scaled_tail(coef, t):
    """e^-t / sqrt(t) times the Chebyshev series coef in s = 4/t - 1, by Clenshaw."""
    s = 4.0 / t - 1.0
    s2 = 2.0 * s
    b1, b2, tmp = np.zeros_like(t), np.zeros_like(t), np.empty_like(t)
    for c in coef[:0:-1]:
        # b_k = 2 s b_{k+1} - b_{k+2} + c_k
        np.multiply(s2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    series = s * b1 - b2 + coef[0]
    return np.exp(-t) * (series / np.sqrt(t))


def _k0(t: np.ndarray) -> np.ndarray:
    """K0 of a float array (any shape) of positive finite values."""
    out = np.zeros_like(t)
    small = t <= _BESSEL_SPLIT
    ts = t[small]
    y = ts * ts
    out[small] = _horner(_K0_SERIES, y) - np.log(0.5 * ts) * _horner(_I0_SERIES, y)
    large = ~small & (t < _BESSEL_ZERO)
    out[large] = _scaled_tail(_K0_CHEB, t[large])
    return out


def _k1(t: np.ndarray) -> np.ndarray:
    """K1 of a float array (any shape) of positive finite values."""
    out = np.zeros_like(t)
    small = t <= _BESSEL_SPLIT
    ts = t[small]
    y = ts * ts
    out[small] = 1.0 / ts + ts * (np.log(0.5 * ts) * _horner(_I1_SERIES, y)
                                  + _horner(_K1_SERIES, y))
    large = ~small & (t < _BESSEL_ZERO)
    out[large] = _scaled_tail(_K1_CHEB, t[large])
    return out


def bessel_k(order: int, t):
    """Modified Bessel function K_nu of the second kind, nu in {0, 1, 2}.

    K0 and K1 are the numpy series above, within 2e-15 relative of
    30-digit mpmath on [1e-8, 700] (tested). They turn subnormal near
    t = 705 and are exact 0 from t = 746, which is acceptable everywhere the
    kernel uses them (always multiplied by bounded terms). Order 2
    follows the three-term recurrence K2 = K0 + (2/t) K1.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("bessel_k requires strictly positive finite arguments")
    if order == 0:
        out = _k0(arr)
    elif order == 1:
        out = _k1(arr)
    elif order == 2:
        out = _k0(arr) + (2.0 / arr) * _k1(arr)
    else:
        raise DomainError(f"unsupported order {order}; only 0, 1, 2 are tabulated")
    return out if isinstance(t, np.ndarray) else float(out)


def nu_of_energy(E: float, alpha: float) -> float:
    """Exponential rate nu = sqrt(-E (2 alpha^-1 + E)) for E in (-alpha^-1, 0)."""
    ainv = 1.0 / alpha
    if not (-ainv < E < 0.0):
        raise DomainError(f"E={E} outside the open interval (-alpha^-1, 0)")
    return float(np.sqrt(-E * (2.0 * ainv + E)))


def energy_of_nu(nu: float, alpha: float) -> float:
    """Inverse of nu_of_energy on the branch E in (-alpha^-1, 0).

    Rationalized form; the naive sqrt difference loses half the digits
    for nu much smaller than alpha^-1.
    """
    ainv = 1.0 / alpha
    if not (0.0 < nu < ainv):
        raise DomainError(f"nu={nu} outside (0, alpha^-1)")
    return float(-(nu**2) / (np.sqrt(ainv**2 - nu**2) + ainv))


def default_kernel_mesh(E: float, alpha: float) -> np.ndarray:
    """Log-refined near zero (the kernel diverges like 1/u^2), uniform to nu*u = 80.

    The mesh floor scales with alpha: the K1 ingredient has a
    log-divergent cumulative at the origin and a fixed floor would lose
    an O(u_min/alpha) fraction of the short-range mass.
    """
    nu = nu_of_energy(E, alpha)
    u_max = _NU_U_MAX / nu
    u_min = min(1e-6, 1e-5 * alpha)
    u_switch = min(1.0, 0.2 * u_max)
    n_log = max(400, int(np.ceil(85.0 * np.log10(u_switch / u_min))))
    head = np.geomspace(u_min, u_switch, n_log)
    tail = np.linspace(u_switch, u_max, 2401)[1:]
    return np.concatenate([head, tail])


def _cell_edges(mesh: np.ndarray) -> np.ndarray:
    edges = np.empty(mesh.size + 1)
    edges[1:-1] = 0.5 * (mesh[1:] + mesh[:-1])
    edges[0] = max(mesh[0] - 0.5 * (mesh[1] - mesh[0]), 0.0)
    edges[-1] = mesh[-1] + 0.5 * (mesh[-1] - mesh[-2])
    return edges


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, without the leading zero.

    The 1-D case of scipy.integrate.cumulative_trapezoid, in its
    operation order, so the result is bit for bit scipy's.
    """
    return np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)


def _simpson_h1(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Integral over [x_i, x_i+1] of the parabola through x_i, x_i+1, x_i+2."""
    x21, x32 = dx[:-1], dx[1:]
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray, initial: float) -> np.ndarray:
    """Running Simpson integral of y over a strictly increasing x, from initial.

    The 1-D case of scipy.integrate.cumulative_simpson(y, x=x,
    initial=initial), in its operation order, so the result is bit for
    bit scipy's: interval [x_i, x_i+1] integrates the parabola through
    x_i, x_i+1, x_i+2 (h1), except the odd-numbered ones and the last,
    which take the one through x_i-1, x_i, x_i+1 (h2, the h1 rule on the
    flipped arrays); the interleaved pieces are then summed in order.
    """
    if y.size < 3:
        res = _cumulative_trapezoid(y, x)
    else:
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise DomainError("cumulative Simpson needs a strictly increasing mesh")
        h1 = _simpson_h1(y, dx)
        h2 = _simpson_h1(y[::-1], dx[::-1])[::-1]
        sub = np.empty(y.size - 1)
        sub[:-1:2] = h1[::2]
        sub[1::2] = h2[::2]
        sub[-1] = h2[-1]
        res = np.cumsum(sub)
    res += initial
    return np.concatenate([[initial], res])


def _signed(F, y):
    """F~(y) = sign(y) F(|y|) for an antiderivative F of g from 0.

    Then int_a^b g(|r - s|) ds = F~(b - r) - F~(a - r) for a cell left
    of r, right of r or across it. The sign is set by negation, not
    copysign: F may be negative (the convolution's tail-anchored A is).
    """
    out = F(np.abs(y))
    return np.negative(out, out=out, where=y < 0)


def _abs_interval(r, a, b, F):
    """int_a^b g(|r - s|) ds given the antiderivative F(x) = int_0^x g."""
    return _signed(F, b - r) - _signed(F, a - r)


def _require_kernel_mesh(mesh: np.ndarray) -> None:
    if not (mesh.ndim == 1 and mesh.size >= 2 and np.all(np.isfinite(mesh))
            and mesh[0] > 0.0 and np.all(mesh[1:] > mesh[:-1])):
        raise DomainError("a kernel mesh is 1-D, finite, strictly increasing from above 0")


def radial_convolution(f: np.ndarray, g: np.ndarray, mesh: np.ndarray) -> np.ndarray:
    """3D convolution of two radial profiles tabulated on a shared mesh.

    (f*g)(r) = (2 pi / r) int_0^inf s f(s) [ int_{|r-s|}^{r+s} t g(t) dt ] ds.

    The inner integral is taken from tail-anchored cumulatives (so the
    far field is free of cancellation against the saturated total) and
    is itself integrated in closed form over each source cell through a
    second cumulative A, by one signed rule at the |r - s| end (`_signed`).
    That product integration keeps profiles with sub-mesh range
    (short-range Bessel spikes) exact in mass where point sampling of the
    inner difference would miss them. The result is symmetrized over the
    two orderings, making the discrete operation symmetric by
    construction.

    The double cumulative of the inner profile is bit for bit constant
    past a saturation point x_sat (_saturation_point), so a cell whose
    edges all lie at least x_sat from r, on either side, contributes an
    exact zero (r + s is then at least x_sat too). Each chunk of rows
    therefore evaluates and sums only its band of cells within x_sat, by
    one matrix-vector product; a short-range inner profile makes that
    band narrow, one that never settles makes it the whole mesh.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    mesh = np.asarray(mesh, dtype=float)
    _require_kernel_mesh(mesh)
    if f.shape != mesh.shape or g.shape != mesh.shape:
        raise DomainError("f, g, mesh must share a shape")
    # a cell past the band is never read: a non-finite value there would not show
    if not np.all(np.isfinite(f) & np.isfinite(g)):
        raise DomainError("f and g must be finite")

    # Canonical ordering: the shorter-range profile goes to the inner
    # cumulative (its mass, possibly concentrated below the mesh spacing,
    # is then integrated exactly); the outer sweep samples the smoother
    # one. Both argument orders run the identical computation, so the
    # discrete operation is exactly symmetric.
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
    # T~(x) = int_0^x t * inner dt - total  (tends to 0 at the far end, so
    # far-field differences are free of cancellation)
    tg = _cumulative_simpson(mesh * inner, mesh, 0.0)
    tg -= tg[-1]
    acc = _cumulative_simpson(tg, mesh, 0.0)
    m0, t0 = mesh[0], tg[0]

    def A(x):
        # linear continuation below the mesh start; plain clamping there
        # drops near-diagonal mass of short-range profiles. r + edge never
        # falls below the mesh start, so only |r - edge| needs it.
        out = np.interp(x, mesh, acc)
        below = x < m0
        out[below] += (x[below] - m0) * t0
        return out

    sf = mesh * outer
    x_sat = _saturation_point(mesh, acc)
    m = mesh.size
    out = np.empty_like(mesh)
    for lo in range(0, m, _CONV_CHUNK):
        hi = min(lo + _CONV_CHUNK, m)
        r = mesh[lo:hi, None]
        # band of cells [c0, c1): a cell left of it has r - b >= x_sat for
        # every row, one right of it a - r >= x_sat. Floating-point
        # subtraction is monotone in both operands, so the first and last
        # rows decide, evaluated exactly as A and P will see them.
        c0 = np.count_nonzero(r[0] - edges[1:] >= x_sat)
        c1 = m - np.count_nonzero(edges[:-1] - r[-1] >= x_sat)
        e = edges[c0:c1 + 1]
        # each edge is shared by two neighbouring cells: one A per edge
        P = np.interp(r + e, mesh, acc)
        Q = _signed(A, e - r)
        out[lo:hi] = ((P[:, 1:] - P[:, :-1]) - (Q[:, 1:] - Q[:, :-1])) @ sf[c0:c1]
    return 2.0 * np.pi * out / mesh


def _saturation_point(mesh: np.ndarray, acc: np.ndarray) -> float:
    """Smallest x past which np.interp(x, mesh, acc) is acc[-1] bit for bit.

    That is mesh[K] for the first K with acc[K:] all equal to acc[-1]: on
    a flat stretch np.interp adds a zero slope term to a nonzero table
    value. A cumulative that still moves at the mesh end gives mesh[-1],
    and a zero or non-finite acc[-1] gives +inf: either way the band is
    the whole mesh.
    """
    last = acc[-1]
    if last == 0.0 or not np.isfinite(last):
        return np.inf
    moving = np.flatnonzero(acc != last)
    return float(mesh[moving[-1] + 1]) if moving.size else float(mesh[0])


def est1_constant(E: float, alpha: float) -> float:
    """Envelope constant C: (E+a) plus the Newton bound on the convolution term.

    With s = E + a the bound is s + s^2 (a / 2 pi^2) 4 pi I, where
    I = int_0^inf K1(a t) e^{nu t} t dt. Since K1 = -K0', parts give
    a I = J + nu J' with J(nu) = int_0^inf K0(a t) e^{nu t} dt
    = arccos(-nu/a) / s (Gradshteyn-Ryzhik 6.611.3, s^2 = a^2 - nu^2) and
    J' = 1/s^2 + nu arccos(-nu/a) / s^3, so that

        C = s + (2/pi) (a^2 arccos(-nu/a) / s + nu).
    """
    ainv = 1.0 / alpha
    nu = nu_of_energy(E, alpha)
    s = E + ainv
    return float(s + (2.0 / np.pi) * (ainv**2 * np.arccos(-nu / ainv) / s + nu))


@dataclass
class GreensKernel:
    """Tabulated resolvent kernel with its three ingredients."""

    E: float
    alpha: float
    nu: float
    mesh: np.ndarray
    term1: np.ndarray
    term2: np.ndarray
    term3: np.ndarray
    values: np.ndarray
    c_bound: float

    def envelope(self) -> np.ndarray:
        """Pointwise upper bound C e^{-nu u}/(4 pi u) + (a/2pi^2) K1(a u)/u on the mesh.

        The K1 part is term2, which is that expression bit for bit, so K1
        is not evaluated again.
        """
        u = self.mesh
        return self.c_bound * np.exp(-self.nu * u) / (4.0 * np.pi * u) + self.term2


def greens_kernel(E: float, alpha: float, mesh: np.ndarray | None = None) -> GreensKernel:
    """Tabulate the three-term kernel on the mesh (convolution included)."""
    nu = nu_of_energy(E, alpha)
    ainv = 1.0 / alpha
    if mesh is None:
        mesh = default_kernel_mesh(E, alpha)
    u = np.asarray(mesh, dtype=float)
    _require_kernel_mesh(u)
    term1 = (E + ainv) * np.exp(-nu * u) / (4.0 * np.pi * u)
    k1 = _k1(ainv * u)                  # shared by term2, f_tab and the envelope
    term2 = (ainv / (2.0 * np.pi**2)) * k1 / u
    f_tab = k1 / u
    g_tab = np.exp(-nu * u) / (4.0 * np.pi * u)
    conv = radial_convolution(f_tab, g_tab, u)
    # alpha^-2 - nu^2 = (E + alpha^-1)^2 exactly
    term3 = (E + ainv) ** 2 * (ainv / (2.0 * np.pi**2)) * conv
    values = term1 + term2 + term3
    return GreensKernel(
        E=E, alpha=alpha, nu=nu, mesh=u,
        term1=term1, term2=term2, term3=term3, values=values,
        c_bound=est1_constant(E, alpha),
    )


def tail_slope(kernel: GreensKernel, lo: float = 15.0, hi: float = 35.0) -> float:
    """Least-squares slope of log(u G(u)) over nu*u in [lo, hi].

    The 1/u prefactor of the envelope is removed before fitting so the
    asymptote is exactly -nu.
    """
    u = kernel.mesh
    sel = (kernel.nu * u >= lo) & (kernel.nu * u <= hi) & (kernel.values > 0)
    if np.count_nonzero(sel) < 8:
        raise DomainError("mesh does not cover the requested far-field window")
    x = u[sel]
    y = np.log(x * kernel.values[sel])
    slope, _inter = np.polyfit(x, y, 1)
    return float(slope)


def exp_moment(kernel: GreensKernel, beta: float) -> tuple[float, float]:
    """(int e^{beta u} G(u) 4 pi u^2 du on the mesh, tail fraction of last 20%).

    A small tail fraction certifies numerical convergence of the moment,
    i.e. integrability of e^{beta u} G_E.
    """
    u = kernel.mesh
    integrand = np.exp(beta * u) * kernel.values * 4.0 * np.pi * u**2
    total = float(np.trapezoid(integrand, u))
    cut = u[0] + 0.8 * (u[-1] - u[0])
    sel = u >= cut
    tail = float(np.trapezoid(integrand[sel], u[sel]))
    return total, tail / total if total > 0 else float("nan")


# --- resolvent application on the SCF grid ---------------------------------

def _itk0(x: np.ndarray) -> np.ndarray:
    """int_0^x K0 of a float array of positive values.

    Within 2e-15 relative of 30-digit mpmath on (1e-8, 35] (tested),
    where scipy.special.iti0k0 was off by up to 2e-11 between x = 8 and
    15. Past x = 40 the result is pi/2 to the last bit.
    """
    out = np.full_like(x, 0.5 * np.pi)
    small = x <= _BESSEL_SPLIT
    xs = x[small]
    y = xs * xs
    out[small] = xs * (_horner(_ITK0_SERIES, y) - np.log(0.5 * xs) * _horner(_ITI0_SERIES, y))
    mid = ~small & (x < _ITK0_SATURATED)
    out[mid] -= _scaled_tail(_ITK0_CHEB, x[mid])
    return out


def resolvent_apply(f: np.ndarray, kernel: GreensKernel, grid: RadialGrid) -> np.ndarray:
    """Apply (T - E)^{-1} at the kernel's energy to reduced s-channel functions.

    f holds one function, shape (n,), or one per column, shape (n, k);
    the result has f's shape, and the matrix W below is built once for
    all columns.

    v(r) = int M(r,s) f(s) ds with the reduced pair kernel

        M(r,s) = g(|r-s|) - g(r+s),
        g(x) = (E+a)/(2 nu) e^{-nu x} + (1/pi) K0(a x) - 2 pi T3(x),
        T3(x) = int_0^x t G3(t) dt,

    integrated cell-by-cell (the K0 part is log-singular on the diagonal
    and concentrated below the grid spacing, so per-cell antiderivatives
    are required rather than point sampling). G3 is the kernel's
    tabulated term3; past the mesh end T3 is taken as constant, exact
    to e^-80 on a mesh that reaches nu*u = 80. With nodes r_i = i h and
    cells [r_j - h/2, r_j + h/2] the cell integrals of g(|r - s|) form a
    Toeplitz matrix and those of g(r + s) a Hankel one, both read from
    the antiderivative of g at the half-integer offsets (k + 1/2) h.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[0] != grid.n:
        raise DomainError("f must be tabulated on the grid nodes, one function per column")
    E, alpha, nu, mesh = kernel.E, kernel.alpha, kernel.nu, kernel.mesh
    n, h = grid.n, grid.h       # the cells below are those of the uniform grid only
    if mesh[-1] < _NU_U_MAX / nu and mesh[-1] < 2.0 * grid.r_max + h:
        raise DomainError(
            f"kernel mesh ends at u={mesh[-1]:.4g}, short of both nu*u = {_NU_U_MAX:g} "
            f"and the grid's reach 2*r_max + h"
        )
    ainv = 1.0 / alpha
    T3 = np.concatenate([[0.0], _cumulative_trapezoid(mesh * kernel.term3, mesh)])
    A3 = np.concatenate([[0.0], _cumulative_trapezoid(T3, mesh)])
    c1 = (E + ainv) / (2.0 * nu)

    def phi(x):
        # int_0^x g
        a3 = np.interp(x, mesh, A3) + np.maximum(x - mesh[-1], 0.0) * T3[-1]
        return (c1 * (1.0 - np.exp(-nu * x)) / nu + _itk0(ainv * x) / (ainv * np.pi)
                - 2.0 * np.pi * a3)

    # node r = (i + 1) h; toeplitz[i - j + n - 1] is the |r - s| cell of nodes i, j
    toeplitz = _abs_interval(h * np.arange(1 - n, n), -0.5 * h, 0.5 * h, phi)
    # the r + s cell of nodes i, j spans (i + j + 3/2) h to (i + j + 5/2) h
    ends = phi(h * (np.arange(2 * n) + 1.5))
    hankel = ends[1:] - ends[:-1]
    # strided views: row i of the first is toeplitz[i + n - 1], ..., toeplitz[i]
    windows = np.lib.stride_tricks.sliding_window_view
    W = windows(toeplitz[::-1], n)[::-1] - windows(hankel, n)
    return W @ f
