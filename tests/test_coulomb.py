import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prhf import (
    AtomSystem,
    ChannelBlock,
    DensityMatrix,
    NotAdmissible,
    angular_coefficient,
    build_grid,
    energy_terms,
    exchange_matrix,
    hartree_potential,
    inner,
    kinetic_operator,
    reduced_density,
    slater_yk,
)
from prhf.coulomb import (
    _threej000_sq,
    combine,
    exchange_apply,
    exchange_energy,
    exchange_multipole_weight,
    multipole_kernel,
)
from prhf.scf import aufbau_projection, fock_build

ALPHA = 1.0 / 137.036


def _normalized(grid, values):
    v = np.asarray(values, dtype=float)
    return v / np.sqrt(grid.h * (v @ v))


def _s_density(grid, fs):
    """s-only density from hydrogen-like radial seeds with occupations fs."""
    seeds = [grid.nodes * np.exp(-grid.nodes), grid.nodes * np.exp(-0.6 * grid.nodes)]
    blocks = {}
    for spin, f in enumerate(fs):
        B = np.column_stack(seeds[: len(np.atleast_1d(f))])
        Q, _ = np.linalg.qr(B * np.sqrt(grid.h))
        blocks[(0, spin)] = ChannelBlock(
            orbitals=Q / np.sqrt(grid.h), occupations=np.atleast_1d(np.asarray(f, dtype=float))
        )
    return DensityMatrix(blocks)


@pytest.mark.parametrize("case", [
    "occupation_above_one", "negative_occupation", "nan_occupation", "not_orthonormal",
    "excess_trace",
])
def test_validate_reports_an_inadmissible_density_as_not_admissible(grid200, case):
    """A density outside 0 <= gamma <= Id, Tr gamma <= N is NotAdmissible; no energy is involved."""
    P = _normalized(grid200, grid200.nodes * np.exp(-grid200.nodes))
    orbital, f, n_electrons = {
        "occupation_above_one": (P, 1.5, None),
        "negative_occupation": (P, -0.1, None),
        "nan_occupation": (P, np.nan, None),
        "not_orthonormal": ((1.0 + 1e-6) * P, 1.0, None),
        "excess_trace": (P, 1.0, 0.5),
    }[case]
    gamma = DensityMatrix({(0, 0): ChannelBlock(orbital[:, None], np.array([f]))})
    with pytest.raises(NotAdmissible):
        gamma.validate(grid200, n_electrons)
    admissible = DensityMatrix({(0, 0): ChannelBlock(P[:, None], np.array([1.0]))})
    assert admissible.validate(grid200, 1.0) is admissible


# --- reduced density --------------------------------------------------------


def test_reduced_density_single_orbital(grid200):
    P = _normalized(grid200, grid200.nodes * np.exp(-grid200.nodes))
    gamma = DensityMatrix({(0, 0): ChannelBlock(P[:, None], np.array([1.0]))})
    w = reduced_density(gamma, grid200)
    assert grid200.h * w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0)


def test_reduced_density_empty(grid200):
    w = reduced_density(DensityMatrix({}), grid200)
    assert np.all(w == 0)


def test_reduced_density_helium_trace(grid200):
    gamma = _s_density(grid200, [1.0, 1.0])
    w = reduced_density(gamma, grid200)
    assert grid200.h * w.sum() == pytest.approx(2.0, abs=1e-9)


def test_reduced_density_linear_in_occupations(grid200, rng):
    P = _normalized(grid200, grid200.nodes * np.exp(-grid200.nodes))
    for t in (0.25, 0.5, 2.0):
        g1 = DensityMatrix({(0, 0): ChannelBlock(P[:, None], np.array([0.4]))})
        gt = DensityMatrix({(0, 0): ChannelBlock(P[:, None], np.array([0.4 * t]))})
        assert np.allclose(reduced_density(gt, grid200), t * reduced_density(g1, grid200))


# --- hartree potential ------------------------------------------------------


def test_hartree_point_charge_tail(grid200):
    # narrow normalized bump near s0: R(r) = 1/r beyond it
    s0 = 2.0
    w = np.exp(-(((grid200.nodes - s0) / 0.05) ** 2))
    w /= grid200.h * w.sum()
    R = hartree_potential(w, grid200)
    far = grid200.nodes > s0 + 1.0
    assert np.allclose(R[far], 1.0 / grid200.nodes[far], atol=1e-6)


def test_hartree_zero(grid200):
    assert np.all(hartree_potential(np.zeros(grid200.n), grid200) == 0)


def test_hartree_uniform_ball():
    grid = build_grid(16000, 12.0)
    a, Q = 3.0, 2.5
    w = np.where(grid.nodes <= a, 3.0 * Q * grid.nodes**2 / a**3, 0.0)
    w *= Q / (grid.h * w.sum())      # discrete total charge exactly Q
    R = hartree_potential(w, grid)
    r = grid.nodes
    expected = np.where(r <= a, Q * (3 * a**2 - r**2) / (2 * a**3), Q / r)
    assert np.max(np.abs(R - expected)) <= 1e-4


def test_hartree_r_times_R_bounded_by_trace(grid200, rng):
    w = np.abs(rng.standard_normal(grid200.n))
    R = hartree_potential(w, grid200)
    trace = grid200.h * w.sum()
    assert np.all(grid200.nodes * R <= trace + 1e-12 * trace)
    assert grid200.nodes[-1] * R[-1] == pytest.approx(trace, rel=1e-12)


def test_hartree_nonincreasing_outside_support(grid200):
    w = np.exp(-(((grid200.nodes - 1.5) / 0.3) ** 2))
    R = hartree_potential(w, grid200)
    outside = grid200.nodes > 2.8
    assert np.all(np.diff(R[outside]) <= 1e-15)


# --- slater screening functions ---------------------------------------------


def test_yk_zero_order_matches_hartree(grid200):
    P = _normalized(grid200, grid200.nodes * np.exp(-grid200.nodes))
    y0 = slater_yk(P, P, 0, grid200)
    R = hartree_potential(P * P, grid200)
    assert np.allclose(y0 / grid200.nodes, R, rtol=0, atol=1e-10 * np.max(R))


def test_yk_symmetric_in_arguments(grid200):
    Pa = _normalized(grid200, grid200.nodes * np.exp(-grid200.nodes))
    Pb = _normalized(grid200, grid200.nodes**2 * np.exp(-0.8 * grid200.nodes))
    for k in (0, 1, 2):
        assert np.array_equal(slater_yk(Pa, Pb, k, grid200), slater_yk(Pb, Pa, k, grid200))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_yk_against_double_sum(grid200, k):
    Pa = _normalized(grid200, grid200.nodes * np.exp(-grid200.nodes))
    Pb = _normalized(grid200, grid200.nodes**2 * np.exp(-0.8 * grid200.nodes))
    rho = Pa * Pb
    y = slater_yk(Pa, Pb, k, grid200)
    ker = multipole_kernel(grid200, k)
    direct = grid200.h * (ker @ rho)
    assert np.allclose(y / grid200.nodes, direct, rtol=1e-9, atol=1e-12 * np.max(np.abs(direct)))


def test_yk_column_blocks_sweep_each_column(grid200, rng):
    Pa = _normalized(grid200, grid200.nodes * np.exp(-grid200.nodes))
    X = rng.standard_normal((grid200.n, 3))
    for k in (0, 1, 2):
        block = slater_yk(Pa[:, None], X, k, grid200)
        for j in range(X.shape[1]):
            assert np.array_equal(block[:, j], slater_yk(Pa, X[:, j], k, grid200))


# --- angular coefficients ----------------------------------------------------


def test_angular_coefficient_basics():
    assert angular_coefficient(0, 0, 0) == pytest.approx(1.0, abs=0)
    assert angular_coefficient(0, 1, 0) == 0.0  # parity selection
    assert angular_coefficient(1, 1, 1) == 0.0
    assert angular_coefficient(0, 2, 1) == 0.0
    assert angular_coefficient(2, 0, 2) > 0.0


def test_threej_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import wigner_3j

    for la in range(4):
        for lb in range(4):
            for k in range(0, 7):
                ours = _threej000_sq(la, k, lb)
                ref = float(wigner_3j(la, k, lb, 0, 0, 0)) ** 2
                assert ours == pytest.approx(ref, abs=1e-15)


def test_p_shell_exchange_against_3d_oracle():
    """m-averaged p-shell exchange vs direct 3D reduction of |gamma(x,y)|^2/|x-y|.

    The angular integral over u = cos(theta_xy) of P1(u)^2 / |x-y| has an
    elementary closed form, leaving an independent 2D radial quadrature;
    no multipole expansion or 3j machinery enters the oracle.
    """
    grid = build_grid(400, 14.0)
    r = grid.nodes
    P = _normalized(grid, r**2 * np.exp(-r))
    f = 1.8
    lam = f / 3.0

    A = np.add.outer(r**2, r**2)
    B = 2.0 * np.outer(r, r)

    def antideriv(v):
        sq = np.sqrt(v)
        return 2.0 * A**2 * sq - (4.0 / 3.0) * A * v * sq + 0.4 * v**2 * sq

    v_hi = np.add.outer(r, r) ** 2
    v_lo = np.subtract.outer(r, r) ** 2
    I = (antideriv(v_hi) - antideriv(v_lo)) / B**3
    w2 = np.outer(P**2, P**2)
    ex_oracle = 2.25 * lam**2 * grid.h**2 * np.sum(w2 * I)

    # same quantity through the multipole weights (double sums, no sweeps)
    rk0 = grid.h**2 * np.sum(w2 * multipole_kernel(grid, 0))
    rk2 = grid.h**2 * np.sum(w2 * multipole_kernel(grid, 2))
    ex_weights = 0.5 * f**2 * (
        exchange_multipole_weight(1, 1, 0) * rk0 + exchange_multipole_weight(1, 1, 2) * rk2
    )
    assert ex_weights == pytest.approx(ex_oracle, rel=1e-10)

    # production path (cumulative sweeps)
    gamma = DensityMatrix({(1, 0): ChannelBlock(P[:, None], np.array([f]))})
    assert exchange_energy(gamma, grid) == pytest.approx(ex_oracle, rel=1e-9)


# --- exchange matrix ---------------------------------------------------------


def test_exchange_matrix_empty(grid200):
    K = exchange_matrix(DensityMatrix({}), 0, 0, grid200)
    assert np.all(K == 0)


def test_exchange_matrix_rank_one_self_energy(grid200):
    P = _normalized(grid200, grid200.nodes * np.exp(-grid200.nodes))
    gamma = DensityMatrix({(0, 0): ChannelBlock(P[:, None], np.array([1.0]))})
    K = exchange_matrix(gamma, 0, 0, grid200)
    w = P * P
    self_direct = grid200.h * np.sum(w * hartree_potential(w, grid200))
    assert inner(grid200, P, K @ P) == pytest.approx(self_direct, rel=1e-12)


def test_exchange_matrix_psd_and_dominated(grid200, rng):
    gamma = _s_density(grid200, [np.array([1.0, 0.7]), np.array([1.0])])
    K = exchange_matrix(gamma, 0, 0, grid200)
    assert np.allclose(K, K.T, atol=0)
    vals = np.linalg.eigvalsh(K)
    assert vals[0] >= -1e-11 * max(1.0, vals[-1])
    R = hartree_potential(reduced_density(gamma, grid200), grid200)
    for _ in range(100):
        u = rng.standard_normal(grid200.n)
        ku = inner(grid200, u, K @ u)
        ru = inner(grid200, u, R * u)
        assert ku >= -1e-11 * ru
        assert ku <= ru * (1.0 + 1e-10)


def test_exchange_apply_matches_matrix(grid200, rng):
    gamma = _s_density(grid200, [np.array([1.0, 0.5]), np.array([0.8])])
    P = _normalized(grid200, grid200.nodes**2 * np.exp(-grid200.nodes))
    blocks = dict(gamma.blocks)
    blocks[(1, 0)] = ChannelBlock(P[:, None], np.array([2.0]))
    gamma = DensityMatrix(blocks)
    X = rng.standard_normal((grid200.n, 3))
    for ell in (0, 1):
        for spin in (0, 1):
            K = exchange_matrix(gamma, ell, spin, grid200)
            KX = exchange_apply(gamma, ell, spin, X, grid200)
            assert np.linalg.norm(KX - K @ X) <= 1e-12 * np.linalg.norm(K @ X)
            Kx = exchange_apply(gamma, ell, spin, X[:, 0], grid200)
            assert np.allclose(Kx, KX[:, 0], rtol=0, atol=1e-15 * np.abs(KX).max())


# --- energy terms ------------------------------------------------------------


def test_energy_terms_empty(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    terms = energy_terms(DensityMatrix({}), grid200, sys)
    assert terms == (0.0, 0.0, 0.0, 0.0)


def test_energy_terms_rank_one_direct_equals_exchange(grid200):
    sys = AtomSystem(Z=1.0, N=1, alpha=ALPHA)
    P = _normalized(grid200, grid200.nodes * np.exp(-grid200.nodes))
    gamma = DensityMatrix({(0, 0): ChannelBlock(P[:, None], np.array([1.0]))})
    _, _, D, Ex = energy_terms(gamma, grid200, sys)
    assert abs(D - Ex) <= 1e-12 * D


def test_energy_terms_brute_force_helium(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    gamma = _s_density(grid200, [1.0, 1.0])
    _, _, D, Ex = energy_terms(gamma, grid200, sys)
    w = reduced_density(gamma, grid200)
    ker = multipole_kernel(grid200, 0)
    D_direct = 0.5 * grid200.h**2 * (w @ ker @ w)
    assert D == pytest.approx(D_direct, rel=1e-9)
    P0 = gamma.blocks[(0, 0)].orbitals[:, 0]
    P1 = gamma.blocks[(0, 1)].orbitals[:, 0]
    Ex_direct = 0.5 * grid200.h**2 * ((P0 * P0) @ ker @ (P0 * P0) + (P1 * P1) @ ker @ (P1 * P1))
    assert Ex == pytest.approx(Ex_direct, rel=1e-9)


def test_energy_terms_occupation_scaling(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    base = _s_density(grid200, [np.array([1.0, 0.5]), np.array([0.8])])
    ts = np.linspace(0.1, 1.0, 6)
    rows = []
    for t in ts:
        scaled = DensityMatrix({
            key: ChannelBlock(blk.orbitals, t * blk.occupations)
            for key, blk in base.blocks.items()
        })
        rows.append(energy_terms(scaled, grid200, sys))
    rows = np.array(rows)
    for col in (0, 1):   # one-body traces are linear in occupation scale
        coef = np.polyfit(ts, rows[:, col], 2)
        assert abs(coef[0]) <= 1e-10 * abs(rows[-1, col])
    for col in (2, 3):   # two-body terms are exactly quadratic
        coef = np.polyfit(ts, rows[:, col], 3)
        assert abs(coef[0]) <= 1e-10 * abs(rows[-1, col])
        assert abs(coef[2]) <= 1e-10 * abs(rows[-1, col])


def test_direct_dominates_exchange_random(grid200, rng):
    sys = AtomSystem(Z=3.0, N=3, alpha=ALPHA)
    for _ in range(10):
        fs0 = rng.uniform(0.0, 1.0, size=2)
        fs1 = rng.uniform(0.0, 1.0, size=1)
        gamma = _s_density(grid200, [fs0, fs1])
        _, _, D, Ex = energy_terms(gamma, grid200, sys)
        assert D - Ex >= -1e-12 * (1.0 + D)


def test_energy_terms_s_kinetic_trace_matches_dense(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    gamma = _s_density(grid200, [np.array([1.0, 0.5]), np.array([0.8])])
    T = kinetic_operator(grid200, 0, ALPHA).matrix
    dense = sum(
        grid200.h * float(np.sum(blk.occupations * np.einsum("ia,ia->a", blk.orbitals, T @ blk.orbitals)))
        for blk in gamma.blocks.values()
    )
    assert energy_terms(gamma, grid200, sys)[0] == pytest.approx(dense, rel=1e-13)


@functools.lru_cache(maxsize=1)
def _aufbau_densities():
    """Three aufbau densities with s and p blocks on a small ell_max = 1 grid."""
    grid = build_grid(80, 12.0)
    dms = []
    for Z, N in ((10.0, 10), (7.0, 7), (9.0, 5)):
        sys = AtomSystem(Z=Z, N=N, alpha=ALPHA)
        dms.append(aufbau_projection(fock_build(DensityMatrix({}), grid, sys, ell_max=1), N))
    assert all({ell for ell, _spin in gamma.blocks} == {0, 1} for gamma in dms)
    return grid, AtomSystem(Z=10.0, N=10, alpha=ALPHA), dms


def test_combine_of_one_unit_term_is_bit_identical():
    for gamma in _aufbau_densities()[2]:
        same = combine([(1.0, gamma)])
        assert list(same.blocks) == list(gamma.blocks)
        for key, blk in gamma.blocks.items():
            assert np.array_equal(same.blocks[key].orbitals, blk.orbitals)
            assert np.array_equal(same.blocks[key].occupations, blk.occupations)


def test_combine_concatenates_in_term_order_and_drops_zero_terms():
    ga, gb, gc = _aufbau_densities()[2]
    out = combine([(0.5, ga), (0.0, gb), (-2.0, gc)])
    for key, blk in out.blocks.items():
        parts = [(c, g.blocks[key]) for c, g in ((0.5, ga), (-2.0, gc)) if key in g.blocks]
        assert np.array_equal(blk.orbitals, np.column_stack([b.orbitals for _c, b in parts]))
        assert np.array_equal(blk.occupations, np.concatenate([c * b.occupations for c, b in parts]))
    assert out.trace() == pytest.approx(0.5 * ga.trace() - 2.0 * gc.trace(), rel=1e-15)


@settings(deadline=None, max_examples=25)
@given(
    coefs=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_body_part_is_linear_in_gamma(coefs, seed):
    """G(sum_i c_i gamma_i) X equals sum_i c_i G(gamma_i) X on every channel."""
    grid, sys, dms = _aufbau_densities()
    terms = list(zip(coefs, dms))
    X = np.random.default_rng(seed).standard_normal((grid.n, 3))
    combined = fock_build(combine(terms), grid, sys, ell_max=1)
    separate = [(c, fock_build(g, grid, sys, ell_max=1)) for c, g in terms]
    for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
        parts = [c * fock.two_body_apply(key, X) for c, fock in separate]
        scale = sum(np.linalg.norm(p) for p in parts)
        assert np.linalg.norm(combined.two_body_apply(key, X) - sum(parts)) <= 1e-12 * scale
