import numpy as np
import pytest

import prhf.functional
from prhf import (
    AtomSystem,
    ChannelBlock,
    DensityMatrix,
    EnergyBoundViolated,
    NotAdmissible,
    TraceMismatch,
    inner,
    kinetic_operator,
    line_coefficients,
    rank2_delta,
    total_energy,
)
from prhf import scf
from prhf.scf import _mix_blocks, aufbau_projection, fock_build

ALPHA = 1.0 / 137.036


def _normalized(grid, values):
    v = np.asarray(values, dtype=float)
    return v / np.sqrt(grid.h * (v @ v))


def _random_density(grid, rng, occs_by_channel):
    """Random orthonormal orbitals per channel with given occupations."""
    blocks = {}
    for (ell, spin), occ in occs_by_channel.items():
        occ = np.atleast_1d(np.asarray(occ, dtype=float))
        raw = rng.standard_normal((grid.n, occ.size))
        # smooth the columns so energies stay modest
        envelope = grid.nodes * np.exp(-0.8 * grid.nodes)
        raw = raw * envelope[:, None]
        Q, _ = np.linalg.qr(raw * np.sqrt(grid.h))
        blocks[(ell, spin)] = ChannelBlock(Q / np.sqrt(grid.h), occ)
    return DensityMatrix(blocks)


def test_breakdown_identity_and_zero(grid200):
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    e = total_energy(DensityMatrix({}), grid200, sys)
    assert e.total == 0.0 and e.kinetic == 0.0 and e.direct == 0.0
    P = _normalized(grid200, grid200.nodes * np.exp(-2.0 * grid200.nodes))
    gamma = DensityMatrix({(0, 0): ChannelBlock(P[:, None], np.array([1.0]))})
    e = total_energy(gamma, grid200, sys)
    recomputed = e.kinetic - e.nuclear + e.direct - e.exchange
    assert abs(e.total - recomputed) <= 1e-14 * (1.0 + abs(e.total))


def test_rank_one_total_is_bare_expectation(grid200):
    sys = AtomSystem(Z=1.0, N=1, alpha=ALPHA)
    P = _normalized(grid200, grid200.nodes * np.exp(-grid200.nodes))
    gamma = DensityMatrix({(0, 0): ChannelBlock(P[:, None], np.array([1.0]))})
    e = total_energy(gamma, grid200, sys)
    T = kinetic_operator(grid200, 0, ALPHA).matrix
    h0P = T @ P - (sys.z_alpha / grid200.nodes) * P
    bare = inner(grid200, P, h0P) / ALPHA
    assert e.total == pytest.approx(bare, rel=1e-12)


def test_global_lower_bound_random(grid200, rng):
    sys = AtomSystem(Z=3.0, N=3, alpha=ALPHA)
    floor = -(1.0 / ALPHA**2) * 3.0
    for _ in range(8):
        gamma = _random_density(
            grid200, rng,
            {(0, 0): rng.uniform(0, 1, 2), (0, 1): [1.0]},
        )
        e = total_energy(gamma, grid200, sys)
        assert e.total >= floor


def _sink_nuclear_trace(monkeypatch):
    """Deepen the nuclear trace of every energy_terms call by 2 alpha^-1 Tr gamma.

    The total then falls alpha^-2 Tr gamma below the -alpha^-2 Tr gamma floor.
    """
    terms = prhf.functional.energy_terms

    def sunk(gamma, grid, sys):
        tr_T, tr_V, D, Ex = terms(gamma, grid, sys)
        return tr_T, tr_V + 2.0 * sys.alpha_inv * gamma.trace(), D, Ex

    monkeypatch.setattr(prhf.functional, "energy_terms", sunk)


def test_total_energy_below_the_floor_raises(grid200, monkeypatch):
    """The -alpha^-2 Tr gamma floor is a runtime assertion: a total below it raises."""
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA)
    P = _normalized(grid200, grid200.nodes * np.exp(-2.0 * grid200.nodes))
    gamma = DensityMatrix({(0, 0): ChannelBlock(P[:, None], np.array([1.0]))})
    assert total_energy(gamma, grid200, sys).total < 0.0
    _sink_nuclear_trace(monkeypatch)
    with pytest.raises(EnergyBoundViolated, match="fell below -alpha"):
        total_energy(gamma, grid200, sys)


def test_rank2_zero_eps_is_zero(he_small):
    grid, sys, gamma = he_small.grid, he_small.sys, he_small.gamma
    u1 = _normalized(grid, np.exp(-(((grid.nodes - 4.0) / 1.0) ** 2)))
    u2 = _normalized(grid, np.exp(-(((grid.nodes - 6.0) / 1.2) ** 2)))
    u1 = _orthogonalize(grid, u1, gamma, 0, 0)
    u2 = _orthogonalize(grid, u2, gamma, 0, 1)
    assert rank2_delta(he_small.fock, u1, u2, 0.0, 0.0, 0, 0, 0, 1) == 0.0


def _orthogonalize(grid, u, gamma, ell, spin):
    blk = gamma.blocks.get((ell, spin))
    if blk is not None:
        for a in range(blk.m):
            P = blk.orbitals[:, a]
            u = u - inner(grid, P, u) * P
    return u / np.sqrt(inner(grid, u, u))


def _with_added(gamma, entries):
    blocks = {k: ChannelBlock(b.orbitals.copy(), b.occupations.copy()) for k, b in gamma.blocks.items()}
    for u, ell, spin, f in entries:
        key = (ell, spin)
        if key in blocks:
            blk = blocks[key]
            blocks[key] = ChannelBlock(
                np.column_stack([blk.orbitals, u]), np.append(blk.occupations, f)
            )
        else:
            blocks[key] = ChannelBlock(u[:, None], np.array([f]))
    return DensityMatrix(blocks)


def test_rank2_single_direction_matches_recompute(he_small):
    grid, sys, gamma = he_small.grid, he_small.sys, he_small.gamma
    u1 = _orthogonalize(grid, _normalized(grid, np.exp(-(((grid.nodes - 4.0) / 1.0) ** 2))), gamma, 0, 0)
    u2 = _orthogonalize(grid, _normalized(grid, np.exp(-(((grid.nodes - 6.0) / 1.2) ** 2))), gamma, 0, 1)
    eps1 = 0.3
    delta = rank2_delta(he_small.fock, u1, u2, eps1, 0.0, 0, 0, 0, 1)
    direct = (
        total_energy(_with_added(gamma, [(u1, 0, 0, eps1)]), grid, sys).total
        - total_energy(gamma, grid, sys).total
    )
    assert delta == pytest.approx(direct, rel=1e-10)


def test_rank2_full_matches_recompute(he_small, rng):
    grid, sys, gamma = he_small.grid, he_small.sys, he_small.gamma
    for _ in range(20):
        c1, w1, c2, w2 = rng.uniform(2.0, 8.0), rng.uniform(0.6, 1.6), rng.uniform(2.0, 8.0), rng.uniform(0.6, 1.6)
        u1 = _orthogonalize(grid, _normalized(grid, np.exp(-(((grid.nodes - c1) / w1) ** 2))), gamma, 0, 0)
        u2 = _orthogonalize(grid, _normalized(grid, np.exp(-(((grid.nodes - c2) / w2) ** 2))), gamma, 0, 1)
        eps1, eps2 = rng.uniform(0.05, 0.9, size=2)
        delta = rank2_delta(he_small.fock, u1, u2, eps1, eps2, 0, 0, 0, 1)
        direct = (
            total_energy(_with_added(gamma, [(u1, 0, 0, eps1), (u2, 0, 1, eps2)]), grid, sys).total
            - total_energy(gamma, grid, sys).total
        )
        assert delta == pytest.approx(direct, rel=1e-10, abs=1e-14)


def test_rank2_same_channel_pair_matches(he_small, rng):
    grid, sys, gamma = he_small.grid, he_small.sys, he_small.gamma
    u1 = _orthogonalize(grid, _normalized(grid, np.exp(-(((grid.nodes - 4.0) / 1.1) ** 2))), gamma, 0, 0)
    u2 = _orthogonalize(grid, _normalized(grid, grid.nodes * np.exp(-0.9 * grid.nodes)), gamma, 0, 0)
    u2 = u2 - inner(grid, u1, u2) * u1
    u2 /= np.sqrt(inner(grid, u2, u2))
    delta = rank2_delta(he_small.fock, u1, u2, 0.4, 0.5, 0, 0, 0, 0)
    direct = (
        total_energy(_with_added(gamma, [(u1, 0, 0, 0.4), (u2, 0, 0, 0.5)]), grid, sys).total
        - total_energy(gamma, grid, sys).total
    )
    assert delta == pytest.approx(direct, rel=1e-10)


def test_rank2_p_channel_matches_recompute_without_a_dense_g(grid200, monkeypatch):
    """A p-shell increment matches recomputation, and G(delta) forms no n x n matrix."""
    sys = AtomSystem(Z=10.0, N=10, alpha=ALPHA)
    gamma = aufbau_projection(fock_build(DensityMatrix({}), grid200, sys, ell_max=1), sys.N)
    fock = fock_build(gamma, grid200, sys, ell_max=1)
    fock.matrices       # the operator of gamma is dense; the one of delta must not be
    u1 = _orthogonalize(grid200, _normalized(grid200, grid200.nodes**2 * np.exp(-grid200.nodes)), gamma, 1, 0)
    u2 = _orthogonalize(grid200, _normalized(grid200, np.exp(-(((grid200.nodes - 5.0) / 1.2) ** 2))), gamma, 0, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense exchange matrix was formed")

    monkeypatch.setattr(scf, "exchange_matrix", refuse)
    delta = rank2_delta(fock, u1, u2, 0.3, 0.6, 1, 0, 0, 1)
    direct = (
        total_energy(_with_added(gamma, [(u1, 1, 0, 0.9), (u2, 0, 1, 0.6)]), grid200, sys).total
        - total_energy(gamma, grid200, sys).total
    )
    assert delta == pytest.approx(direct, rel=1e-10)


def test_rank2_rejects_inadmissible(he_small):
    grid, sys, gamma = he_small.grid, he_small.sys, he_small.gamma
    u1 = _orthogonalize(grid, _normalized(grid, np.exp(-(((grid.nodes - 4.0) / 1.0) ** 2))), gamma, 0, 0)
    u2 = _orthogonalize(grid, _normalized(grid, np.exp(-(((grid.nodes - 6.0) / 1.2) ** 2))), gamma, 0, 1)
    with pytest.raises(NotAdmissible):
        rank2_delta(he_small.fock, u1, u2, 1.4, 0.0, 0, 0, 0, 1)
    # occupied direction: adding beyond capacity must also fail
    P = gamma.blocks[(0, 0)].orbitals[:, 0]
    with pytest.raises(NotAdmissible):
        rank2_delta(he_small.fock, P, u2, 0.2, 0.0, 0, 0, 0, 1)


@pytest.mark.parametrize("ell1, spin1", [(1, 0), (0, 2)], ids=["p_channel", "third_spin"])
def test_rank2_rejects_a_channel_outside_the_operator(he_small, ell1, spin1):
    """The operator's channels bound the perturbation; they are not widened to fit it."""
    grid, gamma = he_small.grid, he_small.gamma
    assert he_small.fock.ell_max == 0 and he_small.sys.q == 2
    u1 = _normalized(grid, grid.nodes**2 * np.exp(-grid.nodes))
    u2 = _orthogonalize(grid, _normalized(grid, np.exp(-(((grid.nodes - 6.0) / 1.2) ** 2))), gamma, 0, 1)
    with pytest.raises(NotAdmissible, match="outside the operator's channels"):
        rank2_delta(he_small.fock, u1, u2, 0.3, 0.0, ell1, spin1, 0, 1)


def test_homo_removal_first_order(he_small):
    """Removing a small HOMO fraction changes E by -delta * eps_N / alpha."""
    grid, sys, gamma = he_small.grid, he_small.sys, he_small.gamma
    fock = he_small.fock
    P = gamma.blocks[(0, 0)].orbitals[:, 0]
    eps = grid.h * float(P @ (fock.matrices[(0, 0)] @ P))
    delta = 1e-4
    u2 = _orthogonalize(grid, _normalized(grid, np.exp(-(((grid.nodes - 6.0) / 1.2) ** 2))), gamma, 0, 1)
    change = rank2_delta(fock, P, u2, -delta, 0.0, 0, 0, 0, 1)
    assert change == pytest.approx(-delta * eps / ALPHA, rel=1e-10)
    direct = (
        total_energy(_scale_orbital(gamma, (0, 0), 0, 1.0 - delta), grid, sys).total
        - total_energy(gamma, grid, sys).total
    )
    assert change == pytest.approx(direct, rel=1e-6)


def _scale_orbital(gamma, key, idx, new_f):
    blocks = {k: ChannelBlock(b.orbitals.copy(), b.occupations.copy()) for k, b in gamma.blocks.items()}
    blocks[key].occupations[idx] = new_f
    return DensityMatrix(blocks)


def _line(ga, gb, grid, sys):
    """line_coefficients from ga towards gb on the s-channel operator of ga."""
    fock = fock_build(ga, grid, sys, ell_max=0)
    return line_coefficients(fock, gb, total_energy(ga, grid, sys), total_energy(gb, grid, sys))


def test_line_coefficients_same_target(he_small):
    grid, sys, gamma = he_small.grid, he_small.sys, he_small.gamma
    a, b = _line(gamma, gamma, grid, sys)
    assert abs(a) <= 1e-10
    assert abs(b) <= 1e-10


def test_line_midpoint(he_small):
    grid, sys, gamma = he_small.grid, he_small.sys, he_small.gamma
    trial = aufbau_projection(he_small.fock, sys.N)
    a, b = _line(gamma, trial, grid, sys)
    e0 = total_energy(gamma, grid, sys).total
    mid = _mix_blocks(gamma, trial, 0.5, grid)
    e_mid = total_energy(mid, grid, sys).total
    assert abs(e_mid - (e0 + a / 2 + b / 4)) <= 1e-10 * (1.0 + abs(e_mid))


def test_line_quadratic_exactness_random(grid200, rng):
    sys = AtomSystem(Z=3.0, N=3, alpha=ALPHA)
    for _ in range(10):
        ga = _random_density(grid200, rng, {(0, 0): rng.uniform(0.2, 1.0, 2), (0, 1): [0.9]})
        tr = ga.trace()
        gb = _random_density(grid200, rng, {(0, 0): [0.5, 0.5], (0, 1): [0.5]})
        scale = tr / gb.trace()
        gb = DensityMatrix({
            k: ChannelBlock(b.orbitals, b.occupations * scale) for k, b in gb.blocks.items()
        })
        a, b = _line(ga, gb, grid200, sys)
        e0 = total_energy(ga, grid200, sys).total
        for t in rng.uniform(0.0, 1.0, size=5):
            mix = _mix_blocks(ga, gb, float(t), grid200)
            e_t = total_energy(mix, grid200, sys).total
            assert abs(e_t - (e0 + a * t + b * t * t)) <= 1e-9 * (1.0 + abs(e_t))


def test_line_trace_mismatch(grid200, rng):
    sys = AtomSystem(Z=3.0, N=3, alpha=ALPHA)
    ga = _random_density(grid200, rng, {(0, 0): [1.0, 1.0]})
    gb = _random_density(grid200, rng, {(0, 0): [1.0]})
    with pytest.raises(TraceMismatch):
        _line(ga, gb, grid200, sys)
