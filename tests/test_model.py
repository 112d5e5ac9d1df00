import math

import pytest

from prhf import (
    AtomSystem,
    BadCount,
    SolverOptions,
    SubcriticalityViolated,
    default_shells,
    validate_system,
)

ALPHA = 1.0 / 137.036


def test_validate_accepts_helium():
    sys = AtomSystem(Z=2.0, N=2, alpha=ALPHA, q=2)
    assert validate_system(sys) is sys


def test_validate_rejects_z88():
    # 88/137.036 = 0.6422 lies just above 2/pi = 0.63662
    assert 88.0 * ALPHA > 2.0 / math.pi
    with pytest.raises(SubcriticalityViolated):
        validate_system(AtomSystem(Z=88.0, N=2, alpha=ALPHA))


def test_validate_rejects_critical_boundary():
    with pytest.raises(SubcriticalityViolated):
        validate_system(AtomSystem(Z=1.0, N=1, alpha=2.0 / math.pi))


def test_validate_accepts_just_below_critical():
    Z = (2.0 / math.pi - 1e-12) / ALPHA
    validate_system(AtomSystem(Z=Z, N=1, alpha=ALPHA))


def test_validate_bad_counts():
    with pytest.raises(BadCount):
        validate_system(AtomSystem(Z=1.0, N=0, alpha=ALPHA))
    with pytest.raises(BadCount):
        validate_system(AtomSystem(Z=1.0, N=1, alpha=ALPHA, q=0))


def test_validate_idempotent():
    sys = AtomSystem(Z=3.0, N=3, alpha=ALPHA)
    assert validate_system(validate_system(sys)) == sys


def test_default_shells_hydrogen():
    shells = default_shells(AtomSystem(Z=1.0, N=1, alpha=ALPHA))
    assert [(s.ell, s.spin, s.occupation) for s in shells] == [(0, 0, 1.0)]


def test_default_shells_helium():
    shells = default_shells(AtomSystem(Z=2.0, N=2, alpha=ALPHA))
    assert [(s.ell, s.spin, s.occupation) for s in shells] == [(0, 0, 1.0), (0, 1, 1.0)]


def test_default_shells_beryllium_is_s_only():
    shells = default_shells(AtomSystem(Z=4.0, N=4, alpha=ALPHA))
    assert all(s.ell == 0 for s in shells)
    assert len(shells) == 4
    per_spin = sorted((s.spin for s in shells))
    assert per_spin == [0, 0, 1, 1]


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 11])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_default_shells_conserve_N(N, q):
    shells = default_shells(AtomSystem(Z=float(N), N=N, alpha=1e-3, q=q))
    assert sum(s.occupation for s in shells) == pytest.approx(N, abs=0)
    assert all(s.occupation <= 2 * s.ell + 1 for s in shells)


def test_options_validation():
    with pytest.raises(BadCount):
        SolverOptions(n=8).validated()
    with pytest.raises(BadCount):
        SolverOptions(r_max=-1.0).validated()
    with pytest.raises(BadCount):
        SolverOptions(initial_guess="random").validated()
    for ell_max in (-1, None, 0.5):
        with pytest.raises(BadCount, match="ell_max"):
            SolverOptions(ell_max=ell_max).validated()
    assert SolverOptions().validated().ell_max == 0


def test_validate_kinetic_law():
    validate_system(AtomSystem(Z=2.0, N=2, alpha=ALPHA, kinetic="nonrelativistic"))
    with pytest.raises(BadCount):
        validate_system(AtomSystem(Z=2.0, N=2, alpha=ALPHA, kinetic="dirac"))
