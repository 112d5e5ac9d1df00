import ctypes

import numpy as np
import pytest

from prhf import AtomSystem, SolverOptions, build_grid, solve_scf, validate_system
from prhf.scf import fock_build

ALPHA = 1.0 / 137.036


class Solution:
    def __init__(self, sys, options, report, gamma, wall_time=float("nan")):
        self.sys = sys
        self.options = options
        self.report = report
        self.gamma = gamma
        self.wall_time = wall_time
        self.grid = build_grid(options.n, options.r_max)
        self._fock = None

    @property
    def fock(self):
        if self._fock is None:
            self._fock = fock_build(self.gamma, self.grid, self.sys, ell_max=self.options.ell_max)
        return self._fock

    def occupied(self):
        """[(ell, spin, index, P, eps)] for every occupied orbital."""
        out = []
        for (ell, spin), blk in self.gamma.blocks.items():
            H = self.fock.matrices[(ell, spin)]
            for a in range(blk.m):
                P = blk.orbitals[:, a]
                eps = self.grid.h * float(P @ (H @ P))
                out.append((ell, spin, a, P, eps))
        return out


@pytest.fixture
def one_blas_thread():
    """numpy's OpenBLAS on one thread per call, the setting under which `lapack` runs dense
    solves side by side; its former thread count is restored after the test."""
    from prhf import lapack

    get = lapack._function("scipy_openblas_get_num_threads64_", ctypes.c_int, ())
    put = lapack._function("scipy_openblas_set_num_threads64_", None, (ctypes.c_int,))
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _solve(Z, N, n, r_max, alpha=ALPHA, **opt_kw):
    import time

    sys = validate_system(AtomSystem(Z=Z, N=N, alpha=alpha))
    options = SolverOptions(n=n, r_max=r_max, **opt_kw)
    start = time.perf_counter()
    report, gamma = solve_scf(sys, options)
    return Solution(sys, options, report, gamma, wall_time=time.perf_counter() - start)


@pytest.fixture(scope="session")
def he_solution():
    return _solve(2.0, 2, 1200, 20.0)


@pytest.fixture(scope="session")
def li_solution():
    return _solve(3.0, 3, 1200, 25.0)


@pytest.fixture(scope="session")
def be_solution():
    return _solve(4.0, 4, 1200, 30.0)


@pytest.fixture(scope="session")
def he_small():
    return _solve(2.0, 2, 300, 15.0)


@pytest.fixture(scope="session")
def hydrogen_limit_solution():
    return _solve(1.0, 1, 1500, 40.0, alpha=1e-3)


@pytest.fixture(scope="session")
def grid200():
    return build_grid(200, 12.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240809)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_c" in name:
                crit = name.split("::test_")[1]
                lines.append((crit, status.upper()))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for crit, status in sorted(lines):
        terminalreporter.write_line(f"{crit:<40s} {status}")
