"""Symmetric eigensolvers: block LOBPCG with a caller's preconditioner, and dense LAPACK.

The algorithm only: the operator, its preconditioner and the start block
are arguments, so nothing here knows a grid, a channel or a Fock operator.
"""

import math

import numpy as np

# a solve whose worst active residual has not halved over this many applies
# has stalled, and ends there; the caller's residual check then judges it.
# On the h0 fill's operator of Z = 9, N = 8 (n = 148, 12 levels, tolerance
# 4e-15) the worst residual bottoms out at 2.3e-14 after 21 applies and
# then grows until the Ritz values diverge at 67; this rule ends it at 36.
# No solve that converges, on the shipped configs, He at n = 1600 to 4800
# or a run of the test suite, goes 13 applies without halving it.
STALL_APPLIES = 25


def dense(Hs: list, k: int) -> list:
    """Lowest k eigenpairs of each symmetric H of Hs, from its lower triangle (LAPACK `dsyevr`).

    The solves may run side by side (`lapack.syevr_each`); the results
    come in the order of Hs.
    """
    from . import lapack    # loaded on first dense use, so an s-only run never compiles it

    return lapack.syevr_each(Hs, k)


def _inverse_cholesky(G: np.ndarray):
    """R^-1 for the Cholesky factor R of G = R^T R; None unless G is positive definite.

    LAPACK's Cholesky lets a NaN in G through without an error, but every
    entry of R feeds the last diagonal one, so a NaN shows there. A 1 x 1
    G skips numpy.linalg's per-call overhead: R is its square root and
    R^-1 one division, the same bits as `dpotrf` and `dgesv`.
    """
    if G.shape == (1, 1):
        g = float(G[0, 0])
        return np.array([[1.0 / math.sqrt(g)]]) if 0.0 < g < math.inf else None
    try:
        R = np.linalg.cholesky(G, upper=True)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.inv(R) if math.isfinite(R[-1, -1]) else None


def _orthonormalize(V: np.ndarray):
    """(R^-T V, R^-1) for the rows of V and the Cholesky factor R of V V^T.

    None unless V V^T is positive definite.
    """
    Rinv = _inverse_cholesky(V @ V.T)
    return None if Rinv is None else (Rinv.T @ V, Rinv)


def _ritz(GA: np.ndarray, GB: np.ndarray, k: int):
    """Lowest k eigenpairs of the pencil (GA, GB).

    None if GB is not positive definite or the eigensolve fails.
    """
    Rinv = _inverse_cholesky(GB)
    if Rinv is None:
        return None
    try:
        vals, C = np.linalg.eigh(Rinv.T @ GA @ Rinv)
    except np.linalg.LinAlgError:
        return None
    return vals[:k], Rinv @ C[:, :k]


def lobpcg(apply, precondition, X: np.ndarray, tol: float, maxiter: int, *,
           ceiling: float = math.inf):
    """Lowest X.shape[1] eigenpairs of the symmetric operator `apply` by block LOBPCG.

    Knyazev's method (SIAM J. Sci. Comput. 23 (2001) 517) as scipy's
    `lobpcg` implements it, for a standard problem, started from the
    Rayleigh-Ritz pairs of the orthonormalized X by one `eigh` at every
    width (of a 1 x 1 block it returns the entry and [[1.0]]). `apply`
    maps a block of columns to the operator times it.
    `precondition(R, theta)` maps the residuals of the active columns, as
    rows R, to their preconditioned rows, given the columns' current Ritz
    values theta. Each step takes
    the Rayleigh-Ritz pairs of [X, W, P]: W is the preconditioned residual
    of the active columns, projected off X, and P the last step's update
    of them, each Cholesky-orthonormalized (AP is carried by P's R^-1).
    The Rayleigh-Ritz pencil is formed in full, S A S^T and S S^T for the
    rows S = [X, W, P]. A column whose residual falls below `tol` is
    locked for good. The solve ends when every column is locked, after
    `maxiter` applies, when the worst active residual has not halved over
    STALL_APPLIES applies, when W is numerically dependent, or when a
    Ritz value's magnitude exceeds `ceiling`, which no Rayleigh quotient
    of the operator reaches: the iteration has diverged. A P or a
    Rayleigh-Ritz pencil that is not positive definite restarts the step
    without P.

    Returns (values, vectors, iterations), the iterations counting the
    applies of the operator after the first; the values are NaN when X is
    rank deficient.
    """
    # the blocks are kept as rows, so that every elementwise step runs
    # along the grid
    k = X.shape[1]
    orth = _orthonormalize(X.T)
    if orth is None:
        return np.full(k, np.nan), X, 0

    def applied(V):
        return np.ascontiguousarray(apply(np.ascontiguousarray(V.T)).T)

    X = orth[0]
    AX = applied(X)
    try:                            # the rows of X are orthonormal
        vals, C = np.linalg.eigh(X @ AX.T)
    except np.linalg.LinAlgError:
        return np.full(k, np.nan), X.T, 0
    X, AX = C.T @ X, C.T @ AX
    active = np.ones(k, dtype=bool)
    P = AP = None
    worst = []                      # the worst active residual after each apply
    its = 0
    while True:
        R = AX - vals[:, None] * X
        norms = np.sqrt(np.einsum("ij,ij->i", R, R))
        active &= norms > tol
        if not active.any() or its == maxiter or np.max(np.abs(vals)) > ceiling:
            break
        worst.append(norms[active].max())
        if its >= STALL_APPLIES and not worst[-1] <= 0.5 * worst[-1 - STALL_APPLIES]:
            break
        W = precondition(R[active], vals[active])
        orth = _orthonormalize(W - (W @ X.T) @ X)
        if orth is None:
            break
        W = orth[0]
        S, AS = [X, W], [AX, applied(W)]
        its += 1
        orth = None if P is None else _orthonormalize(P[active])
        if orth is not None:
            S.append(orth[0])
            AS.append(orth[1].T @ AP[active])
        S, AS = np.concatenate(S), np.concatenate(AS)
        GA = S @ AS.T
        GA = 0.5 * (GA + GA.T)
        GB = S @ S.T
        m = k + len(W)              # the rows of [X, W]
        ritz = _ritz(GA, GB, k)
        if ritz is None and len(S) > m:             # restart without P
            S, AS = S[:m], AS[:m]
            ritz = _ritz(GA[:m, :m], GB[:m, :m], k)
        if ritz is None:
            break
        vals, C = ritz
        X, AX = C.T @ S, C.T @ AS
        P, AP = C[k:].T @ S[k:], C[k:].T @ AS[k:]
    return vals, X.T, its
