"""Dense symmetric eigensolves on the LAPACK that numpy links.

numpy's wheels link an ILP64 LAPACK, the scipy-openblas build: its
integers are 64-bit, and it exports each routine as `scipy_<name>_64_`
(other ILP64 builds as `<name>_64_`). Two routines of it serve the dense
path, bound here through ctypes:

- `syevr`: LAPACK's `dsyevr` for the lowest k eigenpairs of a dense
  symmetric matrix (a dense channel operator);
- `stemr`: LAPACK's `dstemr` for every eigenpair of a symmetric
  tridiagonal matrix (a channel Laplacian's bands).

Each call passes the arguments, the workspace sizes (from a LAPACK
query) and the array layouts of scipy.linalg's `eigh(subset_by_index=
(0, k - 1))` and `eigh_tridiagonal(lapack_driver="stemr")`, so the
results equal theirs bit for bit (tested) without loading a second
BLAS. Character arguments are followed by gfortran's hidden length
arguments. The library is opened on first use, so a run that never
reaches a dense channel never opens it; a library that exports neither
name of a routine raises `EigFailure` there.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np
import numpy.linalg._umath_linalg  # the extension that links numpy's LAPACK

from .errors import EigFailure

_INT = ctypes.c_int64
_CHAR = ctypes.c_char_p
_INT_P = ctypes.POINTER(_INT)
_DBL_P = ctypes.POINTER(ctypes.c_double)
_ARR = ctypes.c_void_p   # an array's first element, passed as numpy's `.ctypes`
_LEN = ctypes.c_size_t   # a hidden length of a CHARACTER argument

# each routine's arguments in LAPACK's order, the hidden lengths last
_ARGTYPES = {
    "dsyevr": (_CHAR, _CHAR, _CHAR, _INT_P, _ARR, _INT_P, _DBL_P, _DBL_P, _INT_P, _INT_P,
               _DBL_P, _INT_P, _ARR, _ARR, _INT_P, _ARR, _ARR, _INT_P, _ARR, _INT_P, _INT_P,
               _LEN, _LEN, _LEN),
    "dstemr": (_CHAR, _CHAR, _INT_P, _ARR, _ARR, _DBL_P, _DBL_P, _INT_P, _INT_P, _INT_P,
               _ARR, _ARR, _INT_P, _INT_P, _ARR, _INT_P, _ARR, _INT_P, _ARR, _INT_P, _INT_P,
               _LEN, _LEN),
}


@functools.cache
def _library() -> ctypes.CDLL:
    """numpy's linear-algebra extension; its symbol lookup reaches the LAPACK it links."""
    return ctypes.CDLL(numpy.linalg._umath_linalg.__file__)


def _routine(name: str):
    """The 64-bit-integer LAPACK routine `name` (e.g. "dsyevr") of numpy's library."""
    symbols = (f"scipy_{name}_64_", f"{name}_64_")
    for symbol in symbols:
        fn = getattr(_library(), symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = _ARGTYPES[name], None
            return fn
    raise EigFailure(f"numpy's LAPACK exports no 64-bit {name} (looked for {' and '.join(symbols)})")


def _finite(name: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise EigFailure(f"{name}: the input holds infs or NaNs")


def _checked(name: str, info: _INT, m: _INT, k: int) -> None:
    if info.value != 0:
        raise EigFailure(f"{name} failed (LAPACK info={info.value})")
    if m.value < k:
        raise EigFailure(f"{name} returned {m.value} of the {k} levels asked for")


def _int(value: int):
    """A reference to a LAPACK INTEGER holding `value`."""
    return ctypes.byref(_INT(value))


def _query_then_call(name: str, call, info: _INT) -> None:
    """Run `call` as a workspace query (LWORK = LIWORK = -1), then with the sizes it returned."""
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, -1, iwork, -1)
    if info.value != 0:
        raise EigFailure(f"{name} workspace query failed (LAPACK info={info.value})")
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), lwork, np.empty(liwork, dtype=np.int64), liwork)


def syevr(H: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs (values ascending, vectors as columns) of symmetric H.

    dsyevr with JOBZ 'V', RANGE 'I' (IL 1, IU k), UPLO 'L' and ABSTOL 0
    on a Fortran-ordered copy of H: scipy.linalg.eigh(H,
    subset_by_index=(0, k - 1)). H is not modified.
    """
    n = H.shape[0]
    if H.shape != (n, n) or not 1 <= k <= n:
        raise ValueError(f"dsyevr needs a square matrix and 1 <= k <= n, not {H.shape} and k = {k}")
    _finite("dsyevr", H)
    fn = _routine("dsyevr")
    a = np.array(H, dtype=np.float64, order="F")
    w = np.empty(n)
    z = np.empty((n, k), order="F")
    isuppz = np.empty(2 * k, dtype=np.int64)
    m, info = _INT(), _INT()
    zero = ctypes.byref(ctypes.c_double(0.0))   # VL, VU (unread under RANGE 'I') and ABSTOL

    def call(work, lwork, iwork, liwork):
        fn(b"V", b"I", b"L", _int(n), a.ctypes, _int(n), zero, zero, _int(1), _int(k), zero,
           ctypes.byref(m), w.ctypes, z.ctypes, _int(n), isuppz.ctypes, work.ctypes,
           _int(lwork), iwork.ctypes, _int(liwork), ctypes.byref(info), _LEN(1), _LEN(1), _LEN(1))

    _query_then_call("dsyevr", call, info)
    _checked("dsyevr", info, m, k)
    return w[:k], z


def stemr(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of the symmetric tridiagonal matrix with diagonal d and off-diagonal e.

    dstemr with JOBZ 'V', RANGE 'A' and TRYRAC 1 (a LOGICAL, as wide as
    the library's INTEGER) on copies of the bands:
    scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr").
    """
    n = d.shape[0]
    if d.shape != (n,) or e.shape != (n - 1,):
        raise ValueError(f"dstemr needs bands of lengths n and n - 1, not {d.shape} and {e.shape}")
    _finite("dstemr", d, e)
    fn = _routine("dstemr")
    dd = np.array(d, dtype=np.float64)
    ee = np.zeros(n)        # dstemr takes e with room for n entries
    ee[:n - 1] = e
    w = np.empty(n)
    z = np.empty((n, n), order="F")
    isuppz = np.empty(2 * n, dtype=np.int64)
    m, info = _INT(), _INT()
    zero = ctypes.byref(ctypes.c_double(0.0))   # VL and VU, unread under RANGE 'A'

    def call(work, lwork, iwork, liwork):
        fn(b"V", b"A", _int(n), dd.ctypes, ee.ctypes, zero, zero, _int(0), _int(0),
           ctypes.byref(m), w.ctypes, z.ctypes, _int(n), _int(n), isuppz.ctypes, _int(1),
           work.ctypes, _int(lwork), iwork.ctypes, _int(liwork), ctypes.byref(info),
           _LEN(1), _LEN(1))

    _query_then_call("dstemr", call, info)
    _checked("dstemr", info, m, n)
    return w, z

