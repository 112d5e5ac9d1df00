"""Dense symmetric eigensolves on the LAPACK that numpy links.

numpy's wheels link an ILP64 LAPACK, the scipy-openblas build: its
integers are 64-bit, and it exports each routine as `scipy_<name>_64_`
(other ILP64 builds as `<name>_64_`). Two routines of it serve the dense
path, bound here through ctypes:

- `syevr`: LAPACK's `dsyevr` for the lowest k eigenpairs of a dense
  symmetric matrix (a dense channel operator), and `syevr_each` for a
  list of them, side by side on the usable cores when BLAS runs one
  thread per call;
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

`syevr_each` is the only code of prhf that starts threads: they run
`syevr` alone and are joined before it returns.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np
import numpy.linalg._umath_linalg  # the extension that links numpy's LAPACK

from .errors import EigFailure

_INT = ctypes.c_int64
_CHAR = ctypes.c_char_p
_INT_P = ctypes.POINTER(_INT)
_DBL_P = ctypes.POINTER(ctypes.c_double)
_ARR = ctypes.c_void_p   # an array's first element, passed as numpy's `.ctypes`
_LEN = ctypes.c_size_t   # a hidden length of a CHARACTER argument
# columns of an in-place matrix checked and rebuilt at a time: the
# temporaries are this many columns, not n^2
_BLOCK = 64

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


def _function(symbol: str, restype, argtypes):
    """`symbol` of numpy's library as a ctypes function of its own; None if it is not exported.

    The library's attribute for a symbol is one object shared by every
    caller, and setting its argtypes while another thread calls it frees
    the converters that call is using; a function made here is never
    changed after it is made.
    """
    found = getattr(_library(), symbol, None)
    if found is None:
        return None
    return ctypes.CFUNCTYPE(restype, *argtypes)(ctypes.cast(found, ctypes.c_void_p).value)


def _routine(name: str):
    """The 64-bit-integer LAPACK routine `name` (e.g. "dsyevr") of numpy's library."""
    symbols = (f"scipy_{name}_64_", f"{name}_64_")
    for symbol in symbols:
        fn = _function(symbol, None, _ARGTYPES[name])
        if fn is not None:
            return fn
    raise EigFailure(f"numpy's LAPACK exports no 64-bit {name} (looked for {' and '.join(symbols)})")


def _finite(name: str, *arrays: np.ndarray) -> None:
    """EigFailure unless every entry is finite, read _BLOCK columns (band entries) at a time."""
    if not all(np.isfinite(a[..., j:j + _BLOCK]).all()
               for a in arrays for j in range(0, a.shape[-1], _BLOCK)):
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


def _bitwise_symmetric(a: np.ndarray) -> bool:
    """Whether every a[i, j] has the bits of a[j, i], compared _BLOCK columns at a time."""
    bits = a.view(np.int64)
    n = a.shape[0]
    return all(np.array_equal(bits[j:, j:j + _BLOCK], bits[j:j + _BLOCK, j:].T)
               for j in range(0, n, _BLOCK))


def _rebuild_lower(a: np.ndarray, diagonal: np.ndarray) -> None:
    """Refill the lower triangle of a from its strict upper one, and its diagonal from `diagonal`.

    _BLOCK columns at a time: the strict upper triangle is what `dsyevr`
    with UPLO 'L' leaves intact.
    """
    n = a.shape[0]
    for j in range(0, n, _BLOCK):
        e = min(j + _BLOCK, n)
        a[e:, j:e] = a[j:e, e:].T
        square = a[j:e, j:e]
        np.copyto(square, square.T, where=np.tri(e - j, k=-1, dtype=bool))
    np.fill_diagonal(a, diagonal)


def syevr(H: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs (values ascending, vectors as columns) of symmetric H.

    dsyevr with JOBZ 'V', RANGE 'I' (IL 1, IU k), UPLO 'L' and ABSTOL 0
    on H in Fortran order: scipy.linalg.eigh(H, subset_by_index=(0,
    k - 1)). dsyevr destroys the lower triangle of the array it factors.
    A writeable float64 H that is F-contiguous and bitwise symmetric is
    factored in its own buffer, and its lower triangle and diagonal are
    rebuilt from the intact strict upper one and a saved diagonal, also
    when LAPACK fails; any other H is copied. Either way H is unchanged
    on return, but another thread must not read an in-place H during
    the call.
    """
    n = H.shape[0]
    if H.shape != (n, n) or not 1 <= k <= n:
        raise ValueError(f"dsyevr needs a square matrix and 1 <= k <= n, not {H.shape} and k = {k}")
    _finite("dsyevr", H)
    fn = _routine("dsyevr")
    in_place = (H.dtype == np.float64 and H.flags.f_contiguous and H.flags.writeable
                and _bitwise_symmetric(H))
    a = H if in_place else np.array(H, dtype=np.float64, order="F")
    diagonal = a.diagonal().copy()      # dsyevr overwrites it
    w = np.empty(n)
    z = np.empty((n, k), order="F")
    isuppz = np.empty(2 * k, dtype=np.int64)
    m, info = _INT(), _INT()
    zero = ctypes.byref(ctypes.c_double(0.0))   # VL, VU (unread under RANGE 'I') and ABSTOL

    def call(work, lwork, iwork, liwork):
        fn(b"V", b"I", b"L", _int(n), a.ctypes, _int(n), zero, zero, _int(1), _int(k), zero,
           ctypes.byref(m), w.ctypes, z.ctypes, _int(n), isuppz.ctypes, work.ctypes,
           _int(lwork), iwork.ctypes, _int(liwork), ctypes.byref(info), _LEN(1), _LEN(1), _LEN(1))

    try:
        _query_then_call("dsyevr", call, info)
    finally:
        if in_place:
            _rebuild_lower(a, diagonal)
    _checked("dsyevr", info, m, k)
    return w[:k], z


def _blas_threads() -> int | None:
    """The threads numpy's OpenBLAS runs one call on; None if it exports no such query."""
    fn = _function("scipy_openblas_get_num_threads64_", ctypes.c_int, ())
    return None if fn is None else fn()


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(count: int) -> int:
    """Threads for `count` independent dense solves.

    One per solve up to the usable cores when BLAS reports one thread
    per call; else 1, since a multithreaded BLAS already fills the cores
    and an unknown one may.
    """
    if count < 2 or _blas_threads() != 1:
        return 1
    return min(count, _usable_cores())


def syevr_each(Hs: list, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """`syevr(H, k)` of every H of Hs, in their order, bit for bit.

    The solves run side by side in `_workers(len(Hs))` threads, which
    start and are joined inside this call; ctypes releases the GIL
    around each LAPACK call. Matrices that may share memory are solved
    one after another, since an in-place solve destroys its matrix's
    lower triangle until it returns. Worker threads run `syevr` alone:
    no function that bench/spans.py traces, whose span stack is one per
    process.
    """
    workers = _workers(len(Hs))
    if workers > 1 and any(np.may_share_memory(Hs[i], Hs[j])
                           for i in range(len(Hs)) for j in range(i)):
        workers = 1
    if workers == 1:
        return [syevr(H, k) for H in Hs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(syevr, Hs, [k] * len(Hs)))


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

