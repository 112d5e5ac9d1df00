"""One benchmark operation in a fresh interpreter: set up, then run one pipeline.

    python3 bench/worker.py SRC COMMAND CONFIG [--setup-only] [--probe] [--spans FILE] [--facts]

Set-up is everything a user pays before the pipeline starts: interpreter
start, `import prhf.cli` from SRC and parsing CONFIG. The worker then calls
`prhf.cli.main([COMMAND, CONFIG])` and prints one JSON line with its
timestamps (CLOCK_MONOTONIC, comparable with bench/run.py's), the exit code,
its peak resident set size and, with --probe, the machine's speed just before
and after the pipeline (`speed_probe`). With --spans it records spans around
prhf's public functions and writes them to FILE when the pipeline has returned.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

PROBE_N = 900               # matrix size of the speed probe
PROBE_REPEATS = 3


def speed_probe() -> float:
    """Median seconds of a fixed dense symmetric eigensolve, numpy only.

    A shared host's speed drifts by tens of percent over minutes, alike for
    this probe and for the pipelines (whose largest cost is the same LAPACK
    eigensolve), so bench/run.py divides times by it. It runs no prhf code:
    a change to prhf cannot move it.
    """
    import numpy

    a = numpy.random.default_rng(0).standard_normal((PROBE_N, PROBE_N))
    a += a.T
    numpy.linalg.eigh(a)
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        numpy.linalg.eigh(a)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine_facts() -> dict:
    """Library versions and BLAS build as this worker's interpreter sees them."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_core": _openblas_core(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
    }


def _openblas_core():
    """Kernel family OpenBLAS picked at run time (its results depend on it)."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("src")
    ap.add_argument("command")
    ap.add_argument("config")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--facts", action="store_true")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import prhf.cli

    if not Path(prhf.cli.__file__).resolve().is_relative_to(src):
        print(f"prhf imported from {prhf.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    prhf.cli.parse_config(args.config)
    out = {"ready": time.monotonic()}
    if args.facts:
        out["facts"] = machine_facts()
    if not args.setup_only:
        argv = [args.command, args.config]
        probe_before = speed_probe() if args.probe else None
        start = time.perf_counter()
        if tracer is None:
            code = prhf.cli.main(argv)
        else:
            code = tracer.call(spans.ROOT_SPAN, prhf.cli.main, argv)
        out["run_s"] = time.perf_counter() - start
        out["exit"] = code
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.dump(args.spans)
        if args.probe:
            out["probe_s"] = (probe_before + speed_probe()) / 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
