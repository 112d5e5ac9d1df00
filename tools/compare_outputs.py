"""Compare the output files of two prhf source trees, run for run.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold a `prhf` package (the
`src` of two checkouts). Both trees run `solve`, `verify`, `greens` and
`sweep` of every config in `configs/`, then `solve` and `verify` of the
benchmark's `solve_ne_p` inputs (closed-shell neon, n = 800, ell_max 1),
in that order and in one output directory per config, as a user would.
Each run is a fresh process, once with one BLAS thread and once with two.

It prints, per run, the two exit codes, and per output file whether a CSV
is byte-equal and whether a JSON document is equal apart from its
`timestamp` and `output_dir` keys; an unequal document lists the key paths
that differ. The exit status is 0 when every file and exit code agrees,
1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SHIPPED_COMMANDS = ("solve", "verify", "greens", "sweep")
# bench/run.py's NEON, the inputs of workload solve_ne_p
NEON = "Z = 10\nN = 10\nn = 800\nr_max = 15\nell_max = 1\n"
IGNORED_KEYS = {"timestamp", "output_dir"}
# the child checks that it imports prhf from the tree it was given
LAUNCH = ("import sys, prhf.cli; "
          "prhf.cli.__file__.startswith(sys.argv[1]) or sys.exit('wrong prhf: ' + prhf.cli.__file__); "
          "sys.exit(prhf.cli.main(sys.argv[2:]))")
USAGE = "usage: python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC"


def _cases() -> list[tuple[str, str, tuple[str, ...]]]:
    """(name, config text without output_dir, commands) of every compared input."""
    cases = []
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        text = "".join(line + "\n" for line in cfg.read_text().splitlines()
                       if line.split("=")[0].strip() != "output_dir")
        cases.append((cfg.stem, text, SHIPPED_COMMANDS))
    cases.append(("solve_ne_p", NEON, ("solve", "verify")))
    return cases


def _run(src: Path, outdir: Path, text: str, commands, threads: int) -> list[int]:
    """Run `commands` of one config in order into outdir; their exit codes."""
    outdir.mkdir(parents=True)
    cfg = outdir.parent / f"{outdir.name}.cfg"
    cfg.write_text(text + f"output_dir = {outdir}\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: str(threads) for var in THREAD_VARS}, PYTHONPATH=str(src))
    codes = []
    for command in commands:
        proc = subprocess.run([sys.executable, "-c", LAUNCH, str(src), command, str(cfg),
                               "--log-level", "warning"],
                              env=env, cwd=outdir.parent, capture_output=True, text=True)
        if proc.stderr.startswith("wrong prhf: "):
            raise SystemExit(f"{src} does not provide the prhf that ran: {proc.stderr}")
        codes.append(proc.returncode)
    return codes


def _strip(doc):
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k not in IGNORED_KEYS}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def _differences(a, b, path: str = "") -> list[str]:
    """The key paths at which two JSON documents differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in b:
                out.append(f"{sub} (parent only)")
            elif key not in a:
                out.append(f"{sub} (change only)")
            else:
                out.extend(_differences(a[key], b[key], sub))
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _differences(x, y, f"{path}[{i}]")]
    return [] if a == b else [path or "(document)"]


def _compare_file(parent: Path, change: Path) -> str | None:
    """None if the two files agree; otherwise how they differ."""
    if not parent.exists() or not change.exists():
        return "parent only" if parent.exists() else "change only"
    if parent.suffix == ".json":
        diffs = _differences(_strip(json.loads(parent.read_text())),
                             _strip(json.loads(change.read_text())))
        return None if not diffs else "differs at " + ", ".join(diffs)
    return None if parent.read_bytes() == change.read_bytes() else "bytes differ"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    for tree in trees:
        if not (tree / "prhf" / "__init__.py").is_file():
            print(f"{tree} holds no prhf package", file=sys.stderr)
            return 2
    agree = True
    with tempfile.TemporaryDirectory(prefix="prhf-compare-") as tmp:
        for threads in (1, 2):
            for name, text, commands in _cases():
                dirs = [Path(tmp) / f"{side}-{threads}" / name for side in ("parent", "change")]
                codes = [_run(tree, d, text, commands, threads) for tree, d in zip(trees, dirs)]
                print(f"{name}, {threads} BLAS thread{'s' if threads > 1 else ''}")
                for command, p_code, c_code in zip(commands, *codes):
                    same = p_code == c_code
                    agree &= same
                    print(f"  {command:8s} exit {p_code} / {c_code}{'' if same else '  DIFFERS'}")
                files = sorted({f.name for d in dirs for f in d.iterdir()})
                for fname in files:
                    problem = _compare_file(dirs[0] / fname, dirs[1] / fname)
                    agree &= problem is None
                    kind = "byte-equal" if fname.endswith(".csv") else "equal"
                    print(f"  {fname:18s} {kind if problem is None else problem}")
    print("all outputs agree" if agree else "outputs differ")
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
