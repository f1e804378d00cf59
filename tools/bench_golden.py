#!/usr/bin/env python3
"""Check (or rewrite) the golden outputs of the deterministic benches.

Usage: bench_golden.py [--update] [--build-dir DIR] [BENCH ...]

Each BENCH is a bench executable. It runs in a fresh temporary directory
with SCADS_BENCH_JSON_DIR pointing there, and both of its outputs are
compared byte for byte with the committed goldens:

    bench/golden/<bench>.txt           its stdout
    bench/golden/BENCH_<name>.json     the result file it wrote

A mismatch prints a unified diff and exits 1. So does a bench that exits
nonzero (its shape check failed) or writes a result file other than its
own. With --update the goldens are rewritten from the run instead.

With no BENCH arguments, every bench that has a golden stdout file is run
from --build-dir; `bench_golden.py --update` thus refreshes all of them.

ctest runs one check per bench (label `golden`; `ctest -L golden`). The
benches run on the deterministic simulator, so any byte that moves is a
behaviour change: a PR that rewrites a golden says in CHANGES.md which
numbers moved and why. Goldens are pinned to one toolchain; another
compiler or libm may print other digits, hence the diff on failure.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "bench" / "golden"


def json_name(bench: str) -> str:
    """bench_fig1_animoto -> BENCH_fig1_animoto.json (src/common/benchjson.cc)."""
    return "BENCH_" + bench.removeprefix("bench_") + ".json"


def report_diff(golden: Path, expected: bytes, actual: bytes) -> None:
    lines = [text.decode("utf-8", errors="replace").splitlines(keepends=True)
             for text in (expected, actual)]
    diff = difflib.unified_diff(*lines, fromfile=str(golden), tofile=f"{golden.name} (this run)")
    sys.stdout.writelines(diff)
    if not actual.endswith(b"\n"):
        print()


def run_one(binary: Path, update: bool) -> bool:
    bench = binary.name
    with tempfile.TemporaryDirectory(prefix=f"{bench}.") as run_dir:
        env = dict(os.environ, SCADS_BENCH_JSON_DIR=run_dir)
        proc = subprocess.run([str(binary.resolve())], cwd=run_dir, env=env,
                              stdout=subprocess.PIPE)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout.decode("utf-8", errors="replace"))
            print(f"FAIL {bench}: exited {proc.returncode}")
            return False
        written = sorted(p.name for p in Path(run_dir).iterdir())
        if written != [json_name(bench)]:
            print(f"FAIL {bench}: wrote {written}, expected [{json_name(bench)}]")
            return False
        outputs = {
            GOLDEN_DIR / f"{bench}.txt": proc.stdout,
            GOLDEN_DIR / json_name(bench): (Path(run_dir) / json_name(bench)).read_bytes(),
        }
    ok = True
    for golden, actual in outputs.items():
        if update:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            golden.write_bytes(actual)
            print(f"wrote {golden}")
            continue
        if not golden.exists():
            print(f"FAIL {bench}: no golden {golden} (create it with --update)")
            ok = False
            continue
        expected = golden.read_bytes()
        if actual != expected:
            print(f"FAIL {bench}: output differs from {golden}")
            report_diff(golden, expected, actual)
            ok = False
    if ok and not update:
        print(f"PASS {bench}: stdout and {json_name(bench)} match the goldens")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benches", nargs="*", type=Path, help="bench executables")
    parser.add_argument("--update", action="store_true", help="rewrite the goldens")
    parser.add_argument("--build-dir", type=Path, default=Path("build"),
                        help="where to find the benches when none are named")
    args = parser.parse_args()

    benches = args.benches or [args.build_dir / golden.stem
                               for golden in sorted(GOLDEN_DIR.glob("bench_*.txt"))]
    if not benches:
        print(f"no benches named and no goldens under {GOLDEN_DIR}", file=sys.stderr)
        return 2
    missing = [str(b) for b in benches if not b.is_file()]
    if missing:
        print("no such bench executable: " + ", ".join(missing), file=sys.stderr)
        return 2
    results = [run_one(binary, args.update) for binary in benches]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
