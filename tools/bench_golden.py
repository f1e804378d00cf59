#!/usr/bin/env python3
"""Check (or rewrite) the golden outputs of the deterministic benches and examples.

Usage: bench_golden.py [--update] [--build-dir DIR] [PROGRAM ...]

Each PROGRAM is a bench or example executable. It runs in a fresh
temporary directory with SCADS_BENCH_JSON_DIR pointing there, and its
outputs are compared byte for byte with the committed goldens:

    bench/golden/<program>.txt         its stdout
    bench/golden/BENCH_<name>.json     the result file a bench_<name> wrote

A bench (a `bench_*` executable) must write exactly its own result file;
any other program (an example) must write no file at all. A mismatch
prints a unified diff and exits 1. So does a program that exits nonzero
(a bench's shape check failed) or writes any other file. With --update
the goldens are rewritten from the run instead.

With no PROGRAM arguments, every program that has a golden stdout file is
run from --build-dir; `bench_golden.py --update` thus refreshes all of them.

ctest runs one check per program (label `golden`; `ctest -L golden`). The
programs run on the deterministic simulator, so any byte that moves is a
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


def result_files(program: str) -> list[str]:
    """The files `program` must write: bench_fig1_animoto writes
    BENCH_fig1_animoto.json (src/common/benchjson.cc); examples write none."""
    if not program.startswith("bench_"):
        return []
    return ["BENCH_" + program.removeprefix("bench_") + ".json"]


def report_diff(golden: Path, expected: bytes, actual: bytes) -> None:
    lines = [text.decode("utf-8", errors="replace").splitlines(keepends=True)
             for text in (expected, actual)]
    diff = difflib.unified_diff(*lines, fromfile=str(golden), tofile=f"{golden.name} (this run)")
    sys.stdout.writelines(diff)
    if not actual.endswith(b"\n"):
        print()


def run_one(binary: Path, update: bool) -> bool:
    program = binary.name
    expected_files = result_files(program)
    with tempfile.TemporaryDirectory(prefix=f"{program}.") as run_dir:
        env = dict(os.environ, SCADS_BENCH_JSON_DIR=run_dir)
        proc = subprocess.run([str(binary.resolve())], cwd=run_dir, env=env,
                              stdout=subprocess.PIPE)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout.decode("utf-8", errors="replace"))
            print(f"FAIL {program}: exited {proc.returncode}")
            return False
        written = sorted(p.name for p in Path(run_dir).iterdir())
        if written != expected_files:
            print(f"FAIL {program}: wrote {written}, expected {expected_files}")
            return False
        outputs = {GOLDEN_DIR / f"{program}.txt": proc.stdout}
        for name in expected_files:
            outputs[GOLDEN_DIR / name] = (Path(run_dir) / name).read_bytes()
    ok = True
    for golden, actual in outputs.items():
        if update:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            golden.write_bytes(actual)
            print(f"wrote {golden}")
            continue
        if not golden.exists():
            print(f"FAIL {program}: no golden {golden} (create it with --update)")
            ok = False
            continue
        expected = golden.read_bytes()
        if actual != expected:
            print(f"FAIL {program}: output differs from {golden}")
            report_diff(golden, expected, actual)
            ok = False
    if ok and not update:
        checked = " and ".join(["stdout", *expected_files])
        verb = "match the goldens" if expected_files else "matches its golden"
        print(f"PASS {program}: {checked} {verb}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("programs", nargs="*", type=Path,
                        help="bench or example executables")
    parser.add_argument("--update", action="store_true", help="rewrite the goldens")
    parser.add_argument("--build-dir", type=Path, default=Path("build"),
                        help="where to find the programs when none are named")
    args = parser.parse_args()

    programs = args.programs or [args.build_dir / golden.stem
                                 for golden in sorted(GOLDEN_DIR.glob("*.txt"))]
    if not programs:
        print(f"no programs named and no goldens under {GOLDEN_DIR}", file=sys.stderr)
        return 2
    missing = [str(p) for p in programs if not p.is_file()]
    if missing:
        print("no such executable: " + ", ".join(missing), file=sys.stderr)
        return 2
    results = [run_one(binary, args.update) for binary in programs]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
