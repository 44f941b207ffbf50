#!/usr/bin/env python3
"""Builds the qsa benchmark (Release) from this checkout and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_paper --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`). Build output goes to
standard error. The build tree is `$CARGO_TARGET_DIR/perfbench` when that
variable is set (relative paths are taken from the checkout root), else
`.bench_build/perfbench`. A traced run also writes its spans to
`<build tree>/spans-<workload>-<seed>.jsonl`.

Exit status: 0 when every correctness check passed; 1 when one failed; 2 on
bad arguments or when the checkout holds no qsa sources to build.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(tree: Path) -> Path:
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (tree / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(tree), "--target", "qsabench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)
    return tree / "qsabench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid_paper", "grid_churn_dht", "serve_warm"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no qsa sources at {ROOT / 'src'}; nothing to "
              "build or measure", file=sys.stderr)
        return 2

    tree = build_dir()
    try:
        binary = build(tree)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans-out",
                    str(tree / f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
