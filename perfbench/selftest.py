"""Self-test of the benchmark itself.

Usage (from the root of a contamest checkout):

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all by default) it makes two traced runs with the same
seed and fails unless both are correct and every work count repeats
exactly.  It also copies only BENCHMARK.json and perfbench/ into an empty
directory and fails unless the benchmark refuses to run there: exits
non-zero and prints no result.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEED = 7

# Counts that depend only on the inputs, never on timing.
EXACT = (
    "estimator.probes",
    "estimator.full_solves",
    "solver.mixture.iterations",
    "solver.klball.iterations",
    "solver.cap_hits",
    "cli.categories",
)


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counts_repeat(workload: str, seed: int) -> list[str]:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    errors = [f"{workload}: run {i} not correct" for i, r in enumerate((first, second))
              if not r["correct"]]
    for name in EXACT:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            errors.append(f"{workload}: {name} differs between runs: {a} != {b}")
    return errors


def check_refuses_without_source(workload: str) -> list[str]:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / RUN.name), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["benchmark ran in a directory without the contamest source"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    unknown = set(args.workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; choose from {names}")
    errors = check_refuses_without_source(names[0])
    for workload in args.workloads or names:
        errors += check_counts_repeat(workload, SEED)
    for line in errors:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
