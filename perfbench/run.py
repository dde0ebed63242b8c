#!/usr/bin/env python3
"""Runs one workload of the benchmark.

Builds the harness (a Cargo package of its own under perfbench/harness)
from source, runs it from the root of the checkout, passes its report
through, and checks that the last line is the result object.

    python3 perfbench/run.py --workload vmc512-t1 --seed 42 --seconds 55 --trace 0

The harness goes to $CARGO_TARGET_DIR (default .bench_build). Exit codes:
0 = a result was printed, 2 = the build failed, 3 = the harness timed out,
4 = the harness printed no valid result, else the harness's own code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "harness" / "Cargo.toml"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The harness must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: harness build failed", file=sys.stderr)
        return 2

    exe = target / "release" / "nps-perfbench"
    try:
        proc = subprocess.run(
            [str(exe), *sys.argv[1:]], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        print(f"perfbench: harness exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == RESULT_KEYS and result["attempted"] >= 1
    except (IndexError, ValueError):
        ok = False
    if not ok:
        print("perfbench: the last line is not a result object", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
