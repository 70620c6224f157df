#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 qabench/selftest.py

For every workload, runs ``run.py --corrupt`` (which replaces the first
output of round 1 with a wrong one before checking) and expects the run
to count exactly one failed operation, report ``correct: false`` and
exit 1.  Then runs the benchmark from a directory that holds only
``BENCHMARK.json`` and ``qabench/`` and expects it to exit non-zero
without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("qabench", "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    problems = []
    for name in workloads:
        completed = _run(ROOT, "--workload", name, "--seed", "1",
                         "--seconds", "1", "--corrupt")
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        verdict = (completed.returncode, result["correct"], result["failed"])
        print(f"{name}: exit {verdict[0]}, correct {verdict[1]}, "
              f"failed {verdict[2]} of {result['attempted']}")
        if verdict != (1, False, 1):
            problems.append(f"{name}: corrupted answer not counted {verdict}")

    os.makedirs(os.path.join(ROOT, ".qabench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".qabench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "qabench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = _run(bare, "--workload", workloads[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    print(f"without sources: exit {completed.returncode}, "
          f"stdout {completed.stdout.strip()!r}")
    if completed.returncode == 0 or completed.stdout.strip():
        problems.append("ran without the program's sources")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("selftest " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
