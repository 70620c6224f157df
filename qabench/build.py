"""Build a synthetic KB's segment directory in a process of its own.

Run by the benchmark as a child process, so the build's memory does not
count toward the peak RSS of the process that serves the workload::

    python3 qabench/build.py --scale 16 --seed 1 --shards 4 --out DIR

Prints one JSON line: the seconds spent writing the segments
(``build_segments_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from repro.kb import build_segments, load_synthetic_kb

    kb = load_synthetic_kb(scale=args.scale, seed=args.seed)
    start = time.perf_counter()
    build_segments(kb.graph, args.out, shards=args.shards)
    print(json.dumps({"build_segments_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
