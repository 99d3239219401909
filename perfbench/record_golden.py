"""Record golden.json: a SHA-256 of stdout for every invocation the
workload pools can generate.

Usage (from the repository root): python3 perfbench/record_golden.py

Each invocation must exit 0 and, for verify, have every cell ``ok``
before its digest is recorded.  Recording is done once, at a commit
whose outputs are trusted; a later change that alters any byte of
canonical output then fails the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    golden = {}
    for name in workloads.WORKLOADS:
        for argv in workloads.pool(name):
            key = workloads.argv_key(argv)
            if key in golden:
                continue
            inv = run.spawn(run.cli_cmd(argv), run.INVOCATION_TIMEOUT_S)
            golden[key] = hashlib.sha256(inv.stdout).hexdigest()
            problem, _ = run.check_output(argv, inv, golden)
            if problem:
                print(f"{key}: {problem}", file=sys.stderr)
                print(inv.stderr.decode(errors="replace"), file=sys.stderr)
                return 1
            print(f"{inv.wall_s:7.3f} s  {key}", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} digests in {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
