"""Run one benchmark workload and print its result as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_miss --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same inputs untraced and then traced, and reports
the per-layer metrics of the traced pass.  The workloads are described in
``perfbench/workloads.py`` and ``BENCHMARK.json``.

Output: one JSON line with the host and run details, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every response passed the correctness check; a failed check
prints ``"correct": false`` with no metrics.  The benchmark imports the
program from ``src/`` beside this directory and exits with code 2 when
it is missing.  Temporary files (the shard spill directory) live in
``.perfbench-work/`` at the repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _env(args, runs: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from probes import LAYER_UNITS
    from workloads import END_TO_END_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    WORK_DIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(WORK_DIR)
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    finally:
        # Shard workers are joined by ShardedEngine.close(); the semaphore
        # tracker multiprocessing started for them is stopped and reaped here.
        resource_tracker._resource_tracker._stop()
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps({"env": _env(args, result.runs)}))
    for problem in result.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = not result.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(result.served),
                "failed": sum(not record.ok for record in result.served),
                "metrics": {
                    name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()
                }
                if correct
                else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
