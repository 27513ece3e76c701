"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

Runs from a checkout of the repository, using the chevlab sources under its
``src``; nothing is installed.  The measurement happens in a fresh child
interpreter (``child.py``) so that set-up time starts at process start and
the peak resident set is that of the measured process alone.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced round with ``--trace 1``.

The machine's speed drifts in phases of several seconds, so one set-up
(about 2.5 s for symbolic, 0.4 s for kernel) does not repeat within a
tenth.  The run therefore also starts fresh processes that only import
chevlab and do the cold build, SETUP_BEFORE of them before the measured
process and SETUP_AFTER after it, so that the samples fall in different
phases, and reports the median set-up time of all of them.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run must end within 180 s; every process it starts ends by RUN_DEADLINE_S
RUN_DEADLINE_S = 175
SETUP_BEFORE, SETUP_AFTER = 2, 2

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chevlab" / "__init__.py").is_file():
        print(f"no chevlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    # numpy's integer products do not use BLAS; keep its pools at one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    command = [
        sys.executable, str(HERE / "child.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    deadline = time.monotonic() + RUN_DEADLINE_S
    before, after = (0, 0) if args.trace else (SETUP_BEFORE, SETUP_AFTER)
    setup_only = command + ["--setup-only"]
    results = [measure(setup_only, env, deadline) for _ in range(before)]
    results.append(measure(command, env, deadline))
    results += [measure(setup_only, env, deadline) for _ in range(after)]
    if None in results:
        return 1
    child = results.pop(before)
    metrics = child["metrics"]
    if not args.trace:
        samples = [metrics["setup_s"]["value"]] + [r["setup_s"] for r in results]
        metrics["setup_s"]["value"] = statistics.median(samples)
        print("setup_samples_s=" + ",".join(f"{v:.4f}" for v in samples))
    print(f"workload={args.workload} seed={args.seed} rounds={child['rounds']}")
    print("report_sha256=" + ",".join(child["report_sha256"]))
    print(json.dumps({key: child[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(command: list[str], env: dict, deadline: float) -> dict | None:
    """Run one measured process; its last stdout line is its JSON result."""
    spawned_at = time.monotonic()
    timeout = deadline - spawned_at
    try:
        proc = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"a measured process ran past the run's {RUN_DEADLINE_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"the measured process exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


if __name__ == "__main__":
    sys.exit(main())
