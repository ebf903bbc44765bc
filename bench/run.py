"""Benchmark of rebalance-sim, one workload or all of them.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh interpreter (``worker.py``): one caller in a
closed loop, no threads. With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every output check passed; a worker that cannot run (for instance with no
simulator sources in the checkout) ends the run with no result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import BENCHMARK_WORKLOADS, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
# setup_s is the median over the measuring worker and this many more fresh
# interpreters that only set up.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


def run_worker(args: list[str], timeout: float) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    command = [sys.executable, str(WORKER), *args]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run: worker {' '.join(args)} exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise SystemExit(f"run: worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    result = run_worker([*base, "--seconds", str(seconds), "--trace", str(trace)],
                        WORKER_TIMEOUT_S)
    if not trace:
        samples = [result.pop("setup_s")]
        samples += [run_worker([*base, "--setup-only"], PROBE_TIMEOUT_S)["setup_s"]
                    for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(samples)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        result["report"].append(
            f"{name}: setup_s {setup_s:.4f} s (median of {len(samples)} fresh interpreters)")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *sorted(WORKLOADS)])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        for line in results[name]["report"]:
            print(line, flush=True)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": value
                   for name, result in results.items()
                   for key, value in result["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
