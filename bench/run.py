"""The quadchow benchmark: one workload, measured in fresh child interpreters.

    python3 bench/run.py --workload verify-n7 --seed 1 --seconds 20 --trace 0

Run it from the repository root; it puts ``src`` on the children's
``PYTHONPATH`` and installs nothing.  Children run one at a time, each one a
cold start that sets up and then runs the timed phase, until ``--seconds``
have passed and at least two have run.

With ``--trace 0`` it reports the end-to-end metrics: medians over the
repetitions of ``setup_s``, ``run_s`` and ``peak_rss_mb``, and ``req_p50_ms``
/ ``req_p99_ms`` over every CLI request of every repetition.  With
``--trace 1`` it runs one untraced and one traced repetition and reports the
per-layer metrics of the traced one plus the tracing overhead.  ``--workload
all`` runs every workload in turn and prefixes each metric with its workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output checked out.  See README.md for the workloads.
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
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEADLINE_S = 170.0  # the whole run, children included
MIN_REPS = 2

UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def child(workload: str, seed: int, deadline: float, trace=False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left for another repetition")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed("repetition timed out") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed("repetition exited %d: %s" % (proc.returncode, tail[0]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list]:
    """Untraced repetitions; returns (metrics, child results)."""
    start = time.monotonic()
    full = []
    while len(full) < MIN_REPS or time.monotonic() - start < seconds:
        full.append(child(workload, seed, deadline))
    latencies = [ms for r in full for ms in r["latencies_ms"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in full),
        "run_s": statistics.median(r["run_s"] for r in full),
        "req_p50_ms": percentile(latencies, 50),
        "req_p99_ms": percentile(latencies, 99),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
    }
    print("%s seed %d: %d repetitions, %d requests timed" % (
        workload, seed, len(full), len(latencies)))
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, full


def trace(workload: str, seed: int, deadline: float) -> tuple[dict, list]:
    """One untraced and one traced repetition; returns (metrics, child results)."""
    plain = child(workload, seed, deadline)
    traced = child(workload, seed, deadline, trace=True)
    layers = dict(traced.pop("layers"))
    layers["trace.run_s"] = traced["run_s"]
    layers["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    print("%s seed %d: traced run_s %.3f s, untraced %.3f s" % (
        workload, seed, traced["run_s"], plain["run_s"]))
    return metrics, [plain, traced]


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".hit_ratio"):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    try:
        if traced:
            metrics, results = trace(workload, seed, deadline)
        else:
            metrics, results = measure(workload, seed, seconds, deadline)
    except ChildFailed as exc:
        print("%s: %s" % (workload, exc), file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for message in r["failures"]:
            print("FAILED %s: %s" % (workload, message), file=sys.stderr)
    for name, m in metrics.items():
        print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-44s %14.6g (%d of %d operations)" % (
        "failed_ratio", failed / max(attempted, 1), failed, attempted))
    correct = failed == 0 and not any(r["failures"] for r in results)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not Path("src", "quadchow", "cli.py").is_file():
        print("error: run from the repository root (src/quadchow not found)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        for name in names
    }
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                "%s/%s" % (name, k): v
                for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
