"""One repetition of a workload, in a fresh interpreter so every cache starts cold.

    python3 bench/child.py --workload W --seed S [--trace]

Run from the repository root with ``src`` on ``PYTHONPATH``.  Prints one JSON
object: ``setup_s``, ``run_s``, the latency of each CLI request
``latencies_ms``, ``peak_rss_mb``, ``attempted``, ``failed``, the
first failure messages and, with ``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import workloads

clock = time.perf_counter


CRASHED = -1  # the exit code recorded when cli.main raises


def call_cli(argv, stdin=None, stderr=None):
    """Run ``quadchow.cli.main`` in-process; returns (exit code, stdout).

    An exception out of the program is a failed operation, not a benchmark
    error: it is written to ``stderr`` and reported as exit code CRASHED.
    """
    from quadchow import cli

    out = io.StringIO()
    err = stderr or io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:
        err.write("crash: %r\n" % (exc,))
        rc = CRASHED
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


class Run:
    def __init__(self, name: str, seed: int, tracer=None):
        self.name = name
        self.seed = seed
        self.tracer = tracer
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def phase(self, label: str):
        if self.tracer is None:
            return contextlib.nullcontext(None)
        return self.tracer.span("phase." + label)

    # -- verify workloads ------------------------------------------------------

    def verify_setup(self) -> None:
        from quadchow import schubert

        schubert.build_geometry(workloads.VERIFY[self.name]["n"])

    def verify_run(self) -> None:
        """One ``quadchow verify`` request per suite entry; its latency is the
        call's wall time."""
        spec = workloads.VERIFY[self.name]
        self.reports = []
        for suite in spec["suites"]:
            err = io.StringIO()
            t0 = clock()
            rc, out = call_cli(workloads.verify_argv(suite, spec["n"], self.seed), stderr=err)
            self.latencies_ms.append((clock() - t0) * 1e3)
            self.reports.append((suite, rc, out, err.getvalue()))

    def verify_check(self) -> None:
        spec = workloads.VERIFY[self.name]
        seen = passed = 0
        for suite, rc, out, err in self.reports:
            if rc == CRASHED:
                self.failures.append("verify %s: %s" % (suite, err.strip()))
            elif rc != 0:
                self.failures.append("verify %s: exit code %d" % (suite, rc))
            try:
                s, p = workloads.count_verify_output(out)
            except (ValueError, KeyError, TypeError) as exc:
                self.failures.append("verify %s: unreadable report (%r)" % (suite, exc))
                continue
            seen, passed = seen + s, passed + p
        self.attempted = max(seen, spec["cases"])
        self.failed = self.attempted - passed
        if seen != spec["cases"]:
            self.failures.append("expected %d cases, saw %d" % (spec["cases"], seen))
        if self.failed:
            self.failures.append("%d of %d cases did not pass" % (self.failed, self.attempted))

    # -- compute-session -------------------------------------------------------

    def session_setup(self) -> None:
        from quadchow import schubert

        schubert.build_geometry(workloads.SESSION_N)
        self.responses = [(req,) + call_cli(req.argv(), req.stdin) for req in workloads.universe()]

    def session_run(self) -> None:
        stream = workloads.session_stream(self.seed)
        responses = []
        for req in stream:
            t0 = clock()
            rc, out = call_cli(req.argv(), req.stdin)
            self.latencies_ms.append((clock() - t0) * 1e3)
            responses.append((req, rc, out))
        self.responses += responses

    def session_check(self) -> None:
        checker = workloads.Checker()
        self.attempted = len(self.responses)
        for req, rc, out in self.responses:
            try:
                problem = checker.check(req, rc, out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = "%s: unreadable response (%r)" % (req.argv(), exc)
            if problem:
                self.failed += 1
                self.failures.append(problem)
        del self.responses


def run(name: str, seed: int, tracer=None) -> dict:
    from quadchow import cli  # noqa: F401  (import time is not set-up time)

    r = Run(name, seed, tracer)
    session = name == "compute-session"
    setup = r.session_setup if session else r.verify_setup
    timed = r.session_run if session else r.verify_run
    check = r.session_check if session else r.verify_check
    installed = contextlib.nullcontext()
    if tracer is not None:
        import layers

        installed = layers.installed(tracer)
    with installed:
        with r.phase("setup"):
            t0 = clock()
            setup()
            setup_s = clock() - t0
        lo = len(tracer) if tracer is not None else 0
        with r.phase("run"):
            t0 = clock()
            timed()
            run_s = clock() - t0
        run_span = (lo, len(tracer) if tracer is not None else 0)
    # before the checks, whose parsing would add to the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check()
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "latencies_ms": r.latencies_ms,
        "peak_rss_mb": peak_rss_mb,
        "attempted": r.attempted,
        "failed": r.failed,
        "failures": r.failures[:10],
    }
    if tracer is not None:
        import layers

        leftover = layers.leftover_wrappers()
        if leftover:
            result["failures"].append("wrappers left installed: %s" % leftover)
            result["failed"] += 1
        result["layers"] = trace_metrics(tracer, run_span)
    return result


def trace_metrics(tracer, run_span) -> dict:
    """Per-layer metrics over set-up and timed phase, plus the timed phase's
    polynomial work and cache misses on their own."""
    import layers

    out = layers.layer_metrics(tracer)
    timed = layers.layer_metrics(tracer, *run_span)
    for key in layers.RUN_ONLY:
        out["run." + key] = timed[key]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    result = run(args.workload, args.seed, tracer)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
