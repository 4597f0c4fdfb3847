#!/usr/bin/env python3
"""The skewlat benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a skewlat source tree; the program is imported from
src/ and run from there, nothing is installed.  NAME is one of the workloads
in workloads.py, or `all` to run each in turn.

A run sets the workload up in fresh interpreters (setup_s), then answers the
workload's query set in passes, one query at a time (closed loop, one
client), checking every answer.  The number of passes is fixed by --seconds:
round(S / nominal pass time), at least 2, so both sides of a comparison do
the same work and the latency percentiles cover the same queries.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of one
traced pass (see tracing.py), and the spans go to .bench_trace/.  The lines
above it are a readable summary.  README.md lists every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACE_DIR = ROOT / ".bench_trace"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 10


def tail(latencies):
    """(value, percentile) of the highest nearest-rank percentile that has
    at least TAIL_BEYOND samples above it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave none with {TAIL_BEYOND} beyond")
    rank = n - TAIL_BEYOND
    return sorted(latencies)[rank - 1], 100.0 * rank / n


def pass_count(workload, seconds):
    return max(2, round(seconds / workload.nominal_pass_s))


def cpu_seconds():
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Outcomes:
    """Timing and verdict of every query run, and the speed probes around them."""

    def __init__(self):
        self.passes = []  # per pass: [(start, end, latency_s, cpu_s, ok)]
        self.speed = speed.SpeedTrace()
        self.reported = 0

    def run_pass(self, queries, tracer=None, sample_inside=False):
        """Answer and time the queries in order; sample_inside also probes
        during them.  Returns the answers for judge()."""
        with self.speed.sampling() if sample_inside else contextlib.nullcontext():
            answers = [self._ask(index, query, tracer) for index, query in enumerate(queries)]
        self.speed.measure()
        return answers

    def _ask(self, index, query, tracer):
        self.speed.maybe_measure()
        span = tracer.begin_query(index, query.label) if tracer else None
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        result = error = None
        try:
            result = query.call()
        except Exception as exc:  # a failed query is counted, not fatal
            error = exc
        end = time.perf_counter()
        cpu1 = cpu_seconds()
        if tracer:
            tracer.end_query(span, query.label, start, end)
        probing = self.speed.probing_within(start, end)
        return start, end, end - start - probing, cpu1 - cpu0 - probing, result, error

    def judge(self, queries, answers):
        """Check every answer and record the pass."""
        records = []
        for query, (start, end, latency, cpu, result, error) in zip(queries, answers):
            ok = False
            if error is None:
                try:
                    ok = bool(query.check(result))
                except Exception as exc:  # malformed answer
                    error = exc
            if not ok:
                self._report(query, error)
            records.append((start, end, latency, cpu, ok))
        self.passes.append(records)
        return records

    def _report(self, query, error):
        if self.reported < MAX_REPORTED_FAILURES:
            reason = repr(error) if error else "answer differs from the reference"
            print(f"FAILED {query.label} {json.dumps(query.inputs)}: {reason}", file=sys.stderr)
        self.reported += 1

    def timings(self, records, scaled=True):
        """[(latency_s, cpu_s)] of records, scaled to the reference speed."""
        out = []
        for start, end, latency, cpu, _ in records:
            f = self.speed.factor(start, end) if scaled else 1.0
            out.append((latency * f, cpu * f))
        return out

    def pass_sums(self, scaled=True):
        """[(wall_s, cpu_s)] per pass."""
        return [tuple(map(sum, zip(*self.timings(p, scaled)))) for p in self.passes]

    @property
    def records(self):
        return [r for records in self.passes for r in records]

    @property
    def failed(self):
        return sum(not ok for *_, ok in self.records)


def setup_samples(workload):
    """Set-up seconds of fresh interpreters, raw and scaled to the reference speed."""
    from workloads import cli_env  # src/ is on sys.path once main() has checked it

    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "setup", workload.name,
           workload.probe_import]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, probe = map(float, done.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * speed.REF_PROBE_S / probe)
    return raw, scaled


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(workload, seed, seconds):
    setup_raw, setup = setup_samples(workload)
    state = workload.setup()
    outcomes = Outcomes()
    for index in range(pass_count(workload, seconds)):
        queries = workload.queries(state, seed, index)
        outcomes.judge(queries, outcomes.run_pass(queries, sample_inside=not workload.in_children))
    latencies = [lat for lat, _ in outcomes.timings(outcomes.records)]
    raw_latencies = [lat for lat, _ in outcomes.timings(outcomes.records, scaled=False)]
    walls, cpus = zip(*outcomes.pass_sums())
    raw_walls, raw_cpus = zip(*outcomes.pass_sums(scaled=False))
    med = statistics.median
    tail_s, tail_pct = tail(latencies)
    n, passes, failed = len(latencies), len(outcomes.passes), outcomes.failed
    rss_of = "largest child" if workload.in_children else "this process"
    metrics = {
        "setup_s": (med(setup), "s", f"raw {med(setup_raw):.6g}, median of "
                    f"{len(setup)} fresh-interpreter set-ups"),
        "wall_s": (med(walls), "s", f"raw {med(raw_walls):.6g}, median of {passes} passes"),
        "cpu_s": (med(cpus), "s", f"raw {med(raw_cpus):.6g}, median of {passes} passes"),
        "query_p50_ms": (med(latencies) * 1000, "ms",
                         f"raw {med(raw_latencies) * 1000:.6g}, median of {n} queries"),
        "query_tail_ms": (tail_s * 1000, "ms", f"raw {tail(raw_latencies)[0] * 1000:.6g}, "
                          f"p{tail_pct:.2f}: {TAIL_BEYOND} of {n} queries above it"),
        "failed_ratio": (failed / n, "ratio", f"{failed} of {n} queries"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB", rss_of),
    }
    head = (f"{workload.name} seed {seed}: {passes} passes x {n // passes} queries, "
            f"{n} attempted, {failed} failed; times scaled to the reference speed")
    # failed_ratio is reported through `attempted` and `failed`: it is 0
    # when the program is right, and the result's metrics must never be 0.
    result_metrics = {k: v[:2] for k, v in metrics.items() if k != "failed_ratio"}
    return head, metrics, result_metrics, n, failed


def traced(workload, seed, seconds):
    state = workload.setup()
    outcomes = Outcomes()
    for index in range(max(1, round(seconds / 2 / workload.nominal_pass_s))):
        queries = workload.queries(state, seed, index)
        outcomes.judge(queries, outcomes.run_pass(queries, sample_inside=not workload.in_children))
    untraced_wall = statistics.median(wall for wall, _ in outcomes.pass_sums())

    tracer = tracing.Tracer(TRACE_DIR)
    queries = workload.queries(state, seed, 0, tracer=tracer)
    tracer.install()
    try:
        span = tracer.begin_query("setup", "setup")
        start = time.perf_counter()
        workload.setup()
        tracer.end_query(span, "setup", start, time.perf_counter())
        answers = outcomes.run_pass(queries, tracer)
    finally:
        tracer.uninstall()
    outcomes.judge(queries, answers)  # checks stay out of the trace
    tracer.write_spans(TRACE_DIR / f"{workload.name}-seed{seed}.json")
    tracer.check_uses(workload.uses)
    overhead = outcomes.pass_sums()[-1][0] / untraced_wall
    metrics = {k: (v, unit, "") for k, (v, unit) in tracer.layer_metrics(overhead).items()}
    n, failed = len(outcomes.records), outcomes.failed
    head = (f"{workload.name} seed {seed}: traced pass of {len(queries)} queries after "
            f"{len(outcomes.passes) - 1} untraced, {n} attempted, {failed} failed")
    return head, metrics, {k: v[:2] for k, v in metrics.items()}, n, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/skewlat/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a skewlat source tree, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = workloads.NAMES if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.NAMES):
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    warnings.filterwarnings("ignore", message="irreducibility", category=UserWarning)
    golden = workloads.load_golden()
    for name in names:
        workload = workloads.make(name, golden)
        measure = traced if args.trace else end_to_end
        try:
            head, metrics, result_metrics, attempted, failed = measure(
                workload, args.seed, args.seconds
            )
        except tracing.TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(head)
        for key, (value, unit, note) in metrics.items():
            print(f"  {key:<28} {value:>14.6g} {unit:<6} {note}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
