"""Closed-loop CLI benchmark for causalcgs.

    python3 perfbench/run.py --workload tree-build --seed 1 --seconds 35 --trace 0

One caller runs ``causalcgs.cli.main(argv)`` in this process, with stdout
captured, and issues the next job only when the previous one has returned.
Each job parses its own model file (see ``workloads.py``) and its output is
checked before the next job starts, with the clock stopped. The timed phase
lasts until the jobs' summed wall time reaches ``--seconds`` and at least
MIN_JOBS jobs have run. It is cut into rounds of ROUND_JOBS jobs, and each
round starts with a set-up: the program is imported afresh, as a new process
would, the round's inputs are generated and one warm-up job runs. The
program's memo caches never free a build, so within a round they keep every
earlier job's work, as in a long-lived process; across rounds the heap stays
bounded, so a run measures the program and not a heap that grows with its
length. ``setup_s`` is the median set-up time over the run's rounds, which
are spread over the whole run rather than bunched at its start.

With ``--trace 0`` the last line reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics.
A traced run alternates between untraced jobs and traced twins of them (the
same model under another tag), so the tracing overhead is measured on equal
work. Spans are written to ``.perfbench_out/spans-<workload>.tsv`` at exit.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

from checks import check_bridge_sweep, check_cause_search, check_tree_build
from tracing import Tracer
from workloads import WORKLOADS, Job, JobSource, argv_for

ROOT = Path(__file__).resolve().parent.parent
# jobs per round; a round's never-freed builds reach about 85 MB on
# tree-build and 75 MB on bridge-sweep. Each round's jobs are generated at
# its start.
ROUND_JOBS = {"tree-build": 24, "cause-search": 64, "bridge-sweep": 48}
MIN_JOBS = 100  # timed jobs per run at least, so ten lie beyond job_p90_ms
RSS_AT_JOB = 100  # peak_rss_mb is read after this many timed jobs
# cause-search jobs per run whose whole cause list is compared with the
# oracle's enumeration, drawn from the first LITERAL_RANGE jobs
LITERAL_SAMPLE = 2
LITERAL_RANGE = 60


def load_program() -> Any:
    """Import ``causalcgs`` afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "causalcgs" or m.startswith("causalcgs.")]:
        del sys.modules[name]
    return importlib.import_module("causalcgs")


def load_oracle() -> Any:
    """``tests/oracle.py``, bound to the currently imported ``causalcgs``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", ROOT / "tests" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.program: Any = None
        self.oracle: Any = None
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.source: Optional[JobSource] = None
        self.setup_times: list[float] = []
        literal_rng = random.Random(f"literal:{seed}")
        self.literal_jobs = set(literal_rng.sample(range(LITERAL_RANGE), LITERAL_SAMPLE))

    # --- one job ----------------------------------------------------------

    def run_job(self, job: Job, tracer: Optional[Tracer] = None, index: int = 0):
        """Run one job; returns (exit code or None on an exception, stdout, ns)."""
        argv = argv_for(self.workload, job, str(self.work))
        buf = io.StringIO()
        cli_main = self.program.cli.main

        def call():
            with contextlib.redirect_stdout(buf):
                return cli_main(argv)

        start = time.perf_counter_ns()
        try:
            if tracer is None:
                code = call()
                ns = time.perf_counter_ns() - start
            else:
                code, ns = tracer.run(index, call)
        except Exception:
            ns = time.perf_counter_ns() - start
            self.failures.append(f"{job.tag}: {traceback.format_exc(limit=3)}")
            return None, buf.getvalue(), ns
        return code, buf.getvalue(), ns

    def check(self, job: Job, code: Optional[int], stdout: str, literal: bool = False) -> bool:
        """Check one job's output with the garbage collector paused, so the
        checker's allocations do not schedule collections into the next job."""
        if code is None:
            return False
        if code != 0:
            self.failures.append(f"{job.tag}: exit code {code}: {stdout[:300]!r}")
            return False
        gc.disable()
        try:
            if self.workload == "tree-build":
                problems = check_tree_build(job, stdout, str(self.work))
            elif self.workload == "cause-search":
                goal = self.program.model.EqTest(*job.goal)
                problems = check_cause_search(job, stdout, self.oracle, goal, literal)
            else:
                problems = check_bridge_sweep(job, stdout)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        finally:
            gc.enable()
        self.failures.extend(f"{job.tag}: {p}" for p in problems)
        return not problems

    def timed(self, job: Job, tracer: Optional[Tracer] = None) -> int:
        index = self.attempted
        code, stdout, ns = self.run_job(job, tracer, index)
        self.attempted += 1
        if not self.check(job, code, stdout, literal=index in self.literal_jobs):
            self.failed += 1
        return ns

    # --- set-up -----------------------------------------------------------

    def set_up(self) -> collections.deque:
        """Start a round: import the program and the oracle afresh, dropping
        the last round's program with its caches, generate the round's jobs
        and run one warm-up job on a model that no timed job uses. The time
        taken, without the collection of the last round's program, is one
        sample of ``setup_s``."""
        gc.collect()
        start = time.perf_counter()
        self.program = load_program()
        self.oracle = load_oracle()
        if self.source is None:
            self.source = JobSource(self.workload, self.seed, self.program, self.oracle,
                                    str(self.work))
        else:
            self.source.program, self.source.oracle = self.program, self.oracle
        pool = self.refill()
        warm = JobSource(self.workload, "warm-up", self.program, self.oracle,
                         str(self.work), prefix="w").next()
        code, stdout, _ = self.run_job(warm)
        self.setup_times.append(time.perf_counter() - start)
        if not self.check(warm, code, stdout):
            self.failures.append("warm-up job failed")
        return pool

    def refill(self) -> collections.deque:
        size = ROUND_JOBS[self.workload]
        if self.trace:
            return collections.deque(self.source.next_pair() for _ in range(size // 2))
        return collections.deque(self.source.next() for _ in range(size))

    # --- timed phases -----------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        pool = collections.deque()
        budget = self.seconds * 1_000_000_000
        latencies: list[int] = []
        rss_kb = None
        while sum(latencies) < budget or len(latencies) < MIN_JOBS:
            if not pool:
                pool = self.set_up()
            latencies.append(self.timed(pool.popleft()))
            if len(latencies) == RSS_AT_JOB:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if rss_kb is None:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
        beyond = sum(1 for x in latencies if x > p90)
        print(f"{len(latencies)} timed jobs in {sum(latencies) / 1e9:.3f} s;"
              f" job_p90_ms has {beyond} samples beyond it;"
              f" peak_rss_mb read after job {min(RSS_AT_JOB, len(latencies))};"
              f" setup_s is the median of {len(self.setup_times)} set-ups")
        print(f"failed_share {self.failed / self.attempted:.6f} ratio"
              f" ({self.failed} of {self.attempted} jobs)")
        return {
            "jobs_per_s": len(latencies) / (sum(latencies) / 1e9),
            "job_p50_ms": statistics.median(latencies) / 1e6,
            "job_p90_ms": p90 / 1e6,
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": rss_kb / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        pool = self.set_up()
        tracer = Tracer(self.program)
        budget = self.seconds * 1_000_000_000
        plain_ns = traced_ns = 0
        pairs = 0
        while plain_ns + traced_ns < budget:
            if not pool:
                pool = self.set_up()
                tracer.bind(self.program)
            job, twin = pool.popleft()
            if pairs % 2 == 0:  # alternate the order to cancel drift
                plain_ns += self.timed(job)
                traced_ns += self.timed(twin, tracer)
            else:
                traced_ns += self.timed(twin, tracer)
                plain_ns += self.timed(job)
            pairs += 1
        metrics = tracer.metrics()
        metrics["trace.overhead"] = traced_ns / plain_ns - 1
        metrics["trace.unwrapped"] = len(tracer.unwrapped)
        print(f"{pairs} job pairs, each run untraced and traced;"
              f" tracing overhead {metrics['trace.overhead']:+.1%}"
              f" (untraced {pairs / (plain_ns / 1e9):.3f} jobs/s,"
              f" traced {pairs / (traced_ns / 1e9):.3f} jobs/s)")
        if tracer.unwrapped:
            print("unwrapped entry points: " + ", ".join(tracer.unwrapped))
        spans = self.work.parent / f"spans-{self.workload}.tsv"
        tracer.write_spans(str(spans))
        print(f"{len(tracer.spans) // 6} spans written to {spans}")
        return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "causalcgs" / "__init__.py"
    oracle = ROOT / "tests" / "oracle.py"
    spec = ROOT / "BENCHMARK.json"
    for needed in (package, oracle, spec):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
    with open(spec, encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s closed loop,"
          f" one caller, {'traced' if args.trace else 'untraced'}")
    try:
        values = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<30} {value:.6g} {metric['unit']}")
    for failure in bench.failures[:10]:
        print(f"failure: {failure}", file=sys.stderr)
    correct = not bench.failures
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
