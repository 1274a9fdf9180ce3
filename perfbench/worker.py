"""One workload run, in a fresh interpreter started by ``run.py``.

    python3 perfbench/worker.py JOB.json

The job lists the invocations of one pass over the workload's documents.
The worker calls ``shapespline.cli.main(argv)`` in process, one invocation
at a time (a closed loop with one client), capturing stdout and stderr.
Every output is checked after its invocation, outside the timed region.

Untraced mode makes one warm-up invocation, then repeats whole passes until
the timed invocations add up to the requested seconds and number of
invocations.  Trace mode alternates an untraced and a traced pass over the
same invocations for the requested seconds, and reports per-layer call
counts and self time.  The result is the last line of stdout, as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
MAX_PROBLEMS = 5


def invoke(cli, argv):
    """(seconds, exit code or None, stdout, error text) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code, error = None, f"SystemExit({exc.code!r})"
    except Exception as exc:  # any crash of the program under test is a failed invocation
        code, error = None, f"raised {exc!r}"
    dt = time.perf_counter() - t0
    if code == 2:
        error = f"exit code 2: {err.getvalue().strip()}"
    return dt, code, out.getvalue(), error


def output_problems(inv: dict, code, text: str, error: str, points) -> list:
    if error:
        return [error]
    kind = inv["kind"]
    if kind == "sample":
        return checks.check_csv(text, code, points, inv["per_segment"])
    if kind == "inflection":
        return checks.check_inflection(text, code, inv["segments"], verify="--verify" in inv["argv"])
    return checks.check_report(text, code, inv["segments"], verify="--verify" in inv["argv"])


class Run:
    """Invocations, their reference outputs and the failure tally of one run."""

    def __init__(self, cli, job: dict):
        self.cli = cli
        self.invocations = job["invocations"]
        self.reference = job.get("reference")
        self.points = [
            np.array(json.loads(Path(inv["path"]).read_text())["points"], dtype=float)
            if inv["kind"] == "sample"
            else None
            for inv in self.invocations
        ]
        self.first_hash = [None] * len(self.invocations)
        self.digests = [None] * len(self.invocations)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, i: int, tracer=None):
        """Invoke number ``i``, check its output; return its time in seconds."""
        inv = self.invocations[i]
        if tracer is not None:
            tracer.current_doc = self.attempted
        dt, code, text, error = invoke(self.cli, inv["argv"])
        self.attempted += 1
        problems = output_problems(inv, code, text, error, self.points[i])
        digest = hashlib.sha256(text.encode()).digest()
        if self.first_hash[i] is None:
            self.first_hash[i] = digest
            if not problems:
                self.digests[i] = [code, checks.verdict_digest(inv["kind"], text)]
                if self.reference is not None and self.digests[i] != self.reference[i]:
                    problems.append(f"decisions {self.digests[i]} differ from reference {self.reference[i]}")
        elif digest != self.first_hash[i]:
            problems.append("output differs from an earlier identical invocation" + (" (traced)" if tracer else ""))
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{inv['name']} {' '.join(inv['argv'][:1])}: {problems[0]}")
        return dt

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def run_untraced(run: Run, seconds: float, min_invocations: int) -> dict:
    """Whole passes until ``seconds`` of timed invocations and at least
    ``min_invocations``.  Throughput and median latency are medians over
    passes, so that a burst of load from outside the process moves them
    less.  Documents of different sizes leave gaps in the latency
    distribution; a pass median averages the two middle invocations, where
    a pooled median would pick the slowest repeat of one of them."""
    run.call(0)  # warm-up: lazy imports and first-call caches, checked but not timed
    pass_segments = sum(inv["segments"] for inv in run.invocations)
    times, pass_rates, pass_medians = [], [], []
    while sum(times) < seconds or len(times) < min_invocations:
        pass_times = [run.call(i) for i in range(len(run.invocations))]
        pass_rates.append(pass_segments / sum(pass_times))
        pass_medians.append(statistics.median(pass_times))
        times += pass_times
    p90 = sorted(times)[math.ceil(0.9 * len(times)) - 1]  # nearest rank
    return {
        **run.result(),
        "timed_s": sum(times),
        "invocations": len(times),
        "passes": len(pass_rates),
        "segments_per_s": statistics.median(pass_rates),
        "p50_s": statistics.median(pass_medians),
        "p90_s": p90,
        "beyond_p90": sum(t > p90 for t in times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(run: Run, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced passes; the spans of the last traced
    pass are written to ``spans_path``."""
    tracer = Tracer()
    run.call(0)
    untraced_s = traced_s = 0.0
    calls = self_ns = None
    segments = 0
    t_end = time.perf_counter() + seconds
    while calls is None or time.perf_counter() < t_end:
        untraced_s += sum(run.call(i) for i in range(len(run.invocations)))
        tracer.clear()
        tracer.install()
        try:
            traced_s += sum(run.call(i, tracer) for i in range(len(run.invocations)))
        finally:
            tracer.uninstall()
        pass_calls, pass_self = tracer.aggregate()
        segments += sum(inv["segments"] for inv in run.invocations)
        if calls is None:
            calls, self_ns = pass_calls, pass_self
        else:
            if not np.array_equal(calls, pass_calls):
                run.failed += 1
                run.problems.append("call counts differ between two traced passes")
            self_ns = self_ns + pass_self
    tracer.save(spans_path)
    return {
        **run.result(),
        "absent": tracer.absent,
        "calls": dict(zip(tracer.labels, calls.tolist())),
        "self_us_per_seg": dict(zip(tracer.labels, (self_ns / 1e3 / segments).tolist())),
        "overhead_ratio": traced_s / untraced_s,
    }


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from shapespline import cli

    run = Run(cli, job)
    if job["trace"]:
        result = run_traced(run, job["seconds"], job["spans_path"])
    else:
        result = run_untraced(run, job["seconds"], job["min_invocations"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
