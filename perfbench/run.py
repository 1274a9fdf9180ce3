"""shapespline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Generates the workload's documents from the seed, then runs
them through ``shapespline.cli.main`` in a fresh worker process
(``worker.py``), checking every output.

``--trace 0`` prints the end-to-end metrics: segments per second, median
and p90 invocation latency, the import time of ``shapespline.cli`` in a
fresh interpreter (``setup_s``), the worker's peak RSS and the share of
invocations whose output passed every check.  ``--trace 1`` prints the
per-layer metrics from a traced run instead.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See NOTES.md for the workloads and what each metric should respond to.
"""

import os

# pin native thread pools before numpy is imported here or in any child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_SPAWNS = 21
MIN_INVOCATIONS = 110  # so that at least 10 invocations lie beyond p90
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import shapespline.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "segments_per_s": "1/s",
    "doc_p50_ms": "ms",
    "doc_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SHAPESPLINE_SEED"] = "0"
    return env


def provenance() -> dict:
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or sha
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "shapespline").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def write_inputs(workload: str, seed: int, workdir: Path) -> list:
    """Write the documents; return the invocations of one pass."""
    import gen

    invocations = []
    for k, (name, doc) in enumerate(gen.documents(workload, seed)):
        path = workdir / f"{k:03d}-{name}.json"
        path.write_text(json.dumps(doc))
        for template in gen.COMMANDS[workload]:
            argv = [a.format(path=path) for a in template]
            invocations.append({
                "name": name,
                "path": str(path),
                "argv": argv,
                "kind": argv[0],
                "segments": len(doc["points"]) - 1,
                "per_segment": int(argv[argv.index("--per-segment") + 1]) if "--per-segment" in argv else None,
            })
    return invocations


def input_properties(invocations: list) -> dict:
    """Segments per document and the shares of collinear vertices and of
    convex / inflection / torsion / coplanar spans, from ``measures``."""
    sys.path.insert(0, str(SRC))
    from shapespline import cli

    paths = list(dict.fromkeys(inv["path"] for inv in invocations))
    segments, vertices, collinear = [], 0, 0
    flags = {"convex": 0, "inflection": 0, "torsion": 0, "coplanar": 0}
    for path in paths:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(["measures", path]) != 0:
                raise RuntimeError(f"measures failed on {path}")
        m = json.loads(out.getvalue())
        segments.append(len(m["spans"]))
        vertices += len(m["spans"]) - 1
        collinear += len(m["collinear_vertices"])
        for span in m["spans"]:
            for f in span["flags"]:
                if f in flags:
                    flags[f] += 1
    return {
        "documents": len(paths),
        "segments_per_doc": {"min": min(segments), "median": statistics.median(segments), "max": max(segments)},
        "collinear_vertex_share": round(collinear / vertices, 4),
        **{f"{f}_span_share": round(c / sum(segments), 4) for f, c in flags.items()},
    }


def measure_setup(env: dict) -> list:
    """Import time of ``shapespline.cli`` in fresh interpreters; the first
    spawn only warms the bytecode and file caches."""
    times = []
    for _ in range(SETUP_SPAWNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def run_worker(job: dict, workdir: Path, env: dict) -> dict:
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path)], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_for(workload: str, seed: int):
    import gen

    if seed != gen.DEFAULT_SEED:
        return None
    return json.loads((HERE / "reference.json").read_text())[workload]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(res: dict, setup_times: list) -> dict:
    values = {
        "segments_per_s": res["segments_per_s"],
        "doc_p50_ms": res["p50_s"] * 1e3,
        "doc_p90_ms": res["p90_s"] * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_rate": 1.0 - res["failed"] / res["attempted"],
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(res: dict) -> dict:
    import layers

    out = {}
    for name, (label, field) in layers.PER_LAYER.items():
        if field == "overhead_ratio":
            out[name] = metric(res["overhead_ratio"], "ratio")
        elif field == "calls":
            out[name] = metric(res["calls"].get(label, 0), "count")
        else:
            out[name] = metric(res["self_us_per_seg"].get(label, 0.0), "us")
    return out


def main() -> int:
    import gen

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.COMPOSITION))
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "shapespline" / "cli.py").is_file() or not gen.FIXTURES.is_dir():
        sys.exit(f"error: {ROOT} is not a shapespline source checkout (no src/shapespline or tests/fixtures)")

    env = child_env()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        invocations = write_inputs(args.workload, args.seed, workdir)
        props = input_properties(invocations)
        job = {
            "invocations": invocations,
            "seconds": args.seconds,
            "trace": args.trace,
            "min_invocations": MIN_INVOCATIONS,
            "reference": reference_for(args.workload, args.seed),
        }
        if args.trace:
            OUT.mkdir(exist_ok=True)
            job["spans_path"] = str(OUT / f"spans_{args.workload}_seed{args.seed}.npz")
            res = run_worker(job, workdir, env)
            metrics = per_layer(res)
        else:
            setup_times = measure_setup(env)
            res = run_worker(job, workdir, env)
            metrics = end_to_end(res, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("provenance " + json.dumps(provenance()))
    print("inputs " + json.dumps(props))
    if args.trace:
        print(f"absent {json.dumps(res['absent'])}  spans {job['spans_path']}")
    else:
        print(
            f"invocations {res['invocations']} timed in {res['passes']} passes, {res['beyond_p90']} beyond p90, "
            f"{res['timed_s']:.2f} s timed; error_rate {res['failed'] / res['attempted']:.4g}"
        )
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
