"""Parent-vs-change byte check of the command line.

    python3 tools/bytecheck.py OLD_SRC NEW_SRC [--seeds 0 1]

Runs one set of invocations through ``shapespline.cli.main`` in process,
once per ``src/`` tree, each tree in its own interpreter (the two run side
by side), and prints every invocation whose stdout, stderr or exit code
differs between the trees.  Exit status 0 when they agree on every
invocation, 1 otherwise.

The set, with its documents generated by ``perfbench/gen.py``:

* every fixture under ``tests/fixtures`` under ``check``, ``check
  --verify``, ``measures``, ``sample``, ``inflection`` and ``inflection
  --verify`` at the default settings (``--tangents provided`` where the
  fixture lists tangents);
* the documents of each seed of every workload under the workload's own
  commands plus ``check`` and ``measures``, ``check --verify`` on the
  ``check_small`` documents, and ``inflection --verify`` at the default
  settings on the ``verify`` documents;
* the ``verify`` documents of those seeds translated by 1e6 and by 1e8
  along every axis, under ``inflection --samples 128 --directions 512``
  and ``inflection --verify``: there the rounding of the coordinates puts
  the sampled curvature of the straight segments above its dead band
  (counts up to 84 at seeds 0-2), so the direction search's certificate
  declines on some segments and bounds others by their noise;
* the same documents scaled by 2^-340 (an exact scaling), under
  ``inflection --samples 128 --directions 512``: their dead bands lie
  below the direction search's floor (``polygon._MIN_BAND``), where
  squared lengths underflow, so every vector is live and every
  certificate declines, on helices and S-curves as well as polylines;
* the ``export`` documents of those seeds (150-550 points) under
  ``inflection --samples 128 --directions 512`` and ``check --verify
  --samples 128``: at 128 samples a run holds 128 segments
  (``oracle.segment_run``), so each document spans two to five runs of
  both oracles;
* ``inflection --verify`` on the ``verify`` documents of seed 4, whatever
  the seeds: ``helix-20``, ``helix-46`` and ``helix-60`` report arc-count
  undercounts there, so every run compares that disagreement text;
* the collinearity window over part of the knot intervals, ``check --eta
  0.5`` and ``check --verify --samples 128 --eta 0.25``, on the two
  collinear fixtures and on every polyline document of those seeds;
* long collinear-run polylines of each seed (``gen.collinear_polyline``,
  200 and 1 000 points), whose collinear vertices fill many of the
  extended collinearity check's vertex blocks, under ``check`` and
  ``check --verify``;
* ``check --eta 0.25`` on a collinear polyline whose knots sit at 1e16,
  widths of 2 next to widths of 1e3, so that the window part after each
  width of 2 is empty while its neighbours' are not;
* a 2-point, a 3-point and a straight 4-point document under ``check``,
  ``check --verify``, ``measures``, ``sample``, ``inflection`` and
  ``inflection --verify``: they have no interior span, or no span that
  qualifies for a battery criterion, so ``analyze`` runs its battery
  kernels on zero rows;
* documents whose diagnostics overflow, under ``check``, ``check
  --verify``, ``measures``, ``sample``, ``inflection`` and ``inflection
  --verify``: the tiny-knot and NaN-curvature documents and the 13-point
  polyline of ``tests/test_cli.py``'s ``TestNonFiniteDiagnostic``, the
  polyline scaled by 1e±100 and 1e±160.  There the turns and the
  curvature samples overflow, so the direction searches meet inf and NaN,
  and ``sample`` meets non-finite rows.

Python prints a warning, with its file and line, once per source line and
registry; each invocation starts with a fresh registry, so its stderr
holds every warning it raises, whatever ran before it.  The file is shown
relative to the tree, as ``<src>/shapespline/...``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import numpy as np  # noqa: E402

FIXTURE_COMMANDS = (
    ("check",),
    ("check", "--verify"),
    ("measures",),
    ("sample",),
    ("inflection",),
    ("inflection", "--verify"),
)
EXTRA_COMMANDS = (("check",), ("measures",))
ETA_COMMANDS = (
    ("check", "--eta", "0.5"),
    ("check", "--verify", "--samples", "128", "--eta", "0.25"),
)
ETA_FIXTURES = ("collinear_in_convex", "collinear_line")
OVERFLOW_COMMANDS = (
    ("check",),
    ("check", "--verify"),
    ("measures",),
    ("sample",),
    ("inflection",),
    ("inflection", "--verify"),
)
UNDERCOUNT_SEED = 4
LONG_POLYLINES = (200, 1000)
LONG_COMMANDS = (("check",), ("check", "--verify"))
OFFSET_KNOT_COMMANDS = (("check", "--eta", "0.25"),)
SHIFTS = (1e6, 1e8)
SHIFT_COMMANDS = (("inflection", "--samples", "128", "--directions", "512"), ("inflection", "--verify"))
TINY_SCALE = 2.0**-340
TINY_COMMANDS = (("inflection", "--samples", "128", "--directions", "512"),)
RUN_COMMANDS = (("inflection", "--samples", "128", "--directions", "512"), ("check", "--verify", "--samples", "128"))


def offset_knot_document() -> dict:
    """A collinear-run polyline whose knots start at 1e16 with widths of 2
    and 1e3 in turn: a quarter of a width of 2 rounds away there."""
    pts = gen.collinear_polyline(np.random.default_rng(16), 13)
    widths = [2.0 if k % 2 == 0 else 1e3 for k in range(len(pts) - 1)]
    knots = 1e16 + np.concatenate([[0.0], np.cumsum(widths)])
    return {"version": 1, "points": pts.tolist(), "knots": knots.tolist()}


def short_documents() -> dict:
    """Documents whose battery batches are empty, by name."""
    return {
        "two-points": {"version": 1, "points": [[0, 0, 0], [1, 2, 3]]},
        "three-points": {"version": 1, "points": [[0, 0, 0], [1, 0.5, 0], [2, 0, 0.5]]},
        "straight-four": {"version": 1, "points": [[0, 0, 0], [1, 1, 1], [2, 2, 2], [4, 4, 4]]},
    }


def overflow_documents() -> dict:
    """The documents of ``tests/test_cli.py``'s ``TestNonFiniteDiagnostic``
    by name: knot widths of 1e-90, knot widths of 1e-160 on planar data, and
    its polyline, built as ``tests/conftest.py``'s ``collinear_polyline``
    builds it, at four scales."""
    docs = {
        "tiny-knots": {
            "version": 1,
            "points": [[0, 0, 0], [1, 0.2, 0.1], [2, 1, -0.3], [3, 2.5, 0.4], [4, 2.7, 1.0], [5, 3, 0.2]],
            "knots": [k * 1e-90 for k in range(6)],
        },
        "nan-curvature": {
            "version": 1,
            "points": [[0, 0, 0], [1, 0.2, 0], [2, 1, 0], [3, 2.5, 0]],
            "knots": [0, 1e-160, 2e-160, 3e-160],
        },
    }
    ends = np.random.default_rng(8).uniform(-2.0, 2.0, (4, 3))
    pts = [ends[0]]
    for a, b in zip(ends[:-1], ends[1:]):
        pts.extend(a + (k / 4) * (b - a) for k in range(1, 5))
    for scale in (1e100, 1e-100, 1e160, 1e-160):
        docs[f"polyline-x{scale:g}"] = {"version": 1, "points": (np.array(pts) * scale).tolist()}
    return docs


def plan(seeds, workdir: Path) -> list:
    """Write the documents to ``workdir``; return the argv of every
    invocation."""
    invocations = []
    for path in sorted(gen.FIXTURES.glob("*.json")):
        extra = ["--tangents", "provided"] if "tangents" in json.loads(path.read_text()) else []
        commands = FIXTURE_COMMANDS + (ETA_COMMANDS if path.stem in ETA_FIXTURES else ())
        invocations += [[sub, str(path), *flags, *extra] for sub, *flags in commands]
    for workload in gen.COMPOSITION:
        for seed in seeds:
            for k, (name, doc) in enumerate(gen.documents(workload, seed)):
                if name.startswith("fixture-"):
                    continue
                path = workdir / f"{workload}-{seed}-{k:03d}-{name}.json"
                path.write_text(json.dumps(doc))
                commands = [tuple(a.format(path=path) for a in t) for t in gen.COMMANDS[workload]]
                commands += [(sub, str(path), *flags) for sub, *flags in EXTRA_COMMANDS]
                if workload == "check_small":
                    commands.append(("check", str(path), "--verify"))
                if workload == "export":
                    commands += [(sub, str(path), *flags) for sub, *flags in RUN_COMMANDS]
                if workload == "verify":
                    commands.append(("inflection", str(path), "--verify"))
                    for offset in SHIFTS:
                        shifted = workdir / f"{workload}-{seed}-{k:03d}-{name}-shift{offset:g}.json"
                        shifted.write_text(json.dumps(dict(doc, points=(np.array(doc["points"]) + offset).tolist())))
                        commands += [(sub, str(shifted), *flags) for sub, *flags in SHIFT_COMMANDS]
                    tiny = workdir / f"{workload}-{seed}-{k:03d}-{name}-tiny.json"
                    tiny.write_text(json.dumps(dict(doc, points=(np.array(doc["points"]) * TINY_SCALE).tolist())))
                    commands += [(sub, str(tiny), *flags) for sub, *flags in TINY_COMMANDS]
                if name.startswith("polyline-"):
                    commands += [(sub, str(path), *flags) for sub, *flags in ETA_COMMANDS]
                invocations += [list(argv) for argv in dict.fromkeys(commands)]
    if UNDERCOUNT_SEED not in seeds:
        for k, (name, doc) in enumerate(gen.documents("verify", UNDERCOUNT_SEED)):
            if not name.startswith("fixture-"):
                path = workdir / f"verify-{UNDERCOUNT_SEED}-{k:03d}-{name}.json"
                path.write_text(json.dumps(doc))
                invocations.append(["inflection", str(path), "--verify"])
    for seed in seeds:
        for n in LONG_POLYLINES:
            path = workdir / f"long-{seed}-polyline-{n}.json"
            pts = gen.collinear_polyline(np.random.default_rng([seed, n]), n)
            path.write_text(json.dumps({"version": 1, "points": pts.tolist()}))
            invocations += [[sub, str(path), *flags] for sub, *flags in LONG_COMMANDS]
    path = workdir / "offset-knots.json"
    path.write_text(json.dumps(offset_knot_document()))
    invocations += [[sub, str(path), *flags] for sub, *flags in OFFSET_KNOT_COMMANDS]
    for name, doc in short_documents().items():
        path = workdir / f"short-{name}.json"
        path.write_text(json.dumps(doc))
        invocations += [[sub, str(path), *flags] for sub, *flags in FIXTURE_COMMANDS]
    for name, doc in overflow_documents().items():
        path = workdir / f"overflow-{name}.json"
        path.write_text(json.dumps(doc))
        invocations += [[sub, str(path), *flags] for sub, *flags in OVERFLOW_COMMANDS]
    return invocations


def run_tree(src: str, plan_path: str, out_path: str) -> None:
    """Run every invocation of the plan against the tree ``src``; write
    per invocation the sha256 of stdout, stderr and the exit code.  A
    warning names the file it comes from: stderr shows the tree's path as
    ``<src>``, so that the two trees' warnings compare."""
    sys.path.insert(0, src)
    from shapespline import cli

    results = []
    for argv in json.loads(Path(plan_path).read_text()):
        out, err = io.StringIO(), io.StringIO()
        # entering catch_warnings invalidates every module's warning registry
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        stderr = err.getvalue().replace(src, "<src>")
        results.append([hashlib.sha256(out.getvalue().encode()).hexdigest(), stderr, code])
    Path(out_path).write_text(json.dumps(results))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare the CLI output of two src/ trees byte for byte.")
    ap.add_argument("old", type=Path, help="the src/ directory to compare against")
    ap.add_argument("new", type=Path, help="the src/ directory under test")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1], help="workload seeds (default 0 1)")
    args = ap.parse_args(argv)
    env = {k: v for k, v in os.environ.items() if k != "SHAPESPLINE_SEED"}
    env.update(PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        invocations = plan(args.seeds, work)
        (work / "plan.json").write_text(json.dumps(invocations))
        trees = (args.old.resolve(), args.new.resolve())
        procs = [
            subprocess.Popen(
                [sys.executable, __file__, "--run", str(src), str(work / "plan.json"), str(work / f"out{k}.json")],
                env=env,
            )
            for k, src in enumerate(trees)
        ]
        if any(p.wait() != 0 for p in procs):
            print("error: a tree's run failed", file=sys.stderr)
            return 2
        old, new = (json.loads((work / f"out{k}.json").read_text()) for k in range(2))
    differ = 0
    for argv, a, b in zip(invocations, old, new):
        streams = [name for name, x, y in zip(("stdout", "stderr", "exit code"), a, b) if x != y]
        if streams:
            differ += 1
            print(f"{' '.join(argv)}: {', '.join(streams)} differ (exit {a[2]} vs {b[2]})")
            if a[1] != b[1]:
                print(f"  stderr old: {a[1]!r}\n  stderr new: {b[1]!r}")
    print(f"{len(invocations)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        run_tree(*sys.argv[2:5])
        sys.exit(0)
    sys.exit(main())
