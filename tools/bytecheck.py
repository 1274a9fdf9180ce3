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
  commands plus ``check`` and ``measures``, and ``check --verify`` on the
  ``check_small`` documents;
* the collinearity window over part of the knot intervals, ``check --eta
  0.5`` and ``check --verify --samples 128 --eta 0.25``, on the two
  collinear fixtures and on every polyline document of those seeds.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

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
                if name.startswith("polyline-"):
                    commands += [(sub, str(path), *flags) for sub, *flags in ETA_COMMANDS]
                invocations += [list(argv) for argv in dict.fromkeys(commands)]
    return invocations


def run_tree(src: str, plan_path: str, out_path: str) -> None:
    """Run every invocation of the plan against the tree ``src``; write
    per invocation the sha256 of stdout, stderr and the exit code."""
    sys.path.insert(0, src)
    from shapespline import cli

    results = []
    for argv in json.loads(Path(plan_path).read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        results.append([hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue(), code])
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
