"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import layers
import run
import worker
from spans import Tracer

sys.path.insert(0, str(run.SRC))
from shapespline import cli  # noqa: E402


def invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """A helix, an S-curve and a collinear polyline written to files."""
    tmp = tmp_path_factory.mktemp("docs")
    rng = np.random.default_rng(5)
    paths = {}
    for fam, fn in gen.FAMILIES.items():
        pts = fn(rng, 12)
        paths[fam] = (tmp / f"{fam}.json", pts)
        paths[fam][0].write_text(json.dumps({"version": 1, "points": pts.tolist()}))
    return paths


@pytest.mark.parametrize("workload", sorted(gen.COMPOSITION))
def test_generator_is_deterministic_per_seed(workload):
    a, b = gen.documents(workload, 7), gen.documents(workload, 7)
    assert json.dumps(a) == json.dumps(b)
    c = gen.documents(workload, 8)
    assert [name for name, _ in c] == [name for name, _ in a]
    assert json.dumps(c) != json.dumps(a)


def test_collinear_vertices_only_where_intended():
    def collinear(doc):
        ch = np.diff(np.array(doc["points"]), axis=0)
        cr = np.linalg.norm(np.cross(ch[:-1], ch[1:]), axis=1)
        return int(np.sum(cr <= 1e-9 * np.linalg.norm(ch[:-1], axis=1) * np.linalg.norm(ch[1:], axis=1)))

    for workload, want in (("check_small", True), ("verify", True), ("check_large", False)):
        n = sum(collinear(doc) for _, doc in gen.documents(workload, 3))
        assert (n > 0) is want, workload


def test_check_report_accepts_real_output_and_flags_a_flipped_verdict(docs):
    path, pts = docs["helix"]
    code, text = invoke(["check", str(path)])
    n = len(pts) - 1
    assert checks.check_report(text, code, n, verify=False) == []

    report = json.loads(text)
    verdict = next(v for s in report["segments"] for v in s["verdicts"] if v["applicable"])
    verdict["passed"] = not verdict["passed"]
    flipped = json.dumps(report)
    assert checks.check_report(flipped, code, n, verify=False)
    assert checks.verdict_digest("check", flipped) != checks.verdict_digest("check", text)
    assert checks.check_report(text, 1 - code, n, verify=False)  # exit code disagrees
    assert checks.check_report(text[: len(text) // 2], code, n, verify=False)  # does not parse
    report = json.loads(text)
    report["joints"].pop()
    assert checks.check_report(json.dumps(report), code, n, verify=False)


def test_check_report_flags_a_disagreement(docs):
    path, pts = docs["polyline"]
    code, text = invoke(["check", str(path), "--verify", "--samples", "64"])
    n = len(pts) - 1
    assert checks.check_report(text, code, n, verify=True) == []
    report = json.loads(text)
    report["verify"]["disagreements"].append("segment 2: convexity passed but ...")
    assert checks.check_report(json.dumps(report), 1, n, verify=True)


def test_check_inflection(docs):
    path, pts = docs["scurve"]
    code, text = invoke(["inflection", str(path), "--samples", "64", "--directions", "128"])
    n = len(pts) - 1
    assert checks.check_inflection(text, code, n, verify=False) == []
    payload = json.loads(text)
    payload["per_segment_curve_counts"].pop()
    assert checks.check_inflection(json.dumps(payload), code, n, verify=False)
    payload = json.loads(text)
    payload["verify"] = {"disagreements": ["arc count 1 undercounts: 2 at double density"]}
    assert checks.check_inflection(json.dumps(payload), 1, n, verify=True)


def test_check_csv_flags_truncation_and_moved_endpoints(docs):
    path, pts = docs["helix"]
    code, text = invoke(["sample", str(path), "--per-segment", "5"])
    assert checks.check_csv(text, code, pts, 5) == []
    lines = text.split("\n")
    assert checks.check_csv("\n".join(lines[:-3]) + "\n", code, pts, 5)
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) + 1e-9)
    moved = "\n".join([lines[0], ",".join(fields), *lines[2:]])
    assert checks.check_csv(moved, code, pts, 5)


def test_worker_counts_a_failed_invocation_and_a_reference_mismatch(docs, tmp_path):
    path, _ = docs["helix"]
    invocations = run.write_inputs("check_small", 0, tmp_path)[:3]
    r = worker.Run(cli, {"invocations": invocations, "reference": [[0, "0" * 16]] * 3})
    for i in range(3):
        r.call(i)
    assert r.attempted == 3 and r.failed == 3
    bad = {**invocations[0], "argv": ["check", str(path), "--param", "bogus"]}
    r = worker.Run(cli, {"invocations": [bad]})
    r.call(0)
    assert r.failed == 1


def test_wrappers_do_not_change_output_bytes(docs):
    path, _ = docs["polyline"]
    commands = (
        ["check", str(path)],
        ["check", str(path), "--verify", "--samples", "64"],
        ["inflection", str(path), "--samples", "64", "--directions", "128"],
        ["sample", str(path), "--per-segment", "7"],
    )
    plain = [invoke(argv) for argv in commands]
    originals = {k: v for k, v in vars(cli).items() if callable(v)}
    tracer = Tracer()
    tracer.install()
    try:
        traced = [invoke(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.absent == []
    assert {k: v for k, v in vars(cli).items() if callable(v)} == originals
    calls, self_ns = tracer.aggregate()
    by_label = dict(zip(tracer.labels, calls))
    assert by_label["cli.main"] == len(commands)
    assert by_label["criteria.check_collinearity_extended"] > 0
    assert by_label["oracle.decasteljau_derivatives"] > 0
    assert np.all(self_ns >= 0)


def test_missing_target_is_reported_absent():
    tracer = Tracer({**layers.TARGETS, "spline.gone": ("shapespline.spline", "gone"),
                     "segment.X.y": ("shapespline.segment", "NoSuchClass.y")})
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["spline.gone", "segment.X.y"]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(gen.COMPOSITION)
    assert all(label in layers.TARGETS for label, _ in layers.PER_LAYER.values() if label)


def test_outside_a_checkout_the_benchmark_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check_small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert Path(tmp_path / "perfbench").is_dir()
