"""Output checks for one CLI invocation, run outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct.  Exit code 1 ("a criterion failed") is a valid answer: it only has
to agree with the report.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

CSV_HEADER = "segment_index,t,x,y,z,wx,wy,wz,tau_num"


def _verdicts(report: dict):
    """(scope, index, verdict dict) of every verdict in a check report."""
    for v in report["vertices"]:
        if v["collinearity_extended"] is not None:
            yield "vertex", v["index"], v["collinearity_extended"]
    for s in report["segments"]:
        for verdict in s["verdicts"]:
            yield "segment", s["index"], verdict
    for j in report["joints"]:
        for key in ("adjacency", "torsion_compat"):
            if j[key] is not None:
                yield "joint", j["index"], j[key]


def _entries_problems(report: dict, n_segments: int) -> list:
    problems = []
    for key, want in (("vertices", n_segments - 1), ("segments", n_segments), ("joints", n_segments - 1)):
        got = [e.get("index") for e in report.get(key, [])]
        if got != list(range(1, want + 1)):
            problems.append(f"{key}: expected indices 1..{want}, got {len(got)} entries")
    return problems


def _summary_problems(report: dict) -> list:
    counts = {}
    for _, _, v in _verdicts(report):
        entry = counts.setdefault(v["criterion"], {"applicable": 0, "passed": 0, "failed": 0})
        if v["applicable"]:
            entry["applicable"] += 1
            entry["passed" if v["passed"] else "failed"] += 1
    summary = report["summary"]
    problems = []
    if summary["criteria"] != counts:
        problems.append(f"summary counts {summary['criteria']} != recount {counts}")
    all_passed = all(e["failed"] == 0 for e in counts.values())
    if summary["all_passed"] is not all_passed:
        problems.append(f"summary.all_passed {summary['all_passed']} != recount {all_passed}")
    return problems


def _disagreement_problems(payload: dict) -> list:
    disagreements = payload.get("verify", {}).get("disagreements")
    if disagreements is None:
        return ["--verify output lacks verify.disagreements"]
    return [f"verify disagreement: {d}" for d in disagreements]


def check_report(text: str, code: int, n_segments: int, verify: bool) -> list:
    """Output of ``check`` (with or without ``--verify``)."""
    try:
        report = json.loads(text)
        problems = _entries_problems(report, n_segments)
        if problems:
            return problems
        problems = _summary_problems(report)
        want = 0 if report["summary"]["all_passed"] else 1
        if verify:
            disagreement = _disagreement_problems(report)
            problems += disagreement
            want = 1 if disagreement else want
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"report does not parse: {exc!r}"]
    if code != want:
        problems.append(f"exit code {code}, report implies {want}")
    return problems


def check_inflection(text: str, code: int, n_segments: int, verify: bool) -> list:
    """Output of ``inflection`` (with or without ``--verify``)."""
    try:
        payload = json.loads(text)
        counts = payload["per_segment_curve_counts"]
        problems = []
        if not (isinstance(payload["arc_count"], int) and payload["arc_count"] >= 0):
            problems.append(f"arc_count {payload['arc_count']!r} is not a count")
        if len(counts) != n_segments or not all(isinstance(c, int) and c >= 0 for c in counts):
            problems.append(f"per_segment_curve_counts: expected {n_segments} counts")
        disagreement = _disagreement_problems(payload) if verify else []
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"report does not parse: {exc!r}"]
    problems += disagreement
    want = 1 if disagreement else 0
    if code != want:
        problems.append(f"exit code {code}, report implies {want}")
    return problems


def check_csv(text: str, code: int, points: np.ndarray, per_segment: int) -> list:
    """Output of ``sample``: row count, and each segment's first and last
    sample on its data points within a float64 rounding tolerance."""
    if code != 0:
        return [f"exit code {code}"]
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return ["CSV header or final newline missing"]
    rows = lines[1:-1]
    n_segments = len(points) - 1
    if len(rows) != n_segments * per_segment:
        return [f"CSV has {len(rows)} rows, expected {n_segments * per_segment}"]
    try:
        table = np.array([row.split(",") for row in rows], dtype=float)
    except ValueError as exc:
        return [f"CSV does not parse: {exc}"]
    if table.shape[1] != 9 or not np.all(np.isfinite(table)):
        return ["CSV rows must hold 9 finite numbers"]
    seg = table[:, 0].reshape(n_segments, per_segment)
    if not np.all(seg == np.arange(1, n_segments + 1)[:, None]):
        return ["CSV segment indices out of order"]
    xyz = table[:, 2:5].reshape(n_segments, per_segment, 3)
    tol = 8.0 * np.finfo(float).eps * max(1.0, float(np.abs(points).max()))
    gap = max(
        float(np.abs(xyz[:, 0] - points[:-1]).max()),
        float(np.abs(xyz[:, -1] - points[1:]).max()),
    )
    if not gap <= tol:
        return [f"segment endpoints miss the data points by {gap:.3g} > {tol:.3g}"]
    return []


def verdict_digest(kind: str, text: str) -> str:
    """Digest of the decisions in an output, diagnostics excluded:
    (scope, index, criterion, applicable, passed) of every verdict for
    ``check``, the counts for ``inflection``, nothing for ``sample``."""
    if kind == "sample":
        return ""
    payload = json.loads(text)
    if kind == "inflection":
        decisions = [payload["arc_count"], payload["per_segment_curve_counts"]]
    else:
        decisions = [
            [scope, index, v["criterion"], v["applicable"], v["passed"]]
            for scope, index, v in _verdicts(payload)
        ]
    return hashlib.sha256(json.dumps(decisions).encode()).hexdigest()[:16]

