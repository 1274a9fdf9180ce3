"""Report bytes pinned per fixture: the sha256 of stdout and the exit code
of five CLI invocations on each of the 9 fixtures, plus ``inflection`` and
``inflection --verify`` at the default densities on two seeded documents.

A refactor that keeps verdicts but moves a printed digit fails here, with
the fixture and the command in the test id.  Re-record after a deliberate
output change with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from shapespline.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = Path(__file__).parent / "golden_digests.json"
COMMANDS = {
    "check": ("check",),
    "check-verify": ("check", "--verify", "--samples", "128"),
    "measures": ("measures",),
    "sample": ("sample", "--per-segment", "33"),
    "inflection": ("inflection", "--samples", "128", "--directions", "512"),
}
CASES = [(f.stem, c) for f in sorted(FIXTURES.glob("*.json")) for c in COMMANDS]


def collinear_polyline(rng, corners: int = 6, run: int = 2) -> np.ndarray:
    """3D polyline with ``run`` points placed on every edge between random
    corners: each of them is a collinear vertex, whose turn vector is
    dead band along every direction of the arc search, and the segments
    between them are straight, so every direction sees only dead-band
    bending on them."""
    ends = rng.uniform(-2.0, 2.0, (corners, 3))
    pts = [ends[0]]
    for a, b in zip(ends[:-1], ends[1:]):
        pts.extend(a + (k / (run + 1)) * (b - a) for k in range(1, run + 2))
    return np.array(pts)


def planar_scurve(rng, n: int = 14) -> np.ndarray:
    """Sine serpentine in a plane z = const: every segment is planar, so the
    axis directions in that plane see only dead-band bending."""
    s = np.arange(n, dtype=float)
    y = rng.uniform(0.5, 1.5) * np.sin(2.0 * np.pi * s / 9.0 + rng.uniform(0.0, 2.0 * np.pi))
    return np.column_stack([0.5 * s, y, np.full(n, 1.25)])


# seeded documents for the default-density direction searches; they are
# built here because every file under fixtures/ is also benchmark input
GENERATED = {
    "gen-polyline": collinear_polyline(np.random.default_rng(9)),
    "gen-scurve": planar_scurve(np.random.default_rng(9)),
}
GENERATED_COMMANDS = {
    "inflection-default": ("inflection",),
    "inflection-verify-default": ("inflection", "--verify"),
}
GENERATED_CASES = [(g, c) for g in GENERATED for c in GENERATED_COMMANDS]


def invoke(argv):
    """(sha256 of stdout, exit code) of one invocation."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), code


def run(fixture: str, command: str):
    path = FIXTURES / f"{fixture}.json"
    sub, *flags = COMMANDS[command]
    argv = [sub, str(path), *flags]
    if "tangents" in json.loads(path.read_text()):
        argv += ["--tangents", "provided"]
    return invoke(argv)


def run_generated(name: str, command: str, tmp_dir: Path):
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps({"version": 1, "points": GENERATED[name].tolist()}))
    sub, *flags = GENERATED_COMMANDS[command]
    return invoke([sub, str(path), *flags])


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("fixture,command", CASES)
def test_report_bytes(fixture, command, digests, monkeypatch):
    monkeypatch.delenv("SHAPESPLINE_SEED", raising=False)
    want = digests[f"{fixture} {command}"]
    sha, code = run(fixture, command)
    assert (sha, code) == (want["sha256"], want["exit"]), (
        f"{fixture}: `{command}` output changed"
    )


@pytest.mark.parametrize("name,command", GENERATED_CASES)
def test_generated_report_bytes(name, command, digests, tmp_path, monkeypatch):
    monkeypatch.delenv("SHAPESPLINE_SEED", raising=False)
    want = digests[f"{name} {command}"]
    sha, code = run_generated(name, command, tmp_path)
    assert (sha, code) == (want["sha256"], want["exit"]), f"{name}: `{command}` output changed"


if __name__ == "__main__":
    import tempfile

    os.environ.pop("SHAPESPLINE_SEED", None)
    table = {}
    for fixture, command in CASES:
        sha, code = run(fixture, command)
        table[f"{fixture} {command}"] = {"sha256": sha, "exit": code}
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in GENERATED_CASES:
            sha, code = run_generated(name, command, Path(tmp))
            table[f"{name} {command}"] = {"sha256": sha, "exit": code}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
