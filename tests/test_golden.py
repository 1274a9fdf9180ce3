"""Report bytes pinned per fixture: the sha256 of stdout and the exit code
of five CLI invocations on each of the 9 fixtures, plus ``inflection`` and
``inflection --verify`` at the default densities on two small seeded
documents, and ``check`` and ``check --verify --samples 128`` on three
larger ones (a 120-point helix, a 120-point S-curve and a 40-point
polyline with collinear runs), and ``check`` on a 1 000-point helix and a
1 000-point S-curve.  Two more commands narrow the collinearity window
(``--eta 0.5`` and, under ``--verify``, ``--eta 0.25``) on the two collinear
fixtures and the 40-point polyline.

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

from shapespline import cli
from shapespline.cli import main
from shapespline.spline import analyze

from conftest import collinear_polyline, noisy_helix, planar_scurve, ref_report_dict

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = Path(__file__).parent / "golden_digests.json"
COMMANDS = {
    "check": ("check",),
    "check-verify": ("check", "--verify", "--samples", "128"),
    "measures": ("measures",),
    "sample": ("sample", "--per-segment", "33"),
    "inflection": ("inflection", "--samples", "128", "--directions", "512"),
}
# the collinearity window over part of each neighbouring knot interval
ETA_COMMANDS = {
    "check-eta-0.5": ("check", "--eta", "0.5"),
    "check-verify-eta-0.25": ("check", "--verify", "--samples", "128", "--eta", "0.25"),
}
CASES = [
    *((f.stem, c) for f in sorted(FIXTURES.glob("*.json")) for c in COMMANDS),
    *((f, c) for f in ("collinear_in_convex", "collinear_line") for c in ETA_COMMANDS),
]


# seeded documents for the default-density direction searches; they are
# built here because every file under fixtures/ is also benchmark input
GENERATED = {
    "gen-polyline": collinear_polyline(np.random.default_rng(9)),
    "gen-scurve": planar_scurve(np.random.default_rng(9)),
    "gen-helix-120": noisy_helix(np.random.default_rng(10), 120),
    "gen-scurve-120": planar_scurve(np.random.default_rng(10), 120),
    "gen-polyline-40": collinear_polyline(np.random.default_rng(10), corners=14, run=2),
    "gen-helix-1000": noisy_helix(np.random.default_rng(11), 1000),
    "gen-scurve-1000": planar_scurve(np.random.default_rng(11), 1000),
}
GENERATED_COMMANDS = {
    "inflection-default": ("inflection",),
    "inflection-verify-default": ("inflection", "--verify"),
    "check": ("check",),
    "check-verify": ("check", "--verify", "--samples", "128"),
    **ETA_COMMANDS,
}
GENERATED_CASES = [
    *((g, c) for g in ("gen-polyline", "gen-scurve") for c in ("inflection-default", "inflection-verify-default")),
    *((g, c) for g in ("gen-helix-120", "gen-scurve-120", "gen-polyline-40") for c in ("check", "check-verify")),
    *((g, "check") for g in ("gen-helix-1000", "gen-scurve-1000")),
    *(("gen-polyline-40", c) for c in ETA_COMMANDS),
]


def invoke(argv):
    """(sha256 of stdout, exit code) of one invocation."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), code


def run(fixture: str, command: str):
    path = FIXTURES / f"{fixture}.json"
    sub, *flags = {**COMMANDS, **ETA_COMMANDS}[command]
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


def _library_report(argv):
    """The ``check`` report of ``argv``, with the reference dict that the
    verdict objects build from its rows, encoded by ``json.dumps``: the
    text the CLI's writer must reproduce byte for byte."""
    args = cli._parser().parse_args(argv)
    doc = cli.load_document(args.input)
    settings = cli._resolve_settings(args, doc)
    _, spline, cfg = cli._build(doc, settings)
    report = analyze(spline, cfg)
    payload = {"version": 1, "config": cli._config_echo(settings), **ref_report_dict(report)}
    return report, json.dumps(payload, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize(
    "name", [f.stem for f in sorted(FIXTURES.glob("*.json"))] + sorted(GENERATED)
)
def test_check_stdout_is_the_library_dict_encoded(name, tmp_path):
    path = FIXTURES / f"{name}.json"
    if name in GENERATED:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"version": 1, "points": GENERATED[name].tolist()}))
    argv = ["check", str(path)]
    if "tangents" in json.loads(path.read_text()):
        argv += ["--tangents", "provided"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(argv)
    report, text = _library_report(argv)
    assert buf.getvalue() == text
    assert report.to_dict() == ref_report_dict(report)


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
