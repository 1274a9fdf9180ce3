"""Report bytes pinned per fixture: the sha256 of stdout and the exit code
of five CLI invocations on each of the 9 fixtures.

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


def run(fixture: str, command: str):
    """(sha256 of stdout, exit code) of one invocation."""
    path = FIXTURES / f"{fixture}.json"
    sub, *flags = COMMANDS[command]
    argv = [sub, str(path), *flags]
    if "tangents" in json.loads(path.read_text()):
        argv += ["--tangents", "provided"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), code


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


if __name__ == "__main__":
    os.environ.pop("SHAPESPLINE_SEED", None)
    table = {}
    for fixture, command in CASES:
        sha, code = run(fixture, command)
        table[f"{fixture} {command}"] = {"sha256": sha, "exit": code}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
