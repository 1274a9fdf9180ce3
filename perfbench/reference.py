"""Record the decisions the program makes on the default seed.

    python3 perfbench/reference.py

Writes ``reference.json``: for every workload, the exit code and verdict
digest (``checks.verdict_digest``) of each invocation of one pass over the
documents of seed ``gen.DEFAULT_SEED``.  The benchmark fails an
invocation on that seed whose decisions differ.  Recorded once, at the
commit that introduced the benchmark; re-recording it would hide a change
of verdicts.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import gen
import run
import worker


def main() -> None:
    os.environ["SHAPESPLINE_SEED"] = "0"
    sys.path.insert(0, str(run.SRC))
    from shapespline import cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in sorted(gen.COMPOSITION):
            invocations = run.write_inputs(workload, gen.DEFAULT_SEED, Path(tmp))
            r = worker.Run(cli, {"invocations": invocations})
            for i in range(len(invocations)):
                r.call(i)
            if r.failed:
                sys.exit(f"{workload}: {r.problems}")
            reference[workload] = r.digests
    (run.HERE / "reference.json").write_text("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items()) + "\n}\n")


if __name__ == "__main__":
    main()
