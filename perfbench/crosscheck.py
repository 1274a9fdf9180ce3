"""Cross-check of the harness against the ROADMAP's re-anchor baseline.

    python3 perfbench/crosscheck.py

Times the layers of the ROADMAP table (polygon, build, analyze, to_dict,
sample x33, verify with 512 samples) on noisy-helix documents from
``gen.noisy_helix`` (seed 0), through ``shapespline.cli.main`` with only
those functions wrapped by the tracer.  A layer's time is the inclusive
duration of its span; verify is the wall time of ``check --verify`` minus
that of ``check``.  Prints microseconds per segment next to the ROADMAP
figures converted to the same unit, with their ratio, and the cost of
``check`` on collinear polylines against helices of the same size.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

import numpy as np

import gen
import run
from layers import TARGETS
from spans import Tracer

# ROADMAP "Baseline at re-anchor": milliseconds per call at n points
ROADMAP_MS = {
    10: {"polygon": 0.3, "build": 0.4, "analyze": 1.2, "to_dict": 0.2, "sample": 9.7, "verify": 204},
    100: {"polygon": 0.6, "build": 2.5, "analyze": 13, "to_dict": 1.5, "sample": 82, "verify": 1960},
    1000: {"polygon": 3.0, "build": 18, "analyze": 75, "to_dict": 8.3, "sample": 490, "verify": 16100},
    5000: {"polygon": 15, "build": 75, "analyze": 360, "to_dict": 58, "sample": 2440},
}
LAYER_SPANS = {
    "polygon": "polygon.DataPolygon",
    "build": "spline.build_spline",
    "analyze": "spline.analyze",
    "to_dict": "spline.SplineReport.to_dict",
    "sample": "spline.sample_spline",
}
REPEATS = {10: 21, 100: 7, 1000: 3, 5000: 1}
VERIFY_REPEATS = {10: 5, 100: 1}


def call(cli, argv, tracer=None) -> float:
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            code = cli.main(argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
        dt = time.perf_counter() - t0
    if code not in (0, 1):
        raise RuntimeError(f"{argv} exited with {code}")
    return dt


def inclusive_ms(tracer: Tracer) -> dict:
    calls, _ = tracer.aggregate()
    names = np.frombuffer(tracer.name, dtype=np.int32)
    dur = np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)
    total = np.bincount(names, weights=dur, minlength=len(tracer.labels)) / 1e6
    return {label: t / max(c, 1) for label, c, t in zip(tracer.labels, calls, total)}


def layer_ms(cli, path: str, repeats: int) -> dict:
    commands = {
        ("check", path): ("polygon", "build", "analyze", "to_dict"),
        ("sample", path, "--per-segment", "33"): ("sample",),
    }
    tracer = Tracer({label: TARGETS[label] for label in LAYER_SPANS.values()})
    samples = {layer: [] for layer in LAYER_SPANS}
    for _ in range(repeats):
        for argv, measured in commands.items():
            tracer.clear()
            call(cli, list(argv), tracer)
            per_call = inclusive_ms(tracer)
            for layer in measured:
                samples[layer].append(per_call[LAYER_SPANS[layer]])
    return {layer: statistics.median(v) for layer, v in samples.items()}


def verify_ms(cli, path: str, repeats: int) -> float:
    check = statistics.median(call(cli, ["check", path]) for _ in range(repeats))
    verify = statistics.median(call(cli, ["check", path, "--verify"]) for _ in range(repeats))
    return (verify - check) * 1e3


def main() -> None:
    os.environ["SHAPESPLINE_SEED"] = "0"
    sys.path.insert(0, str(run.SRC))
    from shapespline import cli

    rng = np.random.default_rng(gen.DEFAULT_SEED)
    print("noisy helix, microseconds per segment: harness / ROADMAP (ratio)")
    print(f"{'n':>6} " + " ".join(f"{layer:>26}" for layer in [*LAYER_SPANS, "verify"]))
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for n, repeats in REPEATS.items():
            path = os.path.join(tmp, f"helix-{n}.json")
            with open(path, "w") as fh:
                json.dump({"version": 1, "points": gen.noisy_helix(rng, n).tolist()}, fh)
            got = layer_ms(cli, path, repeats)
            if n in VERIFY_REPEATS:
                call(cli, ["check", path, "--verify"])  # warm-up
                got["verify"] = verify_ms(cli, path, VERIFY_REPEATS[n])
            cells = []
            for layer in [*LAYER_SPANS, "verify"]:
                if layer in got and layer in ROADMAP_MS[n]:
                    ours, theirs = got[layer] * 1e3 / (n - 1), ROADMAP_MS[n][layer] * 1e3 / (n - 1)
                    cells.append(f"{ours:9.1f} / {theirs:8.1f} ({ours / theirs:4.2f})")
                else:
                    cells.append(f"{'-':>26}")
            print(f"{n:>6} " + " ".join(cells))

        print("\ncheck on 40-point documents, microseconds per segment (median of 9)")
        for fam in ("helix", "scurve", "polyline"):
            path = os.path.join(tmp, f"{fam}-40.json")
            with open(path, "w") as fh:
                json.dump({"version": 1, "points": gen.FAMILIES[fam](rng, 40).tolist()}, fh)
            t = statistics.median(call(cli, ["check", path]) for _ in range(9))
            print(f"{fam:>10} {t * 1e6 / 39:9.1f}")


if __name__ == "__main__":
    main()
