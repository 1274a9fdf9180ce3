"""Seeded input documents for the benchmark workloads.

Three shape families, each drawn from a ``numpy.random.Generator``:

* ``helix``     noisy helix: convex, twisting spans, no collinear vertices;
* ``scurve``    exactly planar serpentine (constant z): coplanar spans with
                alternating convex and inflection turns;
* ``polyline``  3D polyline whose edges carry exact collinear runs, the
                input that sends ``check`` through the sampled
                ``check_collinearity_extended`` path.

Each workload fixes its composition (family and point count of every
document) and draws only the geometry from the seed, so two seeds give
documents of the same sizes and the same number of collinear vertices.
That keeps the cost of a pass, and with it every end-to-end figure,
independent of the seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
DEFAULT_SEED = 0


def _nearly_collinear(pts: np.ndarray, rel: float = 1e-6) -> bool:
    ch = np.diff(pts, axis=0)
    cr = np.linalg.norm(np.cross(ch[:-1], ch[1:]), axis=1)
    lens = np.linalg.norm(ch, axis=1)
    return bool(np.any(cr <= rel * lens[:-1] * lens[1:]))


def noisy_helix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Helix of radius ~1 sampled ~12 points per turn, with 2% noise."""
    while True:
        r = rng.uniform(0.8, 1.2)
        pitch = rng.uniform(0.15, 0.35)
        per_turn = rng.uniform(10.0, 14.0)
        t = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(n) / per_turn
        pts = np.column_stack([r * np.cos(t), r * np.sin(t), pitch * t])
        pts += rng.normal(0.0, 0.02 * r, pts.shape)
        if not _nearly_collinear(pts):
            return pts


def planar_scurve(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sine serpentine in the plane z = const; every span is exactly coplanar."""
    while True:
        amp = rng.uniform(0.5, 1.5)
        period = rng.uniform(14.0, 20.0)
        s = np.arange(n, dtype=float)
        y = amp * np.sin(2.0 * math.pi * s / period + rng.uniform(0.0, 2.0 * math.pi))
        z = np.full(n, round(rng.uniform(-5.0, 5.0), 3))
        pts = np.column_stack([s * (4.0 / period), y, z])
        if not _nearly_collinear(pts):
            return pts


def collinear_polyline(rng: np.random.Generator, n: int, run: int = 2) -> np.ndarray:
    """3D polyline whose corners turn by 25-120 degrees; every edge between
    corners carries ``run`` interior points placed exactly on it, so each of
    those is a collinear vertex."""
    pts = [rng.uniform(-1.0, 1.0, 3)]
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    while len(pts) < n:
        a = pts[-1]
        b = a + rng.uniform(1.0, 2.0) * d
        for k in range(1, run + 1):
            pts.append(a + (k / (run + 1)) * (b - a))
        pts.append(b)
        # turn the direction by an angle in [25, 120] degrees about a random axis
        axis = np.cross(d, rng.normal(size=3))
        axis /= np.linalg.norm(axis)
        ang = math.radians(rng.uniform(25.0, 120.0))
        d = d * math.cos(ang) + np.cross(axis, d) * math.sin(ang)
        d /= np.linalg.norm(d)
    return np.array(pts[:n])


FAMILIES = {"helix": noisy_helix, "scurve": planar_scurve, "polyline": collinear_polyline}

# workload name -> (families, point counts, whether to add the committed fixtures).
# A repeated size draws another document of that size, so that per-document
# differences average out within a pass.  The number of invocations per pass
# (75, 4, 24, 8) puts the 90th percentile inside one document's latencies
# rather than in the gap between two, where it would jump with noise.
COMPOSITION = {
    "check_small": (("helix", "scurve", "polyline"), 2 * (5, 8, 11, 14, 17, 20, 24, 28, 32, 36, 40), True),
    "check_large": (("helix", "scurve"), (1000, 1300), False),
    "verify": (("helix", "scurve", "polyline"), (20, 33, 46, 60), False),
    "export": (("helix", "scurve"), (150, 250, 400, 550), False),
}

# argv of each invocation made on a document; "{path}" is the document file
COMMANDS = {
    "check_small": (("check", "{path}"),),
    "check_large": (("check", "{path}"),),
    "verify": (
        ("check", "{path}", "--verify", "--samples", "128"),
        ("inflection", "{path}", "--samples", "128", "--directions", "512"),
    ),
    "export": (("sample", "{path}", "--per-segment", "33"),),
}


def documents(workload: str, seed: int) -> list:
    """(name, document) pairs of one workload, in pass order."""
    families, sizes, with_fixtures = COMPOSITION[workload]
    rng = np.random.default_rng([seed, sorted(COMPOSITION).index(workload)])
    docs = []
    for n in sizes:
        for fam in families:
            pts = FAMILIES[fam](rng, n)
            docs.append((f"{fam}-{n}", {"version": 1, "points": pts.tolist()}))
    if with_fixtures:
        for path in sorted(FIXTURES.glob("*.json")):
            docs.append((f"fixture-{path.stem}", json.loads(path.read_text())))
    return docs
