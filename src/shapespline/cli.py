"""Command-line front end: JSON in, JSON/CSV out.

Subcommands
-----------
check       build the spline and run every applicable criterion; exit 0 when
            all applicable criteria pass, 1 when any fails, 2 on input error
measures    chords, turn binormals, span twists and classifications
sample      CSV export of positions / curvature / torsion numerator
inflection  inflection counts of the data polygon and of each built segment

``--verify`` (check / inflection) re-derives every passing verdict with the
sampling oracles and fails on any disagreement.  ``SHAPESPLINE_SEED`` pins
the randomized mixed-normal probes used there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import oracle
from .criteria import Criterion, Tolerances
from .geometry import dot_rows, norm, norm_rows, sine_rows
from .polygon import DataPolygon, classify_vertex, sign_changes, spatial_arc_inflection_count
from .spline import (
    Parameterization,
    SplineConfig,
    TangentMode,
    analyze,
    build_spline,
    sample_spline,
)


class InputError(ValueError):
    pass


def _finite(x) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class Setting:
    """One resolvable setting: its key in the document's ``config`` object
    and in the report's config echo, its flag, value type and default.

    Numbers must be finite.  A float must lie in ``(0, high]`` (``(0, inf)``
    when ``high`` is None); an int must be at least ``low``; a string must
    be one of ``choices``.  ``in_config`` is False for a flag-only setting.
    """

    key: str
    flag: str
    kind: type
    default: object
    help: str
    choices: tuple = ()
    low: int | None = None
    high: float | None = None
    in_config: bool = True

    def check(self, value, where: str):
        """``value`` if it is valid for this setting, else an InputError
        naming ``where`` (the flag or the config key it came from)."""
        if self.choices:
            ok = isinstance(value, str) and value in self.choices
            want = "one of " + ", ".join(self.choices)
        elif self.kind is int:
            ok = type(value) is int and value >= self.low
            want = f"an integer >= {self.low}"
        else:
            ok = _finite(value) and value > 0 and (self.high is None or value <= self.high)
            want = "a positive number" if self.high is None else f"a number in (0, {self.high:g}]"
        if not ok:
            raise InputError(f"{where} must be {want}, got {value!r}")
        return value


SETTINGS = (
    Setting("eps0", "--eps-collinear", float, Tolerances.eps_collinear,
            "sine bound for collinearity", high=1.0),
    Setting("eps1", "--eps-coplanar", float, Tolerances.eps_coplanar,
            "sine bound for coplanarity", high=1.0),
    Setting("eps_zero", "--eps-zero", float, Tolerances.eps_zero, "zero-classification threshold"),
    Setting("tension", "--tension", float, SplineConfig.tension, "tangent magnitude scale"),
    Setting("parameterization", "--param", str, SplineConfig.parameterization.value,
            "knot parameterization", choices=tuple(p.value for p in Parameterization)),
    Setting("samples", "--samples", int, oracle.DEFAULT_SAMPLES,
            "parameter samples for oracles", low=8),
    Setting("directions", "--directions", int, oracle.DEFAULT_DIRECTIONS,
            "view directions for inflection search", low=16),
    Setting("eta_fraction", "--eta", float, Tolerances.eta_fraction,
            "collinearity window fraction", high=1.0),
    Setting("tangents", "--tangents", str, SplineConfig.tangent_mode.value, "tangent source",
            choices=tuple(m.value for m in TangentMode), in_config=False),
)
_CONFIG = {s.key: s for s in SETTINGS if s.in_config}
_PER_SEGMENT = Setting("per_segment", "--per-segment", int, 33, "samples per segment", low=2)


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input document: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    if doc.get("version", 1) != 1:
        raise InputError(f"unsupported document version {doc.get('version')!r}")
    pts = doc.get("points")
    if not isinstance(pts, list) or len(pts) < 2:
        raise InputError("'points' must list at least 2 points")
    for key in ("points", "tangents", "knots"):
        entries = doc.get(key)
        if entries is None:
            continue
        if not isinstance(entries, list):
            raise InputError(f"'{key}' must be a list")
        if len(entries) != len(pts):
            raise InputError(f"'{key}' must have {len(pts)} entries")
        for k, e in enumerate(entries):
            if key == "knots":
                if not _finite(e):
                    raise InputError(f"'knots' entry {k} must be a finite number, got {e!r}")
            elif not (isinstance(e, list) and len(e) == 3 and all(map(_finite, e))):
                raise InputError(f"'{key}' entry {k} must be an [x, y, z] triple of finite numbers")
    cfg = doc.get("config")
    if cfg is None:
        cfg = {}
    elif not isinstance(cfg, dict):
        raise InputError("'config' must be an object")
    for key, value in cfg.items():
        if key not in _CONFIG:
            raise InputError(f"unknown config key {key!r}")
        _CONFIG[key].check(value, f"config {key!r}")
    return doc


def _resolve_settings(args, doc: dict) -> dict:
    """Defaults, overridden by the document's config, overridden by flags."""
    settings = {s.key: s.default for s in SETTINGS}
    settings.update(doc.get("config") or {})
    for s in SETTINGS:
        value = getattr(args, s.key)
        if value is not None:
            settings[s.key] = s.check(value, s.flag)
    return settings


def _build(doc: dict, settings: dict):
    tol = Tolerances(
        eps_collinear=float(settings["eps0"]),
        eps_coplanar=float(settings["eps1"]),
        eps_zero=float(settings["eps_zero"]),
        eta_fraction=float(settings["eta_fraction"]),
    )
    cfg = SplineConfig(
        tangent_mode=TangentMode(settings["tangents"]),
        tension=float(settings["tension"]),
        parameterization=Parameterization(settings["parameterization"]),
        tolerances=tol,
    )
    try:
        polygon = DataPolygon(doc["points"], eps_zero=tol.eps_zero)
        spline = build_spline(
            polygon,
            cfg,
            provided_tangents=doc.get("tangents"),
            knots=doc.get("knots"),
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return polygon, spline, cfg


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out_path: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=1) + "\n", out_path)


def _config_echo(settings: dict) -> dict:
    return {k: settings[k] for k in sorted(settings)}


# ---------------------------------------------------------------------------
# oracle cross-checks for --verify


def _verify_report(spline, report, cfg: SplineConfig, settings: dict) -> list:
    """Re-derive every passing segment verdict by sampling; return a list
    of human-readable disagreement strings (empty = clean)."""
    seed = int(os.environ.get("SHAPESPLINE_SEED", "0"))
    rng = np.random.default_rng(seed)
    tol = cfg.tolerances
    n_samples = settings["samples"]
    poly = spline.polygon
    problems = []

    for seg_rep in report.segments:
        i = seg_rep.index
        seg = spline.segments[i - 1]
        ctrl = seg.bezier_points
        us = np.linspace(0.0, 1.0, n_samples)
        tangents, d2, _ = oracle.decasteljau_derivatives(ctrl, us, seg.h)
        omegas = np.cross(tangents, d2)
        sampled = oracle.SampledCurve(us, oracle.decasteljau(ctrl, us))
        normals = (
            (poly.binormal(i - 1), poly.binormal(i)) if 2 <= i <= poly.n_segments - 1 else None
        )

        for verdict in seg_rep.verdicts:
            if not (verdict.applicable and verdict.passed):
                continue
            crit = verdict.criterion
            if crit is Criterion.CONVEXITY and normals is not None:
                for tag, nv in zip(("prev", "cur"), normals):
                    if not oracle.sampled_global_convexity(sampled, nv, tol.eps_zero):
                        problems.append(
                            f"segment {i}: convexity passed but sampled projection "
                            f"along the {tag} binormal is not convex"
                        )
            elif crit is Criterion.INFLECTION and normals is not None:
                b_prev, b_cur = normals
                probes = [b_prev, b_cur]
                for _ in range(8):
                    lam = rng.uniform(0.1, 1.0)
                    mu = -rng.uniform(0.1, 1.0)
                    probes.append(lam * b_prev + mu * b_cur)
                for k, nv in enumerate(probes):
                    vals = omegas @ nv
                    band = tol.eps_zero * max(float(np.abs(vals).max()), 1e-300)
                    vals = np.where(np.abs(vals) <= band, 0.0, vals)
                    changes = sign_changes(vals)
                    if changes != 1:
                        problems.append(
                            f"segment {i}: inflection passed but sampled bending "
                            f"flips {changes} times along probe {k}"
                        )
            elif crit is Criterion.TORSION:
                tau = seg.torsion_numerator()
                probe_us = np.array([0.0, 0.37, 0.5, 1.0])
                d1, d2, d3 = oracle.decasteljau_derivatives(ctrl, probe_us, seg.h)
                dets = dot_rows(np.cross(d1, d2), d3)
                # rounding in det and tau scales with |d1||d2||d3|, which
                # on a nearly coplanar span is far above |tau|
                bad = np.abs(dets - tau) > 1e-9 * norm_rows(d1) * norm_rows(d2) * norm(d3)
                for u, det in zip(probe_us[bad].tolist(), dets[bad].tolist()):
                    problems.append(
                        f"segment {i}: torsion numerator {tau} disagrees with "
                        f"sampled determinant {det} at u={u}"
                    )
            elif crit is Criterion.COPLANARITY and normals is not None:
                scale = float(np.linalg.norm(omegas, axis=1).max())
                bent = omegas[norm_rows(omegas) > tol.eps_zero * max(scale, 1e-300)]
                for tag, nv in zip(("prev", "cur"), normals):
                    if np.any(sine_rows(bent, nv) >= tol.eps_coplanar):
                        problems.append(
                            f"segment {i}: coplanarity passed but a sampled "
                            f"binormal tilts past eps1 from the {tag} normal"
                        )
            elif crit is Criterion.COLLINEARITY:
                j = int(verdict.diagnostics.get("vertex", 0))
                chords = [poly.chord(j), poly.chord(j + 1)] if j else [seg.chord]
                moving = tangents[norm_rows(tangents) != 0.0]
                if any(np.any(sine_rows(moving, l) >= tol.eps_collinear) for l in chords):
                    problems.append(
                        f"segment {i}: collinearity passed but a sampled tangent "
                        f"tilts past eps0 from the chords"
                    )
    return problems


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    doc = load_document(args.input)
    settings = _resolve_settings(args, doc)
    polygon, spline, cfg = _build(doc, settings)
    report = analyze(spline, cfg)
    payload = {"version": 1, "config": _config_echo(settings), **report.to_dict()}
    failures = [
        v for v in report.all_verdicts() if v.applicable and not v.passed
    ]
    exit_code = 1 if failures else 0
    if args.verify:
        problems = _verify_report(spline, report, cfg, settings)
        payload["verify"] = {"disagreements": problems}
        if problems:
            exit_code = 1
    _emit(payload, args.out)
    return exit_code


def cmd_measures(args) -> int:
    doc = load_document(args.input)
    settings = _resolve_settings(args, doc)
    polygon = DataPolygon(doc["points"], eps_zero=float(settings["eps_zero"]))
    n = polygon.n_segments
    payload = {
        "version": 1,
        "config": _config_echo(settings),
        "chords": [[float(x) for x in c] for c in polygon.chords],
        "binormals": [
            {"vertex": j, "v": [float(x) for x in polygon.binormal(j)]}
            for j in range(1, n)
        ],
        "deltas": [
            {"span": i, "value": float(polygon.span_torsion(i))} for i in range(2, n)
        ],
        "spans": [
            {"index": i, "flags": sorted(f.value for f in classify_vertex(polygon, i))}
            for i in range(1, n + 1)
        ],
        "collinear_vertices": [
            j for j in range(1, n) if polygon.vertex_is_collinear(j)
        ],
    }
    _emit(payload, args.out)
    return 0


def cmd_sample(args) -> int:
    doc = load_document(args.input)
    settings = _resolve_settings(args, doc)
    per_segment = _PER_SEGMENT.check(args.per_segment, _PER_SEGMENT.flag)
    polygon, spline, cfg = _build(doc, settings)
    rows = sample_spline(spline, per_segment)
    fmt = "%d" + ",%.17g" * 8
    lines = ["segment_index,t,x,y,z,wx,wy,wz,tau_num"]
    lines.extend(fmt % (i, t, *pos, *omega, tau) for i, t, pos, omega, tau in rows)
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_inflection(args) -> int:
    doc = load_document(args.input)
    settings = _resolve_settings(args, doc)
    polygon, spline, cfg = _build(doc, settings)
    directions = settings["directions"]
    arc_count = spatial_arc_inflection_count(polygon, directions)
    seg_counts = [
        oracle.projected_inflection_count(
            seg, directions, settings["samples"], cfg.tolerances.eps_zero
        )
        for seg in spline.segments
    ]
    payload = {
        "version": 1,
        "config": _config_echo(settings),
        "arc_count": arc_count,
        "per_segment_curve_counts": seg_counts,
    }
    exit_code = 0
    if args.verify:
        problems = []
        dense = spatial_arc_inflection_count(polygon, 2 * directions)
        if dense > arc_count:
            problems.append(
                f"arc count {arc_count} undercounts: {dense} at double density"
            )
        for k, seg in enumerate(spline.segments):
            dense = oracle.projected_inflection_count(
                seg, 2 * directions, settings["samples"], cfg.tolerances.eps_zero
            )
            if dense > seg_counts[k]:
                problems.append(
                    f"segment {k + 1} count {seg_counts[k]} undercounts: {dense} "
                    f"at double density"
                )
        payload["verify"] = {"disagreements": problems}
        if problems:
            exit_code = 1
    _emit(payload, args.out)
    return exit_code


def _add_flag(p, setting: Setting, default) -> None:
    p.add_argument(
        setting.flag,
        dest=setting.key,
        type=setting.kind,
        choices=setting.choices or None,
        default=default,
        help=f"{setting.help} (default {setting.default})",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shapespline",
        description="Shape-preservation diagnostics for cubic spline interpolation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="path to a JSON input document")
        for setting in SETTINGS:
            _add_flag(p, setting, None)
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p_check = sub.add_parser("check", help="run the criteria battery")
    common(p_check)
    p_check.add_argument("--verify", action="store_true", help="cross-check passing verdicts with sampling oracles")
    p_check.set_defaults(func=cmd_check)

    p_meas = sub.add_parser("measures", help="discrete measures of the data polygon")
    common(p_meas)
    p_meas.set_defaults(func=cmd_measures)

    p_samp = sub.add_parser("sample", help="CSV samples of the built spline")
    common(p_samp)
    _add_flag(p_samp, _PER_SEGMENT, _PER_SEGMENT.default)
    p_samp.set_defaults(func=cmd_sample)

    p_infl = sub.add_parser("inflection", help="inflection counts of polygon and segments")
    common(p_infl)
    p_infl.add_argument("--verify", action="store_true", help="cross-check counts at double direction density")
    p_infl.set_defaults(func=cmd_inflection)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
