"""Command-line front end: JSON in, JSON/CSV out.

Subcommands
-----------
check       build the spline and run every applicable criterion; exit 0 when
            all applicable criteria pass, 1 when any fails, 2 on input error
measures    chords, turn binormals, span twists and classifications
sample      CSV export of positions / curvature / torsion numerator
inflection  inflection counts of the data polygon and of each built segment

``--verify`` fails on any disagreement with the sampling oracles: under
``check`` it re-derives every passing *segment* verdict (vertex and joint
verdicts are not re-derived), under ``inflection`` every count at double
the direction density.  ``SHAPESPLINE_SEED`` pins the randomized
mixed-normal probes used there.

The oracles run over a document's segments at once: ``inflection`` makes
one ``oracle.projected_inflection_counts`` call per direction density,
and ``check --verify`` walks the report's segment batches a run at a
time, sampling each batch's passing rows in the run together, drawing the
probes in verdict order and formatting a message only for a failed probe.
A run holds ``oracle.segment_run`` segments (32 at the default 512
samples), and no byte depends on where runs split.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import jsonout, oracle
from .criteria import Criterion, Tolerances
from .geometry import cross_rows, dot_rows, norm_rows, sine_rows
from .polygon import FLAG_SETS, DataPolygon, _relative_changes, span_codes, spatial_arc_inflection_count
from .segment import torsion_numerator_rows
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


def _all_finite(entries: list, numbers) -> bool:
    """Whether every one of ``numbers`` (the scalars of ``entries``) passes
    ``_finite``, checked in one pass over the types and one over the parsed
    ``entries``.  False when the caller's per-entry loop must decide, as it
    does for a float of magnitude ``sys.float_info.max`` or an int that
    rounds to it."""
    if not set(map(type, numbers)) <= {int, float}:
        return False
    try:
        values = np.array(entries, dtype=float)
    except OverflowError:
        return False
    return bool(np.all(np.abs(values) < sys.float_info.max))


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
    version = doc.get("version", 1)
    # True == 1 in Python: a bool is no version number
    if type(version) is not int or version != 1:
        raise InputError(f"unsupported document version {version!r}")
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
        if key == "knots":
            if _all_finite(entries, entries):
                continue
        elif set(map(type, entries)) == {list} and set(map(len, entries)) == {3}:
            if _all_finite(entries, itertools.chain.from_iterable(entries)):
                continue
        # the first bad entry, named as it is met
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
        if cfg.tangent_mode is TangentMode.PROVIDED and doc.get("tangents") is None:
            raise InputError("--tangents provided needs a 'tangents' list in the document")
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
    """``text`` and a newline, written apart, so the text is not copied."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            print(text, file=fh)
    else:
        print(text)


def _emit(payload: dict, out_path: str | None) -> None:
    _write(jsonout.dumps(payload), out_path)


def _config_echo(settings: dict) -> dict:
    return {k: settings[k] for k in sorted(settings)}


# ---------------------------------------------------------------------------
# oracle cross-checks for --verify


def _verify_report(spline, report, cfg: SplineConfig, settings: dict) -> list:
    """Re-derive every passing segment verdict by sampling; return a list
    of human-readable disagreement strings (empty = clean), segment by
    segment in report order.

    The segments are sampled a run of ``oracle.segment_run`` segments at a
    time, as under ``inflection``: a document that short is one run."""
    seed = os.environ.get("SHAPESPLINE_SEED", "0")
    try:
        rng = np.random.default_rng(int(seed))
    except ValueError:
        raise InputError(f"SHAPESPLINE_SEED must be a non-negative integer, got {seed!r}") from None
    taus = torsion_numerator_rows(*spline.rows())
    run = oracle.segment_run(settings["samples"])
    problems = []
    for start in range(0, spline.polygon.n_segments, run):
        # per segment batch of the report, its passing rows in the run
        batches = []
        for rows, segments in report.segment_rows:
            seg = np.asarray(segments, dtype=int)
            picked = np.flatnonzero(rows.passed & (start < seg) & (seg <= start + run))
            batches.append((rows, picked, seg[picked]))
        problems += _verify_segments(spline, batches, taus, rng, cfg.tolerances, settings["samples"])
    return problems


def _verify_segments(spline, batches: list, taus, rng, tol: Tolerances, samples: int) -> list:
    """The disagreements, in report order, of the passing verdicts given per
    segment batch as ``(rows, picked, seg)``: row ``picked[e]`` of ``rows``
    passed on segment ``seg[e]``.  Each batch samples all its segments at
    once, drawing the inflection probes' mixing weights in verdict order,
    and a message is formatted only for a probe that fails."""
    us = np.linspace(0.0, 1.0, samples)
    poly = spline.polygon
    # one evaluation of every segment that holds a passing verdict
    segs = np.unique(np.concatenate([seg for *_, seg in batches]))
    tangents, second, _ = oracle.decasteljau_derivatives(spline.nets[segs - 1], us, spline.widths[segs - 1])
    omegas = cross_rows(tangents, second)
    problems = []  # ((segment, batch slot, row, probe), text)
    for slot, (rows, picked, seg) in enumerate(batches):
        if not len(seg):
            continue
        crit = rows.criterion
        seg_list = seg.tolist()
        at = [(i, slot, r) for i, r in zip(seg_list, picked.tolist())]
        k = np.searchsorted(segs, seg)
        if crit is not Criterion.COLLINEARITY:
            # the binormals at the end vertices of the interior segments
            normals = np.stack([poly.binormals[seg - 2], poly.binormals[seg - 1]], axis=1)
        if crit is Criterion.CONVEXITY:
            points = oracle.decasteljau(spline.nets[seg - 1], us)
            convex = oracle.sampled_convexity(points, normals, tol.eps_zero)
            for e, t in np.argwhere(~convex).tolist():
                problems.append(((*at[e], t), (
                    f"segment {seg_list[e]}: convexity passed but sampled projection "
                    f"along the {('prev', 'cur')[t]} binormal is not convex"
                )))
        elif crit is Criterion.INFLECTION:
            # eight mixed probes per verdict, lam * b_prev - mu * b_cur, their
            # weights drawn in verdict order as (lam, mu) pairs
            lam, mu = np.moveaxis(rng.uniform(0.1, 1.0, (len(seg), 8, 2)), -1, 0)
            mixed = lam[..., None] * normals[:, :1] + -mu[..., None] * normals[:, 1:]
            probes = np.concatenate([normals, mixed], axis=1)
            # one matrix-vector product per probe, as for a single probe
            vals = np.matmul(omegas[k][:, None], probes[..., None])[..., 0]
            changes = _relative_changes(vals, tol.eps_zero)[0]
            for e, probe in np.argwhere(changes != 1).tolist():
                problems.append(((*at[e], probe), (
                    f"segment {seg_list[e]}: inflection passed but sampled bending "
                    f"flips {changes[e, probe]} times along probe {probe}"
                )))
        elif crit is Criterion.TORSION:
            probe_us = np.array([0.0, 0.37, 0.5, 1.0])
            d1, d2, d3 = oracle.decasteljau_derivatives(spline.nets[seg - 1], probe_us, spline.widths[seg - 1])
            dets = dot_rows(cross_rows(d1, d2), d3[:, None])
            tau = taus[seg - 1]
            # rounding in det and tau scales with |d1||d2||d3|, which
            # on a nearly coplanar span is far above |tau|
            bound = 1e-9 * norm_rows(d1) * norm_rows(d2) * norm_rows(d3)[:, None]
            bad = np.argwhere(np.abs(dets - tau[:, None]) > bound).tolist()
            # the numbers print as Python floats
            tau, dets, probe_us = tau.tolist(), dets.tolist(), probe_us.tolist()
            for e, j in bad:
                problems.append(((*at[e], j), (
                    f"segment {seg_list[e]}: torsion numerator {tau[e]} disagrees with "
                    f"sampled determinant {dets[e][j]} at u={probe_us[j]}"
                )))
        elif crit is Criterion.COPLANARITY:
            scale = np.linalg.norm(omegas[k], axis=-1).max(axis=1)
            e, j = np.nonzero(norm_rows(omegas[k]) > tol.eps_zero * np.maximum(scale, 1e-300)[:, None])
            bent = omegas[k[e], j]
            for t, tag in enumerate(("prev", "cur")):
                tilted = np.unique(e[sine_rows(bent, normals[e, t]) >= tol.eps_coplanar]).tolist()
                for e_ in tilted:
                    problems.append(((*at[e_], t), (
                        f"segment {seg_list[e_]}: coplanarity passed but a sampled "
                        f"binormal tilts past eps1 from the {tag} normal"
                    )))
        elif crit is Criterion.COLLINEARITY:
            j = rows.columns["vertex"][picked].astype(int)
            e, s = np.nonzero(norm_rows(tangents[k]) != 0.0)
            moving = tangents[k[e], s]
            tilted = (sine_rows(moving, poly.chords[j[e] - 1]) >= tol.eps_collinear) | (
                sine_rows(moving, poly.chords[j[e]]) >= tol.eps_collinear
            )
            for e_ in np.unique(e[tilted]).tolist():
                problems.append(((*at[e_], 0), (
                    f"segment {seg_list[e_]}: collinearity passed but a sampled tangent "
                    f"tilts past eps0 from the chords"
                )))
    problems.sort(key=itemgetter(0))
    return [text for _, text in problems]


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    doc = load_document(args.input)
    settings = _resolve_settings(args, doc)
    polygon, spline, cfg = _build(doc, settings)
    report = analyze(spline, cfg)
    payload = {"version": 1, "config": _config_echo(settings), **report.json_sections()}
    exit_code = 0 if payload["summary"]["all_passed"] else 1
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
        "chords": polygon.chords.tolist(),
        "binormals": [{"vertex": j, "v": b} for j, b in enumerate(polygon.binormals.tolist(), start=1)],
        "deltas": [{"span": i, "value": d} for i, d in enumerate(polygon.torsions.tolist(), start=2)],
        "spans": [
            {"index": i, "flags": sorted(f.value for f in FLAG_SETS[code])}
            for i, code in enumerate(span_codes(polygon, np.arange(1, n + 1)).tolist(), start=1)
        ],
        "collinear_vertices": (np.flatnonzero(polygon.classes.collinear) + 1).tolist(),
    }
    _emit(payload, args.out)
    return 0


def cmd_sample(args) -> int:
    doc = load_document(args.input)
    settings = _resolve_settings(args, doc)
    per_segment = _PER_SEGMENT.check(args.per_segment, _PER_SEGMENT.flag)
    polygon, spline, cfg = _build(doc, settings)
    rows = sample_spline(spline, per_segment)
    # formatted from Python floats: one tolist() beats a numpy scalar per value
    values = np.column_stack([rows["t"], rows["position"], rows["curvature"], rows["tau"]])
    fmt = "%d" + ",%.17g" * 8
    lines = ["segment_index,t,x,y,z,wx,wy,wz,tau_num"]
    lines.extend(fmt % (i, *v) for i, v in zip(rows["segment"].tolist(), values.tolist()))
    _write("\n".join(lines), args.out)
    return 0


def cmd_inflection(args) -> int:
    doc = load_document(args.input)
    settings = _resolve_settings(args, doc)
    polygon, spline, cfg = _build(doc, settings)
    directions = settings["directions"]
    arc_count = spatial_arc_inflection_count(polygon, directions)
    counts = functools.partial(
        oracle.projected_inflection_counts,
        spline.nets,
        spline.widths,
        samples=settings["samples"],
        eps_zero=cfg.tolerances.eps_zero,
    )
    seg_counts = counts(directions).tolist()
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
        for k, (count, dense) in enumerate(zip(seg_counts, counts(2 * directions).tolist()), start=1):
            if dense > count:
                problems.append(f"segment {k} count {count} undercounts: {dense} at double density")
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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
