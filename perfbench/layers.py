"""The functions the traced run wraps, and the per-layer metrics it reports.

``TARGETS`` maps a span label to (module, attribute path) of the function
or method that is wrapped; a method path names its class.  ``PER_LAYER`` maps a metric name to (span label, field): ``calls`` is the
exact number of calls in one pass over the workload's documents,
``self_us_per_seg`` the span time minus child-span time, in microseconds
per spline segment.  ``cli.self_us_per_seg`` is the self time of the
``cli.main`` span: argparse, settings, JSON/CSV formatting and writing,
and the verify loops of ``cli``.  NOTES.md records which end-to-end metric each of them should move.
"""

CRITERIA = (
    "check_convexity_cubic",
    "check_inflection_cubic",
    "check_torsion_cubic",
    "check_coplanarity_cubic",
    "check_collinearity_cubic",
    "check_collinearity_extended",
    "check_convexity_sampled",
    "check_adjacency_compat",
    "check_torsion_compat",
)
ORACLE = (
    "decasteljau",
    "decasteljau_derivatives",
    "curvature_samples",
    "sampled_global_convexity",
    "projected_inflection_count",
)

TARGETS = {
    "cli.main": ("shapespline.cli", "main"),
    "cli.load_document": ("shapespline.cli", "load_document"),
    "polygon.DataPolygon": ("shapespline.polygon", "DataPolygon.__init__"),
    "polygon.classify_vertex": ("shapespline.polygon", "classify_vertex"),
    "polygon.spatial_arc_inflection_count": ("shapespline.polygon", "spatial_arc_inflection_count"),
    **{
        f"spline.{fn}": ("shapespline.spline", fn)
        for fn in ("build_spline", "analyze", "SplineReport.to_dict", "sample_spline")
    },
    **{f"criteria.{fn}": ("shapespline.criteria", fn) for fn in CRITERIA},
    **{
        f"segment.CubicSegment.{fn}": ("shapespline.segment", f"CubicSegment.{fn}")
        for fn in ("derivatives", "point", "curvature_quad", "torsion_numerator")
    },
    **{f"oracle.{fn}": ("shapespline.oracle", fn) for fn in ORACLE},
    **{f"geometry.{fn}": ("shapespline.geometry", fn) for fn in ("cross3", "norm", "sine_angle")},
}

PER_LAYER = {
    "cli.load_document.self_us_per_seg": ("cli.load_document", "self_us_per_seg"),
    "cli.self_us_per_seg": ("cli.main", "self_us_per_seg"),
    "polygon.DataPolygon.self_us_per_seg": ("polygon.DataPolygon", "self_us_per_seg"),
    "polygon.classify_vertex.calls": ("polygon.classify_vertex", "calls"),
    "polygon.classify_vertex.self_us_per_seg": ("polygon.classify_vertex", "self_us_per_seg"),
    "polygon.spatial_arc_inflection_count.self_us_per_seg": (
        "polygon.spatial_arc_inflection_count",
        "self_us_per_seg",
    ),
    **{
        f"spline.{fn}.self_us_per_seg": (f"spline.{fn}", "self_us_per_seg")
        for fn in ("build_spline", "analyze", "SplineReport.to_dict", "sample_spline")
    },
    **{
        f"criteria.{fn}.{field}": (f"criteria.{fn}", field)
        for fn in CRITERIA
        for field in ("calls", "self_us_per_seg")
    },
    **{
        f"segment.CubicSegment.{fn}.{field}": (f"segment.CubicSegment.{fn}", field)
        for fn in ("derivatives", "point", "curvature_quad", "torsion_numerator")
        for field in ("calls", "self_us_per_seg")
    },
    **{
        f"oracle.{fn}.{field}": (f"oracle.{fn}", field)
        for fn in ORACLE
        for field in ("calls", "self_us_per_seg")
    },
    **{
        f"geometry.{fn}.{field}": (f"geometry.{fn}", field)
        for fn in ("cross3", "norm", "sine_angle")
        for field in ("calls", "self_us_per_seg")
    },
    "trace.overhead_ratio": (None, "overhead_ratio"),
}
