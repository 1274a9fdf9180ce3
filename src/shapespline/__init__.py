"""Shape-preservation diagnostics for C1 cubic spline interpolation of 3D
data polygons: convexity, inflection, collinearity, torsion and coplanarity
criteria, checked both in closed form and by independent sampling."""

from .criteria import (
    Criterion,
    CriterionVerdict,
    Tolerances,
    check_adjacency_compat,
    check_collinearity_cubic,
    check_collinearity_extended,
    check_convexity_cubic,
    check_convexity_sampled,
    check_coplanarity_cubic,
    check_inflection_cubic,
    check_torsion_compat,
    check_torsion_cubic,
)
from .geometry import (
    EPS_ZERO,
    DegenerateInputError,
    InvalidPlaneError,
    Plane,
    cross3,
    project_point,
    sine_angle,
    triple,
)
from .polygon import (
    DataPolygon,
    ShapeFlag,
    classify_vertex,
    sign_changes,
    spatial_arc_inflection_count,
)
from .segment import CubicSegment, CurvatureQuad
from .spline import (
    Parameterization,
    Spline,
    SplineConfig,
    SplineReport,
    TangentMode,
    analyze,
    build_spline,
    catmull_rom_tangents,
    sample_spline,
)

__version__ = "0.1.0"
