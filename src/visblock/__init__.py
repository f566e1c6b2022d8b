"""Exact-arithmetic experiments on visibility graphs and blocking sets."""

__version__ = "0.1.0"

from .blocking import (
    BipartiteDrawing,
    BlockCheck,
    BlockingSet,
    construct_knn_grid,
    construct_knn_parabola,
    is_blocking_set,
    midpoint_blocking_set,
    min_blocking_set,
    triangulation_lower_bound,
)
from .cli import ExperimentConfig, report, run
from .crossing import (
    cover_from_blockers,
    crossing_family_partition,
    crossing_graph,
    partition_size_floor,
    regular_ngon_multiplicity,
)
from .drawings import (
    construct_kn_arc_drawing,
    verify_drawing_blocking,
    verify_simplicity,
)
from .errors import GeometryError, NotGeneralPosition
from .generators import GeneratorSpec, generate
from .geometry import (
    LineRecord,
    Point,
    PointSet,
    convex_hull_size,
    is_general_position,
    lines_of,
    max_collinear,
)
from .midpoints import midpoint_set, sum_set
from .visibility import (
    Colouring,
    VisibilityGraph,
    big_line_big_clique_check,
    chromatic_number,
    clique_number,
    diameter,
    monochromatic_line_check,
    proposition1_check,
    visibility_graph,
)

__all__ = [
    "BipartiteDrawing",
    "BlockCheck",
    "BlockingSet",
    "Colouring",
    "ExperimentConfig",
    "GeneratorSpec",
    "GeometryError",
    "LineRecord",
    "NotGeneralPosition",
    "Point",
    "PointSet",
    "VisibilityGraph",
    "big_line_big_clique_check",
    "chromatic_number",
    "clique_number",
    "construct_kn_arc_drawing",
    "construct_knn_grid",
    "construct_knn_parabola",
    "convex_hull_size",
    "cover_from_blockers",
    "crossing_family_partition",
    "crossing_graph",
    "diameter",
    "generate",
    "is_blocking_set",
    "is_general_position",
    "lines_of",
    "max_collinear",
    "midpoint_blocking_set",
    "midpoint_set",
    "min_blocking_set",
    "monochromatic_line_check",
    "partition_size_floor",
    "proposition1_check",
    "regular_ngon_multiplicity",
    "report",
    "run",
    "sum_set",
    "triangulation_lower_bound",
    "verify_drawing_blocking",
    "verify_simplicity",
    "visibility_graph",
]
