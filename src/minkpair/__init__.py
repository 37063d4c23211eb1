"""Exact Minkowski calculus for pairs of convex sets sharing a recession cone."""

from .core import (
    Cone2,
    Cone3,
    ConeMismatchError,
    GeometryError,
    cone_strictly_feasible,
    normalize_direction,
)
from .planar import (
    BoundaryChain,
    EdgeMeasure,
    VPolygon,
    are_equivalent,
    from_points,
    is_minimal_bounded,
    is_summand,
    is_zero_minimal,
    kernel_of_minimality,
    measure_inf,
    minkowski_sum,
    polygon_summand_check,
    reduce_pair,
    scale,
    translate,
)
from .spatial import (
    EdgeWithNormalCone,
    Polytope3,
    VPolytope3,
    are_equivalent3,
    are_translates3,
    bounded_edges,
    equiparallel_edges,
    from_points3,
    hull3,
    minkowski_sum3,
    summand_criterion3,
    support3,
)
from .dc import (
    DcPair,
    PLConvexFn,
    domain_cone,
    from_set,
    hartman_minimize,
    is_hartman_minimal,
    to_hypograph_set,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
