"""Independent oracles for the exact predicates.

- `fm_cone_strictly_feasible`: the branching Fourier-Motzkin test the library
  used for homogeneous systems before its integer ray test, kept here to
  check that test against.
- `supporting_plane_normals` and `certified_negative_points`: brute force
  over point triples, independent of the library's hull code.
"""

from fractions import Fraction
from itertools import combinations

from minkpair.core import linear_feasible, normalize_direction
from minkpair.spatial import from_points3


def fm_cone_strictly_feasible(constraints) -> bool:
    """True iff a NONZERO point satisfies all homogeneous constraints.

    `constraints` is a list of (vector, rel), rel in {'<', '<=', '='},
    meaning <vector, x> rel 0, in any dimension.  Decided by `Fraction`
    Fourier-Motzkin elimination; the nonzero requirement is handled by
    branching on the sign of each coordinate.
    """
    base = [(vec, rel, 0) for vec, rel in constraints]
    if not base:
        return True
    n = len(base[0][0])
    for i in range(n):
        for sign in (1, -1):
            axis = tuple(-sign if j == i else 0 for j in range(n))
            if linear_feasible(base + [(axis, "<", 0)], n):
                return True
    return False


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def supporting_plane_normals(points):
    """Normals of the planes through three or more of `points` with every point on one side."""
    pts = sorted(set(points))
    normals = set()
    for a, b, c in combinations(pts, 3):
        n = _cross(_sub(b, a), _sub(c, a))
        if n == (0, 0, 0):
            continue
        sides = {(_dot(n, _sub(p, a)) > 0) - (_dot(n, _sub(p, a)) < 0) for p in pts}
        if sides <= {0, 1} or sides <= {0, -1}:
            normals.add(normalize_direction(n))
    return normals


def certified_negative_points(rng, p_points, n=5, lim=4):
    """n full-dimensional points whose supporting planes are parallel to no
    difference of two of `p_points`.

    Under any pointed cone C, every face of hull(points) + C exposed by an
    open-polar direction is a face of hull(points); its edges and facets lie
    in such planes, so none holds a translate of an edge of P = hull(p_points)
    + C.  So P is no summand of K = hull(points) + C as soon as P has a
    bounded edge, and (P, K) has no equiparallel edges.
    """
    diffs = [_sub(b, a) for a, b in combinations(sorted(set(p_points)), 2)]
    while True:
        pts = [tuple(Fraction(rng.randint(-lim, lim)) for _ in range(3)) for _ in range(n)]
        normals = supporting_plane_normals(pts)
        # full-dimensional: some supporting plane leaves a point off it
        full = any(_dot(m, _sub(p, pts[0])) != 0 for m in normals for p in pts)
        if full and all(_dot(m, d) != 0 for m in normals for d in diffs):
            return pts


def certified_negative(rng, cone, p_size=4):
    """(P, K) under `cone` with P no summand of K, per `certified_negative_points`."""
    while True:
        p_points = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(3)) for _ in range(p_size)]
        p = from_points3(p_points, cone)
        if len(p.bounded.vertices) >= 2:
            break
    return p, from_points3(certified_negative_points(rng, p_points), cone)
