"""Seeded input generators for the benchmark workloads.

Every generator draws from a `random.Random` that the caller derives from the
workload name and `--seed`, so a seed fixes the inputs exactly.  Only the
generated inputs are passed to the library.  Generators return raw points;
the workloads build sets from them in their timed set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from minkpair import core, spatial

F = Fraction


def rng_for(workload, seed):
    """Stream keyed by workload and seed (string seeding hashes with SHA-512)."""
    return random.Random(f"perfbench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# plain exact arithmetic used by the oracles (deliberately not the library's)

def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def facet_normals(points):
    """Normals of the supporting planes through three or more of `points`.

    Brute force over point triples; a plane supports the set when every point
    lies on one side of it.  Independent of the library's hull code.
    """
    pts = sorted(set(points))
    normals = set()
    for a, b, c in combinations(pts, 3):
        n = cross(sub(b, a), sub(c, a))
        if n == (0, 0, 0):
            continue
        side = {(dot(n, sub(p, a)) > 0) - (dot(n, sub(p, a)) < 0) for p in pts}
        if not (side <= {0, 1} or side <= {0, -1}):
            continue
        g = core.normalize_direction(n)
        normals.add(max(g, tuple(-x for x in g)))
    return normals


def is_full_dimensional(points):
    pts = sorted(set(points))
    for a, b, c, d in combinations(pts, 4):
        if dot(cross(sub(b, a), sub(c, a)), sub(d, a)) != 0:
            return True
    return False


# ---------------------------------------------------------------------------
# planar

def direction2(rng, lim=4):
    while True:
        v = (rng.randint(-lim, lim), rng.randint(-lim, lim))
        if v != (0, 0):
            return core.normalize_direction(v)


def wedge(rng, lim=4):
    while True:
        a, b = direction2(rng, lim), direction2(rng, lim)
        c = core.cross2(a, b)
        if c:
            return core.Cone2((a, b) if c > 0 else (b, a))


def cone2(rng):
    """Trivial, ray or wedge cone in proportion 1 : 1.5 : 2.5."""
    roll = rng.random()
    if roll < 0.2:
        return core.Cone2(())
    if roll < 0.5:
        return core.Cone2((direction2(rng),))
    return wedge(rng)


def point2(rng, lim=9):
    den = rng.choice((1, 1, 2))
    return (F(rng.randint(-lim, lim), den), F(rng.randint(-lim, lim), den))


def polygon_points(rng, max_points=8, lim=9):
    return [point2(rng, lim) for _ in range(rng.randint(1, max_points))]


def polar_interior_dir(rng, cone):
    """Primitive direction in the open polar of a planar cone."""
    if cone.is_trivial:
        return direction2(rng)
    if len(cone.gens) == 1:
        g = cone.gens[0]
        along, back = rng.randint(-5, 5), rng.randint(1, 5)
        return core.normalize_direction((-along * g[1] - back * g[0], along * g[0] - back * g[1]))
    start, end = cone.polar_boundary_rays()
    s, t = rng.randint(1, 6), rng.randint(1, 6)
    return core.normalize_direction((s * start[0] + t * end[0], s * start[1] + t * end[1]))


def pl_convex(rng):
    """Convex piecewise-linear function on [-1, 1] with up to 4 inner breakpoints."""
    xs = sorted({F(-1), F(1)} | {F(rng.randint(-9, 9), 10) for _ in range(rng.randint(0, 4))})
    slope = F(rng.randint(-6, 0), rng.choice((1, 2)))
    vals = [F(rng.randint(-3, 3), 2)]
    for x0, x1 in zip(xs, xs[1:]):
        vals.append(vals[-1] + slope * (x1 - x0))
        slope += F(rng.randint(1, 4), rng.choice((1, 2)))
    return tuple(xs), tuple(vals)


# ---------------------------------------------------------------------------
# spatial

CONE3_KINDS = ("trivial", "ray", "three")


def cone3(rng, kind):
    """Pointed 3D cone: trivial, the downward ray, or exactly three generators."""
    if kind == "trivial":
        return core.Cone3.from_generators([])
    if kind == "ray":
        return core.Cone3.from_generators([(0, 0, -1)])
    while True:
        gens = [(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-3, -2)) for _ in range(3)]
        cone = core.Cone3.from_generators(gens)
        if len(cone.gens) == 3:
            return cone


def points3(rng, n, lim=4):
    return [tuple(F(rng.randint(-lim, lim)) for _ in range(3)) for _ in range(n)]


def exact_points3(rng, n, cone, lim=4):
    """n random lattice points that all stay vertices of their V-polytope.

    Rejection keeps the per-instance cost of the summand tests narrow; it
    builds each draw once to test it, so callers keep it out of timed set-up.
    """
    while True:
        pts = points3(rng, n, lim)
        p = spatial.from_points3(pts, cone)
        if len(p.bounded.vertices) == n and p.bounded.dim == min(n - 1, 3):
            return pts


def lifted_points(rng, m, radius=8):
    """m lattice points on the paraboloid z = x^2 + y^2.

    Strict convexity of the paraboloid makes every one of them a vertex of
    their hull, and keeps them vertices under any cone whose generators have
    a large enough positive z component.
    """
    xy = set()
    while len(xy) < m:
        xy.add((rng.randint(-radius, radius), rng.randint(-radius, radius)))
    return [(F(x), F(y), F(x * x + y * y)) for x, y in sorted(xy)]


def lifted_cloud(rng, n, m, radius=8):
    """(vertices, cloud): m lifted vertices plus n - m convex combinations of them."""
    verts = lifted_points(rng, m, radius)
    cloud = list(verts)
    while len(cloud) < n:
        picks = rng.sample(verts, 3)
        w = [rng.randint(1, 4) for _ in picks]
        total = sum(w)
        cloud.append(tuple(sum(wi * p[i] for wi, p in zip(w, picks)) / total for i in range(3)))
    rng.shuffle(cloud)
    return verts, cloud


def upward_cone3(kind):
    """Cones under which every lifted point survives (generators point up)."""
    if kind == "trivial":
        return core.Cone3.from_generators([])
    if kind == "ray":
        return core.Cone3.from_generators([(0, 0, 1)])
    return core.Cone3.from_generators([(1, 0, 40), (-1, 1, 40), (0, -1, 40)])
