"""build3: construction of 3D sets, `from_points3`, `minkowski_sum3`, `are_equivalent3`.

Why: the Fraction predicates in `hull3` dominate here and `core` feasibility
runs only for vertex survival, so a feasibility speed-up should leave this
workload unchanged, while caching face data at construction time pays its
cost here.

Clouds of 50 to 400 points lie in the hull of lattice points on the
paraboloid z = x^2 + y^2, so the vertex set is known by construction under
all three cone kinds (trivial, upward ray, three upward generators).  Sums
are checked by support-function additivity and vertex provenance, and
equivalences by construction: (A, B) ~ (A + M, B + M) holds and
(A, B) ~ (B, A) fails for A != B.

The points are drawn once per run; every pass builds the summands and the
equivalence pairs from them, and that build is the timed set-up.
"""

from __future__ import annotations

import functools

from minkpair import spatial

import gen
import harness
from harness import Op

# (points, hull vertices), doubling from 50 to 400 points; the 400-point hull
# alone takes about a second at full speed, so few and doubling sizes keep a
# pass short enough for five or more repeats of each op in a run
CLOUDS = ((50, 10), (100, 14), (200, 18), (400, 24))
# sums and equivalences are six sevenths of the pool, so the median is the
# middle of 24 random instances and moves little from seed to seed;
# 4-vertex equivalences stay cheaper than the 100-point cloud, so p90 (the
# third slowest of 28 ops) sits on that one cloud size
SUMS, EQUIVS = 16, 8
SUM_VERTICES, EQUIV_VERTICES, SHIFT_VERTICES = (4, 5, 6, 7), 4, 2


def _probe_directions(rng, cone, count=12):
    """Directions in the open polar of an upward cone (negative z suffices)."""
    out = []
    while len(out) < count:
        u = (rng.randint(-6, 6), rng.randint(-6, 6), -rng.randint(1, 3))
        if all(gen.dot(u, g) < 0 for g in cone.gens):
            out.append(u)
    return out


def _sum_is_right(s, a, b, probes):
    sums = {tuple(x + y for x, y in zip(v, w)) for v in a.bounded.vertices for w in b.bounded.vertices}
    if not set(s.bounded.vertices) <= sums or s.cone != a.cone:
        return False
    h = lambda p, u: max(gen.dot(v, u) for v in p.bounded.vertices)
    return all(h(s, u) == h(a, u) + h(b, u) for u in probes)


def _cloud(i, n, kind, verts, cloud):
    cone = gen.upward_cone3(kind)
    return [Op(
        f"from_points3/{i:02d}-{n}-{kind}",
        run=lambda: spatial.from_points3(cloud, cone),
        check=lambda r: set(r.bounded.vertices) == set(verts) and r.cone == cone,
        canon=harness.polytope3,
    )]


def _sum(i, kind, a_points, b_points, probes):
    cone = gen.upward_cone3(kind)
    a, b = spatial.from_points3(a_points, cone), spatial.from_points3(b_points, cone)
    return [Op(
        f"minkowski_sum3/{i:02d}-{kind}",
        run=lambda: spatial.minkowski_sum3(a, b),
        check=lambda r: _sum_is_right(r, a, b, probes),
        canon=harness.polytope3,
    )]


def _equivalence(i, kind, a_points, b_points, shift_points):
    """(A, B) ~ (A + M, B + M) with a shift M, else (A, B) against (B, A)."""
    cone = gen.upward_cone3(kind)
    a, b = spatial.from_points3(a_points, cone), spatial.from_points3(b_points, cone)
    if shift_points:
        shift = spatial.from_points3(shift_points, cone)
        c, d, want = spatial.minkowski_sum3(a, shift), spatial.minkowski_sum3(b, shift), True
    else:
        c, d, want = b, a, a.bounded.vertices == b.bounded.vertices
    return [Op(
        f"are_equivalent3/{i:02d}-{kind}-{want}",
        run=lambda: spatial.are_equivalent3(a, b, c, d),
        check=lambda r: r is want,
    )]


def draw(seed):
    """One builder per op; all drawing happens here, untimed."""
    rng = gen.rng_for("build3", seed)
    builders = []
    for i, (n, m) in enumerate(CLOUDS):
        kind = gen.CONE3_KINDS[i % 3]
        verts, cloud = gen.lifted_cloud(rng, n, m)
        builders.append(functools.partial(_cloud, i, n, kind, verts, cloud))
    for i in range(SUMS):
        kind = gen.CONE3_KINDS[i % 3]
        a, b = (gen.lifted_points(rng, SUM_VERTICES[j]) for j in (i % 4, (i // 4) % 4))
        probes = _probe_directions(rng, gen.upward_cone3(kind))
        builders.append(functools.partial(_sum, i, kind, a, b, probes))
    for i in range(EQUIVS):
        kind = gen.CONE3_KINDS[i % 3]
        a, b = (gen.lifted_points(rng, EQUIV_VERTICES) for _ in range(2))
        shift = gen.lifted_points(rng, SHIFT_VERTICES) if i % 2 == 0 else None
        builders.append(functools.partial(_equivalence, i, kind, a, b, shift))
    return builders
