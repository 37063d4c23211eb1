"""Exact 3D convex hulls, V-polytopes, and the edge-based summand criteria.

Every polytope keeps its vertex lattice: `Polytope3.lattice` is (den, ints),
the vertices scaled by the lcm of their denominators (`core.lattice`).
`hull3` scales its input once and runs every hull predicate as an integer
sign test (extreme points first, coplanar triangles merged into facets);
only the result's vertices and facet offsets become `Fraction`s.  Pruning by
the cone, its re-hull and `minkowski_sum3` (pairwise integer sums at
lcm(den_P, den_K)) stay on the lattice.  Repeated, collinear and coplanar
points are handled exactly, `hull3(q.vertices) == q`, and points, segments
and flat polygons are first-class citizens.  The summand and reduced-pair
criteria are two filters on one integer scan of the stored lattices: for
each edge e of P exposed by the open polar (strict rows in two variables
for `core.cone_strictly_feasible`), the vertices of the 2D hull of K's
projection onto e's perp plane whose open wedge meets e's directions.  Above
each lies a vertex of K or an edge parallel to e: the summand criterion asks
it for a translate of e, the equiparallel-edge list keeps the edges (and
skips the hull when no two vertices of K project to one point).  The perp
basis w1, w2 is two cross products each divided by its gcd, not unit
vectors: a positive scale of w1 or w2 changes no sign, no lexicographic
order and no hull.  Projections and wedge rows are unpacked integer pairs,
and the hull is `planar.hull_chain`, whose turn test runs on unpacked int
or `Fraction` coordinates and drops collinear points.  Vertex survival is
one ray test with strict rows in three variables, and `contains3` one with
strict and weak rows over the vertex lattice (`core.lattice_contains`).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .core import (
    INF,
    Cone3,
    GeometryError,
    Value,
    as_point,
    check_length,
    cone_strictly_feasible,
    cross3,
    dot,
    is_zero,
    lattice,
    lattice_contains,
    normalize_direction,
    shared_cone,
    vadd,
    vneg,
    vsub,
)
from .planar import hull_chain


class Facet(Value):
    _fields = ("normal", "offset", "cycle")  # primitive outer normal; cycle CCW seen from outside

    def __init__(self, normal, offset, cycle):
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "cycle", cycle)


class Polytope3(Value):
    """Convex hull with exact face data; `dim` is the affine dimension."""

    _fields = ("vertices", "dim", "facets", "edges")

    def __init__(self, vertices, dim, facets, edges, lattice):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "lattice", lattice)  # (den, den * vertices)


def _primitive(u, v, w):
    """The integer vector (u, v, w) divided by its gcd; 0 is refused."""
    g = math.gcd(u, v, w)
    if not g:
        raise GeometryError("degenerate direction")
    return u // g, v // g, w // g


def _perp_basis(d):
    """Two independent primitive integer vectors spanning the plane normal to
    the integer vector d: w1 = d x (1, 0, 0), or d x (0, 1, 0) on the x axis,
    and w2 = d x w1."""
    x, y, z = d
    w1 = _primitive(0, z, -y) if y or z else _primitive(0, 0, x)
    return w1, _primitive(y * w1[2] - z * w1[1], -x * w1[2], x * w1[1])


# ---------------------------------------------------------------------------
# hull construction

def hull3(points) -> Polytope3:
    """Exact convex hull; coplanar facets merged; degenerate dims flagged.

    The distinct points are scaled once to an integer lattice
    (`core.lattice`), and `_hull` builds the hull of those integer triples.
    """
    den, lat = lattice(set(map(as_point, points)))
    check_length(3, *lat)
    if not lat:
        raise GeometryError("need at least one point")
    return _hull(den, sorted(lat))


def _hull(den, lat) -> Polytope3:
    """Hull of the points lat[i] / den, `lat` sorted distinct integer triples.

    A positive scale keeps every sign and the lexicographic order, so every
    predicate is an integer sign test, and only the result's vertices become
    `Fraction`s.  A full-dimensional hull starts from an extreme simplex: the
    lexicographically first and last points, the point farthest from their
    line and the point farthest from the plane of those three.  The other
    points go in farthest first from the simplex's centroid, each replacing
    the triangles it strictly sees by a fan over their horizon; a point that
    sees none (inside, or on a facet) costs one scan.  The final triangles
    are grouped by plane, and each facet's cycle is the 2D hull of the
    corners of its own triangles.
    """
    if len(lat) == 1:
        return _polytope(den, lat, 0, ())
    p0 = lat[0]
    d1 = vsub(lat[1], p0)
    n2 = next((c for c in (cross3(d1, vsub(p, p0)) for p in lat) if not is_zero(c)), None)
    if n2 is None:
        # collinear: the lexicographic extremes are the segment's endpoints
        return _polytope(den, (lat[0], lat[-1]), 1, (), ((0, 1),))
    if all(dot(n2, vsub(p, p0)) == 0 for p in lat):
        return _hull_planar(den, lat, n2)
    return _hull_full(den, lat)


def _planar_cycle(lat, ids, normal):
    """CCW cycle (seen from +normal) of the 2D hull of the coplanar lattice
    points `lat[i]`, i in `ids` (sorted), as indices into `lat`.

    The cycle starts where it would from its vertices alone, so the hull of
    a hull's vertices is that same hull.
    """
    base = lat[ids[0]]
    # unnormalized axes: a positive scale of each keeps the lexicographic
    # order and every `cross2` sign
    e = vsub(lat[ids[1]], base)
    f = cross3(normal, e)
    coords = {}
    for i in ids:
        w = vsub(lat[i], base)
        coords[(dot(w, e), dot(w, f))] = i
    cyc = [coords[c] for c in hull_chain(sorted(coords))]
    return cyc if len(cyc) == len(ids) else _planar_cycle(lat, sorted(cyc), normal)


def _triangle_cycle(lat, ids, normal):
    """`_planar_cycle` of three corners off one line: the sign of o orders them
    CCW, and the cycle starts at ids[2] if its coordinates (<w, e>, o) there,
    e and w the edge vectors from the base ids[0], precede the base's (0, 0)."""
    i, j, k = ids
    e, w = vsub(lat[j], lat[i]), vsub(lat[k], lat[i])
    o = dot(normal, cross3(e, w))
    if (dot(w, e), o) < (0, 0):
        return (k, i, j) if o > 0 else (k, j, i)
    return (i, j, k) if o > 0 else (i, k, j)


def _polytope(den, lat, dim, planes, edges=()):
    """Polytope3 with vertices lat[i] / den, the only `Fraction`s built.  With
    planes (normal, lattice offset, cycle of indices into the sorted `lat`),
    its facets and edges come from those and its vertices are the points the
    cycles use."""
    facets = []
    if planes:
        order = sorted({i for *_, cyc in planes for i in cyc})
        index = {i: r for r, i in enumerate(order)}
        edges = set()
        for n, off, cyc in planes:
            cyc = tuple(index[i] for i in cyc)
            facets.append(Facet(n, Fraction(off, den), cyc))
            for t in range(len(cyc)):
                i, j = cyc[t], cyc[(t + 1) % len(cyc)]
                edges.add((min(i, j), max(i, j)))
        lat, edges = [lat[i] for i in order], tuple(sorted(edges))
    verts = tuple(tuple(Fraction(x, den) for x in p) for p in lat)
    return Polytope3(verts, dim, tuple(facets), edges, (den, tuple(lat)))


def _hull_planar(den, lat, raw_normal) -> Polytope3:
    n = normalize_direction(raw_normal)
    cyc = _planar_cycle(lat, range(len(lat)), n)
    if len(cyc) < len(lat):
        # orient the plane as its vertices alone would
        return _hull(den, sorted(lat[i] for i in cyc))
    b = dot(n, lat[cyc[0]])
    return _polytope(den, lat, 2, ((n, b, cyc), (vneg(n), -b, cyc[::-1])))


def _hull_full(den, lat) -> Polytope3:
    # extreme initial simplex: the lexicographic ends of the sorted distinct
    # points are vertices, c is farthest from their line and d from their
    # plane; `index(max(...))` keeps the first index on ties
    a, b = 0, len(lat) - 1
    ax, ay, az = lat[a]
    rel = [(x - ax, y - ay, z - az) for x, y, z in lat]
    ex, ey, ez = rel[b]
    line = [(ey * z - ez * y) ** 2 + (ez * x - ex * z) ** 2 + (ex * y - ey * x) ** 2 for x, y, z in rel]
    c = line.index(max(line))
    nx, ny, nz = cross3(rel[b], rel[c])
    plane = [abs(nx * x + ny * y + nz * z) for x, y, z in rel]
    d = plane.index(max(plane))
    # 4 * the simplex's centroid, compared against 4 * offset
    ix, iy, iz = vadd(vadd(lat[a], lat[b]), vadd(lat[c], lat[d]))

    def oriented(i, j, k):
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = lat[i], lat[j], lat[k]
        ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
        vx, vy, vz = x2 - x0, y2 - y0, z2 - z0
        # a degenerate triangle has normal 0, which `_primitive` refuses
        u, v, w = _primitive(uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
        off = u * x0 + v * y0 + w * z0
        side = u * ix + v * iy + w * iz - 4 * off
        if side > 0:
            u, v, w, off = -u, -v, -w, -off
        elif side == 0:
            raise GeometryError("interior reference on facet plane")
        return (u, v, w, off, (i, j, k))

    tris = [oriented(*t) for t in ((a, b, c), (a, b, d), (a, c, d), (b, c, d))]
    # farthest points first: most later points then see no facet at all
    far = [(4 * x - ix) ** 2 + (4 * y - iy) ** 2 + (4 * z - iz) ** 2 for x, y, z in lat]
    rest = [i for i in range(len(lat)) if i not in (a, b, c, d)]
    rest.sort(key=lambda i: -far[i])
    for k in rest:
        x, y, z = lat[k]
        visible = [t for t in tris if t[0] * x + t[1] * y + t[2] * z > t[3]]
        if not visible:
            continue
        # the horizon: the edges of one visible triangle only, in first-seen order
        count = Counter(e for t in visible for e in _tri_edges(t[4]))
        tris = [t for t in tris if t not in visible]
        tris += [oriented(k, u, v) for (u, v), n in count.items() if n == 1]

    # merge coplanar triangles into facets; a facet's vertices are among the
    # corners of its triangles
    corners = {}
    for u, v, w, off, tri in tris:
        corners.setdefault(((u, v, w), off), set()).update(tri)
    planes = [(n, off, (_triangle_cycle if len(on) == 3 else _planar_cycle)(lat, sorted(on), n))
              for (n, off), on in sorted(corners.items())]
    return _polytope(den, lat, 3, planes)


def _tri_edges(tri):
    i, j, k = sorted(tri)
    return (i, j), (j, k), (i, k)


# ---------------------------------------------------------------------------
# V-polytopes

class VPolytope3(Value):
    _fields = ("bounded", "cone")

    def __init__(self, bounded: Polytope3, cone: Cone3):
        object.__setattr__(self, "bounded", bounded)
        object.__setattr__(self, "cone", cone)


def from_points3(points, cone: Cone3) -> VPolytope3:
    """Canonical V-polytope: hull plus cone, cone-absorbed vertices pruned."""
    return _pruned(hull3(points), cone)


def _pruned(q: Polytope3, cone: Cone3) -> VPolytope3:
    if cone.is_trivial:
        return VPolytope3(q, cone)
    den, lat = q.lattice
    keep = [v for i, v in enumerate(lat) if _vertex_survives(q, lat, i, cone)]
    # hull3(q.vertices) == q, so a hull that loses no vertex is its own result
    return VPolytope3(q if len(keep) == len(lat) else _hull(den, sorted(keep)), cone)


def _vertex_survives(q: Polytope3, lat, i, cone: Cone3) -> bool:
    """relint of the vertex normal cone meets the open polar of the cone.

    That relint is {u : <w - v, u> < 0} over the edges (v, w) at v = lat[i],
    for every dimension of q (q's lattice points `lat` keep each sign), so
    the question is one strict system in three variables.
    """
    rows = [vsub(lat[b if a == i else a], lat[i]) for a, b in q.edges if i in (a, b)]
    return cone_strictly_feasible(rows + list(cone.gens))


def support3(p: VPolytope3, u):
    """(h(u), maximizing bounded vertices) with h = inf outside the polar.

    Evaluated at u as given; only the direction decides finiteness.
    """
    check_length(3, u)
    if not p.cone.polar_contains(normalize_direction(u)):
        return INF, ()
    vals = [dot(v, u) for v in p.bounded.vertices]
    m = max(vals)
    return m, tuple(v for v, t in zip(p.bounded.vertices, vals) if t == m)


def contains3(p: VPolytope3, x) -> bool:
    """Exact membership of a point in bounded + cone, by Farkas: x lies
    outside iff some u has <v - x, u> < 0 for every vertex v and <g, u> <= 0
    for every cone generator g (`core.lattice_contains` on the vertex lattice)."""
    return lattice_contains(*p.bounded.lattice, p.cone.gens, as_point(x))


def minkowski_sum3(p: VPolytope3, q: VPolytope3) -> VPolytope3:
    """Hull of the pairwise sums, added in integers at lcm(den_p, den_q)."""
    cone = shared_cone(p, q)
    (pden, plat), (qden, qlat) = p.bounded.lattice, q.bounded.lattice
    den = math.lcm(pden, qden)
    s, t = den // pden, den // qden
    sums = {(s * a + t * x, s * b + t * y, s * c + t * z) for a, b, c in plat for x, y, z in qlat}
    return _pruned(_hull(den, sorted(sums)), cone)


def are_equivalent3(a, b, c, d) -> bool:
    shared_cone(a, b, c, d)
    return minkowski_sum3(a, d) == minkowski_sum3(b, c)


def are_translates3(p: VPolytope3, q: VPolytope3) -> bool:
    """q = p + t for some vector t; sets under different cones never are."""
    vp, vq = p.bounded.vertices, q.bounded.vertices
    if p.cone != q.cone or len(vp) != len(vq):
        return False
    shift = vsub(vq[0], vp[0])
    return all(vadd(v, shift) == w for v, w in zip(vp, vq))


# ---------------------------------------------------------------------------
# edges with normal cones

class EdgeWithNormalCone(Value):
    """Bounded edge exposed by a direction in the open polar of the cone."""

    _fields = ("endpoints",)

    def __init__(self, endpoints):
        object.__setattr__(self, "endpoints", endpoints)

    @property
    def vector(self):
        return vsub(self.endpoints[1], self.endpoints[0])


def _project(points, w1, w2):
    """Integer coordinates <v, w1>, <v, w2> of each point in an edge's perp plane."""
    (a1, a2, a3), (b1, b2, b3) = w1, w2
    return [(x * a1 + y * a2 + z * a3, x * b1 + y * b2 + z * b3) for x, y, z in points]


def _edge_frame(p: VPolytope3, lat, i, j):
    """((w1, w2), rows) for the edge (i, j) of p's lattice points `lat`: a
    basis of its perp plane, and the rows, projected to it, that cut out the
    open-polar directions exposing exactly this edge (the differences to the
    other vertices, and the cone generators).  A positive scale per polytope
    keeps each row's sign, so `lat` may be p's vertices scaled by `lattice`."""
    w1, w2 = _perp_basis(vsub(lat[j], lat[i]))
    proj = _project(lat, w1, w2)
    bx, by = proj[i]
    rows = [(x - bx, y - by) for k, (x, y) in enumerate(proj) if k != i and k != j]
    return (w1, w2), rows + _project(p.cone.gens, w1, w2)


def _feasible_in_perp_plane(rows) -> bool:
    """Some u = alpha*w1 + beta*w2 with <a, u> < 0 for every row a, the rows
    given projected to (<a, w1>, <a, w2>) as integer pairs?"""
    return cone_strictly_feasible(rows)


def _sector(rows):
    """The two angularly extreme rows of a feasible strict system in two
    variables, which cut out its open sector of solutions: its rows lie in an
    open half-plane, where the sign of the integer cross product orders them."""
    lo = hi = rows[0]
    for x, y in rows:
        if hi[0] * y - hi[1] * x > 0:
            hi = x, y
        elif lo[0] * y - lo[1] * x < 0:
            lo = x, y
    return [lo, hi]


def _exposed_edges(p: VPolytope3, lat):
    """(i, j, (w1, w2), rows) of `_edge_frame` for each edge (i, j) of p's
    bounded hull exposed, bounded, by some open-polar direction."""
    for i, j in p.bounded.edges:
        basis, rows = _edge_frame(p, lat, i, j)
        if _feasible_in_perp_plane(rows):
            yield i, j, basis, rows


def _edge(q: Polytope3, i, j):
    return EdgeWithNormalCone((q.vertices[i], q.vertices[j]))


def bounded_edges(p: VPolytope3):
    """Edges of the bounded hull exposed, bounded, by some open-polar direction."""
    return [_edge(p.bounded, i, j) for i, j, *_ in _exposed_edges(p, p.bounded.lattice[1])]


# ---------------------------------------------------------------------------
# summand criterion and equiparallel edges

def _face_contains_translate(kden, klat, ids, pden, elat) -> bool:
    """Does the vertex or edge of K with vertex ids `ids` contain a translate
    of the edge vector e = elat / pden?  K's vertices are `klat` / kden.

    An edge does iff it is parallel to e and at least as long, which is an
    integer comparison of e with the edge vector.
    """
    if len(ids) == 1:
        return False
    i, j = ids
    f = vsub(klat[j], klat[i])
    return is_zero(cross3(f, elat)) and kden * abs(dot(f, elat)) <= pden * dot(f, f)


def _faces_exposed_with_edges(p: VPolytope3, k: VPolytope3, keep):
    """(i, j, ids) for each exposed bounded edge (i, j) of p and each face of
    k, of vertex ids `ids`, above a vertex of the 2D hull of k's projection
    to the edge's perp plane (a vertex of k or an edge parallel to (i, j))
    that `keep(e, ids)` accepts, e the edge vector on p's lattice, and one
    open-polar direction exposes with (i, j): the open wedge to the hull
    neighbours meets the sector the edge's rows cut out (`_sector`).  `keep`
    answers alike for every one-vertex fibre, so if all are and it refuses
    one, no hull is built."""
    plat, klat = p.bounded.lattice[1], k.bounded.lattice[1]
    for i, j, (w1, w2), edge_rows in _exposed_edges(p, plat):
        e = vsub(plat[j], plat[i])
        over = {}
        for t, q in enumerate(_project(klat, w1, w2)):
            over.setdefault(q, []).append(t)
        if len(over) == len(klat) and not keep(e, [0]):
            continue
        hull, sector = hull_chain(sorted(over)), edge_rows and _sector(edge_rows)
        for t, q in enumerate(hull):
            if keep(e, over[q]):
                (qx, qy), ends = q, (hull[t - 1], hull[(t + 1) % len(hull)])
                wedge = [(rx - qx, ry - qy) for rx, ry in ends if (rx, ry) != q]
                if _feasible_in_perp_plane(sector + wedge):
                    yield i, j, over[q]


def summand_criterion3(p: VPolytope3, k: VPolytope3) -> bool:
    """Edge test: every face of k exposed alongside a bounded edge e of p
    must contain a translate of e.  The faces above hull vertices suffice
    (`_faces_exposed_with_edges`): the face above a hull edge holds both
    ends' faces, and e's open set of directions meets both ends' open normal
    cones if it holds that edge's normal."""
    shared_cone(p, k)
    pden, (kden, klat) = p.bounded.lattice[0], k.bounded.lattice
    lacks = lambda e, ids: not _face_contains_translate(kden, klat, ids, pden, e)
    return next(_faces_exposed_with_edges(p, k, lacks), None) is None


def equiparallel_edges(a: VPolytope3, b: VPolytope3):
    """Pairs of bounded parallel edges exposed by one common direction: the
    faces of b with two vertices that `_faces_exposed_with_edges` yields.
    Edges are stored sorted, so sorting keeps a's order, then b's."""
    shared_cone(a, b)
    hits = _faces_exposed_with_edges(a, b, lambda e, ids: len(ids) == 2)
    return [(_edge(a.bounded, i, j), _edge(b.bounded, s, t)) for i, j, (s, t) in sorted(hits)]
