"""Exact 3D convex hulls, V-polytopes, and the edge-based summand criteria.

Hulls are computed incrementally on an integer lattice: the input points
are scaled once by the lcm of their denominators (`core.lattice`), every
hull predicate is an integer sign test on those points, and only the result
maps back to the rational points (facet offsets become `Fraction(off, den)`).
Coplanar triangles are merged into facets afterwards, so degenerate inputs
(repeated, collinear, coplanar points) are handled exactly.  The result
depends on the input only through its vertices, so `hull3(q.vertices) == q`.
Lower-dimensional hulls (point, segment, flat polygon) are first-class
citizens because several fixtures are flat.  The summand and reduced-pair
criteria run on each polytope's vertex lattice too, with no `Fraction` solver:
one perp-plane frame per exposed edge, and face translates by integer widths.
Vertex survival in `from_points3` is one strict integer system in three
variables over the same lattice, and `contains3` one strict-and-weak system
over the lattice of the vertices and the point (Farkas separation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    INF,
    Cone3,
    ConeMismatchError,
    GeometryError,
    as_point,
    cone_strictly_feasible,
    cone_strictly_feasible3,
    cross3,
    dot,
    is_zero,
    lattice,
    normalize_direction,
    vadd,
    vneg,
    vsub,
)
from .planar import hull_chain


@dataclass(frozen=True)
class Facet:
    normal: tuple  # primitive integer outer normal
    offset: Fraction
    cycle: tuple  # vertex indices, CCW seen from outside


@dataclass(frozen=True)
class Polytope3:
    """Convex hull with exact face data; `dim` is the affine dimension."""

    vertices: tuple
    dim: int
    facets: tuple
    edges: tuple

    def faces(self):
        """All proper faces as (kind, ids, facet-or-None); ids are sorted tuples."""
        out = [("vertex", (i,), None) for i in range(len(self.vertices))]
        out.extend(("edge", e, None) for e in self.edges)
        seen = set()
        for f in self.facets:
            ids = tuple(sorted(f.cycle))
            if ids not in seen:
                seen.add(ids)
                out.append(("facet", ids, f))
        return out

    def incident_facets(self, i):
        return [f for f in self.facets if i in f.cycle]


def _perp_basis(d):
    """Two independent primitive integer vectors spanning the plane normal to d."""
    d = normalize_direction(d)
    for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        w1 = cross3(d, axis)
        if not is_zero(w1):
            break
    w1 = normalize_direction(w1)
    w2 = normalize_direction(cross3(d, w1))
    return w1, w2


# ---------------------------------------------------------------------------
# hull construction

def hull3(points) -> Polytope3:
    """Exact convex hull; coplanar facets merged; degenerate dims flagged.

    The distinct points are scaled once to an integer lattice
    (`core.lattice`).  A positive scale keeps every sign and the
    lexicographic order, so every predicate runs on those int tuples and
    only the result maps back to the rational points.
    """
    uniq = list(set(map(as_point, points)))
    if not uniq:
        raise GeometryError("need at least one point")
    den, lat = lattice(uniq)
    lat, pts = zip(*sorted(zip(lat, uniq)))
    if len(lat) == 1:
        return Polytope3(pts, 0, (), ())
    p0 = lat[0]
    d1 = vsub(lat[1], p0)
    n2 = next((c for c in (cross3(d1, vsub(p, p0)) for p in lat) if not is_zero(c)), None)
    if n2 is None:
        # collinear: the lexicographic extremes are the segment's endpoints
        return Polytope3((pts[0], pts[-1]), 1, (), ((0, 1),))
    if all(dot(n2, vsub(p, p0)) == 0 for p in lat):
        return _hull_planar(pts, lat, den, n2)
    return _hull_full(pts, lat, den)


def _planar_cycle(lat, ids, normal):
    """CCW cycle (seen from +normal) of the 2D hull of the coplanar lattice
    points `lat[i]`, i in `ids` (sorted), as indices into `lat`.

    The cycle starts where it would from its vertices alone, so the hull of
    a hull's vertices is that same hull.
    """
    base = lat[ids[0]]
    e = normalize_direction(vsub(lat[ids[1]], base))
    f = normalize_direction(cross3(normal, e))
    coords = {}
    for i in ids:
        w = vsub(lat[i], base)
        coords[(dot(w, e), dot(w, f))] = i
    cyc = [coords[c] for c in hull_chain(sorted(coords))]
    return cyc if len(cyc) == len(ids) else _planar_cycle(lat, sorted(cyc), normal)


def _polytope(pts, den, dim, planes):
    """Polytope3 from planes (normal, lattice offset, cycle of indices into
    the sorted points `pts`); vertices are the points the cycles use."""
    order = sorted({i for *_, cyc in planes for i in cyc})
    index = {i: r for r, i in enumerate(order)}
    facets = []
    edges = set()
    for n, off, cyc in planes:
        cyc = tuple(index[i] for i in cyc)
        facets.append(Facet(n, Fraction(off, den), cyc))
        for t in range(len(cyc)):
            i, j = cyc[t], cyc[(t + 1) % len(cyc)]
            edges.add((min(i, j), max(i, j)))
    return Polytope3(tuple(pts[i] for i in order), dim, tuple(facets), tuple(sorted(edges)))


def _hull_planar(pts, lat, den, raw_normal) -> Polytope3:
    n = normalize_direction(raw_normal)
    cyc = _planar_cycle(lat, range(len(lat)), n)
    if len(cyc) < len(lat):
        # orient the plane as its vertices alone would
        return hull3([pts[i] for i in cyc])
    b = dot(n, lat[cyc[0]])
    return _polytope(pts, den, 2, ((n, b, cyc), (vneg(n), -b, cyc[::-1])))


def _hull_full(pts, lat, den) -> Polytope3:
    # initial affinely independent quadruple; lat is sorted and distinct
    a, b = 0, 1
    pa = lat[a]
    ab = vsub(lat[b], pa)
    c = next(i for i in range(len(lat)) if not is_zero(cross3(ab, vsub(lat[i], pa))))
    norm0 = cross3(ab, vsub(lat[c], pa))
    d = next(i for i in range(len(lat)) if dot(norm0, vsub(lat[i], pa)) != 0)
    # 4 * the simplex's centroid, compared against 4 * offset
    interior = vadd(vadd(pa, lat[b]), vadd(lat[c], lat[d]))

    def oriented(tri):
        i, j, k = tri
        pi = lat[i]
        n = cross3(vsub(lat[j], pi), vsub(lat[k], pi))
        if is_zero(n):
            raise GeometryError("degenerate hull facet")
        n = normalize_direction(n)
        off = dot(n, pi)
        side = dot(n, interior) - 4 * off
        if side > 0:
            n, off = vneg(n), -off
        elif side == 0:
            raise GeometryError("interior reference on facet plane")
        return (tri, n, off)

    tris = [oriented(t) for t in ((a, b, c), (a, b, d), (a, c, d), (b, c, d))]
    in_simplex = {a, b, c, d}
    for k, (x, y, z) in enumerate(lat):
        if k in in_simplex:
            continue
        visible, keep = [], []
        for t in tris:
            (u, v, w), off = t[1], t[2]
            (visible if u * x + v * y + w * z > off else keep).append(t)
        if not visible:
            continue
        edge_count = {}
        for tri, _, _ in visible:
            for e in _tri_edges(tri):
                edge_count[e] = edge_count.get(e, 0) + 1
        # dedup while keeping deterministic order
        horizon = [e for tri, _, _ in visible for e in _tri_edges(tri) if edge_count[e] == 1]
        for u, v in dict.fromkeys(horizon):
            keep.append(oriented((k, u, v)))
        tris = keep

    # merge coplanar triangles into facets
    planes = []
    for n, off in sorted({(n, off) for _, n, off in tris}):
        u, v, w = n
        on_plane = [i for i, (x, y, z) in enumerate(lat) if u * x + v * y + w * z == off]
        planes.append((n, off, _planar_cycle(lat, on_plane, n)))
    return _polytope(pts, den, 3, planes)


def _tri_edges(tri):
    return (
        (min(tri[0], tri[1]), max(tri[0], tri[1])),
        (min(tri[1], tri[2]), max(tri[1], tri[2])),
        (min(tri[0], tri[2]), max(tri[0], tri[2])),
    )


# ---------------------------------------------------------------------------
# V-polytopes

@dataclass(frozen=True)
class VPolytope3:
    bounded: Polytope3
    cone: Cone3


def from_points3(points, cone: Cone3) -> VPolytope3:
    """Canonical V-polytope: hull plus cone, cone-absorbed vertices pruned."""
    q = hull3(points)
    if cone.is_trivial:
        return VPolytope3(q, cone)
    lat = lattice(q.vertices)[1]
    keep = [v for i, v in enumerate(q.vertices) if _vertex_survives(q, lat, i, cone)]
    # hull3(q.vertices) == q, so a hull that loses no vertex is its own result
    return VPolytope3(q if len(keep) == len(q.vertices) else hull3(keep), cone)


def _vertex_survives(q: Polytope3, lat, i, cone: Cone3) -> bool:
    """relint of the vertex normal cone meets the open polar of the cone.

    That relint is {u : <w - v, u> < 0} over the edges (v, w) at v = lat[i],
    for every dimension of q (q's lattice points `lat` keep each sign), so
    the question is one strict system in three variables.
    """
    rows = [vsub(lat[b if a == i else a], lat[i]) for a, b in q.edges if i in (a, b)]
    return cone_strictly_feasible3(rows + list(cone.gens))


def support3(p: VPolytope3, u):
    """(h(u), maximizing bounded vertices) with h = inf outside the polar.

    Evaluated at u as given; only the direction decides finiteness.
    """
    if not p.cone.polar_contains(normalize_direction(u)):
        return INF, ()
    vals = [dot(v, u) for v in p.bounded.vertices]
    m = max(vals)
    return m, tuple(v for v, t in zip(p.bounded.vertices, vals) if t == m)


def contains3(p: VPolytope3, x) -> bool:
    """Exact membership of a point in bounded + cone, by Farkas: x lies
    outside iff some u has <v - x, u> < 0 for every vertex v and <g, u> <= 0
    for every cone generator g.  Decided on the lattice of the vertices and x."""
    lat = lattice(p.bounded.vertices + (as_point(x),))[1]
    x = lat.pop()
    return not cone_strictly_feasible3([vsub(v, x) for v in lat], p.cone.gens)


def minkowski_sum3(p: VPolytope3, q: VPolytope3) -> VPolytope3:
    if p.cone != q.cone:
        raise ConeMismatchError("incompatible recession cones")
    sums = [vadd(a, b) for a in p.bounded.vertices for b in q.bounded.vertices]
    return from_points3(sums, p.cone)


def are_equivalent3(a, b, c, d) -> bool:
    if not (a.cone == b.cone == c.cone == d.cone):
        raise ConeMismatchError("incompatible recession cones")
    return minkowski_sum3(a, d) == minkowski_sum3(b, c)


def are_translates3(p: VPolytope3, q: VPolytope3) -> bool:
    vp, vq = p.bounded.vertices, q.bounded.vertices
    if len(vp) != len(vq):
        return False
    shift = vsub(vq[0], vp[0])
    return all(vadd(v, shift) == w for v, w in zip(vp, vq))


# ---------------------------------------------------------------------------
# edges with normal cones

@dataclass(frozen=True)
class EdgeWithNormalCone:
    """Bounded edge exposed by a direction in the open polar of the cone.

    `ids` are the endpoints' indices in the bounded hull's vertex tuple.
    """

    endpoints: tuple
    ids: tuple

    @property
    def vector(self):
        return vsub(self.endpoints[1], self.endpoints[0])


def _project(points, w1, w2):
    """Integer coordinates <v, w1>, <v, w2> of each point in an edge's perp plane."""
    (a1, a2, a3), (b1, b2, b3) = w1, w2
    return [(x * a1 + y * a2 + z * a3, x * b1 + y * b2 + z * b3) for x, y, z in points]


def _face_rows(proj, ids):
    """Rows for relint of the normal cone of the face with vertex ids `ids`,
    projected; in the frame of a parallel edge an edge's `=` row is zero."""
    bx, by = proj[ids[0]]
    return [
        ((x - bx, y - by), "=" if k in ids else "<")
        for k, (x, y) in enumerate(proj)
        if k != ids[0]
    ]


def _edge_frame(p: VPolytope3, lat, i, j):
    """(d, (w1, w2), rows) for the edge (i, j) of p's lattice points `lat`.

    d is the primitive edge direction and (w1, w2) a basis of its perp plane;
    rows, projected to that basis, cut out the directions that expose
    exactly this edge and lie in the open polar of p's cone.  Every row is a
    difference of two vertices of p (or a cone generator), and a positive
    scale per polytope keeps each row's sign, so `lat` may be p's vertices
    scaled by `core.lattice`.
    """
    d = normalize_direction(vsub(lat[j], lat[i]))
    w1, w2 = _perp_basis(d)
    rows = _face_rows(_project(lat, w1, w2), (i, j))
    rows += [(g, "<") for g in _project(p.cone.gens, w1, w2)]
    return d, (w1, w2), rows


def _feasible_in_perp_plane(rows) -> bool:
    """Nonzero u = alpha*w1 + beta*w2 satisfying all rows, given projected to
    (<a, w1>, <a, w2>) as integer pairs?"""
    return cone_strictly_feasible(rows)


def _exposed_edges(p: VPolytope3, lat):
    """(i, j, d, (w1, w2), rows) of `_edge_frame` for each edge (i, j) of p's
    bounded hull exposed, bounded, by some open-polar direction."""
    for i, j in p.bounded.edges:
        d, basis, rows = _edge_frame(p, lat, i, j)
        if _feasible_in_perp_plane(rows):
            yield i, j, d, basis, rows


def _edge(q: Polytope3, i, j):
    return EdgeWithNormalCone((q.vertices[i], q.vertices[j]), (i, j))


def bounded_edges(p: VPolytope3):
    """Edges of the bounded hull exposed, bounded, by some open-polar direction."""
    lat = lattice(p.bounded.vertices)[1]
    return [_edge(p.bounded, i, j) for i, j, *_ in _exposed_edges(p, lat)]


# ---------------------------------------------------------------------------
# summand criterion and equiparallel edges

def _face_contains_translate(kden, klat, kind, ids, facet, pden, elat) -> bool:
    """Does the face (kind, ids, facet) of K contain a translate of the edge
    vector e = elat / pden?  K's vertices are `klat` / kden.

    That holds iff e lies in the difference body F - F, so every test is an
    integer comparison of e with a width of the face.
    """
    if kind == "vertex":
        return False
    if kind == "edge":
        i, j = ids
        f = vsub(klat[j], klat[i])
        return is_zero(cross3(f, elat)) and kden * abs(dot(f, elat)) <= pden * dot(f, f)
    n, cyc = facet.normal, facet.cycle
    if dot(n, elat) != 0:
        return False
    # F - F is a polygon whose edge normals are those of F, with the width
    # of F along each as its support value on both sides
    for prev, v in zip(cyc[-1:] + cyc[:-1], cyc):
        m = cross3(vsub(klat[prev], klat[v]), n)
        vals = [dot(m, klat[t]) for t in cyc]
        if kden * abs(dot(m, elat)) > pden * (max(vals) - min(vals)):
            return False
    return True


def summand_criterion3(p: VPolytope3, k: VPolytope3) -> bool:
    """Edge test: every face of k exposed alongside a bounded edge of p
    must contain a translate of that edge."""
    if p.cone != k.cone:
        raise ConeMismatchError("incompatible recession cones")
    kb = k.bounded
    faces = kb.faces()
    incident = None
    if kb.dim == 3:
        incident = []
        for kind, ids, facet in faces:
            if kind == "facet":
                incident.append([facet.normal])
            elif kind == "edge":
                incident.append([f.normal for f in kb.facets if set(ids) <= set(f.cycle)])
            else:
                incident.append([f.normal for f in kb.incident_facets(ids[0])])
    pden, plat = lattice(p.bounded.vertices)
    kden, klat = lattice(kb.vertices)
    for i, j, d, (w1, w2), edge_rows in _exposed_edges(p, plat):
        elat = vsub(plat[j], plat[i])
        kproj = _project(klat, w1, w2)
        for idx, (kind, ids, facet) in enumerate(faces):
            if incident is not None:
                signs = [dot(n, d) for n in incident[idx]]
                if all(s > 0 for s in signs) or all(s < 0 for s in signs):
                    continue
            if not _feasible_in_perp_plane(edge_rows + _face_rows(kproj, ids)):
                continue
            if not _face_contains_translate(kden, klat, kind, ids, facet, pden, elat):
                return False
    return True


def equiparallel_edges(a: VPolytope3, b: VPolytope3):
    """Pairs of bounded parallel edges exposed by one common direction."""
    if a.cone != b.cone:
        raise ConeMismatchError("incompatible recession cones")
    blat = lattice(b.bounded.vertices)[1]
    pairs = []
    for i, j, da, (w1, w2), rows_a in _exposed_edges(a, lattice(a.bounded.vertices)[1]):
        bproj = None
        for s, t in b.bounded.edges:
            if not is_zero(cross3(da, vsub(blat[t], blat[s]))):
                continue
            if bproj is None:
                bproj = _project(blat, w1, w2)
            # rows_a holds the cone rows, so such a direction also exposes (s, t)
            if _feasible_in_perp_plane(rows_a + _face_rows(bproj, (s, t))):
                pairs.append((_edge(a.bounded, i, j), _edge(b.bounded, s, t)))
    return pairs
