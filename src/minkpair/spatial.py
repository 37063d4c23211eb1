"""Exact 3D convex hulls, V-polytopes, and the edge-based summand criteria.

Hulls are computed incrementally with exact rational predicates; coplanar
triangles are merged into facets afterwards, so degenerate inputs (repeated,
collinear, coplanar points) are handled exactly.  Lower-dimensional hulls
(point, segment, flat polygon) are first-class citizens because several
fixtures are flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    INF,
    Cone3,
    ConeMismatchError,
    GeometryError,
    cone_strictly_feasible,
    cross3,
    dot,
    holds,
    is_zero,
    linear_feasible,
    normalize_direction,
    vadd,
    vneg,
    vscale,
    vsub,
)

def _pt(p):
    return (Fraction(p[0]), Fraction(p[1]), Fraction(p[2]))


def _det3(r1, r2, r3):
    return dot(r1, cross3(r2, r3))


def _param(v, d):
    """t with v == t*d for parallel vectors."""
    for i in range(3):
        if d[i] != 0:
            return Fraction(v[i]) / Fraction(d[i])
    raise GeometryError("zero direction")


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

    def halfspaces(self):
        """Exact H-description: rows (vector, rel, offset), rel in {'<=', '='}."""
        v = self.vertices
        if self.dim == 3:
            return [(f.normal, "<=", f.offset) for f in self.facets]
        if self.dim == 2:
            f = self.facets[0]
            rows = [(f.normal, "=", f.offset)]
            rows.extend(
                (m, "<=", off) for m, off in _cycle_edge_halfplanes(v, f.cycle, f.normal)
            )
            return rows
        if self.dim == 1:
            p, q = v
            d = vsub(q, p)
            w1, w2 = _perp_basis(d)
            return [
                (w1, "=", dot(w1, p)),
                (w2, "=", dot(w2, p)),
                (tuple(d), "<=", dot(d, q)),
                (vneg(d), "<=", dot(vneg(d), p)),
            ]
        p = v[0]
        return [((1, 0, 0), "=", p[0]), ((0, 1, 0), "=", p[1]), ((0, 0, 1), "=", p[2])]

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

    def vertex_normal_cone_generators(self, i):
        """Generators of the normal cone at vertex i (positive hull = cone)."""
        v = self.vertices
        if self.dim == 3:
            return [f.normal for f in self.incident_facets(i)]
        if self.dim == 2:
            f = self.facets[0]
            cyc = f.cycle
            k = cyc.index(i)
            prev_pt, this_pt, next_pt = v[cyc[k - 1]], v[i], v[cyc[(k + 1) % len(cyc)]]
            m_in = normalize_direction(cross3(vsub(this_pt, prev_pt), f.normal))
            m_out = normalize_direction(cross3(vsub(next_pt, this_pt), f.normal))
            n = f.normal
            return [n, vneg(n), m_in, m_out]
        if self.dim == 1:
            other = v[1 - i]
            d = normalize_direction(vsub(other, v[i]))
            w1, w2 = _perp_basis(d)
            return [w1, vneg(w1), w2, vneg(w2), vneg(d)]
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


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


def _cycle_edge_halfplanes(vertices, cycle, normal):
    rows = []
    for k, i in enumerate(cycle):
        j = cycle[(k + 1) % len(cycle)]
        m = normalize_direction(cross3(vsub(vertices[j], vertices[i]), normal))
        rows.append((m, dot(m, vertices[i])))
    return rows


# ---------------------------------------------------------------------------
# hull construction

def hull3(points) -> Polytope3:
    """Exact convex hull; coplanar facets merged; degenerate dims flagged."""
    pts = sorted(set(_pt(p) for p in points))
    if not pts:
        raise GeometryError("need at least one point")
    p0 = pts[0]
    d1 = None
    for p in pts[1:]:
        if p != p0:
            d1 = vsub(p, p0)
            break
    if d1 is None:
        return Polytope3((p0,), 0, (), ())
    n2 = None
    for p in pts:
        c = cross3(d1, vsub(p, p0))
        if not is_zero(c):
            n2 = c
            break
    if n2 is None:
        lo = min(pts, key=lambda p: _param(vsub(p, p0), d1))
        hi = max(pts, key=lambda p: _param(vsub(p, p0), d1))
        verts = tuple(sorted((lo, hi)))
        return Polytope3(verts, 1, (), ((0, 1),))
    full = any(dot(n2, vsub(p, p0)) != 0 for p in pts)
    if not full:
        return _hull_planar(pts, n2)
    return _hull_full(pts)


def _planar_cycle(pts, normal, base):
    """CCW cycle (seen from +normal) of the 2D hull of coplanar points."""
    e = None
    for p in pts:
        if p != base:
            e = normalize_direction(vsub(p, base))
            break
    f = normalize_direction(cross3(normal, e))
    coords = {}
    for p in pts:
        coords.setdefault((dot(vsub(p, base), e), dot(vsub(p, base), f)), p)
    from .planar import convex_hull_2d

    cycle2d = convex_hull_2d(coords.keys())
    return [coords[(c[0], c[1])] for c in cycle2d]


def _hull_planar(pts, raw_normal) -> Polytope3:
    n = normalize_direction(raw_normal)
    cycle_pts = _planar_cycle(pts, n, pts[0])
    verts = tuple(sorted(cycle_pts))
    index = {p: i for i, p in enumerate(verts)}
    cycle = tuple(index[p] for p in cycle_pts)
    b = dot(n, cycle_pts[0])
    facets = (
        Facet(n, Fraction(b), cycle),
        Facet(vneg(n), Fraction(-b), tuple(reversed(cycle))),
    )
    edges = set()
    for k in range(len(cycle)):
        i, j = cycle[k], cycle[(k + 1) % len(cycle)]
        edges.add((min(i, j), max(i, j)))
    return Polytope3(verts, 2, facets, tuple(sorted(edges)))


def _hull_full(pts) -> Polytope3:
    # initial affinely independent quadruple
    a = 0
    b = next(i for i in range(len(pts)) if pts[i] != pts[a])
    c = next(
        i for i in range(len(pts)) if not is_zero(cross3(vsub(pts[b], pts[a]), vsub(pts[i], pts[a])))
    )
    norm0 = cross3(vsub(pts[b], pts[a]), vsub(pts[c], pts[a]))
    d = next(i for i in range(len(pts)) if dot(norm0, vsub(pts[i], pts[a])) != 0)
    interior = vscale(Fraction(1, 4), vadd(vadd(pts[a], pts[b]), vadd(pts[c], pts[d])))

    def oriented(tri):
        i, j, k = tri
        n = cross3(vsub(pts[j], pts[i]), vsub(pts[k], pts[i]))
        if is_zero(n):
            raise GeometryError("degenerate hull facet")
        n = normalize_direction(n)
        off = dot(n, pts[i])
        if dot(n, interior) > off:
            n, off = vneg(n), -off
        elif dot(n, interior) == off:
            raise GeometryError("interior reference on facet plane")
        return (tri, n, off)

    tris = [oriented(t) for t in ((a, b, c), (a, b, d), (a, c, d), (b, c, d))]
    in_simplex = {a, b, c, d}
    for k in range(len(pts)):
        if k in in_simplex:
            continue
        p = pts[k]
        visible = [t for t in tris if dot(t[1], p) > t[2]]
        if not visible:
            continue
        edge_count = {}
        for tri, _, _ in visible:
            for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
                key = (min(e), max(e))
                edge_count[key] = edge_count.get(key, 0) + 1
        horizon = [e for tri, _, _ in visible for e in _tri_edges(tri) if edge_count[e] == 1]
        # dedup while keeping deterministic order
        horizon = list(dict.fromkeys(horizon))
        keep = [t for t in tris if dot(t[1], p) <= t[2]]
        for u, v in horizon:
            keep.append(oriented((k, u, v)))
        tris = keep

    # merge coplanar triangles into facets
    planes = {}
    for _, n, off in tris:
        planes.setdefault((n, off), None)
    facet_data = []
    for n, off in sorted(planes):
        on_plane = [p for p in pts if dot(n, p) == off]
        facet_data.append((n, off, _planar_cycle(on_plane, n, on_plane[0])))

    vert_set = sorted({p for _, _, cyc in facet_data for p in cyc})
    index = {p: i for i, p in enumerate(vert_set)}
    facets = []
    edges = set()
    for n, off, cyc_pts in facet_data:
        cyc = tuple(index[p] for p in cyc_pts)
        facets.append(Facet(n, Fraction(off), cyc))
        for t in range(len(cyc)):
            i, j = cyc[t], cyc[(t + 1) % len(cyc)]
            edges.add((min(i, j), max(i, j)))
    return Polytope3(tuple(vert_set), 3, tuple(facets), tuple(sorted(edges)))


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
    keep = [v for i, v in enumerate(q.vertices) if _vertex_survives(q, i, cone)]
    return VPolytope3(hull3(keep), cone)


def _vertex_survives(q: Polytope3, i, cone: Cone3) -> bool:
    """relint of the vertex normal cone meets the open polar of the cone."""
    gens = q.vertex_normal_cone_generators(i)
    k = len(gens)
    cons = []
    for g in cone.gens:
        cons.append((tuple(dot(n, g) for n in gens), "<", 0))
    for j in range(k):
        cons.append((tuple(-1 if t == j else 0 for t in range(k)), "<", 0))
    return linear_feasible(cons, k)


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
    """Exact membership of a point in bounded + cone."""
    x = _pt(x)
    gens = p.cone.gens
    rows = p.bounded.halfspaces()
    if not gens:
        return all(holds(dot(n, x), rel, c) for n, rel, c in rows)
    cons = []
    for n, rel, c in rows:
        cons.append((tuple(-dot(n, g) for g in gens), rel, c - dot(n, x)))
    for j in range(len(gens)):
        cons.append((tuple(-1 if t == j else 0 for t in range(len(gens))), "<=", 0))
    return linear_feasible(cons, len(gens))


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
    """Bounded edge together with {u : support set contains this edge}."""

    endpoints: tuple
    # rows (vector, rel) of homogeneous constraints; the vectors are vertex
    # differences on the polytope's integer lattice (see `_lattice`)
    normal_cone: tuple

    @property
    def vector(self):
        return vsub(self.endpoints[1], self.endpoints[0])


def _lattice(q: Polytope3):
    """q's vertices times the lcm of their denominators, as integer tuples.

    Every perp-plane row is a difference of two vertices of one polytope (or
    a cone generator); a positive scale per polytope keeps each row's sign,
    so those tests run on these lattice points instead of the vertices.
    """
    den = math.lcm(*(x.denominator for v in q.vertices for x in v))
    return [tuple(x.numerator * (den // x.denominator) for x in v) for v in q.vertices]


def _project(points, w1, w2):
    """Integer coordinates <v, w1>, <v, w2> of each point in an edge's perp plane."""
    (a1, a2, a3), (b1, b2, b3) = w1, w2
    return [(x * a1 + y * a2 + z * a3, x * b1 + y * b2 + z * b3) for x, y, z in points]


def _edge_rows(proj, i, j):
    """Strict rows cutting out relint of edge (i, j)'s normal cone, projected."""
    ax, ay = proj[i]
    return [((x - ax, y - ay), "<") for k, (x, y) in enumerate(proj) if k != i and k != j]


def _edge_frame(p: VPolytope3, lat, i, j):
    """(d, (w1, w2), rows) for the edge (i, j) of p's lattice points `lat`.

    d is the primitive edge direction and (w1, w2) a basis of its perp plane;
    rows, projected to that basis, cut out the directions that expose
    exactly this edge and lie in the open polar of p's cone.
    """
    d = normalize_direction(vsub(lat[j], lat[i]))
    w1, w2 = _perp_basis(d)
    rows = _edge_rows(_project(lat, w1, w2), i, j)
    rows += [(g, "<") for g in _project(p.cone.gens, w1, w2)]
    return d, (w1, w2), rows


def _feasible_in_perp_plane(rows) -> bool:
    """Nonzero u = alpha*w1 + beta*w2 satisfying all rows, given projected to
    (<a, w1>, <a, w2>) as integer pairs?"""
    return cone_strictly_feasible(rows)


def bounded_edges(p: VPolytope3):
    """Edges of the bounded hull exposed, bounded, by some open-polar direction."""
    q = p.bounded
    lat = _lattice(q)
    out = []
    for i, j in q.edges:
        if _feasible_in_perp_plane(_edge_frame(p, lat, i, j)[2]):
            a = lat[i]
            closed = [(vsub(lat[j], a), "=")]
            closed += [(vsub(w, a), "<=") for k, w in enumerate(lat) if k != i and k != j]
            out.append(EdgeWithNormalCone((q.vertices[i], q.vertices[j]), tuple(closed)))
    return out


def _edge_ids(q: Polytope3, edges):
    """Vertex index pairs of edges taken from `bounded_edges`."""
    index = {v: n for n, v in enumerate(q.vertices)}
    return [(index[e.endpoints[0]], index[e.endpoints[1]]) for e in edges]


# ---------------------------------------------------------------------------
# summand criterion and equiparallel edges

def _face_rows(proj, ids):
    """Rows for relint of the normal cone of the face with vertex ids `ids`, projected."""
    bx, by = proj[ids[0]]
    return [
        ((x - bx, y - by), "=" if k in ids else "<")
        for k, (x, y) in enumerate(proj)
        if k != ids[0]
    ]


def _face_contains_translate(q: Polytope3, kind, ids, facet, vec) -> bool:
    if kind == "vertex":
        return is_zero(vec)
    if kind == "edge":
        i, j = ids
        fvec = vsub(q.vertices[j], q.vertices[i])
        if not is_zero(cross3(fvec, vec)):
            return False
        prim = normalize_direction(fvec)
        return abs(_param(vec, prim)) <= abs(_param(fvec, prim))
    if dot(facet.normal, vec) != 0:
        return False
    # polygon contains a translate of the segment iff F and F - vec overlap
    base = q.vertices[facet.cycle[0]]
    e1 = None
    for i in facet.cycle[1:]:
        w = vsub(q.vertices[i], base)
        if not is_zero(w):
            e1 = normalize_direction(w)
            break
    e2 = normalize_direction(cross3(facet.normal, e1))
    cons = []
    for m, off in _cycle_edge_halfplanes(q.vertices, facet.cycle, facet.normal):
        coeffs = (dot(m, e1), dot(m, e2))
        cons.append((coeffs, "<=", off - dot(m, base)))
        cons.append((coeffs, "<=", off - dot(m, vadd(base, vec))))
    return linear_feasible(cons, 2)


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
    plat, klat = _lattice(p.bounded), _lattice(kb)
    edges = bounded_edges(p)
    for edge, (i, j) in zip(edges, _edge_ids(p.bounded, edges)):
        d, (w1, w2), edge_rows = _edge_frame(p, plat, i, j)
        kproj = _project(klat, w1, w2)
        for idx, (kind, ids, facet) in enumerate(faces):
            if incident is not None:
                signs = [dot(n, d) for n in incident[idx]]
                if all(s > 0 for s in signs) or all(s < 0 for s in signs):
                    continue
            if not _feasible_in_perp_plane(edge_rows + _face_rows(kproj, ids)):
                continue
            if not _face_contains_translate(kb, kind, ids, facet, edge.vector):
                return False
    return True


def equiparallel_edges(a: VPolytope3, b: VPolytope3):
    """Pairs of bounded parallel edges exposed by one common direction."""
    if a.cone != b.cone:
        raise ConeMismatchError("incompatible recession cones")
    alat, blat = _lattice(a.bounded), _lattice(b.bounded)
    edges_a = bounded_edges(a)
    edges_b = bounded_edges(b)
    ids_b = _edge_ids(b.bounded, edges_b)
    pairs = []
    for ea, (i, j) in zip(edges_a, _edge_ids(a.bounded, edges_a)):
        da, (w1, w2), rows_a = _edge_frame(a, alat, i, j)
        bproj = None
        for eb, (s, t) in zip(edges_b, ids_b):
            if not is_zero(cross3(da, vsub(blat[t], blat[s]))):
                continue
            if bproj is None:
                bproj = _project(blat, w1, w2)
            if _feasible_in_perp_plane(rows_a + _edge_rows(bproj, s, t)):
                pairs.append((ea, eb))
    return pairs
