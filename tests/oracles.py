"""Independent oracles for the exact predicates.

- `fm_cone_strictly_feasible`: the branching Fourier-Motzkin test the library
  used for homogeneous systems before its integer ray test, kept here to
  check that test against.
- `fm_face_contains_translate`: the `Fraction` test the library used to
  decide whether a face of a polytope contains a translate of a vector (an
  in-face frame and Fourier-Motzkin on "F and F - vec overlap"), kept to
  check the integer width test against.
- `fraction_hull3` and `fraction_from_points3`: the incremental 3D hull the
  library used before it moved its predicates to an integer lattice, with
  every predicate a `Fraction` dot product; the lattice hull must return
  equal polytopes.  `fraction_from_points3` keeps a vertex by
  `fm_normal_cone_survives`, the Fourier-Motzkin test the library used before
  its integer ray test, in one variable per normal-cone generator.
- `fm_vertex_survives`: vertex survival from the vertex list alone (no edges
  or facets), by Fourier-Motzkin in the three coordinates of u.
- `fm_in_cone_span`: cone membership by Fourier-Motzkin in one variable per
  generator, as the library decided it before its determinant test.
- `fm_contains` and `fm_contains3`: point membership by Fourier-Motzkin in
  one variable per cone generator over the bounded part's H-description
  (`fm_halfspaces` in 3D), as the library decided it before its separation
  test.
- `supporting_plane_normals` and `certified_negative_points`: brute force
  over point triples, independent of the library's hull code.
"""

from fractions import Fraction
from itertools import combinations

from minkpair.core import (
    GeometryError,
    as_point,
    cross3,
    dot,
    is_zero,
    linear_feasible,
    normalize_direction,
    vadd,
    vneg,
    vscale,
    vsub,
)
from minkpair.planar import _poly_halfplanes, convex_hull_2d
from minkpair.spatial import (
    Facet,
    Polytope3,
    VPolytope3,
    _perp_basis,
    from_points3,
)


def _holds(value, rel, bound) -> bool:
    """value rel bound, rel one of '<', '<=', '='."""
    if rel == "=":
        return value == bound
    return value < bound if rel == "<" else value <= bound


def _fm_member(rows, gens, x) -> bool:
    """x = b + sum(lam_j * g_j) with b meeting every (n, rel, c) row and
    lam_j >= 0, by Fourier-Motzkin in the lam_j."""
    if not gens:
        return all(_holds(dot(n, x), rel, c) for n, rel, c in rows)
    cons = [(tuple(-dot(n, g) for g in gens), rel, c - dot(n, x)) for n, rel, c in rows]
    for j in range(len(gens)):
        cons.append((tuple(-1 if t == j else 0 for t in range(len(gens))), "<=", 0))
    return linear_feasible(cons, len(gens))


def fm_contains(poly, point) -> bool:
    """`VPolygon.contains` over the chain's H-description."""
    return _fm_member(_poly_halfplanes(poly.chain), poly.cone.gens, as_point(point))


def _cycle_edge_halfplanes(vertices, cycle, normal):
    rows = []
    for k, i in enumerate(cycle):
        j = cycle[(k + 1) % len(cycle)]
        m = normalize_direction(cross3(vsub(vertices[j], vertices[i]), normal))
        rows.append((m, dot(m, vertices[i])))
    return rows


def fm_halfspaces(q: Polytope3):
    """Exact H-description of q: rows (vector, rel, offset), rel in {'<=', '='}."""
    v = q.vertices
    if q.dim == 3:
        return [(f.normal, "<=", f.offset) for f in q.facets]
    if q.dim == 2:
        f = q.facets[0]
        rows = [(f.normal, "=", f.offset)]
        rows.extend((m, "<=", off) for m, off in _cycle_edge_halfplanes(v, f.cycle, f.normal))
        return rows
    if q.dim == 1:
        p, r = v
        d = vsub(r, p)
        w1, w2 = _perp_basis(d)
        return [
            (w1, "=", dot(w1, p)),
            (w2, "=", dot(w2, p)),
            (tuple(d), "<=", dot(d, r)),
            (vneg(d), "<=", dot(vneg(d), p)),
        ]
    p = v[0]
    return [((1, 0, 0), "=", p[0]), ((0, 1, 0), "=", p[1]), ((0, 0, 1), "=", p[2])]


def fm_contains3(p: VPolytope3, x) -> bool:
    """`contains3` over `fm_halfspaces` of the bounded hull."""
    return _fm_member(fm_halfspaces(p.bounded), p.cone.gens, as_point(x))


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


def _param(v, d):
    """t with v == t*d for parallel vectors."""
    for i in range(3):
        if d[i] != 0:
            return Fraction(v[i]) / Fraction(d[i])
    raise GeometryError("zero direction")


def fm_face_contains_translate(q: Polytope3, kind, ids, facet, vec) -> bool:
    """Does the face (kind, ids, facet) of q contain a translate of vec?"""
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


def fraction_hull3(points) -> Polytope3:
    """Exact convex hull with `Fraction` predicates; coplanar facets merged.

    Built from the vertices alone, so that the result depends on the point
    set only through its hull.
    """
    h = _fraction_hull3(points)
    return h if len(h.vertices) == len(set(map(as_point, points))) else _fraction_hull3(h.vertices)


def _fraction_hull3(points) -> Polytope3:
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
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
        return _fraction_hull_planar(pts, n2)
    return _fraction_hull_full(pts)


def _fraction_planar_cycle(pts, normal, base):
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
    cycle2d = convex_hull_2d(coords.keys())
    return [coords[(c[0], c[1])] for c in cycle2d]


def _fraction_hull_planar(pts, raw_normal) -> Polytope3:
    n = normalize_direction(raw_normal)
    cycle_pts = _fraction_planar_cycle(pts, n, pts[0])
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


def _tri_edges(tri):
    return (
        (min(tri[0], tri[1]), max(tri[0], tri[1])),
        (min(tri[1], tri[2]), max(tri[1], tri[2])),
        (min(tri[0], tri[2]), max(tri[0], tri[2])),
    )


def _fraction_hull_full(pts) -> Polytope3:
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
        horizon = list(dict.fromkeys(horizon))
        keep = [t for t in tris if dot(t[1], p) <= t[2]]
        for u, v in horizon:
            keep.append(oriented((k, u, v)))
        tris = keep

    planes = {}
    for _, n, off in tris:
        planes.setdefault((n, off), None)
    facet_data = []
    for n, off in sorted(planes):
        on_plane = [p for p in pts if dot(n, p) == off]
        facet_data.append((n, off, _fraction_planar_cycle(on_plane, n, on_plane[0])))

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


def _vertex_normal_cone_generators(q: Polytope3, i):
    """Generators of the normal cone at vertex i (positive hull = cone)."""
    v = q.vertices
    if q.dim == 3:
        return [f.normal for f in q.incident_facets(i)]
    if q.dim == 2:
        f = q.facets[0]
        cyc = f.cycle
        k = cyc.index(i)
        prev_pt, this_pt, next_pt = v[cyc[k - 1]], v[i], v[cyc[(k + 1) % len(cyc)]]
        m_in = normalize_direction(cross3(vsub(this_pt, prev_pt), f.normal))
        m_out = normalize_direction(cross3(vsub(next_pt, this_pt), f.normal))
        n = f.normal
        return [n, vneg(n), m_in, m_out]
    if q.dim == 1:
        other = v[1 - i]
        d = normalize_direction(vsub(other, v[i]))
        w1, w2 = _perp_basis(d)
        return [w1, vneg(w1), w2, vneg(w2), vneg(d)]
    return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def fm_normal_cone_survives(q: Polytope3, i, cone) -> bool:
    """relint of the vertex normal cone meets the open polar of the cone:
    strictly positive weights on the normal-cone generators whose sum lies
    in the open polar."""
    gens = _vertex_normal_cone_generators(q, i)
    k = len(gens)
    cons = []
    for g in cone.gens:
        cons.append((tuple(dot(n, g) for n in gens), "<", 0))
    for j in range(k):
        cons.append((tuple(-1 if t == j else 0 for t in range(k)), "<", 0))
    return linear_feasible(cons, k)


def fm_vertex_survives(vertices, i, cone) -> bool:
    """Some u has <w - v, u> < 0 for every other vertex w of `vertices`
    (u exposes v = vertices[i] alone) and <g, u> < 0 for every generator."""
    v = vertices[i]
    cons = [(vsub(w, v), "<", 0) for w in vertices if w != v]
    cons += [(g, "<", 0) for g in cone.gens]
    return linear_feasible(cons, 3)


def fm_in_cone_span(v, gens) -> bool:
    """v = sum(lam_i * g_i) with lam_i >= 0, by Fourier-Motzkin in the lam_i."""
    k = len(gens)
    cons = [(tuple(g[row] for g in gens), "=", v[row]) for row in range(3)]
    for j in range(k):
        cons.append((tuple(-1 if i == j else 0 for i in range(k)), "<=", 0))
    return linear_feasible(cons, k)


def fraction_from_points3(points, cone) -> VPolytope3:
    """`from_points3` with both hulls built by `fraction_hull3` and vertices
    kept by `fm_normal_cone_survives`."""
    q = fraction_hull3(points)
    if cone.is_trivial:
        return VPolytope3(q, cone)
    keep = [v for i, v in enumerate(q.vertices) if fm_normal_cone_survives(q, i, cone)]
    return VPolytope3(fraction_hull3(keep), cone)


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
