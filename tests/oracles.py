"""Independent oracles for the exact predicates.

- `fm_cone_strictly_feasible`: the branching Fourier-Motzkin test the library
  used for homogeneous systems before its integer ray test, kept here to
  check that test against.
- `fm_face_contains_translate`: the `Fraction` test the library used to
  decide whether a face of a polytope contains a translate of a vector (an
  in-face frame and Fourier-Motzkin on "F and F - vec overlap"), kept to
  check the integer width test against.
- `face_sweep_summand_criterion3`: the summand sweep the library ran before
  its walk over the hull of K's projection: every vertex, edge and facet of
  K against every exposed edge of P, with exposure decided by
  `fm_cone_strictly_feasible` on `_tagged_edge_frame`'s rows (a row for
  every vertex of both polytopes, with a facet's own rows as equalities) and
  containment by `fm_face_contains_translate`.
- `fm_equiparallel_edges`: the reduced-pair scan by the same rows: every
  exposed edge of the first set against every parallel edge of the second,
  with the two edges' tagged rows decided together by
  `fm_cone_strictly_feasible`.
- `perp_basis`: a basis of the plane normal to a direction by
  `normalize_direction` on cross products, as the library built it before
  its gcd kernel; the face-rows oracles use it, so they check the library's
  perp-plane frame instead of sharing it.
- `hull_2d_vertices`: the extreme points of a planar point set by brute
  force (a point is a vertex iff it lies outside the hull of the others,
  decided on every segment and triangle of the others), in CCW order from
  the lexicographic minimum, to check the monotone chain against.
- `fraction_hull3` and `fraction_from_points3`: the incremental 3D hull the
  library used before it moved its predicates to an integer lattice, with
  every predicate a `Fraction` dot product; the lattice hull must return
  equal polytopes.  `fraction_from_points3` keeps a vertex by
  `fm_normal_cone_survives`, the Fourier-Motzkin test the library used before
  its integer ray test, in one variable per normal-cone generator.
- `hull_equivalent3`: Robinson's relation (A, B) ~ (C, D) as the library
  decided it before it compared vertex sets: both sums built in full by
  `minkowski_sum3` (hull, facets, `Fraction` vertices) and compared by `==`.
- `fm_vertex_survives`: vertex survival from the vertex list alone (no edges
  or facets), by Fourier-Motzkin in the three coordinates of u.
- `fm_in_cone_span`: cone membership by Fourier-Motzkin in one variable per
  generator, as the library decided it before its determinant test.
- `fm_contains` and `fm_contains3`: point membership by Fourier-Motzkin in
  one variable per cone generator over the bounded part's H-description
  (`fm_halfspaces` in 3D), as the library decided it before its separation
  test.
- `casework_cone2_gens` and `casework_contains_vector2`: the planar cone's
  canonical generators and membership by cross-product casework, as `Cone2`
  decided them before it moved onto the ray test shared with `Cone3`.
- `supporting_plane_normals` and `certified_negative_points`: brute force
  over point triples, independent of the library's hull code.
- `conjugate`, `conjugate_line` and `PLFnLine`: convex conjugates of
  piecewise-linear functions by a max over every breakpoint (O(n^2)).
  `hull_hypograph_set` and `max_from_set` are the dc set correspondence the
  library ran before it read the edge measure off the slope jumps and the
  values off adjacent chain points: the conjugate's points through
  `from_points`, and a max over every chain point for each value.
- `fraction_chain`, `fraction_support`, `fraction_face_midpoint` and
  `fraction_is_zero_minimal`: the planar chain, support, reference face
  midpoint and 0-minimality test as the library computed them before it moved
  them to the chain's integer lattice, with every vertex a `Fraction` partial
  sum and every comparison a `Fraction` dot product.
- `dict_add`, `dict_sub`, `dict_scale` and `dict_measure_inf`: the edge
  measure operations as the library ran them before it kept measures on one
  integer scale: `Fraction` coefficients in a dict, re-sorted by
  `ccw_compare` after every operation (`dict_from_entries`).
  `ccw_compare` is the comparator of directions by cross-product casework
  that the library sorted with before its integer angle key.
  `fraction_closes` is the bounded-polygon closure check as a `Fraction`
  sum.
- `fraction_plconvex`, `fraction_to_hypograph_set` and `fraction_from_set`:
  the canonical `PLConvexFn` (slopes in `Fraction`, equal neighbours
  merged) and the dc set correspondence with `Fraction` slopes, jumps and
  chain points, as the library ran them before it moved them onto integer
  ratios.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

from minkpair.core import (
    INF,
    GeometryError,
    as_point,
    cross2,
    cross3,
    dot,
    is_zero,
    lattice,
    linear_feasible,
    normalize_direction,
    rot90,
    shared_cone,
    vadd,
    vneg,
    vscale,
    vsub,
)
from minkpair.dc import PLConvexFn, domain_cone
from minkpair.planar import EdgeMeasure, VPolygon, _on_chain, convex_hull_2d, from_points, measure_inf
from minkpair.spatial import (
    EdgeWithNormalCone,
    Facet,
    Polytope3,
    VPolytope3,
    from_points3,
    minkowski_sum3,
)


def perp_basis(d):
    """Two independent primitive integer vectors spanning the plane normal to d."""
    d = normalize_direction(d)
    # d x (1, 0, 0) vanishes only on the x axis
    w1 = normalize_direction(cross3(d, (0, 1, 0) if d[1] == d[2] == 0 else (1, 0, 0)))
    return w1, normalize_direction(cross3(d, w1))


def _in_hull_2d(p, others) -> bool:
    """p lies in conv(others): it is one of them, on a segment of two of
    them or strictly inside a triangle of three (Caratheodory)."""
    if p in others:
        return True
    for q, r in combinations(others, 2):
        d, w = vsub(r, q), vsub(p, q)
        if cross2(d, w) == 0 and 0 <= dot(d, w) <= dot(d, d):
            return True
    for tri in combinations(others, 3):
        turns = [cross2(vsub(b, a), vsub(p, a)) for a, b in zip(tri, tri[1:] + tri[:1])]
        if all(t > 0 for t in turns) or all(t < 0 for t in turns):
            return True
    return False


def hull_2d_vertices(points):
    """Vertices of conv(points) by brute force, CCW from the lexicographic
    minimum: from there every other vertex lies in a half-turn, so the sign
    of one cross product orders any two."""
    pts = set(map(as_point, points))
    verts = sorted(p for p in pts if not _in_hull_2d(p, [q for q in pts if q != p]))
    start = verts[0]
    ccw = cmp_to_key(lambda a, b: -1 if cross2(vsub(a, start), vsub(b, start)) > 0 else 1)
    return verts[:1] + sorted(verts[1:], key=ccw)


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


def _poly_halfplanes(points):
    """H-description of conv(points) as (normal, rel, offset) rows."""
    hull = convex_hull_2d(points)
    if len(hull) == 1:
        p = hull[0]
        return [((1, 0), "=", p[0]), ((0, 1), "=", p[1])]
    if len(hull) == 2:
        p, q = hull
        d = vsub(q, p)
        n = normalize_direction(rot90(d))
        return [
            (n, "=", dot(n, p)),
            (tuple(d), "<=", dot(d, q)),
            (vneg(d), "<=", dot(vneg(d), p)),
        ]
    rows = []
    for i, p in enumerate(hull):
        q = hull[(i + 1) % len(hull)]
        n = normalize_direction((q[1] - p[1], -(q[0] - p[0])))
        rows.append((n, "<=", dot(n, p)))
    return rows


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
        w1, w2 = perp_basis(d)
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


def _tagged_face_rows(proj, ids):
    """Tagged rows (a, rel) for relint of the normal cone of the face with
    vertex ids `ids`, projected: `=` for the face's own vertices, `<` for the
    others.  A facet's `=` rows are nonzero in the frame of a parallel edge."""
    bx, by = proj[ids[0]]
    return [
        ((x - bx, y - by), "=" if k in ids else "<")
        for k, (x, y) in enumerate(proj)
        if k != ids[0]
    ]


def _tagged_edge_frame(p: VPolytope3, lat, i, j):
    """((w1, w2), rows): a basis of the plane normal to the edge (i, j) of p's
    lattice points `lat`, and the tagged rows, projected to it, of the
    directions that expose exactly this edge inside the open polar of p's cone."""
    w1, w2 = perp_basis(vsub(lat[j], lat[i]))
    proj = [(dot(v, w1), dot(v, w2)) for v in lat]
    rows = _tagged_face_rows(proj, (i, j))
    rows += [((dot(g, w1), dot(g, w2)), "<") for g in p.cone.gens]
    return (w1, w2), rows


def face_sweep_summand_criterion3(p: VPolytope3, k: VPolytope3) -> bool:
    """Every face of k's bounded hull whose relint normal cone meets the open
    polar directions exposing a bounded edge of p holds a translate of it."""
    kb = k.bounded
    faces = [("vertex", (i,), None) for i in range(len(kb.vertices))]
    faces += [("edge", e, None) for e in kb.edges]
    seen = set()
    for f in kb.facets:
        ids = tuple(sorted(f.cycle))
        if ids not in seen:
            seen.add(ids)
            faces.append(("facet", ids, f))
    plat, klat = lattice(p.bounded.vertices)[1], lattice(kb.vertices)[1]
    for i, j in p.bounded.edges:
        (w1, w2), edge_rows = _tagged_edge_frame(p, plat, i, j)
        if not fm_cone_strictly_feasible(edge_rows):
            continue
        e = vsub(p.bounded.vertices[j], p.bounded.vertices[i])
        kproj = [(dot(v, w1), dot(v, w2)) for v in klat]
        for kind, ids, facet in faces:
            if (not fm_face_contains_translate(kb, kind, ids, facet, e)
                    and fm_cone_strictly_feasible(edge_rows + _tagged_face_rows(kproj, ids))):
                return False
    return True


def fm_equiparallel_edges(a: VPolytope3, b: VPolytope3):
    """Pairs (edge of a, edge of b) of parallel bounded edges that one
    open-polar direction exposes together, in a's edge order, then b's."""
    av, bv = a.bounded.vertices, b.bounded.vertices
    alat, blat = lattice(av)[1], lattice(bv)[1]
    pairs = []
    for i, j in a.bounded.edges:
        (w1, w2), edge_rows = _tagged_edge_frame(a, alat, i, j)
        if not fm_cone_strictly_feasible(edge_rows):
            continue
        e = vsub(alat[j], alat[i])
        bproj = [(dot(v, w1), dot(v, w2)) for v in blat]
        for s, t in b.bounded.edges:
            if (is_zero(cross3(e, vsub(blat[t], blat[s])))
                    and fm_cone_strictly_feasible(edge_rows + _tagged_face_rows(bproj, (s, t)))):
                pairs.append((EdgeWithNormalCone((av[i], av[j])), EdgeWithNormalCone((bv[s], bv[t]))))
    return pairs


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
        return Polytope3((p0,), 0, (), (), lattice([p0]))
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
        return Polytope3(verts, 1, (), ((0, 1),), lattice(verts))
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
    return Polytope3(verts, 2, facets, tuple(sorted(edges)), lattice(verts))


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
    return Polytope3(tuple(vert_set), 3, tuple(facets), tuple(sorted(edges)), lattice(vert_set))


def _vertex_normal_cone_generators(q: Polytope3, i):
    """Generators of the normal cone at vertex i (positive hull = cone)."""
    v = q.vertices
    if q.dim == 3:
        return [f.normal for f in q.facets if i in f.cycle]
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
        w1, w2 = perp_basis(d)
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


def casework_cone2_gens(raw):
    """Canonical `Cone2` generators of cone(raw) by parallel-pair and
    extreme-pair search over cross products; GeometryError when not pointed."""
    dirs = []
    for g in raw:
        d = normalize_direction(g)
        if d not in dirs:
            dirs.append(d)
    if len(dirs) <= 1:
        return tuple(dirs)
    for a, b in combinations(dirs, 2):
        if cross2(a, b) == 0:
            raise GeometryError("cone contains a line (not pointed)")
    # extreme pair: every other generator inside the CCW wedge (a, b)
    for a, b in ((x, y) for x in dirs for y in dirs if x != y):
        if cross2(a, b) <= 0:
            continue
        if all(cross2(a, d) >= 0 and cross2(d, b) >= 0 for d in dirs):
            return (a, b)
    raise GeometryError("generators do not span a pointed cone")


def casework_contains_vector2(gens, v) -> bool:
    """v in the planar cone of canonical `gens`, by cross-product casework."""
    if is_zero(v):
        return True
    if not gens:
        return False
    if len(gens) == 1:
        g = gens[0]
        return cross2(g, v) == 0 and dot(g, v) > 0
    a, b = gens
    return cross2(a, v) >= 0 and cross2(v, b) >= 0


def fraction_from_points3(points, cone) -> VPolytope3:
    """`from_points3` with both hulls built by `fraction_hull3` and vertices
    kept by `fm_normal_cone_survives`."""
    q = fraction_hull3(points)
    if cone.is_trivial:
        return VPolytope3(q, cone)
    keep = [v for i, v in enumerate(q.vertices) if fm_normal_cone_survives(q, i, cone)]
    return VPolytope3(fraction_hull3(keep), cone)


def hull_equivalent3(a, b, c, d) -> bool:
    """A + D = B + C, with both sums built by `minkowski_sum3` and compared by
    `==`; sets under different cones are refused."""
    shared_cone(a, b, c, d)
    return minkowski_sum3(a, d) == minkowski_sum3(b, c)


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


@dataclass(frozen=True)
class PLFnLine:
    """Convex piecewise-linear function finite on all of R (a conjugate)."""

    breakpoints: tuple
    values: tuple
    left_slope: Fraction
    right_slope: Fraction

    def __call__(self, y):
        y = Fraction(y)
        xs, ys = self.breakpoints, self.values
        if y <= xs[0]:
            return ys[0] + self.left_slope * (y - xs[0])
        if y >= xs[-1]:
            return ys[-1] + self.right_slope * (y - xs[-1])
        return _interpolate(xs, ys, y)


def _interpolate(xs, ys, x):
    """Value at x, xs[0] <= x <= xs[-1], of the broken line through the (xs[i], ys[i])."""
    i = max(bisect_left(xs, x), 1)
    t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
    return ys[i - 1] + t * (ys[i] - ys[i - 1])


def fraction_slopes(g: PLConvexFn):
    xs, ys = g.breakpoints, g.values
    return [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]


def conjugate(g: PLConvexFn) -> PLFnLine:
    """Convex conjugate g*(y) = max_x (x*y - g(x)); finite everywhere."""
    a, b = g.domain
    slopes = sorted(set(fraction_slopes(g)))
    values = [max(x * y - v for x, v in zip(g.breakpoints, g.values)) for y in slopes]
    return PLFnLine(tuple(slopes), tuple(values), Fraction(a), Fraction(b))


def conjugate_line(f: PLFnLine) -> PLConvexFn:
    """Conjugate of a finite PL function; lands back on [left_slope, right_slope]."""
    xs = [f.left_slope, f.right_slope]
    for i in range(len(f.breakpoints) - 1):
        xs.append(
            (f.values[i + 1] - f.values[i]) / (f.breakpoints[i + 1] - f.breakpoints[i])
        )
    xs = sorted(set(xs))
    vals = [max(x * y - v for y, v in zip(f.breakpoints, f.values)) for x in xs]
    return PLConvexFn(tuple(xs), tuple(vals))


def hull_hypograph_set(g: PLConvexFn):
    """`to_hypograph_set` as the 2D hull of the points (y, -g*(y))."""
    star = conjugate(g)
    pts = [(y, -v) for y, v in zip(star.breakpoints, star.values)]
    return from_points(pts, domain_cone(*g.domain))


def max_from_set(A, domain) -> PLConvexFn:
    """`from_set` with each value a max over every chain point."""
    a, b = Fraction(domain[0]), Fraction(domain[1])
    if A.cone != domain_cone(a, b):
        raise GeometryError("cone mismatch with domain")
    pts = sorted(A.chain)
    xs = [a]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        xs.append((y0 - y1) / (x1 - x0))
    xs.append(b)
    return PLConvexFn(tuple(xs), tuple(max(p * x + q for p, q in pts) for x in xs))


def fraction_face_midpoint(pts, u):
    vals = [dot(p, u) for p in pts]
    m = max(vals)
    maxima = [p for p, v in zip(pts, vals) if v == m]
    if len(maxima) == 1:
        return maxima[0]
    p, q = maxima[0], maxima[-1]
    return vscale(Fraction(1, 2), vadd(p, q))


def fraction_chain(poly):
    """`VPolygon.chain` as partial sums of lam * rot90(u) in CCW order from
    the polar arc's start, shifted so the reference face midpoint lands on
    the anchor."""
    gens = poly.cone.gens
    start = (-gens[-1][1], gens[-1][0]) if gens else (1, 0)  # normal to the last generator
    coeffs = poly.measure.as_dict()
    pts = [(Fraction(0), Fraction(0))]
    for u in sorted(coeffs, key=cmp_to_key(lambda u, v: ccw_compare(u, v, start))):
        pts.append(vadd(pts[-1], vscale(coeffs[u], rot90(u))))
    if poly.cone.is_trivial and len(pts) > 1:
        pts = pts[:-1]
    shift = vsub(poly.anchor, fraction_face_midpoint(pts, poly.cone.u0()))
    return tuple(vadd(p, shift) for p in pts)


def _ratio_sign(d, w):
    for i in (0, 1):
        if w[i] != 0:
            return 1 if d[i] / w[i] > 0 else -1
    raise GeometryError("zero direction")


def fraction_support(poly, u):
    """`VPolygon.support` by a `Fraction` dot product at every chain vertex."""
    cone = poly.cone
    prim = normalize_direction(u)
    if not cone.polar_contains(prim):
        return INF, None
    ch = fraction_chain(poly)
    if not cone.is_trivial and not cone.polar_interior_contains(prim):
        start_ray = (-cone.gens[-1][1], cone.gens[-1][0])
        if len(cone.gens) == 1:
            ray_dir = cone.gens[0]
            base = ch[0] if prim == start_ray else ch[-1]
        elif prim == start_ray:
            ray_dir, base = cone.gens[1], ch[0]
        else:
            ray_dir, base = cone.gens[0], ch[-1]
        return dot(base, u), ("ray", base, ray_dir)
    vals = [dot(p, u) for p in ch]
    m = max(vals)
    maxima = [p for p, v in zip(ch, vals) if v == m]
    if len(maxima) == 1:
        return m, ("point", maxima[0])
    p, q = maxima[0], maxima[-1]
    if _ratio_sign(vsub(q, p), rot90(prim)) < 0:
        p, q = q, p
    return m, ("segment", p, q)


def chain_max_halfplanes(poly):
    """`svg._region_halfplanes` as a `Fraction` max over the chain for each
    measure direction, then the polar boundary rows at the chain's ends."""
    ch = fraction_chain(poly)
    rows = [(u, max(dot(u, p) for p in ch)) for u in poly.measure.directions()]
    gens = poly.cone.gens
    if gens:
        start, end = rot90(gens[-1]), vneg(rot90(gens[0]))
        rows += [(start, dot(start, ch[0])), (end, dot(end, ch[-1]))]
    return rows


def fraction_is_zero_minimal(a, b) -> bool:
    """`is_zero_minimal` with the origin tested on the `Fraction` chain of b."""
    if not measure_inf(a.measure, b.measure).is_empty:
        return False
    return _on_chain(fraction_chain(b), (Fraction(0), Fraction(0)))


# ---------------------------------------------------------------------------
# edge measures and dc conversions in `Fraction`, as dicts re-sorted by
# `ccw_compare`

def ccw_compare(u, v, start):
    """Total counterclockwise order on primitive 2D directions from `start`.

    Returns -1 if u precedes v, 0 iff u == v, +1 if v precedes u.  Only sign
    tests on cross and dot products are used.
    """
    if u == v:
        return 0

    def rank(d):
        c = cross2(start, d)
        if c == 0:
            return 0 if dot(start, d) > 0 else 2
        return 1 if c > 0 else 3

    ru, rv = rank(u), rank(v)
    if ru != rv:
        return -1 if ru < rv else 1
    # same open half-turn: direct cross test settles it
    return -1 if cross2(u, v) > 0 else 1


_ccw_key = cmp_to_key(lambda u, v: ccw_compare(u, v, (1, 0)))


def dict_from_entries(mapping):
    """`EdgeMeasure.from_entries(mapping).entries`: zero coefficients
    dropped, the rest sorted counterclockwise from (1, 0)."""
    items = []
    for u, lam in dict(mapping).items():
        lam = Fraction(lam)
        if lam < 0:
            raise GeometryError("edge coefficients must be positive")
        if lam > 0:
            items.append((tuple(u), lam))
    items.sort(key=lambda it: _ccw_key(it[0]))
    return tuple(items)


def dict_add(ma, mb):
    out = ma.as_dict()
    for u, lam in mb.entries:
        out[u] = out.get(u, Fraction(0)) + lam
    return dict_from_entries(out)


def dict_sub(ma, mb):
    out = ma.as_dict()
    for u, lam in mb.entries:
        new = out.get(u, Fraction(0)) - lam
        if new < 0:
            raise GeometryError("measure difference would be negative")
        out[u] = new
    return dict_from_entries(out)


def dict_scale(m, t):
    t = Fraction(t)
    return dict_from_entries({u: t * lam for u, lam in m.entries})


def dict_measure_inf(ma, mb):
    b = mb.as_dict()
    return dict_from_entries({u: min(lam, b[u]) for u, lam in ma.entries if u in b})


def fraction_closes(m) -> bool:
    """A bounded polygon's measure closes up: the sum of lam * rot90(u) is 0."""
    total = (Fraction(0), Fraction(0))
    for u, lam in m.entries:
        total = vadd(total, vscale(lam, rot90(u)))
    return is_zero(total)


def fraction_plconvex(breakpoints, values):
    """`PLConvexFn(breakpoints, values)` as (breakpoints, values), with the
    slopes in `Fraction` and equal neighbours merged."""
    xs, ys = tuple(map(Fraction, breakpoints)), tuple(map(Fraction, values))
    if len(xs) != len(ys) or len(xs) < 2:
        raise GeometryError("need matching breakpoints and values, >= 2 points")
    if any(q <= p for p, q in zip(xs, xs[1:])):
        raise GeometryError("breakpoints must be strictly increasing")
    if not (xs[0] < 0 < xs[-1]):
        raise GeometryError("domain must contain 0 in its interior")
    slopes = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    if any(s2 < s1 for s1, s2 in zip(slopes, slopes[1:])):
        raise GeometryError("function is not convex")
    keep = [0] + [i for i in range(1, len(xs) - 1) if slopes[i] != slopes[i - 1]] + [len(xs) - 1]
    return tuple(xs[i] for i in keep), tuple(ys[i] for i in keep)


def fraction_to_hypograph_set(g: PLConvexFn):
    """`to_hypograph_set` with `Fraction` slopes: the chain points
    (s_i, y_i - x_i*s_i), the jumps (s_{i+1} - s_i)/q at x = p/q through
    `dict_from_entries`, and the anchor at `fraction_face_midpoint`."""
    xs, ys = g.breakpoints, g.values
    slopes = fraction_slopes(g)
    cone = domain_cone(xs[0], xs[-1])
    pts = [(s, y - x * s) for x, y, s in zip(xs, ys, slopes)]
    jumps = {
        (x.numerator, x.denominator): (s1 - s0) / x.denominator
        for x, s0, s1 in zip(xs[1:], slopes, slopes[1:])
    }
    measure = EdgeMeasure(dict_from_entries(jumps))
    return VPolygon(cone, fraction_face_midpoint(pts, cone.u0()), measure)


def fraction_from_set(A, domain):
    """`from_set` as (breakpoints, values) in `Fraction`: each breakpoint
    where adjacent chain points give equal support, each value the support
    of the chain point whose piece ends there."""
    a, b = Fraction(domain[0]), Fraction(domain[1])
    if A.cone != domain_cone(a, b):
        raise GeometryError("cone mismatch with domain")
    pts = sorted(A.chain)
    xs = [a] + [(y0 - y1) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])] + [b]
    return fraction_plconvex(xs, [p * x + q for (p, q), x in zip(pts[:1] + pts, xs)])
