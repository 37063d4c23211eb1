"""Exact 3D convex hulls, V-polytopes, and the edge-based summand criteria.

Every polytope keeps its vertex lattice: `Polytope3.lattice` is (den, ints),
the vertices scaled by the lcm of their denominators (`core.lattice`).
`from_points3` scales its input once, drops repeated points on that
lattice and hulls it with every predicate an integer sign test on unpacked
coordinates (extreme points first, coplanar triangles merged into facets,
each edge read once off the facet cycles).  Then it prunes by the cone on
the hull's stored edges (`_edge_rows`): a vertex stays iff a direction in
the open polar decreases along every edge leaving it and along every
generator (`_vertex_survives`), and if one is dropped the kept vertices
are hulled once more.  Only a hull's vertices and facet offsets become
`Fraction`s.  `minkowski_sum3` adds in integers at lcm(den_P, den_K).
Under every cone, the trivial one included, it applies the same rule to
each vertex pair before any hull, on the same rows of the summands' edges
(the normal fan of a sum refines both summands' fans), and hulls the kept
sums once, unpruned: the ray test runs once on
the generators and the edges at v and resumes on the edges at each w.
`are_equivalent3` compares the vertex sets of A + D and B + C that this
pair rule yields and builds no hull.
`hull3` is `from_points3` under the trivial cone.  Repeated, collinear and
coplanar points are handled
exactly, `hull3(q.vertices) == q`, and points, segments and flat polygons
are first-class citizens.  The summand and reduced-pair criteria are two
filters on one integer scan of the stored lattices: for each edge e of P
exposed by the open polar (strict rows in two variables, whose `core.sector`
cuts out e's directions), the vertices of the 2D hull of K's projection onto
e's perp plane whose open wedge meets it.  Above each lies a vertex of K or
an edge parallel to e: the summand criterion asks it for a translate of e,
the equiparallel-edge list keeps the edges.  The perp basis w1, w2 is
`core.perp_basis`, each vector divided by its gcd, not unit vectors: a
positive scale of w1 or w2 changes no sign, no lexicographic order and no
hull.  Projections and wedge rows are unpacked integer pairs, and the hull
is `planar.hull_chain`, whose turn test runs on unpacked int or `Fraction`
coordinates and drops collinear points.  `contains3` is one ray test with
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
    _seidel,
    as_point,
    check_length,
    cone_strictly_feasible,
    cross3,
    dot,
    is_zero,
    lattice,
    lattice_contains,
    normalize_direction,
    perp_basis,
    sector,
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
    """`core.perp_basis` of the integer vector d, each vector divided by its gcd."""
    w1, w2 = perp_basis(d)
    return _primitive(*w1), _primitive(*w2)


# ---------------------------------------------------------------------------
# hull construction

def hull3(points) -> Polytope3:
    """Exact convex hull; coplanar facets merged; degenerate dims flagged:
    the bounded part of `from_points3` under the trivial cone."""
    return from_points3(points, Cone3(())).bounded


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
    (ax, ay, az), (dx, dy, dz) = lat[0], lat[1]
    dx, dy, dz = dx - ax, dy - ay, dz - az
    normals = ((dy * z - dz * y, dz * x - dx * z, dx * y - dy * x)
               for x, y, z in ((x - ax, y - ay, z - az) for x, y, z in lat))
    n2 = next((n for n in normals if any(n)), None)
    if n2 is None:
        # collinear: the lexicographic extremes are the segment's endpoints
        return _polytope(den, (lat[0], lat[-1]), 1, (), ((0, 1),))
    if any(n2[0] * (x - ax) + n2[1] * (y - ay) + n2[2] * (z - az) for x, y, z in lat):
        return _hull_full(den, lat)
    n = normalize_direction(n2)
    cyc = _planar_cycle(lat, range(len(lat)), n)
    if len(cyc) < len(lat):
        # orient the plane as its vertices alone would
        return _hull(den, sorted(lat[i] for i in cyc))
    b = dot(n, lat[cyc[0]])
    return _polytope(den, lat, 2, ((n, b, cyc), (vneg(n), -b, cyc[::-1])))


def _planar_cycle(lat, ids, normal):
    """CCW cycle (seen from +normal) of the 2D hull of the coplanar lattice
    points `lat[i]`, i in `ids` (sorted), as indices into `lat`.

    The cycle starts where it would from its vertices alone, so the hull of
    a hull's vertices is that same hull.
    """
    (bx, by, bz), (ex, ey, ez), (nx, ny, nz) = lat[ids[0]], lat[ids[1]], normal
    # unnormalized axes e and f = normal x e: a positive scale of each keeps
    # the lexicographic order and every `cross2` sign
    ex, ey, ez = ex - bx, ey - by, ez - bz
    fx, fy, fz = ny * ez - nz * ey, nz * ex - nx * ez, nx * ey - ny * ex
    coords = {}
    for i in ids:
        x, y, z = lat[i]
        x, y, z = x - bx, y - by, z - bz
        coords[(x * ex + y * ey + z * ez, x * fx + y * fy + z * fz)] = i
    cyc = [coords[c] for c in hull_chain(sorted(coords))]
    return cyc if len(cyc) == len(ids) else _planar_cycle(lat, sorted(cyc), normal)


def _triangle_cycle(lat, ids, normal):
    """`_planar_cycle` of three corners off one line: the sign of o orders them
    CCW, and the cycle starts at ids[2] if its coordinates (<w, e>, o) there,
    e and w the edge vectors from the base ids[0], precede the base's (0, 0)."""
    i, j, k = ids
    (bx, by, bz), (ex, ey, ez), (wx, wy, wz) = lat[i], lat[j], lat[k]
    ex, ey, ez, wx, wy, wz = ex - bx, ey - by, ez - bz, wx - bx, wy - by, wz - bz
    nx, ny, nz = normal
    o = nx * (ey * wz - ez * wy) + ny * (ez * wx - ex * wz) + nz * (ex * wy - ey * wx)
    if (wx * ex + wy * ey + wz * ez, o) < (0, 0):
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
        edges = []
        for n, off, cyc in planes:
            cyc = tuple(index[i] for i in cyc)
            facets.append(Facet(n, Fraction(off, den), cyc))
            # an edge's two facets walk it once each way: keep it where i < j
            edges += [(i, j) for i, j in zip(cyc, cyc[1:] + cyc[:1]) if i < j]
        lat, edges = [lat[i] for i in order], tuple(sorted(edges))
    verts = tuple(tuple(Fraction(x, den) for x in p) for p in lat)
    return Polytope3(verts, dim, tuple(facets), edges, (den, tuple(lat)))


def _hull_full(den, lat):
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
    """Canonical V-polytope: hull plus cone.  `_hull` builds the hull of the
    distinct points scaled once (`core.lattice`); if under generators some
    vertex's `_edge_rows` fail `_vertex_survives`, it hulls those that pass."""
    if not isinstance(cone, Cone3):
        raise GeometryError("a 3D set needs a 3D cone")
    den, lat = lattice(list(map(as_point, points)))
    check_length(3, *lat)
    if not lat:
        raise GeometryError("need at least one point")
    q = _hull(den, sorted(set(lat)))
    if cone.gens:
        verts = q.lattice[1]
        # a subsequence of the sorted lattice, so still sorted
        kept = [v for v, rows in zip(verts, _edge_rows(q)) if _vertex_survives(rows, cone.gens)]
        if len(kept) < len(verts):
            q = _hull(den, kept)
    return VPolytope3(q, cone)


def _vertex_survives(rows, gens) -> bool:
    """The survival rule: some u decreases strictly along every edge that
    leaves a vertex (its `_edge_rows`) and along every generator g.  That
    says the relint of the vertex's normal cone meets the open polar, in
    every dimension (Ziegler, *Lectures on Polytopes*, Lecture 3)."""
    return cone_strictly_feasible(rows + list(gens))


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


def _edge_rows(q: Polytope3):
    """For each vertex v of q, the rows w - v on its lattice to its
    neighbours w along q's stored edges: the edges that leave v."""
    lat = q.lattice[1]
    nbrs = [[] for _ in lat]
    for i, j in q.edges:
        nbrs[i].append(lat[j])
        nbrs[j].append(lat[i])
    return [[(a - x, b - y, c - z) for a, b, c in ws] for (x, y, z), ws in zip(lat, nbrs)]


def _vertex_sums(p: Polytope3, q: Polytope3, gens, den):
    """den * (v + w) as integers, for each vertex v of p and w of q such that
    some u decreases strictly along every generator in `gens` and every
    `_edge_rows` row at v and at w (each at its own scale, which changes no
    sign).  The normal fan of p + q is the common refinement of theirs
    (Ziegler, Lecture 7), so these are the vertices of p + q pruned by the
    cone, once each.  The ray test runs once on the generators and the rows
    at v, and resumes from that `core._seidel` state with the rows at each w.
    """
    (pden, plat), (qden, qlat) = p.lattice, q.lattice
    s, t, qrows = den // pden, den // qden, _edge_rows(q)
    for (a, b, c), vrows in zip(plat, _edge_rows(p)):
        rows = gens + vrows
        if (state := _seidel(rows, len(rows))) is None:
            continue
        for (x, y, z), wrows in zip(qlat, qrows):
            if _seidel(rows + wrows, len(rows) + len(wrows), len(rows), state):
                yield s * a + t * x, s * b + t * y, s * c + t * z


def minkowski_sum3(p: VPolytope3, q: VPolytope3) -> VPolytope3:
    """Hull of the `_vertex_sums`, added in integers at lcm(den_p, den_q),
    once and unpruned, under every cone."""
    cone = shared_cone(p, q)
    den = math.lcm(p.bounded.lattice[0], q.bounded.lattice[0])
    sums = _vertex_sums(p.bounded, q.bounded, list(cone.gens), den)
    return VPolytope3(_hull(den, sorted(sums)), cone)


def are_equivalent3(a, b, c, d) -> bool:
    """Robinson's relation (A, B) ~ (C, D): A + D = B + C.  Both sums lie
    under the one shared cone and are the hull of their vertices plus that
    cone, so they are equal iff their `_vertex_sums` are, on one scale (the
    lcm of the four lattice scales).  No hull is built."""
    gens = list(shared_cone(a, b, c, d).gens)
    den = math.lcm(*(x.bounded.lattice[0] for x in (a, b, c, d)))
    kept, seen = set(_vertex_sums(a.bounded, d.bounded, gens, den)), 0
    for seen, v in enumerate(_vertex_sums(b.bounded, c.bounded, gens, den), 1):
        if v not in kept:
            return False
    return seen == len(kept)


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


def _edge_frame(p: VPolytope3, i, j):
    """((w1, w2), rows) for the edge (i, j) of p's vertex lattice: a basis of
    its perp plane, and the rows, projected to it, that cut out the
    open-polar directions exposing exactly this edge (the differences to the
    other vertices, and the cone generators)."""
    lat = p.bounded.lattice[1]
    w1, w2 = _perp_basis(vsub(lat[j], lat[i]))
    proj = _project(lat, w1, w2)
    bx, by = proj[i]
    rows = [(x - bx, y - by) for k, (x, y) in enumerate(proj) if k != i and k != j]
    return (w1, w2), rows + _project(p.cone.gens, w1, w2)


def _feasible_in_perp_plane(rows):
    """`core.sector`'s end rows [lo, hi], which bound the open sector of all
    u = alpha*w1 + beta*w2 with <a, u> < 0 for each row (<a, w1>, <a, w2>);
    None if it is empty, True if there are no rows."""
    return sector(rows) if rows else True


def _exposed_edges(p: VPolytope3):
    """(i, j, (w1, w2), ends) for each edge (i, j) of p's bounded hull exposed,
    bounded, by some open-polar direction: `_edge_frame`'s basis, its rows' ends."""
    for i, j in p.bounded.edges:
        basis, rows = _edge_frame(p, i, j)
        if ends := _feasible_in_perp_plane(rows):
            yield i, j, basis, rows and ends


def _edge(q: Polytope3, i, j):
    return EdgeWithNormalCone((q.vertices[i], q.vertices[j]))


def bounded_edges(p: VPolytope3):
    """Edges of the bounded hull exposed, bounded, by some open-polar direction."""
    return [_edge(p.bounded, i, j) for i, j, *_ in _exposed_edges(p)]


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
    neighbours meets the sector the edge's end rows cut out."""
    plat, klat = p.bounded.lattice[1], k.bounded.lattice[1]
    for i, j, (w1, w2), edge_ends in _exposed_edges(p):
        e = vsub(plat[j], plat[i])
        over = {}
        for t, q in enumerate(_project(klat, w1, w2)):
            over.setdefault(q, []).append(t)
        hull = hull_chain(sorted(over))
        for t, q in enumerate(hull):
            if keep(e, over[q]):
                (qx, qy), ends = q, (hull[t - 1], hull[(t + 1) % len(hull)])
                wedge = [(rx - qx, ry - qy) for rx, ry in ends if (rx, ry) != q]
                if _feasible_in_perp_plane(edge_ends + wedge):
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
