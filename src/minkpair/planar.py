"""V-polygons: planar convex sets "bounded part + pointed recession cone".

A set is stored canonically as (cone, anchor, edge measure).  The measure
maps each outer normal u (a primitive integer vector in the open polar of
the cone) to the rational multiple lam > 0 such that the boundary edge with
that normal, traversed counterclockwise, equals lam * rot90(u).  The anchor
is the midpoint of the support face in the cone's reference direction.
Two V-polygons are equal as sets iff their canonical forms are equal.
Point membership is a homogeneous integer ray test (`core.cone_strictly_feasible`)
on the lattice of the chain and the point: by Farkas' lemma the point lies
outside exactly when some direction strictly separates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .core import (
    INF,
    Cone2,
    ConeMismatchError,
    GeometryError,
    as_point,
    ccw_compare,
    cone_strictly_feasible,
    cross2,
    dot,
    is_zero,
    lattice,
    normalize_direction,
    rot90,
    vadd,
    vneg,
    vscale,
    vsub,
)

ORIGIN = (Fraction(0), Fraction(0))


def _ratio(d, w):
    """Positive rational t with d == t*w (w a primitive direction)."""
    t = d[0] / w[0] if w[0] != 0 else d[1] / w[1]
    if (t * w[0], t * w[1]) != tuple(d):
        raise GeometryError("vectors not parallel")
    return t


def convex_hull_2d(points):
    """Extreme points in CCW order (monotone chain, exact, collinear dropped)."""
    return hull_chain(sorted(set(map(as_point, points))))


def hull_chain(pts):
    """`convex_hull_2d` of sorted distinct points, in their own (exact) scalars."""
    if len(pts) == 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross2(vsub(lower[-1], lower[-2]), vsub(p, lower[-2])) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross2(vsub(upper[-1], upper[-2]), vsub(p, upper[-2])) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# ---------------------------------------------------------------------------
# edge measures

_ccw_key = cmp_to_key(lambda u, v: ccw_compare(u, v, (1, 0)))


@dataclass(frozen=True)
class EdgeMeasure:
    """Per-direction positive edge coefficients (a discrete boundary measure)."""

    entries: tuple  # ((direction, coefficient), ...) in canonical CCW order

    @staticmethod
    def from_entries(mapping):
        items = []
        for u, lam in dict(mapping).items():
            lam = Fraction(lam)
            if lam < 0:
                raise GeometryError("edge coefficients must be positive")
            if lam > 0:
                items.append((tuple(u), lam))
        items.sort(key=lambda it: _ccw_key(it[0]))
        return EdgeMeasure(tuple(items))

    @staticmethod
    def empty():
        return EdgeMeasure(())

    def as_dict(self):
        return dict(self.entries)

    def coeff(self, u) -> Fraction:
        for d, lam in self.entries:
            if d == tuple(u):
                return lam
        return Fraction(0)

    def directions(self):
        return [d for d, _ in self.entries]

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def sorted_ccw(self, start):
        """Directions ordered counterclockwise beginning at `start`."""
        return sorted(self.directions(), key=cmp_to_key(lambda u, v: ccw_compare(u, v, start)))

    def add(self, other: "EdgeMeasure") -> "EdgeMeasure":
        out = self.as_dict()
        for u, lam in other.entries:
            out[u] = out.get(u, Fraction(0)) + lam
        return EdgeMeasure.from_entries(out)

    def sub(self, other: "EdgeMeasure") -> "EdgeMeasure":
        out = self.as_dict()
        for u, lam in other.entries:
            new = out.get(u, Fraction(0)) - lam
            if new < 0:
                raise GeometryError("measure difference would be negative")
            out[u] = new
        return EdgeMeasure.from_entries(out)

    def scale(self, t) -> "EdgeMeasure":
        t = Fraction(t)
        return EdgeMeasure.from_entries({u: t * lam for u, lam in self.entries})


def measure_inf(ma: EdgeMeasure, mb: EdgeMeasure) -> EdgeMeasure:
    """Directionwise minimum of jump coefficients (lattice infimum)."""
    b = mb.as_dict()
    out = {}
    for u, lam in ma.entries:
        if u in b:
            out[u] = min(lam, b[u])
    return EdgeMeasure.from_entries(out)


def shared_normals(a: "VPolygon", b: "VPolygon"):
    return [u for u in a.measure.directions() if b.measure.coeff(u) > 0]


# ---------------------------------------------------------------------------
# V-polygons

@dataclass(frozen=True)
class VPolygon:
    cone: Cone2
    anchor: tuple
    measure: EdgeMeasure

    def __post_init__(self):
        object.__setattr__(self, "anchor", as_point(self.anchor))
        for u in self.measure.directions():
            if not self.cone.polar_interior_contains(u):
                raise GeometryError(f"measure direction {u} outside the open polar")
        if self.cone.is_trivial and not self.measure.is_empty:
            total = (Fraction(0), Fraction(0))
            for u, lam in self.measure.entries:
                total = vadd(total, vscale(lam, rot90(u)))
            if not is_zero(total):
                raise GeometryError("bounded polygon measure does not close up")

    @cached_property
    def chain(self):
        """Vertices of the minimal boundary part, CCW (a cycle when bounded)."""
        dirs = self.measure.sorted_ccw(self.cone.arc_start())
        pts = [ORIGIN]
        for u in dirs:
            pts.append(vadd(pts[-1], vscale(self.measure.coeff(u), rot90(u))))
        if self.cone.is_trivial and len(pts) > 1:
            pts = pts[:-1]
        shift = vsub(self.anchor, _face_midpoint(pts, self.cone.u0()))
        return tuple(vadd(p, shift) for p in pts)

    def support(self, u):
        """(h(u), face): face is None, ('point',p), ('segment',p,q) or ('ray',p,d).

        Evaluated at u as given (h is positively homogeneous, so scaling u
        scales the value); the face depends only on the direction.
        """
        prim = normalize_direction(u)
        if not self.cone.polar_contains(prim):
            return INF, None
        ch = self.chain
        if not self.cone.is_trivial and not self.cone.polar_interior_contains(prim):
            start_ray, end_ray = self.cone.polar_boundary_rays()
            if len(self.cone.gens) == 1:
                ray_dir = self.cone.gens[0]
                base = ch[0] if prim == start_ray else ch[-1]
            elif prim == start_ray:
                ray_dir, base = self.cone.gens[1], ch[0]
            else:
                ray_dir, base = self.cone.gens[0], ch[-1]
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

    def contains(self, point) -> bool:
        """Exact membership test, by Farkas: the point lies outside iff some u
        has <v - point, u> < 0 for every chain vertex v and <g, u> <= 0 for
        every cone generator g.  Decided on the lattice of the chain and the
        point."""
        lat = lattice(self.chain + (as_point(point),))[1]
        x, y = lat.pop()
        rows = [((a - x, b - y), "<") for a, b in lat]
        rows += [(g, "<=") for g in self.cone.gens]
        return not cone_strictly_feasible(rows)


def _ratio_sign(d, w):
    for i in (0, 1):
        if w[i] != 0:
            return 1 if d[i] / w[i] > 0 else -1
    raise GeometryError("zero direction")


def _face_midpoint(pts, u):
    vals = [dot(p, u) for p in pts]
    m = max(vals)
    maxima = [p for p, v in zip(pts, vals) if v == m]
    if len(maxima) == 1:
        return maxima[0]
    p, q = maxima[0], maxima[-1]
    return vscale(Fraction(1, 2), vadd(p, q))


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


# ---------------------------------------------------------------------------
# constructions

def from_points(points, cone: Cone2) -> VPolygon:
    """Smallest convex set with recession cone `cone` containing the points."""
    if not points:
        raise GeometryError("need at least one point")
    hull = convex_hull_2d(points)
    entries = {}
    if len(hull) >= 2:
        if len(hull) == 2:
            edges = [(hull[0], hull[1]), (hull[1], hull[0])]
        else:
            edges = [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
        for p, q in edges:
            d = vsub(q, p)
            u = normalize_direction((d[1], -d[0]))
            if cone.polar_interior_contains(u):
                entries[u] = _ratio(d, rot90(u))
    anchor = _face_midpoint(hull, cone.u0())
    return VPolygon(cone, anchor, EdgeMeasure.from_entries(entries))


def minkowski_sum(a: VPolygon, b: VPolygon) -> VPolygon:
    if a.cone != b.cone:
        raise ConeMismatchError("incompatible recession cones")
    return VPolygon(a.cone, vadd(a.anchor, b.anchor), a.measure.add(b.measure))


def scale(a: VPolygon, t) -> VPolygon:
    t = Fraction(t)
    if t < 0:
        raise GeometryError("scale factor must be nonnegative")
    if t == 0:
        return VPolygon(a.cone, ORIGIN, EdgeMeasure.empty())
    return VPolygon(a.cone, vscale(t, a.anchor), a.measure.scale(t))


def translate(a: VPolygon, v) -> VPolygon:
    return VPolygon(a.cone, vadd(a.anchor, as_point(v)), a.measure)


# ---------------------------------------------------------------------------
# pair calculus

def are_equivalent(a: VPolygon, b: VPolygon, c: VPolygon, d: VPolygon) -> bool:
    """(a, b) ~ (c, d), i.e. a + d == b + c as canonical forms."""
    if not (a.cone == b.cone == c.cone == d.cone):
        raise ConeMismatchError("incompatible recession cones")
    return minkowski_sum(a, d) == minkowski_sum(b, c)


def reduce_pair(a: VPolygon, b: VPolygon):
    """Equivalent 0-minimal pair for (a, b).

    Strips the common directionwise part of both edge measures; the second
    set is re-anchored with its reference face midpoint at the origin, the
    first at a.anchor - b.anchor.  The result is checked to be equivalent
    to the input and 0-minimal.
    """
    if a.cone != b.cone:
        raise ConeMismatchError("incompatible recession cones")
    if a.cone.is_trivial:
        raise GeometryError("use bounded-pair tools")
    common = measure_inf(a.measure, b.measure)
    a_red = VPolygon(a.cone, vsub(a.anchor, b.anchor), a.measure.sub(common))
    b_red = VPolygon(b.cone, ORIGIN, b.measure.sub(common))
    if not are_equivalent(a_red, b_red, a, b):
        raise GeometryError("reduction lost equivalence")
    if not is_zero_minimal(a_red, b_red):
        raise GeometryError("reduction failed to reach a 0-minimal pair")
    return a_red, b_red


def is_zero_minimal(a: VPolygon, b: VPolygon) -> bool:
    """No common jump direction and the origin on b's minimal boundary part."""
    if a.cone != b.cone:
        raise ConeMismatchError("incompatible recession cones")
    if a.cone.is_trivial:
        raise GeometryError("use bounded-pair tools")
    if not measure_inf(a.measure, b.measure).is_empty:
        return False
    return _on_chain(b.chain, ORIGIN)


def _on_chain(chain, point) -> bool:
    if len(chain) == 1:
        return chain[0] == point
    for p, q in zip(chain, chain[1:]):
        d, w = vsub(q, p), vsub(point, p)
        if cross2(d, w) == 0 and 0 <= dot(d, w) <= dot(d, d):
            return True
    return False


def is_minimal_bounded(a: VPolygon, b: VPolygon) -> bool:
    """Bounded-pair minimality: at most one shared outer normal."""
    if not (a.cone.is_trivial and b.cone.is_trivial):
        raise GeometryError("is_minimal_bounded requires trivial recession cones")
    return len(shared_normals(a, b)) <= 1


def is_summand(a: VPolygon, k: VPolygon):
    """(True, complement) when a + complement == k, else (False, None)."""
    if a.cone != k.cone:
        raise ConeMismatchError("incompatible recession cones")
    for u, lam in a.measure.entries:
        if lam > k.measure.coeff(u):
            return False, None
    comp = VPolygon(k.cone, vsub(k.anchor, a.anchor), k.measure.sub(a.measure))
    if minkowski_sum(a, comp) != k:
        raise GeometryError("summand complement failed to reconstruct the set")
    return True, comp


def polygon_summand_check(p: VPolygon, k: VPolygon) -> bool:
    """Support-set criterion: every edge face of p fits inside k's face.

    `p` must be bounded; decided through k's support faces, independently of
    the measure comparison in is_summand.
    """
    if not p.cone.is_trivial:
        raise GeometryError("polygon_summand_check expects a bounded polygon")
    for u, lam in p.measure.entries:
        _, face = k.support(u)
        if face is None or face[0] == "ray":
            continue
        if face[0] == "point":
            return False
        _, q0, q1 = face
        if _ratio(vsub(q1, q0), rot90(u)) < lam:
            return False
    return True


@dataclass(frozen=True)
class BoundaryChain:
    """Convex CCW chain of boundary vertices (a kernel certificate)."""

    points: tuple

    def __post_init__(self):
        pts = tuple(as_point(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        for p, q in zip(pts, pts[1:]):
            if p == q:
                raise GeometryError("chain has repeated points")
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            if cross2(vsub(b, a), vsub(c, b)) <= 0:
                raise GeometryError("chain is not strictly convex CCW")


def kernel_of_minimality(a: VPolygon, b: VPolygon) -> BoundaryChain:
    """Boundary points x of b with b cut down to {x} by the reversed cone."""
    if not is_zero_minimal(a, b):
        raise GeometryError("kernel defined only relative to 0-minimal pairs")
    return BoundaryChain(b.chain)


def subset(a: VPolygon, c: VPolygon) -> bool:
    """a subseteq c: chain vertices inside c and cone contained in c's cone."""
    if not all(c.cone.contains_vector(g) for g in a.cone.gens):
        return False
    return all(c.contains(p) for p in a.chain)
