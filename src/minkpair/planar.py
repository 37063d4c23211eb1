"""V-polygons: planar convex sets "bounded part + pointed recession cone".

A set is stored canonically as (cone, anchor, edge measure).  The measure
maps each outer normal u (a primitive integer vector in the open polar of
the cone) to the rational multiple lam > 0 such that the boundary edge with
that normal, traversed counterclockwise, equals lam * rot90(u).  The anchor
is the midpoint of the support face in the cone's reference direction.
Two V-polygons are equal as sets iff their canonical forms are equal.

The boundary of a set is one bounded chain between two recession rays.  The
polar arc's start ray (`Cone2.polar_boundary_rays`) exposes the chain's first
point, moving along the cone's last generator; its end ray exposes the last
point, moving along the first generator (a ray cone's one generator is both).
`VPolygon.support` reads its ray faces off this rule, and `svg` off `support`.

Each V-polygon computes its chain once, as an integer lattice (den, ints)
built from the measure and the anchor, and the hot paths run on it: support
faces, the reference face midpoint and the 0-minimality test are integer
comparisons, and point membership is one homogeneous integer ray test
(`core.cone_strictly_feasible`) with the lattice, rescaled to the point's
denominator, as strict rows and the cone generators as weak rows: by
Farkas' lemma the point lies outside exactly when some direction strictly
separates it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
    coeffs = b.measure.as_dict()
    return [u for u in a.measure.directions() if coeffs.get(u, 0) > 0]


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
            if len(u) != 2 or type(u[0]) is not int or type(u[1]) is not int or math.gcd(*u) != 1:
                raise GeometryError(f"measure direction {u} is not a primitive integer pair")
            if not self.cone.polar_interior_contains(u):
                raise GeometryError(f"measure direction {u} outside the open polar")
        if self.cone.is_trivial and not self.measure.is_empty:
            total = (Fraction(0), Fraction(0))
            for u, lam in self.measure.entries:
                total = vadd(total, vscale(lam, rot90(u)))
            if not is_zero(total):
                raise GeometryError("bounded polygon measure does not close up")

    @cached_property
    def lattice(self):
        """(den, ints): the chain is ints / den, den the least such scale.

        Built in integers.  At the lcm D of the coefficients' denominators
        every step lam * rot90(u) is an integer multiple of rot90(u), and the
        reference face midpoint is a lattice point at scale 2D; the anchor
        shift then lands on the common denominator of 2D and the anchor.
        """
        cone, entries = self.cone, self.measure.entries
        # the CCW order from the polar arc's start is a rotation of the
        # measure's canonical CCW order from (1, 0)
        start = cone.polar_boundary_rays()[0] if cone.gens else (1, 0)
        k = bisect_left(entries, _ccw_key(start), key=lambda it: _ccw_key(it[0]))
        steps = entries[k:] + entries[:k]
        scale = math.lcm(*(lam.denominator for _, lam in steps))
        x = y = 0
        pts = [(0, 0)]
        for (a, b), lam in steps:
            t = lam.numerator * (scale // lam.denominator)
            x, y = x - t * b, y + t * a
            pts.append((x, y))
        if cone.is_trivial and len(pts) > 1:
            pts.pop()
        i, j = _argmax(pts, cone.u0())
        ax, ay = self.anchor
        den = math.lcm(2 * scale, ax.denominator, ay.denominator)
        f = den // (2 * scale)  # at scale 2D the midpoint is pts[i] + pts[j], and p is 2p
        cx = ax.numerator * (den // ax.denominator) - (pts[i][0] + pts[j][0]) * f
        cy = ay.numerator * (den // ay.denominator) - (pts[i][1] + pts[j][1]) * f
        f *= 2
        ints = [(x * f + cx, y * f + cy) for x, y in pts]
        g = math.gcd(den, *(c for p in ints for c in p))
        if g > 1:
            den //= g
            ints = [(x // g, y // g) for x, y in ints]
        return den, tuple(ints)

    @cached_property
    def chain(self):
        """Vertices of the minimal boundary part, CCW (a cycle when bounded)."""
        den, ints = self.lattice
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in ints)

    def support(self, u):
        """(h(u), face): face is None, ('point',p), ('segment',p,q) or ('ray',p,d).

        Evaluated at u as given (h is positively homogeneous, so scaling u
        scales the value); the face depends only on the direction, and its
        points are found on the chain's lattice.
        """
        prim = normalize_direction(u)
        if not self.cone.polar_contains(prim):
            return INF, None
        den, ints = self.lattice
        gens = self.cone.gens
        if gens and not self.cone.polar_interior_contains(prim):
            if prim == self.cone.polar_boundary_rays()[0]:
                ray_dir, base = gens[-1], ints[0]
            else:
                ray_dir, base = gens[0], ints[-1]
            return Fraction(dot(base, u), den), ("ray", _point(base, den), ray_dir)
        i, j = _argmax(ints, prim)
        value = Fraction(dot(ints[i], u), den)
        if i == j:
            return value, ("point", _point(ints[i], den))
        if dot(vsub(ints[j], ints[i]), rot90(prim)) < 0:
            i, j = j, i
        return value, ("segment", _point(ints[i], den), _point(ints[j], den))

    def contains(self, point) -> bool:
        """Exact membership test, by Farkas: the point lies outside iff some u
        has <v - point, u> < 0 for every chain vertex v and <g, u> <= 0 for
        every cone generator g.  Decided on the chain's lattice, rescaled to
        a common denominator with the point."""
        den, ints = self.lattice
        xden, ((x, y),) = lattice([as_point(point)])
        common = math.lcm(den, xden)
        f, k = common // den, common // xden
        x, y = x * k, y * k
        return not cone_strictly_feasible([(a * f - x, b * f - y) for a, b in ints], self.cone.gens)


def _point(p, den):
    """The rational point of the lattice point p at scale den."""
    return Fraction(p[0], den), Fraction(p[1], den)


def _argmax(pts, u):
    """First and last index of the points maximizing <p, u>."""
    a, b = u
    vals = [a * x + b * y for x, y in pts]
    m = max(vals)
    return vals.index(m), len(vals) - 1 - vals[::-1].index(m)


def _face_midpoint(pts, u):
    """Midpoint of the first and last of the points maximizing <p, u>,
    found on the points' lattice."""
    i, j = _argmax(lattice(pts)[1], u)
    if i == j:
        return pts[i]
    return vscale(Fraction(1, 2), vadd(pts[i], pts[j]))


# ---------------------------------------------------------------------------
# constructions

def from_points(points, cone: Cone2) -> VPolygon:
    """Smallest convex set with recession cone `cone` containing the points."""
    if not points:
        raise GeometryError("need at least one point")
    hull = convex_hull_2d(points)
    entries = {}
    if len(hull) >= 2:  # two points give the edge in both orientations
        for p, q in zip(hull, hull[1:] + hull[:1]):
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
    return _on_chain(b.lattice[1], (0, 0))  # the origin at every scale


def _on_chain(chain, point) -> bool:
    """The point lies on the polyline `chain` (exact scalars, one scale)."""
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
    coeffs = k.measure.as_dict()
    for u, lam in a.measure.entries:
        if lam > coeffs.get(u, 0):
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

