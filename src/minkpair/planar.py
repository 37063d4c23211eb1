"""V-polygons: planar convex sets "bounded part + pointed recession cone".

A set is stored canonically as (cone, anchor, edge measure).  The measure
maps each outer normal u (a primitive integer vector in the open polar of
the cone) to the rational multiple lam > 0 such that the boundary edge with
that normal, traversed counterclockwise, equals lam * rot90(u); it is kept
on one integer scale (lam = n / den, den least) in CCW order from (1, 0),
which an integer angle key decides and every operation keeps (`add`
merges).  The anchor is the midpoint of the support face in the cone's
reference direction.  Two V-polygons are equal as sets iff their canonical
forms are equal.

The boundary of a set is one bounded chain between two recession rays.  The
polar arc's start ray (`Cone2.polar_boundary_rays`) exposes the chain's first
point, moving along the cone's last generator; its end ray exposes the last
point, moving along the first generator (a ray cone's one generator is both).
`VPolygon.support` reads its ray faces off this rule, and `svg` off `support`.

Each V-polygon computes its chain once, as an integer lattice (den, ints)
built from the measure and the anchor, and the hot paths run on it: support
faces, the reference face midpoint and the 0-minimality test are integer
comparisons, and point membership is one homogeneous integer ray test
(`core.lattice_contains`, by Farkas' lemma).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property

from .core import (
    INF,
    Cone2,
    GeometryError,
    Value,
    as_point,
    check_length,
    cross2,
    dot,
    lattice,
    lattice_contains,
    normalize_direction,
    rot90,
    shared_cone,
    vadd,
    vscale,
    vsub,
)

ORIGIN = (Fraction(0), Fraction(0))


def convex_hull_2d(points):
    """Extreme points in CCW order (monotone chain, exact, collinear dropped)."""
    return hull_chain(sorted(set(map(as_point, points))))


def hull_chain(pts):
    """`convex_hull_2d` of sorted distinct points in their own exact scalars
    (int or `Fraction`); a positive scale of either axis changes no turn
    sign, no lexicographic order and so no hull."""
    if len(pts) == 1:
        return pts
    return _half_chain(pts)[:-1] + _half_chain(reversed(pts))[:-1]


def _half_chain(pts):
    """Andrew's monotone chain: b stays iff (b - a) x (p - a) > 0, tested on
    unpacked coordinates, so collinear points are dropped."""
    out = []
    for x, y in pts:
        while len(out) > 1:
            (ax, ay), (bx, by) = out[-2], out[-1]
            if (bx - ax) * (y - ay) > (by - ay) * (x - ax):
                break
            out.pop()
        out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# edge measures

def _angle_keys(dirs):
    """Integer keys ordering directions counterclockwise from (1, 0), as the
    test oracle `ccw_compare` does: the half-turn rank, then floor(-k*x/y)
    for k the square of the largest |y|, as two slopes x/y with |y|^2 <= k
    differ by at least 1/k."""
    k = max((abs(u[1]) for u in dirs), default=0) ** 2
    return [((0 if u[0] > 0 else 2, 0) if u[1] == 0 else (2 - u[1] // abs(u[1]), -k * u[0] // u[1]))
            for u in dirs]


def _ccw_sorted(items):
    """(direction, coefficient) pairs in canonical CCW order; sorting merges
    presorted runs (a rotated hull, two measures) in linear time."""
    keys = _angle_keys([u for u, _ in items])
    return [it for _, it in sorted(zip(keys, items))]


class EdgeMeasure(Value):
    """Per-direction positive edge coefficients (a discrete boundary measure),
    on one integer scale: direction u of (u, n) in `items` has coefficient
    n / den, den the least such scale, in canonical CCW order from (1, 0).
    `entries` holds the same as ((u, Fraction), ...)."""

    __slots__ = _fields = ("den", "items")

    def __init__(self, entries):
        """From `entries` in canonical order; anything else is refused."""
        entries = tuple((tuple(u), lam) for u, lam in entries)
        if not all(isinstance(lam, (int, Fraction)) and lam > 0 for _, lam in entries):
            raise GeometryError("edge coefficients must be positive")
        keys = _angle_keys([u for u, _ in entries])
        if any(k0 >= k1 for k0, k1 in zip(keys, keys[1:])):
            raise GeometryError("measure directions must be distinct and in CCW order from (1, 0)")
        den = math.lcm(*(lam.denominator for _, lam in entries))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "items", tuple((u, lam.numerator * (den // lam.denominator))
                                                for u, lam in entries))

    @staticmethod
    def _of(den, items):
        """The measure of the positive items[i][1] / den, in canonical order."""
        g, m = math.gcd(den, *(n for _, n in items)), object.__new__(EdgeMeasure)
        object.__setattr__(m, "den", den // g)
        object.__setattr__(m, "items", tuple((u, n // g) for u, n in items))
        return m

    @staticmethod
    def from_entries(mapping):
        """From a mapping direction -> coefficient >= 0 in any order."""
        items = [(tuple(u), Fraction(lam)) for u, lam in dict(mapping).items()]
        return EdgeMeasure(_ccw_sorted([(u, lam) for u, lam in items if lam]))

    @staticmethod
    def empty():
        return EdgeMeasure._of(1, ())

    @property
    def entries(self):
        return tuple((u, Fraction(n, self.den)) for u, n in self.items)

    def as_dict(self):
        return dict(self.entries)

    def directions(self):
        return [d for d, _ in self.items]

    @property
    def is_empty(self) -> bool:
        return not self.items

    def _common(self, other):
        """(den, own items, other's items) on the common scale, as dicts in order."""
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        return den, {u: n * f for u, n in self.items}, {u: n * g for u, n in other.items}

    def add(self, other: "EdgeMeasure") -> "EdgeMeasure":
        den, mine, theirs = self._common(other)
        for u, n in theirs.items():  # other's new directions come last: two sorted runs
            mine[u] = mine.get(u, 0) + n
        return EdgeMeasure._of(den, _ccw_sorted(list(mine.items())))

    def sub(self, other: "EdgeMeasure") -> "EdgeMeasure":
        den, mine, theirs = self._common(other)
        out = [(u, n - theirs.pop(u, 0)) for u, n in mine.items()]
        if theirs or any(n < 0 for _, n in out):
            raise GeometryError("measure difference would be negative")
        return EdgeMeasure._of(den, [(u, n) for u, n in out if n])

    def scale(self, t) -> "EdgeMeasure":
        t = Fraction(t)
        if t < 0 and self.items:
            raise GeometryError("edge coefficients must be positive")
        return EdgeMeasure._of(self.den * t.denominator,
                               [(u, n * t.numerator) for u, n in self.items if t])


def measure_inf(ma: EdgeMeasure, mb: EdgeMeasure) -> EdgeMeasure:
    """Directionwise minimum of jump coefficients (lattice infimum)."""
    den, mine, theirs = ma._common(mb)
    return EdgeMeasure._of(den, [(u, min(n, theirs[u])) for u, n in mine.items() if u in theirs])


def shared_normals(a: "VPolygon", b: "VPolygon"):
    """Outer normals of edges of both sets, which must share their cone."""
    shared_cone(a, b)
    dirs = set(b.measure.directions())
    return [u for u in a.measure.directions() if u in dirs]


# ---------------------------------------------------------------------------
# V-polygons

class VPolygon(Value):
    _fields = ("cone", "anchor", "measure")

    def __init__(self, cone: Cone2, anchor, measure: EdgeMeasure):
        anchor = as_point(anchor)
        gens, items = cone.gens, measure.items
        for u, _ in items:
            if len(u) != 2 or type(u[0]) is not int or type(u[1]) is not int or math.gcd(*u) != 1:
                raise GeometryError(f"measure direction {u} is not a primitive integer pair")
            if any(u[0] * x + u[1] * y >= 0 for x, y in gens):
                raise GeometryError(f"measure direction {u} outside the open polar")
        # the steps n * rot90(u) of the chain at the measure's scale sum to zero
        if not gens and (sum(n * a for (a, _), n in items) or sum(n * b for (_, b), n in items)):
            raise GeometryError("bounded polygon measure does not close up")
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "measure", measure)

    @cached_property
    def lattice(self):
        """(den, ints): the chain is ints / den, den the least such scale.

        At the measure's scale D every step n * rot90(u) is integer, the
        reference face midpoint is a lattice point at scale 2D, and the
        anchor shift lands on the common denominator of 2D and the anchor."""
        cone, scale, steps = self.cone, self.measure.den, self.measure.items
        if cone.gens:  # the CCW order from the polar arc's start is a rotation
            keys = _angle_keys([cone.polar_boundary_rays()[0], *self.measure.directions()])
            k = bisect_left(keys, keys[0], 1) - 1
            steps = steps[k:] + steps[:k]
        x = y = 0
        pts = [(0, 0)]
        for (a, b), t in steps:
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
        return _reduced(den, [(x * f + cx, y * f + cy) for x, y in pts])

    @cached_property
    def chain(self):
        """Vertices of the minimal boundary part, CCW (a cycle when bounded)."""
        den, ints = self.lattice
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in ints)

    def support(self, u):
        """(h(u), face): face is None, ('point',p), ('segment',p,q) or ('ray',p,d).

        Evaluated at u as given (h is positively homogeneous); the face
        depends only on the direction and is found on the chain's lattice."""
        check_length(2, u)
        prim = normalize_direction(u)
        gens = self.cone.gens
        signs = [prim[0] * x + prim[1] * y for x, y in gens]
        if any(s > 0 for s in signs):
            return INF, None
        den, ints = self.lattice
        if 0 in signs:  # the polar arc's start ray, or its end ray
            ray_dir, i = (gens[-1], 0) if prim == rot90(gens[-1]) else (gens[0], -1)
            return Fraction(dot(ints[i], u), den), ("ray", _point(ints[i], den), ray_dir)
        i, j = _argmax(ints, prim)
        value = Fraction(dot(ints[i], u), den)
        if i == j:
            return value, ("point", _point(ints[i], den))
        if dot(vsub(ints[j], ints[i]), rot90(prim)) < 0:
            i, j = j, i
        return value, ("segment", _point(ints[i], den), _point(ints[j], den))

    def contains(self, point) -> bool:
        """Exact membership test on the chain's lattice (`core.lattice_contains`)."""
        return lattice_contains(*self.lattice, self.cone.gens, as_point(point))


def _reduced(den, ints):
    """(den, ints) with den and every coordinate divided by their gcd."""
    g = math.gcd(den, *(c for p in ints for c in p))
    return den // g, tuple((x // g, y // g) for x, y in ints)


def _point(p, den):
    """The rational point of the lattice point p at scale den."""
    return Fraction(p[0], den), Fraction(p[1], den)


def _argmax(pts, u):
    """First and last index of the points maximizing <p, u>."""
    a, b = u
    vals = [a * x + b * y for x, y in pts]
    m = max(vals)
    return vals.index(m), len(vals) - 1 - vals[::-1].index(m)


def _face_midpoint(den, ints, u):
    """Midpoint of the first and last of the points ints / den maximizing <p, u>."""
    i, j = _argmax(ints, u)
    return _point(vadd(ints[i], ints[j]), 2 * den)


# ---------------------------------------------------------------------------
# constructions

def from_points(points, cone: Cone2) -> VPolygon:
    """Smallest convex set with recession cone `cone` containing the points."""
    if not isinstance(cone, Cone2):
        raise GeometryError("a planar set needs a planar cone")
    if not points:
        raise GeometryError("need at least one point")
    den, ints = lattice([as_point(p) for p in points])
    check_length(2, *ints)
    hull = hull_chain(sorted(set(ints)))
    items = []
    if len(hull) >= 2:  # two points give the edge in both orientations
        for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
            g = math.gcd(x1 - x0, y1 - y0)  # the edge is g / den times rot90(u)
            u = ((y1 - y0) // g, (x0 - x1) // g)
            if all(u[0] * x + u[1] * y < 0 for x, y in cone.gens):
                items.append((u, g))
    measure = EdgeMeasure._of(den, _ccw_sorted(items))
    return VPolygon(cone, _face_midpoint(den, hull, cone.u0()), measure)


def minkowski_sum(a: VPolygon, b: VPolygon) -> VPolygon:
    return VPolygon(shared_cone(a, b), vadd(a.anchor, b.anchor), a.measure.add(b.measure))


def scale(a: VPolygon, t) -> VPolygon:
    t = Fraction(t)
    if t < 0:
        raise GeometryError("scale factor must be nonnegative")
    return VPolygon(a.cone, vscale(t, a.anchor), a.measure.scale(t))


def translate(a: VPolygon, v) -> VPolygon:
    """a + v."""
    check_length(2, v)
    return VPolygon(a.cone, vadd(a.anchor, as_point(v)), a.measure)


# ---------------------------------------------------------------------------
# pair calculus

def are_equivalent(a: VPolygon, b: VPolygon, c: VPolygon, d: VPolygon) -> bool:
    """(a, b) ~ (c, d), i.e. a + d == b + c as canonical forms."""
    shared_cone(a, b, c, d)
    return minkowski_sum(a, d) == minkowski_sum(b, c)


def reduce_pair(a: VPolygon, b: VPolygon):
    """Equivalent 0-minimal pair for (a, b).

    Strips the common directionwise part of both edge measures; the second
    set is re-anchored with its reference face midpoint at the origin, the
    first at a.anchor - b.anchor.  The result is checked to be equivalent
    to the input and 0-minimal.
    """
    if shared_cone(a, b).is_trivial:
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
    if shared_cone(a, b).is_trivial:
        raise GeometryError("use bounded-pair tools")
    if shared_normals(a, b):
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
    shared_cone(a, k)
    try:
        rest = k.measure.sub(a.measure)
    except GeometryError:  # some coefficient of a exceeds k's
        return False, None
    comp = VPolygon(k.cone, vsub(k.anchor, a.anchor), rest)
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
        # a segment face is t * rot90(u) for some t > 0, and t < lam fails
        if face[0] == "point" or dot(vsub(face[2], face[1]), rot90(u)) < lam * dot(u, u):
            return False
    return True


class BoundaryChain(Value):
    """Convex CCW chain of boundary vertices (a kernel certificate)."""

    _fields = ("points",)

    def __init__(self, points):
        pts = tuple(as_point(p) for p in points)
        for p, q in zip(pts, pts[1:]):
            if p == q:
                raise GeometryError("chain has repeated points")
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            if cross2(vsub(b, a), vsub(c, b)) <= 0:
                raise GeometryError("chain is not strictly convex CCW")
        object.__setattr__(self, "points", pts)


def kernel_of_minimality(a: VPolygon, b: VPolygon) -> BoundaryChain:
    """Boundary points x of b with b cut down to {x} by the reversed cone."""
    if not is_zero_minimal(a, b):
        raise GeometryError("kernel defined only relative to 0-minimal pairs")
    return BoundaryChain(b.chain)

