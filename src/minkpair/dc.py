"""Univariate piecewise-linear dc-functions f = g - h with both parts convex.

A convex part g on [a, b] corresponds to an unbounded planar set A whose
support in direction (x, 1) is g(x): the hypograph of the negated conjugate,
with the recession cone spanned by (-1, a) and (1, -b).  Both directions of
the correspondence take linear time on integer ratios (breakpoints and
values as integers over their lcm denominators): A's chain points are
(s, -g*(s)) for g's slopes s, its edge measure is read off g's slope jumps
over one common denominator, and g's value at each breakpoint is the
support of the adjacent chain point.  Minimizing the representation is
delegated to the planar pair reduction, then normalized so the second part
is nonnegative and vanishes at 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .core import INF, Cone2, GeometryError, Value, as_point, lattice, vadd, vneg, vscale
from .planar import (
    EdgeMeasure,
    VPolygon,
    is_zero_minimal,
    reduce_pair,
    translate,
)

def _pieces(xs, ys):
    """(dx, X, dy, Y, runs, rises, bends): the breakpoints xs = X / dx and
    values ys = Y / dy on their lattices, the run and rise of each piece, and
    at each inner breakpoint r1*d0 - r0*d1, which has the sign of the slope
    jump there: slope i is rises[i]*dx / (runs[i]*dy)."""
    (dx, (X,)), (dy, (Y,)) = lattice([xs]), lattice([ys])
    runs = [q - p for p, q in zip(X, X[1:])]
    rises = [q - p for p, q in zip(Y, Y[1:])]
    bends = [r1 * d0 - r0 * d1 for d0, d1, r0, r1 in zip(runs, runs[1:], rises, rises[1:])]
    return dx, X, dy, Y, runs, rises, bends


class PLConvexFn(Value):
    """Convex piecewise-linear function on a closed interval [a, b], a < 0 < b.

    Breakpoints include both endpoints; equal-slope neighbours are merged on
    construction, so representations are canonical.
    """

    _fields = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        xs, ys = as_point(breakpoints), as_point(values)
        if len(xs) != len(ys) or len(xs) < 2:
            raise GeometryError("need matching breakpoints and values, >= 2 points")
        _, X, _, _, runs, _, bends = _pieces(xs, ys)
        if any(r <= 0 for r in runs):
            raise GeometryError("breakpoints must be strictly increasing")
        if not (X[0] < 0 < X[-1]):
            raise GeometryError("domain must contain 0 in its interior")
        if any(b < 0 for b in bends):
            raise GeometryError("function is not convex")
        keep = [0, *(i + 1 for i, b in enumerate(bends) if b), len(xs) - 1]
        object.__setattr__(self, "breakpoints", tuple(xs[i] for i in keep))
        object.__setattr__(self, "values", tuple(ys[i] for i in keep))

    @property
    def domain(self):
        return self.breakpoints[0], self.breakpoints[-1]

    def __call__(self, x):
        x = Fraction(x)
        xs, ys = self.breakpoints, self.values
        if not xs[0] <= x <= xs[-1]:
            raise GeometryError("evaluation outside the domain")
        i = max(bisect_left(xs, x), 1)  # x on the piece from xs[i - 1] to xs[i]
        return ys[i - 1] + (x - xs[i - 1]) / (xs[i] - xs[i - 1]) * (ys[i] - ys[i - 1])


def _domain_gens(a, b):
    a, b = as_point((a, b))
    if not a < 0 < b:
        raise GeometryError("domain must contain 0 in its interior")
    return (-a.denominator, a.numerator), (b.denominator, -b.numerator)


def domain_cone(a, b) -> Cone2:
    """Recession cone shared by all hypograph sets over the domain [a, b]."""
    return Cone2(_domain_gens(a, b))


def to_hypograph_set(g: PLConvexFn) -> VPolygon:
    """Planar set whose support in direction (x, 1) reproduces g(x).

    Segment i of g (slope s_i, through (x_i, y_i)) gives the chain point
    (s_i, y_i - x_i*s_i); the slope jump at an inner breakpoint x = p/q gives
    the edge with outer normal (p, q) and coefficient (s_{i+1} - s_i)/q, in
    CCW order from the last breakpoint.  Worked on g's lattice X/dx, Y/dy,
    where s_i = rise_i*dx / (run_i*dy); the anchor is the chain point (or
    the midpoint of two) of the segments at x = p0/q0 for u0 = (p0, q0).
    """
    dx, X, dy, Y, runs, rises, bends = _pieces(g.breakpoints, g.values)
    cone = domain_cone(*g.domain)
    jumps = [(dx * b, dy * d0 * d1 * x.denominator, (x.numerator, x.denominator))
             for b, d0, d1, x in zip(bends, runs, runs[1:], g.breakpoints[1:])][::-1]
    den = math.lcm(*(d for _, d, _ in jumps))

    def chain_point(i):
        return (Fraction(rises[i] * dx, runs[i] * dy),
                Fraction(Y[i] * runs[i] - X[i] * rises[i], dy * runs[i]))

    p0, q0 = cone.u0
    i = bisect_left(X, p0 * dx, key=lambda x: x * q0)  # X[i - 1] < x0 * dx <= X[i]
    anchor = chain_point(i - 1)
    if X[i] * q0 == p0 * dx:
        anchor = vscale(Fraction(1, 2), vadd(anchor, chain_point(i)))
    return VPolygon(cone, anchor, EdgeMeasure._of(den, [(u, n * (den // d)) for n, d, u in jumps]))


def from_set(A: VPolygon, domain) -> PLConvexFn:
    """Support function along the line (x, 1); inverse of to_hypograph_set.

    The breakpoints are where adjacent chain points (sorted by slope) give
    equal support; the value at a breakpoint, and at b, is the support of
    the chain point whose piece ends there (at a, of the first one).  Both
    are read off the chain's lattice, whose scale cancels in the breakpoints.
    """
    a, b = Fraction(domain[0]), Fraction(domain[1])
    if A.cone.gens != _domain_gens(a, b):
        raise GeometryError("cone mismatch with domain")
    den, pts = A.lattice[0], sorted(A.lattice[1])
    xs = (a, *(Fraction(y0 - y1, x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])), b)
    return PLConvexFn(xs, tuple(Fraction(p * x.numerator + q * x.denominator, den * x.denominator)
                                for (p, q), x in zip(pts[:1] + pts, xs)))


class DcPair(Value):
    """Representation f = g - h with g, h convex on a common domain."""

    _fields = ("g", "h")

    def __init__(self, g: PLConvexFn, h: PLConvexFn):
        if g.domain != h.domain:
            raise GeometryError("dc parts must share their domain")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    def __call__(self, x):
        return self.g(x) - self.h(x)


def hartman_minimize(p: DcPair) -> DcPair:
    """Smallest representation of g - h with h >= 0 and h(0) = 0.

    Reduces the hypograph pair to an equivalent 0-minimal pair, then shifts
    both sets by the second one's leftmost top point, face[-1] of its face
    in direction (0, 1): a face runs CCW from face[1] to face[-1].
    """
    A1, B1 = reduce_pair(to_hypograph_set(p.g), to_hypograph_set(p.h))
    _, face = B1.support((0, 1))
    x = vneg(face[-1])
    return DcPair(from_set(translate(A1, x), p.g.domain), from_set(translate(B1, x), p.g.domain))


def is_hartman_minimal(A: VPolygon, B: VPolygon) -> bool:
    """0-minimal, which puts the origin on B's chain and so in B, and B in y <= 0."""
    val, _ = B.support((0, 1))
    if val == INF:
        raise GeometryError("pair does not have a dc-domain cone")
    return is_zero_minimal(A, B) and val <= 0
