"""Univariate piecewise-linear dc-functions f = g - h with both parts convex.

A convex part g on [a, b] corresponds to an unbounded planar set A whose
support in direction (x, 1) is g(x): the hypograph of the negated conjugate,
with the recession cone spanned by (-1, a) and (1, -b).  Both directions of
the correspondence take linear time.  A's chain points are (s, -g*(s)) for
g's slopes s, and its edge measure is read off g's slope jumps (the
conjugate's breakpoints are g's slopes); g's value at each breakpoint is the
support of the adjacent chain point.  Minimizing the representation is
delegated to the planar pair reduction, then normalized so the second part
is nonnegative and vanishes at 0.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .core import INF, Cone2, GeometryError, vneg
from .planar import (
    ORIGIN,
    EdgeMeasure,
    VPolygon,
    _face_midpoint,
    is_zero_minimal,
    reduce_pair,
    translate,
)

def _frac_seq(xs):
    return tuple(Fraction(x) for x in xs)


def _interpolate(xs, ys, x):
    """Value at x, xs[0] <= x <= xs[-1], of the broken line through the (xs[i], ys[i])."""
    i = max(bisect_left(xs, x), 1)
    t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
    return ys[i - 1] + t * (ys[i] - ys[i - 1])


@dataclass(frozen=True)
class PLConvexFn:
    """Convex piecewise-linear function on a closed interval [a, b], a < 0 < b.

    Breakpoints include both endpoints; equal-slope neighbours are merged on
    construction, so representations are canonical.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        xs, ys = _frac_seq(self.breakpoints), _frac_seq(self.values)
        if len(xs) != len(ys) or len(xs) < 2:
            raise GeometryError("need matching breakpoints and values, >= 2 points")
        if any(q <= p for p, q in zip(xs, xs[1:])):
            raise GeometryError("breakpoints must be strictly increasing")
        if not (xs[0] < 0 < xs[-1]):
            raise GeometryError("domain must contain 0 in its interior")
        slopes = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
        if any(s2 < s1 for s1, s2 in zip(slopes, slopes[1:])):
            raise GeometryError("function is not convex")
        keep_x, keep_y = [xs[0]], [ys[0]]
        for i in range(1, len(xs) - 1):
            if slopes[i] != slopes[i - 1]:
                keep_x.append(xs[i])
                keep_y.append(ys[i])
        keep_x.append(xs[-1])
        keep_y.append(ys[-1])
        object.__setattr__(self, "breakpoints", tuple(keep_x))
        object.__setattr__(self, "values", tuple(keep_y))

    @property
    def domain(self):
        return self.breakpoints[0], self.breakpoints[-1]

    def slopes(self):
        xs, ys = self.breakpoints, self.values
        return [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]

    def __call__(self, x):
        x = Fraction(x)
        xs, ys = self.breakpoints, self.values
        if not xs[0] <= x <= xs[-1]:
            raise GeometryError("evaluation outside the domain")
        return _interpolate(xs, ys, x)


def domain_cone(a, b) -> Cone2:
    """Recession cone shared by all hypograph sets over the domain [a, b]."""
    a, b = Fraction(a), Fraction(b)
    if not a < 0 < b:
        raise GeometryError("domain must contain 0 in its interior")
    return Cone2(((-a.denominator, a.numerator), (b.denominator, -b.numerator)))


def to_hypograph_set(g: PLConvexFn) -> VPolygon:
    """Planar set whose support in direction (x, 1) reproduces g(x).

    Segment i of g (slope s_i, through (x_i, y_i)) gives the chain point
    (s_i, y_i - x_i*s_i); the slope jump at an inner breakpoint x = p/q gives
    the edge with outer normal (p, q) and coefficient (s_{i+1} - s_i)/q.
    """
    xs, ys = g.breakpoints, g.values
    slopes = g.slopes()
    cone = domain_cone(xs[0], xs[-1])
    pts = [(s, y - x * s) for x, y, s in zip(xs, ys, slopes)]
    jumps = {
        (x.numerator, x.denominator): (s1 - s0) / x.denominator
        for x, s0, s1 in zip(xs[1:], slopes, slopes[1:])
    }
    return VPolygon(cone, _face_midpoint(pts, cone.u0()), EdgeMeasure.from_entries(jumps))


def from_set(A: VPolygon, domain) -> PLConvexFn:
    """Support function along the line (x, 1); inverse of to_hypograph_set.

    The breakpoints are where adjacent chain points (sorted by slope) give
    equal support.  The value at a breakpoint, and at b, is the support of
    the chain point whose piece ends there (at a, of the first one); that
    point attains the maximum, so no other point is consulted.  Both are
    read off the chain's integer lattice: its scale cancels in the
    breakpoints and divides each value once.
    """
    a, b = Fraction(domain[0]), Fraction(domain[1])
    if A.cone != domain_cone(a, b):
        raise GeometryError("cone mismatch with domain")
    den, pts = A.lattice
    pts = sorted(pts)
    xs = [a]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        xs.append(Fraction(y0 - y1, x1 - x0))
    xs.append(b)
    vals = [
        Fraction(p * x.numerator + q * x.denominator, den * x.denominator)
        for (p, q), x in zip(pts[:1] + pts, xs)
    ]
    return PLConvexFn(tuple(xs), tuple(vals))


@dataclass(frozen=True)
class DcPair:
    """Representation f = g - h with g, h convex on a common domain."""

    g: PLConvexFn
    h: PLConvexFn

    def __post_init__(self):
        if self.g.domain != self.h.domain:
            raise GeometryError("dc parts must share their domain")

    def __call__(self, x):
        return self.g(x) - self.h(x)


def hartman_minimize(p: DcPair) -> DcPair:
    """Smallest representation of g - h with h >= 0 and h(0) = 0.

    Reduces the hypograph pair to an equivalent 0-minimal pair, then shifts
    both sets by the top support point of the second one (ties broken by the
    lexicographically smallest point of that face).
    """
    a, b = p.g.domain
    A = to_hypograph_set(p.g)
    B = to_hypograph_set(p.h)
    A1, B1 = reduce_pair(A, B)
    _, face = B1.support((0, 1))
    x = face[1] if face[0] == "point" else min(face[1], face[2])
    A2 = translate(A1, vneg(x))
    B2 = translate(B1, vneg(x))
    return DcPair(from_set(A2, (a, b)), from_set(B2, (a, b)))


def is_hartman_minimal(A: VPolygon, B: VPolygon) -> bool:
    """0-minimal, second set within the lower half-plane, origin inside it."""
    val, _ = B.support((0, 1))
    if val == INF:
        raise GeometryError("pair does not have a dc-domain cone")
    return is_zero_minimal(A, B) and val <= 0 and B.contains(ORIGIN)
