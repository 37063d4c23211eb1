"""Univariate piecewise-linear dc-functions f = g - h with both parts convex.

A convex part corresponds to an unbounded planar set: the hypograph of the
negated conjugate, whose recession cone is determined by the domain interval.
Minimizing the representation is delegated to the planar pair reduction, then
normalized so the second part is nonnegative and vanishes at 0.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .core import INF, Cone2, GeometryError, normalize_direction, vneg
from .planar import (
    ORIGIN,
    VPolygon,
    from_points,
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


def conjugate(g: PLConvexFn) -> PLFnLine:
    """Convex conjugate g*(y) = max_x (x*y - g(x)); finite everywhere."""
    a, b = g.domain
    slopes = sorted(set(g.slopes()))
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


def domain_cone(a, b) -> Cone2:
    """Recession cone shared by all hypograph sets over the domain [a, b]."""
    a, b = Fraction(a), Fraction(b)
    if not a < 0 < b:
        raise GeometryError("domain must contain 0 in its interior")
    return Cone2((normalize_direction((-1, a)), normalize_direction((1, -b))))


def to_hypograph_set(g: PLConvexFn) -> VPolygon:
    """Planar set whose support in direction (x, 1) reproduces g(x)."""
    a, b = g.domain
    star = conjugate(g)
    pts = [(y, -v) for y, v in zip(star.breakpoints, star.values)]
    return from_points(pts, domain_cone(a, b))


def from_set(A: VPolygon, domain) -> PLConvexFn:
    """Support function along the line (x, 1); inverse of to_hypograph_set."""
    a, b = Fraction(domain[0]), Fraction(domain[1])
    if A.cone != domain_cone(a, b):
        raise GeometryError("cone mismatch with domain")
    pts = sorted(A.chain)
    xs = [a]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        xs.append((y0 - y1) / (x1 - x0))
    xs.append(b)
    vals = [max(p * x + q for p, q in pts) for x in xs]
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
