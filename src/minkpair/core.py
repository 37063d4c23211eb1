"""Exact scalars, primitive directions, value classes, cones and sign predicates.

Coordinates are `fractions.Fraction` scalars and directions are primitive
integer vectors; no floating point enters any decision.  `as_point` is the
one conversion to a rational point: it keeps a tuple of `Fraction`s as it
is and converts any other coordinate sequence.  Hot predicates run on an
integer lattice instead: `lattice` scales a point list by the lcm of its
denominators, and since a positive scale keeps every sign and the
lexicographic order, sign tests on the lattice points decide the same as on
the rationals.  `spatial` builds its hulls and its perp-plane rows on it,
and each planar V-polygon keeps its chain as one such lattice.
The exact decisions here:

- `cone_strictly_feasible` decides homogeneous systems of strict and weak
  rows in two or three variables in integers by Seidel's incremental method:
  pairs in one angular sweep (`sector`), triples row by row (`_seidel`), a
  sweep in the plane of each violated row.  `_seidel` returns its state, so
  the vertex-pair test in `spatial` runs it once on the rows at a vertex of
  one summand and resumes it on the rows at each vertex of the other.  The
  ray test runs the perp-plane tests of the 3D criteria, vertex survival in
  `spatial`, point membership in both dimensions (`lattice_contains`, which
  `VPolygon.contains` and `contains3` call: by Farkas' lemma a point lies
  outside conv(V) + cone(G) exactly when some u strictly separates it), and
  every cone question in both dimensions: `Cone2` and `Cone3` share one base
  whose pointedness, extreme rays (`_extreme_rays`) and membership
  (`_in_cone_span`) are ray tests.
- `shared_cone` states once that the operands of a pair operation share
  their recession cone.
- `linear_feasible` (Fourier-Motzkin over `Fraction`) decides affine
  systems.  No library code calls it; the benchmark harness still times it.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import cached_property
from operator import attrgetter

INF = float("inf")  # support value outside the polar of the recession cone


class GeometryError(ValueError):
    """Invalid geometric input (degenerate direction, non-pointed cone, ...)."""


class ConeMismatchError(GeometryError):
    """Operands do not share the required recession cone."""


class Value:
    """Base of the library's values: equality within one class, hash and repr
    over the fields `_fields` names, and no assignment once `__init__` has set
    them with `object.__setattr__`.  Other attributes take no part."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)  # no __get__, so it stays unbound

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# rationals

_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def parse_rational(text):
    """Parse "num/den", "num" or a plain decimal such as "-1.25" into a Fraction.

    Anything else is refused before any arithmetic, exponent notation in
    particular: `Fraction("1e999999999")` would build the whole integer.
    """
    token = str(text).strip()
    if not _RATIONAL.fullmatch(token):
        raise GeometryError(f"bad rational {text!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise GeometryError(f"bad rational {text!r}") from exc


def format_rational(q) -> str:
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # past sys.get_int_max_str_digits()
        raise GeometryError(
            f"number too long to print: over {sys.get_int_max_str_digits()} digits"
        ) from None


# ---------------------------------------------------------------------------
# vectors: plain tuples, Fraction or int entries

def as_point(p):
    """Tuple of `Fraction` coordinates of any coordinate sequence; a tuple of
    `Fraction`s is returned as it is."""
    return p if type(p) is tuple and all(type(c) is Fraction for c in p) else tuple(map(Fraction, p))


def check_length(n, *vectors):
    """Refuse any of the vectors that has not exactly n coordinates."""
    for v in vectors:
        if len(v) != n:
            raise GeometryError(f"{len(v)} coordinates where {n} are needed")


def lattice(points):
    """(den, ints): den is the lcm of the coordinates' denominators and ints
    holds each point times den as an integer tuple (int or `Fraction` entries).
    """
    den = math.lcm(*(x.denominator for p in points for x in p))
    return den, [tuple(x.numerator * (den // x.denominator) for x in p) for p in points]


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def vscale(t, a):
    return tuple(t * x for x in a)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def rot90(u):
    """Counterclockwise quarter turn: (x, y) -> (-y, x)."""
    return (-u[1], u[0])


def is_zero(v) -> bool:
    return all(x == 0 for x in v)


def normalize_direction(v):
    """Primitive integer vector on the ray of v; sign preserved.

    Accepts integer or rational entries of any magnitude.
    """
    if is_zero(v):
        raise GeometryError("degenerate direction")
    if not all(type(x) is int for x in v):
        v = lattice([as_point(v)])[1][0]
    g = math.gcd(*v)
    return tuple(n // g for n in v)


# ---------------------------------------------------------------------------
# linear feasibility (exact Fourier-Motzkin, dimension <= small)

def _normalize_constraint(coeffs, strict, const):
    """Scale by a positive rational so entries are coprime integers."""
    vals = [Fraction(c) for c in coeffs] + [Fraction(const)]
    den = math.lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (den // v.denominator) for v in vals]
    g = math.gcd(*(abs(n) for n in ints))
    if g > 1:
        ints = [n // g for n in ints]
    return tuple(ints[:-1]), strict, ints[-1]


def linear_feasible(constraints, nvars) -> bool:
    """Decide whether a system of linear constraints has a real solution.

    Each constraint is (coeffs, rel, const) meaning <coeffs, x> rel const
    with rel one of '<', '<=', '='.  Exact variable elimination; intended
    for the small systems (a handful of variables) this library produces.
    """
    work = []
    for coeffs, rel, const in constraints:
        coeffs = tuple(Fraction(c) for c in coeffs)
        const = Fraction(const)
        if rel == "=":
            work.append((coeffs, False, const))
            work.append((vneg(coeffs), False, -const))
        elif rel == "<=":
            work.append((coeffs, False, const))
        elif rel == "<":
            work.append((coeffs, True, const))
        else:
            raise GeometryError(f"unknown relation {rel!r}")

    def tighten(rows):
        best = {}
        out = []
        for coeffs, strict, const in rows:
            if all(c == 0 for c in coeffs):
                if const < 0 or (strict and const == 0):
                    return None
                continue
            key_coeffs, s, c = _normalize_constraint(coeffs, strict, const)
            old = best.get(key_coeffs)
            # smaller bound wins; at equal bound strict wins
            if old is None or (c, not s) < (old[0], not old[1]):
                best[key_coeffs] = (c, s)
        for coeffs, (c, s) in best.items():
            out.append((coeffs, s, Fraction(c)))
        return out

    work = tighten(work)
    if work is None:
        return False
    for var in range(nvars - 1, -1, -1):
        uppers, lowers, rest = [], [], []
        for coeffs, strict, const in work:
            a = coeffs[var]
            if a > 0:
                uppers.append((coeffs, strict, const))
            elif a < 0:
                lowers.append((coeffs, strict, const))
            else:
                rest.append((coeffs, strict, const))
        new = list(rest)
        for cu, su, ku in uppers:
            au = cu[var]
            for cl, sl, kl in lowers:
                al = -cl[var]
                coeffs = tuple(al * x + au * y for x, y in zip(cu, cl))
                new.append((coeffs, su or sl, al * ku + au * kl))
        work = tighten(new)
        if work is None:
            return False
    return True


def perp_basis(d):
    """Integer basis w1 = d x (1, 0, 0), or d x (0, 1, 0) on the x axis, and
    w2 = d x w1 of the plane normal to the nonzero integer triple d."""
    w1 = (0, d[2], -d[1]) if d[1] or d[2] else (0, 0, d[0])
    return w1, cross3(d, w1)


def sector(strict, weak=()):
    """[lo, hi], the angularly extreme rows of a system of integer pairs with
    a strict row (as in `cone_strictly_feasible`), or None if it has no
    solution.  One pass, strict rows first and ties keeping the older row,
    keeps every row in the closed sector from lo counterclockwise to hi; it
    fails on a zero strict row, a row opposite both ends, a sector past a
    half turn, or one that reaches it at an end that a strict row holds.
    Else u = rot90(hi - lo) solves the system, or u = -lo when lo == hi."""
    lx, ly = hx, hy = strict[0]
    lw = hw = False  # a weak row holds the end, so no strict row lies on its ray
    for rows, w in ((strict, False), (weak, True)):
        for x, y in rows:
            if hx * y > hy * x:  # counterclockwise of hi
                c = lx * y - ly * x
                if c < 0 or not (c or lw):
                    return None
                hx, hy, hw = x, y, w
            elif lx * y < ly * x:  # clockwise of lo
                c = x * hy - y * hx
                if c < 0 or not (c or hw):
                    return None
                lx, ly, lw = x, y, w
            elif lx * x + ly * y < 0 and hx * x + hy * y < 0 or not (w or x or y):
                return None
    return [(lx, ly), (hx, hy)]


def _seidel(rows, ns, start=0, state=((0, 0, 0), (0, 0, 0))):
    """The state of Seidel's incremental method (R. Seidel, "Small-dimensional
    linear programming and convex hulls made easy", Discrete Comput. Geom. 6,
    1991) after the integer triples `rows`: a pair (w, d) such that
    u = t*w + d, for every large enough t, has <a, u> < 0 for the first `ns`
    rows a and <b, u> <= 0 for the others; None if no u has.  A row's sign on
    u is its sign on w, or on d if 0.  The run starts at row `start` from
    `state`, the one returned for rows[:start] (the zero default is that of
    no rows): the step at row i reads only its state and rows[:i], so a
    resumed run decides as one over all the rows does.  The order of the rows
    changes the cost, never the answer.  If a row a that u violates joins a
    system with a solution u', the segment from u to u' crosses the plane
    normal to a at a solution w of the earlier rows, which in a `perp_basis`
    of that plane are pairs with a `sector`, w its solution (0 if there are
    no earlier rows).  A weak a takes (w, 0); a strict a takes (w, -a), as
    the earlier rows are strict and negative on w.
    """
    (ux, uy, uz), (dx, dy, dz) = state
    for i in range(start, len(rows)):
        ax, ay, az = rows[i]
        s = ax * ux + ay * uy + az * uz or ax * dx + ay * dy + az * dz
        if s < 0 or s == 0 and i >= ns:
            continue
        if not (ax or ay or az):
            return None
        ux = uy = uz = 0  # w = 0 if there are no earlier rows
        if i:
            (b1, b2, b3), (c1, c2, c3) = perp_basis((ax, ay, az))
            proj = [(x * b1 + y * b2 + z * b3, x * c1 + y * c2 + z * c3) for x, y, z in rows[:i]]
            if (ends := sector(proj[:ns], proj[ns:])) is None:
                return None
            (lx, ly), (hx, hy) = ends
            px, py = (-lx, -ly) if lx == hx and ly == hy else (ly - hy, hx - lx)
            ux, uy, uz = px * b1 + py * c1, px * b2 + py * c2, px * b3 + py * c3
        dx, dy, dz = (-ax, -ay, -az) if i < ns else (0, 0, 0)
    return (ux, uy, uz), (dx, dy, dz)


def cone_strictly_feasible(strict, weak=()) -> bool:
    """True iff some u has <a, u> < 0 for every row a of `strict` and
    <b, u> <= 0 for every row b of `weak`, integer pairs or triples of one
    length; with no strict row u = 0 does.  With weak rows only generators,
    this is "some u strictly separates" in Farkas' lemma; with none, by
    Gordan's theorem, "cone(strict) is pointed".  Pairs are one `sector`,
    triples one `_seidel` run, strict rows first.
    """
    if not strict:
        return True
    if len(strict[0]) == 2:
        return sector(strict, weak) is not None
    return _seidel([*strict, *weak], len(strict)) is not None


def lattice_contains(den, ints, gens, x) -> bool:
    """Exact membership of the point x (int or `Fraction` coordinates) in
    conv(ints / den) + cone(gens), by Farkas: x lies outside iff some u has
    <v - x, u> < 0 for every point v and <g, u> <= 0 for every generator g.
    Decided on the common lattice of the points and x.  The rows are spelled
    out for pairs and for triples, the two lengths `cone_strictly_feasible`
    takes: a per-coordinate comprehension doubled their cost on `planar`'s
    hot `VPolygon.contains`."""
    check_length(len(ints[0]), x)
    xden, (p,) = lattice([x])
    common = math.lcm(den, xden)
    f, k = common // den, common // xden
    if len(p) == 2:
        x0, y0 = p[0] * k, p[1] * k
        rows = [(a * f - x0, b * f - y0) for a, b in ints]
    else:
        x0, y0, z0 = p[0] * k, p[1] * k, p[2] * k
        rows = [(a * f - x0, b * f - y0, c * f - z0) for a, b, c in ints]
    return not cone_strictly_feasible(rows, gens)


# ---------------------------------------------------------------------------
# cones

def shared_cone(*sets):
    """The recession cone every one of `sets` has; sets under different
    cones are refused."""
    cone = sets[0].cone
    for s in sets:
        if s.cone is not cone and s.cone != cone:
            raise ConeMismatchError("incompatible recession cones")
    return cone


class _Cone(Value):
    """Pointed cone of primitive integer generators; empty gens: {0}.

    The ray test decides every question about it: cone(gens) holds a line
    iff some nontrivial nonnegative combination of the generators vanishes,
    which by Gordan's theorem fails iff some u has <g, u> < 0 for every
    generator, and membership is `_in_cone_span`.
    """

    _fields = ("gens",)

    def __init__(self, gens):
        for g in gens:
            if normalize_direction(g) != tuple(g):
                raise GeometryError("cone generators must be primitive")
        object.__setattr__(self, "gens", gens)

    @property
    def is_trivial(self) -> bool:
        return not self.gens

    def polar_contains(self, u) -> bool:
        return all(dot(u, g) <= 0 for g in self.gens)

    def polar_interior_contains(self, u) -> bool:
        """Membership in the open polar (every nonzero u when trivial)."""
        if self.is_trivial:
            return not is_zero(u)
        return all(dot(u, g) < 0 for g in self.gens)

    def contains_vector(self, v) -> bool:
        """Exact membership of a vector in the cone itself."""
        return _in_cone_span(v, self.gens)


def _extreme_rays(raw):
    """Extreme rays of cone(raw), as distinct primitive directions in input
    order; a cone that holds a line is refused."""
    dirs = []
    for g in raw:
        d = normalize_direction(g)
        if d not in dirs:
            dirs.append(d)
    if not cone_strictly_feasible(dirs):
        raise GeometryError("cone is not pointed")
    return [g for i, g in enumerate(dirs) if not _in_cone_span(g, dirs[:i] + dirs[i + 1 :])]


def _in_cone_span(v, gens) -> bool:
    """v = sum(lam_i * g_i) with lam_i >= 0, decided in integers.

    By Farkas' lemma v lies outside cone(gens) iff some u has <v, u> > 0 and
    <g, u> <= 0 for every generator.
    """
    return not cone_strictly_feasible([vneg(v)], gens)


class Cone2(_Cone):
    """Pointed planar recession cone: trivial, a ray, or a wedge.

    Wedge generators are stored in counterclockwise order
    (cross(gens[0], gens[1]) > 0); half-planes and lines are rejected.
    """

    def __init__(self, gens):
        check_length(2, *gens)
        super().__init__(gens)
        if len(gens) == 2 and cross2(gens[0], gens[1]) <= 0:
            raise GeometryError("wedge generators must be independent and CCW")
        if len(gens) > 2:
            raise GeometryError("a pointed planar cone has at most 2 generators")

    @staticmethod
    def from_generators(raw):
        """Canonicalize arbitrary generating rays; rejects non-pointed cones."""
        check_length(2, *raw)
        gens = _extreme_rays(raw)
        if len(gens) == 2 and cross2(gens[0], gens[1]) < 0:
            gens.reverse()
        return Cone2(tuple(gens))

    @property
    def kind(self) -> str:
        return ("trivial", "ray", "wedge")[len(self.gens)]

    def u0(self):
        """Reference direction: an exact interior polar direction.

        Trivial cone: (1, 0).  Ray g: -g.  Wedge: -(g1+g2) when that lies in
        the open polar (true for symmetric wedges), else the always-interior
        positive combination of the two polar boundary rays.  Computed once
        per cone.
        """
        return self._u0

    @cached_property
    def _u0(self):
        if self.is_trivial:
            return (1, 0)
        if len(self.gens) == 1:
            return vneg(self.gens[0])
        a, b = self.gens
        cand = vneg(vadd(a, b))
        if not is_zero(cand):
            cand = normalize_direction(cand)
            if self.polar_interior_contains(cand):
                return cand
        return normalize_direction(rot90(vsub(b, a)))

    def polar_boundary_rays(self):
        """(start, end) rays of the closed polar arc, CCW order: the start
        ray is normal to the last generator, the end ray to the first."""
        if self.is_trivial:
            raise GeometryError("trivial cone has a full polar")
        return rot90(self.gens[-1]), vneg(rot90(self.gens[0]))


class Cone3(_Cone):
    """Pointed cone in R^3; `from_generators` stores its extreme rays sorted."""

    def __init__(self, gens):
        check_length(3, *gens)
        super().__init__(gens)
        if not cone_strictly_feasible(gens):
            raise GeometryError("cone is not pointed")

    @staticmethod
    def from_generators(raw):
        check_length(3, *raw)
        return Cone3(tuple(sorted(_extreme_rays(raw))))
