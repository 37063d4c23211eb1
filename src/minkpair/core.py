"""Exact scalars, primitive directions, cone types and sign predicates.

Coordinates are `fractions.Fraction` scalars (`as_point` makes a point of
any coordinate sequence) and directions are primitive integer vectors; no
floating point enters any decision.  Hot predicates run on an integer
lattice instead: `lattice` scales a point list by the lcm of its
denominators, and since a positive scale keeps every sign and the
lexicographic order, sign tests on the lattice points decide the same as on
the rationals.  `spatial` builds its hulls and its perp-plane rows on it.
The exact decisions here:

- `cone_strictly_feasible` decides homogeneous systems in two variables by
  integer sign tests on a few candidate rays; the perp-plane tests of the 3D
  criteria and `VPolygon.contains` run on it.  `cone_strictly_feasible3`,
  its sibling in three variables with strict and weak rows, decides vertex
  survival in `spatial`, `Cone3` pointedness and membership, and
  `contains3`: by Farkas' lemma a point lies outside conv(V) + cone(G)
  exactly when some u strictly separates it.
- `linear_feasible` (Fourier-Motzkin over `Fraction`) decides affine
  systems.  No library code calls it; the benchmark harness still times it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

INF = float("inf")  # support value outside the polar of the recession cone


class GeometryError(ValueError):
    """Invalid geometric input (degenerate direction, non-pointed cone, ...)."""


class ConeMismatchError(GeometryError):
    """Operands do not share the required recession cone."""


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
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# vectors: plain tuples, Fraction or int entries

def as_point(p):
    """Tuple of `Fraction` coordinates of any coordinate sequence."""
    return tuple(map(Fraction, p))


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
        fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
        den = math.lcm(*(f.denominator for f in fr))
        v = [f.numerator * (den // f.denominator) for f in fr]
    g = math.gcd(*v)
    return tuple(n // g for n in v)


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


def cone_strictly_feasible(rows) -> bool:
    """True iff a NONZERO u in R^2 satisfies every homogeneous row.

    Each row is (a, rel): an integer pair a and rel one of '<', '<=', '=',
    meaning <a, u> rel 0.  A zero row with '<' fails; other zero rows hold.
    Decided in integers by testing candidate rays.  An equality row leaves
    only u = +-rot90(a).  Otherwise the closed cone C = {u : <a_i, u> <= 0}
    is a half-plane, a line, a pointed wedge, a ray or {0}, and the strict
    rows only remove boundary rays of C; so if any u works, one of these
    does: -a_0 (inside a half-plane), a boundary ray +-rot90(a_i) lying in C,
    or the sum of two such rays (inside a wedge).
    """
    strict, weak, equal = [], [], []
    first = None
    for a, rel in rows:
        if rel == "<":
            bucket = strict
        elif rel == "<=":
            bucket = weak
        elif rel == "=":
            bucket = equal
        else:
            raise GeometryError(f"unknown relation {rel!r}")
        if a[0] or a[1]:
            bucket.append(a)
            if first is None:
                first = a
        elif bucket is strict:
            return False

    def solves(x, y):
        for a, b in strict:
            if a * x + b * y >= 0:
                return False
        for a, b in weak:
            if a * x + b * y > 0:
                return False
        for a, b in equal:
            if a * x + b * y:
                return False
        return True

    if equal:
        a, b = equal[0]
        return solves(-b, a) or solves(b, -a)
    if first is None:
        return True
    if solves(-first[0], -first[1]):
        return True
    bounding = strict + weak
    rays = []  # closed-feasible boundary rays, one per direction: at most two
    for a, b in bounding:
        # <(c, d), rot90(a, b)> = ad - bc: rot90 lies in C iff no such cross
        # is positive, -rot90 iff none is negative
        pos = neg = False
        for c, d in bounding:
            t = a * d - b * c
            if t > 0:
                pos = True
            elif t < 0:
                neg = True
            if pos and neg:
                break
        else:
            for x, y, closed in ((-b, a, not pos), (b, -a, not neg)):
                if not closed or any(x * ry == y * rx and x * rx + y * ry > 0 for rx, ry in rays):
                    continue
                if solves(x, y):
                    return True
                rays.append((x, y))
    for (x1, y1), (x2, y2) in combinations(rays, 2):
        x, y = x1 + x2, y1 + y2
        if (x or y) and solves(x, y):
            return True
    return False


def cone_strictly_feasible3(strict, weak=()) -> bool:
    """True iff some u in R^3 has <a, u> < 0 for every row a of `strict` and
    <b, u> <= 0 for every row b of `weak`.

    Rows are integer triples.  With no strict row u = 0 works; otherwise a
    zero strict row fails every candidate below and a zero weak row passes
    it.  With weak rows only generators, this is "some u strictly separates"
    in Farkas' lemma; with none, by Gordan's theorem, "cone(strict) is
    pointed".  Decided in integers by the rank of the rows, a_0 being the
    first strict row.  Rank 1: every row is a multiple of a_0, so u = -a_0
    works if any u does.  Rank 2: the rows span the plane normal to
    n = a_0 x a_j, so the question moves, each row keeping its relation, to
    the basis (a_0, n x a_0) of that plane and `cone_strictly_feasible`.
    Rank 3: the closed cone C = {u : <a_i, u> <= 0} is pointed, so its
    extreme rays are among the +-(a_i x a_j), and the sum of those lying in
    C is in its relative interior; a strict row negative anywhere on C is
    negative there.
    """
    if not strict:
        return True
    rows = [*strict, *weak]

    def solves(ux, uy, uz):
        return all(x * ux + y * uy + z * uz < 0 for x, y, z in strict) and all(
            x * ux + y * uy + z * uz <= 0 for x, y, z in weak
        )

    a0 = rows[0]
    n = next((c for c in (cross3(a0, a) for a in rows) if not is_zero(c)), None)
    if n is None:
        return solves(*vneg(a0))
    if all(dot(n, a) == 0 for a in rows):
        b = cross3(n, a0)
        return cone_strictly_feasible(
            [((dot(a, a0), dot(a, b)), "<") for a in strict]
            + [((dot(a, a0), dot(a, b)), "<=") for a in weak]
        )
    sx = sy = sz = 0
    for a, b in combinations(rows, 2):
        cx, cy, cz = cross3(a, b)
        # c or -c lies in C unless the rows take both signs on c
        pos = neg = False
        for x, y, z in rows:
            t = x * cx + y * cy + z * cz
            if t > 0:
                pos = True
                if neg:
                    break
            elif t < 0:
                neg = True
                if pos:
                    break
        else:
            if not pos:
                sx, sy, sz = sx + cx, sy + cy, sz + cz
            elif not neg:
                sx, sy, sz = sx - cx, sy - cy, sz - cz
    return solves(sx, sy, sz)


# ---------------------------------------------------------------------------
# planar cones

@dataclass(frozen=True)
class Cone2:
    """Pointed planar recession cone: trivial, a ray, or a wedge.

    Wedge generators are stored in counterclockwise order
    (cross(gens[0], gens[1]) > 0); half-planes and lines are rejected.
    """

    gens: tuple

    def __post_init__(self):
        for g in self.gens:
            if normalize_direction(g) != tuple(g):
                raise GeometryError("cone generators must be primitive")
        if len(self.gens) == 2 and cross2(self.gens[0], self.gens[1]) <= 0:
            raise GeometryError("wedge generators must be independent and CCW")
        if len(self.gens) > 2:
            raise GeometryError("a pointed planar cone has at most 2 generators")

    @staticmethod
    def from_generators(raw):
        """Canonicalize arbitrary generating rays; rejects non-pointed cones."""
        dirs = []
        for g in raw:
            d = normalize_direction(g)
            if d not in dirs:
                dirs.append(d)
        if not dirs:
            return Cone2(())
        if len(dirs) == 1:
            return Cone2((dirs[0],))
        for a, b in combinations(dirs, 2):
            if cross2(a, b) == 0:
                raise GeometryError("cone contains a line (not pointed)")
        # extreme pair: every other generator inside the CCW wedge (a, b)
        for a, b in ((x, y) for x in dirs for y in dirs if x != y):
            if cross2(a, b) <= 0:
                continue
            if all(cross2(a, d) >= 0 and cross2(d, b) >= 0 for d in dirs):
                return Cone2((a, b))
        raise GeometryError("generators do not span a pointed cone")

    @property
    def kind(self) -> str:
        return ("trivial", "ray", "wedge")[len(self.gens)]

    @property
    def is_trivial(self) -> bool:
        return not self.gens

    def u0(self):
        """Reference direction: an exact interior polar direction.

        Trivial cone: (1, 0).  Ray g: -g.  Wedge: -(g1+g2) when that lies in
        the open polar (true for symmetric wedges), else the always-interior
        positive combination of the two polar boundary rays.
        """
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

    def arc_start(self):
        """First boundary ray of the polar, going counterclockwise."""
        if self.is_trivial:
            return (1, 0)
        if len(self.gens) == 1:
            return rot90(self.gens[0])
        return rot90(self.gens[1])

    def polar_boundary_rays(self):
        """(start, end) rays of the closed polar arc, CCW order."""
        if self.is_trivial:
            raise GeometryError("trivial cone has a full polar")
        if len(self.gens) == 1:
            g = self.gens[0]
            return rot90(g), vneg(rot90(g))
        a, b = self.gens
        return rot90(b), vneg(rot90(a))

    def polar_contains(self, u) -> bool:
        return all(dot(u, g) <= 0 for g in self.gens)

    def polar_interior_contains(self, u) -> bool:
        """Membership in int V° (all of R^2 minus 0 when trivial)."""
        if self.is_trivial:
            return not is_zero(u)
        return all(dot(u, g) < 0 for g in self.gens)

    def contains_vector(self, v) -> bool:
        """Exact membership of a vector in the cone itself."""
        if is_zero(v):
            return True
        if self.is_trivial:
            return False
        if len(self.gens) == 1:
            g = self.gens[0]
            return cross2(g, v) == 0 and dot(g, v) > 0
        a, b = self.gens
        return cross2(a, v) >= 0 and cross2(v, b) >= 0


def in_polar_interior(u, cone) -> bool:
    """True iff u lies in the interior of the polar of `cone`."""
    return cone.polar_interior_contains(u)


# ---------------------------------------------------------------------------
# spatial cones

@dataclass(frozen=True)
class Cone3:
    """Pointed cone in R^3 given by a minimal set of primitive generators.

    An empty generator tuple encodes the trivial cone {0}.
    """

    gens: tuple

    def __post_init__(self):
        if not _pointed(self.gens):
            raise GeometryError("cone is not pointed")

    @staticmethod
    def from_generators(raw):
        dirs = []
        for g in raw:
            d = normalize_direction(g)
            if d not in dirs:
                dirs.append(d)
        if not _pointed(dirs):
            raise GeometryError("cone is not pointed")
        kept = [g for i, g in enumerate(dirs) if not _in_cone_span(g, dirs[:i] + dirs[i + 1 :])]
        return Cone3(tuple(sorted(kept)))

    @property
    def is_trivial(self) -> bool:
        return not self.gens

    def polar_contains(self, u) -> bool:
        return all(dot(u, g) <= 0 for g in self.gens)

    def polar_interior_contains(self, u) -> bool:
        if self.is_trivial:
            return not is_zero(u)
        return all(dot(u, g) < 0 for g in self.gens)

    def contains_vector(self, v) -> bool:
        return _in_cone_span(v, self.gens)


def _pointed(gens) -> bool:
    """cone(gens) holds no line.

    It holds one iff some nontrivial nonnegative combination of the
    generators vanishes, which by Gordan's theorem fails iff some u has
    <g, u> < 0 for every generator.
    """
    return cone_strictly_feasible3(gens)


def _in_cone_span(v, gens) -> bool:
    """v = sum(lam_i * g_i) with lam_i >= 0, decided in integers.

    By Farkas' lemma v lies outside cone(gens) iff some u has <v, u> > 0 and
    <g, u> <= 0 for every generator.
    """
    return not cone_strictly_feasible3([vneg(v)], gens)
