import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkpair.core import Cone2, GeometryError
from minkpair.dc import (
    DcPair,
    PLConvexFn,
    domain_cone,
    from_set,
    hartman_minimize,
    is_hartman_minimal,
    to_hypograph_set,
)
from minkpair.planar import EdgeMeasure, VPolygon, from_points, is_summand, translate
from oracles import conjugate, conjugate_line, hull_hypograph_set, max_from_set

F = Fraction

GRID = [F(k, 100) - 1 for k in range(201)]


def rand_plconvex(rng, nmax=4):
    xs = sorted({F(-1), F(1)} | {F(rng.randint(-9, 9), 10) for _ in range(rng.randint(0, nmax))})
    slopes = []
    s = F(rng.randint(-6, 0), rng.choice((1, 2)))
    for _ in range(len(xs) - 1):
        slopes.append(s)
        s = s + F(rng.randint(1, 4), rng.choice((1, 2)))
    vals = [F(rng.randint(-3, 3), 2)]
    for (x0, x1), sl in zip(zip(xs, xs[1:]), slopes):
        vals.append(vals[-1] + sl * (x1 - x0))
    return PLConvexFn(tuple(xs), tuple(vals))


def fixture_f(x):
    return min(F(0), abs(x) - F(1, 2))


def fixture_pair():
    g = PLConvexFn((-1, F(-1, 2), 0, F(1, 2), 1), (1, 0, F(-1, 2), 0, 1))
    h = PLConvexFn((-1, F(-1, 2), F(1, 2), 1), (1, 0, 0, 1))
    return DcPair(g, h)


# ---------------------------------------------------------------------------
# representation

def test_plconvex_merges_and_validates():
    f = PLConvexFn((-1, 0, F(1, 2), 1), (1, 0, F(1, 2), 1))
    assert f.breakpoints == (-1, 0, 1)  # equal slopes on the right merged
    with pytest.raises(GeometryError):
        PLConvexFn((-1, 0, 1), (0, 1, 0))  # concave kink
    with pytest.raises(GeometryError):
        PLConvexFn((1, 2), (0, 0))  # 0 outside the domain interior
    with pytest.raises(GeometryError):
        DcPair(PLConvexFn((-1, 1), (0, 0)), PLConvexFn((-2, 1), (0, 0)))


def _scan(xs, ys, x):
    """Piece-by-piece linear interpolation, the reference for the bisect lookup."""
    for i in range(len(xs) - 1):
        if x <= xs[i + 1]:
            return ys[i] + (x - xs[i]) / (xs[i + 1] - xs[i]) * (ys[i + 1] - ys[i])
    raise AssertionError("x beyond the last breakpoint")


def test_evaluation_matches_linear_scan():
    """At breakpoints, between them and at both ends, for PLConvexFn and for
    its conjugate (a PLFnLine, which continues with its outer slopes)."""
    rng = random.Random(31)
    for _ in range(60):
        g = rand_plconvex(rng, nmax=6)
        xs, ys = g.breakpoints, g.values
        for x in list(xs) + [a + (b - a) / 3 for a, b in zip(xs, xs[1:])]:
            assert g(x) == _scan(xs, ys, x)
        with pytest.raises(GeometryError):
            g(xs[-1] + F(1, 1000))
        s = conjugate(g)
        bs, vs = s.breakpoints, s.values
        inner = list(bs[1:-1]) + [a + (b - a) / 3 for a, b in zip(bs, bs[1:])]
        for y in inner:
            assert s(y) == _scan(bs, vs, y)
        for y in inner + [bs[0], bs[-1], bs[0] - 1, bs[-1] + F(5, 2)]:
            assert s(y) == max(x * y - v for x, v in zip(xs, ys))


# ---------------------------------------------------------------------------
# conjugate

def test_conjugate_of_zero_is_abs():
    s = conjugate(PLConvexFn((-1, 1), (0, 0)))
    for y in (F(-5), F(-1, 3), F(0), F(2), F(7, 2)):
        assert s(y) == abs(y)


def test_conjugate_of_abs_with_grid_oracle():
    g = PLConvexFn((-1, 0, 1), (1, 0, 1))
    s = conjugate(g)
    xs = [F(k, 20) for k in range(-20, 21)]
    for y in (F(-3), F(-1), F(-1, 4), F(0), F(1, 2), F(1), F(5, 2)):
        oracle = max(x * y - g(x) for x in xs)
        assert s(y) == oracle == max(F(0), abs(y) - 1)


def test_conjugate_order_reversing():
    rng = random.Random(12)
    for _ in range(30):
        g = rand_plconvex(rng)
        lift = F(rng.randint(1, 3), 2)
        g_hi = PLConvexFn(g.breakpoints, tuple(v + lift for v in g.values))
        s_lo, s_hi = conjugate(g_hi), conjugate(g)
        for _ in range(50):
            y = F(rng.randint(-40, 40), 10)
            assert s_lo(y) <= s_hi(y)


def test_fenchel_moreau_round_trip():
    rng = random.Random(999)
    for _ in range(500):
        g = rand_plconvex(rng)
        assert conjugate_line(conjugate(g)) == g


# ---------------------------------------------------------------------------
# the set correspondence

def test_hypograph_of_zero_function_is_cone():
    A = to_hypograph_set(PLConvexFn((-1, 1), (0, 0)))
    assert A.measure.is_empty and A.anchor == (0, 0)
    assert A.cone == Cone2.from_generators([(-1, -1), (1, -1)])


def test_hypograph_of_linear_function_with_inequality_oracle():
    g = PLConvexFn((-1, 1), (-1, 1))  # g(x) = x
    A = to_hypograph_set(g)
    assert A.measure.is_empty and A.anchor == (1, 0)
    # direct defining inequalities: (y,t) in A iff x*y + t <= g(x) for all x
    for y in (F(-2), F(0), F(1), F(3, 2)):
        for t in (F(-3), F(-1), F(0), F(1, 4)):
            member = all(x * y + t <= g(x) for x in GRID)
            assert A.contains((y, t)) == member


def test_hypograph_support_reproduces_function():
    rng = random.Random(6)
    for _ in range(100):
        g = rand_plconvex(rng)
        A = to_hypograph_set(g)
        for x in g.breakpoints:
            num, den = F(x).numerator, F(x).denominator
            val, _ = A.support((num, den))
            assert val == den * g(x)
        assert from_set(A, g.domain) == g


@st.composite
def plconvex_fns(draw):
    """Convex PL functions with 0-7 inner breakpoints (one piece included) on
    [-1, 1], [-1/2, 3/2] or a drawn rational domain; breakpoints, slopes and
    values over the denominators 1, 2, 3, 7 and 1,000, equal neighbouring
    slopes included."""
    den = draw(st.sampled_from((1, 2, 3, 7, 1000)))
    rat = st.builds(F, st.integers(-3 * den, 3 * den), st.just(den))
    pos = st.builds(F, st.integers(1, 3 * den), st.just(den))
    a, b = draw(st.one_of(
        st.sampled_from(((F(-1), F(1)), (F(-1, 2), F(3, 2)))), st.tuples(pos.map(lambda x: -x), pos)
    ))
    ks = st.integers(math.floor(a * den) + 1, math.ceil(b * den) - 1)
    inner = draw(st.lists(ks.map(lambda k: F(k, den)), max_size=7, unique=True))
    xs = [a] + sorted(inner) + [b]
    slope = draw(rat)
    vals = [draw(rat)]
    for x0, x1 in zip(xs, xs[1:]):
        vals.append(vals[-1] + slope * (x1 - x0))
        slope += draw(st.builds(F, st.integers(0, 4 * den), st.just(den)))
    return PLConvexFn(tuple(xs), tuple(vals))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(plconvex_fns())
def test_set_correspondence_matches_conjugate_oracles(g):
    """The slope-jump construction equals the hull of the conjugate's points,
    the adjacent-point values equal a max over every chain point, and the
    round trip gives g back."""
    A = to_hypograph_set(g)
    assert A == hull_hypograph_set(g)
    assert from_set(A, g.domain) == max_from_set(A, g.domain) == g


def test_conversions_do_linear_work(monkeypatch):
    """On x^2 sampled at n = 401 breakpoints, each direction of the set
    correspondence makes fewer than 10n `Fraction` products (the conjugate
    and the max over every point took about n^2)."""
    xs = tuple(F(k, 200) for k in range(-200, 201))
    g = PLConvexFn(xs, tuple(x * x for x in xs))
    mul, calls = F.__mul__, [0]

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(F, "__mul__", counted)
    A = to_hypograph_set(g)
    to_set = calls[0]
    back = from_set(A, g.domain)
    to_fn = calls[0] - to_set
    monkeypatch.undo()
    assert to_set < 10 * len(xs) and to_fn < 10 * len(xs)
    assert back == g


def test_from_set_cone_mismatch():
    A = to_hypograph_set(PLConvexFn((-1, 1), (0, 0)))
    with pytest.raises(GeometryError, match="cone mismatch"):
        from_set(A, (-2, 1))


def test_domain_cone_rational_endpoints():
    V = domain_cone(F(-1, 2), F(3, 2))
    assert V.gens == ((-2, -1), (2, -3))
    assert V.polar_interior_contains((0, 1))
    with pytest.raises(GeometryError):
        domain_cone(F(1, 2), F(3, 2))


# ---------------------------------------------------------------------------
# Hartman minimization

def test_hartman_fixture_matches_enumeration_oracle():
    expected = hartman_minimize(fixture_pair())
    assert expected.g == PLConvexFn((-1, 0, 1), (F(1, 2), F(-1, 2), F(1, 2)))
    assert expected.h == PLConvexFn((-1, F(-1, 2), F(1, 2), 1), (F(1, 2), 0, 0, F(1, 2)))

    lattice = (F(-1), F(-1, 2), F(0), F(1, 2), F(1))
    found = []
    deltas = [F(d, 2) for d in range(0, 5)]
    for s0_num in range(-6, 1):
        s0 = F(s0_num, 2)
        for d1 in deltas:
            for d2 in deltas:
                for d3 in deltas:
                    sl = (s0, s0 + d1, s0 + d1 + d2, s0 + d1 + d2 + d3)
                    v_mid_l = -sl[1] * F(1, 2)
                    vals = (
                        v_mid_l - sl[0] * F(1, 2),
                        v_mid_l,
                        F(0),
                        sl[2] * F(1, 2),
                        sl[2] * F(1, 2) + sl[3] * F(1, 2),
                    )
                    h = PLConvexFn(lattice, vals)
                    if any(h(x) < 0 for x in GRID):
                        continue
                    g_vals = tuple(fixture_f(x) + h(x) for x in lattice)
                    try:
                        g = PLConvexFn(lattice, g_vals)
                    except GeometryError:
                        continue
                    if any(g(x) - h(x) != fixture_f(x) for x in GRID):
                        continue
                    if is_hartman_minimal(to_hypograph_set(g), to_hypograph_set(h)):
                        found.append((g, h))
    assert found == [(expected.g, expected.h)]


def test_hartman_with_zero_second_part():
    rng = random.Random(3)
    zero = PLConvexFn((-1, 1), (0, 0))
    for _ in range(20):
        g = rand_plconvex(rng)
        out = hartman_minimize(DcPair(g, zero))
        assert out.h == zero
        assert out.g == g


def test_hartman_random_suite():
    rng = random.Random(321)
    for _ in range(100):
        g, h = rand_plconvex(rng), rand_plconvex(rng)
        out = hartman_minimize(DcPair(g, h))
        assert all(out.g(x) - out.h(x) == g(x) - h(x) for x in GRID)
        assert all(out.h(x) >= 0 for x in GRID)
        assert out.h(0) == 0
        assert is_hartman_minimal(to_hypograph_set(out.g), to_hypograph_set(out.h))
        assert hartman_minimize(out) == out
        # monotone dominance: the minimal second part precedes the original
        ok, _ = is_summand(
            translate(to_hypograph_set(out.h), (0, -99)), to_hypograph_set(h)
        )
        assert ok


def test_is_hartman_minimal_examples():
    out = hartman_minimize(fixture_pair())
    A, B = to_hypograph_set(out.g), to_hypograph_set(out.h)
    assert is_hartman_minimal(A, B)
    assert not is_hartman_minimal(translate(A, (0, 1)), translate(B, (0, 1)))
    V = A.cone
    anyA = from_points([(0, 0), (F(1, 2), F(-1, 3))], V)
    cone_at_zero = VPolygon(V, (0, 0), EdgeMeasure.empty())
    assert is_hartman_minimal(anyA, cone_at_zero)
