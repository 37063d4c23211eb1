import math
import random
import sys
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
from oracles import (
    conjugate,
    conjugate_line,
    fraction_from_set,
    fraction_plconvex,
    fraction_to_hypograph_set,
    hull_hypograph_set,
    max_from_set,
)

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


@st.composite
def raw_pl_data(draw):
    """Breakpoints and values for `PLConvexFn`, mostly convex with equal
    neighbouring slopes, sometimes not convex, not increasing or with 0
    outside the domain; denominators up to 2^70, and [-1, 1] as the domain
    of about half of them."""
    den = draw(st.sampled_from((1, 3, 7, 1000, 2**64 + 13, 3**41)))
    rat = st.builds(F, st.integers(-3 * den, 3 * den), st.just(den))
    pos = st.builds(F, st.integers(1, 3 * den), st.just(den))
    a, b = draw(st.just((F(-1), F(1))) | st.tuples(pos.map(lambda x: -x), pos))
    inner = draw(st.lists(st.integers(1, 2**72).map(lambda k: a + (b - a) * F(k, 2**72 + 1)),
                          max_size=7, unique=True))
    xs = [a] + sorted(inner) + [b]
    slope, vals = draw(rat), [draw(rat)]
    for x0, x1 in zip(xs, xs[1:]):
        vals.append(vals[-1] + slope * (x1 - x0))
        slope += draw(st.sampled_from((0, 0, 1, 2)) | pos | rat)
    flaw = draw(st.sampled_from(("none", "none", "none", "order", "domain", "length")))
    if flaw == "order" and len(xs) > 2:
        xs[1], xs[2] = xs[2], xs[1]
    elif flaw == "domain":
        xs = [x - a + 1 for x in xs]
    elif flaw == "length":
        vals = vals[:-1]
    return xs, vals


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(raw_pl_data(), raw_pl_data())
def test_integer_dc_paths_match_fraction_oracles(data, other):
    """Construction, merging and refusals of `PLConvexFn`, the hypograph
    set and the function read back from it, and the minimal pair, against
    the `Fraction` bodies they replaced."""
    def outcome(f, *args):
        try:
            return f(*args)
        except GeometryError as exc:
            return "refused", str(exc)

    want = outcome(fraction_plconvex, *data)
    g = outcome(PLConvexFn, *data)
    if want[0] == "refused":
        assert g == want
        return
    assert (g.breakpoints, g.values) == want
    A = to_hypograph_set(g)
    assert A == fraction_to_hypograph_set(g)
    back = from_set(A, g.domain)
    assert (back.breakpoints, back.values) == fraction_from_set(A, g.domain) == want
    assert outcome(from_set, A, (g.domain[0], g.domain[1] + 1)) == outcome(
        fraction_from_set, A, (g.domain[0], g.domain[1] + 1))
    h = outcome(PLConvexFn, *other)
    if isinstance(h, PLConvexFn) and h.domain == g.domain:
        out = hartman_minimize(DcPair(g, h))
        assert is_hartman_minimal(to_hypograph_set(out.g), to_hypograph_set(out.h))
        assert out.g == PLConvexFn(*fraction_from_set(fraction_to_hypograph_set(out.g), g.domain))


def _calls(f, *args):
    """f(*args) and the number of Python and C function calls it made."""
    count = [0]

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            count[0] += 1

    sys.setprofile(profile)
    try:
        out = f(*args)
    finally:
        sys.setprofile(None)
    return out, count[0]


def test_conversions_do_linear_work():
    """On x^2 sampled at n = 401 and n = 1,601 breakpoints, the function
    calls each direction of the set correspondence makes grow about 4-fold
    with n (the conjugate and the max over every point grew 16-fold)."""
    counts = []
    for k in (200, 800):
        xs = tuple(F(i, k) for i in range(-k, k + 1))
        g = PLConvexFn(xs, tuple(x * x for x in xs))
        A, to_set = _calls(to_hypograph_set, g)
        back, to_fn = _calls(from_set, A, g.domain)
        assert back == g
        counts.append((to_set, to_fn))
    for small, large in zip(*counts):
        assert 3 * small < large < 5 * small


def test_from_set_cone_mismatch():
    A = to_hypograph_set(PLConvexFn((-1, 1), (0, 0)))
    with pytest.raises(GeometryError, match="cone mismatch"):
        from_set(A, (-2, 1))
    with pytest.raises(GeometryError, match="domain must contain 0"):
        from_set(A, (1, 2))


def test_conversions_build_at_most_one_cone(monkeypatch):
    """Each hypograph set builds its domain's cone once, and `from_set`
    checks a set's cone against the domain without building one."""
    p = DcPair(PLConvexFn((-1, F(1, 3), 1), (2, 0, 1)), PLConvexFn((-1, 0, 1), (1, 0, 1)))
    built = [0]
    init = Cone2.__init__

    def counted(self, gens):
        built[0] += 1
        init(self, gens)

    monkeypatch.setattr(Cone2, "__init__", counted)
    out = hartman_minimize(p)
    assert built[0] == 2
    A = to_hypograph_set(out.g)
    assert built[0] == 3
    assert from_set(A, out.g.domain) == out.g
    assert built[0] == 3


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
