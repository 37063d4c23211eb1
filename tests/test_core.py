import ast
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
import minkpair
from hypothesis import given, settings
from hypothesis import strategies as st

from minkpair.core import (
    Cone2,
    Cone3,
    GeometryError,
    _in_cone_span,
    _seidel,
    as_point,
    cone_strictly_feasible,
    cross2,
    cross3,
    dot,
    linear_feasible,
    normalize_direction,
    parse_rational,
    rot90,
    vadd,
    vneg,
    vscale,
)
from minkpair.planar import from_points, translate
from minkpair.spatial import from_points3, hull3, support3
from conftest import RING, rand_direction, run_capped
from oracles import (
    casework_cone2_gens,
    casework_contains_vector2,
    ccw_compare,
    fm_cone_strictly_feasible,
    fm_in_cone_span,
)


def test_normalize_direction_examples():
    assert normalize_direction((4, -6)) == (2, -3)
    assert normalize_direction((0, 5)) == (0, 1)
    assert normalize_direction((2, 2, -4)) == (1, 1, -2)


def test_normalize_direction_rejects_zero():
    with pytest.raises(GeometryError):
        normalize_direction((0, 0))


def test_normalize_direction_rational_input():
    assert normalize_direction((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)


@pytest.mark.parametrize("v, scaled", [
    ([Fraction(-5, 6), Fraction(10, 9)], (-15, 20)),
    ((1, Fraction(2, 3)), (3, 2)),
    ((Fraction(-5, 6), 0, 2), (-5, 0, 12)),
    ([0, Fraction(7, 10**12), -3], (0, 7, -3 * 10**12)),
    ((Fraction(4, 3), Fraction(-8, 3), 4), (4, -8, 12)),
], ids=["fraction-list", "mixed", "mixed-3d", "large-denominator", "common-factor"])
def test_normalize_direction_of_a_rational_direction_is_that_of_its_integer_multiple(v, scaled):
    assert normalize_direction(v) == normalize_direction(scaled)
    assert all(type(x) is int for x in normalize_direction(v))


def test_as_point_keeps_a_tuple_of_fractions():
    p = (Fraction(1, 2), Fraction(-3))
    assert as_point(p) is p


@pytest.mark.parametrize("p", [
    [Fraction(1, 2), Fraction(-3)],
    (1, -2, 3),
    [1, -2],
    (1, Fraction(1, 2), "3/4"),
    [Fraction(-1, 3), 2, True],
], ids=["fraction-list", "int-tuple", "int-list", "mixed-tuple", "mixed-list"])
def test_as_point_converts_any_other_sequence_to_a_new_tuple(p):
    point = as_point(p)
    assert type(point) is tuple and point is not p
    assert all(type(x) is Fraction for x in point)
    assert point == tuple(Fraction(x) for x in p)


def test_normalize_scaling_invariance():
    rng = random.Random(7)
    dirs = [rand_direction(rng) for _ in range(8)] + [(1, 0), (0, -1), (3, -7)]
    for u in dirs:
        for k in range(1, 1001):
            assert normalize_direction(vscale(k, u)) == u


def test_ccw_compare_examples():
    assert ccw_compare((1, 0), (0, 1), (1, 0)) == -1
    assert ccw_compare((0, -1), (0, 1), (1, 0)) == 1
    assert ccw_compare((3, 4), (3, 4), (1, 0)) == 0


def test_ccw_compare_total_order():
    rng = random.Random(3)
    start = (2, -1)
    dirs = list({rand_direction(rng, 9) for _ in range(200)})[:100]
    for u, v in combinations(dirs, 2):
        duv = ccw_compare(u, v, start)
        dvu = ccw_compare(v, u, start)
        assert duv in (-1, 1) and duv == -dvu
    ranked = sorted(dirs, key=lambda d: [ccw_compare(d, e, start) < 0 for e in dirs].count(True))
    for a, b, c in zip(ranked, ranked[1:], ranked[2:]):
        if ccw_compare(a, b, start) == -1 and ccw_compare(b, c, start) == -1:
            assert ccw_compare(a, c, start) == -1


def test_polar_interior_examples():
    V = Cone2.from_generators([(-1, -1), (-1, 1)])
    assert V.polar_interior_contains((1, 0))
    assert not V.polar_interior_contains((0, 1))
    assert Cone2(()).polar_interior_contains((5, -3))


def test_polar_interior_implies_negative_pairing():
    rng = random.Random(11)
    V = Cone2.from_generators([(-2, -1), (-1, 3)])
    for _ in range(200):
        u = rand_direction(rng)
        if not V.polar_interior_contains(u):
            continue
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        v = tuple(a * g1 + b * g2 for g1, g2 in zip(*V.gens))
        if v != (0, 0):
            assert dot(u, v) < 0


def test_cone_strictly_feasible_examples():
    # x > 0 and -x > 0 simultaneously: impossible
    assert not cone_strictly_feasible([(-1, 0), (1, 0)])
    # x > 0 alone in two variables
    assert cone_strictly_feasible([(-1, 0)])
    # x+y > 0, x-y > 0, -x >= 0: adding the first two forces x > 0
    assert not cone_strictly_feasible([(-1, -1), (-1, 1)], [(1, 0)])
    assert cone_strictly_feasible([])
    assert not cone_strictly_feasible([(0, 0)])
    assert cone_strictly_feasible([(1, 0)], [(0, 0)])
    # a weak pair a, -a leaves one line: u = (0, -1) satisfies y < 0
    assert cone_strictly_feasible([(0, 1)], [(1, 0), (-1, 0)])
    assert not cone_strictly_feasible([(0, 1), (0, -1)], [(1, 0), (-1, 0)])
    # closed half-plane pair meeting in a line, with the line excluded
    assert cone_strictly_feasible([(1, -1)], [(1, 1), (-1, -1)])
    assert not cone_strictly_feasible([(1, 1)], [(-1, -1)])
    big = 2**64 + 1
    assert cone_strictly_feasible([(big, -1), (-big, -1)])
    # a pair decides as its lift (x, y, 0)
    assert cone_strictly_feasible([(0, 1, 0)], [(1, 0, 0), (-1, 0, 0)])
    assert not cone_strictly_feasible([(1, 1, 0)], [(-1, -1, 0)])


def test_linear_feasible_affine():
    # 0 <= x <= 1, x >= 2 is empty; x >= 1/2 inside is fine
    assert not linear_feasible([((1,), "<=", 1), ((-1,), "<=", 0), ((-1,), "<=", -2)], 1)
    assert linear_feasible([((1,), "<=", 1), ((-1,), "<=", Fraction(-1, 2))], 1)
    # strict corner: x < 0 and x >= 0
    assert not linear_feasible([((1,), "<", 0), ((-1,), "<=", 0)], 1)
    # equality plus inequality
    assert linear_feasible([((1, 1), "=", 2), ((1, 0), "<=", 1)], 2)
    assert not linear_feasible([((1, 1), "=", 2), ((1, 0), "<=", 0), ((0, 1), "<=", 0)], 2)


def test_cone2_canonicalization():
    V = Cone2.from_generators([(2, 2), (1, 0), (1, 1), (0, -1)])
    assert V.kind == "wedge"
    assert V.gens == ((0, -1), (1, 1))
    assert Cone2.from_generators([(3, -6), (1, -2)]).kind == "ray"
    with pytest.raises(GeometryError):
        Cone2.from_generators([(1, 0), (-1, 0)])
    with pytest.raises(GeometryError):
        Cone2.from_generators([(1, 0), (0, 1), (-1, -1)])


def test_cone2_reference_direction_interior():
    rng = random.Random(5)
    from conftest import rand_wedge

    for _ in range(300):
        V = rand_wedge(rng, 6)
        assert V.polar_interior_contains(V.u0())
    # asymmetric wedge where -(g1+g2) leaves the polar
    V = Cone2.from_generators([(1, 0), (-5, 1)])
    assert V.polar_interior_contains(V.u0())


def test_cone3_pointedness_and_membership():
    with pytest.raises(GeometryError):
        Cone3.from_generators([(0, 0, 1), (0, 0, -1)])
    V = Cone3.from_generators([(1, 0, -1), (-1, 0, -1), (0, 1, -1)])
    assert V.contains_vector((0, 0, -1))
    assert not V.contains_vector((0, 0, 1))
    assert V.polar_interior_contains((0, 0, 1))
    # redundant generator dropped
    W = Cone3.from_generators([(1, 0, -1), (-1, 0, -1), (0, 0, -1)])
    assert W.gens == tuple(sorted([(1, 0, -1), (-1, 0, -1)]))
    assert Cone3.from_generators([]).is_trivial


def test_cones_refuse_generators_that_are_not_primitive():
    # a second value for the cone that from_generators([(2, 0, 0)]) builds
    assert Cone3.from_generators([(2, 0, 0)]).gens == ((1, 0, 0),)
    with pytest.raises(GeometryError, match="primitive"):
        Cone3(((2, 0, 0),))
    with pytest.raises(GeometryError, match="primitive"):
        Cone2(((2, 0),))


def test_inputs_of_the_wrong_length_are_refused():
    """Each entry point checks the coordinate count of what it is given,
    instead of dropping a coordinate or failing with a bare exception."""
    triv2, triv3 = Cone2(()), Cone3.from_generators([])
    a = from_points([(0, 0), (1, 0), (0, 1)], triv2)
    p = from_points3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], triv3)
    cases = [
        lambda: translate(a, (1, 2, 3)),
        lambda: translate(a, (1,)),
        lambda: hull3([(0, 0, 0, 0), (1, 2, 3, 4)]),
        lambda: from_points3([(0, 0, 0, 0), (1, 2, 3, 4)], triv3),
        lambda: hull3([(0, 0), (1, 0)]),
        lambda: from_points3([(0, 0), (1, 0)], triv3),
        lambda: hull3([(0, 0, 0), (1, 0)]),
        lambda: support3(p, (1, 0)),
        lambda: from_points([(0, 0, 0), (1, 0, 0)], triv2),
        lambda: a.support((1, 0, 0)),
        lambda: Cone3.from_generators([(1, 0)]),
        lambda: Cone3.from_generators([(1, 0, 0), (0, 1)]),
        lambda: Cone2.from_generators([(1, 0, 0)]),
        lambda: Cone3(((1, 0),)),
        lambda: Cone2(((1, 0, 0),)),
    ]
    for case in cases:
        with pytest.raises(GeometryError, match="coordinates"):
            case()


def test_a_cone_of_the_other_dimension_is_refused():
    """`from_points3` and `from_points` refuse a cone of the other dimension
    with a `GeometryError`, instead of building a 3D set that carries a
    planar cone or failing with a bare exception."""
    triangle, tetra = [(0, 0), (1, 0), (0, 1)], [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cases = [
        (from_points3, tetra, Cone2(())),
        (from_points3, tetra, Cone2.from_generators([(0, 1)])),
        (from_points, triangle, Cone3.from_generators([])),
        (from_points, triangle, Cone3.from_generators([(0, 0, 1)])),
    ]
    for build, points, cone in cases:
        with pytest.raises(GeometryError, match="cone"):
            build(points, cone)


# ---------------------------------------------------------------------------
# the integer ray test against the Fourier-Motzkin oracle

SMALL = st.integers(-3, 3)
HUGE = st.one_of(st.integers(2**64, 2**70), st.integers(-(2**70), -(2**64)))
COEFF = st.one_of(SMALL, SMALL, HUGE)


@st.composite
def homogeneous_systems(draw):
    """(strict, weak) rows in two or three variables, at least one strict.

    The rows are integer combinations of one, two or three basis vectors, so
    rank 1 and rank 2 come up often; zero, repeated, scaled and antiparallel
    rows, and entries beyond 2**64, are mixed in.
    """
    dim = draw(st.sampled_from([2, 3]))
    basis = [draw(st.tuples(*[COEFF] * dim)) for _ in range(draw(st.integers(1, dim)))]
    weights = st.tuples(*(st.integers(-3, 3) for _ in basis))
    rows = basis + [tuple(sum(t * b[c] for t, b in zip(ts, basis)) for c in range(dim))
                    for ts in draw(st.lists(weights, max_size=5))]
    rows = draw(st.permutations(rows))
    for r in list(rows):
        kind = draw(st.sampled_from(["none", "none", "repeat", "scaled", "antiparallel", "zero"]))
        k = draw(st.integers(1, 3) | st.integers(2**64, 2**65))
        extra = {"none": None, "repeat": r, "scaled": vscale(k, r), "antiparallel": vscale(-k, r),
                 "zero": (0,) * dim}[kind]
        if extra is not None:
            rows.insert(draw(st.integers(0, len(rows))), extra)
    weak_mask = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    if all(weak_mask):
        weak_mask[draw(st.integers(0, len(rows) - 1))] = False
    strict = [a for a, w in zip(rows, weak_mask) if not w]
    weak = [a for a, w in zip(rows, weak_mask) if w]
    return strict, weak


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(homogeneous_systems())
def test_cone_strictly_feasible_matches_fourier_motzkin(system):
    strict, weak = system
    want = fm_cone_strictly_feasible([(a, "<") for a in strict] + [(b, "<=") for b in weak])
    assert cone_strictly_feasible(strict, weak) == want


GEN = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(any)


@st.composite
def generator_sets(draw):
    """Random, coplanar or antipodal sets of nonzero integer generators."""
    kind = draw(st.sampled_from(["random", "coplanar", "antipodal"]))
    if kind == "random":
        return draw(st.lists(GEN, min_size=1, max_size=5))
    if kind == "coplanar":
        a, b = draw(GEN), draw(GEN)
        combos = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        gens = [tuple(s * x + t * y for x, y in zip(a, b)) for s, t in draw(st.lists(combos, max_size=5))]
        return [g for g in gens if any(g)] or [a]
    gens = draw(st.lists(GEN, min_size=1, max_size=4))
    g, k = draw(st.sampled_from(gens)), draw(st.integers(1, 4))
    return gens + [tuple(-k * x for x in g)]


def _constructs(gens):
    try:
        Cone3.from_generators(gens)
    except GeometryError:
        return False
    return True


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(generator_sets())
def test_cone3_pointedness_matches_fourier_motzkin(gens):
    want = fm_cone_strictly_feasible([(g, "<") for g in gens])
    assert cone_strictly_feasible(gens) == want
    assert _constructs(gens) == want


VEC3 = (st.tuples(SMALL, SMALL, SMALL) | st.tuples(COEFF, COEFF, COEFF)).filter(any)


@st.composite
def strict_systems3(draw):
    """Nonzero rows in three variables of rank 1, 2 or 3, with repeated, scaled and antiparallel rows mixed in."""
    basis = [draw(VEC3) for _ in range(draw(st.sampled_from([1, 2, 3])))]
    weights = st.tuples(*(st.integers(-3, 3) for _ in basis))
    rows = basis + [tuple(sum(t * b[c] for t, b in zip(ts, basis)) for c in range(3))
                    for ts in draw(st.lists(weights, max_size=5))]
    rows = draw(st.permutations([r for r in rows if any(r)]))
    for r in list(rows):
        kind = draw(st.sampled_from(["none", "none", "repeat", "scaled", "antiparallel"]))
        k = draw(st.integers(1, 3) | st.integers(2**64, 2**65))
        extra = {"none": None, "repeat": r, "scaled": vscale(k, r), "antiparallel": vscale(-k, r)}[kind]
        if extra is not None:
            rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(strict_systems3())
def test_cone_strictly_feasible3_matches_fourier_motzkin(rows):
    """Strict rows only, in three variables."""
    assert cone_strictly_feasible(rows) == fm_cone_strictly_feasible([(a, "<") for a in rows])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(strict_systems3(), st.data())
def test_mixed_cone_strictly_feasible3_matches_fourier_motzkin(rows, data):
    """Rows in three variables split into strict and weak ones, with zero rows of either kind mixed in."""
    weak_mask = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    strict = [a for a, w in zip(rows, weak_mask) if not w] or rows[:1]
    weak = [a for a, w in zip(rows, weak_mask) if w]
    zeros = data.draw(st.sampled_from(["none", "none", "none", "weak", "strict"]))
    if zeros == "weak":
        weak.insert(data.draw(st.integers(0, len(weak))), (0, 0, 0))
    elif zeros == "strict":
        strict.insert(data.draw(st.integers(0, len(strict))), (0, 0, 0))
    want = fm_cone_strictly_feasible([(a, "<") for a in strict] + [(b, "<=") for b in weak])
    assert cone_strictly_feasible(strict, weak) == want


NEAR_2_61 = st.sampled_from((2**61 - 1, 2**61 - 2, 1 - 2**61, 3 - 2**61))


@st.composite
def split_systems(draw):
    """(rows, ns): integer triples of rank 1, 2 or 3, the first ns of them
    strict (at least one), with zero and repeated rows and entries near 2**61."""
    entry = st.one_of(SMALL, SMALL, NEAR_2_61)
    basis = [draw(st.tuples(entry, entry, entry).filter(any)) for _ in range(draw(st.integers(1, 3)))]
    weights = st.tuples(*(st.integers(-2, 2) for _ in basis))
    rows = basis + [tuple(sum(t * b[c] for t, b in zip(ts, basis)) for c in range(3))
                    for ts in draw(st.lists(weights, max_size=4))]
    for r in list(rows):
        kind = draw(st.sampled_from(["none", "none", "repeat", "zero"]))
        if kind != "none":
            rows.insert(draw(st.integers(0, len(rows))), r if kind == "repeat" else (0, 0, 0))
    rows = draw(st.permutations(rows))
    return rows, draw(st.integers(1, len(rows)))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(split_systems())
def test_seidel_resumed_at_every_split_decides_as_one_run(system):
    """The `_seidel` state of rows[:k], resumed on the rest, decides every
    split k as `cone_strictly_feasible` and Fourier-Motzkin do; a prefix
    with no solution leaves none to the whole system."""
    rows, ns = system
    strict, weak = rows[:ns], rows[ns:]
    want = fm_cone_strictly_feasible([(a, "<") for a in strict] + [(b, "<=") for b in weak])
    assert cone_strictly_feasible(strict, weak) == want
    for k in range(len(rows) + 1):
        state = _seidel(rows[:k], min(k, ns))
        assert (state is not None and _seidel(rows, ns, k, state) is not None) == want, k


def _edge_case_systems(rng, big=2**61 - 1):
    """(strict, weak) systems on the boundary cases of the pair sweep and the
    triple step, entries up to 2**61 - 1: pairs whose rows span exactly a half
    turn, repeated and antiparallel rows, and triples whose weak rows pin the
    closed cone to a plane or a ray."""
    def vec(dim):
        while True:
            v = tuple(rng.choice((rng.randint(-3, 3), rng.randint(-big, big))) for _ in range(dim))
            if any(v):
                return v

    def split(rows, weak_rows=()):
        strict, weak = [], list(weak_rows)
        for r in rows:
            (weak if rng.random() < 0.4 else strict).append(r)
        return strict or [rows[0]], weak

    for _ in range(120):
        d = vec(2)
        side = [rot90(d)] + [r for r in (vec(2) for _ in range(rng.randint(0, 3))) if cross2(d, r) > 0]
        ends = [d, vscale(-rng.randint(1, 3), d)]
        strict, weak = split(side)
        for r in ends:
            (weak if rng.random() < 0.6 else strict).append(r)
        yield strict, weak
        dim = rng.choice((2, 3))
        rows = [vec(dim) for _ in range(rng.randint(1, 3))]
        for r in list(rows):
            rows.insert(rng.randint(0, len(rows)), vscale(rng.choice((1, 2, -1, -3)), r))
        yield split(rows)
        a, b = vec(3), vec(3)
        pins = [a, vscale(-rng.randint(1, 2), a)]
        if rng.random() < 0.6:
            pins += [b, vneg(b)]
            if rng.random() < 0.5:  # and a half-space cuts that line to a ray
                pins.append(vec(3))
        n = cross3(a, b)
        extra = [vscale(rng.choice((1, -1)), n), vadd(a, b)] if any(n) else []
        rows = [vec(3) for _ in range(rng.randint(0, 3))] + extra
        yield split(rows or [vec(3)], pins)


def test_cone_strictly_feasible_order_and_edge_cases():
    """The answer matches Fourier-Motzkin on the rows as given, reversed and
    rotated."""
    rng = random.Random(1991)
    for strict, weak in _edge_case_systems(rng):
        want = fm_cone_strictly_feasible([(a, "<") for a in strict] + [(b, "<=") for b in weak])
        i, j = rng.randrange(len(strict)), rng.randrange(len(weak) + 1)
        for s, w in ((strict, weak), (strict[::-1], weak[::-1]), (strict[i:] + strict[:i], weak[j:] + weak[:j])):
            assert cone_strictly_feasible(s, w) == want, (s, w)


def test_cone_strictly_feasible3_by_rank():
    """Systems in three variables, one or more of each rank."""
    assert cone_strictly_feasible([])
    assert cone_strictly_feasible([(1, 2, 3), (2, 4, 6)])
    assert not cone_strictly_feasible([(1, 2, 3), (-1, -2, -3)])
    assert cone_strictly_feasible([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert not cone_strictly_feasible([(1, 0, 0), (0, 1, 0), (-1, -1, 0)])
    assert cone_strictly_feasible([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert not cone_strictly_feasible([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    # rank 3 whose closed cone is a single ray: no interior
    assert not cone_strictly_feasible([(1, 1, 0), (-1, 1, 0), (0, -1, 0), (0, 0, 1)])
    assert cone_strictly_feasible([(1, 0, 0), (-1, 0, 1), (0, 1, 0), (0, -1, 1)])
    # strict and weak rows, rank 1
    assert cone_strictly_feasible([(-1, -2, -3)], [(-2, -4, -6)])
    assert cone_strictly_feasible([(1, 2, 3)], [(2, 4, 6)])
    assert not cone_strictly_feasible([(1, 2, 3)], [(-1, -2, -3)])
    # rank 2: x > 0 strictly, y >= 0 and x + y <= 0 leave nothing
    assert not cone_strictly_feasible([(-1, 0, 0)], [(0, -1, 0), (1, 1, 0)])
    assert cone_strictly_feasible([(-1, 0, 0)], [(0, -1, 0), (-1, 1, 0)])
    # rank 3: the weak rows pin u to the ray of (1, 1, 1), which the strict row must see
    weak = [(-1, 1, 0), (0, -1, 1), (1, 0, -1), (-1, -1, -1)]
    assert cone_strictly_feasible([(-1, 0, 0)], weak)
    assert not cone_strictly_feasible([(1, 0, 0)], weak)
    # weak rows whose closed cone is {0}
    assert not cone_strictly_feasible([(1, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    # zero rows: a strict one fails, a weak one holds, no strict row is feasible
    assert not cone_strictly_feasible([(0, 0, 0)], [])
    assert cone_strictly_feasible([(1, 0, 0)], [(0, 0, 0)])
    assert cone_strictly_feasible([], [(1, 0, 0), (-1, 0, 0)])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(generator_sets(), st.data())
def test_in_cone_span_matches_fourier_motzkin(gens, data):
    kind = data.draw(st.sampled_from(["zero", "vector", "vector", "combination", "combination"]))
    if kind == "zero":
        v = (0, 0, 0)
    elif kind == "vector":
        v = data.draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
    else:
        weights = data.draw(st.lists(st.integers(-1, 3), min_size=len(gens), max_size=len(gens)))
        v = tuple(sum(t * g[c] for t, g in zip(weights, gens)) for c in range(3))
    assert _in_cone_span(v, gens) == fm_in_cone_span(v, gens)


VEC2 = st.tuples(COEFF, COEFF).filter(any)


@st.composite
def planar_generator_sets(draw):
    """0-5 nonzero integer pairs: random ones, a half-plane (a line and a
    third ray) or the whole plane (three rays around the origin), with
    repeated, scaled and antiparallel copies mixed in."""
    kind = draw(st.sampled_from(["random", "random", "half-plane", "whole-plane"]))
    if kind == "random":
        gens = draw(st.lists(VEC2, max_size=5))
    elif kind == "half-plane":
        a = draw(VEC2)
        gens = [a, vscale(-draw(st.integers(1, 3)), a), draw(VEC2)]
    else:
        a, b = draw(VEC2), draw(VEC2)
        gens = [a, b] + ([vneg(vadd(a, b))] if any(vadd(a, b)) else [])
    for _ in range(draw(st.integers(0, 5 - len(gens))) if gens else 0):
        r = draw(st.sampled_from(gens))
        k = draw(st.integers(1, 3) | st.integers(2**64, 2**65))
        gens.append(draw(st.sampled_from([r, vscale(k, r), vscale(-k, r)])))
    return draw(st.permutations(gens))


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(planar_generator_sets(), st.lists(VEC2, max_size=3))
def test_cone2_matches_cross_product_casework(raw, probes):
    try:
        want = casework_cone2_gens(raw)
    except GeometryError:
        with pytest.raises(GeometryError):
            Cone2.from_generators(raw)
        return
    cone = Cone2.from_generators(raw)
    assert cone.gens == want
    for v in [(0, 0), *cone.gens, *map(vneg, cone.gens), *probes]:
        assert cone.contains_vector(v) == casework_contains_vector2(want, v)


@pytest.mark.parametrize("count", [8, 9, 12])
def test_ring_cone_constructs_within_a_gib(count):
    out = run_capped(f"""
        from minkpair.core import Cone3
        ring = {RING[:count]!r}
        print(len(Cone3.from_generators([(x, y, 7) for x, y in ring]).gens))
    """)
    assert int(out) == count


def test_parse_rational_accepts_integers_fractions_and_plain_decimals():
    cases = {"3": 3, " -3/4 ": Fraction(-3, 4), "+2/6": Fraction(1, 3), "1.25": Fraction(5, 4),
             "-.5": Fraction(-1, 2), "2.": 2, "007/014": Fraction(1, 2)}
    for text, value in cases.items():
        got = parse_rational(text)
        assert type(got) is Fraction and got == value


def test_parse_rational_rejects_everything_else():
    for text in ("", "1e3", "1E-3", "2.5e1", "1/0", "1/", "/2", "1//2", "1/-2", "--1", "0x10",
                 "1_000", "nan", "inf", "1 / 2", "\u0661\u0662", "1.5/2", "."):
        with pytest.raises(GeometryError):
            parse_rational(text)


def test_parse_rational_refuses_huge_exponents_unevaluated():
    # Fraction("1e1000000") alone takes about 0.3 s; the last two would need
    # gigabytes.  Refusal must come from the syntax, before any arithmetic.
    start = time.perf_counter()
    for text in ("1e1000000", "1e999999999", "-7.5E+999999999", "1/2e999999999"):
        with pytest.raises(GeometryError, match="bad rational"):
            parse_rational(text)
    assert time.perf_counter() - start < 0.05


# ---------------------------------------------------------------------------
# no float in any predicate (ROADMAP aim 3)

EXACT_MODULES = ("core.py", "planar.py", "dc.py", "spatial.py")


def _float_uses(tree):
    """Line numbers where the module names `float` (as a name or an
    attribute) or writes a float literal, outside the assignment to INF."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "INF" for t in node.targets):
            exempt |= {id(n) for n in ast.walk(node.value)}
    return sorted(
        node.lineno for node in ast.walk(tree) if id(node) not in exempt and (
            isinstance(node, ast.Name) and node.id == "float"
            or isinstance(node, ast.Attribute) and node.attr == "float"
            or isinstance(node, ast.Constant) and type(node.value) is float)
    )


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_modules_never_name_float(module):
    source = (Path(minkpair.__file__).parent / module).read_text(encoding="utf-8")
    assert _float_uses(ast.parse(source)) == []


def test_float_scan_sees_names_attributes_and_literals():
    tree = ast.parse("INF = float('inf')\nx = float(1)\ny = 0.5\nz = builtins.float\n")
    assert _float_uses(tree) == [2, 3, 4]
