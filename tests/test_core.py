import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkpair.core import (
    Cone2,
    Cone3,
    GeometryError,
    ccw_compare,
    _in_cone_span,
    cone_strictly_feasible,
    cone_strictly_feasible3,
    dot,
    in_polar_interior,
    linear_feasible,
    normalize_direction,
    parse_rational,
    vscale,
)
from conftest import RING, rand_direction, run_capped
from oracles import fm_cone_strictly_feasible, fm_in_cone_span


def test_normalize_direction_examples():
    assert normalize_direction((4, -6)) == (2, -3)
    assert normalize_direction((0, 5)) == (0, 1)
    assert normalize_direction((2, 2, -4)) == (1, 1, -2)


def test_normalize_direction_rejects_zero():
    with pytest.raises(GeometryError):
        normalize_direction((0, 0))


def test_normalize_direction_rational_input():
    assert normalize_direction((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)


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
    assert in_polar_interior((1, 0), V)
    assert not in_polar_interior((0, 1), V)
    assert in_polar_interior((5, -3), Cone2(()))


def test_polar_interior_implies_negative_pairing():
    rng = random.Random(11)
    V = Cone2.from_generators([(-2, -1), (-1, 3)])
    for _ in range(200):
        u = rand_direction(rng)
        if not in_polar_interior(u, V):
            continue
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        v = tuple(a * g1 + b * g2 for g1, g2 in zip(*V.gens))
        if v != (0, 0):
            assert dot(u, v) < 0


def test_cone_strictly_feasible_examples():
    # x > 0 and -x > 0 simultaneously: impossible
    assert not cone_strictly_feasible([((-1, 0), "<"), ((1, 0), "<")])
    # x > 0 alone in two variables
    assert cone_strictly_feasible([((-1, 0), "<")])
    # x+y > 0, x-y > 0, -x >= 0: adding the first two forces x > 0
    assert not cone_strictly_feasible([((-1, -1), "<"), ((-1, 1), "<"), ((1, 0), "<=")])
    assert cone_strictly_feasible([])
    assert not cone_strictly_feasible([((0, 0), "<")])
    assert cone_strictly_feasible([((0, 0), "<="), ((0, 0), "=")])
    # an equality leaves one line: u = (0, -1) satisfies y < 0
    assert cone_strictly_feasible([((1, 0), "="), ((0, 1), "<")])
    assert not cone_strictly_feasible([((1, 0), "="), ((0, 1), "<"), ((0, -1), "<")])
    # closed half-plane pair meeting in a line, with the line excluded
    assert cone_strictly_feasible([((1, 1), "<="), ((-1, -1), "<=")])
    assert not cone_strictly_feasible([((1, 1), "<"), ((-1, -1), "<=")])
    big = 2**64 + 1
    assert cone_strictly_feasible([((big, -1), "<"), ((-big, -1), "<")])
    with pytest.raises(GeometryError):
        cone_strictly_feasible([((1, 0), ">")])


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


# ---------------------------------------------------------------------------
# the integer ray test against the Fourier-Motzkin oracle

SMALL = st.integers(-3, 3)
HUGE = st.one_of(st.integers(2**64, 2**70), st.integers(-(2**70), -(2**64)))
COEFF = st.one_of(SMALL, SMALL, HUGE)
REL = st.sampled_from(["<", "<=", "="])


@st.composite
def homogeneous_systems(draw):
    """Rows in two variables, with zero, repeated, scaled and antiparallel rows mixed in."""
    rows = draw(st.lists(st.tuples(st.tuples(COEFF, COEFF), REL), max_size=6))
    for (a, b), _ in list(rows):
        kind = draw(st.sampled_from(["none", "none", "repeat", "scaled", "antiparallel", "zero"]))
        k = draw(st.integers(1, 2**65))
        extra = {"none": None, "repeat": (a, b), "scaled": (k * a, k * b),
                 "antiparallel": (-k * a, -k * b), "zero": (0, 0)}[kind]
        if extra is not None:
            rows.insert(draw(st.integers(0, len(rows))), (extra, draw(REL)))
    return rows


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(homogeneous_systems())
def test_cone_strictly_feasible_matches_fourier_motzkin(rows):
    assert cone_strictly_feasible(rows) == fm_cone_strictly_feasible(rows)


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


def _pointed(gens):
    try:
        Cone3.from_generators(gens)
    except GeometryError:
        return False
    return True


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(generator_sets())
def test_cone3_pointedness_matches_fourier_motzkin(gens):
    assert _pointed(gens) == fm_cone_strictly_feasible([(g, "<") for g in gens])


VEC3 = (st.tuples(SMALL, SMALL, SMALL) | st.tuples(COEFF, COEFF, COEFF)).filter(any)


@st.composite
def strict_systems3(draw):
    """Nonzero rows of rank 1, 2 or 3, with repeated, scaled and antiparallel rows mixed in."""
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
    assert cone_strictly_feasible3(rows) == fm_cone_strictly_feasible([(a, "<") for a in rows])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(strict_systems3(), st.data())
def test_mixed_cone_strictly_feasible3_matches_fourier_motzkin(rows, data):
    """Rows split into strict and weak ones, with zero rows of either kind mixed in."""
    weak_mask = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    strict = [a for a, w in zip(rows, weak_mask) if not w] or rows[:1]
    weak = [a for a, w in zip(rows, weak_mask) if w]
    zeros = data.draw(st.sampled_from(["none", "none", "none", "weak", "strict"]))
    if zeros == "weak":
        weak.insert(data.draw(st.integers(0, len(weak))), (0, 0, 0))
    elif zeros == "strict":
        strict.insert(data.draw(st.integers(0, len(strict))), (0, 0, 0))
    want = fm_cone_strictly_feasible([(a, "<") for a in strict] + [(b, "<=") for b in weak])
    assert cone_strictly_feasible3(strict, weak) == want


def test_cone_strictly_feasible3_by_rank():
    assert cone_strictly_feasible3([])
    assert cone_strictly_feasible3([(1, 2, 3), (2, 4, 6)])
    assert not cone_strictly_feasible3([(1, 2, 3), (-1, -2, -3)])
    assert cone_strictly_feasible3([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert not cone_strictly_feasible3([(1, 0, 0), (0, 1, 0), (-1, -1, 0)])
    assert cone_strictly_feasible3([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert not cone_strictly_feasible3([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    # rank 3 whose closed cone is a single ray: no interior
    assert not cone_strictly_feasible3([(1, 1, 0), (-1, 1, 0), (0, -1, 0), (0, 0, 1)])
    assert cone_strictly_feasible3([(1, 0, 0), (-1, 0, 1), (0, 1, 0), (0, -1, 1)])
    # strict and weak rows, rank 1
    assert cone_strictly_feasible3([(-1, -2, -3)], [(-2, -4, -6)])
    assert cone_strictly_feasible3([(1, 2, 3)], [(2, 4, 6)])
    assert not cone_strictly_feasible3([(1, 2, 3)], [(-1, -2, -3)])
    # rank 2: x > 0 strictly, y >= 0 and x + y <= 0 leave nothing
    assert not cone_strictly_feasible3([(-1, 0, 0)], [(0, -1, 0), (1, 1, 0)])
    assert cone_strictly_feasible3([(-1, 0, 0)], [(0, -1, 0), (-1, 1, 0)])
    # rank 3: the weak rows pin u to the ray of (1, 1, 1), which the strict row must see
    weak = [(-1, 1, 0), (0, -1, 1), (1, 0, -1), (-1, -1, -1)]
    assert cone_strictly_feasible3([(-1, 0, 0)], weak)
    assert not cone_strictly_feasible3([(1, 0, 0)], weak)
    # weak rows whose closed cone is {0}
    assert not cone_strictly_feasible3([(1, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    # zero rows: a strict one fails, a weak one holds, no strict row is feasible
    assert not cone_strictly_feasible3([(0, 0, 0)], [])
    assert cone_strictly_feasible3([(1, 0, 0)], [(0, 0, 0)])
    assert cone_strictly_feasible3([], [(1, 0, 0), (-1, 0, 0)])


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
