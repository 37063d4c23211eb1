"""The value classes (cones, sets, facets, functions, scenes): equality, hash,
repr and immutability, and the modules `import minkpair.cli` loads."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from minkpair.core import Cone2, Cone3, _Cone
from minkpair.dc import DcPair, PLConvexFn
from minkpair.planar import BoundaryChain, EdgeMeasure, VPolygon, from_points
from minkpair.scene import Scene, parse_scene
from minkpair.spatial import bounded_edges, from_points3, hull3, minkowski_sum3

SRC = Path(__file__).resolve().parent.parent / "src"


def _values():
    g = PLConvexFn((-1, F(1, 2), 1), (1, 0, 1))
    tetra = hull3([(0, 0, 0), (1, 0, 0), (0, F(1, 2), 0), (0, 0, 1)])
    return {
        "_Cone": _Cone(((1, 0),)),
        "Cone2": Cone2.from_generators([(1, 1), (-1, 1)]),
        "Cone3": Cone3.from_generators([(0, 0, -1)]),
        "EdgeMeasure": EdgeMeasure.from_entries({(1, 0): F(1, 2), (0, 1): 1}),
        "VPolygon": from_points([(0, 0), (1, 0), (0, F(1, 3))], Cone2.from_generators([(0, 1)])),
        "BoundaryChain": BoundaryChain(((0, 0), (1, 0), (1, 1))),
        "PLConvexFn": g,
        "DcPair": DcPair(g, PLConvexFn((-1, 1), (0, 0))),
        "Scene": parse_scene('{"functions": {"h": {"domain": ["-1", "1"], '
                             '"breakpoints": ["-1", "1"], "values": ["0", "0"]}}}'),
        "Facet": tetra.facets[0],
        "Polytope3": tetra,
        "VPolytope3": from_points3([(0, 0, 0), (1, 0, 0)], Cone3.from_generators([(0, 0, 1)])),
        "EdgeWithNormalCone": bounded_edges(from_points3([(0, 0, 0), (1, 0, 0)], Cone3(())))[0],
    }


_FRAC0, _FRAC1, _HALF = "Fraction(0, 1)", "Fraction(1, 1)", "Fraction(1, 2)"
_TETRA_FACETS = (
    f"(Facet(normal=(-1, 0, 0), offset={_FRAC0}, cycle=(0, 1, 2)), "
    f"Facet(normal=(0, -1, 0), offset={_FRAC0}, cycle=(3, 1, 0)), "
    f"Facet(normal=(0, 0, -1), offset={_FRAC0}, cycle=(0, 2, 3)), "
    f"Facet(normal=(1, 2, 1), offset={_FRAC1}, cycle=(1, 3, 2)))"
)
_G = (f"PLConvexFn(breakpoints=(Fraction(-1, 1), {_HALF}, {_FRAC1}), "
      f"values=({_FRAC1}, {_FRAC0}, {_FRAC1}))")
_H = f"PLConvexFn(breakpoints=(Fraction(-1, 1), {_FRAC1}), values=({_FRAC0}, {_FRAC0}))"
_SEGMENT = f"(({_FRAC0}, {_FRAC0}, {_FRAC0}), ({_FRAC1}, {_FRAC0}, {_FRAC0}))"

# recorded from the dataclass implementation
REPRS = {
    "_Cone": "_Cone(gens=((1, 0),))",
    "Cone2": "Cone2(gens=((1, 1), (-1, 1)))",
    "Cone3": "Cone3(gens=((0, 0, -1),))",
    "EdgeMeasure": "EdgeMeasure(den=2, items=(((1, 0), 1), ((0, 1), 2)))",
    "VPolygon": f"VPolygon(cone=Cone2(gens=((0, 1),)), anchor=({_HALF}, {_FRAC0}), "
                "measure=EdgeMeasure(den=1, items=(((0, -1), 1),)))",
    "BoundaryChain": f"BoundaryChain(points=(({_FRAC0}, {_FRAC0}), ({_FRAC1}, {_FRAC0}), "
                     f"({_FRAC1}, {_FRAC1})))",
    "PLConvexFn": _G,
    "DcPair": f"DcPair(g={_G}, h={_H})",
    "Scene": f"Scene(sets={{}}, functions={{'h': {_H}}})",
    "Facet": f"Facet(normal=(-1, 0, 0), offset={_FRAC0}, cycle=(0, 1, 2))",
    "Polytope3": f"Polytope3(vertices=(({_FRAC0}, {_FRAC0}, {_FRAC0}), ({_FRAC0}, {_FRAC0}, {_FRAC1}), "
                 f"({_FRAC0}, {_HALF}, {_FRAC0}), ({_FRAC1}, {_FRAC0}, {_FRAC0})), dim=3, "
                 f"facets={_TETRA_FACETS}, edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))",
    "VPolytope3": f"VPolytope3(bounded=Polytope3(vertices={_SEGMENT}, dim=1, facets=(), "
                  "edges=((0, 1),)), cone=Cone3(gens=((0, 0, 1),)))",
    "EdgeWithNormalCone": f"EdgeWithNormalCone(endpoints={_SEGMENT})",
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_is_pinned(name):
    assert repr(_values()[name]) == REPRS[name]


def test_equality_holds_within_one_class_only():
    assert Cone2(()) != Cone3(())
    assert Cone2(()) == Cone2(()) and hash(Cone2(())) == hash(Cone2(()))
    assert _Cone(()) != Cone2(())


def test_a_sum_at_a_non_least_denominator_equals_its_canonical_form():
    cone = Cone3(())
    p = from_points3([(F(1, 2), 0, 0), (F(1, 2), 1, 0), (F(1, 2), 0, 1)], cone)
    q = from_points3([(F(1, 2), 0, 0)], cone)
    total = minkowski_sum3(p, q)
    fresh = from_points3(total.bounded.vertices, cone)
    assert total.bounded.lattice[0] == 2 and fresh.bounded.lattice[0] == 1
    assert total == fresh and total.bounded == fresh.bounded
    assert hash(total) == hash(fresh)
    assert repr(total) == repr(fresh)


def test_cached_properties_take_no_part_in_equality():
    read = from_points([(0, 0), (2, 1), (1, 3)], Cone2.from_generators([(0, 1)]))
    read.lattice, read.chain, read.cone.u0()
    fresh = from_points([(0, 0), (2, 1), (1, 3)], Cone2.from_generators([(0, 1)]))
    assert "lattice" in vars(read) and "lattice" not in vars(fresh)
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert read.cone == Cone2.from_generators([(0, 1)])


@pytest.mark.parametrize("name", sorted(set(REPRS) - {"Scene"}))
def test_fields_cannot_be_assigned(name):
    value = _values()[name]
    field = REPRS[name].split("(", 1)[1].split("=", 1)[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


def test_a_scene_stays_mutable_and_unhashable():
    scene = Scene()
    scene.sets = {"A": VPolygon(Cone2(()), (0, 0), EdgeMeasure.empty())}
    assert scene == Scene(dict(scene.sets), {}) and scene != Scene()
    with pytest.raises(TypeError):
        hash(scene)


def _loaded_by_cli_import(names):
    """Those of the modules `names` that `import minkpair.cli` adds in a fresh
    interpreter.  The modules an interpreter loads at start-up (`site`, `.pth`
    files) are not counted."""
    code = ("import sys\nbase = set(sys.modules)\nimport minkpair.cli\n"
            f"print(' '.join(sorted({set(names)!r} & (set(sys.modules) - base))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_the_cli_import_loads_no_dataclasses_or_inspect():
    assert _loaded_by_cli_import(["dataclasses", "inspect"]) == []


def test_the_cli_import_loads_no_svg():
    """Only `render` draws, so only `render` loads `minkpair.svg`."""
    assert _loaded_by_cli_import(["minkpair.svg"]) == []
