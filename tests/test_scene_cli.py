import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkpair.cli import main
from minkpair.scene import SceneError, dump_scene, load_scene, parse_scene
from minkpair.svg import _region_halfplanes, project_upper_faces
from conftest import SCENES, rand_cone2, rand_vpolygon, run_capped
from oracles import chain_max_halfplanes

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# scene parsing

def test_scene_round_trip_on_fixtures():
    for name in ("ex29.json", "ex210.json", "ex73.json"):
        scene = load_scene(SCENES / name)
        text = dump_scene(sets=scene.sets)
        again = parse_scene(text)
        assert again.sets == scene.sets
        assert dump_scene(sets=again.sets) == text
    dc = load_scene(SCENES / "dc_examples.json")
    text = dump_scene(functions=dc.functions)
    assert parse_scene(text).functions == dc.functions


def test_scene_rejects_bad_input():
    with pytest.raises(SceneError):
        parse_scene("{not json")
    with pytest.raises(SceneError):
        parse_scene('{"sets": {"A": {"dim": 2, "points": [[0.5, "0"]], "cone": []}}}')
    with pytest.raises(SceneError):
        parse_scene('{"sets": {"A": {"dim": 4, "points": [["0"]], "cone": []}}}')
    with pytest.raises(SceneError):
        parse_scene('{"sets": {"A": {"dim": 2, "points": [], "cone": []}}}')
    with pytest.raises(SceneError):
        parse_scene('{"sets": {"A": {"dim": 2, "points": [["0","0"]], "cone": [["1","0"],["-1","0"]]}}}')
    with pytest.raises(SceneError, match="duplicate"):
        parse_scene('{"sets": {"A": {"dim": 2, "points": [["0","0"]], "cone": []}, '
                    '"A": {"dim": 2, "points": [["1","1"]], "cone": []}}}')
    for doc in (
        {"sets": []},
        {"functions": []},
        {"sets": {"A": {"dim": 2, "points": [["0", "0"]], "cone": 5}}},
        {"functions": {"g": {"domain": 5, "breakpoints": ["-1", "1"], "values": ["0", "0"]}}},
        {"functions": {"g": {"domain": ["-1", "1"], "breakpoints": 5, "values": ["0", "0"]}}},
        {"functions": {"g": {"domain": ["-1", "1"], "breakpoints": ["-1", "1"], "values": 5}}},
    ):
        with pytest.raises(SceneError):
            parse_scene(json.dumps(doc))


# arbitrary JSON built from the scene vocabulary, and near-valid scenes
GOOD = ["0", "1", "-1", "2", "1/2", "-3/2"]
RATIONAL = st.sampled_from(GOOD * 10 + ["1/0", "x", ""])
KEY = st.sampled_from(["sets", "functions", "dim", "points", "cone", "domain",
                       "breakpoints", "values", "A", "B"])
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False), RATIONAL),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(KEY, inner, max_size=4)),
    max_leaves=12,
)


@st.composite
def damaged(draw, spec):
    """spec as is, or with one field dropped or replaced by arbitrary JSON."""
    key = draw(st.sampled_from([None] * (2 * len(spec)) + list(spec)))
    if key is not None:
        if draw(st.booleans()):
            spec[key] = draw(JSON)
        else:
            del spec[key]
    return spec


@st.composite
def set_spec(draw, dim):
    vector = st.lists(RATIONAL, min_size=dim, max_size=dim)
    return draw(damaged({
        "dim": dim,
        "points": draw(st.lists(vector, min_size=1, max_size=4)),
        "cone": draw(st.lists(vector, max_size=2)),
    }))


@st.composite
def function_spec(draw):
    xs = ["-1", *draw(st.lists(st.sampled_from(["-1/2", "0", "1/2"]), max_size=2, unique=True)), "1"]
    xs.sort(key=Fraction)
    return draw(damaged({
        "domain": ["-1", "1"],
        "breakpoints": xs,
        "values": draw(st.lists(RATIONAL, min_size=len(xs), max_size=len(xs))),
    }))


@st.composite
def scenes(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(JSON)
    dim = draw(st.sampled_from([2, 3]))
    doc = {
        "sets": {name: draw(set_spec(dim)) for name in ("A", "B")},
        "functions": {name: draw(function_spec()) for name in ("A", "B")},
    }
    return draw(damaged(doc))


COMMANDS = st.sampled_from([
    ["summand", "--pair", "A,B"], ["reduced", "--pair", "A,B"], ["minimal", "--pair", "A,B"],
    ["reduce", "--pair", "A,B"], ["kernel", "--pair", "A,B"], ["equiv", "--pairs", "A,B,B,A"],
    ["dcmin", "--pair", "A,B"], ["sum", "--sets", "A,B"], ["render", "--sets", "A,B"],
    ["render", "--sets", "A,B", "--project", "0,0,1"],
])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scenes(), COMMANDS)
def test_cli_any_scene_shape_exits_zero_or_two(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], "--scene", str(path), *argv[1:]])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# CLI behaviour

def test_cli_equiv_example_29(capsys):
    code, out, _ = run(capsys, "equiv", "--scene", str(SCENES / "ex29.json"), "--pairs", "A,B,E,F")
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True


def test_cli_minimal_example_210(capsys):
    code, out, _ = run(capsys, "minimal", "--scene", str(SCENES / "ex210.json"), "--pair", "A,B")
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"] is True
    assert doc["note"] == "1 shared normal"


def test_cli_false_verdict_exits_zero(capsys):
    code, out, _ = run(capsys, "equiv", "--scene", str(SCENES / "ex210.json"), "--pairs", "A,B,B,A")
    assert code == 0
    assert json.loads(out)["equivalent"] is False


def test_cli_errors_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "equiv", "--scene", str(SCENES / "ex29.json"), "--pairs", "A,B,E,NOPE")
    assert code == 2 and "NOPE" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "minimal", "--scene", str(bad), "--pair", "A,B")
    assert code == 2 and "JSON" in err
    code, _, err = run(capsys, "minimal", "--scene", str(SCENES / "ex29.json"), "--pair", "A,B")
    assert code == 2  # no 3D minimality decision
    rays = {n: {"dim": 2, "points": [["0", "0"]], "cone": [g]}
            for n, g in (("U", ["0", "1"]), ("V", ["1", "0"]))}
    bad.write_text(json.dumps({"sets": rays}))
    code, out, err = run(capsys, "reduced", "--scene", str(bad), "--pair", "U,V")
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "incompatible recession cones" in err


def test_cli_sum_echoes_neutral_element(tmp_path, capsys):
    scene = {
        "sets": {
            "P": {"dim": 2, "points": [["0", "0"], ["2", "0"], ["1", "1"]], "cone": [["0", "1"]]},
            "V0": {"dim": 2, "points": [["0", "0"]], "cone": [["0", "1"]]},
        }
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    code, out, _ = run(capsys, "sum", "--scene", str(path), "--sets", "P,V0", "--out", "-")
    assert code == 0
    doc = json.loads(out)
    parsed = parse_scene(out)
    original = load_scene(path)
    assert parsed.sets["P+V0"] == original.sets["P"]
    assert set(doc["sets"]) == {"P+V0"}


def test_cli_reduce_and_kernel(tmp_path, capsys):
    scene = {
        "sets": {
            "A": {"dim": 2, "points": [["1", "0"], ["4", "2"]], "cone": [["0", "1"]]},
            "B": {"dim": 2, "points": [["0", "0"], ["2", "0"]], "cone": [["0", "1"]]},
        }
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    code, out, _ = run(capsys, "reduce", "--scene", str(path), "--pair", "A,B")
    assert code == 0
    doc = json.loads(out)
    assert doc["zero_minimal"] is True
    assert "first" in doc["certificate"] and "second" in doc["certificate"]
    code, out, _ = run(capsys, "kernel", "--scene", str(path), "--pair", "B,B")
    assert code == 2  # (B, B) is not 0-minimal: shared direction
    scene["sets"]["PT"] = {"dim": 2, "points": [["1", "0"]], "cone": [["0", "1"]]}
    path.write_text(json.dumps(scene))
    code, out, _ = run(capsys, "kernel", "--scene", str(path), "--pair", "PT,B")
    assert code == 0
    assert json.loads(out)["kernel"] == [["0", "0"], ["2", "0"]]


def test_cli_summand_certificate(capsys):
    code, out, _ = run(capsys, "summand", "--scene", str(SCENES / "ex210.json"), "--pair", "B,A")
    assert code == 0
    doc = json.loads(out)
    assert doc["summand"] is False and "certificate" not in doc
    code, out, _ = run(capsys, "summand", "--scene", str(SCENES / "ex73.json"), "--pair", "B,D")
    assert code == 0
    assert json.loads(out)["summand"] is True


def test_cli_reduced_subcommand(capsys):
    code, out, _ = run(capsys, "reduced", "--scene", str(SCENES / "ex29.json"), "--pair", "A,B")
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced"] is False
    assert doc["certificate"]["equiparallel_edges"]
    code, out, _ = run(capsys, "reduced", "--scene", str(SCENES / "ex210.json"), "--pair", "A,B")
    doc = json.loads(out)
    assert doc["reduced"] is False  # one shared normal: minimal but not reduced
    assert doc["certificate"]["shared_normals"] == [[0, -1]]


def test_cli_dcmin(capsys):
    code, out, _ = run(capsys, "dcmin", "--scene", str(SCENES / "dc_examples.json"), "--pair", "g0,h0")
    assert code == 0
    doc = json.loads(out)
    assert doc["hartman_minimal"] is True
    assert doc["certificate"]["g_min"]["values"] == ["1/2", "-1/2", "1/2"]
    assert doc["certificate"]["h_min"]["breakpoints"] == ["-1", "-1/2", "1/2", "1"]


def test_cli_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "equiv", "--scene", str(SCENES / "ex73.json"), "--pairs", "C,D,E,F")
        outs.add(out)
    assert len(outs) == 1


# ---------------------------------------------------------------------------
# rendering

def test_render_2d_deterministic_and_wellformed(tmp_path, capsys):
    args = ("render", "--scene", str(SCENES / "ex210.json"), "--sets", "A1,B1", "--out", "-")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    root = ET.fromstring(out1)
    assert root.tag.endswith("svg")
    assert "polygon" in out1 and "dasharray" not in out1


def test_render_bounded_polygon_inside_its_viewport_is_its_chain(tmp_path, capsys):
    """The clipped region of a polygon that the viewport holds is the
    polygon itself: its chain, in pixel coordinates, up to rotation."""
    pts = [["0", "0"], ["3", "-1/2"], ["9/2", "1"], ["7/3", "5/2"], ["-1/2", "3/2"]]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"sets": {"P": {"dim": 2, "points": pts}}}))
    code, out, _ = run(capsys, "render", "--scene", str(path), "--sets", "P",
                       "--viewport=-2,-2,6,4", "--out", "-")
    assert code == 0
    chain = load_scene(path).sets["P"].chain
    assert len(chain) == 5
    want = [f"{float((x + 2) * 40):.3f},{float((4 - y) * 40):.3f}" for x, y in chain]
    (poly,) = [el for el in ET.fromstring(out) if el.tag.endswith("polygon")]
    got = poly.get("points").split()
    assert len(got) == len(want) and f" {' '.join(got)} " in f" {' '.join(want + want)} "


def test_render_unbounded_draws_dashed_rays(tmp_path, capsys):
    scene = {"sets": {"A": {"dim": 2, "points": [["0", "0"], ["2", "0"]], "cone": [["0", "1"]]}}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    code, out, _ = run(
        capsys, "render", "--scene", str(path), "--sets", "A",
        "--viewport=-1,-1,3,3", "--out", "-",
    )
    assert code == 0
    assert "stroke-dasharray" in out
    ET.fromstring(out)


def test_render_single_point_is_dot(tmp_path, capsys):
    scene = {"sets": {"P": {"dim": 2, "points": [["1", "1"]], "cone": []}}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    code, out, _ = run(capsys, "render", "--scene", str(path), "--sets", "P", "--out", "-")
    assert code == 0
    assert out.count("<circle") >= 1
    ET.fromstring(out)


def test_render_example_29_projection_combinatorics(capsys):
    code, out, _ = run(
        capsys, "render", "--scene", str(SCENES / "ex29.json"), "--sets", "A,B,E,F",
        "--project", "0,0,-1", "--out", "-",
    )
    assert code == 0
    ET.fromstring(out)
    # projection oracle computed by hand: B's upper faces along (0,0,-1) are
    # two triangles sharing the (-1,-1)-(1,1) diagonal
    scene = load_scene(SCENES / "ex29.json")
    faces = project_upper_faces(scene.sets["B"], (0, 0, -1))
    assert len(faces) == 2
    flat = {frozenset(c) for c in faces}
    assert flat == {
        frozenset({(-1, -1), (1, 1), (-1, 1)}),
        frozenset({(-1, -1), (1, 1), (1, -1)}),
    }
    # E projects to the hexagon silhouette with interior structure
    faces_e = project_upper_faces(scene.sets["E"], (0, 0, -1))
    pts = {p for c in faces_e for p in c}
    assert {(0, -2), (0, 2), (-1, -1), (-1, 1), (1, 1), (1, -1), (0, 0)} <= pts


def test_render_errors(capsys, tmp_path):
    code, _, err = run(capsys, "render", "--scene", str(SCENES / "ex29.json"), "--sets", "A", "--out", "-")
    assert code == 2 and "projection" in err
    scene = {"sets": {"P": {"dim": 2, "points": [["1", "1"]], "cone": []}}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    code, _, _ = run(capsys, "render", "--scene", str(path), "--sets", "P",
                     "--viewport", "0,0,0,5", "--out", "-")
    assert code == 2


# SHA-256 of the README's render command and of ex210's first pair, as
# rendered before the region rows and dashed rays were read off `support`
SHIPPED_RENDERS = [
    (("ex29.json", "A,B,E,F", "--project", "0,0,-1"),
     "251a70296012cfb2c3d73ad0e0e51df6a891910479b60150e60986df031390d3"),
    (("ex210.json", "A,B"),
     "da93e4c2532675ed2c3a4b9da3385f6191eced12b9c11825784be93b029f2d24"),
]


@pytest.mark.parametrize("argv, digest", SHIPPED_RENDERS, ids=["ex29", "ex210"])
def test_render_shipped_scenes_golden(capsys, argv, digest):
    scene, sets, *extra = argv
    code, out, _ = run(capsys, "render", "--scene", str(SCENES / scene), "--sets", sets, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# an unbounded 2D pair (A, B) under a wedge, and its 0-minimal reduction
# (A1, B1); no shipped scene has one.  T is a bounded triangle, a summand
# of A
WEDGE_SETS = {
    name: {"dim": 2, "cone": [["-1", "-1"], ["1", "-2"]], "points": points}
    for name, points in {
        "A": [["0", "0"], ["2", "1/2"], ["3", "3"], ["1/3", "4"], ["-5/2", "2"]],
        "B": [["1", "1"], ["-2", "5/2"], ["4", "0"], ["2", "3"], ["7/3", "-1/5"]],
        "A1": [["1", "0"], ["-5/3", "1"], ["-9/2", "-1"]],
        "B1": [["2", "-3"], ["0", "0"], ["-4", "-1/2"]],
    }.items()
}
WEDGE_SETS["T"] = {"dim": 2, "cone": [], "points": [["0", "0"], ["1", "-1/2"], ["1/2", "1"]]}

# SHA-256 of the output, recorded before the planar and dc canonical forms
# moved onto one integer scale
CLI_GOLDEN = [
    (("dcmin", "dc_examples", "g0,h0"), "e655562e1a42f56e174737b895997710b031f9a5912535201237fb8897cb890e"),
    (("reduce", "wedge", "A,B"), "f71317d31a286dc04ffec9a3779385dc0a10820520663bda04dbe7d309ae7973"),
    (("reduce", "wedge", "A1,B1"), "e475569772d314aedcefea75541eeb8e9f4cc205abfe71b914b2cf663293c16b"),
    (("minimal", "wedge", "A,B"), "51695a4c46a99a7b662f879e64cf0ba73b0b2bfade46b180bea28554b18fcd2f"),
    (("minimal", "wedge", "A1,B1"), "d0e5c791cdd242dfc540fbe445761e5ab9c0f09a6816a3848fb751bc5a1ae3ce"),
    (("kernel", "wedge", "A1,B1"), "2be90d96a3655dece9b25db44462e77085af65b5d78998f9a2198837d4cde838"),
    # recorded before the verdict subcommands shared one path
    (("summand", "ex210", "A0,A"), "05398e55b858acf5fd7788feb9a3619b4cc7be41cddb7d00ea6838941ba1e890"),
    (("summand", "ex210", "B,A"), "387608797c1a4431e0c95c148e465b3a5bfa60367ea1281a297d180a5b8e1a4d"),
    (("summand", "wedge", "T,A"), "47817b14a6cbc5eb66e0e49a042f8feb3459203c731d8b07be668ba77ee7d687"),
    (("reduced", "ex210", "A,B"), "54cff554577c93b0a3300a86a0de88baf15c52f94fc69709416fb7de92119b54"),
    (("sum", "wedge", "A,B"), "ff3b77aa88e032cd2ce22f11b4bcdbf3866b19e2caee93102ec4971f29301d63"),
]


@pytest.mark.parametrize("argv, digest", CLI_GOLDEN, ids=[" ".join(a[::2]) for a, _ in CLI_GOLDEN])
def test_pair_commands_golden(capsys, tmp_path, argv, digest):
    command, scene, names = argv
    path = SCENES / f"{scene}.json"
    if scene == "wedge":
        path = tmp_path / "wedge.json"
        path.write_text(json.dumps({"sets": WEDGE_SETS}))
    option = "--sets" if command == "sum" else "--pair"
    code, out, _ = run(capsys, command, "--scene", str(path), option, names)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of 3D sums and an equivalence on the shipped scenes, recorded
# before 3D sums moved onto the summands' integer lattices
CLI_GOLDEN3 = [
    (("sum", "ex73", "--sets", "A,B"), "339fa16ecc968b110c80f207f6caf8e53b0ceebe839b0d9daa1f3fa8cc63a187"),
    (("sum", "ex73", "--sets", "C,D"), "54e4c27edaadcb2a01d3b390f5d3328431c13f8fd0fc13e96d25e82067251511"),
    (("sum", "ex29", "--sets", "A,B"), "854af95aac01702f37e8008481ff24ae0ed0c745def425d38e015439721340c2"),
    (("sum", "ex29", "--sets", "E,F"), "f4d1ab16d733f5c5a7fc88df4391ea0d5b1c62e7b1071838d5d803fbdaf91ff5"),
    (("equiv", "ex73", "--pairs", "C,D,E,F"), "ff352a76b99493b08e52728a1c8b2cde270aab4a77b7c3eac59b3104661c07be"),
    # recorded before the verdict subcommands shared one path
    (("summand", "ex73", "--pair", "B,D"), "c5ade6b4a531904206a5b2bc8d914f616563fefc8d52a0f96e7dbc981773fe1b"),
    (("summand", "ex29", "--pair", "B,A"), "387608797c1a4431e0c95c148e465b3a5bfa60367ea1281a297d180a5b8e1a4d"),
    (("reduced", "ex29", "--pair", "A,B"), "58ae2d4a05a08b9f02ba5efecfdab6f0a8c7d2fdadb63ee06589575e460f7f74"),
    (("reduced", "ex73", "--pair", "A,B"), "92395792abd0587dcc944c5d1fff1730c0bae65f5bf4e5b985e9f85c9df90a4f"),
    # recorded before both 3D criteria moved onto one hull-vertex scan: 16, 12
    # and 4 equiparallel pairs, in the order the certificate must keep
    (("reduced", "ex73", "--pair", "C,D"), "62931f95da169305b7ba0140e0c94c772bba3df0c9099c521f756557afdb578d"),
    (("reduced", "ex73", "--pair", "E,F"), "3be92d7319ccf5ff137b7dde4203726e2f8699898e238a4c2ecad3002f185cb8"),
    (("reduced", "ex29", "--pair", "E,F"), "6baa44a773441f1ff2ed71b98c3cfa39462d3ba8e2d42c836ce95d224d7d841e"),
]


@pytest.mark.parametrize("argv, digest", CLI_GOLDEN3, ids=[" ".join(a[:2] + a[3:]) for a, _ in CLI_GOLDEN3])
def test_3d_commands_golden(capsys, argv, digest):
    command, scene, option, names = argv
    code, out, _ = run(capsys, command, "--scene", str(SCENES / f"{scene}.json"), option, names)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


TRIANGLE3 = [["0", "0", "0"], ["2", "0", "0"], ["0", "3", "0"]]


@pytest.mark.parametrize("points, project, circles, lines, polygons", [
    ([["1", "2", "3"]], "0,0,-1", 2, 0, 0),  # a point: its dot and the origin's
    ([["1", "2", "3"], ["3", "-1", "0"]], "0,0,-1", 1, 1, 0),  # a segment
    (TRIANGLE3, "1,0,0", 1, 1, 0),  # a flat set edge-on
    (TRIANGLE3, "0,0,-1", 1, 0, 1),  # the same set face-on
], ids=["point", "segment", "edge-on", "face-on"])
def test_render_low_dimensional_3d_sets(capsys, tmp_path, points, project, circles, lines, polygons):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"sets": {"P": {"dim": 3, "points": points}}}))
    code, out, _ = run(capsys, "render", "--scene", str(path), "--sets", "P", "--project", project)
    assert code == 0
    ET.fromstring(out)
    assert (out.count("<circle"), out.count("<line"), out.count("<polygon")) == (circles, lines, polygons)


def test_region_halfplanes_match_chain_max_rows():
    rng = random.Random(0x5EED)
    kinds = set()
    for _ in range(400):
        cone = rand_cone2(rng)
        poly = rand_vpolygon(rng, cone)
        kinds.add(cone.kind)
        assert _region_halfplanes(poly) == chain_max_halfplanes(poly)
    assert kinds == {"trivial", "ray", "wedge"}


def test_cli_refuses_exponent_notation_with_one_line(capsys, tmp_path):
    scene = {"sets": {"P": {"dim": 3, "points": [["1e999999999", "0", "0"]], "cone": []}}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    code, out, err = run(capsys, "sum", "--scene", str(path), "--sets", "P,P", "--out", "-")
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "1e999999999" in err
    good = tmp_path / "g.json"
    good.write_text(json.dumps({"sets": {"P": {"dim": 2, "points": [["1", "1"]], "cone": []}}}))
    for flag, value in (("--viewport", "0,0,1e999999999,5"), ("--project", "0,0,-1e999999999")):
        code, out, err = run(capsys, "render", "--scene", str(good), "--sets", "P",
                             flag, value, "--out", "-")
        assert code == 2 and out == "" and len(err.splitlines()) == 1


HUGE_INT = "1" + "0" * 400  # a plain integer whose pixel value overflows a float


@pytest.mark.parametrize("point, viewport", [
    (["1", "1"], "0,0," + HUGE_INT + ",5"),  # viewport width
    ([HUGE_INT, "1"], None),  # automatic viewport around the point
    ([HUGE_INT, "1"], "0,0,1,1"),  # the point's own pixel position
])
def test_render_refuses_float_overflow_with_one_line(capsys, tmp_path, point, viewport):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"sets": {"P": {"dim": 2, "points": [point], "cone": []}}}))
    extra = ("--viewport", viewport) if viewport else ()
    code, out, err = run(capsys, "render", "--scene", str(path), "--sets", "P", *extra, "--out", "-")
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "float" in err


# Python's limit on int/str conversions (0 when switched off)
MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not MAX_STR_DIGITS, reason="no int/str digit limit")


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # not UTF-8
    b"[" * 200000 + b"]" * 200000,  # deeper than the JSON decoder recurses
    pytest.param(  # an integer literal longer than int() will read
        b'{"sets": {"A": {"dim": 1' + b"0" * MAX_STR_DIGITS + b"}}}", marks=needs_digit_limit),
], ids=["not-utf8", "nested", "long-int-literal"])
def test_cli_refuses_undecodable_and_overnested_scenes_with_one_line(capsys, tmp_path, content):
    path = tmp_path / "s.json"
    path.write_bytes(content)
    with pytest.raises(SceneError):
        load_scene(path)
    code, out, err = run(capsys, "summand", "--scene", str(path), "--pair", "A,B")
    assert code == 2 and out == "" and len(err.splitlines()) == 1


def test_cli_summand_under_a_nine_generator_cone(tmp_path):
    """K = P + M, under the cone over 9 lattice points of a circle; its
    pointedness by Fourier-Motzkin in 9 variables exhausted 1 GiB."""
    ring = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (-4, -3), (-3, -4)]
    cone = [[str(x), str(y), "7"] for x, y in ring]
    p = [(0, 0, 0), (1, 0, 0)]
    k = [(a + x, b + y, c + z) for a, b, c in p for x, y, z in ((0, 0, 0), (0, 1, 0), (0, 0, -1))]
    scene = {"sets": {name: {"dim": 3, "points": [[str(t) for t in v] for v in pts], "cone": cone}
                      for name, pts in (("P", p), ("K", k))}}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(scene))
    out = run_capped(f"""
        from minkpair.cli import main
        raise SystemExit(main(["summand", "--scene", {str(path)!r}, "--pair", "P,K"]))
    """)
    assert json.loads(out)["summand"] is True


@needs_digit_limit
@pytest.mark.parametrize("argv", [
    ("sum", "--sets", "P,Q", "--out", "-"),  # vertices over the denominator d1 * d2
    ("reduced", "--pair", "R,R"),  # integer edge normals of about d1 * d2
    ("minimal", "--pair", "R,R"),
], ids=["sum", "reduced", "minimal"])
def test_cli_refuses_a_result_too_long_to_print_with_one_line(capsys, tmp_path, argv):
    digits = MAX_STR_DIGITS // 2 + 1
    d1, d2 = 10 ** (digits - 1) + 1, 10 ** (digits - 1) + 3  # odd, two apart: coprime
    tri = {d: [["0", "0"], [f"1/{d}", "0"], ["0", f"1/{d}"]] for d in (d1, d2)}
    pts = {"P": tri[d1], "Q": tri[d2], "R": [["0", "0"], [f"1/{d1}", "0"], [f"-1/{d2}", "1"]]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"sets": {n: {"dim": 2, "points": p} for n, p in pts.items()}}))
    code, out, err = run(capsys, argv[0], "--scene", str(path), *argv[1:])
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "too long" in err


@pytest.mark.parametrize("cone", [
    [["1", "0"], ["-1", "0"]],  # a line
    [["1", "0"], ["0", "1"], ["-1", "-1"]],  # the whole plane
], ids=["line", "plane"])
def test_cli_refuses_non_pointed_planar_cones_with_one_line(capsys, tmp_path, cone):
    scene = {"sets": {n: {"dim": 2, "points": [["0", "0"]], "cone": cone} for n in "AB"}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    code, out, err = run(capsys, "summand", "--scene", str(path), "--pair", "A,B")
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "not pointed" in err
