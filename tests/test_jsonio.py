import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxcat.collage import collage_of_profunctor
from laxcat.errors import LaxcatError, SchemaError
from laxcat.fincat import build_category, standard_category
from laxcat.jsonio import (category_from_json, category_to_json,
                           chainmap_from_json, chainmap_to_json,
                           collage_to_json, complex_from_json,
                           complex_to_json, diagram_from_json,
                           default_resolver, diagram_to_json,
                           dumps_canonical,
                           homology_to_json,
                           matrix_from_json, parse_degree,
                           profunctor_from_json, profunctor_to_json,
                           sniff_kind, snf_to_json, tower_from_json)
from laxcat.k0chain import (as_matrix, build_complex, homology_all,
                            smith_normal_form)
from laxcat.rand import (rand_category, rand_chain_map, rand_complex,
                         rand_diagram, rand_profunctor,
                         rng_from_seed)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- roundtrips -----------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seeds)
def test_category_roundtrip(seed):
    C = rand_category(rng_from_seed(seed))
    assert category_from_json(category_to_json(C)) == C


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_profunctor_roundtrip(seed):
    rng = rng_from_seed(seed)
    C, D = rand_category(rng, 3), rand_category(rng, 3)
    # the second has one category on both sides, so its document holds two
    # equal copies of it, which load to one object
    for P in (rand_profunctor(rng, C, D), rand_profunctor(rng, C, C)):
        Q = profunctor_from_json(profunctor_to_json(P))
        assert Q.source == P.source and Q.target == P.target
        assert (Q.source is Q.target) == (P.source == P.target)
        assert Q.elements == P.elements
        assert Q.lact == P.lact and Q.ract == P.ract


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_diagram_roundtrip(seed):
    X = rand_diagram(rng_from_seed(seed))
    Y = diagram_from_json(diagram_to_json(X))
    assert Y.shape == X.shape
    assert Y.fiber == X.fiber
    for f in X.shape.morphisms:
        assert Y.transition[f].obmap == X.transition[f].obmap
        assert Y.transition[f].mormap == X.transition[f].mormap


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_complex_roundtrip(seed):
    C, _ = rand_complex(rng_from_seed(seed))
    assert complex_from_json(complex_to_json(C)) == C


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_chainmap_roundtrip(seed):
    rng = rng_from_seed(seed)
    A, _ = rand_complex(rng)
    B, _ = rand_complex(rng)
    f = rand_chain_map(rng, A, B)
    assert chainmap_from_json(chainmap_to_json(f)) == f


def test_canonical_dumps_is_stable():
    C = standard_category("interval")
    a = dumps_canonical(category_to_json(C))
    b = dumps_canonical(category_from_json(json.loads(a)) and
                        category_to_json(category_from_json(json.loads(a))))
    assert a == b
    assert a.endswith("\n")


# -- schema rejection ------------------------------------------------------------

def test_unknown_key_rejected():
    data = category_to_json(standard_category("interval"))
    data["flavor"] = "sour"
    with pytest.raises(SchemaError):
        category_from_json(data)


def test_missing_key_rejected():
    data = category_to_json(standard_category("interval"))
    del data["composition"]
    with pytest.raises(SchemaError):
        category_from_json(data)


def test_conflicting_composition_triples():
    data = category_to_json(standard_category("interval"))
    data["composition"].append(["id_1", "u", "id_1"])
    with pytest.raises(SchemaError):
        category_from_json(data)


def test_bool_rank_rejected():
    data = complex_to_json(build_complex({0: 1}, {}))
    data["ranks"]["0"] = True
    with pytest.raises(SchemaError):
        complex_from_json(data)


def test_null_window_is_unbounded():
    data = complex_to_json(build_complex({0: 1}, {}))
    data["window"] = None
    with pytest.raises(LaxcatError,
                       match=r"^complex: a null window is declared "
                             r"unbounded; only bounded complexes are "
                             r"supported$"):
        complex_from_json(data)


def test_rank_outside_window_rejected():
    data = complex_to_json(build_complex({0: 1}, {}))
    data["ranks"]["7"] = 2
    with pytest.raises(SchemaError):
        complex_from_json(data)


# -- cell keys --------------------------------------------------------------------

def _edited(doc, **fields):
    return {**doc, **fields}


_CAT = category_to_json(standard_category("interval"))
_POINT = category_to_json(standard_category("discrete", 1))
_HOM = {"source": _POINT, "target": _POINT, "elements": {},
        "left_action": {}, "right_action": {}}
_DIAGRAM = {"shape": _POINT, "fibers": {"0": _POINT}, "transitions": {}}
_COMPLEX = complex_to_json(build_complex({0: 1}, {}))

# one malformed document per refusal of the loaders: (command, document,
# message); the document is the command's one input
REFUSALS = {
    "morphism_not_an_object": (
        ["check", "monoid-laws"], _edited(_CAT, morphisms=[5]),
        "category.morphisms[0]: expected a JSON object"),
    "identities_not_strings": (
        ["check", "monoid-laws"], _edited(_CAT, identities={"0": 1}),
        "category.identities: expected an object of strings"),
    "morphisms_not_a_list": (
        ["check", "monoid-laws"], _edited(_CAT, morphisms={}),
        "category.morphisms: expected a list"),
    "morphism_id_not_a_string": (
        ["check", "monoid-laws"],
        _edited(_CAT, morphisms=[{"id": 1, "src": "0", "dst": "0"}]),
        "category.morphisms[0]: ids must be strings"),
    "composition_not_a_list": (
        ["check", "monoid-laws"], _edited(_CAT, composition={}),
        "category.composition: expected a list of triples"),
    "composition_not_a_triple": (
        ["check", "monoid-laws"], _edited(_CAT, composition=[["u", "u"]]),
        "category.composition[0]: expected [g, f, g.f] of strings"),
    "source_not_a_reference": (
        ["collage"], _edited(_HOM, source=5),
        "profunctor.source: expected a name or an inline object"),
    "actions_not_an_object": (
        ["collage"], _edited(_HOM, left_action=[]),
        "profunctor.left_action: expected an object of action tables"),
    "elements_not_an_object": (
        ["collage"], _edited(_HOM, elements=[]),
        "profunctor.elements: expected an object"),
    "fibers_not_an_object": (
        ["grothendieck"], _edited(_DIAGRAM, fibers=[]),
        "diagram.fibers: expected an object"),
    "fibers_miss_a_shape_object": (
        ["grothendieck"], _edited(_DIAGRAM, fibers={}),
        "diagram.fibers: must cover exactly the shape objects"),
    "transitions_not_an_object": (
        ["grothendieck"], _edited(_DIAGRAM, transitions=[]),
        "diagram.transitions: expected an object"),
    "transition_off_the_shape": (
        ["grothendieck"], _edited(_DIAGRAM, transitions={"zz": {}}),
        "diagram.transitions['zz']: unknown shape morphism"),
    "ranks_not_keyed_by_degree": (
        ["homology"], _edited(_COMPLEX, ranks=[]),
        "complex.ranks: expected an object keyed by degree"),
    "window_not_a_pair": (
        ["homology"], _edited(_COMPLEX, window=[0]),
        "complex.window: expected [lo, hi]"),
    "tower_complexes_not_a_list": (
        ["tot"], {"complexes": {}, "maps": []},
        "tower: complexes and maps must be lists"),
    "tower_with_a_map_too_many": (
        ["tot"], {"complexes": [_COMPLEX], "maps": [{"matrices": {}}]},
        "tower: more maps than consecutive pairs"),
    "not_an_object": (
        ["homology"], 5, "cannot infer the kind of a non-object"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_malformed_input_exits_2_in_one_line(name, tmp_path, capsys):
    from laxcat.cli import main
    argv, doc, message = REFUSALS[name]
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    assert main(["--workspace", str(tmp_path), *argv, "doc"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"invalid input: {message}\n"


def test_a_name_needs_a_workspace_in_the_library():
    with pytest.raises(SchemaError, match=r"^cannot resolve name 'c' without "
                                          r"a workspace$"):
        default_resolver("c", "category")


def comma_category(names):
    objs = tuple(names)
    idm = {o: f"id({o})" for o in objs}
    src = {idm[o]: o for o in objs}
    comp = {(m, m): m for m in src}
    return build_category(objs, tuple(sorted(src)), src, dict(src), idm, comp)


def test_cell_keys_with_commas_roundtrip():
    # unique split: only one way to read "(a,b,c)" against these objects
    from laxcat.profunctor import build_profunctor
    C = comma_category(["a,b", "c"])
    D = comma_category(["x"])
    P = build_profunctor(C, D, {("x", "a,b"): ["e0"]}, {}, {})
    Q = profunctor_from_json(profunctor_to_json(P))
    assert Q.elements == P.elements
    assert Q.source is not Q.target


def test_comma_cell_keys_stay_distinct_on_dump():
    # unescaped, ("a,b", "c") and ("a", "b,c") both rendered as "(a,b,c)"
    from laxcat.profunctor import build_profunctor
    P = build_profunctor(comma_category(["c", "b,c"]),
                         comma_category(["a,b", "a"]),
                         {("a,b", "c"): ["p"], ("a", "b,c"): ["q"]}, {}, {})
    data = profunctor_to_json(P)
    assert data["elements"] == {r"(a\,b,c)": ["p"], r"(a,b\,c)": ["q"]}
    assert profunctor_from_json(data) == P
    # the unescaped key names no cell
    data["elements"] = {"(a,b,c)": ["p"]}
    with pytest.raises(SchemaError, match=r"cell key '\(a,b,c\)' names no"):
        profunctor_from_json(data)


def test_ambiguous_cell_key_rejected():
    from laxcat.profunctor import build_profunctor
    C = comma_category(["a", "a,a"])
    D = comma_category(["a", "a,a"])
    P = build_profunctor(C, D, {("a", "a,a"): ["e0"], ("a,a", "a"): ["e1"]},
                         {}, {})
    data = profunctor_to_json(P)
    assert data["elements"] == {r"(a,a\,a)": ["e0"], r"(a\,a,a)": ["e1"]}
    Q = profunctor_from_json(data)
    assert Q == P and Q.source is Q.target
    # "(a,a,a)" would split as both (a)(a,a) and (a,a)(a)
    data["elements"] = {"(a,a,a)": ["e0"]}
    with pytest.raises(SchemaError, match=r"cell key '\(a,a,a\)' names no"):
        profunctor_from_json(data)


# -- misc shapes ------------------------------------------------------------------

def test_matrix_from_json_forms():
    assert matrix_from_json([[1, 2]]) == as_matrix([[1, 2]])
    assert matrix_from_json({"matrix": [[3]]}) == as_matrix([[3]])
    with pytest.raises(SchemaError):
        matrix_from_json({"matrix": [[True]]})


def test_tower_from_json():
    Z = complex_to_json(build_complex({0: 1}, {}))
    data = {"complexes": [Z, Z], "maps": [{"matrices": {"0": [[2]]}}]}
    complexes, maps = tower_from_json(data)
    assert len(complexes) == 2 and len(maps) == 1
    assert maps[0].mat(0)[0, 0] == 2


def test_parse_degree_reads_canonical_decimal_only():
    assert [parse_degree(k, "ranks") for k in (
        "0", "-1", "12", "-0", "01", "+1", "1_0", " 1", "", "-", "\u0663")] \
        == [0, -1, 12, None, None, None, None, None, None, None, None]


def test_parse_degree_under_the_default_int_str_limit():
    """A fresh interpreter keeps Python's default int/str limit of 4 300
    digits, where it has one (3.11 and late 3.10 releases): a key within
    DIGIT_CAP still reads as its degree, a longer one is refused by the
    cap, and no ValueError escapes."""
    script = """
from laxcat.errors import CapExceeded
from laxcat.jsonio import DIGIT_CAP, parse_degree
for digits, n in (("1" + "0" * 4300, 10 ** 4300),
                  ("9" * DIGIT_CAP, 10 ** DIGIT_CAP - 1),
                  ("1" + "0" * 639 + "7", 10 ** 640 + 7)):
    assert parse_degree(digits, "ranks") == n
    assert parse_degree("-" + digits, "ranks") == -n
for key in ("1" * (DIGIT_CAP + 1), "-" + "1" * (DIGIT_CAP + 1)):
    try:
        parse_degree(key, "ranks")
    except CapExceeded as e:
        assert str(e).startswith("ranks: degree key "), e
    else:
        raise AssertionError("no cap")
print("ok")
"""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONINTMAXSTRDIGITS"}
    r = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (0, "ok\n", "")


def test_homology_and_snf_serialization():
    C = build_complex({0: 1, 1: 1}, {1: [[4]]})
    out = homology_to_json(homology_all(C))
    assert out["0"] == {"free": 0, "torsion": [4]}
    dec = smith_normal_form([[2, 4], [6, 8]])
    blob = snf_to_json(dec)
    assert blob["diagonal"] == [2, 4]
    assert all(k in blob for k in ("U", "S", "V"))


def test_collage_to_json_has_origin():
    rng = rng_from_seed(5)
    P = rand_profunctor(rng, rand_category(rng, 2), rand_category(rng, 2))
    data = collage_to_json(collage_of_profunctor(P))
    assert data["origin"]["kind"] == "profunctor"
    assert category_from_json(
        {k: v for k, v in data.items() if k != "origin"})


def test_sniff_kind():
    assert sniff_kind({"composition": []}) == "category"
    assert sniff_kind({"left_action": {}}) == "profunctor"
    assert sniff_kind({"fibers": {}}) == "diagram"
    assert sniff_kind({"ranks": {}}) == "complex"
    assert sniff_kind({"obmap": {}}) == "functor"
    assert sniff_kind({"complexes": []}) == "tower"
    assert sniff_kind({"matrices": {}}) == "chainmap"
    assert sniff_kind([[1]]) == "matrix"
    with pytest.raises(SchemaError):
        sniff_kind({"mystery": 1})
