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
                           diagram_to_json, dumps_canonical,
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
