"""Golden-output corpus of the command line tool.

Each case runs `laxcat.cli.main` in process over inputs built with laxcat's
own constructors from fixed seeds, and records the exit code, the sha256 of
stdout and the first line of stderr (the workspace path replaced by <ws>).
The test only compares against tests/golden.json.  After an intended change
of output, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py --write

and say in the change which cases moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from laxcat.cli import CHECKS, main
from laxcat.collage import grothendieck
from laxcat.fincat import product, standard_category
from laxcat.jsonio import (category_to_json, chainmap_to_json,
                           complex_to_json, diagram_to_json, dumps_canonical,
                           profunctor_to_json)
from laxcat.profunctor import hom_profunctor
from laxcat.rand import (_z2_monoid, rand_category, rand_chain_map,
                         rand_complex, rand_diagram, rand_profunctor,
                         rand_quasi_iso_case, rng_from_seed)

GOLDEN = Path(__file__).with_name("golden.json")
# absent only before the first --write
WANT = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def _malformed(source, target, elements, lact=None, ract=None):
    """A profunctor document that no constructor would produce."""
    return {"source": category_to_json(source),
            "target": category_to_json(target),
            "elements": {f"({d},{c})": es for (d, c), es in elements.items()},
            "left_action": lact or {}, "right_action": ract or {}}


def malformed_profunctors():
    """One profunctor per validation message, on each side: the left-hand
    one is acted on by its target, the right-hand one by its source."""
    pt = standard_category("discrete", 1)
    I = standard_category("interval")
    D2 = standard_category("simplex", 2)
    Z2 = _z2_monoid()
    # pt -> I with m0 over 0 and m1 over 1; I -> pt with n0 over 0, n1 over 1
    over_i = {("0", "0"): ["m0"], ("1", "0"): ["m1"]}
    under_i = {("0", "0"): ["n0"], ("0", "1"): ["n1"]}
    return {
        "keyed_left": _malformed(pt, I, over_i, {"u": {"m0": "m1"}, "v": {}}),
        "keyed_right": _malformed(I, pt, under_i, None,
                                  {"u": {"n1": "n0"}, "v": {}}),
        "domain_left": _malformed(pt, I, over_i, {"u": {}}),
        "domain_right": _malformed(I, pt, under_i, None, {"u": {}}),
        "outside_left": _malformed(pt, I, over_i, {"u": {"m0": "m0"}}),
        "outside_right": _malformed(I, pt, under_i, None, {"u": {"n1": "n1"}}),
        "identity_left": _malformed(pt, pt, {("0", "0"): ["a", "b"]},
                                    {"id_0": {"a": "b", "b": "a"}}),
        "identity_right": _malformed(pt, pt, {("0", "0"): ["a", "b"]}, None,
                                     {"id_0": {"a": "b", "b": "a"}}),
        # t.t = e in Z2, but the table squares to a constant
        "functorial_left_z2": _malformed(pt, Z2, {("m", "0"): ["a", "b"]},
                                         {"t": {"a": "b", "b": "b"}}),
        "functorial_right_z2": _malformed(Z2, pt, {("0", "m"): ["a", "b"]},
                                          None, {"t": {"a": "b", "b": "b"}}),
        # 0<=2 acts apart from (1<=2).(0<=1): one violation, an ordered pair
        "functorial_left_simplex": _malformed(
            pt, D2, {("0", "0"): ["a0"], ("1", "0"): ["a1"],
                     ("2", "0"): ["a2", "b2"]},
            {"0<=1": {"a0": "a1"}, "1<=2": {"a1": "a2"},
             "0<=2": {"a0": "b2"}}),
        "functorial_right_simplex": _malformed(
            D2, pt, {("0", "0"): ["a0", "b0"], ("0", "1"): ["a1"],
                     ("0", "2"): ["a2"]},
            None, {"0<=1": {"a1": "a0"}, "1<=2": {"a2": "a1"},
                   "0<=2": {"a2": "b0"}}),
        "commute": _malformed(Z2, Z2, {("m", "m"): ["a", "b", "c"]},
                              {"t": {"a": "b", "b": "a", "c": "c"}},
                              {"t": {"a": "a", "b": "c", "c": "b"}}),
    }


def write_inputs(root: Path) -> dict[str, list[str]]:
    """Write the corpus inputs into root; return each case's argv."""
    def put(name, doc):
        (root / f"{name}.json").write_text(dumps_canonical(doc))

    ws = ["--workspace", str(root)]
    cases = {}
    rng = rng_from_seed(1)
    C, D, E = (rand_category(rng, 3) for _ in range(3))
    put("m", profunctor_to_json(rand_profunctor(rng, C, D, 4)))
    put("m2", profunctor_to_json(rand_profunctor(rng, C, D, 4)))
    put("n", profunctor_to_json(rand_profunctor(rng, D, E, 4)))
    put("c", category_to_json(C))
    square = product(standard_category("interval"),
                     standard_category("simplex", 2))
    put("hom", profunctor_to_json(hom_profunctor(square)))
    discrete = [standard_category("discrete", k) for k in (2, 3, 2)]
    put("dm", profunctor_to_json(
        rand_profunctor(rng, discrete[0], discrete[1], 3)))
    put("dn", profunctor_to_json(
        rand_profunctor(rng, discrete[1], discrete[2], 3)))
    X = rand_diagram(rng, shape_kind="interval", max_fiber_objects=2)
    total = grothendieck(X).total
    T = standard_category("discrete", 2)
    put("x", diagram_to_json(X))
    put("t", category_to_json(T))
    put("interval", category_to_json(standard_category("interval")))
    put("bn", profunctor_to_json(rand_profunctor(rng, total, T, 4)))
    put("bm", profunctor_to_json(rand_profunctor(rng, T, total, 4)))

    cases["compose"] = ws + ["compose", "n", "m"]
    cases["compose_hom"] = ws + ["compose", "hom", "hom"]
    cases["collage"] = ws + ["collage", "m"]
    cases["collage_hom"] = ws + ["collage", "hom"]
    cases["grothendieck"] = ws + ["grothendieck", "x"]
    cases["blockmul"] = ws + ["blockmul", "bn", "bm", "--middle", "x"]

    A, _ = rand_complex(rng, 0, 2)
    B, _ = rand_complex(rng, 0, 2)
    f = rand_chain_map(rng, A, B)
    q, _ = rand_quasi_iso_case(rng)
    put("a", complex_to_json(A))
    put("b", complex_to_json(B))
    put("f", chainmap_to_json(f))
    put("q", chainmap_to_json(q))
    put("tower", {"complexes": ["a", "b"],
                  "maps": [{"matrices": chainmap_to_json(f)["matrices"]}]})
    put("mat", {"matrix": [[rng.randint(-5, 5) for _ in range(5)]
                           for _ in range(4)]})
    put("empty_rows", [[], []])
    cases["cone"] = ws + ["cone", "f"]
    cases["hom_complex"] = ws + ["hom-complex", "a", "b"]
    cases["tot"] = ws + ["tot", "tower"]
    cases["homology"] = ws + ["homology", "a"]
    cases["quasi_iso"] = ws + ["quasi-iso", "f"]
    cases["quasi_iso_random"] = ws + ["quasi-iso", "q"]
    cases["snf"] = ws + ["snf", "mat"]
    cases["snf_empty_rows"] = ws + ["snf", "empty_rows"]

    refs = {
        "bilimit-roundtrip": [["x", "t", "bn"], ["x", "t", "bm"]],
        "absoluteness": [["x", "interval"]],
        "cocontinuity": [["n", "m", "m2"]],
        "semiorthogonal": [["m"], ["hom"]],
        "discrete-multiplication": [["dn", "dm"], ["n", "m"]],
        "multiplicativity": [["dn", "dm"], ["n", "m"]],
        "lax-multiplicativity": [["n", "m"]],
        "monoid-laws": [["c"]],
    }
    for prop in CHECKS:
        for i, names in enumerate(refs[prop]):
            cases[f"check_{prop}_{i}"] = ws + ["check", prop, *names]
        cases[f"check_{prop}_randomized"] = [
            "check", prop, "--randomized", "--count", "2", "--seed", "7"]

    for name, doc in malformed_profunctors().items():
        put(f"bad_{name}", doc)
        cases[f"malformed_{name}"] = ws + ["collage", f"bad_{name}"]
    (root / "garbage.json").write_text("{not json")
    cases["garbage"] = ws + ["homology", "garbage"]
    cases["missing"] = ws + ["homology", "nowhere"]
    cases["wrong_kind"] = ws + ["compose", "n", "a"]
    cases["cap"] = ws + ["--max-objects", "1", "collage", "hom"]
    cases["usage"] = ["frobnicate"]
    cases["out_unwritable"] = ws + ["--out", str(root / "missing" / "out.json"),
                                    "snf", "mat"]
    return cases


def run_case(argv, root: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage line to the terminal width
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(argv)
    lines = err.getvalue().replace(str(root), "<ws>").splitlines()
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_first_line": lines[0] if lines else ""}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, write_inputs(root)


def test_case_list_matches_the_golden_file(corpus):
    _, cases = corpus
    assert sorted(cases) == sorted(WANT)


@pytest.mark.parametrize("name", sorted(WANT))
def test_golden(corpus, name):
    root, cases = corpus
    assert run_case(cases[name], root) == WANT[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cases = write_inputs(root)
        golden = {name: run_case(argv, root) for name, argv in cases.items()}
    GOLDEN.write_text(dumps_canonical(golden))
