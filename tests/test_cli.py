import json
import os
import subprocess
import sys
import time
import weakref

import pytest

import laxcat.cli as cli
import laxcat.k0chain as k0chain
from laxcat.cli import CHECKS, _draw, main
from laxcat.collage import Diagram, build_diagram, grothendieck
from laxcat.errors import CapExceeded
from laxcat.fincat import FinCategory, build_category, standard_category
from laxcat.jsonio import (DIGIT_CAP, category_to_json, chainmap_to_json,
                           complex_to_json, diagram_to_json, dumps_canonical,
                           parse_degree, profunctor_to_json)
from laxcat.k0chain import build_chain_map, build_complex
from laxcat.profunctor import Profunctor, build_profunctor, hom_profunctor
from laxcat.rand import rand_diagram, rand_profunctor, rng_from_seed
from laxcat.report import Report


def run(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "laxcat", *argv],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")

    def put(name, doc):
        (root / f"{name}.json").write_text(dumps_canonical(doc))

    I = standard_category("interval")
    pt = standard_category("discrete", 1)
    put("interval", category_to_json(I))
    put("m", profunctor_to_json(build_profunctor(
        pt, I, {("0", "0"): ["m0"], ("1", "0"): ["m1"]},
        {"u": {"m0": "m1"}}, {})))
    put("n", profunctor_to_json(build_profunctor(
        I, pt, {("0", "0"): ["n0"], ("0", "1"): ["n1"]},
        {}, {"u": {"n1": "n0"}})))

    rng = rng_from_seed(11)
    X = rand_diagram(rng, shape_kind="interval", max_fiber_objects=2)
    G = grothendieck(X)
    put("x", diagram_to_json(X))
    put("bn", profunctor_to_json(
        rand_profunctor(rng, G.total, standard_category("discrete", 2), 4)))
    put("bm", profunctor_to_json(
        rand_profunctor(rng, standard_category("discrete", 2), G.total, 4)))

    Z = build_complex({0: 1}, {})
    put("z", complex_to_json(Z))
    put("times2", chainmap_to_json(build_chain_map(Z, Z, {0: [[2]]})))
    put("tower", {"complexes": ["z", "z"],
                  "maps": [{"matrices": {"0": [[2]]}}]})
    put("mat", {"matrix": [[2, 4], [6, 8]]})
    (root / "garbage.json").write_text("{not json")
    return root


def test_compose_deterministic(ws):
    a = run("--workspace", str(ws), "compose", "n", "m")
    b = run("--workspace", str(ws), "compose", "n", "m")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    # the documented collapse: one glued element where the count product has two
    assert sum(len(v) for v in doc["elements"].values()) == 1


def test_blockmul_matches_compose(ws):
    block = run("--workspace", str(ws), "blockmul", "bn", "bm",
                "--middle", "x")
    plain = run("--workspace", str(ws), "compose", "bn", "bm")
    assert block.returncode == 0, block.stderr
    assert plain.returncode == 0, plain.stderr
    assert block.stdout == plain.stdout


def test_collage_and_grothendieck(ws, tmp_path):
    c = run("--workspace", str(ws), "collage", "m")
    assert c.returncode == 0
    assert json.loads(c.stdout)["origin"]["kind"] == "profunctor"
    # a hom document with the interval inline twice, and with its source
    # named and its target inline, collage to the same bytes
    inline = profunctor_to_json(hom_profunctor(standard_category("interval")))
    outs = []
    for name, doc in (("inline", inline),
                      ("named", dict(inline, source="interval"))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        r = run("--workspace", str(ws), "collage", str(path))
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    g = run("--workspace", str(ws), "grothendieck", "x")
    assert g.returncode == 0
    assert json.loads(g.stdout)["origin"]["kind"] == "diagram"


def test_stray_transition_key_is_named(ws, tmp_path, capsys):
    doc = json.loads((ws / "x.json").read_text())
    obmap = doc["transitions"]["u"]["obmap"]
    obmap["zz"] = obmap[min(obmap)]
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(doc))
    assert main(["grothendieck", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("validation failed: transition 'u' is not a functor: "
                   "object map key 'zz' is not a source object\n")


def test_total_ids_with_separators_stay_distinct(tmp_path, capsys):
    # unescaped, '(id_0,a@b@c)' named both a@b: c -> z and a: b@c -> z
    objects = ("c", "b@c", "z")
    ids = {x: f"id_{x}" for x in objects}
    src = {**{i: x for x, i in ids.items()}, "a@b": "c", "a": "b@c"}
    dst = {**{i: x for x, i in ids.items()}, "a@b": "z", "a": "z"}
    comp = {(i, i): i for i in ids.values()}
    for f in ("a@b", "a"):
        comp[(f, ids[src[f]])] = comp[(ids["z"], f)] = f
    C = build_category(objects, [*ids.values(), "a@b", "a"], src, dst, ids,
                       comp)
    X = build_diagram(standard_category("discrete", 1), {"0": C}, {})
    for command, doc, fibers in (
            ("grothendieck", diagram_to_json(X), ("id_0",)),
            ("collage",
             profunctor_to_json(build_profunctor(C, C, {}, {}, {})),
             ("id_0", "id_1"))):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        morphisms = [m["id"] for m in json.loads(out)["morphisms"]]
        assert len(set(morphisms)) == len(morphisms) == 5 * len(fibers)
        assert {"(id_0,a@b@c)", r"(id_0,a@b\\@c)"} <= set(morphisms)


def test_cone_homology_quasi_iso(ws, tmp_path):
    c = run("--workspace", str(ws), "cone", "times2")
    assert c.returncode == 0
    doc = json.loads(c.stdout)
    assert set(doc) == {"complex", "inclusion", "projection"}

    # cone output feeds back in through a path outside the workspace
    cone_file = tmp_path / "cone_cx.json"
    cone_file.write_text(dumps_canonical(doc["complex"]))
    h = run("--workspace", str(ws), "homology", str(cone_file))
    assert h.returncode == 0
    assert json.loads(h.stdout) == {"0": {"free": 0, "torsion": [2]}}

    q = run("--workspace", str(ws), "quasi-iso", "times2")
    assert q.returncode == 0
    assert json.loads(q.stdout) == {"quasi_iso": False, "cone_acyclic": False}


def test_tot_and_hom_complex(ws):
    t = run("--workspace", str(ws), "tot", "tower")
    assert t.returncode == 0
    assert json.loads(t.stdout)["ranks"] == {"-1": 1, "0": 1}
    h = run("--workspace", str(ws), "hom-complex", "z", "z")
    assert h.returncode == 0
    assert json.loads(h.stdout)["ranks"] == {"0": 1}


def test_snf_output(ws):
    r = run("--workspace", str(ws), "snf", "mat")
    assert r.returncode == 0
    assert json.loads(r.stdout)["diagonal"] == [2, 4]


def test_snf_of_degenerate_shapes(tmp_path):
    """A 2x0 and a 0x0 matrix keep their shapes in S, U and V."""
    expected = {
        "[[], []]": {"S": [[], []], "U": [[1, 0], [0, 1]], "V": [],
                     "diagonal": []},
        '{"matrix": []}': {"S": [], "U": [], "V": [], "diagonal": []},
    }
    for text, doc in expected.items():
        path = tmp_path / "m.json"
        path.write_text(text)
        r = run("snf", str(path))
        assert r.returncode == 0, r.stderr
        assert r.stdout == dumps_canonical(doc)


def test_quasi_iso_with_an_empty_kernel_basis(tmp_path):
    # A = Z -> Z in degrees 1, 0 and B = Z -> Z in degrees 2, 1 are both
    # acyclic; at degree 1 the kernel basis of d_1 has no columns in A and
    # one in B, so the surjectivity test stacks a 1x0 block beside a 1x1
    A = build_complex({1: 1, 0: 1}, {1: [[1]]})
    B = build_complex({2: 1, 1: 1}, {2: [[1]]})
    path = tmp_path / "f.json"
    path.write_text(dumps_canonical(
        chainmap_to_json(build_chain_map(A, B, {1: [[3]]}))))
    r = run("quasi-iso", str(path))
    assert r.returncode == 0, r.stderr
    assert r.stdout == dumps_canonical({"quasi_iso": True,
                                        "cone_acyclic": True})


def test_out_writes_file(ws, tmp_path):
    target = tmp_path / "result.json"
    r = run("--workspace", str(ws), "--out", str(target), "snf", "mat")
    assert r.returncode == 0
    assert r.stdout == ""
    assert json.loads(target.read_text())["diagonal"] == [2, 4]


def test_unwritable_out_exits_2_in_one_line(ws, tmp_path):
    target = tmp_path / "missing" / "result.json"
    r = run("--workspace", str(ws), "--out", str(target), "snf", "mat")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == ("cannot write output: [Errno 2] No such file or "
                        f"directory: '{target}'\n")


def unserializable(args, ws):
    """A command result whose second key cannot be encoded, after more
    text than one flush."""
    return dict, {"a": ["x" * 64] * 2000, "b": [1, object()]}, 0


def test_unserializable_result_exits_4_and_leaves_no_out_file(
        ws, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli.COMMANDS, "snf",
                        (unserializable, ("matrix",), "broken"))
    target = tmp_path / "result.json"
    assert main(["--workspace", str(ws), "--out", str(target),
                 "snf", "mat"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal error: TypeError: Object of type object is "
                   "not JSON serializable\n")
    assert not target.exists()
    # on stdout the document is cut short where the encoder failed
    assert main(["--workspace", str(ws), "snf", "mat"]) == 4
    out, err = capsys.readouterr()
    assert out.startswith('{\n  "a": [\n') and len(out) >= 65536
    assert err.count("\n") == 1 and err.startswith("internal error: ")


@pytest.mark.parametrize("command", [["collage", "h"], ["compose", "h", "h"]],
                         ids=["collage", "compose"])
def test_inputs_are_freed_before_the_output_is_written(
        tmp_path, monkeypatch, gc_disabled, command):
    (tmp_path / "h.json").write_text(dumps_canonical(profunctor_to_json(
        hom_profunctor(standard_category("simplex", 3)))))
    loaded, alive = [], []
    load, write = cli.Workspace._load, cli.write_canonical

    def recording_load(self, data, kind, label):
        obj = load(self, data, kind, label)
        loaded.append(weakref.ref(obj))
        return obj

    def checking_write(doc, out):
        if not alive:
            alive.append([r() for r in loaded if r() is not None])
        write(doc, out)
    monkeypatch.setattr(cli.Workspace, "_load", recording_load)
    monkeypatch.setattr(cli, "write_canonical", checking_write)
    assert main(["--workspace", str(tmp_path),
                 "--out", str(tmp_path / "out.json"), *command]) == 0
    # the profunctor and the one category its document holds twice
    assert len(loaded) == 2
    assert alive == [[]]


def test_compose_with_comma_cell_keys_exits_0(tmp_path, capsys):
    """The composite has elements in cells ('a,b', 'c') and ('a', 'b,c'),
    whose keys read '(a\\,b,c)' and '(a,b\\,c)'; unescaped, both would
    read '(a,b,c)', and a key written so names no cell."""
    def discrete(*names):
        ids = {x: f"id_{x}" for x in names}
        src = {i: x for x, i in ids.items()}
        return build_category(names, list(src), src, dict(src), ids,
                              {(i, i): i for i in src})
    pt = standard_category("discrete", 1)
    M = build_profunctor(discrete("c", "b,c"), pt,
                         {("0", "c"): ["m1"], ("0", "b,c"): ["m2"]}, {}, {})
    N = build_profunctor(pt, discrete("a,b", "a"),
                         {("a,b", "0"): ["n1"], ("a", "0"): ["n2"]}, {}, {})
    paths = []
    for name, P in (("n", N), ("m", M)):
        paths.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(
            dumps_canonical(profunctor_to_json(P)))
    out = tmp_path / "out.json"
    assert main(["--out", str(out), "compose", *paths]) == 0
    assert capsys.readouterr().err == ""
    elements = json.loads(out.read_text())["elements"]
    assert sorted(elements) == ["(a,b\\,c)", "(a,c)", "(a\\,b,b\\,c)",
                                "(a\\,b,c)"]
    assert len({e for es in elements.values() for e in es}) == 4
    doc = profunctor_to_json(N)
    doc["elements"]["(a,b,0)"] = doc["elements"].pop("(a\\,b,0)")
    (tmp_path / "n.json").write_text(dumps_canonical(doc))
    out.unlink()
    assert main(["--out", str(out), "compose", *paths]) == 2
    assert capsys.readouterr().err == (
        "invalid input: cell key '(a,b,0)' names no (target,source) pair "
        "of objects\n")
    assert not out.exists()


def test_check_monoid_laws_randomized(ws):
    r = run("check", "monoid-laws", "--randomized", "--count", "3",
            "--seed", "4")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["ok"] is True and doc["trials"] == 3


def test_check_failure_exits_1(ws):
    r = run("--workspace", str(ws), "check", "multiplicativity", "n", "m")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["ok"] is False
    assert any("counts differ" in f for f in doc["failures"])
    # the one-sided comparison still holds on the same pair
    lax = run("--workspace", str(ws), "check", "lax-multiplicativity",
              "n", "m")
    assert lax.returncode == 0


def test_invalid_inputs_exit_2(ws, tmp_path):
    assert run("--workspace", str(ws), "homology", "garbage").returncode == 2
    assert run("--workspace", str(ws), "homology", "missing").returncode == 2
    assert run("homology", "missing").returncode == 2  # no workspace at all
    assert run("--workspace", str(ws), "compose", "n", "z").returncode == 2
    assert run("frobnicate").returncode == 2
    r = run("--workspace", str(ws), "check", "cocontinuity", "n")
    assert r.returncode == 2
    off_support = tmp_path / "off_support.json"
    off_support.write_text(dumps_canonical(
        {"window": [-1, 0], "ranks": {"0": 1}, "differentials": {"0": [[1]]}}))
    r = run("homology", str(off_support))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    ragged = tmp_path / "ragged.json"
    ragged.write_text("[[1, 2], [3]]")
    r = run("snf", str(ragged))
    assert r.returncode == 2
    assert r.stderr == "validation failed: row 1 has 1 entries, expected 2\n"
    # one malformed category inline as both ends of a profunctor
    for bad, err in (
            ({"objects": ["a"], "morphisms": [], "identities": {},
              "composition": []},
             "validation failed: object 'a' has no identity\n"),
            ({"objects": "a", "morphisms": [], "identities": {},
              "composition": []},
             "invalid input: category.objects: expected a list of strings\n")):
        path = tmp_path / "bad_ends.json"
        path.write_text(json.dumps({"source": bad, "target": bad,
                                    "elements": {}, "left_action": {},
                                    "right_action": {}}))
        r = run("collage", str(path))
        assert (r.returncode, r.stdout, r.stderr) == (2, "", err)


@pytest.mark.parametrize("text, message", [
    # bytes that are not UTF-8
    (b'{"objects": ["\xff"]}', "is not UTF-8: 'utf-8' codec can't decode"),
    (b"[" * 200_000 + b"]" * 200_000, "is nested too deeply"),
    # degree keys other than canonical decimal, which int() reads as
    # degree 1 a second time, as degree 10, and as degree 20: a span over
    # the degree cap, yet the loader's error and not the cap must answer
    (b'{"window": [0, 1], "ranks": {"1": 1, "01": 2}, "differentials": {}}',
     "complex.ranks: key '01' is not a degree"),
    (b'{"window": [0, 10], "ranks": {"1_0": 1}, "differentials": {}}',
     "complex.ranks: key '1_0' is not a degree"),
    (b'{"window": [0, 20], "ranks": {"0": 1, "0020": 1}, '
     b'"differentials": {}}',
     "complex.ranks: key '0020' is not a degree"),
], ids=["not_utf_8", "nested", "leading_zero", "underscore",
        "leading_zero_over_cap"])
def test_undecodable_deep_and_ambiguous_inputs_exit_2(tmp_path, text,
                                                      message):
    path = tmp_path / "in.json"
    path.write_bytes(text)
    r = run("homology", str(path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
    assert r.stderr.startswith("invalid input: ") and message in r.stderr


def test_files_are_read_and_written_as_utf_8(ws, tmp_path):
    """No open call falls back to the locale encoding."""
    target = tmp_path / "result.json"
    r = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-m", "laxcat",
         "--workspace", str(ws), "--out", str(target), "compose", "n", "m"],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    assert target.read_text(encoding="utf-8") == run(
        "--workspace", str(ws), "compose", "n", "m").stdout


def test_snf_of_an_entry_over_4300_digits(tmp_path):
    digits = "7" * 5000
    big = tmp_path / "big.json"
    big.write_text(f"[[{digits}]]")
    r = run("snf", str(big))
    assert r.returncode == 0, r.stderr
    assert r.stdout.count(digits) == 2  # in S and on the diagonal


def test_integers_up_to_the_digit_cap_are_read():
    # main lifts Python's int/str digit limit (3.11+); so does this test
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for sign in ("", "-"):
            at_cap = sign + "7" * DIGIT_CAP
            assert cli._int_literal(at_cap, "m") == int(at_cap)
            assert parse_degree(at_cap, "m") == int(at_cap)
            with pytest.raises(CapExceeded):
                cli._int_literal(at_cap + "7", "m")
            with pytest.raises(CapExceeded):
                parse_degree(at_cap + "7", "m")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command, text", [
    ("snf", "[[" + "7" * 10**6 + "]]"),
    ("homology", '{"window": [0, 1], "ranks": {"' + "1" * 400_000
     + '": 1}, "differentials": {}}'),
], ids=["literal_of_a_million_digits", "degree_key_of_400000_digits"])
def test_integers_over_the_digit_cap_exit_3_before_conversion(
        tmp_path, command, text):
    (tmp_path / "in.json").write_text(text)
    t0 = time.perf_counter()
    r = run("--workspace", str(tmp_path), command, "in")
    assert time.perf_counter() - t0 < 0.5
    assert r.returncode == 3, r.stderr
    assert r.stderr.count("\n") == 1 and len(r.stderr) < 200
    assert r.stderr.startswith("cap exceeded: in: ")
    assert "exceeds the cap of 10000" in r.stderr


def test_input_over_the_byte_cap_exits_3_before_it_is_read(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.touch()
    os.truncate(path, cli.INPUT_CAP + 1)  # sparse: no byte is written
    start = time.perf_counter()
    code = main(["snf", str(path)])
    assert time.perf_counter() - start < 0.1
    assert code == 3
    assert capsys.readouterr().err == (
        f"cap exceeded: {path}: an input of {cli.INPUT_CAP + 1} bytes "
        f"exceeds the cap of {cli.INPUT_CAP} bytes\n")
    # a file of exactly the cap is read, and its NUL bytes are no JSON
    os.truncate(path, cli.INPUT_CAP)
    assert main(["snf", str(path)]) == 2
    assert capsys.readouterr().err.startswith("invalid input: ")


def test_failed_self_verification_survives_optimize(ws):
    """The result guards are explicit raises, so `python -O` keeps them."""
    script = ("import sys; import laxcat.k0chain as k; "
              "from laxcat.cli import main; from laxcat.report import Report; "
              "k.SmithDecomposition.verify = lambda self: Report(False, ['forced']); "
              "sys.exit(main(sys.argv[1:]))")
    r = subprocess.run([sys.executable, "-O", "-c", script,
                        "--workspace", str(ws), "snf", "mat"],
                       capture_output=True, text=True)
    assert r.returncode != 0
    assert r.stdout == ""
    assert "self-verification" in r.stderr


def test_failed_self_verification_exits_4_in_one_line(ws, monkeypatch, capsys):
    monkeypatch.setattr(k0chain.SmithDecomposition, "verify",
                        lambda self: Report(False, ["forced"]))
    assert main(["--workspace", str(ws), "snf", "mat"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal error: AssertionError: decomposition failed "
                   "self-verification: ['forced']\n")
    assert main(["--workspace", str(ws), "--debug", "snf", "mat"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback")
    assert err.endswith("internal error: AssertionError: decomposition failed "
                        "self-verification: ['forced']\n")


@pytest.mark.parametrize("prop", ["bilimit-roundtrip", "absoluteness"])
def test_randomized_check_errors_exit_4_in_one_line(prop, monkeypatch,
                                                    capsys):
    """A randomized check draws its own inputs, so an error raised while
    drawing or checking a trial is a bug, not invalid input."""
    generators = FinCategory.generators
    monkeypatch.setattr(FinCategory, "generators",
                        lambda self: generators(self)[:-1])
    assert main(["check", prop, "--randomized", "--count", "40",
                 "--seed", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal error: AssertionError: trial 0: diagram "
                   "transitions must be keyed by shape morphisms\n")


def test_a_functor_where_a_profunctor_is_expected_exits_2(tmp_path, capsys):
    I = standard_category("interval")
    (tmp_path / "f.json").write_text(dumps_canonical(
        {"source": category_to_json(I), "target": category_to_json(I),
         "obmap": {"0": "0", "1": "1"}, "mormap": {"u": "u"}}))
    assert main(["--workspace", str(tmp_path), "collage", "f"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "invalid input: 'f' holds a functor, expected a profunctor\n"


def test_cap_breach_exits_3(ws, tmp_path):
    r = run("--workspace", str(ws), "--max-objects", "1", "collage", "m")
    assert r.returncode == 3
    assert "cap" in r.stderr
    big = tmp_path / "big.json"
    big.write_text(dumps_canonical(
        {"window": [0, 0], "ranks": {"0": 64}, "differentials": {}}))
    r = run("homology", str(big))
    assert r.returncode == 3
    # the complex loader checks each rank against its cap as it reads the
    # ranks field, before any matrix of that rank is built
    for rank in (10**30, 33):
        huge = tmp_path / "huge_rank.json"
        huge.write_text(dumps_canonical(
            {"window": [1, 2], "ranks": {"1": 1, "2": rank},
             "differentials": {"2": [[4]]}}))
        r = run("homology", str(huge))
        assert r.returncode == 3, r.stderr
        assert len(r.stderr.splitlines()) == 1
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["--max-objects", "0", "check", "monoid-laws", "--randomized"],
    ["--max-objects", "-1", "check", "monoid-laws", "--randomized"],
    ["--max-elements", "0", "check", "cocontinuity", "--randomized"],
    ["check", "monoid-laws", "--randomized", "--count", "-3"],
    ["check", "monoid-laws", "--randomized", "--count", "0"],
])
def test_caps_and_count_below_one_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: laxcat")
    assert "not a positive integer" in err.splitlines()[-1]


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_randomized_checks_run_under_small_object_caps(cap, capsys):
    for prop in sorted(CHECKS):
        for seed in range(6):
            code = main(["--max-objects", str(cap), "check", prop,
                         "--randomized", "--count", "2", "--seed", str(seed)])
            _, err = capsys.readouterr()
            assert code in (0, 1), (prop, seed, err)


def test_draws_under_max_objects_1_have_one_object_categories():
    caps = {"objects": 1, "elements": 8}
    for prop in sorted(CHECKS):
        for seed in range(6):
            inputs = _draw(prop, rng_from_seed(seed), caps)
            cats = [x for x in inputs if isinstance(x, FinCategory)]
            cats += [F for x in inputs if isinstance(x, Diagram)
                     for F in x.fiber.values()]
            if prop != "bilimit-roundtrip":  # its profunctor meets a total
                cats += [P for x in inputs if isinstance(x, Profunctor)
                         for P in (x.source, x.target)]
            assert cats, prop
            assert all(len(C.objects) == 1 for C in cats), (prop, seed)


@pytest.mark.parametrize("shape", [(65, 1), (1, 65)])
def test_matrix_over_the_cap_exits_3_before_loading(tmp_path, capsys, shape):
    rows, cols = shape
    matrix = [[1] * cols for _ in range(rows)]
    for i, doc in enumerate((matrix, {"matrix": matrix})):
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = main(["snf", str(path)])
        assert time.perf_counter() - start < 0.1
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "64" in err
    # the cap admits 64 rows and columns
    path.write_text(json.dumps({"matrix": [[1] * 64] + [[0] * 64] * 63}))
    assert main(["--out", str(tmp_path / "out.json"), "snf", str(path)]) == 0


def _json_of(make):
    return lambda path, n: path.write_text(json.dumps(make(n)))


def _sparse(path, n):
    path.touch()
    os.truncate(path, n)


def _snf_work(path, n):
    """A 1x1 matrix whose one entry has n bits, so it measures n."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        path.write_text(f"[[{1 << (n - 1)}]]")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


_PARSER = cli._build_parser()
# per cap: the command that reads the input, the cap's value, and a writer
# of an input that measures n on the capped field and stays within every
# other cap
CAP_CASES = {
    "objects": (["check", "monoid-laws"], _PARSER.get_default("max_objects"),
                _json_of(lambda n: category_to_json(
                    standard_category("discrete", n)))),
    "elements": (["collage"], _PARSER.get_default("max_elements"),
                 _json_of(lambda n: profunctor_to_json(build_profunctor(
                     standard_category("discrete", 1),
                     standard_category("discrete", 1),
                     {("0", "0"): [f"e{i}" for i in range(n)]}, {}, {})))),
    "window_span": (["homology"], cli.DEGREE_CAP,
                    _json_of(lambda n: complex_to_json(
                        build_complex(dict.fromkeys(range(n), 1), {})))),
    "rank": (["homology"], cli.RANK_CAP,
             _json_of(lambda n: complex_to_json(build_complex({0: n}, {})))),
    "matrix_rows": (["snf"], cli.MATRIX_CAP, _json_of(lambda n: [[1]] * n)),
    "matrix_columns": (["snf"], cli.MATRIX_CAP, _json_of(lambda n: [[1] * n])),
    "snf_work": (["snf"], cli.SNF_CAP, _snf_work),
    "literal_digits": (["homology"], DIGIT_CAP,
                       lambda path, n: path.write_text(
                           '{"window": [0, 1], "ranks": {"0": 1, "1": 1}, '
                           f'"differentials": {{"1": [[{"7" * n}]]}}}}')),
    "degree_key_digits": (["homology"], DIGIT_CAP, _json_of(lambda n: {
        "window": [0, 0], "ranks": {"0": 1},
        "differentials": {"1" * n: []}})),
    "input_bytes": (["snf"], cli.INPUT_CAP, _sparse),
}


@pytest.mark.parametrize("cap", sorted(CAP_CASES))
def test_each_cap_admits_its_value_and_refuses_one_more(tmp_path, capsys,
                                                        cap):
    command, value, write = CAP_CASES[cap]
    path = tmp_path / "in.json"
    write(path, value)
    out = tmp_path / "out.json"
    assert main(["--out", str(out), *command, str(path)]) != 3
    capsys.readouterr()
    write(path, value + 1)
    start = time.perf_counter()
    code = main(["--out", str(out), *command, str(path)])
    assert time.perf_counter() - start < 0.1
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"cap exceeded: {path}: ")


@pytest.mark.parametrize("command, where", [
    ("homology", "differentials"),
    ("quasi-iso", "matrices"),
    ("tot", "maps"),
], ids=["complex_differentials", "chainmap_matrices", "tower_map_matrices"])
def test_degree_key_over_the_digit_cap_names_its_input(tmp_path, capsys,
                                                       command, where):
    key = "1" * (DIGIT_CAP + 1)
    z = complex_to_json(build_complex({0: 1}, {}))
    doc = {"differentials": dict(z, differentials={key: []}),
           "matrices": {"source": z, "target": z, "matrices": {key: []}},
           "maps": {"complexes": [z, z],
                    "maps": [{"matrices": {key: []}}]}}[where]
    path = tmp_path / "dk.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"cap exceeded: {path}: degree key ")


def test_oversized_cell_exits_3_before_any_category_is_built(
        tmp_path, capsys, monkeypatch):
    import laxcat.fincat
    doc = profunctor_to_json(hom_profunctor(standard_category("interval")))
    doc["elements"]["(0,0)"] = [f"e{i}" for i in range(9)]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    built = []
    monkeypatch.setattr(laxcat.fincat, "build_category",
                        lambda *args: built.append(args))
    assert main(["collage", str(path)]) == 3
    assert built == []
    assert capsys.readouterr().err == (
        f"cap exceeded: {path}: cell (0,0) holds 9 elements, cap is 8\n")


def test_each_degree_key_of_a_named_complex_is_parsed_once(
        tmp_path, capsys, monkeypatch):
    doc = complex_to_json(build_complex(
        {-1: 1, 0: 2, 1: 1}, {0: [[1, 0]], 1: [[0], [1]]}))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    real, seen = parse_degree, []

    def counting(key, label):
        seen.append(key)
        return real(key, label)
    for name, module in list(sys.modules.items()):
        if (name.startswith("laxcat.")
                and getattr(module, "parse_degree", None) is real):
            monkeypatch.setattr(module, "parse_degree", counting)
    assert main(["homology", str(path)]) == 0
    capsys.readouterr()
    assert sorted(seen) == sorted([*doc["ranks"], *doc["differentials"]])
