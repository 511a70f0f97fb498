import json
import subprocess
import sys
import time

import pytest

import laxcat.k0chain as k0chain
from laxcat.cli import CHECKS, _draw, main
from laxcat.collage import Diagram, grothendieck
from laxcat.fincat import FinCategory, standard_category
from laxcat.jsonio import (category_to_json, chainmap_to_json,
                           complex_to_json, diagram_to_json, dumps_canonical,
                           profunctor_to_json)
from laxcat.k0chain import build_chain_map, build_complex
from laxcat.profunctor import Profunctor, build_profunctor
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


def test_collage_and_grothendieck(ws):
    c = run("--workspace", str(ws), "collage", "m")
    assert c.returncode == 0
    assert json.loads(c.stdout)["origin"]["kind"] == "profunctor"
    g = run("--workspace", str(ws), "grothendieck", "x")
    assert g.returncode == 0
    assert json.loads(g.stdout)["origin"]["kind"] == "diagram"


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


def test_snf_of_an_entry_over_4300_digits(tmp_path):
    digits = "7" * 5000
    big = tmp_path / "big.json"
    big.write_text(f"[[{digits}]]")
    r = run("snf", str(big))
    assert r.returncode == 0, r.stderr
    assert r.stdout.count(digits) == 2  # in S and on the diagonal


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


def test_cap_breach_exits_3(ws, tmp_path):
    r = run("--workspace", str(ws), "--max-objects", "1", "collage", "m")
    assert r.returncode == 3
    assert "cap" in r.stderr
    big = tmp_path / "big.json"
    big.write_text(dumps_canonical(
        {"window": [0, 0], "ranks": {"0": 64}, "differentials": {}}))
    r = run("homology", str(big))
    assert r.returncode == 3
    # caps are read off the raw JSON, before the loader allocates a rank
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
