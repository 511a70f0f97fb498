"""No command loads numpy: the chain-complex layer keeps its exact
matrices in laxcat.intmat.

Each check runs in a fresh interpreter, so that only what the code under
test imports is loaded, whatever this test process has imported.
"""

import json
import subprocess
import sys
from pathlib import Path

import laxcat
from laxcat.decat import CardMatrix, multiply_cards
from laxcat.fincat import standard_category
from laxcat.jsonio import dumps_canonical, profunctor_to_json
from laxcat.intmat import as_matrix
from laxcat.profunctor import build_profunctor

SRC = str(Path(laxcat.__file__).resolve().parent.parent)

REPORT = """
import json, sys
print(json.dumps("numpy" in sys.modules))
"""


def loads_numpy(code):
    """Run code in a fresh interpreter; whether it left numpy loaded."""
    p = subprocess.run([sys.executable, "-c", code + REPORT],
                       capture_output=True, text=True, env={"PYTHONPATH": SRC})
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def cli_run(*argv):
    return (f"from laxcat.cli import main\n"
            f"assert main({list(argv)!r}) == 0\n")


def write(path, doc):
    path.write_text(dumps_canonical(doc))
    return str(path)


def test_importing_the_package_and_cli_loads_no_numpy():
    assert not loads_numpy("import laxcat, laxcat.cli")


def test_category_commands_load_no_numpy(tmp_path):
    pt, two = standard_category("discrete", 1), standard_category("discrete", 2)
    m = write(tmp_path / "m.json", profunctor_to_json(build_profunctor(
        pt, two, {("0", "0"): ["a"], ("1", "0"): ["b", "c"]}, {}, {})))
    n = write(tmp_path / "n.json", profunctor_to_json(build_profunctor(
        two, pt, {("0", "0"): ["x"], ("0", "1"): ["y"]}, {}, {})))
    out = str(tmp_path / "out.json")
    assert not loads_numpy(cli_run("--out", out, "compose", n, m))
    assert not loads_numpy(
        cli_run("--out", out, "check", "multiplicativity", n, m))


def test_chain_commands_load_no_numpy(tmp_path):
    mat = write(tmp_path / "mat.json", {"matrix": [[2, 4], [6, 8]]})
    disk = write(tmp_path / "disk.json", {
        "window": [0, 1], "ranks": {"0": 1, "1": 1},
        "differentials": {"1": [[6]]}})
    snf_out, hom_out = str(tmp_path / "snf.json"), str(tmp_path / "hom.json")
    assert not loads_numpy(cli_run("--out", snf_out, "snf", mat))
    assert not loads_numpy(cli_run("--out", hom_out, "homology", disk))
    assert json.loads(Path(snf_out).read_text())["diagonal"] == [2, 4]
    assert json.loads(Path(hom_out).read_text()) == {
        "0": {"free": 0, "torsion": [6]}}


def test_package_exports_resolve_to_k0chain():
    code = """
import laxcat, laxcat.k0chain
assert laxcat.ChainComplex is laxcat.k0chain.ChainComplex
assert laxcat.cone is laxcat.k0chain.cone
try:
    laxcat.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
"""
    assert not loads_numpy(code)


def test_card_matrix_reads_as_before():
    rows, cols = ("a", "b"), ("x", "y", "z")
    cm = CardMatrix(rows, cols, [[1, 0, 2], [3, 4, 5]])
    assert repr(cm) == "CardMatrix([1 0 2; 3 4 5])"
    assert cm.entry("b", "y") == 4 and type(cm.entry("a", "z")) is int
    assert cm == CardMatrix(rows, cols, as_matrix([[1, 0, 2], [3, 4, 5]]))
    assert cm != CardMatrix(rows, cols, [[1, 0, 2], [3, 4, 6]])
    assert cm != CardMatrix(("a", "c"), cols, [[1, 0, 2], [3, 4, 5]])
    square = CardMatrix(("p",), rows, [[2, 1]])
    assert repr(multiply_cards(square, cm)) == "CardMatrix([5 4 9])"
    empty = multiply_cards(CardMatrix(("p",), (), [[]]),
                           CardMatrix((), ("x", "y"), []))
    assert repr(empty) == "CardMatrix([0 0])"
