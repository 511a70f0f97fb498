"""What each command loads.  No command loads numpy: the chain-complex
layer keeps its exact matrices in laxcat.intmat.  Nothing loads
dataclasses, inspect or typing.  Importing the command line loads no
layer, and each command loads only the layer it runs.

Each check runs in a fresh `python -S` interpreter, so that only what the
code under test imports is loaded, whatever this test process has
imported; -S keeps site-packages hooks (.pth files), which may preload
modules such as typing, out of the picture.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import laxcat
from laxcat.cli import CHECKS
from laxcat.decat import CardMatrix, multiply_cards
from laxcat.fincat import standard_category
from laxcat.jsonio import dumps_canonical, profunctor_to_json
from laxcat.intmat import as_matrix
from laxcat.profunctor import build_profunctor

SRC = str(Path(laxcat.__file__).resolve().parent.parent)

REPORT = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""

NEVER = {"numpy", "dataclasses", "inspect", "typing"}
CATEGORY_LAYER = {"laxcat.fincat", "laxcat.profunctor", "laxcat.collage",
                  "laxcat.rand"}
CHAIN_LAYER = {"laxcat.k0chain", "laxcat.intmat"}


def loaded_modules(code):
    """Run code in a fresh `python -S` interpreter; the modules it left
    loaded."""
    p = subprocess.run([sys.executable, "-S", "-c", code + REPORT],
                       capture_output=True, text=True,
                       env={"PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"})
    assert p.returncode == 0, p.stderr
    return set(json.loads(p.stdout.splitlines()[-1]))


def cli_run(*argv):
    return (f"from laxcat.cli import main\n"
            f"assert main({list(argv)!r}) == 0\n")


def write(path, doc):
    path.write_text(dumps_canonical(doc))
    return str(path)


def test_importing_the_package_and_cli_loads_no_numpy():
    loaded = loaded_modules("import laxcat, laxcat.cli")
    assert not loaded & NEVER
    assert {m for m in loaded if m.startswith("laxcat.")} == {
        "laxcat.cli", "laxcat.jsonio", "laxcat.decat", "laxcat.errors",
        "laxcat.report", "laxcat.unionfind"}


def test_category_commands_load_no_numpy(tmp_path):
    pt, two = standard_category("discrete", 1), standard_category("discrete", 2)
    m = write(tmp_path / "m.json", profunctor_to_json(build_profunctor(
        pt, two, {("0", "0"): ["a"], ("1", "0"): ["b", "c"]}, {}, {})))
    n = write(tmp_path / "n.json", profunctor_to_json(build_profunctor(
        two, pt, {("0", "0"): ["x"], ("0", "1"): ["y"]}, {}, {})))
    out = str(tmp_path / "out.json")
    for argv in (("compose", n, m), ("check", "multiplicativity", n, m)):
        loaded = loaded_modules(cli_run("--out", out, *argv))
        assert not loaded & (NEVER | CHAIN_LAYER), argv
        assert "laxcat.profunctor" in loaded


def test_randomized_checks_load_no_chain_layer(tmp_path):
    out = str(tmp_path / "out.json")
    code = "".join(cli_run("--out", out, "check", prop, "--randomized",
                           "--count", "1") for prop in CHECKS)
    loaded = loaded_modules(code)
    assert not loaded & (NEVER | CHAIN_LAYER)
    assert "laxcat.rand" in loaded


def test_chain_commands_load_no_numpy(tmp_path):
    mat = write(tmp_path / "mat.json", {"matrix": [[2, 4], [6, 8]]})
    disk = write(tmp_path / "disk.json", {
        "window": [0, 1], "ranks": {"0": 1, "1": 1},
        "differentials": {"1": [[6]]}})
    snf_out, hom_out = str(tmp_path / "snf.json"), str(tmp_path / "hom.json")
    for argv in (("--out", snf_out, "snf", mat),
                 ("--out", hom_out, "homology", disk)):
        loaded = loaded_modules(cli_run(*argv))
        assert not loaded & (NEVER | CATEGORY_LAYER), argv
        assert "laxcat.k0chain" in loaded
    assert json.loads(Path(snf_out).read_text())["diagonal"] == [2, 4]
    assert json.loads(Path(hom_out).read_text()) == {
        "0": {"free": 0, "torsion": [6]}}


def test_package_exports_resolve_to_k0chain():
    code = """
import sys, laxcat
assert not [m for m in sys.modules if m.startswith("laxcat.")]
import laxcat.k0chain
assert laxcat.ChainComplex is laxcat.k0chain.ChainComplex
assert laxcat.cone is laxcat.k0chain.cone
try:
    laxcat.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
"""
    assert not loaded_modules(code) & NEVER


def test_package_exports_resolve_lazily():
    for name in laxcat.__all__:
        obj = getattr(laxcat, name)
        assert obj.__module__.startswith("laxcat."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert "__all__" in dir(laxcat)
    assert set(laxcat.__all__) <= set(dir(laxcat))
    namespace = {}
    exec("from laxcat import *", namespace)
    assert all(namespace[name] is getattr(laxcat, name)
               for name in laxcat.__all__)
    for missing in ("no_such_name", "dataclass"):
        with pytest.raises(AttributeError, match=missing):
            getattr(laxcat, missing)


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
