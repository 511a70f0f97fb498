"""Seeded mutation fuzz of the command line, as a regression guard.

Small valid inputs of every kind are damaged byte by byte (a flipped bit,
a changed digit, a truncation, an inserted 0xff byte, deep nesting, a
degree key spelled other than in canonical decimal, one id renamed to a
string of the separators of derived ids) and run in process
through `cli.main`, under an object cap of 1 to 6.
Whatever the damage, the run must end as the README's exit codes say: 0
or 1 with nothing on stderr, or 2 or 3 with one line, and never with a
traceback or an internal error (exit 4).  Seeded matrices just over the
`snf` work cap must be refused at once, before any elimination.
"""

import json
import random
import re
import time

import pytest

from laxcat.cli import MATRIX_CAP, SNF_CAP, main
from laxcat.collage import grothendieck
from laxcat.fincat import standard_category
from laxcat.jsonio import (category_to_json, chainmap_to_json,
                           complex_to_json, diagram_to_json, dumps_canonical,
                           profunctor_to_json)
from laxcat.k0chain import build_chain_map, build_complex
from laxcat.profunctor import build_profunctor
from laxcat.rand import rand_diagram, rand_profunctor, rng_from_seed

# each case: the argv of a command, the input it names first being the one
# the fuzz damages
CASES = [
    ("homology", "d"),
    ("hom-complex", "d", "z"),
    ("cone", "twice"),
    ("quasi-iso", "twice"),
    ("tot", "tower"),
    ("snf", "mat"),
    ("collage", "m"),
    ("compose", "n", "m"),
    ("grothendieck", "x"),
    ("blockmul", "bn", "bm", "--middle", "x"),
    ("check", "monoid-laws", "interval"),
    ("check", "semiorthogonal", "m"),
]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = {}
    I = standard_category("interval")
    pt = standard_category("discrete", 1)
    docs["interval"] = category_to_json(I)
    docs["m"] = profunctor_to_json(build_profunctor(
        pt, I, {("0", "0"): ["m0"], ("1", "0"): ["m1"]},
        {"u": {"m0": "m1"}}, {}))
    docs["n"] = profunctor_to_json(build_profunctor(
        I, pt, {("0", "0"): ["n0"], ("0", "1"): ["n1"]},
        {}, {"u": {"n1": "n0"}}))
    rng = rng_from_seed(11)
    X = rand_diagram(rng, shape_kind="interval", max_fiber_objects=2)
    G = grothendieck(X)
    docs["x"] = diagram_to_json(X)
    docs["bn"] = profunctor_to_json(
        rand_profunctor(rng, G.total, standard_category("discrete", 2), 4))
    docs["bm"] = profunctor_to_json(
        rand_profunctor(rng, standard_category("discrete", 2), G.total, 4))
    Z = build_complex({0: 1}, {})
    docs["z"] = complex_to_json(Z)
    docs["d"] = complex_to_json(build_complex({-1: 1, 0: 2, 1: 1},
                                              {0: [[1, -1]], 1: [[1], [1]]}))
    docs["twice"] = chainmap_to_json(build_chain_map(Z, Z, {0: [[2]]}))
    docs["tower"] = {"complexes": ["z", "z"],
                     "maps": [{"matrices": {"0": [[2]]}}]}
    docs["mat"] = {"matrix": [[2, 4], [6, 8]]}
    texts = {}
    for name, doc in docs.items():
        texts[name] = dumps_canonical(doc).encode()
        (root / f"{name}.json").write_bytes(texts[name])
    return root, texts


DEGREE_KEY = re.compile(rb'"(-?\d+)":')


def spell_degrees(text, rng):
    """Every degree key written another way that int() still reads."""
    def respell(m):
        key = m.group(1)
        return b'"%s":' % rng.choice(
            [b"0" + key, b"+" + key, b" " + key, key + b" ", key + b"_0"])
    return DEGREE_KEY.sub(respell, text)


# a JSON string, and the colon after it if it is a key
STRING = re.compile(rb'"((?:[^"\\]|\\.)*)"(\s*:)?')
# ',', '@', '*', '(', ')' and an escaped backslash
RENAMED = rb'"a,@*()\\b"'


def rename(text, rng):
    """Every whole-string occurrence of one id, a string that the text
    holds as a value, replaced by RENAMED."""
    values = sorted({m[1] for m in STRING.finditer(text) if not m[2]})
    if not values:
        return text
    old = rng.choice(values)
    return STRING.sub(lambda m: RENAMED + (m[2] or b"") if m[1] == old
                      else m[0], text)


def mutate(text, rng):
    kind = rng.choice(["flip", "digit", "truncate", "xff", "nest",
                       "degrees", "rename"])
    at = rng.randrange(len(text))
    if kind == "flip":
        return text[:at] + bytes([text[at] ^ 1 << rng.randrange(8)]) \
            + text[at + 1:]
    if kind == "digit":
        at = rng.choice([i for i, b in enumerate(text) if chr(b).isdigit()])
        return text[:at] + bytes([rng.choice(b"0123456789-")]) \
            + text[at + 1:]
    if kind == "truncate":
        return text[:at]
    if kind == "xff":
        return text[:at] + b"\xff" + text[at:]
    if kind == "nest":
        depth = rng.choice([2, 500, 100_000])
        opening, closing = rng.choice([(b"[", b"]"), (b'{"a": ', b"}")])
        return opening * depth + text + closing * depth
    if kind == "rename":
        return rename(text, rng)
    return spell_degrees(text, rng)


@pytest.mark.parametrize("seed", range(4))
def test_damaged_inputs_exit_in_one_line(ws, capsys, seed):
    root, texts = ws
    rng = random.Random(seed)
    codes = set()
    for i in range(120):
        case = rng.choice(CASES)
        argv = list(case)
        target = next(a for a in argv[1:] if a in texts)
        damaged = mutate(texts[target], rng)
        (root / "damaged.json").write_bytes(damaged)
        argv[argv.index(target)] = "damaged"
        code = main(["--workspace", str(root),
                     "--max-objects", str(rng.randint(1, 6)), *argv])
        out, err = capsys.readouterr()
        where = (seed, i, argv, damaged[:200])
        assert code in (0, 1, 2, 3), (where, err)
        assert "Traceback" not in err, where
        assert err.count("\n") == (code >= 2), (where, err)
        codes.add(code)
    # the damage is not all fatal, nor all harmless
    assert 0 in codes and 2 in codes


def test_matrices_just_over_the_snf_cap_exit_3_at_once(tmp_path, capsys):
    rng = random.Random(0)
    path = tmp_path / "over.json"
    for _ in range(20):
        # small and large shapes, of two entries at least, so the largest
        # entry stays within the int/str limit of Python 3.11 when written
        rows = rng.randint(1, rng.choice((4, MATRIX_CAP)))
        cols = rng.randint(2, rng.choice((4, MATRIX_CAP)))
        bits = SNF_CAP // (rows * cols) + 1
        matrix = [[rng.randrange(1 - (1 << bits), 1 << bits)
                   for _ in range(cols)] for _ in range(rows)]
        matrix[rng.randrange(rows)][rng.randrange(cols)] = rng.choice(
            (-1, 1)) * rng.randrange(1 << (bits - 1), 1 << bits)
        path.write_text(json.dumps(matrix))
        start = time.perf_counter()
        code = main(["snf", str(path)])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 3 and out == "", (rows, cols, bits, err)
        assert elapsed < 0.1, (rows, cols, bits, elapsed)
        assert err.count("\n") == 1
        assert err.startswith(f"cap exceeded: {path}: a {rows}x{cols} matrix "
                              f"of {bits}-bit entries measures "
                              f"{rows * cols * bits} ")
