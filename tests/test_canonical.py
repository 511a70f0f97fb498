"""The canonical encoder against its oracle.

`jsonio.write_canonical` must hand its callback exactly the text of
`json.dumps(obj, sort_keys=True, indent=2)` plus a newline, in pieces of
exactly FLUSH characters but the last, for every value the converters
produce.  The package takes that text from the same standard-library
encoder, so these tests pin the cutting into pieces and the equality of
the two routes, and `json.dumps` is the oracle.
"""

import json
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laxcat.jsonio as jsonio
from laxcat.jsonio import dumps_canonical, snf_to_json, write_canonical
from laxcat.k0chain import smith_normal_form


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def pieces_of(obj):
    pieces = []
    write_canonical(obj, pieces.append)
    return pieces


def assert_flush_sized(pieces, flush):
    """Every piece but the last holds exactly flush characters."""
    assert all(len(p) == flush for p in pieces[:-1])
    assert 0 < len(pieces[-1]) <= flush


@pytest.fixture
def unlimited_int_digits():
    """Lift the int <-> str digit limit, as `cli.main` does."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


# every code point, surrogates and control characters included
texts = st.text(st.characters(blacklist_categories=()), max_size=12)
scalars = st.none() | st.booleans() | st.integers() | texts
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.lists(inner, max_size=6).map(tuple)
                   | st.dictionaries(texts, inner, max_size=6)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(values, st.sampled_from([1, 8, 64, jsonio.FLUSH]))
def test_pieces_join_to_the_oracle_text(obj, flush):
    with mock.patch.object(jsonio, "FLUSH", flush):
        pieces = pieces_of(obj)
    assert "".join(pieces) == oracle(obj)
    assert_flush_sized(pieces, flush)


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, -1, None, True, False,
    [[]], {"a": {}}, {"": []}, [{}, [], ()],
    "café ☃ \U0001f600 \ud800", "\x00\x01\x1f\x7f\"\\\n\t\r",
    {"é": 1, "e": 2, "\x00": [True, None]},
    ("t", (1, ("u",)), {"k": ()}),
    [1, "a", [2, "b", {"c": [3]}], {"d": None}],
    1.5, [1, 2.0], {1: "a"},
])
def test_edge_values(obj):
    assert dumps_canonical(obj) == oracle(obj)


def test_deeply_nested_containers():
    obj = "leaf"
    for depth in range(200):
        obj = [obj] if depth % 3 else {f"k{depth}": obj, "a": [depth]}
    assert dumps_canonical(obj) == oracle(obj)


def test_ints_above_4300_digits(unlimited_int_digits):
    big = 7 ** 6000  # 5 071 digits
    obj = {"S": [[big, -big], [0, big * big]], "diagonal": [big, -1]}
    assert dumps_canonical(obj) == oracle(obj)


def test_long_containers_of_scalars_are_split():
    words = [f"w{i:06d}" for i in range(30000)]
    obj = {"rows": [list(range(20000)), words], "flat": words}
    pieces = pieces_of(obj)
    assert "".join(pieces) == oracle(obj)
    assert len(pieces) > 10
    assert_flush_sized(pieces, jsonio.FLUSH)


# fixed ids keep these test names stable when the list changes
@pytest.mark.parametrize("bad", [
    pytest.param({"a": {1, 2}}, id="bad2"),
    pytest.param({"a": 1, 2: "b"}, id="bad4"),
    pytest.param([object()], id="bad5"),
    pytest.param({"a": [[b"bytes"]]}, id="bad6"),
])
def test_other_types_raise_type_error(bad):
    with pytest.raises(TypeError):
        dumps_canonical(bad)


def test_seed_1_snf_56_streams_in_under_1_mib(unlimited_int_digits):
    """The largest `chains` document: the 56x56 Smith normal form of
    `bench/run.py --seed 1`, about 3.4 MB of text."""
    rng = random.Random(1)
    for n in (16, 32, 48, 56):
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    doc = snf_to_json(smith_normal_form(mat))
    sizes = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_canonical(doc, lambda piece: sizes.append(len(piece)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak} bytes"
    assert sum(sizes) == len(dumps_canonical(doc)) > 3_000_000
    assert all(n == jsonio.FLUSH for n in sizes[:-1])
