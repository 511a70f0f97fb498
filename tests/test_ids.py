"""Derived ids are injective in their parts and leave plain ids as they are."""

import itertools

from laxcat.fincat import build_category
from laxcat.ids import join_id, pair_id, pair_ids
from laxcat.rand import free_profunctor


def words(alphabet, longest):
    return ["".join(w) for k in range(longest + 1)
            for w in itertools.product(alphabet, repeat=k)]


def test_join_id_is_injective_and_keeps_plain_ids():
    assert join_id("0<=1", "(0,x)") == "0<=1@(0,x)"
    assert join_id("a@b", "c") == "a@b@c"
    assert join_id("a", "b@c") == r"a@b\@c"
    assert join_id("a\\", "b\\") == r"a\\@b\\"
    assert join_id("0", "1", "<=") == "0<=1"
    assert join_id("a", "b<=c", "<=") == r"a<=b\<=c"
    for sep, alphabet in (("@", "a@\\"), ("<=", "a<=\\")):
        pairs = list(itertools.product(words(alphabet, 4), repeat=2))
        assert len({join_id(x, y, sep) for x, y in pairs}) == len(pairs)


def test_collage_morphism_names_are_injective():
    """'(gamma,f@x)' over every short gamma, f and x, separators included."""
    parts = words("a,@()\\", 2)
    names = {pair_id(gamma, join_id(f, x))
             for gamma, f, x in itertools.product(parts, repeat=3)}
    assert len(names) == len(parts) ** 3 == 79_507


def test_pair_ids_is_pair_id_over_a_table():
    xs, ys = words("a,()\\", 2), words("a,()\\", 3)
    table = pair_ids(xs, ys)
    assert list(table) == [(x, y) for x in xs for y in ys]
    assert all(name == pair_id(*pair) for pair, name in table.items())


def parallel_pair(f, g):
    """Two objects and two parallel arrows f, g from 0 to 1."""
    src = {"id0": "0", "id1": "1", f: "0", g: "0"}
    dst = {"id0": "0", "id1": "1", f: "1", g: "1"}
    comp = {("id0", "id0"): "id0", ("id1", "id1"): "id1"}
    for h in (f, g):
        comp.update({(h, "id0"): h, ("id1", h): h})
    return build_category(("0", "1"), src, src, dst, {"0": "id0", "1": "id1"},
                          comp)


def test_free_profunctor_names_paths_with_separators_apart():
    # 'a' then 'b;c' and 'a;b' then 'c' both read 'a;b;c' when joined plainly
    D, C = parallel_pair("a", "a;b"), parallel_pair("c", "b;c")
    P = free_profunctor(C, D, "1", "0", "g0")
    assert P.elements[("1", "0")] == (r"g0:a;b;b\;c", "g0:a;b;c",
                                      r"g0:a;b\;c", "g0:a;c")
