"""Derived ids are injective in their parts and leave plain ids as they are."""

import itertools

from laxcat.ids import join_id, pair_id, pair_ids


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
