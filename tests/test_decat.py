import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxcat.decat import (CardMatrix, cardinality_matrix,
                          check_discrete_multiplication,
                          check_lax_multiplicativity, check_multiplicativity,
                          composite_vs_product, is_discrete, multiply_cards)
from laxcat.errors import LaxcatError
from laxcat.fincat import standard_category
from laxcat.k0chain import as_matrix
from laxcat.profunctor import build_profunctor, hom_profunctor
from laxcat.rand import rand_category, rand_profunctor, rng_from_seed

seeds = st.integers(min_value=0, max_value=2**32 - 1)

I = standard_category("interval")
PT = standard_category("discrete", 1)


def gluing_pair():
    # M feeds m0 forward along u, N pulls n1 back along u; the coend glues
    # the two product elements into one
    M = build_profunctor(PT, I, {("0", "0"): ["m0"], ("1", "0"): ["m1"]},
                         {"u": {"m0": "m1"}}, {})
    N = build_profunctor(I, PT, {("0", "0"): ["n0"], ("0", "1"): ["n1"]},
                         {}, {"u": {"n1": "n0"}})
    return N, M


def test_cardinality_raw():
    cm = cardinality_matrix(hom_profunctor(I))
    assert cm.rows == ("0", "1") and cm.cols == ("0", "1")
    assert cm.entry("0", "0") == 1
    assert cm.entry("1", "0") == 1
    assert cm.entry("0", "1") == 0


def test_multiply_cards_checks_middle():
    a = CardMatrix(("x",), ("y",), as_matrix([[1]]))
    b = CardMatrix(("z",), ("x",), as_matrix([[1]]))
    assert multiply_cards(b, a).entry("z", "y") == 1
    with pytest.raises(LaxcatError,
                       match=r"^middle object lists do not match$"):
        multiply_cards(a, b)


def test_is_discrete():
    assert is_discrete(standard_category("discrete", 3))
    assert not is_discrete(I)


def test_gluing_counts_one_vs_two():
    N, M = gluing_pair()
    got, want = composite_vs_product(N, M)
    assert got.entry("0", "0") == 1
    assert want.entry("0", "0") == 2
    rep = check_multiplicativity(N, M)
    assert not rep.ok
    assert "composite" in rep.failures[0]


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_discrete_multiplication(seed):
    rng = rng_from_seed(seed)
    A = standard_category("discrete", rng.randint(1, 3))
    B = standard_category("discrete", rng.randint(1, 3))
    C = standard_category("discrete", rng.randint(1, 3))
    M = rand_profunctor(rng, A, B)
    N = rand_profunctor(rng, B, C)
    assert check_discrete_multiplication(N, M).ok


def test_discrete_check_requires_discrete():
    N, M = gluing_pair()
    rep = check_discrete_multiplication(N, M)
    assert not rep.ok
    assert any("not discrete" in f for f in rep.failures)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_lax_multiplicativity_always(seed):
    rng = rng_from_seed(seed)
    A = rand_category(rng, max_objects=3)
    B = rand_category(rng, max_objects=3)
    C = rand_category(rng, max_objects=3)
    M = rand_profunctor(rng, A, B, max_cell=4)
    N = rand_profunctor(rng, B, C, max_cell=4)
    assert check_lax_multiplicativity(N, M).ok
