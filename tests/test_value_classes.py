"""Equality, hashing and repr of the value classes.

Each class compares field by field, in the order of its fields, and only
when both sides have the same class; caches filled on first use take no
part.  HomologyGroup hashes like the tuple of its fields;
every other class is unhashable.  The default repr is
Name(field=value, ...).
"""

import pytest

from laxcat.collage import (build_diagram, collage_of_profunctor,
                            grothendieck, restrict_matrix)
from laxcat.decat import CardMatrix
from laxcat.fincat import CatFunctor, opposite, standard_category
from laxcat.k0chain import (ChainMap, GradedMap, GradedMatrix, HomologyGroup,
                            MappingCone, build_chain_map, build_complex, cone,
                            cone_star_matrix, smith_normal_form)
from laxcat.intmat import eye
from laxcat.profunctor import (build_protransformation, compose_with_pairing,
                               hom_profunctor, opposite_profunctor)
from laxcat.report import Report


def fields_repr(obj, names):
    shown = ", ".join(f"{n}={getattr(obj, n)!r}" for n in names)
    return f"{type(obj).__name__}({shown})"


def assert_value_semantics(make, changed, hashable=False):
    """make() builds equal instances afresh; each of changed differs from
    them in one field."""
    a, b = make(), make()
    assert a == b and not a != b
    assert a != object() and not a == object()
    for other in changed:
        assert a != other and not a == other
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def interval_to_simplex():
    I, D2 = standard_category("interval"), standard_category("simplex", 2)
    return CatFunctor(I, D2, {"0": "0", "1": "2"},
                      {"id_0": "0<=0", "id_1": "2<=2", "u": "0<=2"})


def diagram():
    F = interval_to_simplex()
    return build_diagram(F.source, {"0": F.source, "1": F.target}, {"u": F})


def test_report():
    assert_value_semantics(Report, [Report(False), Report(True, ["x"])])
    assert repr(Report()) == "Report(ok=True, failures=[])"
    assert repr(Report(False, ["a"])) == "Report(ok=False, failures=['a'])"
    a, b = Report(), Report()
    a.fail("x")
    assert b.failures == [] and not a and b


def test_fin_category_ignores_its_caches():
    make = lambda: standard_category("simplex", 2)
    assert_value_semantics(make, [standard_category("simplex", 1),
                                  standard_category("discrete", 3)])
    warm = make()
    warm.hom("0", "1"), warm.leaving("0"), warm.arriving("1")
    warm.generators(), opposite(warm)
    assert warm == make() and make() == warm
    assert repr(warm) == "FinCategory(3 objects, 6 morphisms)"


def test_cat_functor():
    F = interval_to_simplex()
    other = CatFunctor(F.source, F.target, {"0": "0", "1": "1"},
                       {"id_0": "0<=0", "id_1": "1<=1", "u": "0<=1"})
    assert_value_semantics(interval_to_simplex, [other])
    assert repr(F) == ("CatFunctor(FinCategory(2 objects, 3 morphisms) -> "
                       "FinCategory(3 objects, 6 morphisms))")


def test_profunctor_ignores_its_caches():
    make = lambda: hom_profunctor(standard_category("interval"))
    assert_value_semantics(make, [
        hom_profunctor(standard_category("simplex", 2)),
        opposite_profunctor(make())])
    warm = make()
    warm.cell_of("u"), opposite_profunctor(warm)
    assert warm == make() and make() == warm
    assert repr(warm) == ("Profunctor(2-object source, 2-object target, "
                          "3 elements)")


def test_pro_transformation():
    H = hom_profunctor(standard_category("interval"))
    ident = {pair: {e: e for e in es} for pair, es in H.elements.items()}
    make = lambda: build_protransformation(H, H, ident)
    assert_value_semantics(make, [])
    t = make()
    assert repr(t) == fields_repr(t, ("source", "target", "components"))
    assert repr(t).startswith("ProTransformation(source=Profunctor(2-object")


def test_coend_composite():
    H = hom_profunctor(standard_category("interval"))
    make = lambda: compose_with_pairing(H, H)
    K = hom_profunctor(standard_category("simplex", 2))
    assert_value_semantics(make, [compose_with_pairing(K, K)])
    c = make()
    assert repr(c) == fields_repr(c, ("profunctor", "class_of", "rep_of"))


def test_diagram():
    I = standard_category("interval")
    flat = build_diagram(I, {"0": I, "1": I}, {"u": CatFunctor(
        I, I, {"0": "0", "1": "1"},
        {"id_0": "id_0", "id_1": "id_1", "u": "u"})})
    assert_value_semantics(diagram, [flat])
    X = diagram()
    assert repr(X) == fields_repr(X, ("shape", "fiber", "transition"))


def test_collage_compares_every_field_and_shows_four():
    make = lambda: grothendieck(diagram())
    H = hom_profunctor(standard_category("interval"))
    assert_value_semantics(make, [collage_of_profunctor(H)])
    G = make()
    assert repr(G) == fields_repr(G, ("total", "shape", "fiber", "injections"))
    G2 = make()
    G2.mor_parts = dict(G2.mor_parts, extra=("u", "0", "x"))
    assert G != G2
    G3 = make()
    G3.diagram = None
    assert G != G3


def test_lax_matrix():
    def make():
        G = grothendieck(diagram())
        return restrict_matrix(hom_profunctor(G.total), G, "source")
    G = grothendieck(diagram())
    target_side = restrict_matrix(hom_profunctor(G.total), G, "target")
    assert_value_semantics(make, [target_side])
    L = make()
    assert repr(L) == fields_repr(
        L, ("collage", "side", "other", "entries", "transition"))


def test_card_matrix():
    make = lambda: CardMatrix(("a",), ("x", "y"), [[1, 2]])
    assert_value_semantics(make, [CardMatrix(("a",), ("x", "z"), [[1, 2]]),
                                  CardMatrix(("a",), ("x", "y"), [[1, 3]])])
    assert repr(make()) == "CardMatrix([1 2])"


def disk():
    return build_complex({0: 1, 1: 1}, {1: [[2]]})


def test_chain_complex():
    assert_value_semantics(disk, [build_complex({0: 1, 1: 1}, {1: [[3]]}),
                                  build_complex({0: 1, 1: 2}, {1: [[2, 0]]})])
    assert repr(disk()) == "ChainComplex(Z^1 -> Z^1 in degrees [0,1])"
    assert repr(build_complex({}, {})) == "ChainComplex(0)"


def test_mapping_cone():
    make = lambda: cone(build_chain_map(disk(), disk(), {0: [[1]], 1: [[1]]}))
    zero = cone(build_chain_map(disk(), disk(), {}))
    assert_value_semantics(make, [zero])
    mc = make()
    assert isinstance(mc, MappingCone)
    assert repr(mc) == fields_repr(mc, ("complex", "inclusion", "projection"))
    assert repr(mc.inclusion) == (
        "ChainMap(ChainComplex(Z^1 -> Z^1 in degrees [0,1]) -> "
        "ChainComplex(Z^1 -> Z^2 -> Z^1 in degrees [0,2]), degree 0)")


def test_graded_matrix():
    f = build_chain_map(disk(), disk(), {0: [[1]], 1: [[1]]})
    make = lambda: cone_star_matrix(f)
    zero = cone_star_matrix(build_chain_map(disk(), disk(), {}))
    assert_value_semantics(make, [zero, GradedMatrix(make().matrix, (0, 1, 0, 0))])
    assert make().grades == (0, 1, 0, 1)
    assert repr(GradedMatrix(eye(1), (0,))) == (
        "GradedMatrix(matrix=Matrix([[1]], ncols=1), grades=(0,))")


def test_smith_decomposition():
    make = lambda: smith_normal_form([[2, 4], [6, 8]])
    assert_value_semantics(make, [smith_normal_form([[2, 4], [6, 9]])])
    dec = make()
    assert repr(dec) == fields_repr(dec, ("matrix", "U", "S", "V"))
    assert repr(dec).startswith("SmithDecomposition(matrix=Matrix(")


def test_homology_group_hashes_like_its_fields():
    make = lambda: HomologyGroup(1, (2,))
    assert_value_semantics(make, [HomologyGroup(0, (2,)),
                                  HomologyGroup(1, (2, 4))], hashable=True)
    assert hash(make()) == hash((1, (2,)))
    assert repr(make()) == "Z + Z/2"
    assert repr(HomologyGroup(0, ())) == "0"


def test_chain_map_and_graded_map_compare_across_the_subclass():
    A = disk()
    g = GradedMap(A, A, 0, {0: eye(1), 1: eye(1)})
    f = ChainMap(A, A, {0: eye(1), 1: eye(1)})
    assert f == g and g == f
    assert f != GradedMap(A, A, 1, {}) and ChainMap(A, A, {}) != f
    with pytest.raises(TypeError):
        hash(f)
    assert repr(g) == ("GradedMap(ChainComplex(Z^1 -> Z^1 in degrees [0,1]) -> "
                       "ChainComplex(Z^1 -> Z^1 in degrees [0,1]), degree 0)")
