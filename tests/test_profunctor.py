import ast
import itertools
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxcat.errors import LaxcatError
from laxcat.fincat import (CatFunctor, identity_functor, opposite, product,
                           standard_category)
from laxcat.ids import composite_id
from laxcat.profunctor import (Profunctor, ProTransformation, associator,
                               build_profunctor, build_protransformation,
                               naturality_report, restrict_along,
                               check_cocontinuity, compose_profunctors,
                               coproduct, coproduct_injections, coequalizer,
                               from_functor, hom_profunctor,
                               is_natural_iso, left_unitor,
                               opposite_profunctor, quotient_by_relation,
                               right_unitor)
from laxcat.rand import (_z2_monoid, rand_category, rand_profunctor,
                         rng_from_seed)
import laxcat.profunctor as profunctor
from gluing_oracles import (abelian_group, compose_along_every_morphism,
                            glue_checking_every_outer_morphism)
from law_oracles import first_violation, quaternion_group, symmetric_group_3

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rand_parallel_pair(rng, C, D, max_cell=8):
    """A parallel pair of transformations built from a tag swap and a
    quotient projection, so both are natural by construction."""
    R = rand_profunctor(rng, C, D, max(1, max_cell // 2))
    P, inl, inr = coproduct_injections(R, R)
    swap = {}
    for pair, es in R.elements.items():
        left, right = inl.components[pair], inr.components[pair]
        swap[pair] = {**{left[e]: right[e] for e in es},
                      **{right[e]: left[e] for e in es}}
    pairs = []
    for _ in range(rng.randint(0, 2)):
        fat = [pair for pair, es in P.elements.items() if len(es) >= 2]
        if not fat:
            break
        pair = rng.choice(sorted(fat))
        pairs.append(tuple(rng.sample(sorted(P.elements[pair]), 2)))
    Q, proj = quotient_by_relation(P, pairs)
    # beta = proj . swap, component by component
    beta = build_protransformation(
        P, Q, {pair: {e: proj.components[pair][s] for e, s in table.items()}
               for pair, table in swap.items()})
    return proj, beta


def small_instance(seed, legs=2, max_cell=3):
    rng = rng_from_seed(seed)
    cats = [rand_category(rng, 3) for _ in range(legs + 1)]
    pros = [rand_profunctor(rng, cats[i], cats[i + 1], max_cell)
            for i in range(legs)]
    return cats, pros


def test_hom_profunctor_elements_are_homs():
    I = standard_category("interval")
    H = hom_profunctor(I)
    assert H.elems("1", "0") == ("u",)
    assert H.elems("0", "1") == ()


def test_build_rejects_duplicate_ids_across_cells():
    C = standard_category("discrete", 1)
    D = standard_category("discrete", 2)
    with pytest.raises(LaxcatError,
                       match=r"^element id 'e' appears in cells \('0', "
                             r"'0'\) and \('1', '0'\)$"):
        build_profunctor(C, D, {("0", "0"): ["e"], ("1", "0"): ["e"]}, {}, {})


def test_build_rejects_nonfunctorial_action():
    # t.t = id in the two-element group, but the table squares to a constant
    from laxcat.rand import _z2_monoid
    C = standard_category("discrete", 1)
    with pytest.raises(LaxcatError,
                       match=r"^left action not functorial on \('t', 't'\) "
                             r"at 'a'$"):
        build_profunctor(C, _z2_monoid(), {("m", "0"): ["a", "b"]},
                         {"t": {"a": "b", "b": "b"}}, {})


def test_opposite_profunctor_involution():
    rng = rng_from_seed(5)
    for _ in range(10):
        C, D = rand_category(rng, 3), rand_category(rng, 3)
        P = rand_profunctor(rng, C, D, 3)
        assert opposite_profunctor(opposite_profunctor(P)) == P


def test_opposite_profunctor_is_a_cached_view():
    rng = rng_from_seed(8)
    for _ in range(10):
        C, D = rand_category(rng, 3), rand_category(rng, 3)
        P = rand_profunctor(rng, C, D, 3)
        Pop = opposite_profunctor(P)
        assert opposite_profunctor(P) is Pop
        assert opposite_profunctor(Pop) is P
        assert Pop.lact is P.ract and Pop.ract is P.lact
        assert Pop.source is opposite(D) and Pop.target is opposite(C)
        assert Pop.elements == {(c, d): es for (d, c), es in P.elements.items()}


def test_a_hom_profunctor_and_its_opposites_die_with_the_last_name(
        gc_disabled):
    C = product(standard_category("simplex", 2), standard_category("interval"))
    H = hom_profunctor(C)
    Hop = opposite_profunctor(H)
    assert opposite_profunctor(Hop) is H
    refs = [weakref.ref(x) for x in (C, opposite(C), H, Hop)]
    del C, H, Hop
    assert [r() for r in refs] == [None] * 4


def test_an_opposite_that_outlives_its_profunctor_rebuilds_it(gc_disabled):
    rng = rng_from_seed(9)
    for _ in range(10):
        C, D = rand_category(rng, 3), rand_category(rng, 3)
        P = rand_profunctor(rng, C, D, 3)
        first = Profunctor(C, D, dict(P.elements), P.lact, P.ract)
        Pop = opposite_profunctor(P)
        dead = weakref.ref(P)
        del P
        assert dead() is None
        rebuilt = opposite_profunctor(Pop)
        assert rebuilt == first
        assert list(rebuilt.elements) == list(first.elements)
        assert opposite_profunctor(rebuilt) is Pop
        assert opposite_profunctor(Pop) is rebuilt


def _corruptions(rng, P, count):
    """count copies of P's action tables with one entry moved to another
    element of the same cell, so typing passes and functoriality fails."""
    for _ in range(count):
        side = rng.choice(("lact", "ract"))
        acts = {m: dict(t) for m, t in getattr(P, side).items()}
        m, e = rng.choice(sorted((m, e) for m, t in acts.items() for e in t))
        acts[m][e] = rng.choice(P.elements[P.cell_of(acts[m][e])])
        yield (acts, P.ract) if side == "lact" else (P.lact, acts)


def _middle_is_a_generator(P, message):
    """Whether the factor the generator pass ranges over in the pair (g, f)
    of a functoriality violation is a generator: g on the left, where
    lact[g.f] = lact[g] lact[f], and f on the right, where
    ract[g.f] = ract[f] ract[g]."""
    pair = ast.literal_eval(message.split(" on ", 1)[1].rsplit(" at ", 1)[0])
    if message.startswith("left"):
        return pair[0] in P.target.generators()
    return pair[1] in P.source.generators()


def test_validation_reports_the_violation_of_the_two_sided_oracle():
    rng = rng_from_seed(12)
    instances = [hom_profunctor(abelian_group(4, 2)),
                 hom_profunctor(symmetric_group_3()),
                 hom_profunctor(quaternion_group()),
                 hom_profunctor(product(_z2_monoid(),
                                        standard_category("simplex", 2)))]
    for _ in range(6):
        C, D = rand_category(rng, 4), rand_category(rng, 4)
        instances.append(rand_profunctor(rng, C, D, 4))
    seen, at_generator = set(), []
    for P in instances:
        P = coproduct(P, P)
        for lact, ract in _corruptions(rng, P, 25):
            want = first_violation(P.source, P.target, P.elements, lact, ract)
            if want is None:
                build_profunctor(P.source, P.target, P.elements, lact, ract)
                continue
            with pytest.raises(LaxcatError) as exc:
                build_profunctor(P.source, P.target, P.elements, lact, ract)
            assert str(exc.value) == want
            seen.add(want.split(" on ")[0])
            if "functorial" in want:
                at_generator.append(_middle_is_a_generator(P, want))
    assert seen >= {"left action not functorial", "right action not functorial"}
    # the generator pass alone never meets the reported pair of these
    assert at_generator.count(False) >= 5 and at_generator.count(True) >= 5


def _conjugated_right_actions(rng, P, count):
    """count copies of P's right action conjugated by a random permutation
    of each cell: functorial still, but not always commuting with the left
    action."""
    for _ in range(count):
        pi = {}
        for es in P.elements.values():
            pi.update(zip(es, rng.sample(es, len(es))))
        yield {s: {pi[e]: pi[img] for e, img in t.items()}
               for s, t in P.ract.items()}


def test_commuting_along_generators_reports_the_pair_of_every_morphism():
    rng = rng_from_seed(13)
    instances = [hom_profunctor(C) for C in (
        abelian_group(2, 3), symmetric_group_3(), quaternion_group(),
        product(_z2_monoid(), standard_category("interval")),
        product(standard_category("simplex", 2), standard_category("interval")),
        standard_category("simplex", 3))]
    for _ in range(10):
        C, D = rand_category(rng, 3), rand_category(rng, 3)
        instances.append(rand_profunctor(rng, C, D, 4))
    at_generators = []
    for P in instances:
        P = coproduct(P, P)
        for ract in _conjugated_right_actions(rng, P, 10):
            want = first_violation(P.source, P.target, P.elements, P.lact, ract)
            if want is None:
                build_profunctor(P.source, P.target, P.elements, P.lact, ract)
                continue
            with pytest.raises(LaxcatError) as exc:
                build_profunctor(P.source, P.target, P.elements, P.lact, ract)
            assert str(exc.value) == want
            gamma, sigma = map(ast.literal_eval, re.fullmatch(
                r"actions of (.*) and (.*) do not commute at .*", want).groups())
            at_generators.append(gamma in P.target.generators()
                                 and sigma in P.source.generators())
    assert at_generators.count(False) >= 5 and at_generators.count(True) >= 5


def test_naturality_messages_name_the_morphism_and_element():
    # M: pt -> I with m0 over 0 and m1, m2 over 1; swapping m1 and m2 breaks
    # the square of u at m0.  N is the mirror, I -> pt, acted on the right.
    pt, I = standard_category("discrete", 1), standard_category("interval")
    M = build_profunctor(pt, I, {("0", "0"): ["m0"], ("1", "0"): ["m1", "m2"]},
                         {"u": {"m0": "m1"}}, {})
    N = build_profunctor(I, pt, {("0", "0"): ["n1", "n2"], ("0", "1"): ["n0"]},
                         {}, {"u": {"n0": "n1"}})
    swap_m = ProTransformation(M, M, {("0", "0"): {"m0": "m0"},
                                      ("1", "0"): {"m1": "m2", "m2": "m1"}})
    swap_n = ProTransformation(N, N, {("0", "0"): {"n1": "n2", "n2": "n1"},
                                      ("0", "1"): {"n0": "n0"}})
    assert naturality_report(swap_m).failures == [
        "naturality fails against 'u' at 'm0'"]
    assert naturality_report(swap_n).failures == [
        "naturality fails against 'u' at 'n0'"]
    with pytest.raises(LaxcatError,
                       match="^naturality fails against 'u' at 'n0'$"):
        build_protransformation(N, N, swap_n.components)


def test_restrict_along_functors():
    D2 = standard_category("simplex", 2)
    H = hom_profunctor(D2)
    assert restrict_along(H, identity_functor(D2), identity_functor(D2)) == H
    # the ends of the interval to 0 and 2: hom(0, 2) is one element
    I = standard_category("interval")
    ends = CatFunctor(I, D2, {"0": "0", "1": "2"},
                      {"id_0": "0<=0", "id_1": "2<=2", "u": "0<=2"})
    R = restrict_along(H, ends, ends)
    assert R.elements == {("0", "0"): ("0<=0",), ("0", "1"): (),
                          ("1", "0"): ("0<=2",), ("1", "1"): ("2<=2",)}
    assert R.lact["u"] == {"0<=0": "0<=2"}
    assert R.ract["u"] == {"2<=2": "0<=2"}


def test_compose_with_empty_is_empty():
    rng = rng_from_seed(6)
    C, D = rand_category(rng, 3), rand_category(rng, 3)
    P = rand_profunctor(rng, C, D, 3)
    E = standard_category("discrete", 1)
    assert compose_profunctors(build_profunctor(D, E, {}, {}, {}), P).total_size() == 0


def test_compose_mismatched_legs():
    C = standard_category("discrete", 1)
    D = standard_category("discrete", 2)
    P = rand_profunctor(rng_from_seed(0), C, D, 2)
    with pytest.raises(LaxcatError,
                       match=r"^middle categories differ: target of the "
                             r"right factor must equal source of the left "
                             r"factor$"):
        compose_profunctors(P, P)


def test_documented_gluing_collapse():
    """A one-step middle leg glues the two generator pairs into one class."""
    pt = standard_category("discrete", 1)
    I = standard_category("interval")
    M = build_profunctor(pt, I, {("0", "0"): ["m0"], ("1", "0"): ["m1"]},
                         lact={"u": {"m0": "m1"}}, ract={})
    N = build_profunctor(I, pt, {("0", "0"): ["n0"], ("0", "1"): ["n1"]},
                         lact={}, ract={"u": {"n1": "n0"}})
    comp = compose_profunctors(N, M)
    assert comp.total_size() == 1


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_unitors_are_natural_isos(seed):
    _, (P,) = small_instance(seed, legs=1)
    assert is_natural_iso(left_unitor(P)).ok
    assert is_natural_iso(right_unitor(P)).ok


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_associator_is_natural_iso(seed):
    _, (O, N, P) = small_instance(seed, legs=3)
    assert is_natural_iso(associator(P, N, O)).ok


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_cocontinuity_in_both_variables(seed):
    rng = rng_from_seed(seed)
    C, D, E = (rand_category(rng, 3) for _ in range(3))
    N = rand_profunctor(rng, D, E, 3)
    M1 = rand_profunctor(rng, C, D, 3)
    M2 = rand_profunctor(rng, C, D, 3)
    rep = check_cocontinuity(N, M1, M2)
    assert rep.ok, rep.failures


MIDDLE_DIFFERS = ("middle categories differ: target of the right factor "
                  "must equal source of the left factor")


def test_cocontinuity_failure_lines_name_each_check_and_variable():
    pt = standard_category("discrete", 1)
    I = standard_category("interval")
    M1 = build_profunctor(pt, I, {("0", "0"): ["a"], ("1", "0"): ["b"]},
                          {"u": {"a": "b"}}, {})
    # N does not compose with M1: every composite of the four checks fails
    N = build_profunctor(pt, pt, {("0", "0"): ["n"]}, {}, {})
    assert check_cocontinuity(N, M1, M1).failures == [
        f"{check}: {MIDDLE_DIFFERS}"
        for check in ("coproduct/right", "coproduct/left",
                      "coequalizer/right", "coequalizer/left")]
    # M2 has another source, so only the coproduct M1 + M2 is refused
    N = build_profunctor(I, pt, {("0", "0"): ["n"]}, {}, {})
    M2 = build_profunctor(standard_category("discrete", 2), I, {}, {}, {})
    assert check_cocontinuity(N, M1, M2).failures == [
        "coproduct/right: coproduct operands have different endpoints"]


def test_coequalizer_check_composes_each_pair_once(monkeypatch):
    # one composite with each of alpha.source, alpha.target and the
    # coequalizer; both whiskerings share the first two
    calls = []
    real = profunctor.compose_with_pairing

    def counting(N, M):
        calls.append((N, M))
        return real(N, M)
    monkeypatch.setattr(profunctor, "compose_with_pairing", counting)
    rng = rng_from_seed(37)
    C, D, E = (rand_category(rng, 3) for _ in range(3))
    N = rand_profunctor(rng, D, E, 3)
    M = rand_profunctor(rng, C, D, 3)
    _, inl, inr = coproduct_injections(M, M)
    # the left variable is the right one on the opposites
    Mop, Nop = opposite_profunctor(M), opposite_profunctor(N)
    _, jnl, jnr = coproduct_injections(Nop, Nop)
    for args in ((N, inl, inr), (Mop, jnl, jnr)):
        calls.clear()
        rep = profunctor.check_cocontinuity_coequalizer(*args)
        assert rep.ok, rep.failures
        assert len(calls) == 3


def test_coproduct_injections_are_natural():
    rng = rng_from_seed(9)
    C, D = rand_category(rng, 3), rand_category(rng, 3)
    M1 = rand_profunctor(rng, C, D, 3)
    M2 = rand_profunctor(rng, C, D, 3)
    S, inl, inr = coproduct_injections(M1, M2)
    assert S == coproduct(M1, M2)
    assert inl.target == S and inr.target == S
    assert S.total_size() == M1.total_size() + M2.total_size()


def test_quotient_propagates_along_actions():
    pt = standard_category("discrete", 1)
    I = standard_category("interval")
    M = build_profunctor(pt, I, {("0", "0"): ["m0"], ("1", "0"): ["m1"]},
                         lact={"u": {"m0": "m1"}}, ract={})
    S = coproduct(M, M)
    # gluing the sources forces gluing of the u-images
    Q, proj = quotient_by_relation(S, [("inl:m0", "inr:m0")])
    assert Q.total_size() == 2
    assert (proj.components[("1", "0")]["inl:m1"]
            == proj.components[("1", "0")]["inr:m1"])


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_coequalizer_coequalizes(seed):
    rng = rng_from_seed(seed)
    C, D = rand_category(rng, 3), rand_category(rng, 3)
    alpha, beta = rand_parallel_pair(rng, C, D, 4)
    Q, proj = coequalizer(alpha, beta)
    for pair, es in alpha.source.elements.items():
        for e in es:
            a = proj.components[pair][alpha.components[pair][e]]
            b = proj.components[pair][beta.components[pair][e]]
            assert a == b


def test_transformation_requires_naturality():
    pt = standard_category("discrete", 1)
    I = standard_category("interval")
    P = build_profunctor(pt, I, {("0", "0"): ["a0", "b0"], ("1", "0"): ["a1", "b1"]},
                         lact={"u": {"a0": "a1", "b0": "b1"}}, ract={})
    swapped = {("0", "0"): {"a0": "b0", "b0": "a0"},
               ("1", "0"): {"a1": "a1", "b1": "b1"}}
    with pytest.raises(LaxcatError,
                       match=r"^naturality fails against 'u' at 'a0'; "
                             r"naturality fails against 'u' at 'b0'$"):
        build_protransformation(P, P, swapped)


def test_from_functor_cells():
    I = standard_category("interval")
    D2 = standard_category("simplex", 2)
    F = CatFunctor(I, D2, {"0": "0", "1": "2"},
                   {"id_0": "0<=0", "id_1": "2<=2", "u": "0<=2"})
    P = from_functor(F)
    # P(d, c) = maps F(c) -> d
    assert len(P.elems("1", "0")) == 1
    assert len(P.elems("1", "1")) == 0
    assert len(P.elems("2", "1")) == 1


def test_gluing_along_generators_matches_every_morphism():
    square = product(standard_category("simplex", 2), standard_category("simplex", 2))
    pairs = [(hom_profunctor(square),) * 2,
             (hom_profunctor(abelian_group(2, 3)),) * 2]
    rng = rng_from_seed(32)
    for _ in range(25):
        C, D, E = (rand_category(rng, 3) for _ in range(3))
        pairs.append((rand_profunctor(rng, D, E, 3), rand_profunctor(rng, C, D, 3)))
    for N, M in pairs:
        fast = profunctor.compose_with_pairing(N, M)
        ref = compose_along_every_morphism(N, M)
        assert fast.profunctor == ref.profunctor
        assert fast.class_of == ref.class_of
        assert fast.rep_of == ref.rep_of


def _partitions(rng, P, count):
    """count random partitions of every cell of P, as the classes _glue
    takes; few of them are congruences for P's actions."""
    for _ in range(count):
        classes = {}
        for cell, es in P.elements.items():
            blocks, k = {}, rng.randint(1, max(1, len(es)))
            for e in es:
                blocks.setdefault(rng.randrange(k), []).append(e)
            classes[cell] = {min(b): sorted(b) for b in blocks.values()}
        yield classes


def test_glue_along_outer_generators_matches_every_outer_morphism():
    rng = rng_from_seed(33)
    instances = [hom_profunctor(abelian_group(2, 3)),
                 hom_profunctor(symmetric_group_3()),
                 hom_profunctor(product(standard_category("simplex", 2),
                                        standard_category("interval")))]
    for _ in range(10):
        C, D = rand_category(rng, 3), rand_category(rng, 3)
        instances.append(rand_profunctor(rng, C, D, 4))
    verdicts = []
    for P in instances:
        P = coproduct(P, P)
        singletons = {cell: {e: [e] for e in es} for cell, es in P.elements.items()}
        args = (lambda g, es: [P.lact[g][e] for e in es],
                lambda s, es: [P.ract[s][e] for e in es])
        for classes in [singletons, *_partitions(rng, P, 10)]:
            try:
                want = glue_checking_every_outer_morphism(
                    P.source, P.target, classes, str, *args)
            except AssertionError as exc:
                with pytest.raises(AssertionError) as got:
                    profunctor._glue(P.source, P.target, classes, str, *args)
                assert str(got.value) == str(exc)
                side, a = re.match(r"outer (\w+) action of (.*) ill-defined",
                                   str(exc)).groups()
                outer = P.target if side == "left" else P.source
                verdicts.append(ast.literal_eval(a) in outer.generators())
                continue
            got = profunctor._glue(P.source, P.target, classes, str, *args)
            assert got.profunctor == want.profunctor
            assert (got.class_of, got.rep_of) == (want.class_of, want.rep_of)
            verdicts.append("glued")
    assert verdicts.count("glued") >= len(instances)
    assert verdicts.count(False) >= 5 and verdicts.count(True) >= 5


def test_composite_ids_with_separators_do_not_collide():
    pt = standard_category("discrete", 1)
    N = build_profunctor(pt, pt, {("0", "0"): ["a*b", "a"]}, {}, {})
    M = build_profunctor(pt, pt, {("0", "0"): ["c", "b*c"]}, {}, {})
    assert len(compose_profunctors(N, M).elems("0", "0")) == 4


def test_composite_id_is_injective_and_keeps_plain_ids():
    assert composite_id(("(0,x)", "(u,f@x)", "0<=1")) == "((u,f@x)*0<=1@(0,x))"
    parts = ["".join(w) for k in range(3) for w in itertools.product("a\\*@", repeat=k)]
    names = {composite_id(gen) for gen in itertools.product(parts, repeat=3)}
    assert len(names) == len(parts) ** 3
