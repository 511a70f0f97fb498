"""Collages, the lax matrix calculus, and their round trips."""

import itertools
from types import SimpleNamespace

import pytest

import laxcat.collage as collage
from laxcat.cli import main
from laxcat.collage import (Collage, LaxMatrix, assemble_matrix,
                            block_multiply, build_diagram, check_absoluteness,
                            check_bilimit_roundtrip, check_block_multiply,
                            check_semiorthogonal, collage_of_profunctor,
                            grothendieck, restrict_matrix)
from laxcat.errors import LaxcatError
from laxcat.fincat import (CatFunctor, build_category, identity_functor,
                           standard_category)
from laxcat.jsonio import diagram_to_json, dumps_canonical, profunctor_to_json
from laxcat.profunctor import (build_profunctor, compose_profunctors,
                               compose_with_pairing, from_functor,
                               hom_profunctor)
from laxcat.rand import (rand_category, rand_diagram, rand_profunctor,
                         rng_from_seed)
from gluing_oracles import block_multiply_along_every_morphism
from matrix_oracles import assemble_matrix_by_side


def interval_diagram():
    I = standard_category("interval")
    D2 = standard_category("simplex", 2)
    F = CatFunctor(I, D2, {"0": "0", "1": "2"},
                   {"id_0": "0<=0", "id_1": "2<=2", "u": "0<=2"})
    return build_diagram(I, {"0": I, "1": D2}, {"u": F}), F


def test_grothendieck_objects_and_homs():
    X, _ = interval_diagram()
    G = grothendieck(X)
    assert len(G.total.objects) == 2 + 3
    # no morphisms from the far fiber back to the near one
    assert G.total.hom("(1,0)", "(0,0)") == ()


def separator_functor():
    """The inclusion of the discrete category on c, b@c, x,y and \\ into
    the category that adds one object z and one morphism from each of
    them into z, named a@b, a, p,q\\ and @."""
    into_z = {"a@b": "c", "a": "b@c", "p,q\\": "x,y", "@": "\\"}
    names = tuple(into_z.values())
    ids = {x: f"id_{x}" for x in (*names, "z")}
    src = {**{i: x for x, i in ids.items()}, **into_z}
    dst = {**{i: x for x, i in ids.items()}, **dict.fromkeys(into_z, "z")}
    comp = {(i, i): i for i in ids.values()}
    for f, x in into_z.items():
        comp[(f, ids[x])] = comp[(ids["z"], f)] = f
    D = build_category(tuple(ids), tuple(src), src, dst, ids, comp)
    C = build_category(names, [ids[x] for x in names],
                       {ids[x]: x for x in names}, {ids[x]: x for x in names},
                       {x: ids[x] for x in names},
                       {(ids[x], ids[x]): ids[x] for x in names})
    return CatFunctor(C, D, {x: x for x in names},
                      {ids[x]: ids[x] for x in names})


def test_from_functor_ids_with_separators_stay_distinct():
    # unescaped, a@b at c and a at b@c were both the element 'a@b@c'
    P = from_functor(separator_functor())
    assert P.elems("z", "c") == ("a@b@c",)
    assert P.elems("z", "b@c") == (r"a@b\@c",)
    assert P.elems("z", "\\") == (r"@@\\",)
    assert P.elems("b@c", "b@c") == (r"id_b@c@b\@c",)


def test_grothendieck_matches_profunctor_collage():
    """Gluing along a functor and gluing along its representable give the
    same composition table, not merely isomorphic ones, also on ids that
    hold the separators of derived names."""
    I = standard_category("interval")
    for F in (interval_diagram()[1], separator_functor()):
        X = build_diagram(I, {"0": F.source, "1": F.target}, {"u": F})
        G = grothendieck(X)
        assert G.total == collage_of_profunctor(from_functor(F)).total
    assert len(G.total.morphisms) == 4 + 9 + 8
    assert r"(u,a@b\\@c)" in G.total.morphisms


def test_diagram_requires_strict_composites():
    D2 = standard_category("simplex", 2)
    I = standard_category("interval")
    f01 = CatFunctor(I, I, {"0": "0", "1": "1"},
                     {"id_0": "id_0", "id_1": "id_1", "u": "u"})
    f12 = f01
    wrong02 = CatFunctor(I, I, {"0": "0", "1": "0"},
                         {"id_0": "id_0", "id_1": "id_0", "u": "id_0"})
    with pytest.raises(LaxcatError,
                       match=r"^transitions not strictly functorial on "
                             r"\('1<=2', '0<=1'\)$"):
        build_diagram(D2, {"0": I, "1": I, "2": I},
                      {"0<=1": f01, "1<=2": f12, "0<=2": wrong02})


def test_semiorthogonality_batch():
    rng = rng_from_seed(21)
    for _ in range(25):
        C, D = rand_category(rng, 3), rand_category(rng, 3)
        assert check_semiorthogonal(rand_profunctor(rng, C, D, 4)).ok


def _edited_collage(P, drop=(), add=(), comp=()):
    """The collage of P, built again by hand with its total edited: the
    morphisms in drop removed with their composites, each (id, parts,
    source, target) in add added with its identity composites, and the
    composites in comp set."""
    G = collage_of_profunctor(P)
    T = G.total
    mor_parts = {m: parts for m, parts in G.mor_parts.items()
                 if m not in drop}
    src = {m: T.src[m] for m in mor_parts}
    dst = {m: T.dst[m] for m in mor_parts}
    for m, parts, a, b in add:
        mor_parts[m], src[m], dst[m] = parts, a, b
    table = {key: h for key, h in T.comp.items()
             if not {*key, h} & set(drop)}
    for m in mor_parts:
        table[(T.identity[dst[m]], m)] = table[(m, T.identity[src[m]])] = m
    table.update(comp)
    total = build_category(T.objects, mor_parts, src, dst, T.identity, table)
    injections = {tag: CatFunctor(F.source, total, F.obmap, F.mormap)
                  for tag, F in G.injections.items()}
    return Collage(total, G.shape, G.fiber, injections, G.obj_parts,
                   mor_parts)


PT = standard_category("discrete", 1)
INTERVAL = standard_category("interval")
TWO = build_profunctor(PT, PT, {("0", "0"): ["p", "q"]}, {}, {})
EMPTY = build_profunctor(PT, PT, {}, {}, {})
# p at one end of the interval's u, and its image under u one of two
# elements at the other end: u in the target for ALONG_B, in the source
# for ALONG_A
ALONG_B = build_profunctor(PT, INTERVAL,
                           {("0", "0"): ["p"], ("1", "0"): ["q1", "q2"]},
                           {"u": {"p": "q1"}}, {})
ALONG_A = build_profunctor(INTERVAL, PT,
                           {("0", "1"): ["p"], ("0", "0"): ["q1", "q2"]},
                           {}, {"u": {"p": "q1"}})


@pytest.mark.parametrize("P, edit, failure", [
    (EMPTY, {"add": [("e", ("e", "0", "e"), "(0,0)", "(0,0)")],
             "comp": {("e", "e"): "e"}},
     "injection 0 not fully faithful at ('0', '0')"),
    (EMPTY, {"add": [("v", ("v", "0", "v"), "(1,0)", "(0,0)")]},
     "backwards morphisms from (1,'0') to (0,'0'): ('v',)"),
    (TWO, {"drop": ["(u,q)"]},
     "cross hom at ('0', '0') does not match elements"),
    (ALONG_B, {"comp": {("(id_1,u@0)", "(u,p)"): "(u,q2)"}},
     "cross left action differs at 'p' along 'u'"),
    (ALONG_A, {"comp": {("(u,p)", "(id_0,u@0)"): "(u,q2)"}},
     "cross right action differs at 'p' along 'u'"),
], ids=["diagonal", "backwards", "missing-cross", "left-action",
        "right-action"])
def test_semiorthogonality_reports_each_broken_block(monkeypatch, P, edit,
                                                     failure):
    G = _edited_collage(P, **edit)
    monkeypatch.setattr(collage, "collage_of_profunctor", lambda _: G)
    assert check_semiorthogonal(P).failures == [failure]


def test_restrict_assemble_identity():
    rng = rng_from_seed(22)
    for _ in range(15):
        X = rand_diagram(rng, max_fiber_objects=2)
        G = grothendieck(X)
        T = rand_category(rng, 2)
        for side, M in (("source", rand_profunctor(rng, G.total, T, 3)),
                        ("target", rand_profunctor(rng, T, G.total, 3))):
            data = restrict_matrix(M, G, side)
            assert assemble_matrix(data) == M


def test_bilimit_roundtrip_both_orientations():
    rng = rng_from_seed(23)
    for shape in ("interval", "cospan", "simplex2"):
        for _ in range(6):
            X = rand_diagram(rng, shape, 2)
            G = grothendieck(X)
            T = rand_category(rng, 2)
            for M in (rand_profunctor(rng, G.total, T, 3),
                      rand_profunctor(rng, T, G.total, 3)):
                rep = check_bilimit_roundtrip(X, T, M)
                assert rep.ok, rep.failures


def test_block_multiply_equals_global_composite():
    rng = rng_from_seed(24)
    for _ in range(15):
        X = rand_diagram(rng, max_fiber_objects=2)
        G = grothendieck(X)
        A = rand_category(rng, 2)
        B = rand_category(rng, 2)
        N = rand_profunctor(rng, G.total, B, 3)
        M = rand_profunctor(rng, A, G.total, 3)
        Nd = restrict_matrix(N, G, "source")
        Md = restrict_matrix(M, G, "target")
        blockwise = block_multiply(Nd, Md)
        glued = compose_with_pairing(N, M)
        assert blockwise.profunctor == compose_profunctors(N, M)
        # both products hand the same classes to one gluing kernel
        assert blockwise.class_of == glued.class_of
        assert blockwise.rep_of == glued.rep_of
        assert check_block_multiply(Nd, Md).ok


def test_absoluteness_against_mixed_factors():
    rng = rng_from_seed(25)
    for _ in range(12):
        X = rand_diagram(rng, max_fiber_objects=2)
        E = rand_category(rng, 3)
        rep = check_absoluteness(X, E)
        assert rep.ok, rep.failures


def test_bilimit_report_rejects_unanchored():
    X, _ = interval_diagram()
    T = standard_category("discrete", 1)
    other = standard_category("discrete", 2)
    P = rand_profunctor(rng_from_seed(1), other, T, 2)
    rep = check_bilimit_roundtrip(X, T, P)
    assert not rep.ok


def test_block_gluing_along_generators_matches_every_morphism():
    # the simplex2 shape has the composite 0<=2, which is no generator
    rng = rng_from_seed(33)
    for shape in ("interval", "cospan", "simplex2"):
        for _ in range(5):
            X = rand_diagram(rng, shape, 2)
            G = grothendieck(X)
            A, B = rand_category(rng, 2), rand_category(rng, 2)
            Nd = restrict_matrix(rand_profunctor(rng, G.total, B, 3), G, "source")
            Md = restrict_matrix(rand_profunctor(rng, A, G.total, 3), G, "target")
            fast = block_multiply(Nd, Md)
            ref = block_multiply_along_every_morphism(Nd, Md)
            assert fast.profunctor == ref.profunctor
            assert fast.class_of == ref.class_of
            assert fast.rep_of == ref.rep_of


def _lax_matrices():
    """The interval diagram, its collage G, and the blocks N, M of hom(G)
    on the source and target side; a profunctor collage Gp, and the blocks
    M2 of a collage other than G."""
    X, _ = interval_diagram()
    G = grothendieck(X)
    H = hom_profunctor(G.total)
    I = standard_category("interval")
    G2 = grothendieck(build_diagram(I, {"0": I, "1": I},
                                    {"u": identity_functor(I)}))
    return SimpleNamespace(
        X=X, G=G, N=restrict_matrix(H, G, "source"),
        M=restrict_matrix(H, G, "target"),
        Gp=collage_of_profunctor(hom_profunctor(I)),
        M2=restrict_matrix(hom_profunctor(G2.total), G2, "target"))


def _edited(value, **fields):
    """value, a Record, with the given fields replaced."""
    return type(value)(**{**{name: getattr(value, name)
                             for name in value._fields}, **fields})


def _raised(call):
    """The message of the LaxcatError that call() raises."""
    try:
        call()
    except LaxcatError as exc:
        return str(exc)
    return "nothing raised"


def _blockmul_anchored_on_the_wrong_side(fx):
    # the representable of the near fiber's injection maps into the total,
    # so it cannot be the outer factor, which maps out of it
    R = from_functor(fx.G.injections["0"])
    for name, doc in (("x", diagram_to_json(fx.X)),
                      ("r", profunctor_to_json(R))):
        (fx.tmp_path / f"{name}.json").write_text(dumps_canonical(doc))
    code = main(["--workspace", str(fx.tmp_path), "blockmul", "r", "r",
                 "--middle", "x"])
    return f"exit {code}: {fx.capsys.readouterr().err}"


I_HOM = hom_profunctor(standard_category("interval"))


@pytest.mark.parametrize("outcome, expected", [
    (lambda fx: _raised(lambda: restrict_matrix(
        hom_profunctor(fx.Gp.total), fx.Gp, "source")),
     "matrix restriction needs a diagram collage"),
    (lambda fx: _raised(lambda: restrict_matrix(I_HOM, fx.G, "source")),
     "profunctor source is not the collage total"),
    (lambda fx: _raised(lambda: restrict_matrix(I_HOM, fx.G, "target")),
     "profunctor target is not the collage total"),
    (lambda fx: _raised(lambda: assemble_matrix(_edited(fx.N, collage=fx.Gp))),
     "matrix assembly needs a diagram collage"),
    (lambda fx: _raised(lambda: restrict_matrix(
        hom_profunctor(fx.G.total), fx.G, "middle")),
     "side must be source or target, got 'middle'"),
    (lambda fx: _raised(lambda: assemble_matrix(_edited(
        fx.N, side="middle"))),
     "side must be source or target, got 'middle'"),
    (lambda fx: _raised(lambda: assemble_matrix(_edited(
        fx.N, entries={"1": fx.N.entries["1"]}))),
     "missing entry for fiber '0'"),
    (lambda fx: _raised(lambda: assemble_matrix(_edited(
        fx.N, entries={"0": fx.N.entries["1"], "1": fx.N.entries["1"]}))),
     "entry '0' has wrong endpoints"),
    (lambda fx: _raised(lambda: assemble_matrix(_edited(fx.N, transition={}))),
     "missing transition data for 'u' at '0'"),
    # the target side's transitions push forward, the source side's pull back
    (lambda fx: _raised(lambda: assemble_matrix(_edited(
        fx.N, transition=fx.M.transition))),
     "entries and transitions do not assemble: transition 'u' at '0' lacks "
     "'(id_1,0<=0@0)'"),
    (lambda fx: _raised(lambda: assemble_matrix(_edited(
        fx.M, transition=fx.N.transition))),
     "entries and transitions do not assemble: transition 'u' at '0' lacks "
     "'(id_0,id_0@0)'"),
    (lambda fx: _raised(lambda: assemble_matrix(_edited(fx.M, transition={
        "u": {**fx.M.transition["u"], "0": {"(id_0,id_0@0)": "(u,2<=2@1)"}}}))),
     "entries and transitions do not assemble: transition 'u' at '0' sends "
     "'(id_0,id_0@0)' to '(u,2<=2@1)', which '0<=0' does not act on"),
    (lambda fx: _raised(lambda: assemble_matrix(_edited(fx.N, transition={
        "u": {**fx.N.transition["u"], "0": {
            **fx.N.transition["u"]["0"], "(id_1,0<=0@0)": "(u,0<=1@0)"}}}))),
     "entries and transitions do not assemble: right action of "
     "'(u,0<=0@0)' sends '(id_1,0<=0@0)' outside cell ('(1,0)', '(0,0)')"),
    # transition data that assembly would not use is refused, not dropped
    (lambda fx: _raised(lambda: assemble_matrix(_edited(
        fx.N, transition={**fx.N.transition, "nope": {}}))),
     "entries and transitions do not assemble: stray transition 'nope'"),
    (lambda fx: _raised(lambda: assemble_matrix(_edited(fx.N, transition={
        "u": {**fx.N.transition["u"], "zz": {}}}))),
     "entries and transitions do not assemble: stray transition 'u' at 'zz'"),
    (lambda fx: _raised(lambda: assemble_matrix(_edited(fx.N, transition={
        "u": {**fx.N.transition["u"], "0": {
            **fx.N.transition["u"]["0"], "nope": "(u,0<=0@0)"}}}))),
     "entries and transitions do not assemble: stray element 'nope' in "
     "transition 'u' at '0'"),
    (lambda fx: _raised(lambda: block_multiply(fx.M, fx.N)),
     "block product needs N anchored by source and M by target"),
    (lambda fx: _raised(lambda: block_multiply(fx.N, fx.M2)),
     "block product needs a shared middle collage"),
    (_blockmul_anchored_on_the_wrong_side,
     "exit 2: validation failed: profunctor source is not the collage "
     "total\n"),
], ids=["restrict-profunctor-collage", "restrict-source", "restrict-target",
        "assemble-profunctor-collage", "side", "assemble-side",
        "missing-entry", "entry-endpoints", "missing-transition",
        "not-assembling", "not-assembling-target", "transition-off-entry",
        "not-a-profunctor", "stray-transition", "stray-fiber-object",
        "stray-element", "block-sides", "block-collages", "blockmul-command"])
def test_lax_matrix_errors_name_the_broken_piece(outcome, expected, tmp_path,
                                                 capsys):
    fx = _lax_matrices()
    fx.tmp_path, fx.capsys = tmp_path, capsys
    assert outcome(fx) == expected


# A lax matrix written by hand over the simplex-2 shape, with one-object
# fibers and other leg: an entry is a set of elements, a transition a map.
# The source side pulls back along each shape arrow and the target side
# pushes forward, so along 0<=2 the composite runs in the other order.
COCONE_ENTRIES = {"0": ("a0", "a1"), "1": ("b0", "b1"), "2": ("c0", "c1")}
COCONE = {
    "source": {"0<=1": {"b0": "a1", "b1": "a0"},
               "1<=2": {"c0": "b0", "c1": "b0"},
               "composite": {"c0": "a1", "c1": "a1"},
               "broken": {"c0": "a1", "c1": "a0"}},
    "target": {"0<=1": {"a0": "b1", "a1": "b1"},
               "1<=2": {"b0": "c0", "b1": "c1"},
               "composite": {"a0": "c1", "a1": "c1"},
               "broken": {"a0": "c0", "a1": "c1"}},
}


def _simplex2_cocone(side, along_02):
    S = standard_category("simplex", 2)
    pt = standard_category("discrete", 1)
    G = grothendieck(build_diagram(
        S, {s: pt for s in S.objects},
        {g: identity_functor(pt) for g in ("0<=1", "1<=2", "0<=2")}))
    hand = COCONE[side]
    entries = {s: build_profunctor(pt, pt, {("0", "0"): es}, {}, {})
               for s, es in COCONE_ENTRIES.items()}
    transition = {g: {"0": hand[g]} for g in ("0<=1", "1<=2")}
    transition["0<=2"] = {"0": hand[along_02]}
    return LaxMatrix(G, side, pt, entries, transition)


@pytest.mark.parametrize("side, failure", [
    ("source", "entries and transitions do not assemble: right action not "
     "functorial on ('(1<=2,id_0@0)', '(0<=1,id_0@0)') at 'c1'"),
    ("target", "entries and transitions do not assemble: left action not "
     "functorial on ('(1<=2,id_0@0)', '(0<=1,id_0@0)') at 'a0'"),
], ids=["source", "target"])
def test_a_hand_made_simplex_2_cocone_assembles_when_functorial(side,
                                                                failure):
    data = _simplex2_cocone(side, "composite")
    assert restrict_matrix(assemble_matrix(data), data.collage, side) == data
    assert _raised(lambda: assemble_matrix(
        _simplex2_cocone(side, "broken"))) == failure


def _outcome(assemble, data):
    """What assemble(data) returns, or the message of its LaxcatError."""
    try:
        return assemble(data)
    except LaxcatError as exc:
        return str(exc)


def _perturbed(data, rng):
    """data with one transition element dropped, and data with one
    transition element sent to another element of the entry it maps into,
    at one site drawn by rng."""
    S = data.collage.shape
    sites = [(g, x, e) for g, tables in data.transition.items()
             for x, table in tables.items() for e in table]
    if not sites:
        return []
    g, x, e = rng.choice(sites)
    into = data.entries[S.src[g] if data.side == "source" else S.dst[g]]
    tables = data.transition[g]
    others = sorted({e2 for es in into.elements.values() for e2 in es}
                    - {tables[x][e]})
    dropped = {k: v for k, v in tables[x].items() if k != e}
    out = [_edited(data, transition={**data.transition,
                                     g: {**tables, x: dropped}})]
    if others:
        redirected = {**tables[x], e: rng.choice(others)}
        out.append(_edited(data, transition={**data.transition,
                                             g: {**tables, x: redirected}}))
    return out


def test_assembly_agrees_with_the_two_branch_reference():
    # the draws of criterion 3, over all three shapes; the perturbations
    # come from a stream of their own
    seen = {"equal": 0, "lacks": 0, "refused": 0}
    for shape in ("interval", "cospan", "simplex2"):
        for seed in range(100):
            rng = rng_from_seed(2000 + seed)
            X = rand_diagram(rng, shape_kind=shape, max_fiber_objects=2)
            G = grothendieck(X)
            T = rand_category(rng, 2)
            out = rand_profunctor(rng, G.total, T, max_cell=3)
            into = rand_profunctor(rng, T, G.total, max_cell=3)
            pick = rng_from_seed(seed)
            for side, M in (("source", out), ("target", into)):
                data = restrict_matrix(M, G, side)
                assert assemble_matrix(data) == M
                for case in _perturbed(data, pick):
                    got = _outcome(assemble_matrix, case)
                    assert got == _outcome(assemble_matrix_by_side, case)
                    kind = ("equal" if not isinstance(got, str) else
                            "lacks" if " lacks " in got else "refused")
                    seen[kind] += 1
    assert all(seen.values()), seen


# -- the failure lines of the collage checks, one planted defect each --------------

def _with_stray(P, field):
    """P with a stray key in one of its tables, which no restriction reads."""
    return _edited(P, **{field: {**getattr(P, field), "stray": ()}})


def _planted_raise(*_):
    raise LaxcatError("planted")


def _on_call(k, real, edit):
    """real, except that its k-th result is edited."""
    calls = itertools.count(1)

    def planted(*args):
        out = real(*args)
        return edit(out) if next(calls) == k else out
    return planted


def _collapsed_fiber(G):
    """G with the injection of fiber '1' sending every object to one."""
    F = G.injections["1"]
    one = F.obmap[F.source.objects[0]]
    return _edited(G, injections={
        **G.injections, "1": CatFunctor(F.source, F.target,
                                        {x: one for x in F.obmap}, F.mormap)})


def _dropped_morphism(G):
    """G with its first cross morphism gone from mor_parts."""
    cross = next(m for m, (gamma, _, _) in G.mor_parts.items()
                 if not G.shape.is_identity(gamma))
    return _edited(G, mor_parts={
        m: parts for m, parts in G.mor_parts.items() if m != cross})


def _bilimit(fx):
    return check_bilimit_roundtrip(fx.X, fx.G.total, hom_profunctor(fx.G.total))


def _block(fx):
    return check_block_multiply(fx.N, fx.M)


@pytest.mark.parametrize("check, name, plant, failure", [
    (_bilimit, "assemble_matrix", lambda real: _planted_raise,
     "round trip raised: planted"),
    (_bilimit, "assemble_matrix",
     lambda real: lambda data: _with_stray(real(data), "elements"),
     "assembled elements differ"),
    (_bilimit, "assemble_matrix",
     lambda real: lambda data: _with_stray(real(data), "lact"),
     "assembled left action differs"),
    (_bilimit, "assemble_matrix",
     lambda real: lambda data: _with_stray(real(data), "ract"),
     "assembled right action differs"),
    (_bilimit, "restrict_matrix",
     lambda real: _on_call(2, real, lambda data: _edited(
         data, transition={})),
     "re-restriction differs from the original blocks"),
    (_block, "block_multiply", lambda real: _planted_raise,
     "block product raised: planted"),
    (_block, "block_multiply",
     lambda real: lambda N, M: SimpleNamespace(
         profunctor=_with_stray(real(N, M).profunctor, "elements")),
     "blockwise composite differs from the global coend"),
], ids=["roundtrip-raised", "assembled-elements", "assembled-left-action",
        "assembled-right-action", "re-restriction", "block-raised",
        "block-differs"])
def test_collage_checks_report_each_planted_defect(monkeypatch, check, name,
                                                   plant, failure):
    fx = _lax_matrices()
    monkeypatch.setattr(collage, name, plant(getattr(collage, name)))
    assert check(fx).failures == [failure]


@pytest.mark.parametrize("edit, failure, spared", [
    (_collapsed_fiber, "comparison is not bijective on objects",
     "comparison is not bijective on morphisms"),
    (_dropped_morphism, "comparison is not bijective on morphisms",
     "comparison is not bijective on objects"),
], ids=["objects", "morphisms"])
def test_absoluteness_reports_a_comparison_off_a_bijection(monkeypatch, edit,
                                                           failure, spared):
    # the defect sits in the collage of X, the first one the check builds
    fx = _lax_matrices()
    monkeypatch.setattr(collage, "grothendieck",
                        _on_call(1, collage.grothendieck, edit))
    failures = check_absoluteness(fx.X, standard_category("interval")).failures
    # the comparison functor's own failures come first
    assert failures[-1] == failure and spared not in failures
