"""Set-valued profunctors between finite categories.

A Profunctor P from C to D assigns a finite set of elements to every pair
(d, c) of a D-object and a C-object, covariantly acted on by D (left
action, pushforward along gamma: d -> d') and contravariantly by C (right
action, pullback along sigma: c -> c').  The hom profunctor of C has
elements(d, c) = Hom_C(c, d), so elements are heteromorphisms from source
objects to target objects.

Composition is the coend formula: (N . M)(e, c) is the disjoint union over
middle objects d of N(e, d) x M(d, c), glued by moving middle morphisms
across the pair in both variances.  Gluing is computed by union-find and
each class is named after its lexicographically least member, so composites
are canonical and reproducible.

Only the middle category's generators() are glued along.  For a composite
gamma = beta . alpha the relation along gamma follows from those along
alpha and beta:

    (d, n.beta.alpha, m) = (d, (n.beta).alpha, m)
                         ~ (d1, n.beta, alpha.m)
                         ~ (d', n, beta.(alpha.m))

so the classes, and with them the least members that name them, are those
of gluing along every middle morphism.  The laws go along generators too,
by fincat.along_generators: functoriality, commuting actions and the outer
actions of _glue.

The coend union loop is written once, in _coend, over a middle category
given by its ordered objects and by arrows carrying the factors' tables
(Loregian, (Co)end Calculus, arXiv:1501.02503): compose_with_pairing passes
the middle generators, collage.block_multiply the fiber generators and the
canonical transitions (gamma, id) of a collage total.  _coend and
quotient_by_relation, which closes a relation under the actions, hand their
classes to _glue, the one place where classes are named and the outer
actions are checked and read off their least members.

The right action of P is the left action of opposite_profunctor(P), a
cached view that shares P's tables.  So the laws, naturality and the
identity tables are written for the left action only and run on both, and
the cocontinuity checks for the right variable only, since
(X . M)^op = M^op . X^op.
restrict_along(P, F, G) is the one restriction of a profunctor along
functors, P(G-, F-); the blocks of a collage's hom and the entries of a lax
matrix are such restrictions.
"""

import weakref
from itertools import product

from .errors import LaxcatError
from .fincat import (CatFunctor, FinCategory, _cached_opposite,
                     along_generators, opposite)
from .ids import composite_id, join_id
from .report import Record, Report
from .unionfind import UnionFind


class Profunctor(Record):
    source: FinCategory
    target: FinCategory
    elements: dict[tuple[str, str], tuple[str, ...]]
    lact: dict[str, dict[str, str]]
    ract: dict[str, dict[str, str]]
    # caches, filled on first use
    pair_of = _opposite = None

    def elems(self, d: str, c: str) -> tuple[str, ...]:
        return self.elements[(d, c)]

    def cell_of(self, e: str) -> tuple[str, str]:
        if self.pair_of is None:
            self.pair_of = {e: pair for pair, es in self.elements.items()
                            for e in es}
        return self.pair_of[e]

    def total_size(self) -> int:
        return sum(len(v) for v in self.elements.values())

    def __repr__(self):
        return (f"Profunctor({len(self.source.objects)}-object source, "
                f"{len(self.target.objects)}-object target, "
                f"{self.total_size()} elements)")


def build_profunctor(source: FinCategory, target: FinCategory,
                     elements, lact, ract) -> Profunctor:
    """Normalize, then validate functoriality of both actions in full.

    Missing cells become empty; missing action tables are filled in, an
    identity's table fixing every element it does not map.  Element ids
    must be globally unique across the whole profunctor so the flat action
    tables are unambiguous.
    """
    cells = {(d, c): tuple(sorted(elements.get((d, c), ())))
             for d in target.objects for c in source.objects}
    for key in elements:
        if key not in cells:
            raise LaxcatError(f"element cell {key!r} is not a (target, source) pair")

    seen: dict[str, tuple[str, str]] = {}
    for pair, es in cells.items():
        if len(set(es)) != len(es):
            raise LaxcatError(f"duplicate element id in cell {pair!r}")
        for e in es:
            if e in seen:
                raise LaxcatError(
                    f"element id {e!r} appears in cells {seen[e]!r} and {pair!r}")
            seen[e] = pair

    P = Profunctor(source, target, cells,
                   {m: dict(t) for m, t in lact.items()},
                   {m: dict(t) for m, t in ract.items()})
    # the opposite shares P's tables: filling its left action fills P's right
    for Q in (P, opposite_profunctor(P)):
        for gamma in Q.target.morphisms:
            table = Q.lact.setdefault(gamma, {})
            if Q.target.is_identity(gamma):
                for c in Q.source.objects:
                    for e in Q.elements[(Q.target.src[gamma], c)]:
                        table.setdefault(e, e)
    _validate_profunctor(P)
    return P


def _validate_profunctor(P: Profunctor) -> None:
    """Raise LaxcatError naming the first violated law.

    The laws of an action are written once, in _left_action_laws, and run on
    P and on its opposite, whose left action is P's right action: each stage
    on the left before the same stage on the right.  Right-hand messages name
    cells and pairs in P's own order.  Last, the two actions must commute.
    """
    for left, right in zip(_left_action_laws(P),
                           _left_action_laws(opposite_profunctor(P))):
        for text, *fields in left:
            raise LaxcatError(text.format(*fields, side="left", legs="target"))
        for text, *fields in right:
            fields = [f[::-1] if isinstance(f, tuple) else f for f in fields]
            raise LaxcatError(text.format(*fields, side="right", legs="source"))

    C, D = P.source, P.target

    def uncommuting(pairs):
        for gamma, sigma in pairs:
            left, right = P.lact[gamma], P.ract[sigma]
            for e in P.elements[(D.src[gamma], C.dst[sigma])]:
                if right[left[e]] != left[right[e]]:
                    yield gamma, sigma, e

    for gamma, sigma, e in along_generators(
            uncommuting, product(D.generators(), C.generators()),
            product(D.morphisms, C.morphisms)):
        raise LaxcatError(
            f"actions of {gamma!r} and {sigma!r} do not commute at {e!r}")


def _left_action_laws(P: Profunctor):
    """The laws of P's left action in four lazy stages: keys, typing,
    identities, functoriality.  Each stage yields (message, *fields) for
    every violation; the caller fills in {side} and {legs}.  Cells and
    composable pairs are fields of their own, as tuples."""
    C, D = P.source, P.target

    def keys():
        if set(P.lact) != set(D.morphisms):
            yield ("{side} action keyed off the {legs} morphisms",)

    def typing():
        cell = {key: set(es) for key, es in P.elements.items()}
        domain = {d: set().union(*(cell[(d, c)] for c in C.objects))
                  for d in D.objects}
        for gamma in D.morphisms:
            d, d2 = D.src[gamma], D.dst[gamma]
            table = P.lact[gamma]
            if set(table) != domain[d]:
                yield "{side} action of {0!r} has wrong domain", gamma
            for c in C.objects:
                for e in P.elements[(d, c)]:
                    if table[e] not in cell[(d2, c)]:
                        yield ("{side} action of {0!r} sends {1!r} outside "
                               "cell {2!r}", gamma, e, (d2, c))

    def identities():
        for x in D.objects:
            for e, img in P.lact[D.identity[x]].items():
                if img != e:
                    yield "identity {side} action moves {0!r}", e

    def functoriality(middle):
        for (g, f), gf in D.comp.items():
            if g in middle:
                for e in P.lact[f]:
                    if P.lact[gf][e] != P.lact[g][P.lact[f][e]]:
                        yield ("{side} action not functorial on {0!r} at {1!r}",
                               (g, f), e)

    return keys(), typing(), identities(), along_generators(
        functoriality, set(D.generators()), set(D.morphisms))


def hom_profunctor(C: FinCategory) -> Profunctor:
    """Hom as a profunctor from C to C: elements(d, c) = Hom_C(c, d).

    Left action is postcomposition, right action is precomposition; element
    ids are the morphism ids themselves.
    """
    elements = {(d, c): C.hom(c, d) for d in C.objects for c in C.objects}
    lact = {g: {f: C.comp[(g, f)] for f in C.arriving(C.src[g])}
            for g in C.morphisms}
    ract = {s: {f: C.comp[(f, s)] for f in C.leaving(C.dst[s])}
            for s in C.morphisms}
    return build_profunctor(C, C, elements, lact, ract)


def from_functor(F: CatFunctor) -> Profunctor:
    """The representable profunctor of a functor F: C -> D.

    elements(d, c) = Hom_D(F c, d); ids are tagged 'h@c', by join_id,
    because the same D-morphism can represent against several C-objects.
    """
    C, D = F.source, F.target
    tagged = {c: {h: join_id(h, c) for h in D.leaving(F.obmap[c])}
              for c in C.objects}
    elements = {(d, c): tuple(tagged[c][h] for h in D.hom(F.obmap[c], d))
                for d in D.objects for c in C.objects}
    lact = {g: {tagged[c][h]: tagged[c][D.comp[(g, h)]]
                for c in C.objects for h in D.hom(F.obmap[c], D.src[g])}
            for g in D.morphisms}
    ract = {s: {h_at: tagged[C.src[s]][D.comp[(h, F.mormap[s])]]
                for h, h_at in tagged[C.dst[s]].items()}
            for s in C.morphisms}
    return build_profunctor(C, D, elements, lact, ract)


def opposite_profunctor(P: Profunctor) -> Profunctor:
    """P seen from the other side: the profunctor from D^op to C^op with
    the same elements, whose left action is P's right action and whose right
    action is P's left action.

    The result is cached on P and remembers P through a weak reference, as
    opposite() does for categories: applying it twice gives back P itself,
    and P and its opposite form no reference cycle.  An opposite that
    outlives P rebuilds an equal P here.  It shares P's element tuples and
    action tables and only transposes the cell keys.  It is not validated
    again: the profunctor laws are self-dual, so P's opposite is valid
    exactly when P is.  Together with opposite() on categories it turns
    every statement about left actions into its mirror about right actions.
    """
    op = _cached_opposite(P)
    if op is None:
        op = Profunctor(opposite(P.target), opposite(P.source),
                        {(c, d): es for (d, c), es in P.elements.items()},
                        P.ract, P.lact)
        op._opposite, P._opposite = weakref.ref(P), op
    return op


def restrict_along(P: Profunctor, F: CatFunctor, G: CatFunctor) -> Profunctor:
    """The profunctor P(G-, F-) from F.source to G.source, for functors F
    into P.source and G into P.target.

    Cell (b, a) is P's cell (G b, F a), element ids included, and a
    morphism acts as its image does.  F and G must be injective on objects,
    so that the element ids stay unique.
    """
    A, B = F.source, G.source
    elements = {(b, a): P.elements[(G.obmap[b], F.obmap[a])]
                for b in B.objects for a in A.objects}
    lact = {g: {e: P.lact[G.mormap[g]][e]
                for a in A.objects for e in elements[(B.src[g], a)]}
            for g in B.morphisms}
    ract = {f: {e: P.ract[F.mormap[f]][e]
                for b in B.objects for e in elements[(b, A.dst[f])]}
            for f in A.morphisms}
    return build_profunctor(A, B, elements, lact, ract)


# -- transformations ----------------------------------------------------------

class ProTransformation(Record):
    source: Profunctor
    target: Profunctor
    components: dict[tuple[str, str], dict[str, str]]

    def apply(self, e: str) -> str:
        return self.components[self.source.cell_of(e)][e]


def build_protransformation(source: Profunctor, target: Profunctor,
                            components) -> ProTransformation:
    """Validate totality, typing, and naturality against both actions."""
    if source.source != target.source or source.target != target.target:
        raise LaxcatError("transformation endpoints do not match")
    comps = {pair: dict(components.get(pair, {})) for pair in source.elements}
    for pair in components:
        if pair not in comps:
            raise LaxcatError(f"component at unknown cell {pair!r}")
    for pair, es in source.elements.items():
        table = comps[pair]
        if set(table) != set(es):
            raise LaxcatError(f"component at {pair!r} has wrong domain")
        for e in es:
            if table[e] not in target.elements[pair]:
                raise LaxcatError(
                    f"component at {pair!r} sends {e!r} outside the target cell")
    t = ProTransformation(source, target, comps)
    rep = naturality_report(t)
    if not rep.ok:
        raise LaxcatError("; ".join(rep.failures))
    return t


def naturality_report(t: ProTransformation) -> Report:
    """Every failed naturality square, against the target's morphisms
    first.  The squares against the source's morphisms are those against
    the target's of t between the opposites, which shares t's tables."""
    rep = Report()
    flipped = ProTransformation(
        opposite_profunctor(t.source), opposite_profunctor(t.target),
        {(c, d): table for (d, c), table in t.components.items()})
    for s in (t, flipped):
        M, M2 = s.source, s.target
        C, D = M.source, M.target
        for gamma in D.morphisms:
            d, d2 = D.src[gamma], D.dst[gamma]
            for c in C.objects:
                for e in M.elements[(d, c)]:
                    lhs = s.components[(d2, c)][M.lact[gamma][e]]
                    rhs = M2.lact[gamma][s.components[(d, c)][e]]
                    if lhs != rhs:
                        rep.fail(f"naturality fails against {gamma!r} at {e!r}")
    return rep


def is_natural_iso(t: ProTransformation) -> Report:
    """Naturality plus bijectivity of every component."""
    rep = naturality_report(t)
    for pair, table in t.components.items():
        image = set(table.values())
        if len(image) != len(table):
            rep.fail(f"component at {pair!r} is not injective")
        if image != set(t.target.elements[pair]):
            rep.fail(f"component at {pair!r} is not surjective")
    return rep


# -- coend composition --------------------------------------------------------

class CoendComposite(Record):
    """A glued profunctor together with its gluing data.

    class_of maps each glued member to the id of its class; rep_of recovers
    the least member of each class.  The members of a coend composite are
    generator triples (middle object, left element, right element); those
    of a quotient are the elements of the quotiented profunctor.
    """
    profunctor: Profunctor
    class_of: dict
    rep_of: dict


def compose_with_pairing(N: Profunctor, M: Profunctor) -> CoendComposite:
    """Coend composite of N after M, with the generator-to-class maps.

    Generators at (e, c) are triples (d, n, m) with n in N(e, d) and
    m in M(d, c).  Each middle generator gamma: d -> d' is one arrow of
    _coend, gluing (d, N.ract[gamma](n'), m) ~ (d', n', M.lact[gamma](m));
    the relations along composites follow, as the module docstring shows.
    """
    if M.target != N.source:
        raise LaxcatError(
            "middle categories differ: target of the right factor must "
            "equal source of the left factor")
    C, D, E = M.source, M.target, N.target
    return _coend(C, E, D.objects, N.elements, M.elements,
                  [(D.src[g], D.dst[g], N.ract[g], M.lact[g])
                   for g in D.generators()],
                  lambda eps, gs: [(d, N.lact[eps][n], m) for d, n, m in gs],
                  lambda sigma, gs: [(d, n, M.ract[sigma][m]) for d, n, m in gs])


def _coend(source: FinCategory, target: FinCategory, middle, left, right,
           arrows, act_left, act_right) -> CoendComposite:
    """The coend union loop over the middle objects, then _glue.

    left[(e, d)] and right[(d, c)] are the two factors' elements at the
    middle object d.  A middle arrow (d, d2, pull, push) from d to d2
    carries the factors' tables along it and glues, in each outer cell
    (e, c), (d, pull[n2], m) ~ (d2, n2, push[m]) for n2 in left[(e, d2)]
    and m in right[(d, c)].  act_left and act_right are _glue's.
    """
    classes = {}
    for e in target.objects:
        for c in source.objects:
            uf = UnionFind((d, n, m) for d in middle
                           for n in left[(e, d)] for m in right[(d, c)])
            for d, d2, pull, push in arrows:
                ms = right[(d, c)]
                for n2 in left[(e, d2)]:
                    for m in ms:
                        uf.union((d, pull[n2], m), (d2, n2, push[m]))
            classes[(e, c)] = uf.classes()
    return _glue(source, target, classes, composite_id, act_left, act_right)


def _glue(source: FinCategory, target: FinCategory, classes, name,
          act_left, act_right) -> CoendComposite:
    """Name the glued classes of every outer cell and read off the actions.

    classes maps each (target, source) cell to {least member: members};
    a class is named name(least member).  act_left(eps, members) and
    act_right(sigma, members) move the members of one class along an outer
    morphism.  Along outer generators every member must land in one class,
    so the actions are well defined on the quotient and read off least members.
    Gluing valid profunctors cannot break this, so a break is an
    AssertionError.
    """
    C, E = source, target
    class_of, rep_of, elements = {}, {}, {}
    for cell, found in classes.items():
        for rep, members in found.items():
            class_of.update(dict.fromkeys(members, name(rep)))
            rep_of[class_of[rep]] = rep
        elements[cell] = tuple(sorted(class_of[rep] for rep in found))

    def ill_defined(outer):
        for (e, c), found in classes.items():
            for rep, members in found.items():
                for side, act, along in (("left", act_left, E.leaving(e)),
                                         ("right", act_right, C.arriving(c))):
                    for a in along:
                        if a in outer and len({class_of[g] for g in act(a, members)}) != 1:
                            yield side, a, class_of[rep]

    for side, a, cid in along_generators(
            ill_defined, {*E.generators(), *C.generators()},
            {*E.morphisms, *C.morphisms}):
        raise AssertionError(
            f"outer {side} action of {a!r} ill-defined on {cid!r}")
    lact = {eps: {class_of[r]: class_of[act_left(eps, (r,))[0]]
                  for c in C.objects for r in classes[(E.src[eps], c)]}
            for eps in E.morphisms}
    ract = {sigma: {class_of[r]: class_of[act_right(sigma, (r,))[0]]
                    for e in E.objects for r in classes[(e, C.dst[sigma])]}
            for sigma in C.morphisms}
    return CoendComposite(build_profunctor(C, E, elements, lact, ract),
                          class_of, rep_of)


def compose_profunctors(N: Profunctor, M: Profunctor) -> Profunctor:
    """Coend composite of N after M."""
    return compose_with_pairing(N, M).profunctor


def _on_reps(comp: CoendComposite, target: Profunctor, value) -> ProTransformation:
    """The transformation out of a composite that sends each class to
    value(*representative)."""
    return build_protransformation(
        comp.profunctor, target,
        {pair: {cid: value(*comp.rep_of[cid]) for cid in ids}
         for pair, ids in comp.profunctor.elements.items()})


def left_unitor(M: Profunctor) -> ProTransformation:
    """Canonical map hom(target) . M -> M; a natural bijection."""
    comp = compose_with_pairing(hom_profunctor(M.target), M)
    return _on_reps(comp, M, lambda d, g, m: M.lact[g][m])


def right_unitor(M: Profunctor) -> ProTransformation:
    """Canonical map M . hom(source) -> M; a natural bijection."""
    comp = compose_with_pairing(M, hom_profunctor(M.source))
    return _on_reps(comp, M, lambda d, m, h: M.ract[h][m])


def associator(P: Profunctor, N: Profunctor, M: Profunctor) -> ProTransformation:
    """Canonical map (P . N) . M -> P . (N . M), built on representatives."""
    pn = compose_with_pairing(P, N)
    left = compose_with_pairing(pn.profunctor, M)
    nm = compose_with_pairing(N, M)
    right = compose_with_pairing(P, nm.profunctor)

    def value(d, pn_elem, m):
        e, p, n = pn.rep_of[pn_elem]
        return right.class_of[(e, p, nm.class_of[(d, n, m)])]
    return _on_reps(left, right.profunctor, value)


def check_monoid_laws(C: FinCategory) -> Report:
    """hom(C) is a monoid up to the unitors and the associator, each a
    natural bijection."""
    H = hom_profunctor(C)
    rep = Report()
    rep.merge(is_natural_iso(left_unitor(H)), "left unitor")
    rep.merge(is_natural_iso(right_unitor(H)), "right unitor")
    rep.merge(is_natural_iso(associator(H, H, H)), "associator")
    return rep


# -- colimits of profunctors --------------------------------------------------

def coproduct(M1: Profunctor, M2: Profunctor) -> Profunctor:
    """Cellwise disjoint union, elements tagged inl:/inr:."""
    if M1.source != M2.source or M1.target != M2.target:
        raise LaxcatError("coproduct operands have different endpoints")

    def tag(prefix, table):
        return {f"{prefix}{k}": f"{prefix}{v}" for k, v in table.items()}

    elements = {pair: tuple(sorted(
        [f"inl:{e}" for e in M1.elements[pair]] +
        [f"inr:{e}" for e in M2.elements[pair]]))
        for pair in M1.elements}
    lact = {g: {**tag("inl:", M1.lact[g]), **tag("inr:", M2.lact[g])}
            for g in M1.lact}
    ract = {s: {**tag("inl:", M1.ract[s]), **tag("inr:", M2.ract[s])}
            for s in M1.ract}
    return build_profunctor(M1.source, M1.target, elements, lact, ract)


def coproduct_injections(M1: Profunctor, M2: Profunctor):
    """(coproduct, inl, inr)."""
    S = coproduct(M1, M2)
    inl = build_protransformation(
        M1, S, {pair: {e: f"inl:{e}" for e in es}
                for pair, es in M1.elements.items()})
    inr = build_protransformation(
        M2, S, {pair: {e: f"inr:{e}" for e in es}
                for pair, es in M2.elements.items()})
    return S, inl, inr


def quotient_by_relation(P: Profunctor, pairs):
    """Quotient P by the action-congruence generated by the given pairs.

    pairs is an iterable of (e, e') with both elements in the same cell.
    Returns (quotient, projection).  Classes are named by their least
    member, so quotient ids remain globally unique.
    """
    uf = UnionFind(e for es in P.elements.values() for e in es)
    actions = list(P.lact.values()) + list(P.ract.values())
    queue = []
    for a, b in pairs:
        if P.cell_of(a) != P.cell_of(b):
            raise LaxcatError(
                f"cannot relate {a!r} and {b!r}: different cells")
        queue.append((a, b))
    while queue:
        a, b = queue.pop()
        if uf.union(a, b):
            for table in actions:
                if a in table:
                    queue.append((table[a], table[b]))
    classes = {pair: {} for pair in P.elements}
    for rep, members in uf.classes().items():
        classes[P.cell_of(rep)][rep] = members
    quotient = _glue(P.source, P.target, classes, lambda rep: rep,
                     lambda g, es: [P.lact[g][e] for e in es],
                     lambda s, es: [P.ract[s][e] for e in es])
    Q = quotient.profunctor
    proj = build_protransformation(
        P, Q, {pair: {e: quotient.class_of[e] for e in es}
               for pair, es in P.elements.items()})
    return Q, proj


def coequalizer(alpha: ProTransformation, beta: ProTransformation):
    """Coequalizer of a parallel pair, with the projection."""
    if alpha.source != beta.source or alpha.target != beta.target:
        raise LaxcatError("coequalizer needs a parallel pair")
    M2 = alpha.target
    pairs = [(alpha.components[pair][e], beta.components[pair][e])
             for pair, es in alpha.source.elements.items() for e in es]
    return quotient_by_relation(M2, pairs)


# -- cocontinuity of composition ----------------------------------------------

def _whiskered(target: CoendComposite, a: ProTransformation):
    """Sends a generator (d, n, m) of a composite N . X to the class of
    (d, n, a(m)) in target, the composite N . Y, for a: X => Y."""
    return lambda d, n, m: target.class_of[(d, n, a.apply(m))]


def check_cocontinuity_coproduct(N: Profunctor, M1: Profunctor,
                                 M2: Profunctor) -> Report:
    """Canonical map (N.M1) + (N.M2) -> N.(M1+M2) is a natural bijection."""
    rep = Report()
    try:
        parts = {"inl": compose_with_pairing(N, M1),
                 "inr": compose_with_pairing(N, M2)}
        right = compose_with_pairing(N, coproduct(M1, M2))
        L = coproduct(parts["inl"].profunctor, parts["inr"].profunctor)
        lift = {pair: {} for pair in L.elements}
        for tag, part in parts.items():
            for inner, (d, n, m) in part.rep_of.items():
                cell = lift[part.profunctor.cell_of(inner)]
                cell[f"{tag}:{inner}"] = right.class_of[(d, n, f"{tag}:{m}")]
        rep.merge(is_natural_iso(
            build_protransformation(L, right.profunctor, lift)))
    except LaxcatError as exc:
        rep.fail(str(exc))
    return rep


def check_cocontinuity_coequalizer(N: Profunctor, alpha: ProTransformation,
                                   beta: ProTransformation) -> Report:
    """Canonical map coeq(N.a, N.b) -> N.coeq(a, b) is a natural bijection."""
    rep = Report()
    try:
        Q, q = coequalizer(alpha, beta)
        # alpha and beta share source and target, so their whiskerings
        # share both composites
        source = compose_with_pairing(N, alpha.source)
        middle = compose_with_pairing(N, alpha.target)
        target = compose_with_pairing(N, Q)
        CQ, _ = coequalizer(*(_on_reps(source, middle.profunctor,
                                       _whiskered(middle, a))
                              for a in (alpha, beta)))
        # each element of CQ is the least composite element of its class
        lift = _whiskered(target, q)
        rep.merge(is_natural_iso(build_protransformation(
            CQ, target.profunctor,
            {pair: {cid: lift(*middle.rep_of[cid]) for cid in ids}
             for pair, ids in CQ.elements.items()})))
    except LaxcatError as exc:
        rep.fail(str(exc))
    return rep


def check_cocontinuity(N: Profunctor, M1: Profunctor, M2: Profunctor) -> Report:
    """Composition preserves coproducts and coequalizers in each variable.

    Coproducts use the given operands directly; the coequalizer instance is
    the canonical fold pair inl, inr: M1 => M1 + M1 (and its mirror), which
    genuinely glues.  A failure here indicates an implementation bug, so
    this doubles as a self-test of the coend machinery.

    Both checks are written for the right variable, N . X.  The left one is
    the same checks on the opposites: (X . M)^op = M^op . X^op, opposites
    share the factors' tables, and coproducts and quotients of opposites are
    the opposites of coproducts and quotients.
    """
    M1op, Nop = opposite_profunctor(M1), opposite_profunctor(N)
    _, inl, inr = coproduct_injections(M1, M1)
    _, jnl, jnr = coproduct_injections(Nop, Nop)
    rep = Report()
    rep.merge(check_cocontinuity_coproduct(N, M1, M2), "coproduct/right: ")
    rep.merge(check_cocontinuity_coproduct(M1op, Nop, Nop), "coproduct/left: ")
    rep.merge(check_cocontinuity_coequalizer(N, inl, inr), "coequalizer/right: ")
    rep.merge(check_cocontinuity_coequalizer(M1op, jnl, jnr),
              "coequalizer/left: ")
    return rep
