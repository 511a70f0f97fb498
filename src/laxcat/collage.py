"""Collages: categories glued from fibers along functors or profunctors.

grothendieck() builds the total category of a strict functorial diagram
over a finite shape; collage_of_profunctor() glues two categories along a
profunctor, with the profunctor elements as the only cross morphisms.  Each
lists its total morphisms and its composition rule on their parts, and one
builder, _total, does the rest: objects '(s,x)', identities, the
composition table, its validation and the fiber injections.  Both name
through laxcat.ids, the morphism over gamma with payload f at x
'(gamma,f@x)' and the cross morphism of the element p '(u,p)', so every
name is injective whatever the ids hold, and gluing along the
representable profunctor of a functor F, whose elements are 'h@c', gives,
entry for entry, the same table as the Grothendieck construction over the
interval with transition F.

A profunctor whose source or target is a total category can be viewed as a
lax matrix: one profunctor entry per fiber, plus the transition actions
along the canonical morphisms (gamma, id).  restrict_matrix / assemble_matrix
convert between the ambient and blockwise views losslessly, and
block_multiply computes coend composites fiberwise without ever assembling
the middle.  It runs the union loop of profunctor.compose_with_pairing,
profunctor._coend, on the middle total presented by its fibers: the middle
arrows are the generators of each fiber, inside one entry, and the canonical
transitions along the generators of the shape.

One rule serves both sides of a lax matrix.  A total morphism (gamma, x, f)
is its fiber leg (id, f) after its canonical leg (gamma, id@x), so the
ambient action along it is entry dst(gamma)'s action along f and the
transition at (gamma, x): the canonical leg first where the total acts
covariantly (profunctors into it, the lax limit), last where it acts
contravariantly (profunctors out of it, the lax colimit).
"""

from .errors import LaxcatError
from .fincat import (CatFunctor, FinCategory, _index, build_category,
                     compose_functors, identity_functor, opposite, product,
                     standard_category, validate_functor)
from .ids import join_id, pair_id
from .profunctor import (CoendComposite, Profunctor, build_profunctor,
                         compose_with_pairing, opposite_profunctor,
                         restrict_along, _coend)
from .report import Record, Report


class Diagram(Record):
    """A strict functorial diagram of categories over a finite shape.

    fiber maps each shape object to a category; transition maps each shape
    morphism to a functor between the right fibers, preserving identities
    and composition on the nose.
    """
    shape: FinCategory
    fiber: dict[str, FinCategory]
    transition: dict[str, CatFunctor]


def build_diagram(shape: FinCategory, fiber, transition) -> Diagram:
    fiber = dict(fiber)
    transition = dict(transition)
    if set(fiber) != set(shape.objects):
        raise LaxcatError("diagram fibers must be keyed by shape objects")
    for s in shape.objects:
        transition.setdefault(shape.identity[s], identity_functor(fiber[s]))
    if set(transition) != set(shape.morphisms):
        raise LaxcatError("diagram transitions must be keyed by shape morphisms")
    for gamma, F in transition.items():
        if F.source != fiber[shape.src[gamma]] or F.target != fiber[shape.dst[gamma]]:
            raise LaxcatError(f"transition {gamma!r} has wrong endpoints")
        rep = validate_functor(F)
        if not rep.ok:
            raise LaxcatError(
                f"transition {gamma!r} is not a functor: {rep.failures[0]}")
    for s in shape.objects:
        F = transition[shape.identity[s]]
        if F != identity_functor(fiber[s]):
            raise LaxcatError(f"identity transition at {s!r} is not the identity")
    for g, f in shape.composable_pairs():
        if transition[shape.comp[(g, f)]] != compose_functors(
                transition[g], transition[f]):
            raise LaxcatError(
                f"transitions not strictly functorial on ({g!r}, {f!r})")
    return Diagram(shape, fiber, transition)


class Collage(Record):
    """A total category remembering how it was glued.

    obj_parts maps each total object to (shape object, fiber object);
    mor_parts maps each total morphism to (shape morphism, source fiber
    object, payload) where the payload is a fiber morphism for diagram
    collages and, for the cross morphisms of a profunctor collage, a
    profunctor element.
    """
    total: FinCategory
    shape: FinCategory
    fiber: dict[str, FinCategory]
    injections: dict[str, CatFunctor]
    obj_parts: dict[str, tuple[str, str]]
    mor_parts: dict[str, tuple[str, str, str]]
    diagram: Diagram | None = None

    def __repr__(self):
        return (f"Collage(total={self.total!r}, shape={self.shape!r}, "
                f"fiber={self.fiber!r}, injections={self.injections!r})")


def _total(S: FinCategory, fibers, arrows, compose, diagram=None) -> Collage:
    """The collage of the fibers over S with the given total morphisms.

    fibers maps each shape object s to its category; the total objects are
    pair_id(s, x) in fibers order.  arrows lists every total morphism as
    (id, parts, a, b), parts as in Collage.mor_parts and a, b the
    (shape object, fiber object) parts of its endpoints, the identities
    among them.  compose(second, first) gives the parts of the composite
    of two composable morphisms given by their parts.  Each id is rendered
    once, here or in arrows, and found again through its parts.  diagram
    is the diagram a Grothendieck collage remembers.
    """
    ob = {(s, x): pair_id(s, x)
          for s, Cs in fibers.items() for x in Cs.objects}
    mor_parts, src, dst, mid_of = {}, {}, {}, {}
    for mid, parts, a, b in arrows:
        if mid in mor_parts:
            raise LaxcatError("duplicate morphism ids")
        mor_parts[mid], src[mid], dst[mid] = parts, ob[a], ob[b]
        mid_of[parts] = mid
    objects = list(ob.values())
    leaving = _index(objects, mor_parts, src)
    comp = {}
    for m1, first in mor_parts.items():
        for m2 in leaving[dst[m1]]:
            comp[(m2, m1)] = mid_of[compose(mor_parts[m2], first)]
    identity = {oid: mid_of[(S.identity[s], x, fibers[s].identity[x])]
                for (s, x), oid in ob.items()}
    total = build_category(objects, mor_parts, src, dst, identity, comp)
    # each fiber's inclusion, along the identity of its shape object
    injections = {s: CatFunctor(Cs, total,
                                {x: ob[(s, x)] for x in Cs.objects},
                                {f: mid_of[(S.identity[s], Cs.src[f], f)]
                                 for f in Cs.morphisms})
                  for s, Cs in fibers.items()}
    return Collage(total, S, dict(fibers), injections,
                   {oid: parts for parts, oid in ob.items()}, mor_parts,
                   diagram)


def grothendieck(X: Diagram) -> Collage:
    """Total category of a strict diagram.

    Objects are '(s,x)'; a morphism (s,x) -> (t,y) is a pair of a shape
    morphism gamma: s -> t and a fiber morphism f: gamma(x) -> y, with id
    '(gamma,f@x)', by pair_id and join_id.  Composition pushes the first
    fiber leg forward: (delta,g@y') . (gamma,f@x) = (delta.gamma,
    (g . delta(f))@x).
    """
    S = X.shape
    arrows = []
    for gamma in S.morphisms:
        s, t = S.src[gamma], S.dst[gamma]
        T, F = X.fiber[t], X.transition[gamma]
        for x in X.fiber[s].objects:
            for y in T.objects:
                for f in T.hom(F.obmap[x], y):
                    arrows.append((pair_id(gamma, join_id(f, x)),
                                   (gamma, x, f), (s, x), (t, y)))
    # along delta: the target fiber's composition and delta's morphism map
    after = {delta: (X.fiber[S.dst[delta]].comp, X.transition[delta].mormap)
             for delta in S.morphisms}

    def compose(second, first):
        (delta, _, g), (gamma, x, f) = second, first
        comp, push = after[delta]
        return S.comp[(delta, gamma)], x, comp[(g, push[f])]
    return _total(S, {s: X.fiber[s] for s in S.objects}, arrows, compose,
                  diagram=X)


def collage_of_profunctor(P: Profunctor) -> Collage:
    """Glue source and target of P along its elements.

    The total category has the source A at tag 0, the target B at tag 1,
    a morphism '(u,p)' from (0,a) to (1,b) for each element p of P(b, a),
    by pair_id, and no morphisms from the B side back to the A side.
    Composition with cross morphisms is given by the profunctor actions.
    """
    S = standard_category("interval")
    fibers = {"0": P.source, "1": P.target}
    arrows = [(pair_id(S.identity[tag], join_id(f, Cs.src[f])),
               (S.identity[tag], Cs.src[f], f),
               (tag, Cs.src[f]), (tag, Cs.dst[f]))
              for tag, Cs in fibers.items() for f in Cs.morphisms]
    arrows += [(pair_id("u", p), ("u", a, p), ("0", a), ("1", b))
               for (b, a), es in P.elements.items() for p in es]
    comp_along = {S.identity[tag]: Cs.comp for tag, Cs in fibers.items()}

    def compose(second, first):
        # no morphism leaves the B side: u composes only after an A
        # morphism or before a B morphism
        (g2, _, p2), (g1, x1, p1) = second, first
        if g1 == g2:
            return g1, x1, comp_along[g1][(p2, p1)]
        if g2 == "u":
            return "u", x1, P.ract[p1][p2]
        return "u", x1, P.lact[p2][p1]
    return _total(S, fibers, arrows, compose)


def check_semiorthogonal(P: Profunctor) -> Report:
    """The hom of the collage of P is the lower-triangular block matrix
    [[hom_A, 0], [P, hom_B]].

    The injections are functors, and each diagonal block is its fiber's
    hom (the injection is fully faithful); the upper-right block, from tag
    1 back to tag 0, is empty; the lower-left block holds one cross
    morphism '(u,p)' per element p of P, and composing with the fibers'
    morphisms acts on those as P's left and right actions do.
    """
    rep = Report()
    G = collage_of_profunctor(P)
    total = G.total
    for tag, inj in G.injections.items():
        rep.merge(validate_functor(inj), prefix=f"injection {tag}: ")
        Cs, at = G.fiber[tag], inj.obmap
        for x in Cs.objects:
            for y in Cs.objects:
                if total.hom(at[x], at[y]) != tuple(
                        sorted(inj.mormap[f] for f in Cs.hom(x, y))):
                    rep.fail(f"injection {tag} not fully faithful at ({x!r}, {y!r})")
    at_a, at_b = G.injections["0"].obmap, G.injections["1"].obmap
    for b in P.target.objects:
        for a in P.source.objects:
            back = total.hom(at_b[b], at_a[a])
            if back:
                rep.fail(f"backwards morphisms from (1,{b!r}) to (0,{a!r}): {back}")
    cross = {}
    for (b, a), es in P.elements.items():
        block = total.hom(at_a[a], at_b[b])
        if sorted(G.mor_parts[m] for m in block) != sorted(("u", a, p) for p in es):
            rep.fail(f"cross hom at ({b!r}, {a!r}) does not match elements")
        cross.update((G.mor_parts[m][2], m) for m in block)
    # the actions are read through the cross morphisms, so only once the
    # blocks are right.  The left action is composition after B's
    # morphisms; the right one, through the opposites, composition before A's
    if not rep.ok:
        return rep
    for side, Q, T, inj in (("left", P, total, G.injections["1"]),
                            ("right", opposite_profunctor(P), opposite(total),
                             G.injections["0"])):
        for (y, _), es in Q.elements.items():
            for g in Q.target.leaving(y):
                for p in es:
                    if T.comp[(inj.mormap[g], cross[p])] != cross[Q.lact[g][p]]:
                        rep.fail(f"cross {side} action differs at {p!r} along {g!r}")
    return rep


# -- lax matrices -------------------------------------------------------------

class LaxMatrix(Record):
    """Blockwise view of a profunctor anchored on a collage total.

    side "source": the ambient profunctor maps out of the collage; entry s
    is a profunctor from fiber(s) to the other leg, and
    transition[gamma][x] pulls entry dst(gamma) elements at gamma(x) back
    to entry src(gamma) elements at x (the ambient right action along the
    canonical morphism (gamma, id@x)).

    side "target": the ambient maps into the collage; transition[gamma][x]
    pushes entry src(gamma) elements at x forward (the ambient left
    action).

    On both sides the ambient action along (gamma, x, f) is
    transition[gamma][x] and entry dst(gamma)'s action along f, the
    transition first on the target side and last on the source side.  The
    transition keys are exactly the non-identity shape morphisms, each keyed
    by exactly the objects of its source fiber, and each table moves exactly
    the elements its canonical morphism moves.  Entry element ids are the
    ambient ids, so restriction and assembly are mutually inverse on the
    nose.
    """
    collage: Collage
    side: str
    other: FinCategory
    entries: dict[str, Profunctor]
    transition: dict[str, dict[str, dict[str, str]]]


def restrict_matrix(M: Profunctor, G: Collage, side: str) -> LaxMatrix:
    """Slice an ambient profunctor over a diagram collage into blocks."""
    if G.diagram is None:
        raise LaxcatError("matrix restriction needs a diagram collage")
    total = G.total
    if side == "source":
        if M.source != total:
            raise LaxcatError("profunctor source is not the collage total")
        other_id = identity_functor(M.target)
        entries = {s: restrict_along(M, inj, other_id)
                   for s, inj in G.injections.items()}
        acts = M.ract
    elif side == "target":
        if M.target != total:
            raise LaxcatError("profunctor target is not the collage total")
        other_id = identity_functor(M.source)
        entries = {s: restrict_along(M, other_id, inj)
                   for s, inj in G.injections.items()}
        acts = M.lact
    else:
        raise LaxcatError(f"side must be source or target, got {side!r}")
    S = G.shape
    mid_of = {parts: mid for mid, parts in G.mor_parts.items()}
    transition = {}
    for gamma in S.morphisms:
        if S.is_identity(gamma):
            continue
        F = G.diagram.transition[gamma]
        Ct = G.fiber[S.dst[gamma]]
        transition[gamma] = {
            x: dict(acts[mid_of[(gamma, x, Ct.identity[F.obmap[x]])]])
            for x in G.fiber[S.src[gamma]].objects}
    return LaxMatrix(G, side, other_id.source, entries, transition)


def assemble_matrix(data: LaxMatrix) -> Profunctor:
    """Rebuild the ambient profunctor from blocks and transition actions.

    One loop over the total morphisms serves both sides.  Each entry is
    seen from its fiber, on the source side through its opposite, so its
    cells are keyed (x, d) and it acts along the fiber by lact and along
    the other leg by ract; the canonical leg of an identity shape morphism
    is skipped.  Raises LaxcatError if an entry or a transition is missing,
    wrong or stray, or the result fails profunctor validation.
    """
    G, covariant, other = data.collage, data.side == "target", data.other
    if G.diagram is None:
        raise LaxcatError("matrix assembly needs a diagram collage")
    if data.side not in ("source", "target"):
        raise LaxcatError(f"side must be source or target, got {data.side!r}")
    S = G.shape
    view = {}
    for s in S.objects:
        entry = data.entries.get(s)
        if entry is None:
            raise LaxcatError(f"missing entry for fiber {s!r}")
        ends = (other, G.fiber[s]) if covariant else (G.fiber[s], other)
        if (entry.source, entry.target) != ends:
            raise LaxcatError(f"entry {s!r} has wrong endpoints")
        view[s] = entry if covariant else opposite_profunctor(entry)
    unfit = "entries and transitions do not assemble: "
    for gamma, tables in data.transition.items():
        if gamma not in S.morphisms or S.is_identity(gamma):
            raise LaxcatError(f"{unfit}stray transition {gamma!r}")
        for x in tables:
            if x not in G.fiber[S.src[gamma]].objects:
                raise LaxcatError(
                    f"{unfit}stray transition {gamma!r} at {x!r}")
    O, T = ((other, G.total) if covariant
            else (opposite(other), opposite(G.total)))
    elements = {(oid, d): view[s].elements[(x, d)]
                for oid, (s, x) in G.obj_parts.items() for d in O.objects}
    along_other = {g: {e: view[s].ract[g][e] for s in S.objects
                       for x in G.fiber[s].objects
                       for e in view[s].elements[(x, O.dst[g])]}
                   for g in O.morphisms}
    along_total = {}
    for mid, (gamma, x, f) in G.mor_parts.items():
        t = S.dst[gamma]
        legs, canonical = [view[t].lact[f]], None
        if not S.is_identity(gamma):
            canonical = data.transition.get(gamma, {}).get(x)
            if canonical is None:
                raise LaxcatError(
                    f"missing transition data for {gamma!r} at {x!r}")
            # first where the total acts covariantly, last via its opposite
            legs.insert(0 if covariant else 1, canonical)
        s, z = G.obj_parts[T.src[mid]]  # the end whose elements are moved
        table = {}
        for d in O.objects:
            for e in view[s].elements[(z, d)]:
                moved = e
                for leg in legs:
                    if moved not in leg:
                        raise LaxcatError(
                            f"{unfit}transition {gamma!r} at {x!r} " + (
                                f"lacks {moved!r}" if leg is canonical else
                                f"sends {e!r} to {moved!r}, which {f!r} "
                                "does not act on"))
                    moved = leg[moved]
                table[e] = moved
        # at the canonical morphism the table moves exactly these elements
        if (canonical is not None and G.fiber[t].is_identity(f)
                and len(canonical) != len(table)):
            stray = next(e for e in canonical if e not in table)
            raise LaxcatError(f"{unfit}stray element {stray!r} in transition "
                              f"{gamma!r} at {x!r}")
        along_total[mid] = table
    M = Profunctor(O, T, elements, along_total, along_other)
    if not covariant:
        M = opposite_profunctor(M)
    try:
        return build_profunctor(M.source, M.target, M.elements, M.lact,
                                M.ract)
    except LaxcatError as exc:
        raise LaxcatError(f"{unfit}{exc}") from exc


def check_bilimit_roundtrip(X: Diagram, T: FinCategory, M: Profunctor) -> Report:
    """restrict then assemble recovers M entry for entry, on whichever side
    of M the collage total sits (the other side being T).  Passing for both
    orientations across a family of profunctors is the blockwise universal
    property: the same collage serves as the lax colimit (maps out) and the
    lax limit (maps in) of the diagram."""
    rep = Report()
    G = grothendieck(X)
    if M.source == G.total and M.target == T:
        side = "source"
    elif M.target == G.total and M.source == T:
        side = "target"
    else:
        rep.fail("profunctor is not anchored between the collage total and T")
        return rep
    try:
        data = restrict_matrix(M, G, side)
        back = assemble_matrix(data)
    except LaxcatError as exc:
        rep.fail(f"round trip raised: {exc}")
        return rep
    if back.elements != M.elements:
        rep.fail("assembled elements differ")
    if back.lact != M.lact:
        rep.fail("assembled left action differs")
    if back.ract != M.ract:
        rep.fail("assembled right action differs")
    again = restrict_matrix(back, G, side)
    if again != data:
        rep.fail("re-restriction differs from the original blocks")
    return rep


def block_multiply(N: LaxMatrix, M: LaxMatrix) -> CoendComposite:
    """Coend composite computed fiberwise over a shared middle collage.

    N must have the collage as its source and M as its target.  For each
    outer cell the generators range over all middle fiber objects, glued by
    the fiber morphisms inside each entry and by the transition actions
    along each shape morphism; by the factorization of total morphisms this
    yields exactly the global coend, with identical canonical
    representatives.  Transitions are strictly functorial, so the canonical
    morphism of a composite shape morphism is the composite of canonical
    morphisms, and gluing along the shape's generators suffices.
    """
    if N.side != "source" or M.side != "target":
        raise LaxcatError(
            "block product needs N anchored by source and M by target")
    if N.collage != M.collage:
        raise LaxcatError("block product needs a shared middle collage")
    G = N.collage
    S = G.shape
    C, E = M.other, N.other
    left, right = {}, {}
    for d, (s, x) in G.obj_parts.items():
        for e in E.objects:
            left[(e, d)] = N.entries[s].elements[(e, x)]
        for c in C.objects:
            right[(d, c)] = M.entries[s].elements[(x, c)]
    # the fiber generators, within one entry, then the transitions along the
    # shape generators
    arrows = []
    at = {s: inj.obmap for s, inj in G.injections.items()}
    for s in S.objects:
        Cs, Ne, Me = G.fiber[s], N.entries[s], M.entries[s]
        arrows += [(at[s][Cs.src[f]], at[s][Cs.dst[f]], Ne.ract[f], Me.lact[f])
                   for f in Cs.generators()]
    for gamma in S.generators():
        s, t = S.src[gamma], S.dst[gamma]
        F = G.diagram.transition[gamma]
        arrows += [(at[s][x], at[t][F.obmap[x]],
                    N.transition[gamma][x], M.transition[gamma][x])
                   for x in G.fiber[s].objects]

    def lact(eps, gens):
        return [(d, N.entries[G.obj_parts[d][0]].lact[eps][n], m)
                for d, n, m in gens]

    def ract(sigma, gens):
        return [(d, n, M.entries[G.obj_parts[d][0]].ract[sigma][m])
                for d, n, m in gens]
    return _coend(C, E, list(G.obj_parts), left, right, arrows, lact, ract)


def check_block_multiply(N: LaxMatrix, M: LaxMatrix) -> Report:
    """Blockwise product against assemble-then-compose, entry for entry."""
    rep = Report()
    try:
        blockwise = block_multiply(N, M).profunctor
        ambient = compose_with_pairing(assemble_matrix(N),
                                       assemble_matrix(M)).profunctor
    except LaxcatError as exc:
        rep.fail(f"block product raised: {exc}")
        return rep
    if blockwise != ambient:
        rep.fail("blockwise composite differs from the global coend")
    return rep


def check_absoluteness(X: Diagram, E: FinCategory) -> Report:
    """Gluing commutes with padding every fiber by a fixed category.

    The comparison functor total(X x E) -> total(X) x E is built object by
    object and must be an isomorphism of categories; this is the
    finite-instance form of collages being preserved by cocontinuous
    padding."""
    rep = Report()
    S = X.shape
    fibers = {s: product(X.fiber[s], E) for s in S.objects}
    transitions = {}
    for gamma, F in X.transition.items():
        src_fib, dst_fib = fibers[S.src[gamma]], fibers[S.dst[gamma]]
        obmap = {pair_id(x, e): pair_id(F.obmap[x], e)
                 for x in X.fiber[S.src[gamma]].objects for e in E.objects}
        mormap = {pair_id(f, eps): pair_id(F.mormap[f], eps)
                  for f in X.fiber[S.src[gamma]].morphisms
                  for eps in E.morphisms}
        transitions[gamma] = CatFunctor(src_fib, dst_fib, obmap, mormap)
    XE = build_diagram(S, fibers, transitions)
    G1 = grothendieck(X)
    G2 = grothendieck(XE)
    padded = product(G1.total, E)

    obmap = {G2.injections[s].obmap[pair_id(x, e)]:
             pair_id(G1.injections[s].obmap[x], e)
             for s in S.objects for x in X.fiber[s].objects for e in E.objects}
    mid2_of = {parts: mid for mid, parts in G2.mor_parts.items()}
    mormap = {mid2_of[(gamma, pair_id(x, E.src[eps]), pair_id(f, eps))]:
              pair_id(mid, eps)
              for mid, (gamma, x, f) in G1.mor_parts.items()
              for eps in E.morphisms}
    Phi = CatFunctor(G2.total, padded, obmap, mormap)
    sub = validate_functor(Phi)
    rep.merge(sub, prefix="comparison functor: ")
    if len(set(obmap.values())) != len(obmap) or set(obmap.values()) != set(padded.objects):
        rep.fail("comparison is not bijective on objects")
    if len(set(mormap.values())) != len(mormap) or set(mormap.values()) != set(padded.morphisms):
        rep.fail("comparison is not bijective on morphisms")
    return rep
