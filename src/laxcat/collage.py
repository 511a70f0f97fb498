"""Collages: categories glued from fibers along functors or profunctors.

grothendieck() builds the total category of a strict functorial diagram
over a finite shape; collage_of_profunctor() glues two categories along a
profunctor, with the profunctor elements as the only cross morphisms.  Both
use the same naming scheme, so gluing along the representable profunctor of
a functor F gives, entry for entry, the same table as the Grothendieck
construction over the interval with transition F.

A profunctor whose source or target is a total category can be viewed as a
lax matrix: one profunctor entry per fiber, plus the transition actions
along the canonical morphisms (gamma, id).  restrict_matrix / assemble_matrix
convert between the ambient and blockwise views losslessly, and
block_multiply computes coend composites fiberwise without ever assembling
the middle.  Like profunctor.compose_with_pairing it glues along the
generators of each fiber and of the shape only, and its classes are named
and its outer actions read off by the same gluing kernel
(profunctor._glue).
"""

from .errors import (CompositionMismatch, IncompatibleActionData,
                     InvalidParameter, LaxcatError, NotACollage)
from .fincat import (CatFunctor, FinCategory, _index, build_category,
                     compose_functors, identity_functor, standard_category,
                     validate_functor)
from .profunctor import (CoendComposite, Profunctor, build_profunctor,
                         compose_with_pairing, hom_profunctor,
                         opposite_profunctor, restrict_along, _composite_id,
                         _glue)
from .report import Record, Report
from .unionfind import UnionFind


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
        raise InvalidParameter("diagram fibers must be keyed by shape objects")
    for s in shape.objects:
        transition.setdefault(shape.identity[s], identity_functor(fiber[s]))
    if set(transition) != set(shape.morphisms):
        raise InvalidParameter("diagram transitions must be keyed by shape morphisms")
    for gamma, F in transition.items():
        if F.source != fiber[shape.src[gamma]] or F.target != fiber[shape.dst[gamma]]:
            raise InvalidParameter(f"transition {gamma!r} has wrong endpoints")
        rep = validate_functor(F)
        if not rep.ok:
            raise InvalidParameter(
                f"transition {gamma!r} is not a functor: {rep.failures[0]}")
    for s in shape.objects:
        F = transition[shape.identity[s]]
        if F != identity_functor(fiber[s]):
            raise InvalidParameter(f"identity transition at {s!r} is not the identity")
    for g, f in shape.composable_pairs():
        if transition[shape.comp[(g, f)]] != compose_functors(
                transition[g], transition[f]):
            raise InvalidParameter(
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
    profunctor: Profunctor | None = None

    def __repr__(self):
        return (f"Collage(total={self.total!r}, shape={self.shape!r}, "
                f"fiber={self.fiber!r}, injections={self.injections!r})")


def _total_mor_id(gamma: str, payload: str, x: str) -> str:
    return f"({gamma},{payload}@{x})"


def grothendieck(X: Diagram) -> Collage:
    """Total category of a strict diagram.

    Objects are '(s,x)'; a morphism (s,x) -> (t,y) is a pair of a shape
    morphism gamma: s -> t and a fiber morphism f: gamma(x) -> y, with id
    '(gamma,f@x)'.  Composition pushes the first fiber leg forward:
    (delta,g@y') . (gamma,f@x) = (delta.gamma, (g . delta(f))@x).
    """
    S = X.shape
    fibers = {s: X.fiber[s] for s in S.objects}
    objects, obj_parts, identity = _fiber_objects(S, fibers)
    morphisms, mor_parts, src, dst = [], {}, {}, {}
    for gamma in S.morphisms:
        s, t = S.src[gamma], S.dst[gamma]
        F = X.transition[gamma]
        T = X.fiber[t]
        for x in X.fiber[s].objects:
            fx = F.obmap[x]
            for y in T.objects:
                for f in T.hom(fx, y):
                    mid = _total_mor_id(gamma, f, x)
                    morphisms.append(mid)
                    mor_parts[mid] = (gamma, x, f)
                    src[mid] = f"({s},{x})"
                    dst[mid] = f"({t},{y})"
    leaving = _index(objects, morphisms, src)
    comp = {}
    for m1 in morphisms:
        gamma, x, f = mor_parts[m1]
        for m2 in leaving[dst[m1]]:
            delta, y, g = mor_parts[m2]
            u = S.dst[delta]
            U = X.fiber[u]
            Fd = X.transition[delta]
            comp[(m2, m1)] = _total_mor_id(
                S.comp[(delta, gamma)], U.comp[(g, Fd.mormap[f])], x)
    total = build_category(objects, morphisms, src, dst, identity, comp)
    return Collage(total, S, dict(X.fiber), _injections(S, fibers, total),
                   obj_parts, mor_parts, diagram=X)


def _fiber_objects(S: FinCategory, fibers):
    """The total objects '(s,x)' with their parts and identities."""
    objects, obj_parts, identity = [], {}, {}
    for s, Cs in fibers.items():
        for x in Cs.objects:
            oid = f"({s},{x})"
            objects.append(oid)
            obj_parts[oid] = (s, x)
            identity[oid] = _total_mor_id(S.identity[s], Cs.identity[x], x)
    return objects, obj_parts, identity


def _injections(S: FinCategory, fibers, total: FinCategory):
    """Each fiber's inclusion into the total category, along the identity
    of its shape object."""
    return {s: CatFunctor(Cs, total, {x: f"({s},{x})" for x in Cs.objects},
                          {f: _total_mor_id(S.identity[s], f, Cs.src[f])
                           for f in Cs.morphisms})
            for s, Cs in fibers.items()}


def collage_of_profunctor(P: Profunctor) -> Collage:
    """Glue source and target of P along its elements.

    The total category has the source A at tag 0, the target B at tag 1,
    a morphism '(u,p)' from (0,a) to (1,b) for each element p of P(b, a),
    and no morphisms from the B side back to the A side.  Composition with
    cross morphisms is given by the profunctor actions.
    """
    S = standard_category("interval")
    fibers = {"0": P.source, "1": P.target}
    objects, obj_parts, identity = _fiber_objects(S, fibers)
    morphisms, mor_parts, src, dst = [], {}, {}, {}
    for tag, Cs in fibers.items():
        along = S.identity[tag]
        for f in Cs.morphisms:
            mid = _total_mor_id(along, f, Cs.src[f])
            morphisms.append(mid)
            mor_parts[mid] = (along, Cs.src[f], f)
            src[mid] = f"({tag},{Cs.src[f]})"
            dst[mid] = f"({tag},{Cs.dst[f]})"
    for (b, a), es in P.elements.items():
        for p in es:
            mid = f"(u,{p})"
            morphisms.append(mid)
            mor_parts[mid] = ("u", a, p)
            src[mid], dst[mid] = f"(0,{a})", f"(1,{b})"
    leaving = _index(objects, morphisms, src)
    comp = {}
    for m1 in morphisms:
        g1, x1, p1 = mor_parts[m1]
        for m2 in leaving[dst[m1]]:
            g2, x2, p2 = mor_parts[m2]
            # no morphism leaves the B side: u composes only after an A
            # morphism or before a B morphism
            if g1 == g2:
                comp[(m2, m1)] = _total_mor_id(
                    g1, fibers[S.src[g1]].comp[(p2, p1)], x1)
            elif g2 == "u":
                comp[(m2, m1)] = f"(u,{P.ract[p1][p2]})"
            else:
                comp[(m2, m1)] = f"(u,{P.lact[p2][p1]})"
    total = build_category(objects, morphisms, src, dst, identity, comp)
    return Collage(total, S, fibers, _injections(S, fibers, total), obj_parts,
                   mor_parts, profunctor=P)


def check_semiorthogonal(G: Collage) -> Report:
    """Fully faithful injections; no morphisms from tag 1 back to tag 0;
    cross hom-sets in bijection with the profunctor elements."""
    rep = Report()
    total = G.total
    for s, inj in G.injections.items():
        sub = validate_functor(inj)
        rep.merge(sub, prefix=f"injection {s}: ")
        Cs = G.fiber[s]
        for x in Cs.objects:
            for y in Cs.objects:
                image = {inj.mormap[f] for f in Cs.hom(x, y)}
                ambient = set(total.hom(inj.obmap[x], inj.obmap[y]))
                ambient = {m for m in ambient if G.mor_parts[m][0]
                           == G.shape.identity[s]}
                if image != ambient or len(image) != len(Cs.hom(x, y)):
                    rep.fail(f"injection {s} not fully faithful at ({x!r}, {y!r})")
    if set(G.fiber) == {"0", "1"}:
        A, B = G.fiber["0"], G.fiber["1"]
        for b in B.objects:
            for a in A.objects:
                back = total.hom(f"(1,{b})", f"(0,{a})")
                if back:
                    rep.fail(f"backwards morphisms from (1,{b!r}) to (0,{a!r}): {back}")
        if G.profunctor is not None:
            P = G.profunctor
            for (b, a), es in P.elements.items():
                cross = total.hom(f"(0,{a})", f"(1,{b})")
                if sorted(cross) != sorted(f"(u,{p})" for p in es):
                    rep.fail(f"cross hom at ({b!r}, {a!r}) does not match elements")
    else:
        rep.fail("semiorthogonality only applies to two-fiber collages")
    return rep


def identity_block_decomposition(G: Collage):
    """The hom profunctor of a two-fiber collage total, as 2x2 blocks.

    Returns (Report, blocks) where blocks maps (t, s) tags to the
    restricted profunctor between the fibers.  The diagonal blocks are the
    fiber hom profunctors up to injection renaming, the lower-left block is
    canonically bijective to the gluing profunctor, and the upper-right
    block is empty.
    """
    if set(G.fiber) != {"0", "1"}:
        raise NotACollage("block decomposition needs a two-fiber collage")
    rep = Report()
    H = hom_profunctor(G.total)
    blocks = {(t, s): restrict_along(H, G.injections[s], G.injections[t])
              for t in ("0", "1") for s in ("0", "1")}

    if blocks[("0", "1")].total_size() != 0:
        rep.fail("upper-right block is not empty")
    for tag in ("0", "1"):
        hc = hom_profunctor(G.fiber[tag])
        blk = blocks[(tag, tag)]
        inj = G.injections[tag]
        for (y, x), es in hc.elements.items():
            if sorted(blk.elements[(y, x)]) != sorted(inj.mormap[f] for f in es):
                rep.fail(f"diagonal block {tag} differs from fiber hom at ({y!r}, {x!r})")
    if G.profunctor is not None:
        P = G.profunctor
        blk = blocks[("1", "0")]
        for (b, a), es in P.elements.items():
            if sorted(blk.elements[(b, a)]) != sorted(f"(u,{p})" for p in es):
                rep.fail(f"lower-left block differs from the profunctor at ({b!r}, {a!r})")
        # the unwrapping bijection intertwines the actions; the right
        # actions are the left actions of the opposites
        for side, Q, Qblk in (("left", P, blk),
                              ("right", opposite_profunctor(P),
                               opposite_profunctor(blk))):
            for g in Q.target.morphisms:
                for (y, x), es in Q.elements.items():
                    if Q.target.src[g] != y:
                        continue
                    for p in es:
                        if Qblk.lact[g][f"(u,{p})"] != f"(u,{Q.lact[g][p]})":
                            rep.fail(f"lower-left {side} action differs at {p!r}")
    return rep, blocks


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
    action).  Entry element ids are the ambient ids, so restriction and
    assembly are mutually inverse on the nose.
    """
    collage: Collage
    side: str
    other: FinCategory
    entries: dict[str, Profunctor]
    transition: dict[str, dict[str, dict[str, str]]]


def restrict_matrix(M: Profunctor, G: Collage, side: str) -> LaxMatrix:
    """Slice an ambient profunctor over a diagram collage into blocks."""
    if G.diagram is None:
        raise NotACollage("matrix restriction needs a diagram collage")
    total = G.total
    if side == "source":
        if M.source != total:
            raise NotACollage("profunctor source is not the collage total")
        other_id = identity_functor(M.target)
        entries = {s: restrict_along(M, inj, other_id)
                   for s, inj in G.injections.items()}
        acts = M.ract
    elif side == "target":
        if M.target != total:
            raise NotACollage("profunctor target is not the collage total")
        other_id = identity_functor(M.source)
        entries = {s: restrict_along(M, other_id, inj)
                   for s, inj in G.injections.items()}
        acts = M.lact
    else:
        raise InvalidParameter(f"side must be source or target, got {side!r}")
    S = G.shape
    transition = {}
    for gamma in S.morphisms:
        if S.is_identity(gamma):
            continue
        F = G.diagram.transition[gamma]
        Ct = G.fiber[S.dst[gamma]]
        transition[gamma] = {
            x: dict(acts[_total_mor_id(gamma, Ct.identity[F.obmap[x]], x)])
            for x in G.fiber[S.src[gamma]].objects}
    return LaxMatrix(G, side, other_id.source, entries, transition)


def assemble_matrix(data: LaxMatrix) -> Profunctor:
    """Rebuild the ambient profunctor from blocks and transition actions.

    Every ambient action factors as a fiber leg (inside one entry) after a
    canonical transition leg, so the blockwise data determines the ambient
    table completely.  Raises IncompatibleActionData if the result fails
    profunctor validation.
    """
    G, side, other = data.collage, data.side, data.other
    if G.diagram is None:
        raise NotACollage("matrix assembly needs a diagram collage")
    S, total = G.shape, G.total
    for s in S.objects:
        entry = data.entries.get(s)
        if entry is None:
            raise IncompatibleActionData(f"missing entry for fiber {s!r}")
        want_src = G.fiber[s] if side == "source" else other
        want_dst = other if side == "source" else G.fiber[s]
        if entry.source != want_src or entry.target != want_dst:
            raise IncompatibleActionData(f"entry {s!r} has wrong endpoints")

    elements = {}
    for s in S.objects:
        entry = data.entries[s]
        for x in G.fiber[s].objects:
            if side == "source":
                for d in other.objects:
                    elements[(d, f"({s},{x})")] = entry.elements[(d, x)]
            else:
                for c in other.objects:
                    elements[(f"({s},{x})", c)] = entry.elements[(x, c)]

    def transition_leg(gamma, x):
        if S.is_identity(gamma):
            entry = data.entries[S.src[gamma]]
            table = {}
            for pair, es in entry.elements.items():
                fiber_ob = pair[1] if side == "source" else pair[0]
                if fiber_ob == x:
                    table.update({e: e for e in es})
            return table
        try:
            return data.transition[gamma][x]
        except KeyError:
            raise IncompatibleActionData(
                f"missing transition data for {gamma!r} at {x!r}")

    # The two sides are not mirrors: the opposite reverses the total
    # category but not the shape, so an ambient action pulls back along a
    # fiber leg and then a transition on one side, and pushes forward along
    # a transition and then a fiber leg on the other.
    try:
        if side == "source":
            lact = {g: {e: data.entries[s].lact[g][e]
                        for s in S.objects
                        for x in G.fiber[s].objects
                        for e in data.entries[s].elements[(other.src[g], x)]}
                    for g in other.morphisms}
            ract = {}
            for mid, (gamma, x, f) in G.mor_parts.items():
                t = S.dst[gamma]
                trans = transition_leg(gamma, x)
                entry_t = data.entries[t]
                table = {}
                for d in other.objects:
                    for e in entry_t.elements[(d, G.fiber[t].dst[f])]:
                        table[e] = trans[entry_t.ract[f][e]]
                ract[mid] = table
            ambient = build_profunctor(total, other, elements, lact, ract)
        else:
            ract = {g: {e: data.entries[s].ract[g][e]
                        for s in S.objects
                        for x in G.fiber[s].objects
                        for e in data.entries[s].elements[(x, other.dst[g])]}
                    for g in other.morphisms}
            lact = {}
            for mid, (gamma, x, f) in G.mor_parts.items():
                s, t = S.src[gamma], S.dst[gamma]
                trans = transition_leg(gamma, x)
                entry_t = data.entries[t]
                table = {}
                for c in other.objects:
                    for e in data.entries[s].elements[(x, c)]:
                        table[e] = entry_t.lact[f][trans[e]]
                lact[mid] = table
            ambient = build_profunctor(other, total, elements, lact, ract)
    except (KeyError, InvalidParameter) as exc:
        raise IncompatibleActionData(
            f"entries and transitions do not assemble: {exc}") from exc
    return ambient


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
        raise CompositionMismatch(
            "block product needs N anchored by source and M by target")
    if N.collage != M.collage:
        raise CompositionMismatch("block product needs a shared middle collage")
    G = N.collage
    S = G.shape
    C, E = M.other, N.other

    classes = {}
    for e in E.objects:
        for c in C.objects:
            gens = []
            for s in S.objects:
                for x in G.fiber[s].objects:
                    mid_ob = f"({s},{x})"
                    for n in N.entries[s].elements[(e, x)]:
                        for m in M.entries[s].elements[(x, c)]:
                            gens.append((mid_ob, n, m))
            uf = UnionFind(gens)
            # gluing along fiber morphisms, within one entry
            for s in S.objects:
                Cs = G.fiber[s]
                Ne, Me = N.entries[s], M.entries[s]
                for f in Cs.generators():
                    x, y = Cs.src[f], Cs.dst[f]
                    for n in Ne.elements[(e, y)]:
                        for m in Me.elements[(x, c)]:
                            uf.union((f"({s},{x})", Ne.ract[f][n], m),
                                     (f"({s},{y})", n, Me.lact[f][m]))
            # gluing along shape transitions
            for gamma in S.generators():
                s, t = S.src[gamma], S.dst[gamma]
                F = G.diagram.transition[gamma]
                for x in G.fiber[s].objects:
                    fx = F.obmap[x]
                    for n in N.entries[t].elements[(e, fx)]:
                        for m in M.entries[s].elements[(x, c)]:
                            uf.union((f"({s},{x})",
                                      N.transition[gamma][x][n], m),
                                     (f"({t},{fx})", n,
                                      M.transition[gamma][x][m]))
            classes[(e, c)] = uf.classes()

    def lact(eps, gens):
        return [(mid, N.entries[G.obj_parts[mid][0]].lact[eps][n], m)
                for mid, n, m in gens]

    def ract(sigma, gens):
        return [(mid, n, M.entries[G.obj_parts[mid][0]].ract[sigma][m])
                for mid, n, m in gens]
    return _glue(C, E, classes, _composite_id, lact, ract)


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
    from .fincat import product

    rep = Report()
    S = X.shape
    fibers = {s: product(X.fiber[s], E) for s in S.objects}
    transitions = {}
    for gamma, F in X.transition.items():
        src_fib, dst_fib = fibers[S.src[gamma]], fibers[S.dst[gamma]]
        obmap = {f"({x},{e})": f"({F.obmap[x]},{e})"
                 for x in X.fiber[S.src[gamma]].objects for e in E.objects}
        mormap = {f"({f},{eps})": f"({F.mormap[f]},{eps})"
                  for f in X.fiber[S.src[gamma]].morphisms
                  for eps in E.morphisms}
        transitions[gamma] = CatFunctor(src_fib, dst_fib, obmap, mormap)
    XE = build_diagram(S, fibers, transitions)
    G1 = grothendieck(X)
    G2 = grothendieck(XE)
    padded = product(G1.total, E)

    obmap, mormap = {}, {}
    for s in S.objects:
        for x in X.fiber[s].objects:
            for e in E.objects:
                obmap[f"({s},({x},{e}))"] = f"(({s},{x}),{e})"
    for gamma in S.morphisms:
        s, t = S.src[gamma], S.dst[gamma]
        F = X.transition[gamma]
        Ct = X.fiber[t]
        for x in X.fiber[s].objects:
            for e in E.objects:
                for f in Ct.morphisms:
                    if Ct.src[f] != F.obmap[x]:
                        continue
                    for eps in E.morphisms:
                        if E.src[eps] != e:
                            continue
                        g2_id = _total_mor_id(gamma, f"({f},{eps})", f"({x},{e})")
                        pad_id = f"({_total_mor_id(gamma, f, x)},{eps})"
                        mormap[g2_id] = pad_id
    Phi = CatFunctor(G2.total, padded, obmap, mormap)
    sub = validate_functor(Phi)
    rep.merge(sub, prefix="comparison functor: ")
    if len(set(obmap.values())) != len(obmap) or set(obmap.values()) != set(padded.objects):
        rep.fail("comparison is not bijective on objects")
    if len(set(mormap.values())) != len(mormap) or set(mormap.values()) != set(padded.morphisms):
        rep.fail("comparison is not bijective on morphisms")
    return rep
