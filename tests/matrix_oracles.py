"""Test-only reference assembly of a lax matrix: the two-branch
assemble_matrix that the one-rule library function replaced.  The source
side pulls back along a fiber leg and then a transition, the target side
pushes forward along a transition and then a fiber leg, each written out
by hand, and an identity shape morphism's transition is an identity table
scanned out of its entry.  It drops transition data it does not use.
"""

from laxcat.collage import LaxMatrix
from laxcat.errors import LaxcatError
from laxcat.profunctor import Profunctor, build_profunctor


def assemble_matrix_by_side(data: LaxMatrix) -> Profunctor:
    """Rebuild the ambient profunctor from blocks and transition actions.

    Every ambient action factors as a fiber leg (inside one entry) after a
    canonical transition leg, so the blockwise data determines the ambient
    table completely.  Raises LaxcatError if a transition lacks an element or
    the result fails profunctor validation.
    """
    G, side, other = data.collage, data.side, data.other
    if G.diagram is None:
        raise LaxcatError("matrix assembly needs a diagram collage")
    S, total = G.shape, G.total
    for s in S.objects:
        entry = data.entries.get(s)
        if entry is None:
            raise LaxcatError(f"missing entry for fiber {s!r}")
        want_src = G.fiber[s] if side == "source" else other
        want_dst = other if side == "source" else G.fiber[s]
        if entry.source != want_src or entry.target != want_dst:
            raise LaxcatError(f"entry {s!r} has wrong endpoints")

    elements = {}
    for oid, (s, x) in G.obj_parts.items():
        for d in other.objects:
            if side == "source":
                elements[(d, oid)] = data.entries[s].elements[(d, x)]
            else:
                elements[(oid, d)] = data.entries[s].elements[(x, d)]

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
            raise LaxcatError(
                f"missing transition data for {gamma!r} at {x!r}")

    def carried(trans, e, gamma, x):
        if e not in trans:
            raise LaxcatError("entries and transitions do not assemble: "
                              f"transition {gamma!r} at {x!r} lacks {e!r}")
        return trans[e]

    # The two sides are not mirrors: the opposite reverses the total
    # category but not the shape, so an ambient action pulls back along a
    # fiber leg and then a transition on one side, and pushes forward along
    # a transition and then a fiber leg on the other.
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
                    table[e] = carried(trans, entry_t.ract[f][e], gamma, x)
            ract[mid] = table
        source, target = total, other
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
                    moved = carried(trans, e, gamma, x)
                    if moved not in entry_t.lact[f]:
                        raise LaxcatError(
                            "entries and transitions do not assemble: "
                            f"transition {gamma!r} at {x!r} sends {e!r} to "
                            f"{moved!r}, which {f!r} does not act on")
                    table[e] = entry_t.lact[f][moved]
            lact[mid] = table
        source, target = other, total
    try:
        return build_profunctor(source, target, elements, lact, ract)
    except LaxcatError as exc:
        raise LaxcatError(
            f"entries and transitions do not assemble: {exc}") from exc
