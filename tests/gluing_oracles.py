"""Test-only reference gluing: the coend composite and the blockwise product
with their union loops run over every non-identity middle morphism, where
the library glues along FinCategory.generators() only.  Both hand their
classes to the same kernel, profunctor._glue, so equal classes give equal
results byte for byte.  glue_checking_every_outer_morphism is that kernel
with its well-definedness check run on every outer morphism and the outer
actions read off every member of a class, where _glue checks along the
outer generators and reads the actions off the least member.  Also a finite
abelian group as a one-object category, whose generators the greedy step of
generators() chooses.
"""

from laxcat.fincat import build_category
from laxcat.ids import composite_id
from laxcat.profunctor import CoendComposite, _glue, build_profunctor
from laxcat.unionfind import UnionFind


def abelian_group(a, b):
    """Z/a x Z/b as a one-object category."""
    name = {(i, j): f"g{i}.{j}" for i in range(a) for j in range(b)}
    src = {m: "*" for m in name.values()}
    comp = {(name[(i, j)], name[(k, l)]): name[((i + k) % a, (j + l) % b)]
            for (i, j) in name for (k, l) in name}
    return build_category(("*",), tuple(name.values()), src, dict(src),
                          {"*": name[(0, 0)]}, comp)


def non_identities(C):
    return [m for m in C.morphisms if not C.is_identity(m)]


def compose_along_every_morphism(N, M):
    C, D, E = M.source, M.target, N.target
    classes = {}
    for e in E.objects:
        for c in C.objects:
            uf = UnionFind((d, n, m) for d in D.objects
                           for n in N.elements[(e, d)]
                           for m in M.elements[(d, c)])
            for gamma in non_identities(D):
                d, d2 = D.src[gamma], D.dst[gamma]
                for n2 in N.elements[(e, d2)]:
                    for m in M.elements[(d, c)]:
                        uf.union((d, N.ract[gamma][n2], m),
                                 (d2, n2, M.lact[gamma][m]))
            classes[(e, c)] = uf.classes()
    return _glue(C, E, classes, composite_id,
                 lambda eps, gs: [(d, N.lact[eps][n], m) for d, n, m in gs],
                 lambda sigma, gs: [(d, n, M.ract[sigma][m]) for d, n, m in gs])


def block_multiply_along_every_morphism(N, M):
    G = N.collage
    S = G.shape
    C, E = M.other, N.other
    classes = {}
    for e in E.objects:
        for c in C.objects:
            uf = UnionFind((f"({s},{x})", n, m)
                           for s in S.objects for x in G.fiber[s].objects
                           for n in N.entries[s].elements[(e, x)]
                           for m in M.entries[s].elements[(x, c)])
            for s in S.objects:
                Cs = G.fiber[s]
                Ne, Me = N.entries[s], M.entries[s]
                for f in non_identities(Cs):
                    x, y = Cs.src[f], Cs.dst[f]
                    for n in Ne.elements[(e, y)]:
                        for m in Me.elements[(x, c)]:
                            uf.union((f"({s},{x})", Ne.ract[f][n], m),
                                     (f"({s},{y})", n, Me.lact[f][m]))
            for gamma in non_identities(S):
                s, t = S.src[gamma], S.dst[gamma]
                F = G.diagram.transition[gamma]
                for x in G.fiber[s].objects:
                    fx = F.obmap[x]
                    for n in N.entries[t].elements[(e, fx)]:
                        for m in M.entries[s].elements[(x, c)]:
                            uf.union((f"({s},{x})", N.transition[gamma][x][n], m),
                                     (f"({t},{fx})", n, M.transition[gamma][x][m]))
            classes[(e, c)] = uf.classes()

    def lact(eps, gens):
        return [(mid, N.entries[G.obj_parts[mid][0]].lact[eps][n], m)
                for mid, n, m in gens]

    def ract(sigma, gens):
        return [(mid, n, M.entries[G.obj_parts[mid][0]].ract[sigma][m])
                for mid, n, m in gens]
    return _glue(C, E, classes, composite_id, lact, ract)


def glue_checking_every_outer_morphism(source, target, classes, name,
                                       act_left, act_right):
    C, E = source, target
    class_of, rep_of, elements = {}, {}, {}
    for cell, found in classes.items():
        ids = []
        for rep, members in found.items():
            cid = name(rep)
            ids.append(cid)
            rep_of[cid] = rep
            class_of.update(dict.fromkeys(members, cid))
        elements[cell] = tuple(sorted(ids))

    lact = {eps: {} for eps in E.morphisms}
    ract = {sigma: {} for sigma in C.morphisms}
    for (e, c), found in classes.items():
        sides = (("left", act_left, lact, E.leaving(e)),
                 ("right", act_right, ract, C.arriving(c)))
        for rep, members in found.items():
            cid = class_of[rep]
            for side, act, table, along in sides:
                for a in along:
                    images = {class_of[g] for g in act(a, members)}
                    if len(images) != 1:
                        raise AssertionError(
                            f"outer {side} action of {a!r} ill-defined on {cid!r}")
                    table[a][cid] = images.pop()
    return CoendComposite(build_profunctor(C, E, elements, lact, ract),
                          class_of, rep_of)
