"""Test-only references for the checks that the library writes once and
runs along generators: the full scan of associativity over every composable
triple, the profunctor laws with the right action written out by hand and
every functoriality pair and commuting pair of morphisms enumerated, and the
opposite category rebuilt and revalidated by build_category.  Also S3 and
the quaternion group as one-object categories.
"""

import itertools

from laxcat.errors import LaxcatError
from laxcat.fincat import build_category


def group_category(elements, mul):
    """The one-object category of a finite group; the first element is the
    unit, and composing g after f is the product mul(g, f)."""
    src = {x: "*" for x in elements}
    comp = {(g, f): mul(g, f) for g in elements for f in elements}
    return build_category(("*",), elements, src, dict(src),
                          {"*": elements[0]}, comp)


def symmetric_group_3():
    """S3, the permutation p named 's' followed by its images of 0, 1, 2."""
    perms = list(itertools.permutations(range(3)))
    name = {p: "s" + "".join(map(str, p)) for p in perms}
    perm = {v: k for k, v in name.items()}
    return group_category([name[p] for p in perms], lambda g, f: name[
        tuple(perm[g][perm[f][i]] for i in range(3))])


def quaternion_group():
    """Q8 = {+-1, +-i, +-j, +-k}, each named by its sign and unit."""
    units = {("1", u): (1, u) for u in "1ijk"}
    units.update({(u, "1"): (1, u) for u in "ijk"})
    units.update({(u, u): (-1, "1") for u in "ijk"})
    for a, b, c in ("ijk", "jki", "kij"):
        units[(a, b)], units[(b, a)] = (1, c), (-1, c)
    elements = [s + u for u in "1ijk" for s in "+-"]

    def mul(g, f):
        sign, unit = units[(g[1], f[1])]
        sign *= (1 if g[0] == "+" else -1) * (1 if f[0] == "+" else -1)
        return ("+" if sign == 1 else "-") + unit
    return group_category(elements, mul)


def associativity_violation(C, comp):
    """The associativity message of the first triple (h, g, f) of the full
    scan over C's ids with composition table comp, or None: f in morphisms
    order, then g out of dst f, then h out of dst g.  comp must be total
    and unital."""
    leaving = {x: [m for m in C.morphisms if C.src[m] == x] for x in C.objects}
    for f in C.morphisms:
        for g in leaving[C.dst[f]]:
            for h in leaving[C.dst[g]]:
                if comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)]:
                    return f"h(gf) != (hg)f for ({h!r}, {g!r}, {f!r})"
    return None


def opposite_by_build(C):
    """The reversed table, through the full validation of build_category."""
    comp = {(f, g): h for (g, f), h in C.comp.items()}
    return build_category(C.objects, C.morphisms, dict(C.dst), dict(C.src),
                          dict(C.identity), comp)


def first_violation(source, target, elements, lact, ract):
    """The message of the first violated profunctor law, or None.

    Normalizes like build_profunctor, then runs every law on the left
    action and again, written out, on the right action: keys, typing,
    identities, functoriality, commuting.
    """
    C, D = source, target
    cells = {(d, c): tuple(sorted(elements.get((d, c), ())))
             for d in D.objects for c in C.objects}
    lact = {m: dict(t) for m, t in lact.items()}
    ract = {m: dict(t) for m, t in ract.items()}
    for gamma in D.morphisms:
        table = lact.setdefault(gamma, {})
        if D.is_identity(gamma):
            for c in C.objects:
                for e in cells[(D.src[gamma], c)]:
                    table.setdefault(e, e)
    for sigma in C.morphisms:
        table = ract.setdefault(sigma, {})
        if C.is_identity(sigma):
            for d in D.objects:
                for e in cells[(d, C.dst[sigma])]:
                    table.setdefault(e, e)
    try:
        _validate_two_sided(C, D, cells, lact, ract)
    except LaxcatError as exc:
        return str(exc)
    return None


def _validate_two_sided(C, D, cells, lact, ract):
    if set(lact) != set(D.morphisms):
        raise LaxcatError("left action keyed off the target morphisms")
    if set(ract) != set(C.morphisms):
        raise LaxcatError("right action keyed off the source morphisms")

    for gamma in D.morphisms:
        d, d2 = D.src[gamma], D.dst[gamma]
        table = lact[gamma]
        domain = {e for c in C.objects for e in cells[(d, c)]}
        if set(table) != domain:
            raise LaxcatError(f"left action of {gamma!r} has wrong domain")
        for c in C.objects:
            for e in cells[(d, c)]:
                if table[e] not in cells[(d2, c)]:
                    raise LaxcatError(
                        f"left action of {gamma!r} sends {e!r} outside cell "
                        f"({d2!r}, {c!r})")
    for sigma in C.morphisms:
        c, c2 = C.src[sigma], C.dst[sigma]
        table = ract[sigma]
        domain = {e for d in D.objects for e in cells[(d, c2)]}
        if set(table) != domain:
            raise LaxcatError(f"right action of {sigma!r} has wrong domain")
        for d in D.objects:
            for e in cells[(d, c2)]:
                if table[e] not in cells[(d, c)]:
                    raise LaxcatError(
                        f"right action of {sigma!r} sends {e!r} outside cell "
                        f"({d!r}, {c!r})")

    for x in D.objects:
        for e, img in lact[D.identity[x]].items():
            if img != e:
                raise LaxcatError(f"identity left action moves {e!r}")
    for x in C.objects:
        for e, img in ract[C.identity[x]].items():
            if img != e:
                raise LaxcatError(f"identity right action moves {e!r}")

    for f in D.morphisms:
        for g in D.leaving(D.dst[f]):
            gf = D.comp[(g, f)]
            for e in lact[f]:
                if lact[gf][e] != lact[g][lact[f][e]]:
                    raise LaxcatError(
                        f"left action not functorial on ({g!r}, {f!r}) at {e!r}")
    for f in C.morphisms:
        for g in C.leaving(C.dst[f]):
            gf = C.comp[(g, f)]
            for e in ract[gf]:
                if ract[gf][e] != ract[f][ract[g][e]]:
                    raise LaxcatError(
                        f"right action not functorial on ({g!r}, {f!r}) at {e!r}")

    for gamma in D.morphisms:
        for sigma in C.morphisms:
            for e in cells[(D.src[gamma], C.dst[sigma])]:
                if ract[sigma][lact[gamma][e]] != lact[gamma][ract[sigma][e]]:
                    raise LaxcatError(
                        f"actions of {gamma!r} and {sigma!r} do not commute at {e!r}")
