"""Test-only references for the two-sided checks that the library now
writes once and mirrors through the opposite: the profunctor laws with the
right action written out by hand, and the opposite category rebuilt and
revalidated by build_category.
"""

from laxcat.errors import InvalidParameter
from laxcat.fincat import build_category


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
    except InvalidParameter as exc:
        return str(exc)
    return None


def _validate_two_sided(C, D, cells, lact, ract):
    if set(lact) != set(D.morphisms):
        raise InvalidParameter("left action keyed off the target morphisms")
    if set(ract) != set(C.morphisms):
        raise InvalidParameter("right action keyed off the source morphisms")

    for gamma in D.morphisms:
        d, d2 = D.src[gamma], D.dst[gamma]
        table = lact[gamma]
        domain = {e for c in C.objects for e in cells[(d, c)]}
        if set(table) != domain:
            raise InvalidParameter(f"left action of {gamma!r} has wrong domain")
        for c in C.objects:
            for e in cells[(d, c)]:
                if table[e] not in cells[(d2, c)]:
                    raise InvalidParameter(
                        f"left action of {gamma!r} sends {e!r} outside cell "
                        f"({d2!r}, {c!r})")
    for sigma in C.morphisms:
        c, c2 = C.src[sigma], C.dst[sigma]
        table = ract[sigma]
        domain = {e for d in D.objects for e in cells[(d, c2)]}
        if set(table) != domain:
            raise InvalidParameter(f"right action of {sigma!r} has wrong domain")
        for d in D.objects:
            for e in cells[(d, c2)]:
                if table[e] not in cells[(d, c)]:
                    raise InvalidParameter(
                        f"right action of {sigma!r} sends {e!r} outside cell "
                        f"({d!r}, {c!r})")

    for x in D.objects:
        for e, img in lact[D.identity[x]].items():
            if img != e:
                raise InvalidParameter(f"identity left action moves {e!r}")
    for x in C.objects:
        for e, img in ract[C.identity[x]].items():
            if img != e:
                raise InvalidParameter(f"identity right action moves {e!r}")

    for f in D.morphisms:
        for g in D.leaving(D.dst[f]):
            gf = D.comp[(g, f)]
            for e in lact[f]:
                if lact[gf][e] != lact[g][lact[f][e]]:
                    raise InvalidParameter(
                        f"left action not functorial on ({g!r}, {f!r}) at {e!r}")
    for f in C.morphisms:
        for g in C.leaving(C.dst[f]):
            gf = C.comp[(g, f)]
            for e in ract[gf]:
                if ract[gf][e] != ract[f][ract[g][e]]:
                    raise InvalidParameter(
                        f"right action not functorial on ({g!r}, {f!r}) at {e!r}")

    for gamma in D.morphisms:
        for sigma in C.morphisms:
            for e in cells[(D.src[gamma], C.dst[sigma])]:
                if ract[sigma][lact[gamma][e]] != lact[gamma][ract[sigma][e]]:
                    raise InvalidParameter(
                        f"actions of {gamma!r} and {sigma!r} do not commute at {e!r}")
