"""Test-only reference searches over functors: the two separate
backtrackers that laxcat.fincat once carried, one over morphism images
and one over hom-set permutations.  The library's single search must
yield the same functors in the same order, and the same isomorphism
verdicts.
"""

import itertools

from laxcat.errors import LaxcatError
from laxcat.fincat import (ISO_SEARCH_BOUND, CatFunctor, FinCategory,
                           validate_functor)


def enumerate_functors(C: FinCategory, D: FinCategory, limit: int = 100000):
    """Yield every functor C -> D in a deterministic order.

    Backtracking over object assignments, then over morphism images hom-set
    by hom-set, pruning on composition as soon as both factors are placed.
    Desk-scale categories only.
    """
    nonid = [m for m in sorted(C.morphisms) if not C.is_identity(m)]
    count = 0

    def extend(obmap):
        nonlocal count
        mormap = {C.identity[x]: D.identity[obmap[x]] for x in C.objects}

        def assign(i):
            nonlocal count
            if count >= limit:
                return
            if i == len(nonid):
                count += 1
                yield CatFunctor(C, D, dict(obmap), dict(mormap))
                return
            m = nonid[i]
            for image in D.hom(obmap[C.src[m]], obmap[C.dst[m]]):
                mormap[m] = image
                ok = True
                for g, f in C.composable_pairs():
                    if g in mormap and f in mormap and C.comp[(g, f)] in mormap:
                        if mormap[C.comp[(g, f)]] != D.comp[(mormap[g], mormap[f])]:
                            ok = False
                            break
                if ok:
                    yield from assign(i + 1)
                del mormap[m]

        yield from assign(0)

    if not C.objects:
        yield CatFunctor(C, D, {}, {})
        return
    if not D.objects:
        return
    for images in itertools.product(sorted(D.objects), repeat=len(C.objects)):
        obmap = dict(zip(sorted(C.objects), images))
        yield from extend(obmap)


def find_isomorphism(C: FinCategory, D: FinCategory,
                     bound: int = ISO_SEARCH_BOUND):
    """Search for an isomorphism of categories; None if there is none.

    Exhaustive over object bijections, then hom-set bijections with
    composition pruning.  Raises LaxcatError past the object bound.
    """
    if len(C.objects) > bound or len(D.objects) > bound:
        raise LaxcatError(
            f"isomorphism search bound {bound} exceeded "
            f"({len(C.objects)} vs {len(D.objects)} objects)")
    if len(C.objects) != len(D.objects) or len(C.morphisms) != len(D.morphisms):
        return None

    cobs = sorted(C.objects)

    for perm in itertools.permutations(sorted(D.objects)):
        obmap = dict(zip(cobs, perm))
        if any(len(C.hom(x, y)) != len(D.hom(obmap[x], obmap[y]))
               for x in cobs for y in cobs):
            continue
        # hom-set by hom-set bijections with composition pruning
        hom_keys = [(x, y) for x in cobs for y in sorted(C.objects)
                    if C.hom(x, y)]
        mormap: dict[str, str] = {}

        def place(i):
            if i == len(hom_keys):
                F = CatFunctor(C, D, dict(obmap), dict(mormap))
                if validate_functor(F).ok and len(set(mormap.values())) == len(mormap):
                    return F
                return None
            x, y = hom_keys[i]
            source_hom = C.hom(x, y)
            for image in itertools.permutations(D.hom(obmap[x], obmap[y])):
                for m, fm in zip(source_hom, image):
                    mormap[m] = fm
                ok = all(
                    mormap[C.comp[(g, f)]] == D.comp[(mormap[g], mormap[f])]
                    for g, f in C.composable_pairs()
                    if g in mormap and f in mormap and C.comp[(g, f)] in mormap)
                if ok:
                    found = place(i + 1)
                    if found is not None:
                        return found
                for m in source_hom:
                    del mormap[m]
            return None

        F = place(0)
        if F is not None:
            return F
    return None
