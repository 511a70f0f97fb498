"""Finite categories presented by complete composition tables.

Objects and morphisms are opaque strings.  A category is valid only if its
table is total and passes the unit and associativity laws, so every
FinCategory in circulation is a genuine category, not a promise.  By
Light's test (Clifford and Preston, The Algebraic Theory of Semigroups I,
1.2) only the triples (h, g, f) with g in generators() are checked: the g
that associate with all h, f include the identities and, with a, b, b.a:
(h.(b.a)).f = ((h.b).a).f = (h.b).(a.f) = h.(b.(a.f)) = h.((b.a).f).
The same closure argument decides each law along_generators checks; the
full scan runs only on failure, to report its first violation.

>>> C = standard_category("interval")
>>> sorted(C.objects)
['0', '1']
>>> C.compose(C.identity["1"], "u")
'u'
"""

import itertools

from .errors import (
    InvalidParameter,
    MissingComposite,
    NonAssociative,
    SearchBoundExceeded,
    UnitLawViolation,
)
from .report import Record, Report

ISO_SEARCH_BOUND = 8


class FinCategory(Record):
    """A finite category: objects, morphisms, identities, total composition.

    comp maps each composable pair (g, f) with dst(f) == src(g) to the
    composite g.f.  build_category lists the pairs f by f in morphisms
    order, then g by g out of dst(f); the opposite keeps the order of the
    category it reverses.  Treat instances as immutable once built.
    """

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: dict[str, str]
    dst: dict[str, str]
    identity: dict[str, str]
    comp: dict[tuple[str, str], str]
    # caches, filled on first use
    _homs = _leaving = _arriving = _generators = _opposite = None

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        if self._homs is None:
            table: dict[tuple[str, str], list[str]] = {
                (a, b): [] for a in self.objects for b in self.objects}
            for m in self.morphisms:
                table[(self.src[m], self.dst[m])].append(m)
            self._homs = {k: tuple(sorted(v)) for k, v in table.items()}
        return self._homs[(x, y)]

    def leaving(self, x: str) -> tuple[str, ...]:
        """The morphisms with source x, in morphisms order."""
        if self._leaving is None:
            self._leaving = _index(self.objects, self.morphisms, self.src)
        return self._leaving[x]

    def arriving(self, x: str) -> tuple[str, ...]:
        """The morphisms with target x, in morphisms order."""
        if self._arriving is None:
            self._arriving = _index(self.objects, self.morphisms, self.dst)
        return self._arriving[x]

    def compose(self, g: str, f: str) -> str:
        """The composite g.f (first f, then g)."""
        return self.comp[(g, f)]

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.src[m]) == m

    def composable_pairs(self):
        """Every composable pair (g, f), in the order of the table comp."""
        return iter(self.comp)

    def generators(self) -> tuple[str, ...]:
        """Non-identity morphisms whose composites give every non-identity
        morphism, in morphisms order.

        The irreducible ones, which are no composite g.f of two
        non-identities, come first of necessity; then, in morphisms order,
        each non-identity that composites of those chosen so far miss.
        """
        if self._generators is None:
            ids = set(self.identity.values())
            reducible = {gf for (g, f), gf in self.comp.items()
                         if g not in ids and f not in ids}
            chosen = {m for m in self.morphisms
                      if m not in ids and m not in reducible}
            reached = self._composites_of(chosen)
            for m in self.morphisms:
                if m not in ids and m not in reached:
                    chosen.add(m)
                    reached = self._composites_of(chosen)
            self._generators = tuple(m for m in self.morphisms if m in chosen)
        return self._generators

    def _composites_of(self, gens) -> set[str]:
        """Every composite of one or more morphisms of gens."""
        after = {x: [g for g in self.leaving(x) if g in gens]
                 for x in self.objects}
        reached, todo = set(gens), list(gens)
        while todo:
            f = todo.pop()
            for g in after[self.dst[f]]:
                gf = self.comp[(g, f)]
                if gf not in reached:
                    reached.add(gf)
                    todo.append(gf)
        return reached

    def __repr__(self):
        return (f"FinCategory({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")


def _index(objects, morphisms, end) -> dict[str, tuple[str, ...]]:
    """Each object's morphisms m with end[m] equal to it, in the given order."""
    index = {x: [] for x in objects}
    for m in morphisms:
        index[end[m]].append(m)
    return {x: tuple(ms) for x, ms in index.items()}


def build_category(objects, morphisms, src, dst, identity, comp) -> FinCategory:
    """Assemble and validate a finite category, associativity along generators.

    morphisms may be any iterable of ids; src/dst/identity/comp as in
    FinCategory.  Raises InvalidParameter for structural malformation,
    MissingComposite / UnitLawViolation / NonAssociative for law failures.
    """
    # canonical sorted storage, so equal tables compare equal
    objects = tuple(sorted(objects))
    morphisms = tuple(sorted(morphisms))
    if len(set(objects)) != len(objects):
        raise InvalidParameter("duplicate object ids")
    if len(set(morphisms)) != len(morphisms):
        raise InvalidParameter("duplicate morphism ids")
    obset, morset = set(objects), set(morphisms)
    for m in morphisms:
        if m not in src or m not in dst:
            raise InvalidParameter(f"morphism {m!r} lacks src or dst")
        if src[m] not in obset or dst[m] not in obset:
            raise InvalidParameter(f"morphism {m!r} has unknown endpoint")
    if set(src) != morset or set(dst) != morset:
        raise InvalidParameter("src/dst defined on unknown morphisms")
    for x in objects:
        if x not in identity:
            raise UnitLawViolation(f"object {x!r} has no identity")
        i = identity[x]
        if i not in morset:
            raise InvalidParameter(f"identity of {x!r} is unknown morphism {i!r}")
        if src[i] != x or dst[i] != x:
            raise UnitLawViolation(f"identity {i!r} of {x!r} is not an endomorphism")
    if set(identity) != obset:
        raise InvalidParameter("identity map defined on unknown objects")

    cat = FinCategory(objects, morphisms, dict(src), dict(dst),
                      dict(identity), {})

    # comp is total on composable pairs and nothing else; kept f by f
    for key in comp:
        g, f = key
        if f not in morset or g not in morset:
            raise MissingComposite(f"composition entry {key!r} uses unknown morphism")
        if dst[f] != src[g]:
            raise MissingComposite(f"composition entry {key!r} is not composable")
    for f in morphisms:
        for g in cat.leaving(dst[f]):
            gf = cat.comp[(g, f)] = comp.get((g, f))
            if gf is None:
                raise MissingComposite(f"no composite for ({g!r}, {f!r})")
            if gf not in morset:
                raise MissingComposite(f"composite of ({g!r}, {f!r}) is unknown: {gf!r}")
            if src[gf] != src[f] or dst[gf] != dst[g]:
                raise MissingComposite(
                    f"composite {gf!r} of ({g!r}, {f!r}) has wrong endpoints")

    # unit laws, by enumeration
    for m in morphisms:
        if cat.comp[(m, identity[src[m]])] != m:
            raise UnitLawViolation(f"{m!r} . id != {m!r}")
        if cat.comp[(identity[dst[m]], m)] != m:
            raise UnitLawViolation(f"id . {m!r} != {m!r}")

    # associativity: the triples (h, g, f) with g in middle, f by f as in comp
    def nonassociative(middle):
        for (g, f), gf in cat.comp.items():
            if g in middle:
                for h in cat.leaving(dst[g]):
                    if cat.comp[(h, gf)] != cat.comp[(cat.comp[(h, g)], f)]:
                        yield h, g, f

    for h, g, f in along_generators(nonassociative, set(cat.generators()), morset):
        raise NonAssociative(f"h(gf) != (hg)f for ({h!r}, {g!r}, {f!r})")
    return cat


def along_generators(law, generators, every):
    """law(every)'s violations if law(generators) has any; see the module docstring."""
    if next(law(generators), None) is not None:
        yield from law(every)


# -- standard categories ------------------------------------------------------

def from_poset(elements, relation) -> FinCategory:
    """The category of a finite poset.

    relation is an iterable of (x, y) pairs meaning x <= y; its
    reflexive-transitive closure must be antisymmetric.  Morphism ids are
    'x<=y'.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise InvalidParameter("duplicate poset elements")
    below = {x: {x} for x in elements}
    for x, y in relation:
        if x not in below or y not in below:
            raise InvalidParameter(f"relation pair ({x!r}, {y!r}) off the carrier")
        below[x].add(y)
    # transitive closure
    changed = True
    while changed:
        changed = False
        for x in elements:
            extra = set()
            for y in below[x]:
                extra |= below[y]
            if not extra <= below[x]:
                below[x] |= extra
                changed = True
    for x in elements:
        for y in below[x]:
            if x != y and x in below[y]:
                raise InvalidParameter(f"relation is not antisymmetric at ({x!r}, {y!r})")

    morphisms = []
    src, dst = {}, {}
    for x in elements:
        for y in sorted(below[x]):
            m = f"{x}<={y}"
            morphisms.append(m)
            src[m], dst[m] = x, y
    identity = {x: f"{x}<={x}" for x in elements}
    comp = {}
    for f in morphisms:
        for g in morphisms:
            if dst[f] == src[g]:
                comp[(g, f)] = f"{src[f]}<={dst[g]}"
    return build_category(elements, sorted(morphisms), src, dst, identity, comp)


def standard_category(kind: str, *args) -> FinCategory:
    """Stock categories: discrete n, interval, poset, simplex n.

    >>> standard_category("discrete", 3).morphisms
    ('id_0', 'id_1', 'id_2')
    >>> len(standard_category("simplex", 2).morphisms)
    6
    """
    if kind == "discrete":
        if len(args) != 1 or not isinstance(args[0], int) or args[0] < 0:
            raise InvalidParameter("discrete expects a nonnegative object count")
        n = args[0]
        objects = tuple(str(i) for i in range(n))
        morphisms = tuple(f"id_{i}" for i in range(n))
        src = {f"id_{i}": str(i) for i in range(n)}
        identity = {str(i): f"id_{i}" for i in range(n)}
        comp = {(m, m): m for m in morphisms}
        return build_category(objects, morphisms, src, dict(src), identity, comp)
    if kind == "interval":
        if args:
            raise InvalidParameter("interval takes no arguments")
        src = {"id_0": "0", "id_1": "1", "u": "0"}
        dst = {"id_0": "0", "id_1": "1", "u": "1"}
        comp = {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
                ("u", "id_0"): "u", ("id_1", "u"): "u"}
        return build_category(("0", "1"), ("id_0", "id_1", "u"), src, dst,
                              {"0": "id_0", "1": "id_1"}, comp)
    if kind == "poset":
        if len(args) != 2:
            raise InvalidParameter("poset expects (elements, relation)")
        return from_poset(args[0], args[1])
    if kind == "simplex":
        if len(args) != 1 or not isinstance(args[0], int) or args[0] < 0:
            raise InvalidParameter("simplex expects a nonnegative dimension")
        n = args[0]
        elems = [str(i) for i in range(n + 1)]
        rel = [(str(i), str(j)) for i in range(n + 1) for j in range(i, n + 1)]
        return from_poset(elems, rel)
    raise InvalidParameter(f"unknown standard category kind {kind!r}")


def product(C: FinCategory, D: FinCategory) -> FinCategory:
    """Product category; objects '(x,y)', morphisms '(f,g)' componentwise."""
    objects = tuple(f"({x},{y})" for x in C.objects for y in D.objects)
    morphisms = []
    src, dst = {}, {}
    for f in C.morphisms:
        for g in D.morphisms:
            m = f"({f},{g})"
            morphisms.append(m)
            src[m] = f"({C.src[f]},{D.src[g]})"
            dst[m] = f"({C.dst[f]},{D.dst[g]})"
    identity = {f"({x},{y})": f"({C.identity[x]},{D.identity[y]})"
                for x in C.objects for y in D.objects}
    comp = {}
    for (f1, g1) in itertools.product(C.morphisms, D.morphisms):
        for (f2, g2) in itertools.product(C.arriving(C.src[f1]),
                                          D.arriving(D.src[g1])):
            comp[(f"({f1},{g1})", f"({f2},{g2})")] = (
                f"({C.comp[(f1, f2)]},{D.comp[(g1, g2)]})")
    return build_category(objects, tuple(morphisms), src, dst, identity, comp)


def opposite(C: FinCategory) -> FinCategory:
    """Reverse all arrows, keeping every id string; an involution on the nose.

    Cached on C and remembering C, so opposite(opposite(C)) is C.  It shares
    C's ids, src, dst and identity maps and generators, which generate C^op
    too; only the composition table is rebuilt, its pairs swapped.  The laws
    are self-dual, so it is a category because C is, without validation.
    """
    if C._opposite is None:
        op = FinCategory(C.objects, C.morphisms, C.dst, C.src, C.identity,
                         {(f, g): h for (g, f), h in C.comp.items()})
        op._opposite, C._opposite, op._generators = C, op, C.generators()
    return C._opposite


# -- functors -----------------------------------------------------------------

class CatFunctor(Record):
    source: FinCategory
    target: FinCategory
    obmap: dict[str, str]
    mormap: dict[str, str]

    def __repr__(self):
        return f"CatFunctor({self.source!r} -> {self.target!r})"


def identity_functor(C: FinCategory) -> CatFunctor:
    return CatFunctor(C, C, {x: x for x in C.objects},
                      {m: m for m in C.morphisms})


def compose_functors(G: CatFunctor, F: CatFunctor) -> CatFunctor:
    """G after F."""
    if F.target != G.source:
        raise InvalidParameter("functor composition endpoints do not match")
    return CatFunctor(F.source, G.target,
                      {x: G.obmap[F.obmap[x]] for x in F.source.objects},
                      {m: G.mormap[F.mormap[m]] for m in F.source.morphisms})


def validate_functor(F: CatFunctor) -> Report:
    """Every violated preservation equation, one failure line each."""
    rep = Report()
    C, D = F.source, F.target
    obset, morset = set(D.objects), set(D.morphisms)
    for x in C.objects:
        if F.obmap.get(x) not in obset:
            rep.fail(f"object {x!r} maps outside the target")
    for m in C.morphisms:
        fm = F.mormap.get(m)
        if fm not in morset:
            rep.fail(f"morphism {m!r} maps outside the target")
            continue
        if D.src[fm] != F.obmap.get(C.src[m]) or D.dst[fm] != F.obmap.get(C.dst[m]):
            rep.fail(f"morphism {m!r}: image endpoints disagree with object map")
    if rep.ok:
        for x in C.objects:
            if F.mormap[C.identity[x]] != D.identity[F.obmap[x]]:
                rep.fail(f"identity of {x!r} not preserved")
        for g, f in C.composable_pairs():
            if F.mormap[C.comp[(g, f)]] != D.comp[(F.mormap[g], F.mormap[f])]:
                rep.fail(f"composition not preserved on ({g!r}, {f!r})")
    return rep


def _extend(C: FinCategory, D: FinCategory, obmaps, injective: bool = False):
    """Yield, object map by object map, every functor C -> D on it.

    The non-identity morphisms of C are placed in order of id, each tried
    against its hom-set of D in order.  A branch is cut as soon as a placed
    composite g.f has an image other than the composite of the images of g
    and f.  With injective, an image already taken is skipped.
    """
    nonid = [m for m in sorted(C.morphisms) if not C.is_identity(m)]
    step = {m: i for i, m in enumerate(nonid)}
    # each equation is checked once, when the last of its morphisms is
    # placed; those with an identity factor hold by construction
    checks = [[] for _ in nonid]
    for (g, f), gf in C.comp.items():
        if g in step and f in step:
            checks[max(step[g], step[f], step.get(gf, -1))].append((g, f, gf))

    def place(i):
        if i == len(nonid):
            yield CatFunctor(C, D, dict(obmap), dict(mormap))
            return
        m = nonid[i]
        for image in D.hom(obmap[C.src[m]], obmap[C.dst[m]]):
            if injective and image in mormap.values():
                continue
            mormap[m] = image
            if all(mormap[gf] == D.comp[(mormap[g], mormap[f])]
                   for g, f, gf in checks[i]):
                yield from place(i + 1)
            del mormap[m]

    for obmap in obmaps:
        mormap = {C.identity[x]: D.identity[obmap[x]] for x in C.objects}
        yield from place(0)


def enumerate_functors(C: FinCategory, D: FinCategory):
    """Yield every functor C -> D, in a fixed order.

    Object maps come first, in lexicographic order: the sorted objects of
    C go to the tuples of itertools.product over the sorted objects of D.
    On each object map, the images of the non-identity morphisms of C,
    taken in order of id, run lexicographically through the sorted hom-sets
    of D.  rand_functor draws from a prefix of this sequence, so seeded
    instances depend on the order.  Desk-scale categories only.
    """
    cobs = sorted(C.objects)
    images = itertools.product(sorted(D.objects), repeat=len(cobs))
    return _extend(C, D, (dict(zip(cobs, ims)) for ims in images))


def find_isomorphism(C: FinCategory, D: FinCategory,
                     bound: int = ISO_SEARCH_BOUND):
    """Search for an isomorphism of categories; None if there is none.

    Returns the first injective functor on an object bijection that keeps
    the size of every hom-set.  Such a functor is an isomorphism: it maps
    each hom-set injectively into one of the same finite size, so it is
    bijective on morphisms as on objects, and the inverse of a bijective
    functor is a functor.  Raises SearchBoundExceeded past the object bound.
    """
    if len(C.objects) > bound or len(D.objects) > bound:
        raise SearchBoundExceeded(
            f"isomorphism search bound {bound} exceeded "
            f"({len(C.objects)} vs {len(D.objects)} objects)")
    if len(C.objects) != len(D.objects) or len(C.morphisms) != len(D.morphisms):
        return None
    cobs = sorted(C.objects)

    def keeps_hom_sizes(obmap):
        return all(len(C.hom(x, y)) == len(D.hom(obmap[x], obmap[y]))
                   for x in cobs for y in cobs)

    bijections = (dict(zip(cobs, perm))
                  for perm in itertools.permutations(sorted(D.objects)))
    return next(_extend(C, D, filter(keeps_hom_sizes, bijections),
                        injective=True), None)
