"""Seeded random instances for property tests and the CLI's randomized mode.

Every generator takes a random.Random and is deterministic for a fixed
seed.  Instances are built so validity is automatic: profunctors arise as
quotients of coproducts of representables, chain maps as dh + hd images,
complexes as basis-changed sums of spheres and twisted disks with their
homology known by construction.  The chain generators import the chain
layer when they run, so drawing categories never loads it.
"""

from __future__ import annotations

import itertools
import math
import random

from .collage import Diagram, build_diagram
from .fincat import (CatFunctor, FinCategory, build_category,
                     compose_functors, enumerate_functors, from_poset,
                     product, standard_category)
from .ids import join_id
from .profunctor import (Profunctor, build_profunctor, coproduct,
                         quotient_by_relation)


def rng_from_seed(seed) -> random.Random:
    return random.Random(seed)


# -- categories -----------------------------------------------------------------

def _z2_monoid() -> FinCategory:
    src = {"e": "m", "t": "m"}
    comp = {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"}
    return build_category(("m",), ("e", "t"), src, dict(src), {"m": "e"}, comp)


def _idempotent_monoid() -> FinCategory:
    src = {"e": "m", "p": "m"}
    comp = {("e", "e"): "e", ("e", "p"): "p", ("p", "e"): "p", ("p", "p"): "p"}
    return build_category(("m",), ("e", "p"), src, dict(src), {"m": "e"}, comp)


def _cospan() -> FinCategory:
    return from_poset(("a", "b", "c"), [("a", "c"), ("b", "c")])


def _span() -> FinCategory:
    return from_poset(("a", "b", "c"), [("a", "b"), ("a", "c")])


def _random_poset(rng: random.Random, n: int) -> FinCategory:
    elems = [str(i) for i in range(n)]
    rel = [(elems[i], elems[j])
           for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return from_poset(elems, rel)


def rand_category(rng: random.Random, max_objects: int = 5) -> FinCategory:
    """A small category from a mixed pool: posets, monoids, products."""
    if max_objects < 2:
        pool = ["discrete", "z2", "idem"]  # the kinds with one object
    else:
        pool = ["discrete", "interval", "z2", "idem", "poset"]
    if max_objects >= 3:
        pool += ["simplex2", "cospan", "span"]
    if max_objects >= 4:
        pool += ["square"]
    kind = rng.choice(pool)
    if kind == "discrete":
        return standard_category("discrete", rng.randint(1, min(3, max_objects)))
    if kind == "interval":
        return standard_category("interval")
    if kind == "simplex2":
        return standard_category("simplex", 2)
    if kind == "cospan":
        return _cospan()
    if kind == "span":
        return _span()
    if kind == "z2":
        return _z2_monoid()
    if kind == "idem":
        return _idempotent_monoid()
    if kind == "square":
        return product(standard_category("interval"),
                       standard_category("interval"))
    return _random_poset(rng, rng.randint(2, min(4, max_objects)))


def rand_functor(rng: random.Random, C: FinCategory, D: FinCategory) -> CatFunctor:
    """A random functor, drawn from an enumerated prefix of all of them."""
    return rng.choice(list(itertools.islice(enumerate_functors(C, D), 24)))


# -- profunctors ------------------------------------------------------------------

def free_profunctor(C: FinCategory, D: FinCategory,
                    c0: str, d0: str, tag: str) -> Profunctor:
    """Free bimodule on one generator sitting over the cell (d0, c0):
    cell (d, c) holds all pairs (path out of d0, path into c0), the pair
    (g, s) named 'tag:g;s' by join_id."""
    name = {(g, s): f"{tag}:" + join_id(g, s, ";")
            for g in D.leaving(d0) for s in C.arriving(c0)}
    elements = {}
    for d in D.objects:
        for c in C.objects:
            elements[(d, c)] = [name[g, s]
                                for g in D.hom(d0, d) for s in C.hom(c, c0)]
    lact = {}
    for g2 in D.morphisms:
        if D.is_identity(g2):
            continue
        x, y = D.src[g2], D.dst[g2]
        table = {}
        for c in C.objects:
            for g in D.hom(d0, x):
                for s in C.hom(c, c0):
                    table[name[g, s]] = name[D.compose(g2, g), s]
        lact[g2] = table
    ract = {}
    for s2 in C.morphisms:
        if C.is_identity(s2):
            continue
        x, y = C.src[s2], C.dst[s2]
        table = {}
        for d in D.objects:
            for g in D.hom(d0, d):
                for s in C.hom(y, c0):
                    table[name[g, s]] = name[g, C.compose(s, s2)]
        ract[s2] = table
    return build_profunctor(C, D, elements, lact, ract)


def rand_profunctor(rng: random.Random, C: FinCategory, D: FinCategory,
                    max_cell: int = 8) -> Profunctor:
    """Quotient of a coproduct of free bimodules by random gluings."""
    k = rng.randint(1, 2)
    parts = []
    for i in range(k):
        c0 = rng.choice(C.objects)
        d0 = rng.choice(D.objects)
        parts.append(free_profunctor(C, D, c0, d0, f"g{i}"))
    P = parts[0]
    for Q in parts[1:]:
        P = coproduct(P, Q)
    merges = rng.randint(0, 3)
    for _ in range(merges):
        fat = [pair for pair, es in P.elements.items() if len(es) >= 2]
        if not fat:
            break
        pair = rng.choice(sorted(fat))
        a, b = rng.sample(sorted(P.elements[pair]), 2)
        P, _ = quotient_by_relation(P, [(a, b)])
    # enforce the per-cell bound by further gluing inside oversized cells
    while True:
        fat = [pair for pair, es in P.elements.items() if len(es) > max_cell]
        if not fat:
            break
        pair = sorted(fat)[0]
        a, b = sorted(P.elements[pair])[:2]
        P, _ = quotient_by_relation(P, [(a, b)])
    return P


# -- diagrams --------------------------------------------------------------------

DIAGRAM_SHAPES = ("interval", "cospan", "simplex2")


def rand_diagram(rng: random.Random, shape_kind: str | None = None,
                 max_fiber_objects: int = 3) -> Diagram:
    """A strict diagram over a poset shape with enumerated transition
    functors along the shape's generators; composites are filled in so
    strictness is exact (no shape has a composite of three generators)."""
    if shape_kind is None:
        shape_kind = rng.choice(DIAGRAM_SHAPES)
    if shape_kind == "interval":
        shape = standard_category("interval")
    elif shape_kind == "cospan":
        shape = _cospan()
    elif shape_kind == "simplex2":
        shape = standard_category("simplex", 2)
    else:
        raise ValueError(f"unknown shape kind {shape_kind!r}")
    fibers = {s: rand_category(rng, max_fiber_objects) for s in shape.objects}
    edges = shape.generators()
    transition = {}
    for mor in edges:
        transition[mor] = rand_functor(rng, fibers[shape.src[mor]],
                                       fibers[shape.dst[mor]])
    for (second, first), mor in shape.comp.items():
        if second in edges and first in edges:
            transition[mor] = compose_functors(transition[second],
                                               transition[first])
    return build_diagram(shape, fibers, transition)


# -- chain complexes ---------------------------------------------------------------

def _invariant_factors(values) -> tuple[int, ...]:
    vals = [v for v in values if v > 1]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            g = math.gcd(vals[i], vals[j])
            vals[i], vals[j] = g, vals[i] * vals[j] // g
    return tuple(sorted(v for v in vals if v > 1))


def rand_complex(rng: random.Random, lo: int = -1, hi: int = 3,
                 shears: int = 6):
    """(complex, known homology); sums of spheres and m-twisted disks,
    then an integer change of basis that provably preserves homology."""
    from .k0chain import HomologyGroup, build_complex, direct_sum
    summands = rng.randint(1, 3)
    C = None
    free: dict[int, int] = {}
    torsion: dict[int, list[int]] = {}
    for _ in range(summands):
        n = rng.randint(lo + 1, hi)
        if rng.random() < 0.5:
            piece = build_complex({n: 1}, {})
            free[n] = free.get(n, 0) + 1
        else:
            m = rng.choice([1, 1, 2, 2, 3, 4])
            piece = build_complex({n: 1, n - 1: 1}, {n: [[m]]})
            if m > 1:
                torsion.setdefault(n - 1, []).append(m)
        C = piece if C is None else direct_sum(C, piece)
    ranks = dict(C.ranks)
    diffs = {n: C.diff(n).copy() for n in C.diffs}
    for _ in range(shears):
        candidates = [n for n, r in ranks.items() if r >= 2]
        if not candidates:
            break
        n = rng.choice(sorted(candidates))
        r = ranks[n]
        i, j = rng.sample(range(r), 2)
        c = rng.choice([-2, -1, 1, 2])
        # new basis at degree n only: d_n picks up E^-1 on the right,
        # d_{n+1} picks up E on the left
        if n in diffs:
            diffs[n].add_col(j, i, -c)
        if n + 1 in diffs:
            diffs[n + 1].add_row(i, j, c)
    out = build_complex(ranks, diffs)
    known = {}
    for n in set(free) | set(torsion):
        h = HomologyGroup(free.get(n, 0), _invariant_factors(torsion.get(n, [])))
        if not h.is_zero():
            known[n] = h
    return out, known


def rand_graded(rng: random.Random, A: ChainComplex, B: ChainComplex,
                degree: int = 1, density: float = 0.5,
                lo: int = -2, hi: int = 2) -> dict:
    """Random graded map raising degree: component A_n -> B_{n+degree}."""
    from .intmat import zeros
    h = {}
    for n in A.ranks:
        rows, cols = B.rank(n + degree), A.rank(n)
        if rows and cols:
            m = zeros(rows, cols)
            for i in range(rows):
                for j in range(cols):
                    if rng.random() < density:
                        m[i, j] = rng.randint(lo, hi)
            h[n] = m
    return h


def rand_chain_map(rng: random.Random, A: ChainComplex,
                   B: ChainComplex) -> ChainMap:
    """dh + hd of a random graded map: a chain map by construction."""
    from .k0chain import graded_map_image
    return graded_map_image(A, B, rand_graded(rng, A, B))


def rand_quasi_iso_case(rng: random.Random):
    """(chain map, whether it is a quasi isomorphism).

    Positive cases are identity plus a null-homotopic perturbation;
    negative cases mix zero maps, scalings, and homology mismatches so the
    surjectivity branch gets exercised alongside descriptor mismatches.
    """
    from .k0chain import (add_chain_maps, build_chain_map, build_complex,
                          graded_map_image, identity_chain_map,
                          zero_chain_map)
    branch = rng.randrange(4)
    if branch == 0:
        A, _ = rand_complex(rng)
        f = add_chain_maps(identity_chain_map(A),
                           graded_map_image(A, A, rand_graded(rng, A, A)))
        return f, True
    if branch == 1:
        A, known = rand_complex(rng)
        return zero_chain_map(A, A), not known
    if branch == 2:
        n = rng.randint(-1, 2)
        A = build_complex({n: 1}, {})
        k = rng.choice([-3, -2, 2, 3])
        return build_chain_map(A, A, {n: [[k]]}), False
    n = rng.randint(-1, 1)
    A = build_complex({n: 1}, {})
    B = build_complex({n + 1: 1}, {})
    return zero_chain_map(A, B), False


def rand_universal_case(rng: random.Random):
    """(f, g, H) with H a null homotopy of g.f: f = D h and
    H = g.h + D m, for random graded maps h of degree 1 and m of degree 2;
    D H = g.D h + D D m = g.f."""
    from .k0chain import (GradedMap, build_homotopy, compose_chain_maps,
                          graded_map_image, zero_chain_map)
    A, _ = rand_complex(rng, shears=2)
    B, _ = rand_complex(rng, shears=2)
    C, _ = rand_complex(rng, shears=2)
    h = GradedMap(A, B, 1, rand_graded(rng, A, B))
    f = graded_map_image(A, B, h.matrices)
    g = rand_chain_map(rng, B, C)
    m = GradedMap(A, C, 2, rand_graded(rng, A, C, degree=2, density=0.3))
    mats = {n: g.mat(n + 1) @ h.mat(n) + m.boundary(n)
            for n in A.ranks if C.rank(n + 1)}
    H = build_homotopy(zero_chain_map(A, C), compose_chain_maps(g, f), mats)
    return f, g, H
