"""The three workloads: seeded inputs and the command list run over them.

A workload builder writes its inputs as JSON into a workspace directory
and returns the operations of one pass.  Everything seeded comes from the
`seed` argument; the program only ever sees the files.  Inputs are built
with laxcat's own constructors and generators where those are the natural
source (hom profunctors, random profunctors and diagrams) and with the
benchmark's own code where the answer must be known by construction
(complexes with known homology, chain maps that are quasi-isomorphisms,
matrices, finite abelian groups).

Every operation passes --max-objects and --max-elements computed from its
own inputs, so a change of the default caps cannot change a workload.
"""

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from laxcat.collage import build_diagram, grothendieck
from laxcat.fincat import CatFunctor, product, standard_category
from laxcat.jsonio import category_to_json, diagram_to_json, profunctor_to_json
from laxcat.profunctor import build_profunctor, hom_profunctor
from laxcat.rand import rand_category, rand_diagram, rand_functor, rand_profunctor

import checks as ck

# listed rather than read from laxcat.cli, so that a new property changes
# no workload
CHECK_PROPERTIES = ("absoluteness", "bilimit-roundtrip", "cocontinuity",
                    "discrete-multiplication", "lax-multiplicativity",
                    "monoid-laws", "multiplicativity", "semiorthogonal")
# randomized checks draw their instances under these caps
RANDOM_CAPS = (4, 4)


@dataclass
class Op:
    """One CLI invocation: `laxcat <global options> *args`.

    expect is the exit code the CLI contract requires.  check(doc, outputs)
    validates the output document and raises CheckFailed; outputs maps
    each earlier operation of the pass to its output bytes.  fault names a
    known defect that makes the operation fail today."""
    name: str
    args: list
    caps: tuple = (1, 1)
    expect: int = 0
    check: Callable = None
    fault: str = ""


@dataclass
class Workspace:
    root: object
    ops: list = field(default_factory=list)

    def put(self, name, doc):
        (self.root / f"{name}.json").write_text(json.dumps(doc, sort_keys=True))
        return doc

    def out(self, op_name):
        return str(self.root / "out" / f"{op_name}.json")

    def op(self, name, args, inputs=(), **kw):
        kw.setdefault("caps", caps_of(*inputs))
        self.ops.append(Op(name, [str(a) for a in args], **kw))


def caps_of(*docs):
    """(objects, elements): the largest category and profunctor cell in
    the given input documents."""
    objects, elements = 1, 1
    stack = list(docs)
    while stack:
        d = stack.pop()
        if not isinstance(d, dict):
            continue
        if "composition" in d:
            objects = max(objects, len(d["objects"]))
            continue
        if "left_action" in d:
            elements = max([elements] + [len(v) for v in d["elements"].values()])
        stack.extend(d.values())
    return objects, elements


# -- inputs built with the benchmark's own code ---------------------------------------

def abelian_group(rng, order):
    """Z/a x Z/(order/a) as a one-object category, a drawn from the
    divisors of order, with element ids shuffled."""
    a = rng.choice([k for k in range(1, order + 1) if order % k == 0])
    b = order // a
    names = [f"m{i}" for i in range(order)]
    rng.shuffle(names)
    elem = {(i, j): names[i * b + j] for i in range(a) for j in range(b)}
    return {
        "objects": ["*"],
        "morphisms": [{"id": m, "src": "*", "dst": "*"} for m in names],
        "identities": {"*": elem[(0, 0)]},
        "composition": [[elem[(i, j)], elem[(k, l)], elem[((i + k) % a, (j + l) % b)]]
                        for (i, j) in elem for (k, l) in elem],
    }


def complex_doc(ranks, diffs):
    ranks = {n: r for n, r in ranks.items() if r}
    return {"window": [min(ranks), max(ranks)],
            "ranks": {str(n): r for n, r in sorted(ranks.items())},
            "differentials": {str(n): diffs[n] for n in sorted(diffs)
                              if ranks.get(n) and ranks.get(n - 1)}}


def known_complex(rng, lo, hi, cap, shears):
    """(complex doc, homology {n: (free, [orders])}): a sum of spheres and
    twisted disks Z --m--> Z filling each degree of [lo, hi] to between
    7/8 of `cap` and `cap`, then `shears` unimodular changes of basis, which keep the
    homology."""
    target = {n: cap - rng.randint(0, cap // 8) for n in range(lo, hi + 1)}
    ranks = {n: 0 for n in range(lo - 1, hi + 2)}
    pieces = []
    for n in range(hi, lo - 1, -1):
        while ranks[n] < target[n]:
            if n > lo and ranks[n - 1] < target[n - 1] and rng.random() < 0.75:
                pieces.append((n, rng.choice([1, 1, 1, 2, 2, 3, 4, 6])))
                ranks[n - 1] += 1
            else:
                pieces.append((n, 0))
            ranks[n] += 1
    diffs = {n: [[0] * ranks[n] for _ in range(ranks[n - 1])]
             for n in range(lo, hi + 2)}
    homology = {}
    pos = {n: 0 for n in ranks}
    for n, m in pieces:
        free, orders = homology.setdefault(n - 1 if m else n, (0, []))
        if m:
            diffs[n][pos[n - 1]][pos[n]] = m
            pos[n - 1] += 1
            if m > 1:
                orders.append(m)
        else:
            homology[n] = (free + 1, orders)
        pos[n] += 1
    wide = [k for k in range(lo, hi + 1) if ranks[k] >= 2]
    for _ in range(shears if wide else 0):
        n = rng.choice(wide)
        i, j = rng.sample(range(ranks[n]), 2)
        c = rng.choice((-1, 1))
        for row in diffs[n]:
            row[j] -= c * row[i]
        diffs[n + 1][i] = [x + c * y for x, y in zip(diffs[n + 1][i], diffs[n + 1][j])]
    return complex_doc(ranks, diffs), homology


def perturbed_identity(rng, A):
    """id + (dh + hd) for a sparse graded h of degree +1: a chain map
    homotopic to the identity, hence a quasi-isomorphism."""
    ranks = ck.ranks_of(A)
    h = {n: [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(r)]
             for _ in range(ranks.get(n + 1, 0))]
         for n, r in ranks.items()}
    mats = {}
    for n, r in ranks.items():
        m = [[int(i == j) for j in range(r)] for i in range(r)]
        terms = []
        if ranks.get(n + 1):
            terms.append(ck.matmul(ck.diff_of(A, n + 1), h[n], r))
        if ranks.get(n - 1):
            terms.append(ck.matmul(h[n - 1], ck.diff_of(A, n), r))
        for t in terms:
            m = [[x + y for x, y in zip(row, trow)] for row, trow in zip(m, t)]
        mats[str(n)] = m
    return {"source": A, "target": A, "matrices": mats}


def scaling_is_quasi_iso(homology, k):
    """Multiplication by k is invertible on sum Z^free + Z/q exactly when
    there is no free part and k is prime to every q."""
    return all(free == 0 and all(math.gcd(q, k) == 1 for q in orders)
               for free, orders in homology.values())


def scaled_identity(A, k):
    return {"source": A, "target": A,
            "matrices": {str(n): [[k * int(i == j) for j in range(r)]
                                  for i in range(r)]
                         for n, r in ck.ranks_of(A).items()}}


def random_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


# -- shared operation builders -------------------------------------------------------

def _recount(N, M):
    return ck.coend_counts(ck.Prof(N), ck.Prof(M))


def _compose(ws, name, outer, inner, N, M, hom=False):
    """compose outer inner, checked against the benchmark's own recount;
    with hom=True the inputs are hom(C) twice and the composite must have
    the cell counts of hom(C)."""
    def check(doc, outs):
        counts = _recount(N, M)
        if hom:
            ck.need(counts == ck.hom_counts(ck.Cat(N["source"])),
                    f"{name}: the recount differs from the hom counts")
        ck.check_profunctor_counts(doc, counts, name)
    ws.op(name, ["compose", outer, inner], [N, M], check=check)


def _blockmul(ws, name, outer, inner, middle, N, M, X, compose_op):
    def check(doc, outs):
        ck.check_profunctor_counts(doc, _recount(N, M), name)
        ck.need(outs[name] == outs[compose_op],
                f"{name}: blockwise output differs from {compose_op}")
    ws.op(name, ["blockmul", outer, inner, "--middle", middle], [N, M, X],
          check=check)


def _collage(ws, name, ref, P):
    ws.op(name, ["collage", ref], [P],
          check=lambda doc, outs: ck.check_collage(doc, ck.Prof(P)))


def _grothendieck(ws, name, ref, X):
    ws.op(name, ["grothendieck", ref], [X],
          check=lambda doc, outs: ck.check_grothendieck(doc, X))


def _check_refs(ws, name, prop, refs, docs):
    ws.op(name, ["check", prop, *refs], docs,
          check=lambda doc, outs: ck.check_verdict(doc, prop, 1))


def _check_random(ws, name, prop, count, seed):
    ws.op(name, ["check", prop, "--randomized", "--count", count, "--seed", seed],
          caps=RANDOM_CAPS,
          check=lambda doc, outs: ck.check_verdict(doc, prop, count))


def _snf(ws, name, ref, matrix):
    ws.op(name, ["snf", ref], check=lambda doc, outs: ck.check_snf(doc, matrix))


def _homology(ws, name, ref, want):
    ws.op(name, ["homology", ref],
          check=lambda doc, outs: ck.check_equal(doc, want, name))


def _quasi_iso(ws, name, ref, verdict):
    want = {"quasi_iso": verdict, "cone_acyclic": verdict}
    ws.op(name, ["quasi-iso", ref],
          check=lambda doc, outs: ck.check_equal(doc, want, name))


def _cone(ws, name, ref, f):
    ws.op(name, ["cone", ref],
          check=lambda doc, outs: ck.check_cone(doc, f["source"], f["target"]))


def _tot(ws, name, ref, tower, cone_op=None):
    def check(doc, outs):
        ck.check_tot(doc, tower["complexes"])
        if cone_op is not None:
            # a two-term tower's total complex is the cone shifted by -1
            cone = json.loads(outs[cone_op])["complex"]
            ck.check_equal(doc, ck.shifted_down(cone), f"{name} against {cone_op}")
    ws.op(name, ["tot", ref], check=check)


def _probes(ws, rng, chain_layers=False, table_layers=False):
    """One tiny command per layer family the workload otherwise leaves
    idle, so that every per-layer span is measured on every workload."""
    if chain_layers:
        A, HA = known_complex(rng, 0, 1, 2, 2)
        ws.put("probe_map", scaled_identity(A, 2))
        _quasi_iso(ws, "probe_quasi_iso", "probe_map", scaling_is_quasi_iso(HA, 2))
        mat = random_matrix(rng, 3)
        ws.put("probe_mat", {"matrix": mat})
        _snf(ws, "probe_snf", "probe_mat", mat)
    if table_layers:
        X, N, M = small_diagram_pair(rng)
        ws.put("probe_x", X)
        ws.put("probe_n", N)
        ws.put("probe_m", M)
        _compose(ws, "probe_compose", "probe_n", "probe_m", N, M)
        _blockmul(ws, "probe_blockmul", "probe_n", "probe_m", "probe_x", N, M, X,
                  "probe_compose")
        for prop in ("semiorthogonal", "cocontinuity", "lax-multiplicativity",
                     "absoluteness"):
            _check_random(ws, f"probe_{prop}", prop, 1, rng.randrange(10 ** 6))


def small_diagram_pair(rng):
    """A random interval-shaped diagram with small fibers and a pair of
    random profunctors meeting over its total category."""
    X = rand_diagram(rng, shape_kind="interval", max_fiber_objects=2)
    G = grothendieck(X)
    two = standard_category("discrete", 2)
    N = rand_profunctor(rng, G.total, two, 4)
    M = rand_profunctor(rng, two, G.total, 4)
    return diagram_to_json(X), profunctor_to_json(N), profunctor_to_json(M)


# -- tables ------------------------------------------------------------------------

HOM_LADDER = ((3, 3), (4, 4), (5, 4))
COMPOSE_RUNGS = ((3, 3), (4, 4))
SEMIORTHOGONAL_RUNGS = ((3, 3),)
MONOID_LADDER = (12, 24, 36)


def _product_fiber_diagram(rng):
    """Interval-shaped diagram with fibers S x Q and S' x Q, the
    transition F x id for a random functor F: S -> S'."""
    Q = standard_category("simplex", 2)
    S0, S1 = rand_category(rng, 4), rand_category(rng, 4)
    F = rand_functor(rng, S0, S1)
    F0, F1 = product(S0, Q), product(S1, Q)
    T = CatFunctor(F0, F1,
                   {f"({x},{y})": f"({F.obmap[x]},{y})"
                    for x in S0.objects for y in Q.objects},
                   {f"({f},{g})": f"({F.mormap[f]},{g})"
                    for f in S0.morphisms for g in Q.morphisms})
    return build_diagram(standard_category("interval"), {"0": F0, "1": F1},
                         {"u": T})


def tables(seed, ws):
    rng = random.Random(seed)
    for a, b in HOM_LADDER:
        ref = f"hom_{a}x{b}"
        square = product(standard_category("simplex", a),
                         standard_category("simplex", b))
        H = ws.put(ref, profunctor_to_json(hom_profunctor(square)))
        if (a, b) in COMPOSE_RUNGS:
            _compose(ws, f"compose_{ref}", ref, ref, H, H, hom=True)
        _collage(ws, f"collage_{ref}", ref, H)
        if (a, b) in SEMIORTHOGONAL_RUNGS:
            _check_refs(ws, f"semiorthogonal_{ref}", "semiorthogonal", [ref], [H])
    for order in MONOID_LADDER:
        G = ws.put(f"group_{order}", abelian_group(rng, order))
        _check_refs(ws, f"monoid_laws_{order}", "monoid-laws", [f"group_{order}"], [G])

    X = _product_fiber_diagram(rng)
    total = grothendieck(X).total
    E, C = rand_category(rng, 4), rand_category(rng, 4)
    Xd = ws.put("prod_diagram", diagram_to_json(X))
    N = ws.put("rand_n", profunctor_to_json(rand_profunctor(rng, total, E, 4)))
    M = ws.put("rand_m", profunctor_to_json(rand_profunctor(rng, C, total, 4)))
    pad = ws.put("pad", category_to_json(standard_category("interval")))
    _grothendieck(ws, "grothendieck_prod", "prod_diagram", Xd)
    _compose(ws, "compose_rand", "rand_n", "rand_m", N, M)
    _blockmul(ws, "blockmul_rand", "rand_n", "rand_m", "prod_diagram",
              N, M, Xd, "compose_rand")
    _check_refs(ws, "lax_multiplicativity_rand", "lax-multiplicativity",
                ["rand_n", "rand_m"], [N, M])
    _check_refs(ws, "absoluteness_prod", "absoluteness", ["prod_diagram", "pad"],
                [Xd, pad])
    _probes(ws, rng, chain_layers=True)
    return ws.ops


# -- chains ------------------------------------------------------------------------

SNF_LADDER = (16, 32, 48, 56)
SHEARS_PER_RANK = 2


def _sheared(rng, lo, hi, cap):
    return known_complex(rng, lo, hi, cap, SHEARS_PER_RANK * cap * (hi - lo + 1))


def _hom_complex_pair(ws, name, A, B, HA, HB):
    ws.put(f"{name}_a", A)
    ws.put(f"{name}_b", B)
    ws.op(name, ["hom-complex", f"{name}_a", f"{name}_b"],
          check=lambda doc, outs: ck.check_hom_ranks(doc, A, B))
    ws.op(f"homology_{name}", ["homology", ws.out(name)],
          check=lambda doc, outs: ck.check_equal(
              doc, ck.hom_homology(HA, HB), f"homology_{name}"))


def chains(seed, ws):
    rng = random.Random(seed)
    for n in SNF_LADDER:
        mat = random_matrix(rng, n)
        ws.put(f"mat_{n}", {"matrix": mat})
        _snf(ws, f"snf_{n}", f"mat_{n}", mat)
    for name, (lo, hi, cap) in {"wide": (0, 3, 32), "long": (-3, 3, 20)}.items():
        C, H = _sheared(rng, lo, hi, cap)
        ws.put(name, C)
        _homology(ws, f"homology_{name}", name, ck.homology_doc(H))

    A, HA = _sheared(rng, 0, 3, 16)
    f = ws.put("f", perturbed_identity(rng, A))
    B, HB = _sheared(rng, 0, 3, 12)
    while not any(free for free, _ in HB.values()):
        B, HB = _sheared(rng, 0, 3, 12)
    ws.put("doubling", scaled_identity(B, 2))
    _quasi_iso(ws, "quasi_iso_f", "f", True)
    _quasi_iso(ws, "quasi_iso_doubling", "doubling", False)
    _cone(ws, "cone_f", "f", f)
    tower = ws.put("tower_f", {"complexes": [A, A],
                               "maps": [{"matrices": f["matrices"]}]})
    _tot(ws, "tot_f", "tower_f", tower, "cone_f")
    _homology(ws, "homology_tot_f", ws.out("tot_f"), {})

    S, HS = _sheared(rng, 0, 2, 3)
    T, HT = _sheared(rng, -1, 1, 3)
    _hom_complex_pair(ws, "hom_st", S, T, HS, HT)
    # hand example fixing the degree convention: Hom(Z --2--> Z, Z) has
    # d = [2] from degree 0 to -1, so Ext(Z/2, Z) = Z/2 sits in degree -1
    ws.put("hand_a", complex_doc({0: 1, 1: 1}, {1: [[2]]}))
    ws.put("hand_b", complex_doc({0: 1}, {}))
    want = {"-1": {"free": 0, "torsion": [2]}}

    def check_hand(doc, outs):
        ck.check_equal(doc, want, "homology_hom_hand")
        ck.check_equal(ck.hom_homology({0: (0, [2])}, {0: (1, [])}), want,
                       "the Hom formula on the hand example")
    ws.op("hom_hand", ["hom-complex", "hand_a", "hand_b"],
          check=lambda doc, outs: ck.check_equal(
              doc, complex_doc({-1: 1, 0: 1}, {0: [[2]]}), "hom_hand"))
    ws.op("homology_hom_hand", ["homology", ws.out("hom_hand")], check=check_hand)
    _probes(ws, rng, table_layers=True)
    return ws.ops


# -- many_small ------------------------------------------------------------------------

def _criterion_pair():
    """The README's non-discrete example: composite 1 element, count
    product 2."""
    I = standard_category("interval")
    pt = standard_category("discrete", 1)
    M = build_profunctor(pt, I, {("0", "0"): ["m0"], ("1", "0"): ["m1"]},
                         {"u": {"m0": "m1"}}, {})
    N = build_profunctor(I, pt, {("0", "0"): ["n0"], ("0", "1"): ["n1"]},
                         {}, {"u": {"n1": "n0"}})
    return profunctor_to_json(N), profunctor_to_json(M)


def _collision_pair():
    """Discrete one-object profunctors whose element ids contain the
    separator of derived composite names."""
    pt = standard_category("discrete", 1)
    N = build_profunctor(pt, pt, {("0", "0"): ["a*b", "a"]}, {}, {})
    M = build_profunctor(pt, pt, {("0", "0"): ["c", "b*c"]}, {}, {})
    return profunctor_to_json(N), profunctor_to_json(M)


def many_small(seed, ws):
    rng = random.Random(seed)
    N, M = _criterion_pair()
    ws.put("n", N)
    ws.put("m", M)
    _compose(ws, "compose_nm", "n", "m", N, M)
    ws.op("multiplicativity_nm", ["check", "multiplicativity", "n", "m"], [N, M],
          expect=1, check=lambda doc, outs: ck.check_counts_differ(
              doc, ck.Prof(N), ck.Prof(M)))
    _check_refs(ws, "lax_multiplicativity_nm", "lax-multiplicativity",
                ["n", "m"], [N, M])
    _collage(ws, "collage_m", "m", M)

    X, BN, BM = small_diagram_pair(rng)
    ws.put("x", X)
    ws.put("bn", BN)
    ws.put("bm", BM)
    _grothendieck(ws, "grothendieck_x", "x", X)
    _compose(ws, "compose_b", "bn", "bm", BN, BM)
    _blockmul(ws, "blockmul_b", "bn", "bm", "x", BN, BM, X, "compose_b")

    A, HA = known_complex(rng, 0, 2, 2, 4)
    f = ws.put("f", perturbed_identity(rng, A))
    _cone(ws, "cone_f", "f", f)
    tower = ws.put("tower", {"complexes": [A, A], "maps": [{"matrices": f["matrices"]}]})
    _tot(ws, "tot_f", "tower", tower, "cone_f")
    _quasi_iso(ws, "quasi_iso_f", "f", True)
    C, HC = known_complex(rng, -1, 1, 3, 6)
    ws.put("c", C)
    _homology(ws, "homology_c", "c", ck.homology_doc(HC))
    S, HS = known_complex(rng, 0, 1, 2, 2)
    T, HT = known_complex(rng, 0, 1, 2, 2)
    _hom_complex_pair(ws, "hom_st", S, T, HS, HT)
    mat = random_matrix(rng, 3)
    ws.put("mat", {"matrix": mat})
    _snf(ws, "snf_mat", "mat", mat)
    for prop in CHECK_PROPERTIES:
        _check_random(ws, f"random_{prop}", prop, 2, rng.randrange(10 ** 6))

    CN, CM = _collision_pair()
    ws.put("collide_n", CN)
    ws.put("collide_m", CM)
    ws.op("compose_collision", ["compose", "collide_n", "collide_m"], [CN, CM],
          check=lambda doc, outs: ck.check_profunctor_counts(
              doc, {("0", "0"): 4}, "compose_collision"),
          fault="derived composite ids collide: exits 2 with 'duplicate "
                "element id' instead of returning 4 elements")
    ws.put("off_support", {"window": [-1, 0], "ranks": {"0": 1},
                           "differentials": {"0": [[1]]}})
    ws.op("homology_off_support", ["homology", "off_support"], expect=2,
          fault="a differential off the support escapes as a raw IndexError "
                "traceback with exit 1 instead of exit 2")
    return ws.ops


WORKLOADS = {"tables": tables, "chains": chains, "many_small": many_small}
