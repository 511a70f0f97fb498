"""Output checks that share no code with laxcat.

Every check reads the JSON documents the benchmark wrote as inputs and the
JSON the program wrote as output, and either recomputes the answer with
its own code (union-find recounts, exact integer matrix arithmetic, the
universal coefficient formula) or tests a property the method must have.
None of them compares against a saved copy of an earlier output.  A check
raises CheckFailed with a one-line reason.
"""

import math
import re


class CheckFailed(Exception):
    pass


def need(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- categories and profunctors, read from their JSON ----------------------------

class Cat:
    def __init__(self, doc):
        self.objects = list(doc["objects"])
        self.src = {m["id"]: m["src"] for m in doc["morphisms"]}
        self.dst = {m["id"]: m["dst"] for m in doc["morphisms"]}
        self.identity = dict(doc["identities"])
        ids = set(self.identity.values())
        self.moving = [m for m in self.src if m not in ids]
        self.homs = {}
        for m in self.src:
            key = (self.src[m], self.dst[m])
            self.homs[key] = self.homs.get(key, 0) + 1

    def hom(self, x, y):
        return self.homs.get((x, y), 0)


def _split_cell(key, targets, sources):
    inner = key[1:-1]
    found = [(d, inner[len(d) + 1:]) for d in targets
             if inner.startswith(d + ",") and inner[len(d) + 1:] in sources]
    need(len(found) == 1, f"cell key {key!r} does not split uniquely")
    return found[0]


class Prof:
    """A profunctor from `source` to `target`: cells[(d, c)] lists the
    elements over target object d and source object c."""

    def __init__(self, doc):
        self.source = Cat(doc["source"])
        self.target = Cat(doc["target"])
        sources = set(self.source.objects)
        self.cells = {(d, c): [] for d in self.target.objects
                      for c in self.source.objects}
        for key, es in doc["elements"].items():
            self.cells[_split_cell(key, self.target.objects, sources)] = list(es)
        self.lact = doc["left_action"]
        self.ract = doc["right_action"]

    def counts(self):
        return {cell: len(es) for cell, es in self.cells.items()}


# -- union-find recount of a coend composite ---------------------------------------

def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def coend_counts(N: Prof, M: Prof):
    """Cell sizes of the composite N after M: generators (d, n, m) with n in
    N(e, d) and m in M(d, c), glued along every non-identity middle arrow
    g: d -> d2 by (d, n2.g, m) ~ (d2, n2, g.m)."""
    D = M.target
    out = {}
    for e in N.target.objects:
        for c in M.source.objects:
            parent = {}
            for d in D.objects:
                for n in N.cells[(e, d)]:
                    for m in M.cells[(d, c)]:
                        parent[(d, n, m)] = (d, n, m)
            classes = len(parent)
            for g in D.moving:
                d, d2 = D.src[g], D.dst[g]
                for n2 in N.cells[(e, d2)]:
                    for m in M.cells[(d, c)]:
                        a = _find(parent, (d, N.ract[g][n2], m))
                        b = _find(parent, (d2, n2, M.lact[g][m]))
                        if a != b:
                            parent[a] = b
                            classes -= 1
            out[(e, c)] = classes
    return out


def check_profunctor_counts(doc, want, label):
    got = Prof(doc).counts()
    need(set(got) == set(want), f"{label}: the cells are not the expected ones")
    for cell, n in want.items():
        need(got[cell] == n, f"{label}: cell {cell} holds {got[cell]} elements, "
                             f"the recount gives {n}")


def hom_counts(C: Cat):
    """hom(C) as a profunctor: the cell (d, c) holds C(c, d)."""
    return {(d, c): C.hom(c, d) for d in C.objects for c in C.objects}


def product_counts(N: Prof, M: Prof):
    D = M.target
    return {(e, c): sum(len(N.cells[(e, d)]) * len(M.cells[(d, c)])
                        for d in D.objects)
            for e in N.target.objects for c in M.source.objects}


# -- glued categories --------------------------------------------------------------

def category_homs(doc):
    """(object -> parts, hom counts by (src, dst)) of an output category,
    after checking that the composition table covers each composable pair
    exactly once."""
    C = Cat(doc)
    pairs = sum(C.homs.get((x, y), 0) * C.homs.get((y, z), 0)
                for x in C.objects for y in C.objects for z in C.objects)
    need(len(doc["composition"]) == pairs,
         f"composition lists {len(doc['composition'])} entries for "
         f"{pairs} composable pairs")
    parts = {o: tuple(p) for o, p in doc["origin"]["object_parts"].items()}
    need(sorted(parts) == sorted(C.objects), "object_parts do not cover the objects")
    return parts, C


def check_collage(doc, P: Prof):
    """Hom counts C(c, c'), D(d, d'), P(d, c) on the three blocks and
    nothing from the target side back to the source side."""
    parts, T = category_homs(doc)
    A, B = P.source, P.target
    want_objects = {("0", a) for a in A.objects} | {("1", b) for b in B.objects}
    need(set(parts.values()) == want_objects and len(parts) == len(want_objects),
         "collage objects are not the two fibers")
    for x, (s, u) in parts.items():
        for y, (t, v) in parts.items():
            if s == "0" and t == "0":
                want = A.hom(u, v)
            elif s == "1" and t == "1":
                want = B.hom(u, v)
            elif s == "0":
                want = len(P.cells[(v, u)])
            else:
                want = 0
            need(T.hom(x, y) == want,
                 f"collage hom {x} -> {y} has {T.hom(x, y)} arrows, want {want}")


def check_grothendieck(doc, diagram):
    """Each hom count of the total category is the sum over shape arrows
    s: a -> b of |X_b(F_s x, y)|."""
    shape = Cat(diagram["shape"])
    fibers = {a: Cat(f) for a, f in diagram["fibers"].items()}
    obmaps = {g: {x: x for x in fibers[a].objects}
              for a, g in shape.identity.items()}
    obmaps.update((g, t["obmap"]) for g, t in diagram["transitions"].items())
    parts, T = category_homs(doc)
    want_objects = {(a, x) for a in shape.objects for x in fibers[a].objects}
    need(set(parts.values()) == want_objects and len(parts) == len(want_objects),
         "total objects are not the fiber objects")
    for p, (a, x) in parts.items():
        for q, (b, y) in parts.items():
            want = sum(fibers[b].hom(obmaps[g][x], y) for g in shape.src
                       if shape.src[g] == a and shape.dst[g] == b)
            need(T.hom(p, q) == want,
                 f"total hom {p} -> {q} has {T.hom(p, q)} arrows, want {want}")


# -- check reports ------------------------------------------------------------------

def check_verdict(doc, prop, trials):
    need(doc == {"property": prop, "trials": trials, "ok": True, "failures": []},
         f"check {prop}: expected a clean pass over {trials} trials, got "
         f"ok={doc.get('ok')} with {len(doc.get('failures', []))} failures")


_COUNTS = re.compile(r"composite CardMatrix\(\[(.*?)\]\), product CardMatrix\(\[(.*?)\]\)")


def _matrix_text(rows, cols, counts):
    return "; ".join(" ".join(str(counts[(r, c)]) for c in cols) for r in rows)


def check_counts_differ(doc, N: Prof, M: Prof):
    """`check multiplicativity` on a non-discrete pair: the report must fail
    with the recounted composite sizes against the count product."""
    need(doc["property"] == "multiplicativity" and doc["ok"] is False
         and len(doc["failures"]) == 1, "expected exactly one failure")
    found = _COUNTS.search(doc["failures"][0])
    need(found is not None, f"failure text lacks the counts: {doc['failures'][0]!r}")
    rows, cols = sorted(N.target.objects), sorted(M.source.objects)
    want = (_matrix_text(rows, cols, coend_counts(N, M)),
            _matrix_text(rows, cols, product_counts(N, M)))
    need(found.groups() == want, f"counts {found.groups()} != recount {want}")
    need(want[0] != want[1], "the recount says the counts agree")


# -- exact integer linear algebra -----------------------------------------------------

def matmul(a, b, cols):
    """a times b for matrices as lists of rows; b has `cols` columns, given
    so that a product over an empty middle dimension has the right shape."""
    bt = list(zip(*b)) if b else [()] * cols
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det(a):
    """Exact determinant by fraction-free elimination on Python ints."""
    m = [list(r) for r in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i, lead = m[i], m[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def check_snf(doc, matrix):
    """U.A.V = S recomputed, |det U| = |det V| = 1, S diagonal with a
    non-negative divisibility chain: together these fix S uniquely."""
    S, U, V = doc["S"], doc["U"], doc["V"]
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    need(len(U) == rows and len(V) == cols, "transform shapes do not fit the input")
    need(matmul(matmul(U, matrix, cols), V, cols) == S, "U.A.V != S")
    need(abs(det(U)) == 1, "U is not unimodular")
    need(abs(det(V)) == 1, "V is not unimodular")
    diag = [S[i][i] for i in range(min(rows, cols))]
    need(doc["diagonal"] == diag, "diagonal field differs from S")
    need(all(S[i][j] == 0 for i in range(rows) for j in range(cols) if i != j),
         "S has an off-diagonal entry")
    need(all(v >= 0 for v in diag), "S has a negative diagonal entry")
    for a, b in zip(diag, diag[1:]):
        need(b == 0 if a == 0 else b % a == 0,
             "diagonal is not a divisibility chain")


# -- chain complexes --------------------------------------------------------------------

def ranks_of(doc):
    return {int(n): r for n, r in doc["ranks"].items() if r}


def diff_of(doc, n):
    ranks = ranks_of(doc)
    rows, cols = ranks.get(n - 1, 0), ranks.get(n, 0)
    return doc["differentials"].get(str(n)) or [[0] * cols for _ in range(rows)]


def euler(ranks):
    return sum(r if n % 2 == 0 else -r for n, r in ranks.items())


def check_complex(doc, want_ranks, label):
    """Ranks as expected, differential shapes right, d.d = 0."""
    ranks = ranks_of(doc)
    want = {n: r for n, r in want_ranks.items() if r}
    need(ranks == want, f"{label}: ranks {ranks} != {want}")
    if ranks:
        need(doc["window"] == [min(ranks), max(ranks)], f"{label}: wrong window")
    for n in ranks:
        d = diff_of(doc, n)
        need(len(d) == ranks.get(n - 1, 0)
             and all(len(row) == ranks[n] for row in d),
             f"{label}: differential at {n} has the wrong shape")
        if ranks.get(n - 2, 0):
            square = matmul(diff_of(doc, n - 1), d, ranks[n])
            need(all(v == 0 for row in square for v in row),
                 f"{label}: d.d != 0 from degree {n}")


def check_cone(doc, A, B):
    """Cone_n = A_{n-1} + B_n, d.d = 0, chi(cone) = chi(B) - chi(A), and the
    inclusion and projection start and end where they should."""
    ra, rb = ranks_of(A), ranks_of(B)
    want = {n: ra.get(n - 1, 0) + rb.get(n, 0)
            for n in {k + 1 for k in ra} | set(rb)}
    check_complex(doc["complex"], want, "cone")
    need(euler(ranks_of(doc["complex"])) == euler(rb) - euler(ra),
         "cone: Euler characteristic is not additive")
    need(doc["inclusion"]["source"] == B
         and doc["inclusion"]["target"] == doc["complex"]
         and doc["projection"]["source"] == doc["complex"],
         "cone: inclusion or projection has the wrong endpoints")


def check_tot(doc, complexes):
    """Tot_n = sum_p (X_p)_{n+p}, d.d = 0, chi(Tot) = sum_p (-1)^p chi(X_p)."""
    rs = [ranks_of(X) for X in complexes]
    want = {}
    for p, r in enumerate(rs):
        for k, v in r.items():
            want[k - p] = want.get(k - p, 0) + v
    check_complex(doc, want, "tot")
    need(euler(ranks_of(doc)) == sum((-1) ** p * euler(r) for p, r in enumerate(rs)),
         "tot: Euler characteristic is not additive")


def shifted_down(doc):
    """The complex shifted by -1: degrees drop by one, the differential
    changes sign."""
    ranks = ranks_of(doc)
    lo, hi = doc["window"]
    return {"window": [lo - 1, hi - 1],
            "ranks": {str(n - 1): r for n, r in sorted(ranks.items())},
            "differentials": {str(int(n) - 1): [[-v for v in row] for row in m]
                              for n, m in doc["differentials"].items()}}


def check_hom_ranks(doc, A, B):
    """rank_n = sum_k a_k b_{k+n} and d.d = 0."""
    ra, rb = ranks_of(A), ranks_of(B)
    want = {}
    for k, a in ra.items():
        for j, b in rb.items():
            want[j - k] = want.get(j - k, 0) + a * b
    check_complex(doc, want, "hom-complex")


# -- homology by construction and by the universal coefficient formula ------------------

def invariant_factors(orders):
    """Invariant factors (each dividing the next, all > 1) of a direct sum
    of cyclic groups of the given orders."""
    powers = {}
    for q in orders:
        p = 2
        while q > 1:
            if q % p == 0:
                e = 0
                while q % p == 0:
                    q //= p
                    e += 1
                powers.setdefault(p, []).append(p ** e)
            p += 1
    for v in powers.values():
        v.sort(reverse=True)
    length = max((len(v) for v in powers.values()), default=0)
    out = []
    for i in range(length):
        out.append(math.prod(v[i] for v in powers.values() if i < len(v)))
    return sorted(out)


def homology_doc(groups):
    """{degree: (free, [cyclic orders])} -> the program's homology JSON."""
    out = {}
    for n in sorted(groups):
        free, orders = groups[n]
        torsion = invariant_factors(orders)
        if free or torsion:
            out[str(n)] = {"free": free, "torsion": torsion}
    return out


def hom_homology(HA, HB):
    """H_n Hom(A, B) = prod_k Hom(H_k A, H_{k+n} B) + Ext(H_k A, H_{k+n+1} B)
    for complexes of free abelian groups.  HA, HB map degree -> (free,
    [torsion orders])."""
    out = {}

    def add(n, free, orders):
        f, o = out.get(n, (0, []))
        out[n] = (f + free, o + orders)

    for k, (fa, ta) in HA.items():
        for j, (fb, tb) in HB.items():
            n = j - k
            # Hom(Z^fa + tors_a, Z^fb + tors_b)
            add(n, fa * fb, [q for q in tb for _ in range(fa)]
                + [math.gcd(p, q) for p in ta for q in tb])
            # Ext(H_k A, H_j B) sits in degree j - k - 1
            add(n - 1, 0, [p for p in ta for _ in range(fb)]
                + [math.gcd(p, q) for p in ta for q in tb])
    return homology_doc(out)


def check_equal(doc, want, label):
    need(doc == want, f"{label}: got {doc}, want {want}")
