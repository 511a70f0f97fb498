"""Decategorification: collapse set-level data to integer count matrices.

A profunctor P from C to D flattens to the matrix of cell cardinalities,
rows indexed by objects of D and columns by objects of C.  Over discrete
categories the coend composite has no relations to impose, so the count
matrix of a composite equals the matrix product; over categories with
nontrivial morphisms the gluing can only shrink cells, and the helpers
here make both halves of that comparison available.

The profunctor layer is imported where it is called, so loading this
module (as the command line does) loads no category code.
"""

from __future__ import annotations

from .errors import CompositionMismatch, ShapeMismatch
from .report import Record, Report
from .unionfind import UnionFind


class CardMatrix(Record):
    """Integer matrix with named rows (target objects) and columns (source
    objects).  data is given as any nested sequence of int rows (a list of
    lists, a laxcat.intmat.Matrix) and stored as a tuple of int tuples."""
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    data: tuple[tuple[int, ...], ...]

    def __init__(self, rows, cols, data):
        super().__init__(rows, cols,
                         tuple(tuple(int(v) for v in row) for row in data))

    def entry(self, row: str, col: str) -> int:
        return self.data[self.rows.index(row)][self.cols.index(col)]

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return f"CardMatrix([{body}])"


def _cell_components(P: Profunctor, d: str, c: str) -> int:
    """Number of orbits of the cell under all non-identity endo actions:
    the target's endomorphisms of d act on the left of P, the source's
    endomorphisms of c on the left of its opposite."""
    from .profunctor import opposite_profunctor
    elems = P.elems(d, c)
    if not elems:
        return 0
    uf = UnionFind(elems)
    for Q, x in ((P, d), (opposite_profunctor(P), c)):
        for gamma in Q.target.hom(x, x):
            if not Q.target.is_identity(gamma):
                for e in elems:
                    uf.union(e, Q.lact[gamma][e])
    return len(uf.classes())


def cardinality_matrix(P: Profunctor, mode: str = "raw") -> CardMatrix:
    """Count matrix of a profunctor.

    mode="raw" counts elements per cell; mode="pi0" counts orbits under the
    endomorphism actions, which is the honest count when endomorphisms act
    nontrivially.
    """
    if mode not in ("raw", "pi0"):
        raise ShapeMismatch(f"unknown cardinality mode {mode!r}")
    rows = tuple(P.target.objects)
    cols = tuple(P.source.objects)
    if mode == "raw":
        data = [[len(P.elems(d, c)) for c in cols] for d in rows]
    else:
        data = [[_cell_components(P, d, c) for c in cols] for d in rows]
    return CardMatrix(rows, cols, data)


def multiply_cards(N: CardMatrix, M: CardMatrix) -> CardMatrix:
    """Plain integer matrix product, with the middle index checked."""
    if N.cols != M.rows:
        raise ShapeMismatch("middle object lists do not match")
    columns = [[row[j] for row in M.data] for j in range(len(M.cols))]
    return CardMatrix(N.rows, M.cols,
                      [[sum(a * b for a, b in zip(row, col)) for col in columns]
                       for row in N.data])


def is_discrete(C: FinCategory) -> bool:
    return all(C.is_identity(f) for f in C.morphisms)


def composite_vs_product(N: Profunctor, M: Profunctor,
                         mode: str = "raw") -> tuple[CardMatrix, CardMatrix]:
    """(counts of the coend composite, matrix product of the counts)."""
    from .profunctor import compose_profunctors
    if M.target != N.source:
        raise CompositionMismatch("middle categories do not match")
    composite = compose_profunctors(N, M)
    return (cardinality_matrix(composite, mode),
            multiply_cards(cardinality_matrix(N, mode),
                           cardinality_matrix(M, mode)))


def check_discrete_multiplication(N: Profunctor, M: Profunctor) -> Report:
    """Over discrete categories counting is multiplicative on the nose."""
    rep = Report()
    for cat, label in ((M.source, "source"), (M.target, "middle"),
                       (N.target, "target")):
        if not is_discrete(cat):
            rep.fail(f"{label} category is not discrete")
    if not rep.ok:
        return rep
    got, want = composite_vs_product(N, M, "raw")
    if got != want:
        rep.fail(f"counts differ: composite {got!r}, product {want!r}")
    return rep


def check_multiplicativity(N: Profunctor, M: Profunctor,
                           mode: str = "raw") -> Report:
    """Compare composite counts against the matrix product; this is allowed
    to fail outside the discrete case and the failure text shows both sides."""
    rep = Report()
    got, want = composite_vs_product(N, M, mode)
    if got != want:
        rep.fail(f"counts differ: composite {got!r}, product {want!r}")
    return rep


def check_lax_multiplicativity(N: Profunctor, M: Profunctor) -> Report:
    """The composite count never exceeds the matrix product entrywise:
    gluing only identifies generators, it cannot create new ones."""
    rep = Report()
    got, want = composite_vs_product(N, M, "raw")
    for i, d in enumerate(got.rows):
        for j, c in enumerate(got.cols):
            if got.data[i][j] > want.data[i][j]:
                rep.fail(f"cell ({d}, {c}): composite {got.data[i][j]} "
                         f"exceeds product {want.data[i][j]}")
    return rep


def collage_rank_count(G) -> dict[tuple[str, str], int]:
    """Hom counts of a collage total category, folded into shape blocks.

    Key (t, s) counts all morphisms from a fiber-over-s object to a
    fiber-over-t object; for the collage of a profunctor the off-diagonal
    block is exactly the total element count.
    """
    counts: dict[tuple[str, str], int] = {}
    for t in G.shape.objects:
        for s in G.shape.objects:
            total = 0
            for x in G.fiber[s].objects:
                for y in G.fiber[t].objects:
                    total += len(G.total.hom(G.injections[s].obmap[x],
                                             G.injections[t].obmap[y]))
            counts[(t, s)] = total
    return counts
