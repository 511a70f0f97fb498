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

from .errors import LaxcatError
from .report import Record, Report


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


def cardinality_matrix(P: Profunctor) -> CardMatrix:
    """Count matrix of a profunctor: the number of elements per cell."""
    rows = tuple(P.target.objects)
    cols = tuple(P.source.objects)
    return CardMatrix(rows, cols,
                      [[len(P.elems(d, c)) for c in cols] for d in rows])


def multiply_cards(N: CardMatrix, M: CardMatrix) -> CardMatrix:
    """Plain integer matrix product, with the middle index checked."""
    if N.cols != M.rows:
        raise LaxcatError("middle object lists do not match")
    columns = [[row[j] for row in M.data] for j in range(len(M.cols))]
    return CardMatrix(N.rows, M.cols,
                      [[sum(a * b for a, b in zip(row, col)) for col in columns]
                       for row in N.data])


def is_discrete(C: FinCategory) -> bool:
    return all(C.is_identity(f) for f in C.morphisms)


def composite_vs_product(N: Profunctor,
                         M: Profunctor) -> tuple[CardMatrix, CardMatrix]:
    """(raw counts of the coend composite, matrix product of the counts)."""
    from .profunctor import compose_profunctors
    if M.target != N.source:
        raise LaxcatError("middle categories do not match")
    return (cardinality_matrix(compose_profunctors(N, M)),
            multiply_cards(cardinality_matrix(N), cardinality_matrix(M)))


def check_discrete_multiplication(N: Profunctor, M: Profunctor) -> Report:
    """Over discrete categories counting is multiplicative on the nose."""
    rep = Report()
    for cat, label in ((M.source, "source"), (M.target, "middle"),
                       (N.target, "target")):
        if not is_discrete(cat):
            rep.fail(f"{label} category is not discrete")
    if rep.ok:
        rep.merge(check_multiplicativity(N, M))
    return rep


def check_multiplicativity(N: Profunctor, M: Profunctor) -> Report:
    """Compare composite counts against the matrix product; this is allowed
    to fail outside the discrete case and the failure text shows both sides."""
    rep = Report()
    got, want = composite_vs_product(N, M)
    if got != want:
        rep.fail(f"counts differ: composite {got!r}, product {want!r}")
    return rep


def check_lax_multiplicativity(N: Profunctor, M: Profunctor) -> Report:
    """The composite count never exceeds the matrix product entrywise:
    gluing only identifies generators, it cannot create new ones."""
    rep = Report()
    got, want = composite_vs_product(N, M)
    for i, d in enumerate(got.rows):
        for j, c in enumerate(got.cols):
            if got.data[i][j] > want.data[i][j]:
                rep.fail(f"cell ({d}, {c}): composite {got.data[i][j]} "
                         f"exceeds product {want.data[i][j]}")
    return rep
