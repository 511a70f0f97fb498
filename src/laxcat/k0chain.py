"""Bounded chain complexes of finitely generated free abelian groups.

Homological indexing throughout: the differential lowers degree by one.
All matrices are laxcat.intmat.Matrix values holding Python ints, so
nothing ever overflows or rounds; vectors are columns and composition is
matrix product.

Conventions fixed here and relied on everywhere else:

  * cone(f: A -> B) is defined as shift(tot([A, B], [f]), 1): Cone_n =
    A_{n-1} (+) B_n with differential [[-d_A, 0], [-f, d_B]].
  * a graded map g: A -> B of degree k (g_n: A_n -> B_{n+k}) has the
    boundary D g = d_B g - (-1)^k g d_A, and D D = 0 (Weibel, An
    Introduction to Homological Algebra, 2.7).  Chain maps are the degree-0
    maps with D f = df - fd = 0; a homotopy from f to g is a degree-1 map
    with D H = dH + Hd = g - f (not its negative).
  * hom_complex(A, B) is the complex of graded maps with differential
    sigma D sigma, where sigma sends g_k to (-1)^k g_k: on degree n,
    d_B g + (-1)^n g d_A.  Through sigma, chain maps are the degree-0
    cycles.
  * tot places X_p in horizontal degree -p with vertical sign (-1)^p.
  * Smith normal form returns U d V = S with |det U| = |det V| = 1,
    nonnegative diagonal, and each entry dividing the next.
"""

import math

from .errors import LaxcatError
from .intmat import (Matrix, as_matrix, block_matrix, eye, hstack,
                     is_zero_matrix, zeros)
from .report import Record, Report


def det_exact(a: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise LaxcatError("determinant needs a square matrix")
    if n == 0:
        return 1
    m = a.tolist()
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# -- chain complexes ----------------------------------------------------------

class ChainComplex(Record):
    """ranks[n] > 0 for the supported degrees; diff(n): C_n -> C_{n-1}.

    Stored data is normalized (no zero ranks, differentials exactly where
    both endpoint ranks are positive), so == is meaningful equality.
    """
    ranks: dict[int, int]
    diffs: dict[int, Matrix]

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def diff(self, n: int) -> Matrix:
        if n in self.diffs:
            return self.diffs[n]
        return zeros(self.rank(n - 1), self.rank(n))

    @property
    def window(self):
        if not self.ranks:
            return None
        return min(self.ranks), max(self.ranks)

    def degrees(self):
        if not self.ranks:
            return range(0)
        lo, hi = self.window
        return range(lo, hi + 1)

    def __repr__(self):
        if not self.ranks:
            return "ChainComplex(0)"
        lo, hi = self.window
        return ("ChainComplex(" +
                " -> ".join(f"Z^{self.rank(n)}" for n in range(hi, lo - 1, -1))
                + f" in degrees [{lo},{hi}])")


def _components(matrices: dict[int, object], shape) -> dict[int, Matrix]:
    """matrices[n] checked to be shape(n) = (rows, cols); empty ones dropped."""
    checked = {n: as_matrix(m, *shape(n)) for n, m in matrices.items()}
    return {n: m for n, m in checked.items() if all(m.shape)}


def build_complex(ranks: dict[int, int], diffs: dict[int, object]) -> ChainComplex:
    """Validate ranks, shapes, and d.d = 0; normalize the stored data."""
    clean_ranks = {}
    for n, r in ranks.items():
        if not isinstance(n, int) or not isinstance(r, int) or r < 0:
            raise LaxcatError(f"bad rank entry {n!r}: {r!r}")
        if r > 0:
            clean_ranks[n] = r
    clean_diffs = _components(
        diffs, lambda n: (clean_ranks.get(n - 1, 0), clean_ranks.get(n, 0)))
    for n in clean_ranks:
        if clean_ranks.get(n - 1, 0) and n not in clean_diffs:
            clean_diffs[n] = zeros(clean_ranks[n - 1], clean_ranks[n])
    for n, d in clean_diffs.items():
        if n - 1 in clean_diffs and not is_zero_matrix(clean_diffs[n - 1] @ d):
            raise LaxcatError(f"d.d != 0 from degree {n}")
    return ChainComplex(clean_ranks, clean_diffs)


def shift(C: ChainComplex, k: int) -> ChainComplex:
    """Degree translation by k; the differential picks up the sign (-1)^k."""
    sign = -1 if k % 2 else 1
    return ChainComplex({n + k: r for n, r in C.ranks.items()},
                        {n + k: sign * C.diffs[n] for n in C.diffs})


def direct_sum(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    """A (+) B, as the total complex of the zero map A -> B[1]: tot gives
    B[1] the vertical sign -1, which undoes the sign of the shift."""
    B1 = shift(B, 1)
    return tot([A, B1], [zero_chain_map(A, B1)])


def euler_char(C: ChainComplex) -> int:
    return sum((-1) ** (n % 2) * r for n, r in C.ranks.items())


# -- graded maps: chain maps and homotopies ----------------------------------------

class GradedMap:
    """Degreewise matrices g_n: A_n -> B_{n+degree}; a missing component is
    zero.  Chain maps are the degree-0 cycles of D and null homotopies the
    degree-1 maps H with D H the map they contract."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 degree: int, matrices: dict[int, Matrix]):
        self.source = source
        self.target = target
        self.degree = degree
        self.matrices = dict(matrices)

    def mat(self, n: int) -> Matrix:
        if n in self.matrices:
            return self.matrices[n]
        return zeros(self.target.rank(n + self.degree), self.source.rank(n))

    def boundary(self, n: int) -> Matrix:
        """(D g)_n = d_B g_n - (-1)^degree g_{n-1} d_A: A_n -> B_{n+degree-1},
        summed over the terms whose two factors are present."""
        g, k = self.matrices, n + self.degree
        dB, dA = self.target.diffs, self.source.diffs
        terms = [dB[k] @ g[n]] if n in g and k in dB else []
        if n - 1 in g and n in dA:
            right = g[n - 1] @ dA[n]
            terms.append(right if self.degree % 2 else -right)
        return (sum(terms[1:], terms[0]) if terms
                else zeros(self.target.rank(k - 1), self.source.rank(n)))

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.degree == other.degree
                and all(self.mat(n) == other.mat(n)
                        for n in set(self.matrices) | set(other.matrices)))

    def __repr__(self):
        return (f"{type(self).__name__}({self.source!r} -> {self.target!r}, "
                f"degree {self.degree})")


class ChainMap(GradedMap):
    """A graded map of degree 0 with D f = 0: f commutes with d."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 matrices: dict[int, Matrix]):
        super().__init__(source, target, 0, matrices)


def _graded_map(A: ChainComplex, B: ChainComplex, degree: int,
                matrices: dict[int, object]) -> GradedMap:
    return GradedMap(A, B, degree, _components(
        matrices, lambda n: (B.rank(n + degree), A.rank(n))))


def build_chain_map(source: ChainComplex, target: ChainComplex,
                    matrices: dict[int, object]) -> ChainMap:
    """Validate shapes and D f = 0.  Components on the common support are
    stored, zero where not given; elsewhere only a zero component, of any
    shape, is accepted."""
    clean = {}
    for n in set(source.ranks) & set(target.ranks):
        rows, cols = target.rank(n), source.rank(n)
        clean[n] = as_matrix(matrices.get(n, zeros(rows, cols)), rows, cols)
    for n, m in matrices.items():
        if n not in clean and not is_zero_matrix(as_matrix(m)):
            raise LaxcatError(f"component at {n} off the support")
    f = ChainMap(source, target, clean)
    for n in set(source.ranks) | set(target.ranks):
        if not is_zero_matrix(f.boundary(n)):
            raise LaxcatError(f"not a chain map: square at degree {n}")
    return f


def zero_chain_map(A: ChainComplex, B: ChainComplex) -> ChainMap:
    return ChainMap(A, B, {})


def identity_chain_map(A: ChainComplex) -> ChainMap:
    return ChainMap(A, A, {n: eye(r) for n, r in A.ranks.items()})


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    if f.target != g.source:
        raise LaxcatError("chain map composition endpoints do not match")
    return ChainMap(f.source, g.target, {
        n: g.matrices[n] @ f.matrices[n]
        if n in g.matrices and n in f.matrices
        else zeros(g.target.rank(n), f.source.rank(n))
        for n in set(f.source.ranks) & set(g.target.ranks)})


def add_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    if f.source != g.source or f.target != g.target:
        raise LaxcatError("chain map sum endpoints do not match")
    both = {n: f.matrices[n] + m for n, m in g.matrices.items() if n in f.matrices}
    return ChainMap(f.source, f.target, {**f.matrices, **g.matrices, **both})


def graded_map_image(A: ChainComplex, B: ChainComplex,
                     h: dict[int, object]) -> ChainMap:
    """The chain map D h = d_B h + h d_A of a degree +1 graded map h.

    Any graded h works; D h is a cycle because D.D = 0, which makes this
    the workhorse for producing chain maps in bulk.
    """
    hm = _graded_map(A, B, 1, h)
    return build_chain_map(A, B, {n: hm.boundary(n)
                                  for n in set(A.ranks) & set(B.ranks)})


def build_homotopy(source_map: ChainMap, target_map: ChainMap,
                   matrices: dict[int, object]) -> GradedMap:
    """H_n: A_n -> B_{n+1} with D H = dH + Hd = target_map - source_map."""
    if (source_map.source != target_map.source
            or source_map.target != target_map.target):
        raise LaxcatError("homotopy endpoints do not match")
    A, B = source_map.source, source_map.target
    H = _graded_map(A, B, 1, matrices)
    for n in set(A.ranks) | set(B.ranks):
        if H.boundary(n) != target_map.mat(n) - source_map.mat(n):
            raise LaxcatError(f"dH + Hd misses the difference at degree {n}")
    return H


# -- cone ----------------------------------------------------------------------

class MappingCone(Record):
    complex: ChainComplex
    inclusion: ChainMap
    projection: ChainMap


def cone_complex(f: ChainMap) -> ChainComplex:
    """Cone(f) = shift(tot([A, B], [f]), 1): Cone(f)_n = A_{n-1} (+) B_n
    with differential [[-d_A, 0], [-f, d_B]]."""
    return shift(tot([f.source, f.target], [f]), 1)


def cone(f: ChainMap) -> MappingCone:
    """The cone complex with its canonical chain maps inclusion:
    B -> Cone(f) and projection: Cone(f) -> shift(A, 1).  The un-negated f
    block would break d.d = 0; the signs are what the alternating block
    calculus expects.
    """
    A, B = f.source, f.target
    cx = cone_complex(f)
    incl = build_chain_map(B, cx, {
        n: block_matrix({"A": A.rank(n - 1), "B": B.rank(n)}, {"B": B.rank(n)},
                        {("B", "B"): eye(B.rank(n))})
        for n in B.ranks if cx.rank(n)})
    proj = build_chain_map(cx, shift(A, 1), {
        n: hstack([eye(A.rank(n - 1)), zeros(A.rank(n - 1), B.rank(n))])
        for n in cx.ranks if A.rank(n - 1)})
    return MappingCone(cx, incl, proj)


def cone_to_data(f: ChainMap, phi: ChainMap):
    """Split a chain map off the cone into (g, H).

    g = phi restricted to the B summand; H_n = -phi_{n+1} on the A summand,
    a null homotopy of g.f oriented dH + Hd = g.f.
    """
    A, B = f.source, f.target
    cx = cone_complex(f)
    if phi.source != cx:
        raise LaxcatError("map does not start at the cone")
    C = phi.target
    g = build_chain_map(B, C, {
        n: phi.mat(n)[:, A.rank(n - 1):] for n in B.ranks if C.rank(n)})
    gf = compose_chain_maps(g, f)
    H = build_homotopy(zero_chain_map(A, C), gf, {
        n: -phi.mat(n + 1)[:, :A.rank(n)] for n in A.ranks if C.rank(n + 1)})
    return g, H


def cone_from_data(f: ChainMap, g: ChainMap, H: GradedMap) -> ChainMap:
    """Inverse of cone_to_data; validates the null homotopy orientation,
    D H = g.f."""
    A, B = f.source, f.target
    if g.source != B:
        raise LaxcatError("g must start at the target of f")
    C = g.target
    gf = compose_chain_maps(g, f)
    if (H.source != A or H.target != C or H.degree != 1
            or any(H.boundary(n) != gf.mat(n)
                   for n in set(A.ranks) | set(C.ranks))):
        raise LaxcatError("H must run from the zero map to g.f")
    cx = cone_complex(f)
    return build_chain_map(cx, C, {
        n: hstack([-H.mat(n - 1), g.mat(n)]) for n in cx.ranks if C.rank(n)})


# -- hom complex -----------------------------------------------------------------

def hom_basis(A: ChainComplex, B: ChainComplex, n: int):
    """Ordered basis of degree-n graded maps: (k, i, j) means the matrix
    unit A_k -> B_{k+n} with a single 1 in row i, column j."""
    basis = []
    for k in sorted(A.ranks):
        if B.rank(k + n):
            for i in range(B.rank(k + n)):
                for j in range(A.rank(k)):
                    basis.append((k, i, j))
    return basis


def hom_complex_with_basis(A: ChainComplex, B: ChainComplex):
    """(hom complex, basis per degree); the differential is sigma D sigma,
    sigma: g_k |-> (-1)^k g_k, written entry by entry on the matrix units,
    since D of each unit would cost one matrix product per basis element."""
    if not A.ranks or not B.ranks:
        return ChainComplex({}, {}), {}
    alo, ahi = A.window
    blo, bhi = B.window
    degrees = range(blo - ahi, bhi - alo + 1)
    bases = {n: hom_basis(A, B, n) for n in degrees}
    ranks = {n: len(bases[n]) for n in degrees if bases[n]}
    index = {n: {key: pos for pos, key in enumerate(bases[n])} for n in degrees}
    sign = {n: (-1 if n % 2 else 1) for n in degrees}
    diffs = {}
    for n in degrees:
        rows = ranks.get(n - 1, 0)
        cols = ranks.get(n, 0)
        if not (rows and cols):
            continue
        m = zeros(rows, cols)
        for pos, (k, i, j) in enumerate(bases[n]):
            # d_B . E, landing in graded degree k
            dB = B.diff(k + n)
            for i2 in range(dB.shape[0]):
                if dB[i2, i] != 0:
                    m[index[n - 1][(k, i2, j)], pos] += dB[i2, i]
            # (-1)^n E . d_A, landing in graded degree k + 1
            dA = A.diff(k + 1)
            for j2 in range(dA.shape[1]):
                if dA[j, j2] != 0:
                    m[index[n - 1][(k + 1, i, j2)], pos] += sign[n] * dA[j, j2]
        diffs[n] = m
    return build_complex(ranks, diffs), bases


def hom_complex(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    return hom_complex_with_basis(A, B)[0]


# -- total complex ----------------------------------------------------------------

def tot(complexes: list[ChainComplex], maps: list[ChainMap]) -> ChainComplex:
    """Total complex of a tower X_0 -> X_1 -> ... with zero composites.

    X_p sits in horizontal degree -p: Tot_n = (+)_p (X_p)_{n+p}, with
    vertical differential (-1)^p d and horizontal component the given maps.
    The differential Tot_n -> Tot_{n-1} is a block matrix with one row and
    one column band per p, in order: (-1)^p d of X_p on the diagonal, and
    the map X_p -> X_{p+1} in row band p + 1, column band p.
    """
    if len(maps) != max(len(complexes) - 1, 0):
        raise LaxcatError("need exactly one map per consecutive pair")
    for p, m in enumerate(maps):
        if m.source != complexes[p] or m.target != complexes[p + 1]:
            raise LaxcatError(f"map {p} does not join X_{p} to X_{p+1}")
    for p in range(len(maps) - 1):
        comp = compose_chain_maps(maps[p + 1], maps[p])
        if any(not is_zero_matrix(m) for m in comp.matrices.values()):
            raise LaxcatError(f"maps {p} and {p+1} do not compose to zero")

    ranks = {}
    for n in set(n - p for p, X in enumerate(complexes) for n in X.ranks):
        r = sum(X.rank(n + p) for p, X in enumerate(complexes))
        if r:
            ranks[n] = r
    diffs = {}
    for n in ranks:
        if n - 1 not in ranks:
            continue
        blocks = {(p, p): X.diffs[n + p] if p % 2 == 0 else -X.diffs[n + p]
                  for p, X in enumerate(complexes) if n + p in X.diffs}
        blocks.update({(p + 1, p): f.matrices[n + p]
                       for p, f in enumerate(maps) if n + p in f.matrices})
        diffs[n] = block_matrix(
            {p: X.rank(n + p - 1) for p, X in enumerate(complexes)},
            {p: X.rank(n + p) for p, X in enumerate(complexes)}, blocks)
    return build_complex(ranks, diffs)


# -- the star product over a graded basis ------------------------------------------

class GradedMatrix(Record):
    """An integer matrix over one graded basis: grades[i] is the degree of
    basis vector i.  The star product inserts (-1)^grade on the summation
    index; conjugating by the diagonal sign matrix turns it back into the
    plain product."""
    matrix: Matrix
    grades: tuple[int, ...]

    def is_zero(self) -> bool:
        return is_zero_matrix(self.matrix)


def star_multiply(N: GradedMatrix, M: GradedMatrix) -> GradedMatrix:
    """Alternating product: entry (u,s) = sum_t (-1)^grade(t) N[u,t] M[t,s],
    that is N times M with the rows of M of odd grade negated."""
    if N.grades != M.grades:
        raise LaxcatError("inner index sets differ")
    signed = Matrix([[-v for v in row] if g % 2 else row
                     for row, g in zip(M.matrix.rows, M.grades)], M.matrix.ncols)
    return GradedMatrix(N.matrix @ signed, M.grades)


def cone_star_matrix(f: ChainMap) -> GradedMatrix:
    """The unsigned cone matrix [[d, 0], [f, d]] over the basis of all
    degrees of A, in order, then those of B, each vector graded by its
    homological degree.  Its row and column bands are ("A", n) for the
    sorted degrees n of A, then ("B", n) for those of B, keyed by side so
    that an endomorphism f keeps its two copies apart: d_A runs from band
    ("A", n) to ("A", n - 1), f from ("A", n) to ("B", n) and d_B from
    ("B", n) to ("B", n - 1).  Star-squaring it is zero precisely because
    f is a chain map."""
    A, B = f.source, f.target
    bands = {(side, n): X.ranks[n]
             for side, X in (("A", A), ("B", B)) for n in sorted(X.ranks)}
    blocks = {**{(("A", n - 1), ("A", n)): d for n, d in A.diffs.items()},
              **{(("B", n), ("A", n)): f.mat(n) for n in A.ranks if B.rank(n)},
              **{(("B", n - 1), ("B", n)): d for n, d in B.diffs.items()}}
    grades = tuple(n for (_, n), r in bands.items() for _ in range(r))
    return GradedMatrix(block_matrix(bands, bands, blocks), grades)


# -- Smith normal form -------------------------------------------------------------

class SmithDecomposition(Record):
    matrix: Matrix
    U: Matrix
    S: Matrix
    V: Matrix

    def diagonal(self) -> list[int]:
        return [self.S[i, i] for i in range(min(self.S.shape))]

    def rank(self) -> int:
        return sum(1 for v in self.diagonal() if v != 0)

    def kernel(self) -> Matrix:
        """Columns of V past the rank: a basis of ker(matrix) that is a
        direct summand of the domain."""
        return self.V[:, self.rank():]

    def verify(self) -> Report:
        """Check U d V = S exactly, that U and V are unimodular, and that S
        is diagonal with a nonnegative divisibility chain.

        Unimodularity is certified by one determinant of the input rather
        than by eliminating the transforms, whose entries grow to thousands
        of bits.  Suppose U d V = S holds, U, d and V are square of one
        size with det d != 0, and S is diagonal, so det S is the product of
        its diagonal.  Then |det U| |det V| = |det S| / |det d|, and as
        both determinants are integers, U and V are unimodular exactly
        when |det d| = |det S| (Kannan and Bachem, SIAM J. Comput. 8,
        1979).  Where the certificate does not apply (singular or
        non-square d, U d V != S, S not diagonal) or the two determinants
        differ, det U and det V are computed by Bareiss elimination, so
        the failures and their order never depend on the route taken.
        """
        rep = Report()
        A, U, S, V = self.matrix, self.U, self.S, self.V
        product_ok = U @ (A @ V) == S
        if not product_ok:
            rep.fail("U d V != S")
        off_diagonal = [(i, j) for i, row in enumerate(S.rows)
                        for j, v in enumerate(row) if v and i != j]
        diag = self.diagonal()
        n = A.shape[0]
        certified = False
        if (product_ok and not off_diagonal
                and U.shape == A.shape == V.shape == (n, n)):
            det_a = abs(det_exact(A))
            certified = det_a != 0 and det_a == abs(math.prod(diag))
        if not certified:
            if abs(det_exact(U)) != 1:
                rep.fail("U is not unimodular")
            if abs(det_exact(V)) != 1:
                rep.fail("V is not unimodular")
        for i, v in enumerate(diag):
            if v < 0:
                rep.fail(f"diagonal entry {i} is negative")
            if i + 1 < len(diag) and v != 0 and diag[i + 1] % v != 0:
                rep.fail(f"diagonal entry {i} does not divide its successor")
            if v == 0 and any(w != 0 for w in diag[i:]):
                rep.fail("zero diagonal entry before a nonzero one")
                break
        for i, j in off_diagonal:
            rep.fail(f"off-diagonal entry at ({i},{j})")
        return rep


def _subtract_rows(T, k: int, quotients) -> None:
    """Row k of T, from column k on, less quotients[t] times row k + 1 + t."""
    top = T[k][k:]
    for i, q in enumerate(quotients, k + 1):
        if q:
            top = [a - q * b for a, b in zip(top, T[i][k:])]
    T[k][k:] = top


def smith_normal_form(matrix) -> SmithDecomposition:
    """U d V = S with unimodular U, V; pivots chosen by smallest nonzero
    absolute value, which keeps intermediate entries tame.

    Elimination runs first, on the trailing block D[k:, k:] alone (the
    rows and columns before k are final), and logs each pass: k, the
    pivot's place, its sign, the row and column quotients, the folded row.
    U = E_T ... E_1 and V = F_1 ... F_T are then built last operation
    first, as Q <- Q E on the rows of Q^T and R <- F R, so each step-k
    operation meets a transform that is still the identity outside its
    trailing block and touches only the entries from column k on.  In
    elimination order it would update whole rows, whose entries grow to
    thousands of bits (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    """
    A = as_matrix(matrix)
    m, n = A.shape
    B, diag, log = A.tolist(), [], []
    while B and B[0]:
        # the smallest nonzero |entry| of the block, first in row-major order
        sizes = [min(map(abs, filter(None, row)), default=0) for row in B]
        least = min(filter(None, sizes), default=0)
        if not least:
            break
        pi = sizes.index(least)
        pj = list(map(abs, B[pi])).index(least)
        B[0], B[pi] = B[pi], B[0]
        for row in B:
            row[0], row[pj] = row[pj], row[0]
        neg = B[0][0] < 0
        top = B[0] = [-v for v in B[0]] if neg else B[0]
        p = top[0]
        rq = [row[0] // p for row in B[1:]]
        for i, q in enumerate(rq, 1):
            if q:
                B[i] = [a - q * b for a, b in zip(B[i], top)]
        # column k does not change in the column pass, so every quotient
        # can be read off row k first and applied one row at a time
        cq = [v // p for v in top[1:]]
        for row in B:
            if row[0]:
                row[1:] = [a - q * row[0] for a, q in zip(row[1:], cq)]
        # fold stays None while row or column k is not clear; then it is
        # the first row that p does not divide, or 0 if p divides the rest
        fold = None
        if not any(row[0] for row in B[1:]) and not any(top[1:]):
            fold = next((i for i, row in enumerate(B[1:], 1)
                         if any(v % p for v in row[1:])), 0)
            if fold:
                B[0] = [a + b for a, b in zip(top, B[fold])]
        log.append((len(diag), pi, pj, neg, rq, cq, fold))
        if fold == 0:
            diag.append(p)
            B = [row[1:] for row in B[1:]]
    Ut, V = eye(m).rows, eye(n).rows
    for k, pi, pj, neg, rq, cq, fold in reversed(log):
        if fold:
            Ut[k + fold][k:] = [a + b for a, b in zip(Ut[k + fold][k:], Ut[k][k:])]
        _subtract_rows(Ut, k, rq)
        if neg:
            Ut[k][k:] = [-v for v in Ut[k][k:]]
        Ut[k], Ut[k + pi] = Ut[k + pi], Ut[k]
        _subtract_rows(V, k, cq)
        V[k], V[k + pj] = V[k + pj], V[k]
    S = zeros(m, n)
    for k, p in enumerate(diag):
        S.rows[k][k] = p
    return SmithDecomposition(A, Matrix([list(r) for r in zip(*Ut)], m), S, Matrix(V, n))


# -- homology ------------------------------------------------------------------------

class HomologyGroup(Record):
    free: int
    torsion: tuple[int, ...]

    def __hash__(self):
        return hash(self._values(self))

    def is_zero(self) -> bool:
        return self.free == 0 and not self.torsion

    def __repr__(self):
        parts = []
        if self.free:
            parts.append(f"Z^{self.free}" if self.free > 1 else "Z")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _diff_factors(C: ChainComplex):
    """n -> smith_normal_form(C.diff(n)), factoring each differential at
    most once; ranks, torsion and kernel bases all read the same result."""
    cache = {}

    def factor(n: int) -> SmithDecomposition:
        if n not in cache:
            cache[n] = smith_normal_form(C.diff(n))
        return cache[n]
    return factor


def _homology(C: ChainComplex, n: int, factor) -> HomologyGroup:
    snf_in = factor(n + 1)
    free = C.rank(n) - factor(n).rank() - snf_in.rank()
    return HomologyGroup(free, tuple(v for v in snf_in.diagonal() if v > 1))


def homology(C: ChainComplex, n: int) -> HomologyGroup:
    """H_n = ker d_n / im d_{n+1}, as free rank plus invariant factors > 1."""
    return _homology(C, n, _diff_factors(C))


def homology_all(C: ChainComplex) -> dict[int, HomologyGroup]:
    factor = _diff_factors(C)
    out = {}
    for n in C.degrees():
        h = _homology(C, n, factor)
        if not h.is_zero():
            out[n] = h
    return out


def is_acyclic(C: ChainComplex) -> bool:
    return not homology_all(C)


def _homology_map_surjective(f: ChainMap, n: int, factor_A, factor_B) -> bool:
    """H_n(f) is onto: the images of the cycles of A and the boundaries of
    B span the cycles Z_n(B).  Both lie in Z_n(B), a direct summand of B_n,
    so they span it exactly when their Smith form has rank dim Z_n(B) and
    every nonzero diagonal entry is 1."""
    B = f.target
    cycles = B.rank(n) - factor_B(n).rank()
    if not cycles:
        return True
    snf = smith_normal_form(hstack([f.mat(n) @ factor_A(n).kernel(),
                                    B.diff(n + 1)]))
    return snf.rank() == cycles and all(v in (0, 1) for v in snf.diagonal())


def is_quasi_iso(f: ChainMap) -> bool:
    """H_n(f) an isomorphism in every degree.

    Checked as: equal homology descriptors plus surjectivity of the induced
    map; finitely generated abelian groups admit no surjective
    non-invertible endomorphisms, so this is equivalent to invertibility.
    This route never looks at the cone, so it can be played off against
    cone acyclicity as an independent computation.
    """
    degrees = set(f.source.ranks) | set(f.target.ranks)
    degrees = degrees | {n + 1 for n in degrees} | {n - 1 for n in degrees}
    factor_A = _diff_factors(f.source)
    factor_B = factor_A if f.target == f.source else _diff_factors(f.target)
    for n in sorted(degrees):
        if _homology(f.source, n, factor_A) != _homology(f.target, n, factor_B):
            return False
        if not _homology_map_surjective(f, n, factor_A, factor_B):
            return False
    return True
