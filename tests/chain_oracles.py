"""Test-only helpers for the chain-complex layer: an independent Smith
normal form oracle, the Smith normal form that applies each operation to
U and V as it eliminates (the reference for the transforms), the
self-check of a Smith decomposition by two Bareiss determinants, the
surjectivity of H_n(f) decided through a left inverse of a kernel basis
(the reference for is_quasi_iso), the coordinate vector of a graded map
and its degree-wise sign change, the star product summed entry by entry,
which star_multiply is compared against, the direct sum of two
complexes assembled block by block, and the unsigned cone matrix written
entry by entry, which cone_star_matrix is compared against.
"""

import math

from laxcat.intmat import Matrix, hstack
from laxcat.k0chain import (ChainComplex, ChainMap, GradedMatrix,
                            SmithDecomposition, as_matrix, det_exact, eye,
                            hom_basis, smith_normal_form, zeros)
from laxcat.report import Report


def graded_to_vector(A: ChainComplex, B: ChainComplex, n: int,
                     gmap: dict[int, Matrix]) -> Matrix:
    basis = hom_basis(A, B, n)
    vec = zeros(len(basis), 1)
    for pos, (k, i, j) in enumerate(basis):
        if k in gmap:
            vec[pos, 0] = gmap[k][i, j]
    return vec


def graded_sign_reindex(gmap: dict[int, Matrix]) -> dict[int, Matrix]:
    """g_k |-> (-1)^k g_k; matches chain maps with degree-0 cycles."""
    return {k: (m if k % 2 == 0 else -m) for k, m in gmap.items()}


def _left_inverse(K: Matrix) -> Matrix:
    """Left inverse of a primitive full-column-rank matrix."""
    snf = smith_normal_form(K)
    k = K.shape[1]
    if snf.rank() != k or any(v != 1 for v in snf.diagonal()):
        raise AssertionError("kernel basis must be primitive")
    return snf.V @ hstack([eye(k), zeros(k, K.shape[0] - k)]) @ snf.U


def homology_map_surjective_by_left_inverse(f: ChainMap, n: int) -> bool:
    """Whether H_n(f) is onto, in the coordinates of a kernel basis K of
    the target's d_n: a left inverse of K carries the images of the
    source's cycles and the target's boundaries into Z^(columns of K),
    and they span it exactly when their Smith form has full rank and
    every nonzero diagonal entry is 1."""
    B = f.target
    KB = smith_normal_form(B.diff(n)).kernel()
    if KB.shape[1] == 0:
        return True
    KA = smith_normal_form(f.source.diff(n)).kernel()
    LB = _left_inverse(KB)
    Y = LB @ (f.mat(n) @ KA)
    if KB @ Y != f.mat(n) @ KA:
        raise AssertionError("chain map must preserve kernels")
    X = LB @ B.diff(n + 1)
    if KB @ X != B.diff(n + 1):
        raise AssertionError("boundaries must lie in the kernel")
    snf = smith_normal_form(hstack([Y, X]))
    return (snf.rank() == KB.shape[1]
            and all(v == 1 for v in snf.diagonal() if v != 0))


def direct_sum_blocks(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    ranks = {n: A.rank(n) + B.rank(n)
             for n in set(A.ranks) | set(B.ranks)}
    diffs = {}
    for n in ranks:
        rows, cols = ranks.get(n - 1, 0), ranks[n]
        if rows and cols:
            m = zeros(rows, cols)
            ar, ac = A.rank(n - 1), A.rank(n)
            m[:ar, :ac] = A.diff(n)
            m[ar:, ac:] = B.diff(n)
            diffs[n] = m
    return ChainComplex({n: r for n, r in ranks.items() if r}, diffs)


def cone_matrix_entrywise(f: ChainMap) -> GradedMatrix:
    """The unsigned cone matrix [[d, 0], [f, d]] of f: A -> B, one entry
    at a time.  Basis vector (side, n, i) is vector i of degree n on that
    side, A's degrees ascending, then B's; column (A, n, j) holds d_A(n)
    in the rows (A, n - 1, i) and f_n in the rows (B, n, i), and column
    (B, n, j) holds d_B(n) in the rows (B, n - 1, i)."""
    A, B = f.source, f.target
    basis = [(side, n, i) for side, X in (("A", A), ("B", B))
             for n in sorted(X.ranks) for i in range(X.ranks[n])]

    def entry(row, col):
        (rs, rn, i), (cs, cn, j) = row, col
        if cs == rs and rn == cn - 1:
            return (A if cs == "A" else B).diff(cn)[i, j]
        if (cs, rs) == ("A", "B") and rn == cn:
            return f.mat(cn)[i, j]
        return 0

    return GradedMatrix(
        Matrix([[entry(row, col) for col in basis] for row in basis],
               len(basis)),
        tuple(n for _, n, _ in basis))


def star_entrywise(N: GradedMatrix, M: GradedMatrix) -> Matrix:
    """Entry (u,s) = sum_t (-1)^grade(t) N[u,t] M[t,s], one entry at a
    time, with the sign taken from the grade of the summation index t."""
    rows, inner = N.matrix.shape
    cols = M.matrix.shape[1]
    sign = [-1 if g % 2 else 1 for g in M.grades]
    return Matrix([[sum(sign[t] * N.matrix[u, t] * M.matrix[t, s]
                        for t in range(inner))
                    for s in range(cols)]
                   for u in range(rows)], cols)


def snf_diagonal_naive(matrix) -> list[int]:
    """Strategy-free diagonalization used only as an independent oracle.

    Always works at the leading position, clearing by repeated remainder
    steps, then fixes the divisibility chain with gcd/lcm folding.  No
    transform matrices, no pivot selection.  It works on plain row lists,
    so it shares no elimination code with laxcat.intmat.
    """
    def swap_cols(D, a, b):
        for row in D:
            row[a], row[b] = row[b], row[a]

    def reduce_block(D):
        m2, n2 = len(D), len(D[0]) if D else 0
        if m2 == 0 or n2 == 0:
            return []
        if all(D[i][j] == 0 for i in range(m2) for j in range(n2)):
            return [0] * min(m2, n2)
        # bring some nonzero entry to (0,0)
        found = next((i, j) for i in range(m2) for j in range(n2) if D[i][j] != 0)
        D[0], D[found[0]] = D[found[0]], D[0]
        swap_cols(D, 0, found[1])
        while True:
            if D[0][0] < 0:
                D[0] = [-v for v in D[0]]
            moved = False
            for i in range(1, m2):
                if D[i][0] != 0:
                    q = D[i][0] // D[0][0]
                    D[i] = [a - q * b for a, b in zip(D[i], D[0])]
                    if D[i][0] != 0:
                        D[0], D[i] = D[i], D[0]
                        moved = True
            for j in range(1, n2):
                if D[0][j] != 0:
                    q = D[0][j] // D[0][0]
                    for row in D:
                        row[j] -= q * row[0]
                    if D[0][j] != 0:
                        swap_cols(D, 0, j)
                        moved = True
            if not moved:
                break
        return [D[0][0]] + reduce_block([row[1:] for row in D[1:]])

    diag = reduce_block(as_matrix(matrix).tolist())
    diag = [abs(v) for v in diag]
    # gcd/lcm folding gives the divisibility chain without touching rank
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = math.gcd(a, b)
            l = 0 if g == 0 else a * b // g
            diag[i], diag[j] = g, l
    nonzero = sorted(v for v in diag if v)
    return nonzero + [0] * (len(diag) - len(nonzero))


def smith_normal_form_in_order(matrix) -> SmithDecomposition:
    """U d V = S with unimodular U, V; pivots chosen by smallest nonzero
    absolute value, which keeps intermediate entries tame.

    The reference for k0chain.smith_normal_form: the same pivot rule, with
    each row and column operation applied to D, U and V as it is made."""
    A = as_matrix(matrix)
    m, n = A.shape
    D = A.copy()
    U, V = eye(m), eye(n)
    k = 0
    while k < min(m, n):
        # each pass moves the smallest nonzero |entry| of D[k:, k:] (first in
        # row-major order) to (k, k) and reduces its row and column by it
        pivot, least = None, 0
        for i in range(k, m):
            row = D.rows[i]
            for j in range(k, n):
                size = abs(row[j])
                if size and (pivot is None or size < least):
                    pivot, least = (i, j), size
        if pivot is None:
            break
        i, j = pivot
        if i != k:
            for M in (D, U):
                M.rows[k], M.rows[i] = M.rows[i], M.rows[k]
        if j != k:
            for M in (D, V):
                for row in M.rows:
                    row[k], row[j] = row[j], row[k]
        if D[k, k] < 0:
            for M in (D, U):
                M.rows[k] = [-v for v in M.rows[k]]
        p = D[k, k]
        for i in range(k + 1, m):
            q = D[i, k] // p
            if q:
                D.add_row(i, k, -q)
                U.add_row(i, k, -q)
        for j in range(k + 1, n):
            q = D[k, j] // p
            if q:
                D.add_col(j, k, -q)
                V.add_col(j, k, -q)
        if (any(D[i, k] != 0 for i in range(k + 1, m))
                or any(D[k, j] != 0 for j in range(k + 1, n))):
            continue
        # p must divide the rest; otherwise fold in the first offending row
        bad = next((i for i in range(k + 1, m)
                    if any(v % p for v in D.rows[i][k + 1:])), None)
        if bad is None:
            k += 1
        else:
            D.add_row(k, bad, 1)
            U.add_row(k, bad, 1)
    return SmithDecomposition(A, U, D, V)


def verify_two_bareiss(dec: SmithDecomposition) -> Report:
    """SmithDecomposition.verify as it was before the determinant
    certificate: U and V are eliminated on every call."""
    rep = Report()
    if dec.U @ dec.matrix @ dec.V != dec.S:
        rep.fail("U d V != S")
    if abs(det_exact(dec.U)) != 1:
        rep.fail("U is not unimodular")
    if abs(det_exact(dec.V)) != 1:
        rep.fail("V is not unimodular")
    diag = dec.diagonal()
    for i, v in enumerate(diag):
        if v < 0:
            rep.fail(f"diagonal entry {i} is negative")
        if i + 1 < len(diag) and v != 0 and diag[i + 1] % v != 0:
            rep.fail(f"diagonal entry {i} does not divide its successor")
        if v == 0 and any(w != 0 for w in diag[i:]):
            rep.fail("zero diagonal entry before a nonzero one")
            break
    for i in range(dec.S.shape[0]):
        for j in range(dec.S.shape[1]):
            if i != j and dec.S[i, j] != 0:
                rep.fail(f"off-diagonal entry at ({i},{j})")
    return rep
