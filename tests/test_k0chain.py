import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxcat.errors import LaxcatError
from laxcat.intmat import block_matrix
import laxcat.k0chain as k0chain
from laxcat.k0chain import (GradedMap, GradedMatrix,
                            add_chain_maps, as_matrix, build_chain_map,
                            build_complex, build_homotopy, compose_chain_maps,
                            cone, cone_from_data, cone_star_matrix,
                            cone_to_data, det_exact, direct_sum, euler_char,
                            eye, graded_map_image, hom_basis,
                            hom_complex, hom_complex_with_basis, homology,
                            homology_all, identity_chain_map, is_acyclic,
                            is_quasi_iso, is_zero_matrix,
                            shift, smith_normal_form,
                            star_multiply, tot, zero_chain_map, zeros)
from laxcat.rand import (rand_chain_map, rand_complex, rand_graded,
                         rand_quasi_iso_case, rand_universal_case,
                         rng_from_seed)

import chain_oracles
from chain_oracles import (cone_matrix_entrywise, direct_sum_blocks,
                           graded_sign_reindex,
                           graded_to_vector,
                           homology_map_surjective_by_left_inverse,
                           smith_normal_form_in_order, snf_diagonal_naive,
                           star_entrywise, verify_two_bareiss)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


# -- matrices ------------------------------------------------------------------

def test_as_matrix_rejects_bools():
    with pytest.raises(LaxcatError,
                       match=r"^entry \(0,0\) is not an int: True$"):
        as_matrix([[True]])


def test_block_matrix_refuses_a_misshaped_block():
    with pytest.raises(LaxcatError,
                       match=r"^block of shape \(1, 2\) placed into \(2, 2\)$"):
        block_matrix({0: 2}, {0: 2}, {(0, 0): zeros(1, 2)})


def test_block_matrix_places_blocks_and_keeps_empty_bands():
    m = block_matrix({"a": 0, "b": 2}, {"a": 3, "b": 0},
                     {("a", "a"): zeros(0, 3), ("b", "b"): zeros(2, 0)})
    assert m.shape == (2, 3) and m == zeros(2, 3)
    assert block_matrix({"a": 0}, {"a": 3}, {}).shape == (0, 3)
    assert block_matrix({"a": 3}, {"a": 0}, {}).shape == (3, 0)
    assert block_matrix({0: 1, 1: 2}, {0: 2, 1: 1},
                        {(1, 0): as_matrix([[1, 2], [3, 4]]),
                         (0, 1): as_matrix([[5]])}) == as_matrix(
        [[0, 0, 5], [1, 2, 0], [3, 4, 0]])


def test_det_exact_small():
    assert det_exact(as_matrix([[2, 1], [1, 1]])) == 1
    assert det_exact(as_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0
    assert det_exact(eye(4)) == 1


# -- complexes -----------------------------------------------------------------

def test_build_complex_rejects_nonzero_square():
    with pytest.raises(LaxcatError, match=r"^d\.d != 0 from degree 2$"):
        build_complex({0: 1, 1: 1, 2: 1}, {1: [[1]], 2: [[1]]})


def test_build_complex_rejects_bad_shape():
    with pytest.raises(LaxcatError, match=r"^expected 2 rows, got 1$"):
        build_complex({0: 2, 1: 1}, {1: [[1]]})


def test_build_complex_trims_zero_ranks():
    C = build_complex({0: 1, 1: 0, 5: 0}, {})
    assert C.ranks == {0: 1}
    assert C.window == (0, 0)


def test_shift_sign_and_involution():
    C = build_complex({0: 1, 1: 1}, {1: [[3]]})
    S = shift(C, 1)
    assert S.rank(2) == 1
    assert S.diff(2)[0, 0] == -3
    assert shift(S, -1) == C


def test_direct_sum_and_euler():
    A = build_complex({0: 2, 1: 1}, {1: [[1], [0]]})
    B = build_complex({0: 1, 2: 3}, {})
    S = direct_sum(A, B)
    assert S.rank(0) == 3 and S.rank(2) == 3
    assert euler_char(S) == euler_char(A) + euler_char(B)


def test_direct_sum_matches_the_block_assembly():
    rng = rng_from_seed(50)
    empty = build_complex({}, {})
    pairs = [(rand_complex(rng)[0], rand_complex(rng)[0]) for _ in range(300)]
    pairs += [(empty, pairs[0][0]), (pairs[0][1], empty), (empty, empty)]
    for A, B in pairs:
        S, expected = direct_sum(A, B), direct_sum_blocks(A, B)
        assert S.ranks == expected.ranks
        assert S.diffs.keys() == expected.diffs.keys()
        assert S == expected


# -- chain maps ------------------------------------------------------------------

def test_chain_map_square_enforced():
    A = build_complex({0: 1, 1: 1}, {1: [[1]]})
    Z = build_complex({0: 1}, {})
    with pytest.raises(LaxcatError,
                       match=r"^not a chain map: square at degree 1$"):
        build_chain_map(A, Z, {0: [[1]]})


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_graded_image_is_chain_map(seed):
    rng = rng_from_seed(seed)
    A, _ = rand_complex(rng)
    B, _ = rand_complex(rng)
    f = graded_map_image(A, B, rand_graded(rng, A, B))
    for n in set(A.ranks) | set(B.ranks):
        assert B.diff(n) @ f.mat(n) == f.mat(n - 1) @ A.diff(n)


def test_homotopy_orientation_enforced():
    Z = build_complex({0: 1}, {})
    two = build_chain_map(Z, Z, {0: [[2]]})
    with pytest.raises(LaxcatError,
                       match=r"^dH \+ Hd misses the difference at degree 0$"):
        build_homotopy(zero_chain_map(Z, Z), two, {})


def test_a_map_failing_at_two_degrees_names_the_first_in_set_order():
    # the degrees are met in the order of set(source.ranks) | set(target.ranks),
    # which puts 1 before -1; sorted order would name -1
    A = build_complex({-2: 1, -1: 1, 0: 1, 1: 1}, {-1: [[1]], 1: [[1]]})
    B = build_complex({-2: 1, -1: 1, 0: 1, 1: 1}, {})
    with pytest.raises(LaxcatError,
                       match=r"^not a chain map: square at degree 1$"):
        build_chain_map(A, B, {-2: [[1]], 0: [[1]]})
    Z = build_complex({-1: 1, 0: 1, 1: 1}, {})
    g = build_chain_map(Z, Z, {-1: [[1]], 1: [[1]]})
    with pytest.raises(LaxcatError,
                       match=r"^dH \+ Hd misses the difference at degree 1$"):
        build_homotopy(zero_chain_map(Z, Z), g, {})


def test_zero_maps_are_equal_however_built():
    A = build_complex({0: 2, 1: 1}, {1: [[1], [0]]})
    B = build_complex({0: 1, 1: 1, 2: 1}, {})
    assert build_chain_map(A, B, {}) == zero_chain_map(A, B)
    assert build_chain_map(A, B, {}) == build_chain_map(A, B, {1: [[0]]})
    assert build_chain_map(A, B, {}) != identity_chain_map(B)


def test_cone_from_data_takes_a_null_homotopy_of_built_zero_maps():
    Z = build_complex({0: 1}, {})
    f = identity_chain_map(Z)
    g = build_chain_map(Z, Z, {})  # g.f = 0, stored with a zero component
    phi = cone_from_data(f, g, build_homotopy(g, g, {}))
    g2, H2 = cone_to_data(f, phi)
    assert g2 == g and H2 == build_homotopy(g, g, {})


# -- cone -------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seeds)
def test_cone_differential_is_the_signed_block_matrix(seed):
    rng = rng_from_seed(seed)
    A, _ = rand_complex(rng)
    B, _ = rand_complex(rng)
    f = rand_chain_map(rng, A, B)
    cx = cone(f).complex
    lo = min(A.window[0] + 1, B.window[0])
    hi = max(A.window[1] + 1, B.window[1])
    for n in range(lo - 1, hi + 2):
        assert cx.rank(n) == A.rank(n - 1) + B.rank(n)
        # [[-d_A, 0], [-f, d_B]] from Cone_n = A_{n-1} + B_n to
        # Cone_{n-1} = A_{n-2} + B_{n-1}, written out entry by entry
        ar, ac = A.rank(n - 2), A.rank(n - 1)
        dA, fm, dB = A.diff(n - 1), f.mat(n - 1), B.diff(n)
        blocks = zeros(ar + B.rank(n - 1), ac + B.rank(n))
        for i in range(ar):
            for j in range(ac):
                blocks[i, j] = -dA[i, j]
        for i in range(B.rank(n - 1)):
            for j in range(ac):
                blocks[ar + i, j] = -fm[i, j]
            for j in range(B.rank(n)):
                blocks[ar + i, ac + j] = dB[i, j]
        assert cx.diff(n) == blocks


def test_cone_identity_acyclic():
    rng = rng_from_seed(30)
    for _ in range(10):
        A, _ = rand_complex(rng)
        assert is_acyclic(cone(identity_chain_map(A)).complex)


def test_cone_times_two():
    Z = build_complex({0: 1}, {})
    two = build_chain_map(Z, Z, {0: [[2]]})
    groups = homology_all(cone(two).complex)
    assert list(groups) == [0]
    assert groups[0].free == 0 and groups[0].torsion == (2,)


def test_cone_euler():
    rng = rng_from_seed(31)
    for _ in range(15):
        A, _ = rand_complex(rng)
        B, _ = rand_complex(rng)
        f = rand_chain_map(rng, A, B)
        assert euler_char(cone(f).complex) == euler_char(B) - euler_char(A)


def test_cone_inclusion_projection_composite():
    rng = rng_from_seed(32)
    A, _ = rand_complex(rng)
    B, _ = rand_complex(rng)
    f = rand_chain_map(rng, A, B)
    mc = cone(f)
    comp = compose_chain_maps(mc.projection, mc.inclusion)
    assert all(is_zero_matrix(m) for m in comp.matrices.values())


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_quasi_iso_two_routes_agree(seed):
    f, expected = rand_quasi_iso_case(rng_from_seed(seed))
    assert is_quasi_iso(f) == expected
    assert is_acyclic(cone(f).complex) == expected


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_cone_universal_roundtrip(seed):
    f, g, H = rand_universal_case(rng_from_seed(seed))
    phi = cone_from_data(f, g, H)
    g2, H2 = cone_to_data(f, phi)
    assert g2 == g and H2 == H
    assert cone_from_data(f, g2, H2) == phi


def test_from_data_rejects_wrong_homotopy():
    Z = build_complex({0: 1}, {})
    f = identity_chain_map(Z)
    with pytest.raises(LaxcatError,
                       match=r"^H must run from the zero map to g\.f$"):
        cone_from_data(f, f, build_homotopy(zero_chain_map(Z, Z),
                                            zero_chain_map(Z, Z), {}))


# -- hom complex --------------------------------------------------------------------

def test_hom_basis_counts():
    A = build_complex({0: 2, 1: 1}, {1: [[0], [0]]})
    B = build_complex({0: 3}, {})
    assert len(hom_basis(A, B, 0)) == 6
    assert len(hom_basis(A, B, -1)) == 3
    H = hom_complex(A, B)
    assert H.rank(0) == 6 and H.rank(-1) == 3


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_chain_maps_are_reindexed_cycles(seed):
    rng = rng_from_seed(seed)
    A, _ = rand_complex(rng)
    B, _ = rand_complex(rng)
    f = rand_chain_map(rng, A, B)
    H, _ = hom_complex_with_basis(A, B)
    vec = graded_to_vector(A, B, 0, graded_sign_reindex(dict(f.matrices)))
    assert is_zero_matrix(H.diff(0) @ vec)


def test_hom_differential_is_the_reindexed_boundary():
    # with sigma = graded_sign_reindex, the hom differential is sigma D sigma:
    # it takes the coordinates of sigma g to those of sigma D g for a graded
    # g of every degree n
    rng = rng_from_seed(36)
    cases = 0
    for _ in range(60):
        A, _ = rand_complex(rng)
        B, _ = rand_complex(rng)
        H = hom_complex(A, B)
        for n in H.ranks:
            g = GradedMap(A, B, n, rand_graded(rng, A, B, degree=n))
            Dg = {k: g.boundary(k) for k in A.ranks}
            vec = graded_to_vector(A, B, n, graded_sign_reindex(g.matrices))
            assert H.diff(n) @ vec == graded_to_vector(
                A, B, n - 1, graded_sign_reindex(Dg))
            cases += 1
    assert cases >= 200


def test_cycles_are_reindexed_chain_maps():
    # every integral cycle in degree 0 reindexes to an honest chain map
    rng = rng_from_seed(33)
    for _ in range(10):
        A, _ = rand_complex(rng)
        B, _ = rand_complex(rng)
        H, bases = hom_complex_with_basis(A, B)
        if not H.rank(0):
            continue
        K = smith_normal_form(H.diff(0)).kernel()
        for col in range(K.shape[1]):
            gmap = {}
            for pos, (k, i, j) in enumerate(bases[0]):
                if K[pos, col] != 0:
                    gmap.setdefault(k, zeros(B.rank(k), A.rank(k)))
                    gmap[k][i, j] = K[pos, col]
            mats = graded_sign_reindex(gmap)
            build_chain_map(A, B, mats)


# -- tot ---------------------------------------------------------------------------

def test_tot_requires_zero_composites():
    Z = build_complex({0: 1}, {})
    i = identity_chain_map(Z)
    with pytest.raises(LaxcatError,
                       match=r"^maps 0 and 1 do not compose to zero$"):
        tot([Z, Z, Z], [i, i])


def test_tot_euler_alternating():
    rng = rng_from_seed(34)
    A, _ = rand_complex(rng)
    B, _ = rand_complex(rng)
    f = rand_chain_map(rng, A, B)
    zero = zero_chain_map(B, A)
    T = tot([A, B, A], [f, zero])
    assert euler_char(T) == euler_char(A) - euler_char(B) + euler_char(A)


# -- star product ---------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(seeds)
def test_unsigned_cone_matrix_star_squares_to_zero(seed):
    rng = rng_from_seed(seed)
    A, _ = rand_complex(rng)
    B, _ = rand_complex(rng)
    f = rand_chain_map(rng, A, B)
    N = cone_star_matrix(f)
    assert star_multiply(N, N).is_zero()
    assert star_multiply(N, N).matrix == star_entrywise(N, N)
    # off the cone, with odd grades in the sum, the two still agree
    k = len(N.grades)
    M = GradedMatrix(as_matrix([[rng.randint(-2, 2) for _ in range(k)]
                                for _ in range(k)], k, k), N.grades)
    assert star_multiply(N, M).matrix == star_entrywise(N, M)


def test_cone_star_matrix_matches_the_entrywise_layout():
    # endomorphisms, whose source is the very object of their target, put
    # d_A and d_B in bands that only the side keeps apart
    rng = rng_from_seed(71)
    cases = []
    for _ in range(12):
        A, _ = rand_complex(rng)
        B, _ = rand_complex(rng)
        cases.append(rand_chain_map(rng, A, B))
        cases.append(rand_chain_map(rng, A, A))
        cases.append(identity_chain_map(A))
        cases.append(build_chain_map(A, A, {n: 2 * eye(r)
                                            for n, r in A.ranks.items()}))
    for f in cases:
        assert cone_star_matrix(f) == cone_matrix_entrywise(f)


def test_star_needs_matching_inner_indices():
    a = GradedMatrix(eye(2), (0, 1))
    b = GradedMatrix(eye(2), (0, 0))
    with pytest.raises(LaxcatError, match="inner index sets differ"):
        star_multiply(a, b)


# -- smith normal form -----------------------------------------------------------------

def test_snf_frozen_example():
    dec = smith_normal_form([[2, 4], [6, 8]])
    assert dec.diagonal() == [2, 4]
    assert dec.verify().ok


def test_verify_rejects_transforms_that_are_not_unimodular():
    # doubling a row of U and of S (or a column of V and of S) keeps
    # U d V = S and the divisibility chain; only the determinants object
    dec = smith_normal_form([[2, 4], [6, 8]])
    for j in range(2):
        dec.U[0, j] *= 2
        dec.S[0, j] *= 2
    assert dec.verify().failures == ["U is not unimodular"]
    dec = smith_normal_form([[2, 4], [6, 8]])
    for i in range(2):
        dec.V[i, 1] *= 2
        dec.S[i, 1] *= 2
    assert dec.verify().failures == ["V is not unimodular"]


def _seeded_decompositions():
    """Smith decompositions of seeded square nonsingular, square singular
    and non-square matrices, and of the empty shapes."""
    rng = rng_from_seed(37)

    def draw(m, n):
        return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]

    mats = [zeros(0, 0), zeros(3, 0), zeros(0, 4)]
    while len(mats) < 9:
        mat = draw(*[rng.randint(1, 6)] * 2)
        if det_exact(as_matrix(mat)):
            mats.append(mat)
    for n in (2, 3, 4, 5, 6):
        mat = draw(n - 1, n)
        mats.append(mat + [[a + b for a, b in zip(mat[0], mat[-1])]])
        mats.append([[0] * n] + draw(n - 1, n))
    for m, n in ((1, 4), (2, 5), (4, 2), (6, 3), (3, 6)):
        mats.append(draw(m, n))
    return [smith_normal_form(mat) for mat in mats]


def _corrupted(dec):
    """Copies of dec broken in one way each: a row of U doubled with S and a
    column of V doubled with S (U d V = S still holds, so only the
    determinants can object), the first two rows of U and S mixed by
    [[1, 3], [1, 1]] (U d V = S and the diagonal product hold, S is not
    diagonal), a row of U doubled or negated alone, an off-diagonal entry
    in S, and U d V != S with both transforms still unimodular."""
    def copy():
        return k0chain.SmithDecomposition(dec.matrix, dec.U.copy(),
                                          dec.S.copy(), dec.V.copy())
    (m, n), out = dec.S.shape, []
    if m:
        c = copy()
        c.U.rows[0] = [2 * v for v in c.U.rows[0]]
        c.S.rows[0] = [2 * v for v in c.S.rows[0]]
        out.append(c)
        c = copy()
        c.U.rows[0] = [2 * v for v in c.U.rows[0]]
        out.append(c)
        c = copy()
        c.U.rows[0] = [-v for v in c.U.rows[0]]
        out.append(c)
    if n:
        c = copy()
        for row in c.V.rows + c.S.rows:
            row[0] *= 2
        out.append(c)
    if m > 1:
        c = copy()
        for M in (c.U, c.S):
            a, b = M.rows[0], M.rows[1]
            M.rows[0] = [x + 3 * y for x, y in zip(a, b)]
            M.rows[1] = [x + y for x, y in zip(a, b)]
        out.append(c)
        c = copy()
        c.U.add_row(0, 1, 1)
        out.append(c)
    if m and n and m + n > 2:
        c = copy()
        c.S[(1, 0) if m > 1 else (0, 1)] += 1
        out.append(c)
    if m and n:
        c = copy()
        c.S[0, 0] += 1
        out.append(c)
    return out


def test_verify_matches_two_bareiss_oracle():
    for dec in _seeded_decompositions():
        for d in [dec] + _corrupted(dec):
            assert d.verify().failures == verify_two_bareiss(d).failures


def test_verify_of_nonsingular_input_takes_one_determinant(monkeypatch):
    rng = rng_from_seed(38)
    while True:
        mat = as_matrix([[rng.randint(-5, 5) for _ in range(8)]
                         for _ in range(8)])
        if det_exact(mat):
            break
    dec = smith_normal_form(mat)
    calls = []
    real = k0chain.det_exact

    def counting(a):
        calls.append(a)
        return real(a)
    monkeypatch.setattr(k0chain, "det_exact", counting)
    assert dec.verify().ok
    assert len(calls) == 1 and calls[0] is dec.matrix


def _snf_reference_cases():
    """Seeded matrices of every shape from 0x0 to 9x9: dense, sparse,
    rank-deficient, with entries up to 10**20, and the zero matrices, then
    the seed-1 `chains` ladder matrices n = 16-56 (entries in [-5, 5])."""
    rng = random.Random(18)
    mats = [[[0] * n for _ in range(m)] for m in range(10) for n in range(10)]
    for t in range(300):
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        hi = (9, 10**20, 3, 100)[t % 4]
        density = (1, 1, 0.25, 0.6)[t % 4]
        mat = [[rng.randint(-hi, hi) if rng.random() < density else 0
                for _ in range(n)] for _ in range(m)]
        if t % 4 == 3 and m > 2:
            mat[-1] = [a - 3 * b for a, b in zip(mat[0], mat[1])]
        mats.append(mat)
    mats.append([[2, 0], [0, 3]])
    rng = random.Random(1)
    for n in (16, 32, 48, 56):
        mats.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
    return mats


def test_snf_transforms_equal_the_in_order_reference(monkeypatch):
    folds = []
    add_row = chain_oracles.Matrix.add_row

    def spy(self, i, k, c):
        # the fold adds a later row into the pivot row; reductions go down
        if i < k:
            folds.append((i, k))
        add_row(self, i, k, c)
    monkeypatch.setattr(chain_oracles.Matrix, "add_row", spy)
    for mat in _snf_reference_cases():
        dec, ref = smith_normal_form(mat), smith_normal_form_in_order(mat)
        assert (dec.U, dec.S, dec.V) == (ref.U, ref.S, ref.V), mat
    assert folds


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_verifies(mat):
    dec = smith_normal_form(mat)
    assert dec.verify().ok


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m))))
def test_snf_matches_naive_oracle(mat):
    assert smith_normal_form(mat).diagonal() == snf_diagonal_naive(mat)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_basis_spans_kernel(mat):
    A = as_matrix(mat)
    K = smith_normal_form(A).kernel()
    assert is_zero_matrix(A @ K)
    if K.shape[1]:
        # primitive: the basis extends to a basis of the ambient lattice
        assert all(v == 1 for v in smith_normal_form(K).diagonal())


# -- homology ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seeds)
def test_homology_matches_construction(seed):
    C, known = rand_complex(rng_from_seed(seed))
    assert homology_all(C) == known


def test_homology_of_twisted_disk():
    C = build_complex({0: 1, 1: 1}, {1: [[6]]})
    h = homology(C, 0)
    assert h.free == 0 and h.torsion == (6,)
    assert homology(C, 1).is_zero()


def _count_snf(monkeypatch):
    """Record the argument of every smith_normal_form call."""
    calls = []
    real = k0chain.smith_normal_form

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)
    monkeypatch.setattr(k0chain, "smith_normal_form", counting)
    return calls


def test_homology_all_factors_each_differential_once(monkeypatch):
    calls = _count_snf(monkeypatch)
    rng = rng_from_seed(35)
    for _ in range(10):
        C, known = rand_complex(rng)
        calls.clear()
        assert homology_all(C) == known
        assert len(calls) <= len(C.degrees()) + 1


def test_quasi_iso_surjectivity_matches_the_left_inverse_route():
    # one Smith form of the stacked images in B_n against the route through
    # a left inverse of a kernel basis, in every degree is_quasi_iso reads
    rng = rng_from_seed(39)
    outcomes = set()
    for t in range(600):
        if t % 2:
            f, _ = rand_quasi_iso_case(rng)
        else:
            A, _ = rand_complex(rng)
            B, _ = rand_complex(rng)
            f = rand_chain_map(rng, A, B)
        factor_A = k0chain._diff_factors(f.source)
        factor_B = k0chain._diff_factors(f.target)
        degrees = set(f.source.ranks) | set(f.target.ranks)
        for n in degrees | {n + 1 for n in degrees} | {n - 1 for n in degrees}:
            got = k0chain._homology_map_surjective(f, n, factor_A, factor_B)
            assert got == homology_map_surjective_by_left_inverse(f, n), (t, n)
            if f.target.rank(n) > factor_B(n).rank():
                outcomes.add(got)
    assert outcomes == {True, False}


def test_quasi_iso_factors_no_differential_twice(monkeypatch):
    calls = _count_snf(monkeypatch)
    rng = rng_from_seed(36)
    for _ in range(20):
        f, expected = rand_quasi_iso_case(rng)
        calls.clear()
        assert is_quasi_iso(f) == expected
        stored = [d for C in (f.source, f.target) for d in C.diffs.values()]
        for d in stored:
            assert sum(1 for m in calls if m is d) <= 1
