"""Acceptance runs for the whole engine, one test per numbered criterion.

Each test prints exactly one [PASS]/[FAIL] line with the counts it actually
ran, then asserts.  Seeds are fixed ranges so reruns are byte-identical.
"""

import json
import subprocess
import sys
import time

import pytest

from laxcat.collage import (check_absoluteness, check_bilimit_roundtrip,
                            check_block_multiply, check_semiorthogonal,
                            grothendieck, restrict_matrix)
from laxcat.decat import (check_discrete_multiplication,
                          composite_vs_product)
from laxcat.fincat import standard_category
from laxcat.jsonio import (chainmap_to_json, complex_to_json, dumps_canonical,
                           profunctor_to_json)
from laxcat.k0chain import (build_chain_map, build_complex, cone,
                            cone_from_data, cone_star_matrix, cone_to_data,
                            det_exact, euler_char, hom_complex, homology_all,
                            identity_chain_map, is_acyclic, is_quasi_iso,
                            is_zero_matrix, smith_normal_form,
                            star_multiply)
from laxcat.profunctor import (associator, build_profunctor,
                               check_cocontinuity, compose_profunctors,
                               hom_profunctor,
                               is_natural_iso, left_unitor, right_unitor)
from laxcat.rand import (rand_category, rand_chain_map, rand_complex,
                         rand_diagram, rand_profunctor, rand_quasi_iso_case,
                         rand_universal_case, rng_from_seed)
from laxcat.report import Report

from chain_oracles import snf_diagonal_naive


def _finish(capsys, num, label, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion {num}: {label}")
    assert not failures, "; ".join(failures[:4])


def test_criterion_01_monoid_laws(capsys):
    t0 = time.monotonic()
    failures = []
    for seed in range(200):
        rng = rng_from_seed(seed)
        cats = [rand_category(rng, max_objects=3) for _ in range(4)]
        M = rand_profunctor(rng, cats[0], cats[1], max_cell=3)
        N = rand_profunctor(rng, cats[1], cats[2], max_cell=3)
        P = rand_profunctor(rng, cats[2], cats[3], max_cell=3)
        rep = Report()
        rep.merge(is_natural_iso(left_unitor(M)), "left unitor")
        rep.merge(is_natural_iso(right_unitor(M)), "right unitor")
        rep.merge(is_natural_iso(associator(P, N, M)), "associator")
        failures.extend(f"seed {seed}: {m}" for m in rep.failures)
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _finish(capsys, 1,
            f"unitors and associator natural bijections on 200 instances "
            f"in {elapsed:.1f}s", failures)


def test_criterion_02_cocontinuity(capsys):
    # each call covers coproduct and coequalizer in both variables
    failures = []
    for seed in range(100):
        rng = rng_from_seed(1000 + seed)
        C, D, E = (rand_category(rng, 3) for _ in range(3))
        N = rand_profunctor(rng, D, E, max_cell=3)
        M1 = rand_profunctor(rng, C, D, max_cell=3)
        M2 = rand_profunctor(rng, C, D, max_cell=3)
        rep = check_cocontinuity(N, M1, M2)
        failures.extend(f"seed {seed}: {m}" for m in rep.failures)
    _finish(capsys, 2,
            "coproduct and coequalizer preserved in both variables, "
            "100 instances each", failures)


def test_criterion_03_bilimit_roundtrip(capsys):
    failures = []
    for shape in ("interval", "cospan"):
        for seed in range(100):
            rng = rng_from_seed(2000 + seed)
            X = rand_diagram(rng, shape_kind=shape, max_fiber_objects=2)
            G = grothendieck(X)
            T = rand_category(rng, 2)
            out = rand_profunctor(rng, G.total, T, max_cell=3)
            into = rand_profunctor(rng, T, G.total, max_cell=3)
            for orientation, M in (("out", out), ("in", into)):
                rep = check_bilimit_roundtrip(X, T, M)
                failures.extend(f"{shape}/{orientation} seed {seed}: {m}"
                                for m in rep.failures)
    _finish(capsys, 3,
            "restrict/assemble round trip, both orientations, 100 instances "
            "over the interval and 100 over a cospan", failures)


def _oracle_cell_count(N, M, e, c):
    """Composite cell size by a self-contained union-find over the raw
    relation set, sharing no code with the library quotient."""
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    D = N.source
    for d in D.objects:
        for n in N.elems(e, d):
            for m in M.elems(d, c):
                parent[(d, n, m)] = (d, n, m)
    for gamma in D.morphisms:
        d, d2 = D.src[gamma], D.dst[gamma]
        for n in N.elems(e, d2):
            for m in M.elems(d, c):
                a = find((d, N.ract[gamma][n], m))
                b = find((d2, n, M.lact[gamma][m]))
                if a != b:
                    parent[a] = b
    return len({find(g) for g in parent})


def test_criterion_04_block_calculus(capsys):
    failures = []
    nontrivial_middles = 0
    for seed in range(100):
        rng = rng_from_seed(3000 + seed)
        X = rand_diagram(rng, max_fiber_objects=2)
        G = grothendieck(X)
        if any(not G.total.is_identity(f) for f in G.total.morphisms):
            nontrivial_middles += 1
        C = rand_category(rng, 2)
        E = rand_category(rng, 2)
        N = rand_profunctor(rng, G.total, E, max_cell=3)
        M = rand_profunctor(rng, C, G.total, max_cell=3)
        rep = check_block_multiply(restrict_matrix(N, G, "source"),
                                   restrict_matrix(M, G, "target"))
        failures.extend(f"seed {seed}: {m}" for m in rep.failures)
        # independent recount of every composite cell
        composite = compose_profunctors(N, M)
        for e in E.objects:
            for c in C.objects:
                got = len(composite.elems(e, c))
                want = _oracle_cell_count(N, M, e, c)
                if got != want:
                    failures.append(
                        f"seed {seed}: cell ({e},{c}) has {got} classes, "
                        f"oracle says {want}")
    if not nontrivial_middles:
        failures.append("no instance had a non-identity middle morphism")

    # the documented example: one glued element against a count product of two
    I = standard_category("interval")
    pt = standard_category("discrete", 1)
    M = build_profunctor(pt, I, {("0", "0"): ["m0"], ("1", "0"): ["m1"]},
                         {"u": {"m0": "m1"}}, {})
    N = build_profunctor(I, pt, {("0", "0"): ["n0"], ("0", "1"): ["n1"]},
                         {}, {"u": {"n1": "n0"}})
    got, want = composite_vs_product(N, M)
    if (got.entry("0", "0"), want.entry("0", "0")) != (1, 2):
        failures.append(f"documented example got {got!r} vs {want!r}")
    if _oracle_cell_count(N, M, "0", "0") != 1:
        failures.append("oracle disagrees on the documented example")
    _finish(capsys, 4,
            f"block product equals the global gluing on 100 instances "
            f"({nontrivial_middles} with non-identity middles); documented "
            f"example collapses 2 generators to 1 per the union-find oracle",
            failures)


def test_criterion_05_absoluteness(capsys):
    failures = []
    for seed in range(50):
        rng = rng_from_seed(4000 + seed)
        X = rand_diagram(rng, max_fiber_objects=2)
        E = rand_category(rng, 3)
        rep = check_absoluteness(X, E)
        failures.extend(f"seed {seed}: {m}" for m in rep.failures)
    _finish(capsys, 5,
            "gluing commutes with padding every fiber by a fixed category, "
            "50 instances", failures)


def test_criterion_06_semiorthogonality(capsys):
    failures = []
    count = 0
    I = standard_category("interval")
    pt = standard_category("discrete", 1)
    fixtures = [hom_profunctor(I), build_profunctor(I, pt, {}, {}, {}),
                build_profunctor(pt, I,
                                 {("0", "0"): ["m0"], ("1", "0"): ["m1"]},
                                 {"u": {"m0": "m1"}}, {})]
    for seed in range(60):
        rng = rng_from_seed(5000 + seed)
        C = rand_category(rng, 4)
        D = rand_category(rng, 4)
        fixtures.append(rand_profunctor(rng, C, D, max_cell=4))
    for P in fixtures:
        count += 1
        failures.extend(f"instance {count}: {m}"
                        for m in check_semiorthogonal(P).failures)
    _finish(capsys, 6,
            f"empty backwards hom, fully faithful injections, triangular "
            f"blocks on all {count} generated collages", failures)


def test_criterion_07_signs(capsys):
    failures = []
    for seed in range(100):
        rng = rng_from_seed(6000 + seed)
        A, _ = rand_complex(rng)
        B, _ = rand_complex(rng)
        H = hom_complex(A, B)
        lo, hi = H.window if H.ranks else (0, -1)
        for n in range(lo, hi + 1):
            if not is_zero_matrix(H.diff(n) @ H.diff(n + 1)):
                failures.append(f"seed {seed}: delta squared nonzero at {n}")
        f = rand_chain_map(rng, A, B)
        Cf = cone(f).complex
        clo, chi = Cf.window if Cf.ranks else (0, -1)
        for n in range(clo, chi + 1):
            if not is_zero_matrix(Cf.diff(n) @ Cf.diff(n + 1)):
                failures.append(f"seed {seed}: cone d squared nonzero at {n}")
        if not star_multiply(cone_star_matrix(f), cone_star_matrix(f)).is_zero():
            failures.append(f"seed {seed}: unsigned star square nonzero")
    _finish(capsys, 7,
            "delta squared, cone differential squared, and the unsigned "
            "star square all vanish on 100 instances", failures)


def test_criterion_08_cone_quantities(capsys):
    failures = []
    Z = build_complex({0: 1}, {})
    two = build_chain_map(Z, Z, {0: [[2]]})
    groups = {n: h for n, h in homology_all(cone(two).complex).items()
              if not h.is_zero()}
    if (list(groups) != [0] or groups[0].free != 0
            or groups[0].torsion != (2,)):
        failures.append(f"cone of times-2 has homology {groups}")
    agreements = 0
    for seed in range(100):
        rng = rng_from_seed(7000 + seed)
        A, _ = rand_complex(rng)
        if not is_acyclic(cone(identity_chain_map(A)).complex):
            failures.append(f"seed {seed}: cone of the identity not acyclic")
        B, _ = rand_complex(rng)
        f = rand_chain_map(rng, A, B)
        if euler_char(cone(f).complex) != euler_char(B) - euler_char(A):
            failures.append(f"seed {seed}: euler characteristic not additive")
        g, expected = rand_quasi_iso_case(rng)
        direct = is_quasi_iso(g)
        via_cone = is_acyclic(cone(g).complex)
        if direct != via_cone:
            failures.append(f"seed {seed}: the two routes disagree")
        else:
            agreements += 1
        if direct != expected:
            failures.append(f"seed {seed}: expected {expected}, got {direct}")
    _finish(capsys, 8,
            f"cone(id) acyclic, cone(x2) is exactly Z/2 in degree 0, euler "
            f"additivity, and quasi-isomorphism routes agree on "
            f"{agreements} maps", failures)


def test_criterion_09_cone_universal_property(capsys):
    failures = []
    for seed in range(100):
        rng = rng_from_seed(8000 + seed)
        f, g, H = rand_universal_case(rng)
        phi = cone_from_data(f, g, H)  # build validates the chain square
        g2, H2 = cone_to_data(f, phi)
        if (g2, H2) != (g, H):
            failures.append(f"seed {seed}: to_data(from_data) moved the data")
        if cone_from_data(f, g2, H2) != phi:
            failures.append(f"seed {seed}: from_data(to_data) moved the map")
    _finish(capsys, 9,
            "factorizations through the cone and their (map, homotopy) data "
            "are exact mutual inverses on 100 triples", failures)


def test_criterion_10_smith_normal_form(capsys):
    failures = []
    dec = smith_normal_form([[2, 4], [6, 8]])
    if dec.diagonal() != [2, 4]:
        failures.append(f"frozen example gave {dec.diagonal()}")
    rng = rng_from_seed(9000)
    for i in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        dec = smith_normal_form(m)
        ver = dec.verify()
        if not ver.ok:
            failures.append(f"matrix {i}: {ver.failures[0]}")
            continue
        if abs(det_exact(dec.U)) != 1 or abs(det_exact(dec.V)) != 1:
            failures.append(f"matrix {i}: transform not unimodular")
        diag = dec.diagonal()
        if any(diag[k + 1] % diag[k] for k in range(len(diag) - 1) if diag[k]):
            failures.append(f"matrix {i}: divisibility chain broken")
    for i in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if smith_normal_form(m).diagonal() != snf_diagonal_naive(m):
            failures.append(f"small matrix {i}: oracle disagrees")
    _finish(capsys, 10,
            "U d V = S with unimodular transforms and divisibility on 500 "
            "matrices up to 8x8; naive oracle agrees on 200 up to 4x4",
            failures)


def test_criterion_11_decategorification(capsys):
    failures = []
    for seed in range(100):
        rng = rng_from_seed(10000 + seed)
        A = standard_category("discrete", rng.randint(1, 3))
        B = standard_category("discrete", rng.randint(1, 3))
        C = standard_category("discrete", rng.randint(1, 3))
        M = rand_profunctor(rng, A, B, max_cell=4)
        N = rand_profunctor(rng, B, C, max_cell=4)
        rep = check_discrete_multiplication(N, M)
        failures.extend(f"seed {seed}: {m}" for m in rep.failures)
    I = standard_category("interval")
    pt = standard_category("discrete", 1)
    M = build_profunctor(pt, I, {("0", "0"): ["m0"], ("1", "0"): ["m1"]},
                         {"u": {"m0": "m1"}}, {})
    N = build_profunctor(I, pt, {("0", "0"): ["n0"], ("0", "1"): ["n1"]},
                         {}, {"u": {"n1": "n0"}})
    got, want = composite_vs_product(N, M)
    if (got.entry("0", "0"), want.entry("0", "0")) != (1, 2):
        failures.append(
            f"negative example gave {got.entry('0', '0')} vs "
            f"{want.entry('0', '0')}, wanted 1 vs 2")
    _finish(capsys, 11,
            "discrete counting is multiplicative on 100 instances; the "
            "non-discrete example counts 1 against a product of 2", failures)


def test_criterion_12_cli_contract(capsys, tmp_path):
    failures = []

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "laxcat", *argv],
                              capture_output=True, text=True)

    I = standard_category("interval")
    pt = standard_category("discrete", 1)
    M = build_profunctor(pt, I, {("0", "0"): ["m0"], ("1", "0"): ["m1"]},
                         {"u": {"m0": "m1"}}, {})
    N = build_profunctor(I, pt, {("0", "0"): ["n0"], ("0", "1"): ["n1"]},
                         {}, {"u": {"n1": "n0"}})
    (tmp_path / "m.json").write_text(dumps_canonical(profunctor_to_json(M)))
    (tmp_path / "n.json").write_text(dumps_canonical(profunctor_to_json(N)))
    Z = build_complex({0: 1}, {})
    (tmp_path / "times2.json").write_text(
        dumps_canonical(chainmap_to_json(build_chain_map(Z, Z, {0: [[2]]}))))
    (tmp_path / "mat.json").write_text(dumps_canonical({"matrix": [[2, 4], [6, 8]]}))
    (tmp_path / "bad.json").write_text("{broken")

    ws = str(tmp_path)
    deterministic = [
        ("--workspace", ws, "compose", "n", "m"),
        ("--workspace", ws, "collage", "m"),
        ("--workspace", ws, "cone", "times2"),
        ("--workspace", ws, "snf", "mat"),
        ("check", "monoid-laws", "--randomized", "--count", "3", "--seed", "9"),
    ]
    for argv in deterministic:
        a, b = run(*argv), run(*argv)
        if a.returncode != 0:
            failures.append(f"{argv[-2]}: exit {a.returncode}: {a.stderr}")
        if (a.stdout, a.returncode) != (b.stdout, b.returncode):
            failures.append(f"{' '.join(argv)}: rerun differs")

    expected_codes = [
        (1, ("--workspace", ws, "check", "multiplicativity", "n", "m")),
        (2, ("--workspace", ws, "homology", "bad")),
        (2, ("--workspace", ws, "homology", "no-such-name")),
        (2, ("--workspace", ws, "compose", "n", "mat")),
        (2, ("not-a-command",)),
        (3, ("--workspace", ws, "--max-objects", "1", "collage", "m")),
    ]
    for want, argv in expected_codes:
        got = run(*argv).returncode
        if got != want:
            failures.append(f"{' '.join(argv)}: exit {got}, wanted {want}")
    _finish(capsys, 12,
            "byte-identical reruns for 5 commands; failure paths exit with "
            "the declared codes 1/2/3", failures)
