#!/usr/bin/env python3
"""In-process size ladder of the kernels that dominate the `tables` and
`chains` workloads: validation of a collage total, of a finite group loaded
from JSON and of a hom profunctor, the coend composite of a finite group's
hom profunctor with itself, the monoid-laws check, Smith normal form
(elimination, and the self-check `SmithDecomposition.verify`), and the
chain-map constructions.

    python3 tools/ladder.py [SRC] [--repeats 5]

SRC is the laxcat source tree to import (default: ./src), so the same script
times any checkout.  Inputs are those of `bench/run.py --seed 1`: for
`tables`, hom(Δa×Δb) (its collage total and the profunctor itself) and the
seed-1 groups of orders 12, 24 and 36 (their hom profunctors validated and
composed with themselves, and the check of `laxcat check monoid-laws` on
the groups); for `chains`, the seed-1 matrices of sizes 16, 32, 48 and 56
(entries in [-5, 5]).  To show the scaling past the workload, the ladder
also loads, through `category_from_json`, the groups that the workload's
`abelian_group` draws from one seed-1 generator for orders 60, 120 and 240,
and eliminates one 64×64 matrix drawn at seed 64.  Each timed
`build_profunctor` call gets a fresh, unvalidated copy of the category, so
no per-category cache outlives a repeat.  The chain-map rungs run over the
ten `rand_universal_case` draws (f, g, H) of seeds 0-9: `build_chain_map`
of f and of g, `cone(f)`, and the round trip
`cone_to_data(f, cone_from_data(f, g, H))`.  The start-up rungs time a
fresh `python -m laxcat` process end to end for `--help`, `compose` of two
small profunctors, `snf` of a 3×3 matrix and `check monoid-laws
--randomized --count 1`, each from a copy of SRC without bytecode (every
imported module is compiled on each call, as in a checkout run with
PYTHONDONTWRITEBYTECODE=1) and from a `compileall`ed copy.  Prints one JSON
object of per-rung medians in milliseconds.
"""

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(1000 * (time.perf_counter() - t0))
    return statistics.median(times)


def startup_ms(src, repeats):
    """Median wall time of fresh `python -m laxcat` commands, from a copy
    of src without bytecode and from a byte-compiled one."""
    from laxcat.fincat import standard_category
    from laxcat.jsonio import dumps_canonical, profunctor_to_json
    from laxcat.profunctor import build_profunctor
    pt, two = standard_category("discrete", 1), standard_category("discrete", 2)
    docs = {"m": build_profunctor(pt, two, {("0", "0"): ["a"],
                                            ("1", "0"): ["b", "c"]}, {}, {}),
            "n": build_profunctor(two, pt, {("0", "0"): ["x"],
                                            ("0", "1"): ["y"]}, {}, {})}
    commands = {"help": ["--help"], "compose": ["compose", "n", "m"],
                "snf": ["snf", "mat"],
                "check_monoid_laws": ["check", "monoid-laws", "--randomized",
                                      "--count", "1"]}
    out = {name: {} for name in commands}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, P in docs.items():
            (tmp / f"{name}.json").write_text(
                dumps_canonical(profunctor_to_json(P)))
        (tmp / "mat.json").write_text("[[2, 4, 1], [6, 8, 3], [1, 1, 1]]")
        for mode in ("pycache_free", "compiled"):
            copy = tmp / mode
            shutil.copytree(Path(src) / "laxcat", copy / "laxcat",
                            ignore=shutil.ignore_patterns("__pycache__"))
            if mode == "compiled":
                compileall.compile_dir(copy, quiet=1)
            env = dict(os.environ, PYTHONPATH=str(copy),
                       PYTHONDONTWRITEBYTECODE="1")
            for name, argv in commands.items():
                run = [sys.executable, "-m", "laxcat", "--workspace", str(tmp),
                       "--out", str(tmp / "out.json"), *argv]

                # with stderr piped, run() returns on its end of file, at
                # exit; with no pipe, wait(timeout) polls in steps of up
                # to 50 ms, which would quantize the times
                def call():
                    subprocess.run(run, env=env, check=True, timeout=60,
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.PIPE)
                out[name][mode] = median_ms(call, repeats)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(ROOT / "bench"))
    from laxcat.cli import _check_monoid_laws
    from laxcat.collage import collage_of_profunctor
    from laxcat.fincat import (FinCategory, build_category, product,
                               standard_category)
    from laxcat.jsonio import category_from_json
    from laxcat.k0chain import (build_chain_map, cone, cone_from_data,
                                cone_to_data, smith_normal_form)
    from laxcat.profunctor import (build_profunctor, compose_with_pairing,
                                   hom_profunctor)
    from laxcat.rand import rand_universal_case, rng_from_seed
    from workloads import (HOM_LADDER, MONOID_LADDER, SNF_LADDER,
                           abelian_group, random_matrix)

    def rebuild_hom(H):
        C = H.source
        fresh = FinCategory(C.objects, C.morphisms, C.src, C.dst,
                            C.identity, C.comp)
        return build_profunctor(fresh, fresh, H.elements, H.lact, H.ract)

    out = {"build_category_ms": {}, "category_load_ms": {},
           "build_profunctor_ms": {}, "compose_group_hom_ms": {},
           "monoid_laws_ms": {}, "snf_elimination_ms": {},
           "snf_verify_ms": {}, "chain_maps_ms": {},
           "startup_ms": startup_ms(args.src, args.repeats)}
    for a, b in HOM_LADDER:
        square = product(standard_category("simplex", a),
                         standard_category("simplex", b))
        T = collage_of_profunctor(hom_profunctor(square)).total
        out["build_category_ms"][f"collage_hom_{a}x{b}"] = {
            "morphisms": len(T.morphisms),
            "median": median_ms(lambda: build_category(
                T.objects, T.morphisms, T.src, T.dst, T.identity, T.comp),
                args.repeats)}
        H = hom_profunctor(square)
        out["build_profunctor_ms"][f"hom_{a}x{b}"] = {
            "elements": H.total_size(),
            "median": median_ms(lambda: rebuild_hom(H), args.repeats)}
    rng = random.Random(1)
    for order in (60, 120, 240):
        doc = abelian_group(rng, order)
        out["category_load_ms"][f"group_{order}"] = {
            "median": median_ms(lambda: category_from_json(doc), args.repeats)}
    rng = random.Random(1)
    for order in MONOID_LADDER:
        C = category_from_json(abelian_group(rng, order))
        H = hom_profunctor(C)
        out["build_profunctor_ms"][f"group_{order}"] = {
            "elements": H.total_size(),
            "median": median_ms(lambda: rebuild_hom(H), args.repeats)}
        out["compose_group_hom_ms"][f"group_{order}"] = {
            "median": median_ms(lambda: compose_with_pairing(H, H), args.repeats)}
        out["monoid_laws_ms"][f"group_{order}"] = {
            "median": median_ms(lambda: _check_monoid_laws(C), args.repeats)}
    rng = random.Random(1)
    for n in SNF_LADDER + (64,):
        mat = random_matrix(random.Random(64) if n == 64 else rng, n)
        dec = smith_normal_form(mat)
        if not dec.verify().ok:
            raise SystemExit(f"snf_{n}: the decomposition fails verification")
        bits = max(abs(v).bit_length() for m in (dec.U, dec.V) for v in m.flat)
        out["snf_elimination_ms"][f"n_{n}"] = {
            "transform_max_bits": bits,
            "median": median_ms(lambda: smith_normal_form(mat), args.repeats)}
        out["snf_verify_ms"][f"n_{n}"] = {
            "median": median_ms(dec.verify, args.repeats)}
    cases = [rand_universal_case(rng_from_seed(seed)) for seed in range(10)]
    rungs = {
        "build_chain_map": lambda f, g, H: [
            build_chain_map(m.source, m.target, m.matrices) for m in (f, g)],
        "cone": lambda f, g, H: cone(f),
        "cone_data_roundtrip": lambda f, g, H: cone_to_data(
            f, cone_from_data(f, g, H)),
    }
    for name, run in rungs.items():
        out["chain_maps_ms"][name] = {"median": median_ms(
            lambda: [run(*case) for case in cases], args.repeats)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
