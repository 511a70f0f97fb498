#!/usr/bin/env python3
"""In-process size ladder of the kernels that dominate the `tables` and
`chains` workloads: the collage of a hom profunctor and the validation of
its total, the loading of the hom profunctor from JSON, the validation of
a finite group loaded from JSON and of a hom profunctor, the coend
composite of a finite group's hom profunctor with itself, the Grothendieck
total, the lax-matrix assembly and the blockwise coend of a diagram, the
monoid-laws and cocontinuity checks, Smith normal form (elimination, and
the self-check `SmithDecomposition.verify`), and the chain-map
constructions.

    python3 tools/ladder.py [SRC] [--repeats 5]

SRC is the laxcat source tree to import (default: ./src), so the same
script times any checkout.  Inputs are those of `bench/run.py --seed 1`:
for `tables`, hom(Δa×Δb) (`collage_of_profunctor` of it, the validation of
that collage total, `profunctor_from_json` of its document and the
profunctor's own validation) and the seed-1 groups of orders 12, 24 and 36
(their hom profunctors validated and composed with themselves, and the
check of `laxcat check monoid-laws` on the groups); for `chains`, the
seed-1 matrices of sizes 16, 32, 48 and 56 (entries in [-5, 5]).  The
check of `laxcat check cocontinuity` runs on the triple (H, H, H) for
H = hom(Δk), k = 2, 3, 4.  The diagram rungs time `grothendieck`,
`assemble_matrix` and `block_multiply` on the interval-shaped diagram with
fibers Δ2×Δk and Δ3×Δk, k = 1, 2, 3, and transition F×id for the face map
F: Δ2 -> Δ3 that skips 1 (product fibers, as in the workload's
`prod_diagram`); the hom profunctor of the total, cut into blocks on both
sides, is assembled back from each side's blocks, and the block product
squares it.  To show the scaling past the workload, the ladder also loads, through
`category_from_json`, the groups that the workload's `abelian_group` draws
from one seed-1 generator for orders 60, 120 and 240, and eliminates one
64×64 matrix drawn at seed 64.  Each timed `build_profunctor` call gets a
fresh, unvalidated copy of the category, so no per-category cache outlives
a repeat.  The chain-map rungs run over the ten `rand_universal_case` draws
(f, g, H) of seeds 0-9: `build_chain_map` of f and of g, `cone(f)`, and the
round trip `cone_to_data(f, cone_from_data(f, g, H))`.  The canonical-dump
rungs encode the seed-1 `snf` documents of sizes 32, 48, 56 and 64 (the
last from the seed-64 matrix), the collage documents of the hom ladder and
the output documents of a whole seed-1 `tables` pass, each read back from
its `--out` file, by two routes into a counting sink: the reference
`json.dumps(doc, sort_keys=True, indent=2) + "\n"`, one string built whole,
and `jsonio.write_canonical` where SRC has it, the same encoder's
`iterencode` tokens handed on in 64 KiB pieces; `canonical_dump_ms` is the
median time and `canonical_dump_peak_kib` the tracemalloc peak of the
largest document's encoding.  The start-up rungs time a fresh `python -m
laxcat` process end to end for `--help`, `compose` of two small
profunctors, `snf` of a 3×3 matrix and `check monoid-laws --randomized
--count 1`, each from a copy of SRC without bytecode (every imported module
is compiled on each call, as in a checkout run with
PYTHONDONTWRITEBYTECODE=1) and from a `compileall`ed copy.  The
`snf_peak_rss_mb` rung is the peak resident set, in MB, of one fresh
`python -m laxcat snf` of the matrices of sizes 48, 56 and 64 (those of
the elimination rungs), each started by `bench/launcher.py`, the small
parent the benchmark measures through, from the copy without bytecode;
the `collage_peak_rss_mb` rung is the same for `collage` of the hom
documents of the ladder, under the caps the workload gives them, and the
`check_peak_rss_mb` rung for `check cocontinuity --randomized --count 60
--seed 3`, which reads no input.  The `cyclic_garbage` rung runs `check
absoluteness` and `check bilimit-roundtrip --randomized --count 10 --seed
3` through `laxcat.cli.main` in this process with the cyclic collector
off, and counts the objects that `gc.collect()` then frees; argparse's
parser alone leaves about 436.  Prints one JSON object of per-rung
medians in milliseconds (in MB for the three `_peak_rss_mb` rungs, in
objects for `cyclic_garbage`).
"""

import argparse
import compileall
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(1000 * (time.perf_counter() - t0))
    return statistics.median(times)


def src_copy(src, dest, compiled):
    """A copy of src's laxcat package under dest, without bytecode or
    byte-compiled; returns dest, the directory to put on PYTHONPATH."""
    shutil.copytree(Path(src) / "laxcat", dest / "laxcat",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if compiled:
        compileall.compile_dir(dest, quiet=1)
    return dest


def env_for(copy):
    return dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")


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
            env = env_for(src_copy(src, tmp / mode, mode == "compiled"))
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


def peak_rss_mb(src, runs, repeats):
    """Median peak RSS, in MB, of one fresh `python -m laxcat ARGS PATH`
    for each named run (ARGS, doc), PATH holding doc (no PATH where doc is
    None), started by bench/launcher.py from a copy of src without
    bytecode."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        env = env_for(src_copy(src, tmp / "pycache_free", False))
        for name, (args, doc) in runs.items():
            argv = ["--out", str(tmp / "out.json"), *args]
            if doc is not None:
                path = tmp / f"{name}.json"
                path.write_text(json.dumps(doc, sort_keys=True))
                argv.append(str(path))
            peaks = []
            for _ in range(repeats):
                p = subprocess.run(
                    [sys.executable, str(ROOT / "bench" / "launcher.py")],
                    input=json.dumps(argv) + "\n", env=env, check=True,
                    capture_output=True, text=True, timeout=300)
                reply, rss = map(json.loads, p.stdout.splitlines())
                if reply["code"] != 0:
                    raise SystemExit(f"{name}: {reply['err']}")
                peaks.append(rss["maxrss_kb"] / 1024)
            out[name] = {"median": statistics.median(peaks)}
    return out


def cyclic_garbage(main):
    """The objects that gc.collect() frees after each in-process check,
    run with the cyclic collector off."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for prop in ("absoluteness", "bilimit-roundtrip"):
            gc.collect()
            gc.disable()
            try:
                code = main(["--out", str(Path(tmp) / "out.json"), "check",
                             prop, "--randomized", "--count", "10",
                             "--seed", "3"])
            finally:
                freed = gc.collect()
                gc.enable()
            if code != 0:
                raise SystemExit(f"check {prop} exited {code}")
            out[f"check_{prop.replace('-', '_')}"] = freed
    return out


def dump_routes(jsonio):
    """The routes that encode a document into write, by name."""
    routes = {"json_dumps": lambda doc, write: write(
        json.dumps(doc, sort_keys=True, indent=2) + "\n")}
    if hasattr(jsonio, "write_canonical"):
        routes["write_canonical"] = jsonio.write_canonical
    return routes


def dump_rungs(out, name, docs, routes, repeats):
    """Time each route over docs into a sink that only counts, and take the
    tracemalloc peak of each route on the largest document."""
    written = [0]

    def count(piece):
        written[0] += len(piece)

    rung = {}
    for route, encode in routes.items():
        written[0] = 0
        rung[route] = median_ms(lambda: [encode(d, count) for d in docs],
                                repeats)
    out["canonical_dump_ms"][name] = {"chars": written[0] // repeats, **rung}
    largest = max(docs, key=lambda d: len(json.dumps(d)))
    peaks = {}
    for route, encode in routes.items():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            encode(largest, count)
            peaks[route] = (tracemalloc.get_traced_memory()[1] - base) / 1024
        finally:
            tracemalloc.stop()
    out["canonical_dump_peak_kib"][name] = peaks


def tables_outputs():
    """The output documents of one seed-1 pass of the `tables` workload,
    each run by laxcat.cli.main and read back from its --out file."""
    from laxcat.cli import main
    from workloads import Workspace, tables
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        ws = Workspace(Path(tmp))
        (ws.root / "out").mkdir()
        for op in tables(1, ws):
            main(["--workspace", tmp, "--out", ws.out(op.name),
                  "--max-objects", str(op.caps[0]),
                  "--max-elements", str(op.caps[1]), *op.args])
            path = Path(ws.out(op.name))
            if path.is_file():
                docs.append(json.loads(path.read_text()))
    return docs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(ROOT / "bench"))
    # looked up through the property table, which names the checks in
    # every tree this script times
    from laxcat.cli import CHECKS, main as laxcat_main

    def check(prop):
        _, module, name = CHECKS[prop]
        return getattr(import_module(f"laxcat.{module}"), name)
    check_monoid_laws = check("monoid-laws")
    check_cocontinuity = check("cocontinuity")
    from laxcat.collage import (assemble_matrix, block_multiply,
                                build_diagram, collage_of_profunctor,
                                grothendieck, restrict_matrix)
    from laxcat.fincat import (CatFunctor, FinCategory, build_category,
                               product, standard_category)
    import laxcat.jsonio
    from laxcat.jsonio import (category_from_json, collage_to_json,
                               profunctor_from_json, profunctor_to_json,
                               snf_to_json)
    from laxcat.k0chain import (build_chain_map, cone, cone_from_data,
                                cone_to_data, smith_normal_form)
    from laxcat.profunctor import (build_profunctor, compose_with_pairing,
                                   hom_profunctor)
    from laxcat.rand import rand_universal_case, rng_from_seed
    from workloads import (HOM_LADDER, MONOID_LADDER, SNF_LADDER,
                           abelian_group, caps_of, random_matrix)

    def rebuild_hom(H):
        C = H.source
        fresh = FinCategory(C.objects, C.morphisms, C.src, C.dst,
                            C.identity, C.comp)
        return build_profunctor(fresh, fresh, H.elements, H.lact, H.ract)

    out = {"build_category_ms": {}, "category_load_ms": {},
           "collage_ms": {}, "profunctor_load_ms": {},
           "build_profunctor_ms": {}, "compose_group_hom_ms": {},
           "monoid_laws_ms": {}, "cocontinuity_ms": {},
           "snf_elimination_ms": {},
           "snf_verify_ms": {}, "chain_maps_ms": {},
           "grothendieck_ms": {}, "assemble_matrix_ms": {},
           "block_multiply_ms": {},
           "canonical_dump_ms": {}, "canonical_dump_peak_kib": {},
           "startup_ms": startup_ms(args.src, args.repeats),
           "cyclic_garbage": cyclic_garbage(laxcat_main)}
    routes = dump_routes(laxcat.jsonio)
    # exact SNF transforms outgrow the default int -> str digit limit, as
    # the command line allows them to
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    collage_runs = {}
    for a, b in HOM_LADDER:
        square = product(standard_category("simplex", a),
                         standard_category("simplex", b))
        H = hom_profunctor(square)
        G = collage_of_profunctor(H)
        out["collage_ms"][f"hom_{a}x{b}"] = {
            "morphisms": len(G.total.morphisms),
            "median": median_ms(lambda: collage_of_profunctor(H),
                                args.repeats)}
        doc = profunctor_to_json(H)
        objects, elements = caps_of(doc)
        collage_runs[f"hom_{a}x{b}"] = (
            ["--max-objects", str(objects), "--max-elements", str(elements),
             "collage"], doc)
        out["profunctor_load_ms"][f"hom_{a}x{b}"] = {
            "median": median_ms(lambda: profunctor_from_json(doc),
                                args.repeats)}
        dump_rungs(out, f"collage_hom_{a}x{b}", [collage_to_json(G)], routes,
                   args.repeats)
        T = G.total
        out["build_category_ms"][f"collage_hom_{a}x{b}"] = {
            "morphisms": len(T.morphisms),
            "median": median_ms(lambda: build_category(
                T.objects, T.morphisms, T.src, T.dst, T.identity, T.comp),
                args.repeats)}
        out["build_profunctor_ms"][f"hom_{a}x{b}"] = {
            "elements": H.total_size(),
            "median": median_ms(lambda: rebuild_hom(H), args.repeats)}
    I, S0, S1 = (standard_category("interval"), standard_category("simplex", 2),
                 standard_category("simplex", 3))
    face = {"0": "0", "1": "2", "2": "3"}
    for k in (1, 2, 3):
        Q = standard_category("simplex", k)
        T = CatFunctor(product(S0, Q), product(S1, Q),
                       {f"({x},{q})": f"({face[x]},{q})"
                        for x in S0.objects for q in Q.objects},
                       {f"({f},{g})": f"({face[S0.src[f]]}<={face[S0.dst[f]]},{g})"
                        for f in S0.morphisms for g in Q.morphisms})
        X = build_diagram(I, {"0": T.source, "1": T.target}, {"u": T})
        G = grothendieck(X)
        out["grothendieck_ms"][f"simplex_2x{k}"] = {
            "morphisms": len(G.total.morphisms),
            "median": median_ms(lambda: grothendieck(X), args.repeats)}
        H = hom_profunctor(G.total)
        N, M = restrict_matrix(H, G, "source"), restrict_matrix(H, G, "target")
        out["assemble_matrix_ms"][f"simplex_2x{k}"] = {
            side: median_ms(lambda: assemble_matrix(data), args.repeats)
            for side, data in (("source", N), ("target", M))}
        out["block_multiply_ms"][f"simplex_2x{k}"] = {
            "median": median_ms(lambda: block_multiply(N, M), args.repeats)}
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
            "median": median_ms(lambda: check_monoid_laws(C), args.repeats)}
    for k in (2, 3, 4):
        H = hom_profunctor(standard_category("simplex", k))
        out["cocontinuity_ms"][f"simplex_{k}"] = {
            "elements": H.total_size(),
            "median": median_ms(lambda: check_cocontinuity(H, H, H),
                                args.repeats)}
    rng = random.Random(1)
    snf_runs = {}
    for n in SNF_LADDER + (64,):
        mat = random_matrix(random.Random(64) if n == 64 else rng, n)
        if n >= 48:
            snf_runs[f"n_{n}"] = (["snf"], {"matrix": mat})
        dec = smith_normal_form(mat)
        if not dec.verify().ok:
            raise SystemExit(f"snf_{n}: the decomposition fails verification")
        bits = max(abs(v).bit_length() for m in (dec.U, dec.V) for v in m.flat)
        out["snf_elimination_ms"][f"n_{n}"] = {
            "transform_max_bits": bits,
            "median": median_ms(lambda: smith_normal_form(mat), args.repeats)}
        out["snf_verify_ms"][f"n_{n}"] = {
            "median": median_ms(dec.verify, args.repeats)}
        if n >= 32:
            dump_rungs(out, f"snf_{n}", [snf_to_json(dec)], routes,
                       args.repeats)
    out["snf_peak_rss_mb"] = peak_rss_mb(args.src, snf_runs, args.repeats)
    out["collage_peak_rss_mb"] = peak_rss_mb(args.src, collage_runs,
                                             args.repeats)
    out["check_peak_rss_mb"] = peak_rss_mb(args.src, {
        "cocontinuity_60": (["check", "cocontinuity", "--randomized",
                             "--count", "60", "--seed", "3"], None)},
        args.repeats)
    dump_rungs(out, "tables_outputs", tables_outputs(), routes,
               args.repeats)
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
