#!/usr/bin/env python3
"""In-process size ladder of the two kernels that dominate the `tables`
workload: full validation of a collage total, and the coend composite of a
finite group's hom profunctor with itself.

    python3 tools/ladder.py [SRC] [--repeats 5]

SRC is the laxcat source tree to import (default: ./src), so the same script
times any checkout.  Inputs are those of `bench/run.py --workload tables
--seed 1`: the collage totals of hom(Δa×Δb) and the seed-1 groups of orders
12, 24 and 36.  Prints one JSON object of per-rung medians in milliseconds.
"""

import argparse
import json
import random
import statistics
import sys
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(ROOT / "bench"))
    from laxcat.collage import collage_of_profunctor
    from laxcat.fincat import build_category, product, standard_category
    from laxcat.jsonio import category_from_json
    from laxcat.profunctor import compose_with_pairing, hom_profunctor
    from workloads import HOM_LADDER, MONOID_LADDER, abelian_group

    out = {"build_category_ms": {}, "compose_group_hom_ms": {}}
    for a, b in HOM_LADDER:
        square = product(standard_category("simplex", a),
                         standard_category("simplex", b))
        T = collage_of_profunctor(hom_profunctor(square)).total
        out["build_category_ms"][f"collage_hom_{a}x{b}"] = {
            "morphisms": len(T.morphisms),
            "median": median_ms(lambda: build_category(
                T.objects, T.morphisms, T.src, T.dst, T.identity, T.comp),
                args.repeats)}
    rng = random.Random(1)
    for order in MONOID_LADDER:
        H = hom_profunctor(category_from_json(abelian_group(rng, order)))
        out["compose_group_hom_ms"][f"group_{order}"] = {
            "median": median_ms(lambda: compose_with_pairing(H, H), args.repeats)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
