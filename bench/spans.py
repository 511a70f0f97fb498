"""In-process tracing of laxcat's public functions, from outside the package.

Tracer.install() replaces each public function of the traced modules by a
wrapper that records a span (name, start, end, parent) in memory.  A
function is replaced in every laxcat namespace that bound it (cli imports
`smith_normal_form` by name, for example) and in jsonio.LOADERS.  A few
wrappers also compute size counters from arguments and results; the time
spent counting is recorded as a `trace.count` span, so it is charged to
no layer.  uninstall() puts the originals back.
"""

import inspect
import json
import sys
import time

import laxcat.cli
import laxcat.jsonio
import laxcat.k0chain

MODULES = ("cli", "jsonio", "fincat", "profunctor", "collage", "k0chain",
           "decat", "rand")
# cheap helpers called inside inner loops: wrapping them would trace the
# tracer; their time stays with their caller
UNTRACED = {"k0chain.as_matrix", "k0chain.zeros", "k0chain.eye", "k0chain.mat_eq",
            "k0chain.is_zero_matrix", "rand.rng_from_seed", "decat.is_discrete"}

# per-layer time metrics: the self time of these spans, summed
TIME_METRICS = {
    "cli.main_self_s": {"cli.main"},
    "jsonio.load_s": {"jsonio.parse", "jsonio.sniff_kind", "jsonio.category_from_json",
                      "jsonio.functor_from_json", "jsonio.profunctor_from_json",
                      "jsonio.diagram_from_json", "jsonio.complex_from_json",
                      "jsonio.chainmap_from_json", "jsonio.tower_from_json",
                      "jsonio.matrix_from_json"},
    "jsonio.dump_s": {"jsonio.dumps_canonical", "jsonio.category_to_json",
                      "jsonio.functor_to_json", "jsonio.profunctor_to_json",
                      "jsonio.diagram_to_json", "jsonio.complex_to_json",
                      "jsonio.chainmap_to_json", "jsonio.homology_to_json",
                      "jsonio.snf_to_json", "jsonio.collage_to_json"},
    "fincat.build_category_s": {"fincat.build_category"},
    "fincat.product_s": {"fincat.product"},
    "profunctor.build_profunctor_s": {"profunctor.build_profunctor"},
    "profunctor.compose_s": {"profunctor.compose_with_pairing",
                             "profunctor.compose_profunctors"},
    "profunctor.natural_iso_s": {"profunctor.is_natural_iso",
                                 "profunctor.naturality_report",
                                 "profunctor.build_protransformation"},
    "collage.collage_s": {"collage.collage_of_profunctor"},
    "collage.grothendieck_s": {"collage.grothendieck"},
    "collage.block_multiply_s": {"collage.block_multiply", "collage.restrict_matrix"},
    "collage.semiorthogonal_s": {"collage.check_semiorthogonal",
                                 "collage.identity_block_decomposition"},
    "k0chain.snf_s": {"k0chain.smith_normal_form"},
    "k0chain.verify_s": {"k0chain.verify", "k0chain.det_exact"},
    "k0chain.homology_s": {"k0chain.homology", "k0chain.homology_all",
                           "k0chain.is_acyclic"},
    "k0chain.quasi_iso_s": {"k0chain.is_quasi_iso", "k0chain.kernel_basis"},
    "k0chain.construct_s": {"k0chain.cone", "k0chain.hom_complex",
                            "k0chain.hom_complex_with_basis", "k0chain.hom_basis",
                            "k0chain.tot", "k0chain.build_complex",
                            "k0chain.build_chain_map", "k0chain.shift",
                            "k0chain.direct_sum"},
    "decat.check_s": {"decat.*"},
    "rand.generate_s": {"rand.*"},
}
# every per-layer metric of a traced run, with its unit
UNITS = {"cli.import_ms": "ms", **{k: "s" for k in TIME_METRICS},
         "jsonio.bytes_in": "bytes", "jsonio.bytes_out": "bytes",
         "fincat.build_category_calls": "count", "fincat.triples_checked": "count",
         "profunctor.generators": "count", "profunctor.relations": "count",
         "profunctor.merge_yield": "ratio", "k0chain.snf_calls": "count",
         "k0chain.snf_cells": "count", "k0chain.snf_max_bits": "bits",
         "trace.overhead_pct": "%"}
# counters printed next to each operation of the traced pass
SHOWN_PER_OP = ("fincat.triples_checked", "profunctor.generators",
                "profunctor.relations", "k0chain.snf_cells", "k0chain.snf_max_bits")
COUNTERS = ("jsonio.bytes_in", "jsonio.bytes_out", "fincat.build_category_calls",
            "fincat.triples_checked", "profunctor.generators",
            "profunctor.relations", "profunctor.classes", "k0chain.snf_calls",
            "k0chain.snf_cells", "k0chain.snf_max_bits")


# -- counters, computed from arguments and results -----------------------------------

def _count_category(counts, args, result):
    """Composable triples (f, g, h), the associativity scan's work."""
    into, out_of = {}, {}
    for m in result.morphisms:
        into[result.dst[m]] = into.get(result.dst[m], 0) + 1
        out_of[result.src[m]] = out_of.get(result.src[m], 0) + 1
    counts["fincat.build_category_calls"] += 1
    counts["fincat.triples_checked"] += sum(
        into.get(result.src[g], 0) * out_of.get(result.dst[g], 0)
        for g in result.morphisms)


def _count_coend(counts, args, result):
    N, M = args[0], args[1]
    D = M.target
    out_n = {d: sum(len(N.elements[(e, d)]) for e in N.target.objects)
             for d in D.objects}
    out_m = {d: sum(len(M.elements[(d, c)]) for c in M.source.objects)
             for d in D.objects}
    counts["profunctor.generators"] += sum(out_n[d] * out_m[d] for d in D.objects)
    counts["profunctor.relations"] += sum(
        out_n[D.dst[g]] * out_m[D.src[g]] for g in D.morphisms if not D.is_identity(g))
    counts["profunctor.classes"] += result.profunctor.total_size()


def _count_block(counts, args, result):
    """Generators and unions of the blockwise gluing: fiber arrows inside
    each entry and shape transitions between entries."""
    N, M = args[0], args[1]
    G = N.collage
    S = G.shape

    def outer(P, cell_of):
        return {x: sum(len(es) for cell, es in P.elements.items() if cell_of(cell) == x)
                for x in P.source.objects + P.target.objects}

    gens = rels = 0
    for s in S.objects:
        Cs = G.fiber[s]
        n_at = outer(N.entries[s], lambda cell: cell[1])
        m_at = outer(M.entries[s], lambda cell: cell[0])
        gens += sum(n_at[x] * m_at[x] for x in Cs.objects)
        rels += sum(n_at[Cs.dst[f]] * m_at[Cs.src[f]]
                    for f in Cs.morphisms if not Cs.is_identity(f))
    for gamma in S.morphisms:
        if S.is_identity(gamma):
            continue
        s, t = S.src[gamma], S.dst[gamma]
        F = G.diagram.transition[gamma]
        n_at = outer(N.entries[t], lambda cell: cell[1])
        m_at = outer(M.entries[s], lambda cell: cell[0])
        rels += sum(n_at[F.obmap[x]] * m_at[x] for x in G.fiber[s].objects)
    counts["profunctor.generators"] += gens
    counts["profunctor.relations"] += rels
    counts["profunctor.classes"] += result.profunctor.total_size()


def _count_snf(counts, args, result):
    counts["k0chain.snf_calls"] += 1
    counts["k0chain.snf_cells"] += result.S.shape[0] * result.S.shape[1]
    bits = max((abs(int(v)).bit_length() for M in (result.U, result.S, result.V)
                for v in M.flat), default=0)
    counts["k0chain.snf_max_bits"] = max(counts["k0chain.snf_max_bits"], bits)


def _count_dump(counts, args, result):
    counts["jsonio.bytes_out"] += len(result)


def _count_parse(counts, args, result):
    counts["jsonio.bytes_in"] += len(args[0])


COUNTED = {"fincat.build_category": _count_category,
           "profunctor.compose_with_pairing": _count_coend,
           "collage.block_multiply": _count_block,
           "k0chain.smith_normal_form": _count_snf,
           "jsonio.dumps_canonical": _count_dump,
           "jsonio.parse": _count_parse}


class _JsonWithTracedLoads:
    """Stands in for the json module inside laxcat.cli, which parses input
    files itself before handing them to the jsonio loaders."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


# -- the tracer ----------------------------------------------------------------------

class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._patches = []

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.update(dict.fromkeys(COUNTERS, 0))

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        counter = COUNTED.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
                spans.append(["trace.count", span[2], clock(), parent])
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        loaded = [sys.modules[k] for k in list(sys.modules)
                  if k == "laxcat" or k.startswith("laxcat.")]
        for short in MODULES:
            mod = sys.modules[f"laxcat.{short}"]
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or attr.startswith("_") or name in UNTRACED
                        or (short == "cli" and attr != "main")):
                    continue
                wrapped = self.wrap(name, fn)
                for other in loaded:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, key, wrapped)
                for kind, loader in list(laxcat.jsonio.LOADERS.items()):
                    if loader is fn:
                        self._patch_item(laxcat.jsonio.LOADERS, kind, wrapped)
        SD = laxcat.k0chain.SmithDecomposition
        self._patch(SD, "verify", self.wrap("k0chain.verify", SD.verify))
        self._patch(laxcat.cli, "json",
                    _JsonWithTracedLoads(self.wrap("jsonio.parse", json.loads)))

    def _patch_item(self, table, key, new):
        self._patches.append((table, key, table[key]))
        table[key] = new

    def uninstall(self):
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches = []

    # -- reading the spans back ----------------------------------------------------

    def self_times(self, lo=0, hi=None):
        """Self time per span name over spans[lo:hi]: duration minus the
        durations of its direct children.  The range must hold whole
        trees, as the spans of one command do."""
        chunk = self.spans[lo:hi]
        child = [0.0] * len(chunk)
        for name, start, end, parent in chunk:
            if parent >= lo:
                child[parent - lo] += end - start
        out = {}
        for (name, start, end, _), inner in zip(chunk, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out


def sum_counts(parts):
    """Counters of several operations: sums, except the largest entry."""
    total = dict.fromkeys(COUNTERS, 0)
    for part in parts:
        for key, value in part.items():
            if key == "k0chain.snf_max_bits":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    return total


def layer_metrics(self_times, counts):
    """The per-layer metrics of one traced pass."""
    out = {}
    for metric, names in TIME_METRICS.items():
        total = 0.0
        for name, t in self_times.items():
            module = name.split(".")[0] + ".*"
            if name in names or module in names:
                total += t
        out[metric] = total
    for key in COUNTERS:
        if key != "profunctor.classes":
            out[key] = counts[key]
    rel = counts["profunctor.relations"]
    merged = counts["profunctor.generators"] - counts["profunctor.classes"]
    out["profunctor.merge_yield"] = merged / rel if rel else 0.0
    return out


def module_split(self_times):
    """Self time per module; `trace` is the counters' own time."""
    out = {}
    for name, t in self_times.items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + t
    return out
