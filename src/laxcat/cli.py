"""Command line front end.

Inputs are JSON files: either paths ending in .json or bare names looked
up as NAME.json inside --workspace.  Every command writes a single JSON
document (stdout by default, --out FILE otherwise) produced with sorted
keys and fixed indentation, so equal inputs give byte-equal outputs.

Exit codes: 0 success, 1 a checked property failed, 2 invalid input or
usage, 3 an input breached the size caps, 4 an internal error (a failed
result guard or a bug), reported in one line, with the traceback only
under --debug.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module
from pathlib import Path

# each command imports the layer it runs.  decat loads no layer and is
# imported here, because in-process callers that wrap laxcat's functions
# (bench/spans.py) expect laxcat.decat loaded once laxcat.cli is
from . import decat  # noqa: F401
from .errors import CapExceeded, LaxcatError, SchemaError
from .jsonio import (LOADERS, chainmap_to_json, collage_to_json,
                     complex_to_json, dumps_canonical, homology_to_json,
                     profunctor_to_json, sniff_kind, snf_to_json)
from .report import Report

RANK_CAP = 32
DEGREE_CAP = 16
MATRIX_CAP = 64


# -- caps -----------------------------------------------------------------------

def _check_caps(data, kind: str, caps, label: str):
    """Refuse an oversized raw JSON input before any loader validates or
    allocates it.  Nested inputs pass through Workspace.resolve on their
    own, so only this level is looked at; malformed fields are left to
    the loader to reject."""
    if kind == "matrix":
        rows = data.get("matrix") if isinstance(data, dict) else data
        if isinstance(rows, list):
            cols = max((len(r) for r in rows if isinstance(r, list)), default=0)
            if len(rows) > MATRIX_CAP or cols > MATRIX_CAP:
                raise CapExceeded(f"{label}: a {len(rows)}x{cols} matrix "
                                  f"exceeds the cap of {MATRIX_CAP} rows "
                                  f"and columns")
    if not isinstance(data, dict):
        return
    if kind == "category" and isinstance(data.get("objects"), list):
        if len(data["objects"]) > caps["objects"]:
            raise CapExceeded(f"{label}: {len(data['objects'])} objects exceed "
                              f"the cap of {caps['objects']}")
    elif kind == "profunctor" and isinstance(data.get("elements"), dict):
        for key, es in data["elements"].items():
            if isinstance(es, list) and len(es) > caps["elements"]:
                raise CapExceeded(f"{label}: cell {key} holds {len(es)} "
                                  f"elements, cap is {caps['elements']}")
    elif kind == "complex" and isinstance(data.get("ranks"), dict):
        ranks = {}
        for key, r in data["ranks"].items():
            try:
                n = int(key)
            except (TypeError, ValueError):
                continue
            if isinstance(r, int) and not isinstance(r, bool) and r > 0:
                ranks[n] = r
        span = max(ranks) - min(ranks) + 1 if ranks else 0
        if span > DEGREE_CAP:
            raise CapExceeded(f"{label}: window spans {span} degrees, "
                              f"cap is {DEGREE_CAP}")
        for n, r in ranks.items():
            if r > RANK_CAP:
                raise CapExceeded(f"{label}: rank {r} in degree {n} "
                                  f"exceeds the cap of {RANK_CAP}")


# -- workspace -------------------------------------------------------------------

class Workspace:
    """Resolves names and paths against a directory of JSON files."""

    def __init__(self, root, caps):
        self.root = Path(root) if root else None
        self.caps = caps
        self._cache = {}

    def resolve(self, ref, kind):
        if isinstance(ref, (dict, list)):
            _check_caps(ref, kind, self.caps, f"inline {kind}")
            return LOADERS[kind](ref, self.resolve)
        if not isinstance(ref, str):
            raise SchemaError(f"expected a name or inline {kind}, got {ref!r}")
        key = (ref, kind)
        if key in self._cache:
            return self._cache[key]
        if ref.endswith(".json"):
            path = Path(ref)
        elif self.root is not None:
            path = self.root / f"{ref}.json"
        else:
            raise SchemaError(f"name {ref!r} needs --workspace to resolve")
        if not path.is_file():
            raise SchemaError(f"no such input: {path}")
        data = json.loads(path.read_text())
        actual = sniff_kind(data)
        if actual != kind:
            raise SchemaError(f"{ref!r} holds a {actual}, expected a {kind}")
        _check_caps(data, kind, self.caps, ref)
        obj = LOADERS[kind](data, self.resolve)
        self._cache[key] = obj
        return obj


# -- commands ---------------------------------------------------------------------

def cmd_compose(args, ws):
    from .profunctor import compose_profunctors
    N = ws.resolve(args.outer, "profunctor")
    M = ws.resolve(args.inner, "profunctor")
    return profunctor_to_json(compose_profunctors(N, M)), 0


def cmd_collage(args, ws):
    from .collage import collage_of_profunctor
    P = ws.resolve(args.profunctor, "profunctor")
    return collage_to_json(collage_of_profunctor(P)), 0


def cmd_grothendieck(args, ws):
    from .collage import grothendieck
    X = ws.resolve(args.diagram, "diagram")
    return collage_to_json(grothendieck(X)), 0


def cmd_blockmul(args, ws):
    from .collage import block_multiply, grothendieck, restrict_matrix
    X = ws.resolve(args.middle, "diagram")
    N = ws.resolve(args.outer, "profunctor")
    M = ws.resolve(args.inner, "profunctor")
    G = grothendieck(X)
    Ndata = restrict_matrix(N, G, "source")
    Mdata = restrict_matrix(M, G, "target")
    return profunctor_to_json(block_multiply(Ndata, Mdata).profunctor), 0


def cmd_cone(args, ws):
    from .k0chain import cone
    f = ws.resolve(args.chainmap, "chainmap")
    mc = cone(f)
    return {"complex": complex_to_json(mc.complex),
            "inclusion": chainmap_to_json(mc.inclusion),
            "projection": chainmap_to_json(mc.projection)}, 0


def cmd_hom_complex(args, ws):
    from .k0chain import hom_complex
    A = ws.resolve(args.source, "complex")
    B = ws.resolve(args.target, "complex")
    return complex_to_json(hom_complex(A, B)), 0


def cmd_tot(args, ws):
    from .k0chain import tot
    complexes, maps = ws.resolve(args.tower, "tower")
    return complex_to_json(tot(complexes, maps)), 0


def cmd_homology(args, ws):
    from .k0chain import homology_all
    C = ws.resolve(args.complex, "complex")
    return homology_to_json(homology_all(C)), 0


def cmd_quasi_iso(args, ws):
    from .k0chain import cone_complex, is_acyclic, is_quasi_iso
    f = ws.resolve(args.chainmap, "chainmap")
    direct = is_quasi_iso(f)
    via_cone = is_acyclic(cone_complex(f))
    if direct != via_cone:
        raise AssertionError("the two quasi-isomorphism routes disagree")
    return {"quasi_iso": direct, "cone_acyclic": via_cone}, 0


def cmd_snf(args, ws):
    from .k0chain import smith_normal_form
    m = ws.resolve(args.matrix, "matrix")
    dec = smith_normal_form(m)
    rep = dec.verify()
    if not rep.ok:
        raise AssertionError(
            f"decomposition failed self-verification: {rep.failures}")
    return snf_to_json(dec), 0


# -- property checks ---------------------------------------------------------------

def _check_monoid_laws(C: FinCategory) -> Report:
    from .profunctor import (associator, hom_profunctor, is_natural_iso,
                             left_unitor, right_unitor)
    H = hom_profunctor(C)
    rep = Report()
    rep.merge(is_natural_iso(left_unitor(H)), "left unitor")
    rep.merge(is_natural_iso(right_unitor(H)), "right unitor")
    rep.merge(is_natural_iso(associator(H, H, H)), "associator")
    return rep


def _check_semiorthogonal(P: Profunctor) -> Report:
    from .collage import (check_semiorthogonal, collage_of_profunctor,
                          identity_block_decomposition)
    G = collage_of_profunctor(P)
    rep = check_semiorthogonal(G)
    rep.merge(identity_block_decomposition(G)[0], "blocks")
    return rep


# each property: the kinds of its inputs, and the module and function of
# its check, imported when the property runs
CHECKS = {
    "bilimit-roundtrip": (("diagram", "category", "profunctor"),
                          "collage", "check_bilimit_roundtrip"),
    "absoluteness": (("diagram", "category"), "collage", "check_absoluteness"),
    "cocontinuity": (("profunctor", "profunctor", "profunctor"),
                     "profunctor", "check_cocontinuity"),
    "semiorthogonal": (("profunctor",), "cli", "_check_semiorthogonal"),
    "discrete-multiplication": (("profunctor", "profunctor"),
                                "decat", "check_discrete_multiplication"),
    "multiplicativity": (("profunctor", "profunctor"),
                         "decat", "check_multiplicativity"),
    "lax-multiplicativity": (("profunctor", "profunctor"),
                             "decat", "check_lax_multiplicativity"),
    "monoid-laws": (("category",), "cli", "_check_monoid_laws"),
}


def _draw(prop: str, rng, caps) -> tuple:
    """Seeded inputs for the check of prop, under the caps."""
    from .collage import grothendieck
    from .fincat import standard_category
    from .rand import rand_category, rand_diagram, rand_profunctor
    obs = min(caps["objects"], 4)
    cell = caps["elements"]
    if prop == "bilimit-roundtrip":
        X = rand_diagram(rng, max_fiber_objects=min(obs, 2))
        G = grothendieck(X)
        T = rand_category(rng, min(obs, 2))
        if rng.random() < 0.5:
            return X, T, rand_profunctor(rng, G.total, T, cell)
        return X, T, rand_profunctor(rng, T, G.total, cell)
    if prop == "absoluteness":
        return (rand_diagram(rng, max_fiber_objects=min(obs, 2)),
                rand_category(rng, min(obs, 3)))
    if prop in ("cocontinuity", "lax-multiplicativity"):
        C, D, E = (rand_category(rng, min(obs, 3)) for _ in range(3))
        N = rand_profunctor(rng, D, E, cell)
        M = rand_profunctor(rng, C, D, cell)
        if prop == "lax-multiplicativity":
            return N, M
        return N, M, rand_profunctor(rng, C, D, cell)
    if prop == "semiorthogonal":
        C, D = rand_category(rng, obs), rand_category(rng, obs)
        return (rand_profunctor(rng, C, D, cell),)
    if prop in ("discrete-multiplication", "multiplicativity"):
        sizes = [rng.randint(1, min(obs, 3)) for _ in range(3)]
        C, D, E = (standard_category("discrete", s) for s in sizes)
        N = rand_profunctor(rng, D, E, cell)
        return N, rand_profunctor(rng, C, D, cell)
    return (rand_category(rng, obs),)


def cmd_check(args, ws):
    prop = args.property
    kinds, module, name = CHECKS[prop]
    check = getattr(import_module(f".{module}", __package__), name)
    failures = []
    if args.randomized:
        from .rand import rng_from_seed
        rng = rng_from_seed(args.seed)
        trials = args.count
        for i in range(trials):
            rep = check(*_draw(prop, rng, ws.caps))
            failures.extend(f"trial {i}: {msg}" for msg in rep.failures)
    else:
        if len(args.refs) != len(kinds):
            raise SchemaError(
                f"check {prop} expects {len(kinds)} inputs "
                f"({', '.join(kinds)}), got {len(args.refs)}")
        trials = 1
        loaded = [ws.resolve(ref, kind) for ref, kind in zip(args.refs, kinds)]
        failures = check(*loaded).failures
    doc = {"property": prop, "trials": trials,
           "ok": not failures, "failures": failures}
    return doc, (0 if not failures else 1)


# -- wiring -----------------------------------------------------------------------

def _positive_int(text: str) -> int:
    """The argparse type of the caps and of --count."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


# each command: the function that runs it, its positional inputs, its help
COMMANDS = {
    "compose": (cmd_compose, ("outer", "inner"),
                "coend composite, outer after inner"),
    "collage": (cmd_collage, ("profunctor",),
                "collage category of a profunctor"),
    "grothendieck": (cmd_grothendieck, ("diagram",),
                     "total category of a diagram"),
    "blockmul": (cmd_blockmul, ("outer", "inner"),
                 "composite via blockwise gluing over a collage"),
    "cone": (cmd_cone, ("chainmap",), "mapping cone of a chain map"),
    "hom-complex": (cmd_hom_complex, ("source", "target"),
                    "complex of graded maps"),
    "tot": (cmd_tot, ("tower",), "total complex of a tower"),
    "homology": (cmd_homology, ("complex",), "homology groups of a complex"),
    "quasi-iso": (cmd_quasi_iso, ("chainmap",),
                  "decide quasi-isomorphism, both routes"),
    "snf": (cmd_snf, ("matrix",), "Smith normal form with transforms"),
    "check": (cmd_check, (), "verify a structural property"),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="laxcat",
        description="finite categories, set profunctors, collages, and "
                    "integer chain complexes, over JSON files")
    p.add_argument("--workspace", metavar="DIR",
                   help="directory holding NAME.json inputs")
    p.add_argument("--out", metavar="FILE",
                   help="write the result here instead of stdout")
    p.add_argument("--max-objects", type=_positive_int, default=6,
                   help="cap on objects per input category")
    p.add_argument("--max-elements", type=_positive_int, default=8,
                   help="cap on elements per profunctor cell")
    p.add_argument("--debug", action="store_true",
                   help="print the traceback of an internal error (exit 4)")
    sub = p.add_subparsers(dest="command", required=True)

    for name, (_, inputs, help_text) in COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        for arg in inputs:
            s.add_argument(arg)
    sub.choices["blockmul"].add_argument(
        "--middle", required=True, metavar="DIAGRAM",
        help="diagram whose total category is the middle leg")
    s = sub.choices["check"]
    s.add_argument("property", choices=sorted(CHECKS))
    s.add_argument("refs", nargs="*")
    s.add_argument("--randomized", action="store_true",
                   help="generate seeded instances instead of reading refs")
    s.add_argument("--count", type=_positive_int, default=5,
                   help="trials in randomized mode")
    s.add_argument("--seed", type=int, default=0,
                   help="seed for randomized mode")
    return p


def main(argv=None) -> int:
    # exact results outgrow the default 4300-digit int <-> str limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    caps = {"objects": args.max_objects, "elements": args.max_elements}
    ws = Workspace(args.workspace, caps)
    try:
        doc, code = COMMANDS[args.command][0](args, ws)
        text = dumps_canonical(doc)
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 3
    except (SchemaError, json.JSONDecodeError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"missing input: {e}", file=sys.stderr)
        return 2
    except LaxcatError as e:
        print(f"validation failed: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a failed result guard or a bug, never a property of the input
        if args.debug:
            import traceback  # only here: every command would pay its import
            traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    try:
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as e:
        print(f"cannot write output: {e}", file=sys.stderr)
        return 2
    return code
