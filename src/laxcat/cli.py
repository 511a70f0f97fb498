"""Command line front end.

Inputs are JSON files: either paths ending in .json or bare names looked
up as NAME.json inside --workspace.  Every command writes a single JSON
document (stdout by default, --out FILE otherwise) with sorted keys and
fixed indentation, so equal inputs give byte-equal outputs; the text is
streamed to the output as jsonio.write_canonical makes it.  The inputs
are released before the output document is built: each command returns
its result with the converter that makes the document of it, and the
workspace that holds the inputs dies first.

Exit codes: 0 success, 1 a checked property failed, 2 invalid input or
usage (an output that cannot be opened or written included), 3 an input
breached the size caps, 4 an internal error (a failed result guard, a
broken kernel invariant, an error on a randomized check's own draws, or a
bug, the output encoder's included), reported in one line, with the
traceback only under --debug.  After an exit 4 while writing, stdout may
hold a partial document; a partly written --out file is removed.

Caps: here only the byte size of a file (INPUT_CAP), before it is opened,
and the digits of each integer literal (jsonio.DIGIT_CAP), as it is
parsed.  Every other cap is checked by the jsonio loader that reads the
field it measures, under the caps and label that Workspace hands it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

# each command imports the layer it runs.  decat loads no layer and is
# imported here, because in-process callers that wrap laxcat's functions
# (bench/spans.py) expect laxcat.decat loaded once laxcat.cli is
from . import decat  # noqa: F401
from .errors import CapExceeded, LaxcatError, SchemaError
from .jsonio import (DIGIT_CAP, LOADERS, _Caps, collage_to_json,
                     complex_to_json, cone_to_json, homology_to_json,
                     profunctor_to_json, sniff_kind, snf_to_json,
                     write_canonical)

# the fixed caps the loaders check, next to --max-objects and
# --max-elements: see Workspace._load
RANK_CAP = 32
DEGREE_CAP = 16
MATRIX_CAP = 64
# the most rows x columns x bit length of the largest entry of an snf
# input, a bound on its elimination: it admits a 64x64 matrix of entries in
# [-5, 5] (12 288) and a 1x1 matrix of a 5 000-digit entry (16 610).  At
# the cap, elimination and verification take at most about 3.5 s for a
# square matrix of 8 rows or more, but about 17 s for 2x2, whose
# transforms grow with the square of the entries' bit length
SNF_CAP = 17_000
# the most bytes of an input file, checked before it is opened: reading
# and parsing peak at about 6 bytes of memory per input byte (2.0 MiB for
# the 340 KB hom document of the benchmark's Δ5×Δ4)
INPUT_CAP = 1 << 21


# -- caps -----------------------------------------------------------------------

def _int_literal(text: str, label: str) -> int:
    """The json.loads parse_int hook of an input file: a literal of more
    than DIGIT_CAP digits is refused before int() converts it."""
    if len(text) > DIGIT_CAP and len(text.lstrip("-")) > DIGIT_CAP:
        raise CapExceeded(f"{label}: an integer literal of "
                          f"{len(text.lstrip('-'))} digits exceeds the cap "
                          f"of {DIGIT_CAP}")
    return int(text)


# -- workspace -------------------------------------------------------------------

class Workspace:
    """Resolves names and paths against a directory of JSON files, and
    loads each input under the caps, labelled by its ref or as inline."""

    def __init__(self, root, caps):
        self.root = root or None
        self.caps = caps
        self._cache = {}

    def _load(self, data, kind, label):
        caps = _Caps(label, self.caps["objects"], self.caps["elements"],
                     DEGREE_CAP, RANK_CAP, MATRIX_CAP, SNF_CAP)
        return LOADERS[kind](data, self.resolve, caps)

    def resolve(self, ref, kind):
        # ref is an argv string, or what jsonio._resolve admits: a string
        # or an inline dict
        if isinstance(ref, dict):
            return self._load(ref, kind, f"inline {kind}")
        key = (ref, kind)
        if key in self._cache:
            return self._cache[key]
        if ref.endswith(".json"):
            path = ref
        elif self.root is not None:
            path = os.path.join(self.root, f"{ref}.json")
        else:
            raise SchemaError(f"name {ref!r} needs --workspace to resolve")
        if not os.path.isfile(path):
            raise SchemaError(f"no such input: {path}")
        size = os.path.getsize(path)
        if size > INPUT_CAP:
            raise CapExceeded(f"{ref}: an input of {size} bytes exceeds the "
                              f"cap of {INPUT_CAP} bytes")
        try:
            with open(path, encoding="utf-8") as f:
                data = json.loads(
                    f.read(), parse_int=lambda text: _int_literal(text, ref))
        except UnicodeDecodeError as e:
            raise SchemaError(f"{path} is not UTF-8: {e}")
        except RecursionError:
            raise SchemaError(f"{path} is nested too deeply")
        actual = sniff_kind(data)
        if actual != kind:
            raise SchemaError(f"{ref!r} holds a {actual}, expected a {kind}")
        # a hom document holds its category inline twice: one parse of it
        # is kept, the other freed before anything is built from it
        if (kind == "profunctor" and "source" in data and "target" in data
                and data["target"] == data["source"]):
            data["target"] = data["source"]
        obj = self._load(data, kind, ref)
        self._cache[key] = obj
        return obj


# -- commands ---------------------------------------------------------------------

# each command returns (to_json, result, exit code), and _run converts the
# result; a result that is already a document passes through dict

def cmd_compose(args, ws):
    from .profunctor import compose_profunctors
    N = ws.resolve(args.outer, "profunctor")
    M = ws.resolve(args.inner, "profunctor")
    return profunctor_to_json, compose_profunctors(N, M), 0


def cmd_collage(args, ws):
    from .collage import collage_of_profunctor
    P = ws.resolve(args.profunctor, "profunctor")
    return collage_to_json, collage_of_profunctor(P), 0


def cmd_grothendieck(args, ws):
    from .collage import grothendieck
    X = ws.resolve(args.diagram, "diagram")
    return collage_to_json, grothendieck(X), 0


def cmd_blockmul(args, ws):
    from .collage import block_multiply, grothendieck, restrict_matrix
    X = ws.resolve(args.middle, "diagram")
    N = ws.resolve(args.outer, "profunctor")
    M = ws.resolve(args.inner, "profunctor")
    G = grothendieck(X)
    Ndata = restrict_matrix(N, G, "source")
    Mdata = restrict_matrix(M, G, "target")
    return profunctor_to_json, block_multiply(Ndata, Mdata).profunctor, 0


def cmd_cone(args, ws):
    from .k0chain import cone
    f = ws.resolve(args.chainmap, "chainmap")
    return cone_to_json, cone(f), 0


def cmd_hom_complex(args, ws):
    from .k0chain import hom_complex
    A = ws.resolve(args.source, "complex")
    B = ws.resolve(args.target, "complex")
    return complex_to_json, hom_complex(A, B), 0


def cmd_tot(args, ws):
    from .k0chain import tot
    complexes, maps = ws.resolve(args.tower, "tower")
    return complex_to_json, tot(complexes, maps), 0


def cmd_homology(args, ws):
    from .k0chain import homology_all
    C = ws.resolve(args.complex, "complex")
    return homology_to_json, homology_all(C), 0


def cmd_quasi_iso(args, ws):
    from .k0chain import cone_complex, is_acyclic, is_quasi_iso
    f = ws.resolve(args.chainmap, "chainmap")
    direct = is_quasi_iso(f)
    via_cone = is_acyclic(cone_complex(f))
    if direct != via_cone:
        raise AssertionError("the two quasi-isomorphism routes disagree")
    return dict, {"quasi_iso": direct, "cone_acyclic": via_cone}, 0


def cmd_snf(args, ws):
    from .k0chain import smith_normal_form
    m = ws.resolve(args.matrix, "matrix")
    dec = smith_normal_form(m)
    rep = dec.verify()
    if not rep.ok:
        raise AssertionError(
            f"decomposition failed self-verification: {rep.failures}")
    return snf_to_json, dec, 0


# -- property checks ---------------------------------------------------------------

# each property: the kinds of its inputs, and the module and function of
# its check, imported when the property runs
CHECKS = {
    "bilimit-roundtrip": (("diagram", "category", "profunctor"),
                          "collage", "check_bilimit_roundtrip"),
    "absoluteness": (("diagram", "category"), "collage", "check_absoluteness"),
    "cocontinuity": (("profunctor", "profunctor", "profunctor"),
                     "profunctor", "check_cocontinuity"),
    "semiorthogonal": (("profunctor",), "collage", "check_semiorthogonal"),
    "discrete-multiplication": (("profunctor", "profunctor"),
                                "decat", "check_discrete_multiplication"),
    "multiplicativity": (("profunctor", "profunctor"),
                         "decat", "check_multiplicativity"),
    "lax-multiplicativity": (("profunctor", "profunctor"),
                             "decat", "check_lax_multiplicativity"),
    "monoid-laws": (("category",), "profunctor", "check_monoid_laws"),
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
            # the inputs are our own draws: an error here is a bug
            try:
                rep = check(*_draw(prop, rng, ws.caps))
            except LaxcatError as e:
                raise AssertionError(f"trial {i}: {e}") from e
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
    return dict, doc, (0 if not failures else 1)


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


def _internal_error(e, debug) -> int:
    """Exit 4: a failed result guard or a bug, never a property of the
    input."""
    if debug:
        import traceback  # only here: every command would pay its import
        traceback.print_exc()
    print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
    return 4


def _write(doc, out):
    """Stream the canonical text of doc to the file out, or to stdout.  A
    file left partly written by an error is removed."""
    if not out:
        write_canonical(doc, sys.stdout.write)
        return
    f = open(out, "w", encoding="utf-8")
    try:
        with f:
            write_canonical(doc, f.write)
    except BaseException:
        try:
            os.remove(out)
        except OSError:
            pass
        raise


def _run(args):
    """The output document and exit code of the command.  The workspace,
    and with it every input, dies when the command returns, before the
    document is built; the result dies once converted."""
    caps = {"objects": args.max_objects, "elements": args.max_elements}
    to_json, result, code = COMMANDS[args.command][0](
        args, Workspace(args.workspace, caps))
    return to_json(result), code


def main(argv=None) -> int:
    # exact results outgrow the default 4300-digit int <-> str limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        doc, code = _run(args)
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
        return _internal_error(e, args.debug)
    try:
        _write(doc, args.out)
    except OSError as e:
        print(f"cannot write output: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        return _internal_error(e, args.debug)
    return code
