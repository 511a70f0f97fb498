"""JSON formats for everything the command line reads and writes.

One format per object kind, strict about keys: unknown fields are
rejected so that a typo fails loudly instead of silently changing the
input.  Loading runs the same validators as the in-memory constructors.

Output is canonical: the text of `json.dumps(obj, sort_keys=True,
indent=2)` plus a trailing newline, so identical inputs produce
byte-identical outputs.  `write_canonical` takes that text token by
token from the standard library's own encoder (`json.dumps` with an
indent is the join of `JSONEncoder.iterencode`) and hands it to a
`write` callback in pieces of FLUSH characters, so a command streams its
output instead of holding it whole: the 3.4 MB document of a 56x56 `snf`
peaks at about 0.45 MiB of allocations.  `dumps_canonical` joins the
same pieces into one string.

A profunctor's elements are keyed by cell: the cell (d, c) of a target
object d and a source object c has the key `ids.pair_id(d, c)`, '(d,c)'
with a part escaped only where it needs to be, so keys never collide.  A
reader looks each key up among the keys of the endpoint objects' cells, so
only a key written that way is accepted.

Cross references: wherever a sub-object is expected, the JSON may hold
either the inline object or a string naming a workspace entry; the
`resolve(ref, kind)` callback supplied by the caller decides what names
mean.  A profunctor whose target is the same JSON value as its source
(the hom profunctor C -> C, written with C inline twice) loads that
category once and uses it on both sides; see `profunctor_from_json`.

Caps: every loader takes (data, resolve, caps) and checks each cap of the
_Caps value as soon as it has read the field that cap measures, before it
builds anything; a breach raises CapExceeded naming caps.label.  Each
degree key is read once, by parse_degree, under the same label.  Library
calls get _NO_CAPS, which refuses nothing.

Each loader imports the layer it builds when it runs, so reading a
matrix never loads the category layer, nor a category the chain layer.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import chain

from .errors import CapExceeded, LaxcatError, SchemaError

# the length of the pieces write_canonical hands on
FLUSH = 1 << 16

# the most digits of an input integer literal or degree key, since int()
# takes time quadratic in the digits.  Outputs are not capped: the
# transforms of a 64x64 snf reach 4 334 digits.
DIGIT_CAP = 10_000
# the most digits one int() call of parse_degree reads: Python's int/str
# limit may be set to any value from 640 up, or off
_PIECE = 640

# the caps a loader checks, each compared with >, and the label its cap
# lines name the input by: a file's ref, or "inline <kind>"
_Caps = namedtuple("_Caps",
                   "label objects elements degrees rank matrix snf")
_NO_CAPS = _Caps(None, *[float("inf")] * 6)

# json.dumps(obj, sort_keys=True, indent=2) is the join of its iterencode
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def write_canonical(obj, write) -> None:
    """Hand write the text of json.dumps(obj, sort_keys=True, indent=2)
    plus a newline, in pieces of exactly FLUSH characters but the last.
    Whatever json.dumps cannot encode raises its error."""
    pending, size = [], 0
    for token in chain(_ENCODER.iterencode(obj), ("\n",)):
        pending.append(token)
        size += len(token)
        if size >= FLUSH:
            text, cut = "".join(pending), 0
            while size - cut >= FLUSH:
                write(text[cut:cut + FLUSH])
                cut += FLUSH
            pending, size = [text[cut:]], size - cut
    if size:
        write("".join(pending))


def dumps_canonical(obj) -> str:
    parts = []
    write_canonical(obj, parts.append)
    return "".join(parts)


def _expect(data, where: str, required):
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    missing = [k for k in required if k not in data]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    unknown = sorted(k for k in data if k not in required)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}")


def _str_list(value, where: str):
    if (not isinstance(value, list)
            or any(not isinstance(v, str) for v in value)):
        raise SchemaError(f"{where}: expected a list of strings")
    return value


def _str_dict(value, where: str):
    if (not isinstance(value, dict)
            or any(not isinstance(k, str) or not isinstance(v, str)
                   for k, v in value.items())):
        raise SchemaError(f"{where}: expected an object of strings")
    return value


def default_resolver(ref, kind):
    if isinstance(ref, dict):
        return LOADERS[kind](ref, default_resolver)
    raise SchemaError(f"cannot resolve name {ref!r} without a workspace")


def _resolve(ref, kind, resolve, where):
    if isinstance(ref, str) or isinstance(ref, dict):
        return resolve(ref, kind)
    raise SchemaError(f"{where}: expected a name or an inline object")


# -- categories ---------------------------------------------------------------

def category_to_json(C: FinCategory) -> dict:
    return {
        "objects": list(C.objects),
        "morphisms": [{"id": m, "src": C.src[m], "dst": C.dst[m]}
                      for m in C.morphisms],
        "identities": {x: C.identity[x] for x in C.objects},
        "composition": sorted([g, f, gf] for (g, f), gf in C.comp.items()),
    }


def category_from_json(data, resolve=None, caps=_NO_CAPS) -> FinCategory:
    from .fincat import build_category
    _expect(data, "category",
            ("objects", "morphisms", "identities", "composition"))
    objects = _str_list(data["objects"], "category.objects")
    if len(objects) > caps.objects:
        raise CapExceeded(f"{caps.label}: {len(objects)} objects exceed "
                          f"the cap of {caps.objects}")
    if not isinstance(data["morphisms"], list):
        raise SchemaError("category.morphisms: expected a list")
    src, dst = {}, {}
    mor_ids = []
    for i, entry in enumerate(data["morphisms"]):
        _expect(entry, f"category.morphisms[{i}]", ("id", "src", "dst"))
        m = entry["id"]
        if not all(isinstance(v, str) for v in (m, entry["src"], entry["dst"])):
            raise SchemaError(f"category.morphisms[{i}]: ids must be strings")
        mor_ids.append(m)
        src[m] = entry["src"]
        dst[m] = entry["dst"]
    identities = _str_dict(data["identities"], "category.identities")
    comp = {}
    if not isinstance(data["composition"], list):
        raise SchemaError("category.composition: expected a list of triples")
    for i, triple in enumerate(data["composition"]):
        if (not isinstance(triple, list) or len(triple) != 3
                or any(not isinstance(v, str) for v in triple)):
            raise SchemaError(
                f"category.composition[{i}]: expected [g, f, g.f] of strings")
        g, f, gf = triple
        if (g, f) in comp and comp[(g, f)] != gf:
            raise SchemaError(
                f"category.composition[{i}]: conflicting entries for ({g}, {f})")
        comp[(g, f)] = gf
    return build_category(objects, mor_ids, src, dst, identities, comp)


# -- profunctors ----------------------------------------------------------------

def _action_tables(value, where: str):
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object of action tables")
    out = {}
    for m, table in value.items():
        out[m] = _str_dict(table, f"{where}[{m!r}]")
    return out


def profunctor_to_json(P: Profunctor) -> dict:
    from .ids import pair_ids
    keys = pair_ids(P.target.objects, P.source.objects)
    return {
        "source": category_to_json(P.source),
        "target": category_to_json(P.target),
        "elements": {keys[cell]: list(es)
                     for cell, es in P.elements.items() if es},
        "left_action": {m: dict(t) for m, t in P.lact.items()
                        if t and not P.target.is_identity(m)},
        "right_action": {m: dict(t) for m, t in P.ract.items()
                         if t and not P.source.is_identity(m)},
    }


def profunctor_from_json(data, resolve=default_resolver,
                         caps=_NO_CAPS) -> Profunctor:
    """The profunctor of data.  Its target is loaded only when its raw
    JSON differs from the source's: a category document that loads holds
    only objects, lists and strings, on which == is equality of the text
    up to the order of object keys, and no category keeps that order (its
    identities are a map, its lists are sorted).  So equal JSON would
    build an equal category, and a profunctor C -> C, such as the hom
    profunctor that profunctor_to_json writes with C inline twice, builds,
    validates and caches C once, as hom_profunctor does in memory.  A bad
    category fails at the source, before the target is read; an oversized
    cell fails before either is."""
    from .ids import pair_ids
    from .profunctor import build_profunctor
    _expect(data, "profunctor",
            ("source", "target", "elements", "left_action", "right_action"))
    if not isinstance(data["elements"], dict):
        raise SchemaError("profunctor.elements: expected an object")
    for key, es in data["elements"].items():
        if isinstance(es, list) and len(es) > caps.elements:
            raise CapExceeded(f"{caps.label}: cell {key} holds {len(es)} "
                              f"elements, cap is {caps.elements}")
    C = _resolve(data["source"], "category", resolve, "profunctor.source")
    D = C if data["target"] == data["source"] else _resolve(
        data["target"], "category", resolve, "profunctor.target")
    cells = {key: cell
             for cell, key in pair_ids(D.objects, C.objects).items()}
    elements = {}
    for key, es in data["elements"].items():
        if key not in cells:
            raise SchemaError(
                f"cell key {key!r} names no (target,source) pair of objects")
        elements[cells[key]] = _str_list(es, f"profunctor.elements[{key!r}]")
    lact = _action_tables(data["left_action"], "profunctor.left_action")
    ract = _action_tables(data["right_action"], "profunctor.right_action")
    return build_profunctor(C, D, elements, lact, ract)


# -- diagrams -------------------------------------------------------------------

def diagram_to_json(X: Diagram) -> dict:
    return {
        "shape": category_to_json(X.shape),
        "fibers": {s: category_to_json(X.fiber[s]) for s in X.shape.objects},
        "transitions": {m: {"obmap": dict(F.obmap), "mormap": dict(F.mormap)}
                        for m, F in X.transition.items()
                        if not X.shape.is_identity(m)},
    }


def diagram_from_json(data, resolve=default_resolver,
                      caps=_NO_CAPS) -> Diagram:
    from .collage import build_diagram
    from .fincat import CatFunctor
    _expect(data, "diagram", ("shape", "fibers", "transitions"))
    shape = _resolve(data["shape"], "category", resolve, "diagram.shape")
    if not isinstance(data["fibers"], dict):
        raise SchemaError("diagram.fibers: expected an object")
    fibers = {s: _resolve(ref, "category", resolve, f"diagram.fibers[{s!r}]")
              for s, ref in data["fibers"].items()}
    if set(fibers) != set(shape.objects):
        raise SchemaError("diagram.fibers: must cover exactly the shape objects")
    if not isinstance(data["transitions"], dict):
        raise SchemaError("diagram.transitions: expected an object")
    transition = {}
    for m, entry in data["transitions"].items():
        if m not in shape.src:
            raise SchemaError(f"diagram.transitions[{m!r}]: unknown shape morphism")
        _expect(entry, f"diagram.transitions[{m!r}]", ("obmap", "mormap"))
        transition[m] = CatFunctor(
            fibers[shape.src[m]], fibers[shape.dst[m]],
            _str_dict(entry["obmap"], f"diagram.transitions[{m!r}].obmap"),
            _str_dict(entry["mormap"], f"diagram.transitions[{m!r}].mormap"))
    return build_diagram(shape, fibers, transition)


# -- complexes and chain maps -----------------------------------------------------

def parse_degree(key, label: str):
    """The degree a key names in canonical decimal, as the converters
    write it ("-1", "0", "12"); None for any other key ("01", "+1", "1_0",
    " 1").  A key of more than DIGIT_CAP digits is refused, naming label,
    before it is converted; the conversion reads the digits in pieces that
    Python's int/str digit limit admits whatever it is set to."""
    if not isinstance(key, str):
        return None
    digits = key[1:] if key.startswith("-") else key
    if len(digits) > DIGIT_CAP:
        raise CapExceeded(f"{label}: degree key {key[:12]!r}... of {len(key)} "
                          f"characters exceeds the cap of {DIGIT_CAP} digits")
    if not (digits.isascii() and digits.isdigit()
            and (digits[0] != "0" or digits == key == "0")):
        return None
    n = 0
    for i in range(0, len(digits), _PIECE):
        piece = digits[i:i + _PIECE]
        n = n * 10 ** len(piece) + int(piece)
    return -n if key[0] == "-" else n


def _int_keyed(value, where: str, caps) -> dict[int, object]:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object keyed by degree")
    out = {}
    for k, v in value.items():
        n = parse_degree(k, caps.label or where)
        if n is None:
            raise SchemaError(f"{where}: key {k!r} is not a degree")
        out[n] = v
    return out


def _int_matrix(value, where: str):
    if (not isinstance(value, list)
            or any(not isinstance(row, list) for row in value)
            or any(not isinstance(v, int) or isinstance(v, bool)
                   for row in value for v in row)):
        raise SchemaError(f"{where}: expected a matrix of integers")
    return value


def _matrices(value, where: str, caps) -> dict:
    """{degree: rows} of a degree-keyed object of integer matrices."""
    return {n: _int_matrix(m, f"{where}[{n}]")
            for n, m in _int_keyed(value, where, caps).items()}


def complex_to_json(C: ChainComplex) -> dict:
    lo, hi = C.window if C.ranks else (0, -1)
    return {
        "window": [lo, hi],
        "ranks": {str(n): C.rank(n) for n in sorted(C.ranks)},
        "differentials": {str(n): C.diffs[n].tolist()
                          for n in sorted(C.diffs)},
    }


def complex_from_json(data, resolve=None, caps=_NO_CAPS) -> ChainComplex:
    from .k0chain import build_complex
    _expect(data, "complex", ("window", "ranks", "differentials"))
    window = data["window"]
    if window is None:
        raise LaxcatError("complex: a null window is declared unbounded; "
                               "only bounded complexes are supported")
    if (not isinstance(window, list) or len(window) != 2
            or any(not isinstance(v, int) or isinstance(v, bool) for v in window)):
        raise SchemaError("complex.window: expected [lo, hi]")
    lo, hi = window
    ranks = {}
    for n, r in _int_keyed(data["ranks"], "complex.ranks", caps).items():
        if not isinstance(r, int) or isinstance(r, bool) or r < 0:
            raise SchemaError(f"complex.ranks[{n}]: expected a nonnegative int")
        if r and not lo <= n <= hi:
            raise SchemaError(f"complex.ranks[{n}]: degree outside the window")
        ranks[n] = r
    support = [n for n, r in ranks.items() if r]
    span = max(support) - min(support) + 1 if support else 0
    if span > caps.degrees:
        raise CapExceeded(f"{caps.label}: window spans {span} degrees, "
                          f"cap is {caps.degrees}")
    for n, r in ranks.items():
        if r > caps.rank:
            raise CapExceeded(f"{caps.label}: rank {r} in degree {n} "
                              f"exceeds the cap of {caps.rank}")
    diffs = _matrices(data["differentials"], "complex.differentials", caps)
    return build_complex(ranks, diffs)


def chainmap_to_json(f: ChainMap) -> dict:
    return {
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "matrices": {str(n): f.matrices[n].tolist()
                     for n in sorted(f.matrices)},
    }


def chainmap_from_json(data, resolve=default_resolver,
                       caps=_NO_CAPS) -> ChainMap:
    from .k0chain import build_chain_map
    _expect(data, "chainmap", ("source", "target", "matrices"))
    A = _resolve(data["source"], "complex", resolve, "chainmap.source")
    B = _resolve(data["target"], "complex", resolve, "chainmap.target")
    return build_chain_map(
        A, B, _matrices(data["matrices"], "chainmap.matrices", caps))


def cone_to_json(mc: MappingCone) -> dict:
    return {"complex": complex_to_json(mc.complex),
            "inclusion": chainmap_to_json(mc.inclusion),
            "projection": chainmap_to_json(mc.projection)}


def tower_from_json(data, resolve=default_resolver, caps=_NO_CAPS):
    """[(complexes), (maps)] for the total-complex builder; each map entry
    carries only its matrices, endpoints are implied by position."""
    from .k0chain import build_chain_map
    _expect(data, "tower", ("complexes", "maps"))
    if not isinstance(data["complexes"], list) or not isinstance(data["maps"], list):
        raise SchemaError("tower: complexes and maps must be lists")
    complexes = [_resolve(ref, "complex", resolve, f"tower.complexes[{i}]")
                 for i, ref in enumerate(data["complexes"])]
    maps = []
    for i, entry in enumerate(data["maps"]):
        _expect(entry, f"tower.maps[{i}]", ("matrices",))
        if i + 1 >= len(complexes):
            raise SchemaError("tower: more maps than consecutive pairs")
        mats = _matrices(entry["matrices"], f"tower.maps[{i}].matrices", caps)
        maps.append(build_chain_map(complexes[i], complexes[i + 1], mats))
    return complexes, maps


def matrix_from_json(data, resolve=None, caps=_NO_CAPS):
    from .intmat import as_matrix
    if isinstance(data, dict):
        _expect(data, "matrix", ("matrix",))
        data = data["matrix"]
    if isinstance(data, list):
        cols = max((len(r) for r in data if isinstance(r, list)), default=0)
        if len(data) > caps.matrix or cols > caps.matrix:
            raise CapExceeded(f"{caps.label}: a {len(data)}x{cols} matrix "
                              f"exceeds the cap of {caps.matrix} rows and "
                              f"columns")
    rows = _int_matrix(data, "matrix")
    bits = max((abs(v).bit_length() for row in rows for v in row), default=0)
    work = len(rows) * cols * bits
    if work > caps.snf:
        raise CapExceeded(f"{caps.label}: a {len(rows)}x{cols} matrix of "
                          f"{bits}-bit entries measures {work} (rows x "
                          f"columns x largest bit length), over the cap of "
                          f"{caps.snf}")
    return as_matrix(rows)


# -- outputs only ---------------------------------------------------------------

def homology_to_json(groups: dict[int, HomologyGroup]) -> dict:
    return {str(n): {"free": h.free, "torsion": list(h.torsion)}
            for n, h in sorted(groups.items())}


def snf_to_json(dec: SmithDecomposition) -> dict:
    return {
        "S": dec.S.tolist(),
        "U": dec.U.tolist(),
        "V": dec.V.tolist(),
        "diagonal": dec.diagonal(),
    }


def collage_to_json(G: Collage) -> dict:
    out = category_to_json(G.total)
    out["origin"] = {
        "kind": "diagram" if G.diagram is not None else "profunctor",
        "object_parts": {o: list(parts) for o, parts in sorted(G.obj_parts.items())},
        "morphism_parts": {m: list(parts)
                           for m, parts in sorted(G.mor_parts.items())},
    }
    return out


# -- kind sniffing -----------------------------------------------------------------

LOADERS = {
    "category": category_from_json,
    "profunctor": profunctor_from_json,
    "diagram": diagram_from_json,
    "complex": complex_from_json,
    "chainmap": chainmap_from_json,
    "tower": tower_from_json,
    "matrix": matrix_from_json,
}


def sniff_kind(data) -> str:
    """Infer what a JSON object describes from its field fingerprint."""
    if isinstance(data, list):
        return "matrix"
    if not isinstance(data, dict):
        raise SchemaError("cannot infer the kind of a non-object")
    if "composition" in data:
        return "category"
    if "left_action" in data:
        return "profunctor"
    if "fibers" in data:
        return "diagram"
    if "ranks" in data:
        return "complex"
    # no command reads a functor, but naming one makes the mismatch clear
    if "obmap" in data:
        return "functor"
    if "complexes" in data:
        return "tower"
    if "matrices" in data:
        return "chainmap"
    if "matrix" in data:
        return "matrix"
    raise SchemaError("cannot infer the kind: no recognized fingerprint field")
