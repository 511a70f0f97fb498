"""JSON formats for everything the command line reads and writes.

One format per object kind, strict about keys: unknown fields are
rejected so that a typo fails loudly instead of silently changing the
input.  Loading runs the same validators as the in-memory constructors,
and dumping is canonical (sorted keys, fixed indentation, trailing
newline) so identical inputs produce byte-identical outputs.

Cross references: wherever a sub-object is expected, the JSON may hold
either the inline object or a string naming a workspace entry; the
`resolve(ref, kind)` callback supplied by the caller decides what names
mean.

Each loader imports the layer it builds when it runs, so reading a
matrix never loads the category layer, nor a category the chain layer.
"""

from __future__ import annotations

import json

from .errors import SchemaError, UnboundedComplex


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _expect(data, where: str, required, optional=()):
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    missing = [k for k in required if k not in data]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    unknown = sorted(k for k in data if k not in required and k not in optional)
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


def category_from_json(data, resolve=None) -> FinCategory:
    from .fincat import build_category
    _expect(data, "category",
            ("objects", "morphisms", "identities", "composition"))
    objects = _str_list(data["objects"], "category.objects")
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


# -- functors -----------------------------------------------------------------

def functor_to_json(F: CatFunctor) -> dict:
    return {
        "source": category_to_json(F.source),
        "target": category_to_json(F.target),
        "obmap": dict(F.obmap),
        "mormap": dict(F.mormap),
    }


def functor_from_json(data, resolve=default_resolver) -> CatFunctor:
    from .fincat import CatFunctor, validate_functor
    _expect(data, "functor", ("source", "target", "obmap", "mormap"))
    C = _resolve(data["source"], "category", resolve, "functor.source")
    D = _resolve(data["target"], "category", resolve, "functor.target")
    obmap = _str_dict(data["obmap"], "functor.obmap")
    mormap = _str_dict(data["mormap"], "functor.mormap")
    F = CatFunctor(C, D, obmap, mormap)
    rep = validate_functor(F)
    if not rep.ok:
        raise SchemaError("functor: " + "; ".join(rep.failures))
    return F


# -- profunctors ----------------------------------------------------------------

def _cell_key(d: str, c: str) -> str:
    return f"({d},{c})"


def _parse_cell_key(key: str, targets, sources) -> tuple[str, str]:
    """Invert '(d,c)'; object names may contain commas, so the split is
    validated against both object lists and must be unique."""
    if not (key.startswith("(") and key.endswith(")")):
        raise SchemaError(f"cell key {key!r} is not of the form (target,source)")
    inner = key[1:-1]
    sset = set(sources)
    found = []
    for d in targets:
        if inner.startswith(d + ",") and inner[len(d) + 1:] in sset:
            found.append((d, inner[len(d) + 1:]))
    if len(found) != 1:
        raise SchemaError(
            f"cell key {key!r} is {'ambiguous' if found else 'unparseable'} "
            "against the object lists")
    return found[0]


def _action_tables(value, where: str):
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object of action tables")
    out = {}
    for m, table in value.items():
        out[m] = _str_dict(table, f"{where}[{m!r}]")
    return out


def profunctor_to_json(P: Profunctor) -> dict:
    return {
        "source": category_to_json(P.source),
        "target": category_to_json(P.target),
        "elements": {_cell_key(d, c): list(es)
                     for (d, c), es in P.elements.items() if es},
        "left_action": {m: dict(t) for m, t in P.lact.items()
                        if t and not P.target.is_identity(m)},
        "right_action": {m: dict(t) for m, t in P.ract.items()
                         if t and not P.source.is_identity(m)},
    }


def profunctor_from_json(data, resolve=default_resolver) -> Profunctor:
    from .profunctor import build_profunctor
    _expect(data, "profunctor",
            ("source", "target", "elements", "left_action", "right_action"))
    C = _resolve(data["source"], "category", resolve, "profunctor.source")
    D = _resolve(data["target"], "category", resolve, "profunctor.target")
    if not isinstance(data["elements"], dict):
        raise SchemaError("profunctor.elements: expected an object")
    elements = {}
    for key, es in data["elements"].items():
        cell = _parse_cell_key(key, D.objects, C.objects)
        elements[cell] = _str_list(es, f"profunctor.elements[{key!r}]")
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


def diagram_from_json(data, resolve=default_resolver) -> Diagram:
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

def _int_keyed(value, where: str) -> dict[int, object]:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object keyed by degree")
    out = {}
    for k, v in value.items():
        try:
            n = int(k)
        except (TypeError, ValueError):
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


def complex_to_json(C: ChainComplex) -> dict:
    lo, hi = C.window if C.ranks else (0, -1)
    return {
        "window": [lo, hi],
        "ranks": {str(n): C.rank(n) for n in sorted(C.ranks)},
        "differentials": {str(n): C.diffs[n].tolist()
                          for n in sorted(C.diffs)},
    }


def complex_from_json(data, resolve=None) -> ChainComplex:
    from .k0chain import build_complex
    _expect(data, "complex", ("window", "ranks", "differentials"))
    window = data["window"]
    if window is None:
        raise UnboundedComplex("complex: a null window is declared unbounded; "
                               "only bounded complexes are supported")
    if (not isinstance(window, list) or len(window) != 2
            or any(not isinstance(v, int) or isinstance(v, bool) for v in window)):
        raise SchemaError("complex.window: expected [lo, hi]")
    lo, hi = window
    ranks = {}
    for n, r in _int_keyed(data["ranks"], "complex.ranks").items():
        if not isinstance(r, int) or isinstance(r, bool) or r < 0:
            raise SchemaError(f"complex.ranks[{n}]: expected a nonnegative int")
        if r and not lo <= n <= hi:
            raise SchemaError(f"complex.ranks[{n}]: degree outside the window")
        ranks[n] = r
    diffs = {n: _int_matrix(m, f"complex.differentials[{n}]")
             for n, m in _int_keyed(data["differentials"],
                                    "complex.differentials").items()}
    return build_complex(ranks, diffs)


def chainmap_to_json(f: ChainMap) -> dict:
    return {
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "matrices": {str(n): f.matrices[n].tolist()
                     for n in sorted(f.matrices)},
    }


def chainmap_from_json(data, resolve=default_resolver) -> ChainMap:
    from .k0chain import build_chain_map
    _expect(data, "chainmap", ("source", "target", "matrices"))
    A = _resolve(data["source"], "complex", resolve, "chainmap.source")
    B = _resolve(data["target"], "complex", resolve, "chainmap.target")
    mats = {n: _int_matrix(m, f"chainmap.matrices[{n}]")
            for n, m in _int_keyed(data["matrices"], "chainmap.matrices").items()}
    return build_chain_map(A, B, mats)


def tower_from_json(data, resolve=default_resolver):
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
        mats = {n: _int_matrix(m, f"tower.maps[{i}].matrices[{n}]")
                for n, m in _int_keyed(entry["matrices"],
                                       f"tower.maps[{i}].matrices").items()}
        maps.append(build_chain_map(complexes[i], complexes[i + 1], mats))
    return complexes, maps


def matrix_from_json(data, resolve=None):
    from .intmat import as_matrix
    if isinstance(data, dict):
        _expect(data, "matrix", ("matrix",))
        data = data["matrix"]
    return as_matrix(_int_matrix(data, "matrix"))


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
    "functor": functor_from_json,
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
    if "obmap" in data:
        return "functor"
    if "complexes" in data:
        return "tower"
    if "matrices" in data:
        return "chainmap"
    if "matrix" in data:
        return "matrix"
    raise SchemaError("cannot infer the kind: no recognized fingerprint field")
