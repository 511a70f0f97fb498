"""laxcat: exact computer algebra for finite categories, set-valued
profunctors, collage constructions, and integer chain complexes.

Everything is finite and enumerable; all arithmetic is exact (Python ints,
held in laxcat.intmat.Matrix values by the chain-complex layer).  See the
README for the JSON interchange formats and the command-line interface.

Importing the package loads none of its layers: each name below is read
from its module on first access (PEP 562), so a command pays only for the
layer it runs.
"""

import importlib

_EXPORTS = {
    "errors": ("LaxcatError",),
    "fincat": ("FinCategory", "CatFunctor", "build_category",
               "standard_category", "product", "opposite", "validate_functor",
               "find_isomorphism"),
    "profunctor": ("Profunctor", "ProTransformation", "build_profunctor",
                   "hom_profunctor", "from_functor", "compose_profunctors"),
    "collage": ("Collage", "Diagram", "collage_of_profunctor", "grothendieck"),
    "k0chain": ("ChainComplex", "ChainMap", "build_complex", "cone",
                "hom_complex", "tot", "smith_normal_form", "homology",
                "is_quasi_iso", "euler_char"),
    "decat": ("cardinality_matrix",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
