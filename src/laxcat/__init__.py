"""laxcat: exact computer algebra for finite categories, set-valued
profunctors, collage constructions, and integer chain complexes.

Everything is finite and enumerable; all arithmetic is exact (Python ints,
numpy object arrays).  See the README for the JSON interchange formats and
the command-line interface.

numpy is needed only by the chain-complex layer, laxcat.k0chain.  That
module is imported on first use of one of its names (laxcat.ChainComplex,
laxcat.cone, ...), so the category layer loads without numpy.
"""

from .errors import LaxcatError
from .fincat import (FinCategory, CatFunctor, build_category,
                     standard_category, product, opposite,
                     validate_functor, find_isomorphism)
from .profunctor import (Profunctor, ProTransformation, build_profunctor,
                         hom_profunctor, from_functor, compose_profunctors)
from .collage import Collage, Diagram, collage_of_profunctor, grothendieck
from .decat import cardinality_matrix

_K0CHAIN = ("ChainComplex", "ChainMap", "build_complex", "cone",
            "hom_complex", "tot", "smith_normal_form", "homology",
            "is_quasi_iso", "euler_char")


def __getattr__(name):
    # not cached here: every access reads laxcat.k0chain, so a name
    # patched there (by a tracer, say) is what callers get
    if name in _K0CHAIN:
        from . import k0chain
        return getattr(k0chain, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "LaxcatError",
    "FinCategory", "CatFunctor", "build_category", "standard_category",
    "product", "opposite", "validate_functor", "find_isomorphism",
    "Profunctor", "ProTransformation", "build_profunctor", "hom_profunctor",
    "from_functor", "compose_profunctors",
    "Collage", "Diagram", "collage_of_profunctor", "grothendieck",
    *_K0CHAIN,
    "cardinality_matrix",
]
