"""laxcat: exact computer algebra for finite categories, set-valued
profunctors, collage constructions, and integer chain complexes.

Everything is finite and enumerable; all arithmetic is exact (Python ints,
held in laxcat.intmat.Matrix values by the chain-complex layer).  See the
README for the JSON interchange formats and the command-line interface.
"""

from .errors import LaxcatError
from .fincat import (FinCategory, CatFunctor, build_category,
                     standard_category, product, opposite,
                     validate_functor, find_isomorphism)
from .profunctor import (Profunctor, ProTransformation, build_profunctor,
                         hom_profunctor, from_functor, compose_profunctors)
from .collage import Collage, Diagram, collage_of_profunctor, grothendieck
from .k0chain import (ChainComplex, ChainMap, build_complex, cone,
                      hom_complex, tot, smith_normal_form, homology,
                      is_quasi_iso, euler_char)
from .decat import cardinality_matrix


__all__ = [
    "LaxcatError",
    "FinCategory", "CatFunctor", "build_category", "standard_category",
    "product", "opposite", "validate_functor", "find_isomorphism",
    "Profunctor", "ProTransformation", "build_profunctor", "hom_profunctor",
    "from_functor", "compose_profunctors",
    "Collage", "Diagram", "collage_of_profunctor", "grothendieck",
    "ChainComplex", "ChainMap", "build_complex", "cone", "hom_complex",
    "tot", "smith_normal_form", "homology", "is_quasi_iso", "euler_char",
    "cardinality_matrix",
]
