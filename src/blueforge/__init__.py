"""blueforge: computable F1 geometry.

Blueprints and their prime spectra, projective models, rank spaces, point
counts and zeta functions, Coxeter complexes and type-A buildings, quiver
Grassmannian Euler characteristics, the compactified arithmetic curve over Q,
congruence spectra, and K0 of blue-module categories.

The catalog module holds named constructors for all worked examples; the
demos/ directory of the repository walks through each capability.
"""

from .budget import Budget
from .core import (Blueprint, BlueprintMorphism, FiniteTable, IdealDescriptor,
                   MonomialBackend, additive_closure, derive, is_blue_field,
                   is_cancellative, is_frobenius, is_morphism, is_prime_ideal,
                   localize, quotient_by_ideal, ring_presentation,
                   semiring_presentation, torus_certificate, unit_field)
from .counting import (CountingPolynomial, ZetaFactored, counting_polynomial,
                       euler_characteristic, fq_points, soule_zeta,
                       verify_point_over_ordered_semifield)
from .schemes import (BlueScheme, GradedBlueprint, ProjSpace,
                      closed_subscheme_from_integer_relations,
                      fq_points_of_scheme, product, proj, projective_space)
from .spectra import (RankSpace, SpecPoint, SpecSpace, globalize,
                      rank_of_point, residue_field, spec, stalk,
                      weyl_extension)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "Blueprint", "BlueprintMorphism", "FiniteTable", "MonomialBackend",
    "IdealDescriptor", "derive", "is_morphism",
    "additive_closure", "is_prime_ideal", "quotient_by_ideal", "localize",
    "unit_field", "is_blue_field", "is_cancellative", "is_frobenius",
    "semiring_presentation", "ring_presentation", "torus_certificate",
    "SpecPoint", "SpecSpace", "RankSpace", "spec", "stalk", "residue_field",
    "globalize", "rank_of_point", "weyl_extension",
    "BlueScheme", "GradedBlueprint", "ProjSpace", "proj", "projective_space",
    "closed_subscheme_from_integer_relations", "product",
    "fq_points_of_scheme",
    "CountingPolynomial", "ZetaFactored", "fq_points", "counting_polynomial",
    "euler_characteristic", "soule_zeta",
    "verify_point_over_ordered_semifield",
    "__version__",
]
