"""sitecalc: a finite-site computation engine.

Represents finite categories, sieves, Grothendieck topologies, presheaves
and functors, and decides the finitary site-level criteria for morphisms
and comorphisms of sites and the properties of the geometric morphisms
they induce, including the explicit factorizations and comma-site
constructions.
"""

from .fincat import (
    CategoryError,
    CommaCategory,
    FinCategory,
    FinFunctor,
    SizeGuardError,
    comma,
    connected_components,
    identity_functor,
    validate_category,
)
from .topology import (
    GrothendieckTopology,
    TopologyError,
    atomic_topology,
    trivial_topology,
    validate_topology,
)
from .presheaf import FinPresheaf, PresheafMorphism, canonical_topology, is_sheaf, sheafify, yoneda
from .morphisms import (
    MorphismClassification,
    SiteFunctor,
    Verdict,
    classify_comorphism,
    classify_morphism,
    is_comorphism_of_sites,
    is_continuous,
    is_dense_morphism,
    is_morphism_of_sites,
    is_weakly_dense,
)

__all__ = [
    "CategoryError",
    "CommaCategory",
    "FinCategory",
    "FinFunctor",
    "FinPresheaf",
    "GrothendieckTopology",
    "MorphismClassification",
    "PresheafMorphism",
    "SiteFunctor",
    "SizeGuardError",
    "TopologyError",
    "Verdict",
    "atomic_topology",
    "canonical_topology",
    "classify_comorphism",
    "classify_morphism",
    "comma",
    "connected_components",
    "identity_functor",
    "is_comorphism_of_sites",
    "is_continuous",
    "is_dense_morphism",
    "is_morphism_of_sites",
    "is_sheaf",
    "is_weakly_dense",
    "sheafify",
    "trivial_topology",
    "validate_category",
    "validate_topology",
    "yoneda",
]
