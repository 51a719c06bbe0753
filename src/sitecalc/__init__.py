"""sitecalc: a finite-site computation engine.

Represents finite categories, sieves, Grothendieck topologies, presheaves
and functors, and decides the finitary site-level criteria for morphisms
and comorphisms of sites and the properties of the geometric morphisms
they induce, including the explicit factorizations and comma-site
constructions.

The exports below are resolved when first read (PEP 562), so importing the
package, or `sitecalc.cli`, compiles only the modules that are used.
"""

import importlib

# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "fincat": ("CategoryError", "CommaCategory", "FinCategory", "FinFunctor", "SizeGuardError",
               "comma", "connected_components", "identity_functor", "validate_category"),
    "topology": ("GrothendieckTopology", "TopologyError", "atomic_topology",
                 "trivial_topology", "validate_topology"),
    "presheaf": ("FinPresheaf", "PresheafMorphism", "canonical_topology", "is_sheaf",
                 "sheafify", "validate_presheaf", "validate_presheaf_morphism", "yoneda"),
    "morphisms": ("MorphismClassification", "SiteFunctor", "Verdict", "classify_comorphism",
                  "classify_morphism", "is_comorphism_of_sites", "is_continuous",
                  "is_dense_morphism", "is_morphism_of_sites", "is_weakly_dense"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
