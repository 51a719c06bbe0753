"""Derived categories: every category that a library constructor builds
from another one through `fincat.derived_category` (comma categories in
both directions, full subcategories, quotients by a functor congruence,
posets, categories of elements and sieve-diagram shapes) satisfies the
category laws, and equals what the constructor built before it shared the
builder.  The laws are checked here rather than at construction: the
builder derives them from a lawful category, and a run-time check would
cost every caller a pass over all composable triples.

Derived presheaves likewise: every presheaf, presheaf morphism and
subpresheaf that a construction builds from lawful data (representables,
sheafifications on both paths with their units, colimits with their legs,
C^s_J's sheaf arrows, χ_d and the rest) passes `validate_presheaf`,
`validate_presheaf_morphism` or the closure test.

Derived functors likewise: every functor a construction builds without
`validate_functor` (comma projections, composites, corestrictions,
inclusions, quotient functors, unit sections, j_F, i^s_K, the comprehensive
lift, elements projections and the continuity oracle's image diagrams)
passes it."""

import ast
import sys

import pytest

from sitecalc import constructions, factorizations, fincat, morphisms
from sitecalc.constructions import (
    comorphism_to_morphism_comma,
    generalized_elements_fibration,
    morphism_to_comorphism,
)
from sitecalc.factorizations import (
    build_CJs,
    category_of_elements,
    comprehensive_factorization,
    hyperconnected_localic_factorization,
)
from sitecalc.fincat import (
    SizeGuardError,
    comma,
    corestrict,
    full_subcategory,
    identity_functor,
    poset_category,
    quotient_by_functor_congruence,
    terminal_category,
    validate_category,
    validate_functor,
)
from sitecalc.morphisms import (
    SiteFunctor,
    _chi_morphism,
    _diagram_shape,
    _hom_presheaf,
    continuity_oracle,
    is_comorphism_of_sites,
    is_morphism_of_sites,
    sieve_diagram,
)
from sitecalc.presheaf import (
    FinPresheaf,
    PresheafMorphism,
    SubPresheaf,
    closure_cJ,
    colimit_of_representables,
    colimit_presheaf,
    constant_presheaf,
    identity_morphism,
    plus_construction,
    sheafify,
    sheafify_morphism,
    sheafify_plus_plus,
    sieve_subpresheaf,
    validate_presheaf,
    validate_presheaf_morphism,
    yoneda,
    yoneda_arrow,
)
from sitecalc.sieves import all_sieve_masks, maximal_sieve_mask

from conftest import (
    all_functors,
    is_restriction_closed,
    make_two,
    random_category,
    random_fibration,
    random_presheaf,
    random_site_functors,
    random_topology,
)
from oracles import (
    composition_table,
    enumerate_presheaf_morphisms,
    reference_category_of_elements,
    reference_comma,
    reference_diagram_shape,
    reference_full_subcategory,
    reference_poset_category,
    reference_quotient_by_functor_congruence,
    subpresheaves,
)
from test_package import SRC, _direct_calls


def _indexes(objects, arrow_keys):
    return {"object_index": {o: i for i, o in enumerate(objects)},
            "arrow_index": {a: i for i, a in enumerate(arrow_keys)}}


def _comma(F, G):
    cc = comma(F, G)
    cat, objects, arrow_data, left, right = reference_comma(F, G)
    return ({"category": cc.category, "objects": cc.objects, "arrow_data": cc.arrow_data,
             "left": cc.left_projection, "right": cc.right_projection,
             "object_index": cc.object_index, "arrow_index": cc.arrow_index},
            {"category": cat, "objects": objects, "arrow_data": arrow_data,
             "left": left, "right": right, **_indexes(objects, arrow_data)})


def _elements(P):
    el = category_of_elements(P)
    cat, projection, objects, arrow_decode = reference_category_of_elements(P)
    keys = [(cat.dom[a], cat.cod[a], f) for a, (f, _) in enumerate(arrow_decode)]
    return ({"category": el.category, "projection": el.projection, "objects": el.objects,
             "arrow_decode": el.arrow_decode,
             "object_index": el.object_index, "arrow_index": el.arrow_index},
            {"category": cat, "projection": projection, "objects": objects,
             "arrow_decode": arrow_decode, **_indexes(objects, keys)})


def _full_subcategory(cat, objects):
    sub, inclusion = full_subcategory(cat, objects)
    ref_sub, ref_inclusion = reference_full_subcategory(cat, objects)
    return ({"category": sub, "inclusion": inclusion},
            {"category": ref_sub, "inclusion": ref_inclusion})


def _quotient(F):
    quotient, projection, induced = quotient_by_functor_congruence(F)
    ref_quotient, ref_projection, ref_induced = reference_quotient_by_functor_congruence(F)
    return ({"category": quotient, "projection": projection, "induced": induced},
            {"category": ref_quotient, "projection": ref_projection, "induced": ref_induced})


def _corpus(rng):
    """(label, library parts, reference parts) per constructor call on the
    conftest corpora; each side's "category" is the derived category."""
    base = [random_category(rng) for _ in range(60)] + [make_two()]
    pool = base + [random_fibration(rng).source for _ in range(20)]
    pool += [category_of_elements(random_presheaf(rng, rng.choice(base))).category
             for _ in range(20)]
    for cat in pool:
        ident = identity_functor(cat)
        yield "comma (1 ↓ 1)", *_comma(ident, ident)
        yield "elements", *_elements(random_presheaf(rng, cat))
        objects = rng.sample(list(cat.objects), rng.randrange(cat.n_objects + 1))
        yield "full subcategory", *_full_subcategory(cat, objects)
    for cat in base:
        for c in cat.objects:
            for s in all_sieve_masks(cat, c):
                members, edges = sieve_diagram(cat, s)
                shape = _diagram_shape(len(members), edges, cat, members)
                yield "sieve-diagram shape", {"category": shape}, {
                    "category": reference_diagram_shape(len(members), edges, cat, members)}
    for A, B in [(make_two(), rng.choice(base))] + [
            (rng.choice(base), rng.choice(base)) for _ in range(60)]:
        functors = all_functors(A, B)
        if not functors:
            continue
        F, G = rng.choice(functors), rng.choice(functors)
        yield "comma (1 ↓ F)", *_comma(identity_functor(B), F)
        yield "comma (F ↓ 1)", *_comma(F, identity_functor(B))
        yield "comma (F ↓ G)", *_comma(F, G)
        yield "quotient", *_quotient(F)
        yield "full subcategory on an image", *_full_subcategory(B, sorted(F.image_objects))
    for _ in range(60):
        n = rng.randrange(1, 6)
        le = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
        yield "poset", {"category": poset_category(n, le)}, {
            "category": reference_poset_category(n, le)}


def test_derived_categories_are_lawful(rng):
    """`validate_category` gives back each derived category of the corpus,
    and its opposite, unchanged."""
    labels = set()
    for label, built, _ in _corpus(rng):
        for cat in (built["category"], built["category"].opposite()):
            assert validate_category(cat.n_objects, list(zip(cat.dom, cat.cod)),
                                     cat.identity, composition_table(cat)) == cat, label
        labels.add(label)
    assert len(labels) == 10


def test_derived_categories_match_the_reference_constructors(rng):
    """Each constructor gives what its own index and composition loops gave:
    the category with its composite rows, the functors out of or into it,
    `arrow_decode` and the object and arrow index maps."""
    for label, built, reference in _corpus(rng):
        assert built == reference, label


def test_corestrict_through_a_full_subcategory_recovers_the_functor(rng):
    for _ in range(40):
        A, B = random_category(rng), random_category(rng)
        functors = all_functors(A, B)
        if functors:
            F = rng.choice(functors)
            _, inclusion = full_subcategory(B, sorted(F.image_objects))
            assert corestrict(F, inclusion).then(inclusion) == F


def test_builder_guards_arrows_before_composing():
    """More than 2^16 arrow keys raise before the composition table is
    built, whichever constructor passes them."""
    with pytest.raises(SizeGuardError, match="65537 arrows exceeds the limit 65536"):
        category_of_elements(constant_presheaf(terminal_category(), 2**16 + 1))


def _colimit_legs(colim, legs, diagram):
    """The legs of a colimit, per shape object, as morphisms into it; the
    colimit gives them as components, so they are validated here."""
    return [validate_presheaf_morphism(P, colim, leg) for P, leg in zip(diagram, legs)]


def _presheaf_corpus(rng):
    """(label, value) per presheaf, presheaf morphism and subpresheaf that a
    construction of sitecalc builds on conftest sites and presheaves."""
    for _ in range(80):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P, Q = random_presheaf(rng, cat), random_presheaf(rng, cat, max_size=2)
        yield "constant", constant_presheaf(cat, rng.randrange(3))
        yield "identity", identity_morphism(P)
        for c in cat.objects:
            yield "yoneda", yoneda(cat, c)
            for s in all_sieve_masks(cat, c):
                sub = sieve_subpresheaf(cat, c, s)
                yield "sieve", sub
                yield "closure", closure_cJ(sub, J)
                yield "carrier", sub.as_presheaf()[0]
        for g in cat.arrows:
            yield "yoneda arrow", yoneda_arrow(cat, g)
        shP, shQ = sheafify(P, J), sheafify(Q, J)
        for sh in (shP, shQ):
            yield "sheaf", sh.sheaf
            yield "sheaf unit", sh.unit
        plus, unit = plus_construction(P, J)
        yield "plus", plus
        yield "plus unit", unit
        plusplus, unit = sheafify_plus_plus(P, J)  # the second unit through `then`
        yield "plus-plus", plusplus
        yield "plus-plus unit", unit
        alphas = enumerate_presheaf_morphisms(P, Q)[:4]
        for alpha in alphas:
            yield "enumerated", alpha
            yield "sheafified morphism", sheafify_morphism(alpha, shP, shQ)
            yield "composite", identity_morphism(P).then(alpha).then(shQ.unit)
        for A in subpresheaves(Q)[:6]:
            yield "subpresheaf", A
            yield "closure", closure_cJ(A, J)
            yield "carrier", A.as_presheaf()[0]
        el = category_of_elements(P)
        colim, legs = colimit_of_representables(el.projection)
        yield "colimit", colim
        for leg in _colimit_legs(colim, legs, [yoneda(cat, c) for c, _ in el.objects]):
            yield "colimit leg", leg
        members, edges = sieve_diagram(cat, maximal_sieve_mask(cat, 0))
        shape = _diagram_shape(len(members), edges, cat, members)
        diagram = [yoneda(cat, cat.dom[f]) for f in members]
        arrows = [yoneda_arrow(cat, t) for _, _, t in edges]
        colim, legs = colimit_presheaf(cat, shape, diagram, arrows)
        yield "colimit", colim
        for leg in _colimit_legs(colim, legs, diagram):
            yield "colimit leg", leg
        cjs = build_CJs(cat, J)
        for sh in cjs.sheaves:
            yield "C^s_J sheaf", sh.sheaf
            yield "C^s_J unit", sh.unit
        for arrow in cjs.sheaf_arrows:
            yield "C^s_J sheaf arrow", arrow
    for _ in range(60):
        A, B = random_category(rng), random_category(rng)
        functors = all_functors(A, B)
        if not functors:
            continue
        sf = SiteFunctor(rng.choice(functors), random_topology(rng, A), random_topology(rng, B))
        for c in B.objects:
            yield "Hom(F(-), c)", _hom_presheaf(sf.F, c)
        for d in A.objects:
            sh_yd, sh_P, chi = _chi_morphism(sf, d)
            yield "chi_d", chi
            yield "sheaf", sh_P.sheaf
            yield "sheaf unit", sh_P.unit


def test_derived_presheaves_are_lawful(rng):
    """The validators give back each derived presheaf and presheaf morphism
    unchanged, with its source and target, and each derived subpresheaf is
    closed under restriction."""
    labels = set()
    for label, value in _presheaf_corpus(rng):
        if isinstance(value, SubPresheaf):
            assert is_restriction_closed(value), label
            value = value.ambient
        if isinstance(value, PresheafMorphism):
            assert validate_presheaf_morphism(value.source, value.target,
                                              value.components) == value, label
            presheaves = (value.source, value.target)
        else:
            presheaves = (value,)
        for P in presheaves:
            assert isinstance(P, FinPresheaf)
            assert validate_presheaf(P.cat, P.sizes, P.restrict) == P, label
        labels.add(label)
    assert len(labels) == 24


def _functor_builders() -> dict[str, set[str]]:
    """Per module of src/, the functions that call the `FinFunctor`
    constructor themselves, `validate_functor` aside."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    out: dict[str, set[str]] = {}
    for call in _direct_calls(trees, "FinFunctor"):
        scope = call.partition(":")[0]
        out.setdefault(scope.partition(".")[0], set()).add(scope.rsplit(".", 1)[1])
    out["fincat"].discard("validate_functor")
    return out


def _derived_functors(rng, monkeypatch) -> list[tuple[str, fincat.FinFunctor]]:
    """(building function, functor) for each functor that a construction
    builds directly, over the category corpus and 40 random site functors:
    their comma sites in the direction each admits, the two factorizations
    through C^s_K and ∫F_K, and the continuity oracle.  The constructor is
    wrapped in each module that calls it, so nothing is missed that these
    inputs reach."""
    built = []
    real = fincat.FinFunctor

    def record(*fields):
        F, name = real(*fields), sys._getframe(1).f_code.co_name
        if name != "validate_functor":  # the corpus's own maps, checked as they enter
            built.append((name, F))
        return F

    for module in (fincat, morphisms, factorizations, constructions):
        monkeypatch.setattr(module, "FinFunctor", record)
    for _ in _corpus(rng):
        pass
    for i, sf in enumerate(random_site_functors(rng, 40)):
        if is_morphism_of_sites(sf):
            morphism_to_comorphism(sf)
            if i < 12:
                hyperconnected_localic_factorization(sf)
        if is_comorphism_of_sites(sf):
            comorphism_to_morphism_comma(sf)
            generalized_elements_fibration(sf)
        comprehensive_factorization(sf.F, sf.K)
        continuity_oracle(sf)
    monkeypatch.undo()
    return built


def test_derived_functors_are_lawful(rng, monkeypatch):
    """`validate_functor` gives back each derived functor unchanged, and
    the corpus reaches every function of src/ that builds one directly."""
    builders = _functor_builders()
    seen = set()
    for name, F in _derived_functors(rng, monkeypatch):
        assert validate_functor(F.source, F.target, F.obj_map, F.arr_map) == F, name
        seen.add(name)
    assert seen == set().union(*builders.values())
    assert sorted(builders) == ["constructions", "factorizations", "fincat", "morphisms"]
