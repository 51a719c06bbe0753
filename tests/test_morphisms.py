import collections
import itertools
import time

import pytest

import sitecalc.morphisms as mor
import sitecalc.presheaf as ps
from sitecalc.cli import parse
from sitecalc.constructions import morphism_to_comorphism
from sitecalc.fincat import (
    SizeGuardError,
    full_subcategory,
    identity_functor,
    monoid_category,
    poset_category,
    terminal_category,
    validate_category,
    validate_functor,
)
from sitecalc.morphisms import (
    SiteFunctor,
    Verdict,
    _CommaComponents,
    _ab_categories,
    _clause_iii_failure,
    _coherent_families,
    _diagram_shape,
    _image_base_misses,
    _principally_presented,
    _realized_arrows,
    _uncovered_by_realized,
    _weakly_dense_clause_iii,
    classify_comorphism,
    closed_sieve_lifting,
    classify_morphism,
    cocone_is_sheaf_colimit,
    cocone_sheaf_colimit_oracle,
    comma_components,
    comorphism_factorizations,
    comprehensive_factorization,
    continuity_oracle,
    hyperconnected_localic_factorization,
    is_comorphism_of_sites,
    is_continuous,
    is_cover_preserving,
    is_cover_reflecting,
    is_dense_morphism,
    is_J_cofinal,
    is_locally_connected_general,
    is_locally_connected_presheaf,
    is_morphism_of_sites,
    is_terminally_connected,
    is_weakly_dense,
    local_property_tests,
    recheck_witness,
    sieve_diagram,
    surjection_inclusion_factorization,
)
from sitecalc.presheaf import (
    _locally_matching_families,
    canonical_topology,
    category_of_elements,
    closure_cJ,
    is_sheaf,
    sheafify,
    validate_presheaf_morphism,
    yoneda,
)
from sitecalc.sieves import (
    all_sieve_masks,
    bits,
    generate_mask,
    is_sieve_mask,
    mask_of,
    maximal_sieve_mask,
)
from sitecalc.topology import (
    TopologyError,
    atomic_topology,
    closure_mask,
    coinduced_topology,
    fibration_topology,
    generate_topology,
    induced_topology,
    smallest_comorphism_topology,
    trivial_topology,
)

from conftest import (
    all_functors,
    indiscrete_category,
    make_collapse_functor,
    make_two,
    random_category,
    random_fibration,
    random_presheaf,
    random_site_functors,
    random_topology,
)
from oracles import (
    enumerate_presheaf_morphisms,
    reference_closure_mask,
    reference_cocone_is_sheaf_colimit,
    reference_continuity_oracle,
    reference_hom_presheaf,
    reference_is_J_cofinal,
    reference_comorphism_inclusion,
    reference_local_equality,
    reference_locally_connected,
    reference_morphism_of_sites,
    reference_yoneda_arrow,
    subpresheaves,
)
from test_cli import LATE_MISS_SITE, Z2_POINT_SITE, vee_site
from test_presheaf import _reference_locally_matching_families


def collapse_site_functor(two):
    J = atomic_topology(two)
    return SiteFunctor(make_collapse_functor(two), J, J)


def diamond():
    return poset_category(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


# ---------------------------------------------------------------------------
# morphisms / comorphisms of sites

def test_identity_is_morphism_and_comorphism(rng):
    for _ in range(10):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        sf = SiteFunctor(identity_functor(cat), J, J)
        assert is_morphism_of_sites(sf).holds
        assert is_comorphism_of_sites(sf).holds


def test_collapse_is_morphism_not_comorphism(two):
    sf = collapse_site_functor(two)
    assert is_morphism_of_sites(sf).holds
    com = is_comorphism_of_sites(sf)
    assert not com.holds
    assert recheck_witness(sf, com)


def test_cover_breaking_functor_clause_i(two):
    # identity (2, J_at) -> (2, trivial) collapses the cover {u}
    sf = SiteFunctor(identity_functor(two), atomic_topology(two), trivial_topology(two))
    v = is_morphism_of_sites(sf)
    assert not v.holds and v.witness["clause"] == "i"
    assert recheck_witness(sf, v)


def test_fibration_with_smallest_topology_is_comorphism(rng):
    for _ in range(10):
        p = random_fibration(rng)
        K = random_topology(rng, p.target)
        M = smallest_comorphism_topology(p, K)
        sf = SiteFunctor(p, M, K)
        assert is_comorphism_of_sites(sf).holds


def test_cover_preserving_reflecting_examples(two):
    sf = collapse_site_functor(two)
    assert is_cover_preserving(sf).holds
    assert is_cover_reflecting(sf).holds
    # constant functor to the point reflects nothing from a trivial source
    one = terminal_category()
    const = validate_functor(two, one, (0, 0), (0, 0, 0))
    sf2 = SiteFunctor(const, trivial_topology(two), trivial_topology(one))
    v = is_cover_reflecting(sf2)
    assert not v.holds
    assert recheck_witness(sf2, v)


# ---------------------------------------------------------------------------
# continuity

def test_morphisms_of_sites_are_continuous(rng, two):
    assert is_continuous(collapse_site_functor(two)).holds
    for _ in range(6):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        sf = SiteFunctor(identity_functor(cat), J, J)
        assert is_continuous(sf).holds


def test_fibrations_are_continuous(rng):
    for _ in range(8):
        p = random_fibration(rng)
        K = random_topology(rng, p.target)
        M = fibration_topology(p, K)
        sf = SiteFunctor(p, M, K)
        assert is_continuous(sf).holds
        assert continuity_oracle(sf)


def test_cover_preserving_non_continuous_comorphism():
    """The finite mimic of the non-locally-connected locale example: the
    diamond lattice mapped onto the chain by collapsing everything above
    the bottom."""
    D = diamond()
    two = make_two()
    F = validate_functor(D, two, (0, 1, 1, 1), (0, 2, 2, 2, 1, 1, 1, 1, 1))
    sf = SiteFunctor(F, canonical_topology(D), canonical_topology(two))
    assert is_comorphism_of_sites(sf).holds
    assert is_cover_preserving(sf).holds
    v = is_continuous(sf)
    assert not v.holds
    assert not continuity_oracle(sf)


def test_continuity_checker_matches_oracle(rng):
    for _ in range(10):
        cat = random_category(rng)
        tgt = random_category(rng)
        fs = all_functors(cat, tgt)
        if not fs:
            continue
        F = rng.choice(fs)
        sf = SiteFunctor(F, random_topology(rng, cat), random_topology(rng, tgt))
        assert is_continuous(sf).holds == continuity_oracle(sf)


def test_continuity_skips_the_sieves_that_hold_the_identity(monkeypatch, rng):
    """A covering sieve that holds id_c yields no failure, as every square
    connects through id_c.  When the source topology is trivial only
    maximal sieves cover, so `is_continuous` builds no sieve diagram, and
    it agrees with the oracle, which builds them all."""
    sfs = [SiteFunctor(sf.F, trivial_topology(sf.F.source), sf.K)
           for sf in random_site_functors(rng, 150)]
    expected = [continuity_oracle(sf) for sf in sfs]

    def no_diagram(cat, mask):
        raise AssertionError("a sieve diagram was built")
    monkeypatch.setattr(mor, "sieve_diagram", no_diagram)
    assert [is_continuous(sf).holds for sf in sfs] == expected


# ---------------------------------------------------------------------------
# cofinality and sheaf colimits

def test_identity_is_cofinal(rng):
    for _ in range(8):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        assert is_J_cofinal(identity_functor(cat), J).holds


def test_trivial_topology_cofinal_is_classical(rng):
    """For the trivial topology, J-cofinality = classical cofinality
    (each (c ↓ F) nonempty and connected)."""
    for _ in range(10):
        src = random_category(rng)
        tgt = random_category(rng)
        fs = all_functors(src, tgt)
        if not fs:
            continue
        F = rng.choice(fs)
        J = trivial_topology(tgt)
        verdict = is_J_cofinal(F, J).holds

        # classical oracle
        from sitecalc.morphisms import comma_components
        classical = True
        vertices = [F.on_obj(a) for a in src.objects]
        edges = [(src.dom[u], src.cod[u], F.on_arr(u)) for u in src.arrows]
        for c in tgt.objects:
            nodes = [(i, u) for i, v in enumerate(vertices) for u in tgt.hom(c, v)]
            if not nodes:
                classical = False
                break
            labels = comma_components(tgt, c, vertices, edges)
            if len({labels[n] for n in nodes}) != 1:
                classical = False
                break
        assert verdict == classical


def test_dense_subcategory_inclusion_cofinal(two):
    J = atomic_topology(two)
    one = terminal_category()
    inc = validate_functor(one, two, (0,), (0,))
    assert is_J_cofinal(inc, J).holds


def test_cocone_sheaf_colimit(two, rng):
    # trivial diagram: identity cocone is always a sheaf colimit
    for _ in range(6):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        c = rng.randrange(cat.n_objects)
        one = terminal_category()
        D = validate_functor(one, cat, (c,), (cat.identity[c],))
        v = cocone_is_sheaf_colimit(D, c, {0: cat.identity[c]}, J)
        assert v.holds
        assert cocone_sheaf_colimit_oracle(D, c, {0: cat.identity[c]}, J)
    # broken cocone: precondition error
    one = terminal_category()
    D = validate_functor(one, two, (0,), (two.identity[0],))
    with pytest.raises(ValueError):
        cocone_is_sheaf_colimit(D, 1, {0: two.identity[1]}, atomic_topology(two))


def test_cocone_checker_matches_oracle(rng):
    for _ in range(12):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        shape = poset_category(2, [])
        fs = all_functors(shape, cat)
        D = rng.choice(fs)
        for vertex in cat.objects:
            legs = {}
            ok = True
            for i in shape.objects:
                hom = cat.hom(D.on_obj(i), vertex)
                if not hom:
                    ok = False
                    break
                legs[i] = hom[0]
            if not ok:
                continue
            v = cocone_is_sheaf_colimit(D, vertex, legs, J)
            assert v.holds == cocone_sheaf_colimit_oracle(D, vertex, legs, J)


def _reference_connected_sieve(cat, vertices, edges, cache, c, i, x, j, y):
    """The mask loop each local-connection checker carried inline: the
    arrows f into c along which (i, x∘f) and (j, y∘f) are connected, with
    the labels of (e ↓ D) kept in `cache` per object e."""
    good = 0
    for f in cat.arrows_into(c):
        e = cat.dom[f]
        if e not in cache:
            cache[e] = comma_components(cat, e, vertices, edges)
        labels = cache[e]
        if labels[(i, cat.compose(x, f))] == labels[(j, cat.compose(y, f))]:
            good |= 1 << f
    return good


def _sieve_cocone(cat, c, mask):
    """The diagram of a sieve on c with its members as the legs of a cocone
    with vertex c."""
    members, edges = sieve_diagram(cat, mask)
    shape = _diagram_shape(len(members), edges, cat, members)
    D = validate_functor(shape, cat, tuple(cat.dom[f] for f in members),
                         tuple(t for _, _, t in edges))
    return D, dict(enumerate(members))


def test_comma_components_sieve_matches_reference_loop(rng):
    """The shared local-connection helper against the inline loop it
    replaced, on every (c, i, x, j, y) of the diagrams of 100 random site
    functors: the functor's own diagram, as in cofinality, the image of
    each covering sieve, as in continuity, and the two elements-style
    diagrams of each (h, c, x), as in local connectedness.  The checkers
    built on it still
    agree with their independent oracles: continuity, and every sieve of
    the target as a cocone, the empty one included."""
    functors = 0
    compared = 0
    verdicts = collections.Counter()
    while functors < 100:
        src, tgt = random_category(rng), random_category(rng)
        try:
            fs = all_functors(src, tgt)
        except RuntimeError:
            continue
        if not fs:
            continue
        F = rng.choice(fs)
        sf = SiteFunctor(F, random_topology(rng, src), random_topology(rng, tgt))
        functors += 1
        diagrams = [([F.on_obj(a) for a in src.objects],
                     [(src.dom[u], src.cod[u], F.on_arr(u)) for u in src.arrows])]
        for c in src.objects:
            for s in sf.J.covers[c]:
                members, edges = sieve_diagram(src, s)
                diagrams.append(([F.on_obj(src.dom[f]) for f in members],
                                 [(i, j, F.on_arr(t)) for i, j, t in edges]))
        for h in tgt.arrows:
            for c in src.objects:
                for x in tgt.hom(F.on_obj(c), tgt.cod[h]):
                    _, a_edges, a_proj, _, b_edges, b_proj, _ = _ab_categories(F, h, c, x)
                    diagrams += [(a_proj, a_edges), (b_proj, b_edges)]
        for vertices, edges in diagrams:
            comma = _CommaComponents(tgt, vertices, edges)
            cache = {}
            for c in tgt.objects:
                for i, v in enumerate(vertices):
                    for x in tgt.hom(c, v):
                        for j, w in enumerate(vertices):
                            for y in tgt.hom(c, w):
                                assert comma.sieve(c, i, x, j, y) == _reference_connected_sieve(
                                    tgt, vertices, edges, cache, c, i, x, j, y)
                                compared += 1
        continuous = is_continuous(sf).holds
        assert continuous == continuity_oracle(sf)
        verdicts["continuous", continuous] += 1
        for c in tgt.objects:
            for s in all_sieve_masks(tgt, c):
                D, legs = _sieve_cocone(tgt, c, s)
                colimit = cocone_is_sheaf_colimit(D, c, legs, sf.K).holds
                assert colimit == cocone_sheaf_colimit_oracle(D, c, legs, sf.K)
                verdicts["sheaf-colimit", colimit] += 1
    assert compared > 10_000
    assert min(verdicts.values()) > 10 and len(verdicts) == 4


# ---------------------------------------------------------------------------
# local properties and denseness

def test_identity_local_properties(rng):
    for _ in range(6):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        props = local_property_tests(SiteFunctor(identity_functor(cat), J, J))
        assert all(v.holds for v in props.values())


def test_full_faithful_inclusion_properties(rng):
    for _ in range(8):
        tgt = random_category(rng)
        objs = sorted(set(rng.sample(list(tgt.objects),
                                     rng.randrange(1, tgt.n_objects + 1))))
        sub, inc = full_subcategory(tgt, objs)
        J = random_topology(rng, sub)
        K = random_topology(rng, tgt)
        props = local_property_tests(SiteFunctor(inc, J, K))
        assert props["J_faithful"].holds and props["J_full"].holds


def test_collapse_density_ladder(two):
    sf = collapse_site_functor(two)
    dense = is_dense_morphism(sf)
    assert not dense.holds and dense.witness["clause"] == "ii"
    assert dense.witness["witness"]["object"] == 0
    assert is_weakly_dense(sf).holds
    props = local_property_tests(sf)
    assert not props["K_dense"].holds


def test_identity_dense(rng):
    for _ in range(6):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        sf = SiteFunctor(identity_functor(cat), J, J)
        assert is_dense_morphism(sf).holds
        assert is_weakly_dense(sf).holds


def _enumerate_morphisms_of_sites(rng, n=40):
    """A corpus of morphisms of sites between small random sites."""
    out = []
    tries = 0
    while len(out) < n and tries < 300:
        tries += 1
        src = random_category(rng)
        tgt = random_category(rng)
        try:
            fs = all_functors(src, tgt)
        except RuntimeError:
            continue
        if not fs:
            continue
        F = rng.choice(fs)
        J = random_topology(rng, src)
        K = random_topology(rng, tgt)
        sf = SiteFunctor(F, J, K)
        if is_morphism_of_sites(sf).holds:
            out.append(sf)
    return out


def test_dense_iff_weakly_dense_plus_covering_lifting(rng):
    """Dense ⟺ weakly dense + covering-lifting, both directions, over the
    enumerated corpus."""
    corpus = _enumerate_morphisms_of_sites(rng)
    assert len(corpus) >= 20
    for sf in corpus:
        dense = is_dense_morphism(sf).holds
        wd = is_weakly_dense(sf).holds
        cl = is_comorphism_of_sites(sf).holds
        assert dense == (wd and cl)
        if dense:
            assert cl  # dense morphisms always lift covers


def test_dense_iff_weakly_dense_for_subcanonical_target(rng):
    for sf in _enumerate_morphisms_of_sites(rng, n=25):
        K = canonical_topology(sf.functor.target)
        sf2 = SiteFunctor(sf.functor, sf.source_topology, K)
        if not is_morphism_of_sites(sf2).holds:
            continue
        assert is_dense_morphism(sf2).holds == is_weakly_dense(sf2).holds


# ---------------------------------------------------------------------------
# classification and factorizations (morphism side)

def test_classification_flag_implications(rng):
    for sf in _enumerate_morphisms_of_sites(rng, n=25):
        cls = classify_morphism(sf)  # the constructor enforces implications
        flags = cls.flags()
        if flags["equivalence"]:
            assert all(flags[k] for k in
                       ("surjection", "inclusion", "hyperconnected", "localic"))
        if flags["hyperconnected"]:
            assert flags["surjection"]


def test_surjection_inclusion_factorization(rng, two):
    sf = collapse_site_functor(two)
    fact = surjection_inclusion_factorization(sf)
    assert fact.induced.covers == sf.target_topology.covers  # F cover-reflecting
    for sf2 in _enumerate_morphisms_of_sites(rng, n=12):
        fact = surjection_inclusion_factorization(sf2)
        assert is_cover_reflecting(fact.surjection_leg).holds
        incl_cls = classify_morphism(fact.inclusion_leg)
        assert incl_cls.inclusion.holds
        # recomposition: the surjection leg is F itself on (C, J_F)
        assert fact.surjection_leg.functor == sf2.functor
        # composite classification equals the original's
        original = classify_morphism(sf2).flags()
        composed_surj = is_cover_reflecting(
            SiteFunctor(sf2.functor, sf2.source_topology, sf2.target_topology)).holds
        assert original["surjection"] == composed_surj


def test_hyperconnected_localic_factorization(two):
    sf = collapse_site_functor(two)
    fact = hyperconnected_localic_factorization(sf)
    hyper_cls = classify_morphism(fact.hyperconnected_leg)
    loc_cls = classify_morphism(fact.localic_leg)
    assert hyper_cls.hyperconnected.holds
    assert loc_cls.localic.holds
    # recomposition at the site level
    composite = fact.localic_leg.functor.then(fact.hyperconnected_leg.functor)
    assert composite.obj_map == fact.embedding.functor.obj_map
    assert composite.arr_map == fact.embedding.functor.arr_map
    # the composite presents the same morphism as F: flags agree
    emb_cls = classify_morphism(fact.embedding)
    assert emb_cls.flags() == classify_morphism(sf).flags()


def test_hyperconnected_localic_identity_first_leg_equivalence(two):
    J = atomic_topology(two)
    sf = SiteFunctor(identity_functor(two), J, J)
    fact = hyperconnected_localic_factorization(sf)
    assert classify_morphism(fact.localic_leg).equivalence.holds


# ---------------------------------------------------------------------------
# comorphism classification

def test_full_faithful_inclusion_comorphism_is_inclusion(rng):
    for _ in range(8):
        tgt = random_category(rng)
        objs = sorted(set(rng.sample(list(tgt.objects),
                                     rng.randrange(1, tgt.n_objects + 1))))
        sub, inc = full_subcategory(tgt, objs)
        sf = SiteFunctor(inc, trivial_topology(sub), trivial_topology(tgt))
        if not is_comorphism_of_sites(sf).holds:
            continue
        assert classify_comorphism(sf).inclusion.holds


def test_fibration_comorphism_surjection(rng):
    """Surjection of C_p decided exactly by the topology equality K = M^F
    coinduced (image-topology equality oracle)."""
    from sitecalc.topology import coinduced_topology
    for _ in range(8):
        p = random_fibration(rng)
        K = random_topology(rng, p.target)
        M = fibration_topology(p, K)
        sf = SiteFunctor(p, M, K)
        cls = classify_comorphism(sf)
        assert cls.surjection.holds == \
            (coinduced_topology(p, M).covers == K.covers)


def test_functor_to_point_hyperconnected(two):
    one = terminal_category()
    # discrete source: not full onto the point, hence not hyperconnected
    disc = poset_category(2, [])
    const = validate_functor(disc, one, (0, 0), (0, 0))
    sf = SiteFunctor(const, trivial_topology(disc), trivial_topology(one))
    assert is_comorphism_of_sites(sf).holds
    assert not classify_comorphism(sf).hyperconnected.holds
    # indiscrete source: full with every object a retract: hyperconnected
    ind = indiscrete_category(2)
    const2 = validate_functor(ind, one, (0, 0), (0,) * ind.n_arrows)
    sf2 = SiteFunctor(const2, trivial_topology(ind), trivial_topology(one))
    assert classify_comorphism(sf2).hyperconnected.holds


def test_bimorphism_equivalence_criterion(rng):
    """For bimorphisms: the comorphism induces an equivalence iff the functor
    is a dense morphism of sites, iff K-full + K-faithful + J-dense.  (The
    K-faithfulness clause is genuinely needed: the idempotent monoid mapped
    onto the indiscrete pair is K-full and J-dense without inducing an
    equivalence.)"""
    checked = 0
    for _ in range(60):
        src = random_category(rng)
        tgt = random_category(rng)
        try:
            fs = all_functors(src, tgt)
        except RuntimeError:
            continue
        if not fs:
            continue
        F = rng.choice(fs)
        K = random_topology(rng, src)
        J = random_topology(rng, tgt)
        sf = SiteFunctor(F, K, J)
        if not (is_morphism_of_sites(sf).holds and is_comorphism_of_sites(sf).holds):
            continue
        checked += 1
        props = local_property_tests(sf)
        cls = classify_comorphism(sf)
        expected = (props["J_full"].holds and props["J_faithful"].holds
                    and props["K_dense"].holds)
        assert cls.equivalence.holds == expected
        assert cls.equivalence.holds == is_dense_morphism(sf).holds
        # the equivalence must also agree with the morphism-side classifier:
        # C_F is an equivalence iff it is a surjection and an inclusion
        assert cls.equivalence.holds == (cls.surjection.holds and cls.inclusion.holds)
    assert checked >= 10


def test_bimorphism_kfull_jdense_counterexample():
    """The frozen counterexample behind the corrected criterion."""
    from sitecalc.fincat import monoid_category
    M = monoid_category([[0, 1], [1, 1]], 0)
    ind = indiscrete_category(2)
    F = validate_functor(M, ind, (0,), (ind.identity[0], ind.identity[0]))
    sf = SiteFunctor(F, trivial_topology(M), trivial_topology(ind))
    assert is_morphism_of_sites(sf).holds
    assert is_comorphism_of_sites(sf).holds
    props = local_property_tests(sf)
    assert props["J_full"].holds and props["K_dense"].holds
    assert not props["J_faithful"].holds
    cls = classify_comorphism(sf)
    assert cls.surjection.holds           # J = K^F holds
    assert not cls.inclusion.holds        # K-faithfulness fails
    assert not cls.equivalence.holds


def test_essential_image_on_representables(rng):
    """For continuous comorphisms, the essential image on representables is
    presented by the elements-indexed colimit: the two sheafifications are
    naturally isomorphic."""
    checked = 0
    for _ in range(20):
        p = random_fibration(rng)
        if p.source.n_arrows > 12:
            continue
        K = random_topology(rng, p.target)
        M = fibration_topology(p, K)
        sf = SiteFunctor(p, M, K)
        for c in p.source.objects:
            shc = sheafify(yoneda(p.source, c), M)
            el = category_of_elements(shc.sheaf)
            from sitecalc.presheaf import colimit_of_representables
            colim, _ = colimit_of_representables(el.projection.then(p))
            lhs = sheafify(colim, K).sheaf
            rhs = sheafify(yoneda(p.target, p.on_obj(c)), K).sheaf
            isos = [m for m in enumerate_presheaf_morphisms(lhs, rhs)
                    if m.is_bijective()]
            assert isos, "essential image mismatch on representables"
        checked += 1
        if checked >= 4:
            break
    assert checked >= 2


# ---------------------------------------------------------------------------
# comorphism factorizations

def _cover_preserving_comorphisms(rng, n=10):
    out = []
    tries = 0
    while len(out) < n and tries < 200:
        tries += 1
        src = random_category(rng)
        tgt = random_category(rng)
        try:
            fs = all_functors(src, tgt)
        except RuntimeError:
            continue
        if not fs:
            continue
        F = rng.choice(fs)
        K = random_topology(rng, src)
        J = random_topology(rng, tgt)
        sf = SiteFunctor(F, K, J)
        if is_comorphism_of_sites(sf).holds and is_cover_preserving(sf).holds:
            out.append(sf)
    return out


def test_comorphism_factorizations(rng):
    for sf in _cover_preserving_comorphisms(rng, n=8):
        fact = comorphism_factorizations(sf)
        # surjection leg: the image topology equality holds by construction
        from sitecalc.morphisms import comorphism_surjection
        assert comorphism_surjection(fact.surjection_leg).holds
        # inclusion leg: full and faithful inclusion comorphism
        assert fact.inclusion_leg.functor.is_full()
        assert fact.inclusion_leg.functor.is_faithful()
        assert classify_comorphism(fact.inclusion_leg).inclusion.holds
        # hyperconnected leg: full quotient projection
        assert classify_comorphism(fact.hyperconnected_leg).hyperconnected.holds
        # localic leg: faithful
        assert fact.localic_leg.functor.is_faithful()
        assert classify_comorphism(fact.localic_leg).localic.holds
        # recomposition
        si = fact.surjection_leg.functor.then(fact.inclusion_leg.functor)
        assert si.obj_map == sf.functor.obj_map and si.arr_map == sf.functor.arr_map
        hl = fact.hyperconnected_leg.functor.then(fact.localic_leg.functor)
        assert hl.obj_map == sf.functor.obj_map and hl.arr_map == sf.functor.arr_map


# ---------------------------------------------------------------------------
# locally connected / terminally connected

def test_discrete_fibrations_locally_connected(rng):
    for _ in range(8):
        cat = random_category(rng)
        P = random_presheaf(rng, cat, max_size=2)
        proj = category_of_elements(P).projection
        assert is_locally_connected_presheaf(proj).holds


def test_collapse_functor_not_locally_connected(two):
    v = is_locally_connected_presheaf(make_collapse_functor(two))
    assert not v.holds and v.witness["clause"] == "a"


def test_clause_b_counterexample():
    """A functor failing exactly the connection clause, found by search and
    frozen; the witness is validated by the component oracle built into the
    checker itself."""
    V = poset_category(3, [(0, 2), (1, 2)])
    F = validate_functor(V, V, (0, 0, 2), (0, 1, 0, 1, 4))
    v = is_locally_connected_presheaf(F)
    assert not v.holds and v.witness["clause"] == "b"


def test_locally_connected_general_trivial_agrees(rng):
    """On trivial topologies every functor is a continuous comorphism, and
    the general checker gives the presheaf checker's verdict and witness,
    compared without the `sieve` key."""
    def without_sieve(v):
        return {k: x for k, x in v.witness.items() if k != "sieve"}

    for _ in range(8):
        src = random_category(rng)
        tgt = random_category(rng)
        try:
            fs = all_functors(src, tgt)
        except RuntimeError:
            continue
        if not fs:
            continue
        F = rng.choice(fs)
        sf = SiteFunctor(F, trivial_topology(src), trivial_topology(tgt))
        assert is_comorphism_of_sites(sf).holds and is_continuous(sf).holds
        general, presheaf = is_locally_connected_general(sf), is_locally_connected_presheaf(F)
        assert general.holds == presheaf.holds
        assert without_sieve(general) == without_sieve(presheaf)


def test_fibrations_locally_connected_general(rng):
    for _ in range(6):
        p = random_fibration(rng)
        K = random_topology(rng, p.target)
        M = fibration_topology(p, K)
        sf = SiteFunctor(p, M, K)
        assert is_locally_connected_general(sf).holds


def test_comprehensive_factorization(rng):
    for _ in range(6):
        p = random_fibration(rng)
        K = random_topology(rng, p.target)
        fact = comprehensive_factorization(p, K)
        recomposed = fact.lift.then(fact.projection)
        assert recomposed.obj_map == p.obj_map and recomposed.arr_map == p.arr_map
        assert fact.cofinality.holds
        # the lift is terminally connected as a continuous comorphism
        sf = SiteFunctor(fact.lift, fibration_topology(p, K), fact.topology)
        if is_comorphism_of_sites(sf).holds and is_continuous(sf).holds:
            assert is_terminally_connected(sf).holds


def test_comprehensive_factorization_trivial_topology(rng):
    """With a trivial target topology this is the classical comprehensive
    factorization: final functor followed by a discrete fibration."""
    for _ in range(5):
        src = random_category(rng)
        tgt = random_category(rng)
        try:
            fs = all_functors(src, tgt)
        except RuntimeError:
            continue
        if not fs:
            continue
        F = rng.choice(fs)
        K = trivial_topology(tgt)
        fact = comprehensive_factorization(F, K)
        recomposed = fact.lift.then(fact.projection)
        assert recomposed.obj_map == F.obj_map and recomposed.arr_map == F.arr_map
        assert fact.cofinality.holds
        from sitecalc.fincat import cartesian_arrows, is_fibration
        ok, _ = is_fibration(fact.projection)
        assert ok
        assert cartesian_arrows(fact.projection) == frozenset(fact.projection.source.arrows)


def test_terminally_connected_identity(rng):
    for _ in range(6):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        sf = SiteFunctor(identity_functor(cat), J, J)
        assert is_terminally_connected(sf).holds


def test_comprehensive_projection_with_multi_element_sheaf_not_cofinal():
    """When the constructed sheaf has a multi-element fiber, the projection
    leg is not terminally connected (a cofinality counterexample)."""
    disc = poset_category(2, [])
    one = terminal_category()
    F = validate_functor(disc, one, (0, 0), (0, 0))
    K = trivial_topology(one)
    fact = comprehensive_factorization(F, K)
    assert max(fact.sheaf.sizes) >= 2
    assert not is_J_cofinal(fact.projection, K).holds


def test_flag_triangulation_across_independent_checkers(rng):
    """equivalence ⟺ surjection ∧ inclusion ⟺ hyperconnected ∧ localic.
    The three routes are computed by unrelated code paths (weak denseness,
    cover reflection + induced-topology denseness, closed-sieve lifting +
    family realizability), so their agreement cross-validates all of them."""
    corpus = _enumerate_morphisms_of_sites(rng, n=30)
    profiles = set()
    for sf in corpus:
        cls = classify_morphism(sf)
        f = cls.flags()
        profiles.add((f["surjection"], f["inclusion"], f["hyperconnected"], f["localic"]))
        assert f["equivalence"] == (f["surjection"] and f["inclusion"])
        assert f["equivalence"] == (f["hyperconnected"] and f["localic"])
    assert len(profiles) >= 2  # the corpus is not degenerate


def test_hyperconnected_localic_factorization_discriminates(rng):
    """On a non-hyperconnected input the localic leg must not be an
    equivalence (the factorization is genuinely two-step)."""
    checked = 0
    for sf in _enumerate_morphisms_of_sites(rng, n=20):
        if sf.functor.source.n_arrows + sf.functor.target.n_arrows > 7:
            continue
        cls = classify_morphism(sf)
        if cls.hyperconnected.holds:
            continue
        fact = hyperconnected_localic_factorization(sf)
        assert classify_morphism(fact.hyperconnected_leg).hyperconnected.holds
        loc = classify_morphism(fact.localic_leg)
        assert loc.localic.holds
        assert not loc.equivalence.holds
        checked += 1
        if checked >= 2:
            break
    assert checked >= 1


def test_colimit_cocone_is_sheaf_colimit_for_canonical_topology():
    """An honest colimit cocone (the diamond pushout) is sent to a sheaf
    colimit by the canonical (subcanonical) topology; checker and bicovering
    oracle agree."""
    cat = poset_category(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    span = poset_category(3, [(0, 1), (0, 2)])
    arr = {(a, b): next(f for f in cat.arrows
                        if cat.dom[f] == a and cat.cod[f] == b)
           for a in range(4) for b in range(4)
           if any(cat.dom[f] == a and cat.cod[f] == b for f in cat.arrows)}
    sarr = {(a, b): next(f for f in span.arrows
                         if span.dom[f] == a and span.cod[f] == b)
            for a in range(3) for b in range(3)
            if any(span.dom[f] == a and span.cod[f] == b for f in span.arrows)}
    D = validate_functor(span, cat, (0, 1, 2),
                         tuple(arr[(0, 0)] if f == sarr[(0, 0)] else
                               arr[(1, 1)] if f == sarr[(1, 1)] else
                               arr[(2, 2)] if f == sarr[(2, 2)] else
                               arr[(0, 1)] if f == sarr[(0, 1)] else arr[(0, 2)]
                               for f in span.arrows))
    legs = {0: arr[(0, 3)], 1: arr[(1, 3)], 2: arr[(2, 3)]}
    from sitecalc.fincat import is_colimit_cocone
    ok, _ = is_colimit_cocone(D, 3, legs)
    assert ok
    J = canonical_topology(cat)
    assert cocone_is_sheaf_colimit(D, 3, legs, J).holds
    assert cocone_sheaf_colimit_oracle(D, 3, legs, J)


def test_witness_replay_sweep(rng):
    """Every verdict produced over a random corpus replays through the
    re-checker, positive or negative."""
    from sitecalc.morphisms import (
        closed_sieve_lifting, is_comorphism_of_sites, is_cover_preserving,
        is_cover_reflecting, recheck_witness)
    checkers = [is_morphism_of_sites, is_comorphism_of_sites,
                is_cover_preserving, is_cover_reflecting, closed_sieve_lifting]
    swept = 0
    for _ in range(25):
        src = random_category(rng)
        tgt = random_category(rng)
        try:
            fs = all_functors(src, tgt)
        except RuntimeError:
            continue
        if not fs:
            continue
        sf = SiteFunctor(rng.choice(fs), random_topology(rng, src),
                         random_topology(rng, tgt))
        for checker in checkers:
            assert recheck_witness(sf, checker(sf))
        if is_morphism_of_sites(sf).holds:
            assert recheck_witness(sf, is_weakly_dense(sf))
            assert recheck_witness(sf, is_dense_morphism(sf))
        swept += 1
    assert swept >= 15


def test_hyperconnected_localic_factorization_chain_site():
    """A bigger closed-sieve-pair category (8 objects, 43 arrows) still
    certifies both legs and the embedding equivalence."""
    from sitecalc.sieves import generate_mask, mask_of
    from sitecalc.topology import generate_topology
    chain = poset_category(3, [(0, 1), (1, 2)])
    legs = [f for f in chain.arrows_into(2) if chain.dom[f] in (0, 1)]
    J = generate_topology(chain, [(2, generate_mask(chain, mask_of(legs)))])
    sf = SiteFunctor(identity_functor(chain), J, J)
    fact = hyperconnected_localic_factorization(sf)
    assert len(fact.cjs.objects) == 8
    assert classify_morphism(fact.hyperconnected_leg).hyperconnected.holds
    assert classify_morphism(fact.localic_leg).localic.holds
    assert classify_morphism(fact.embedding).equivalence.holds


def test_closed_sieve_pair_embedding_is_dense(two):
    """The canonical embedding into the closed-sieve-pair site is a dense
    morphism of sites: the sharpest certificate that the computed topology
    on the pair category presents the same topos."""
    from sitecalc.sieves import generate_mask, mask_of
    from sitecalc.topology import generate_topology
    sites = [(two, atomic_topology(two))]
    chain = poset_category(3, [(0, 1), (1, 2)])
    legs = [f for f in chain.arrows_into(2) if chain.dom[f] in (0, 1)]
    sites.append((chain, generate_topology(
        chain, [(2, generate_mask(chain, mask_of(legs)))])))
    for cat, J in sites:
        fact = hyperconnected_localic_factorization(
            SiteFunctor(identity_functor(cat), J, J))
        assert is_dense_morphism(fact.embedding).holds


def test_locally_connected_general_discriminates():
    """A continuous comorphism that is not locally connected: the idempotent
    monoid collapsed onto its unit, with the idempotent-generated topology
    upstream (frozen from a randomized search)."""
    from sitecalc.fincat import monoid_category
    M = monoid_category([[0, 1], [1, 1]], 0)
    F = validate_functor(M, M, (0,), (0, 0))
    K = validate_or_generate(M, [2, 3])
    L = trivial_topology(M)
    sf = SiteFunctor(F, K, L)
    assert is_comorphism_of_sites(sf).holds
    assert is_continuous(sf).holds
    v = is_locally_connected_general(sf)
    assert not v.holds and v.witness["clause"] == "a"


def validate_or_generate(cat, masks):
    from sitecalc.topology import validate_topology
    return validate_topology(cat, [frozenset(masks)])


# ---------------------------------------------------------------------------
# verdicts are computed once per site functor

def _count_bodies(monkeypatch):
    """Wrap the checker bodies behind the memoised verdicts with counters."""
    import collections

    import sitecalc.morphisms as mor
    counts = collections.Counter()
    for name in ("_check_morphism_of_sites", "_check_cover_reflecting",
                 "_check_weakly_dense", "_check_weakly_dense_clause_ii"):
        def counted(sf, _name=name, _body=getattr(mor, name)):
            counts[_name] += 1
            return _body(sf)
        monkeypatch.setattr(mor, name, counted)
    return counts


@pytest.mark.parametrize("kind", ["trivial", "atomic"])
def test_classify_morphism_runs_each_body_once(monkeypatch, kind):
    """On a site isomorphism the induced topology is the source topology, so
    inclusion and equivalence are one weak-denseness verdict, and clause
    (ii) and the morphism-of-sites check run once each."""
    chain = poset_category(3, [(0, 1), (1, 2), (0, 2)])
    J = trivial_topology(chain) if kind == "trivial" else atomic_topology(chain)
    sf = SiteFunctor(identity_functor(chain), J, J)
    counts = _count_bodies(monkeypatch)
    cls = classify_morphism(sf)
    assert all(cls.flags().values())
    assert cls.inclusion is cls.equivalence
    assert counts == {"_check_morphism_of_sites": 1, "_check_cover_reflecting": 1,
                      "_check_weakly_dense": 1, "_check_weakly_dense_clause_ii": 1}


def test_denseness_sequence_shares_verdicts(monkeypatch, two):
    """The checkers of the `denseness` command, called in its order on one
    site functor, decide each memoised verdict once.  The command reports
    the weak-denseness verdict as its equivalence flag, which is the
    verdict `classify_morphism` gives, computed no second time."""
    sf = collapse_site_functor(two)
    counts = _count_bodies(monkeypatch)
    dense, weakly = is_dense_morphism(sf), is_weakly_dense(sf)
    assert (dense.holds, weakly.holds) == (False, True)
    once = {"_check_morphism_of_sites": 1, "_check_cover_reflecting": 1,
            "_check_weakly_dense": 1, "_check_weakly_dense_clause_ii": 1}
    assert counts == once
    assert classify_morphism(sf).equivalence is is_weakly_dense(sf)
    assert counts == once


def test_classify_morphism_matches_cold_checkers(rng):
    """Flags and witnesses of one classification equal those of the
    individual checkers, each run on a fresh site functor (cold caches);
    the corpus reaches both the shared and the separate induced site."""
    from sitecalc.morphisms import (
        _localic_condition, _weakly_dense_clause_ii, closed_sieve_lifting)
    from sitecalc.topology import induced_topology
    shared = separate = 0
    for sf in _enumerate_morphisms_of_sites(rng, n=30):
        F, J, K = sf.F, sf.J, sf.K

        def cold(source_topology=J):
            return SiteFunctor(F, source_topology, K)

        cls = classify_morphism(sf)
        jf = induced_topology(F, K)
        shared += jf.covers == J.covers
        separate += jf.covers != J.covers
        surjection = is_cover_reflecting(cold())
        csl = closed_sieve_lifting(cold())
        ii = _weakly_dense_clause_ii(cold())
        assert cls.surjection == surjection
        inclusion = is_weakly_dense(cold(jf))
        if jf != J:  # the record names the topology it was decided on
            inclusion = Verdict(inclusion.holds, {**inclusion.witness,
                                                  "source_topology": "induced"})
        assert cls.inclusion == inclusion
        assert cls.localic == _localic_condition(cold())
        assert cls.equivalence == is_weakly_dense(cold())
        assert cls.hyperconnected.holds == (surjection.holds and csl.holds)
        if not cls.hyperconnected.holds:
            bad = surjection if not surjection.holds else csl
            assert cls.hyperconnected.witness["witness"] == bad.witness
        essential = cls.essential_surjective_closed_image
        assert essential.holds == (csl.holds and ii.holds)
        if not essential.holds:
            bad = csl if not csl.holds else ii
            assert essential.witness["witness"] == bad.witness
    assert shared and separate


def test_comorphism_classifiers_sheafify_each_representable_once(monkeypatch, rng):
    """The general inclusion and localic bodies, each on a site functor of
    its own, sheafify each representable y(d) once per call, not once more
    for every arrow into d."""
    import collections

    import sitecalc.morphisms as mor
    import sitecalc.presheaf as ps
    counts = collections.Counter()
    sheafify_body = ps.sheafify

    def counted(P, J):
        counts.update(d for d in P.cat.objects if ps.yoneda(P.cat, d) is P)
        return sheafify_body(P, J)

    monkeypatch.setattr(ps, "sheafify", counted)
    reached = 0
    for _ in range(120):
        src, tgt = random_category(rng), random_category(rng)
        try:
            functors = all_functors(src, tgt)
        except RuntimeError:
            continue
        if not functors:
            continue
        sf = SiteFunctor(rng.choice(functors), random_topology(rng, src),
                         random_topology(rng, tgt))
        if not is_comorphism_of_sites(sf).holds:
            continue
        for body in (mor._comorphism_inclusion_general, mor._comorphism_localic_general):
            counts.clear()
            body(SiteFunctor(sf.F, sf.J, sf.K))
            assert set(counts.values()) <= {1}
            reached += any(len(src.arrows_into(d)) > 1 for d in counts)
    assert reached >= 5


# ---------------------------------------------------------------------------
# the localic criterion and weak denseness clause (iii) against their searches

def test_flag_lattice_on_both_classifiers(rng):
    """Sh(F) is an equivalence exactly when it is a surjection and an
    inclusion, and exactly when it is hyperconnected and localic, as both
    factorization systems are orthogonal.  `equivalence` is decided by a
    route of its own (weak denseness on the morphism side), so the two
    meets are checked against it on each classifier, over 300 random site
    functors."""
    seen = {"morphism": set(), "comorphism": set()}
    for sf in random_site_functors(rng, 300):
        for side, applies, classify in (("morphism", is_morphism_of_sites, classify_morphism),
                                        ("comorphism", is_comorphism_of_sites,
                                         classify_comorphism)):
            if not applies(sf):
                continue
            flags = classify(sf).flags()
            equivalence = flags["equivalence"]
            assert (flags["surjection"] and flags["inclusion"]) == equivalence, (side, flags)
            assert (flags["hyperconnected"] and flags["localic"]) == equivalence, (side, flags)
            seen[side].add(equivalence)
    assert seen == {"morphism": {False, True}, "comorphism": {False, True}}


def _searched_principal_presentations(sf):
    """The arrows presented by the locally matching families of y(d) over
    each ⟨f0⟩, f0 into an image object, found by the family search."""
    F, K = sf.F, sf.K
    D = F.target
    out = []
    for d in D.objects:
        realized = 0
        for e0 in {F.on_obj(c) for c in F.source.objects}:
            for f0 in D.arrows_into(e0):
                members = sorted(bits(D.principal_sieves[f0]))
                for fam in _locally_matching_families(yoneda(D, d), K, e0, members):
                    realized |= 1 << D.hom(D.dom[f0], d)[fam[members.index(f0)]]
        out.append(realized)
    return out


def test_principal_presentations_match_family_search(rng):
    """The closed form for families over principal sieves presents the
    arrows the search finds, on 300 random site functors and on one where
    it must drop an arrow h that fails to equalize what f0 equalizes."""
    for sf in random_site_functors(rng, 300):
        assert _principally_presented(sf) == _searched_principal_presentations(sf)
    # objects d = 0, e = 1; s: d -> d idempotent and p: d -> e with p∘s = p.
    # The point of e presents only s at d: id_d does not equalize (id_d, s).
    D = validate_category(2, [(0, 0), (1, 1), (0, 0), (0, 1)], [0, 1],
                          {(0, 0): 0, (0, 2): 2, (2, 0): 2, (2, 2): 2,
                           (3, 0): 3, (3, 2): 3, (1, 1): 1, (1, 3): 3})
    one = terminal_category()
    sf = SiteFunctor(validate_functor(one, D, (1,), (1,)), trivial_topology(one),
                     trivial_topology(D))
    assert _principally_presented(sf) == _searched_principal_presentations(sf) == [0b100, 0b1010]
    assert not classify_morphism(sf).localic.holds


def _reference_coherent_families(D, K, carrier_obj, members, d):
    """The coherent families of y(d) over `members`, found by the reference
    search of `tests/test_presheaf.py`, which reads nothing off."""
    fams = _reference_locally_matching_families(yoneda(D, d), K, members)
    hom_lists = {h: D.hom(D.dom[h], d) for h in members}
    return [{h: hom_lists[h][fam[i]] for i, h in enumerate(members)} for fam in fams]


def _reference_weakly_dense_clause_iii(sf):
    """Clause (iii) scanning every object e, every w: e -> F(dom f) and
    every z: e -> dom h for each member h, per f and k."""
    F, J, K = sf.F, sf.J, sf.K
    C, D = F.source, F.target
    for x in C.objects:
        for y in C.objects:
            fx, fy = F.on_obj(x), F.on_obj(y)
            for u_mask in K.covers[fx]:
                members = sorted(bits(u_mask))
                for g in _reference_coherent_families(D, K, fx, members, fy):
                    ok = _reference_found(sf, x, y, g)
                    if not J.is_covering(x, ok):
                        return False, {"x": x, "y": y, "sieve": u_mask,
                                       "family": {h: g[h] for h in members}}, ok
    return True, None, None


def _reference_found(sf, x, y, g):
    """The arrows f into x that the coherent family g into F(y) finds, by
    the definition: some k: dom f -> y has g_h∘z ≡_K F(k)∘w for every
    member h of g and every w: e -> F(dom f) and z: e -> dom h with
    F(f)∘w = h∘z, local equality read off the agreement sieve."""
    F, K = sf.F, sf.K
    C, D = F.source, F.target
    ok = 0
    for f in C.arrows_into(x):
        if any(all(reference_local_equality(K, D.compose(g[h], z), D.compose(F.on_arr(k), w))
                   for h in g for e in D.objects
                   for w in D.hom(e, F.on_obj(C.dom[f]))
                   for z in D.hom(e, D.dom[h])
                   if D.compose(F.on_arr(f), w) == D.compose(h, z))
               for k in C.hom(C.dom[f], y)):
            ok |= 1 << f
    return ok


def _reference_clause_iii_counterexample(sf, instance, found):
    """Whether a clause (iii) record is a counterexample by the definition:
    its sieve a K-cover of F(x), its family coherent into F(y) there by the
    agreement-sieve local equality at every z into each member's domain,
    `found` the arrows `_reference_found` gives, not a J-cover of x."""
    F, J, K = sf.F, sf.J, sf.K
    C, D = F.source, F.target
    x, y, u, g = instance["x"], instance["y"], instance["sieve"], instance["family"]
    if x not in C.objects or y not in C.objects:
        return False
    fx, fy = F.on_obj(x), F.on_obj(y)
    members = sorted(bits(u))
    if u not in K.covers[fx] or sorted(g) != members \
            or any(g[h] not in D.hom(D.dom[h], fy) for h in members):
        return False
    if not all(reference_local_equality(K, D.compose(g[h], z), g[D.compose(h, z)])
               for h in members for e in D.objects for z in D.hom(e, D.dom[h])):
        return False
    ok = _reference_found(sf, x, y, g)
    return found == ok and not J.is_covering(x, ok)


def _identity_families_sharing_a_value(sf):
    """The number of pairs (x, y) whose coherent families over the maximal
    sieve on F(x) include two with the same value at the identity, which
    happens exactly when a local-equality class there has two elements."""
    F, K = sf.F, sf.K
    D = F.target
    shared = 0
    for x in F.source.objects:
        fx = F.on_obj(x)
        members = sorted(bits(maximal_sieve_mask(D, fx)))
        for y in F.source.objects:
            values = [g[D.identity[fx]]
                      for g in _coherent_families(D, K, fx, members, F.on_obj(y))]
            shared += len(set(values)) < len(values)
    return shared


def _document_site_functor(text, name):
    """The site functor `name` of a `.site` document, between the one
    topology on each of its categories."""
    doc = parse(text)
    fd = doc.functors[name]
    return SiteFunctor(fd.functor, doc.topology_for(fd.source, None).topology,
                       doc.topology_for(fd.target, None).topology)


def _clause_iii_corpus(rng):
    """300 random site functors, the identities of leg-covered vees, 60
    random fibrations with their fibration topologies, `Z2_POINT_SITE`,
    and the projections π_D of the m2c comma sites of the morphisms of
    sites among the random site functors.  Over a projection many pairs
    (x, y) share their image pair (F(x), F(y))."""
    randoms = random_site_functors(rng, 300)
    corpus = randoms + [_document_site_functor(vee_site(k, m), "G")
                        for k, m in ((2, 2), (3, 2), (4, 2), (3, 3))]
    for _ in range(60):
        p = random_fibration(rng)
        K = random_topology(rng, p.target)
        corpus.append(SiteFunctor(p, fibration_topology(p, K), K))
    corpus.append(_document_site_functor(Z2_POINT_SITE, "T"))
    corpus += [morphism_to_comorphism(sf).projections["to_target"]
               for sf in randoms if is_morphism_of_sites(sf)]
    return corpus


def test_weakly_dense_clause_iii_matches_reference_scan(rng):
    """Clause (iii) with the pass path read off one table per image pair
    and the witness from the walk over the covers of a failing pair gives
    the verdict and witness of the scan over every cover, object and
    factorization, whose families come from the reference search and
    whose local equality is the agreement-sieve scan.  The pass over the
    least covers alone gives the reference verdict too.  The corpus
    (`_clause_iii_corpus`) holds failures whose first failing sieve is not
    the least cover, so that the witness comes from the rescan; passes
    over least covers that are not maximal, where the families are
    searched; identity-carrying sieves whose families share their value
    at the identity, where local-equality classes have more than one
    element; and passes and failures over projections whose pairs share
    their image pair."""
    not_least = not_maximal = shared = 0
    shared_pairs = collections.Counter()
    for sf in _clause_iii_corpus(rng):
        F, K, D = sf.F, sf.K, sf.F.target
        ref = _reference_weakly_dense_clause_iii(sf)
        assert all(_clause_iii_failure(sf, x, y, K.min_cover[F.on_obj(x)]) is None
                   for x in F.source.objects for y in F.source.objects) == ref[0]
        v = _weakly_dense_clause_iii(sf)
        assert (v.holds, v.witness.get("instance"), v.witness.get("found")) == ref
        if ref[0]:
            not_maximal += any(K.min_cover[F.on_obj(x)] != maximal_sieve_mask(D, F.on_obj(x))
                               for x in F.source.objects)
        else:
            not_least += ref[1]["sieve"] != K.min_cover[F.on_obj(ref[1]["x"])]
        shared += _identity_families_sharing_a_value(sf)
        if len(set(F.obj_map)) < F.source.n_objects:
            shared_pairs[ref[0]] += 1
    assert not_least and not_maximal and shared
    assert shared_pairs[True] and shared_pairs[False]


def test_clause_iii_passes_without_walking_the_covers(rng, monkeypatch):
    """With `_clause_iii_failure` patched to raise, every clause (iii) of
    the corpus (`_clause_iii_corpus`) that the reference scan passes still
    passes, read off the tables alone, and every one it fails reaches the
    patch."""
    failures = []

    def no_walk(sf, x, y, u_mask):
        failures.append((x, y))
        raise LookupError("the walk over the covers ran")
    monkeypatch.setattr(mor, "_clause_iii_failure", no_walk)
    outcomes = collections.Counter()
    for sf in _clause_iii_corpus(rng):
        passes = _reference_weakly_dense_clause_iii(sf)[0]
        if passes:
            assert _weakly_dense_clause_iii(sf).holds
        else:
            with pytest.raises(LookupError, match="walk"):
                _weakly_dense_clause_iii(sf)
        outcomes[passes] += 1
    assert outcomes[True] and outcomes[False] and len(failures) == outcomes[False]


def test_clause_iii_searches_families_once_per_pair_on_an_atomic_isomorphism(monkeypatch):
    """Clause (iii) searches the families at most once per (topology, F(x),
    F(y)): over the least cover of F(x), and not at all where that cover is
    maximal, whose families are read off the hom-set.  On the two
    automorphisms of the diamond with its atomic topology, which pass and
    share the topology, the second searches nothing.  On the m2c comma
    site of the atomic 4-chain, whose projection π_D sends 10 objects onto
    4, the construction searches at most 16 times, once per pair of image
    objects.  A scan over every cover of every pair searches once per
    cover, five times over the top of the diamond."""
    D = poset_category(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    K = atomic_topology(D)
    isos = [F for F in all_functors(D, D) if len(set(F.arr_map)) == D.n_arrows]
    assert len(isos) == 2 and len(K.covers[3]) == 5
    calls = []
    coherent_families = mor._coherent_families

    def counting(D, K, carrier_obj, members, d):
        calls.append((id(K), carrier_obj, d))
        return coherent_families(D, K, carrier_obj, members, d)
    monkeypatch.setattr(mor, "_coherent_families", counting)
    searched = []
    for F in isos:
        before = len(calls)
        assert _weakly_dense_clause_iii(SiteFunctor(F, K, K)).holds
        searched.append(len(calls) - before)
    assert searched[0] and not searched[1]
    assert max(collections.Counter(calls).values()) == 1
    assert K.min_cover[0] == D.maximal_sieves[0] and 0 not in {c for _, c, _ in calls}

    calls.clear()
    chain = poset_category(4, [(0, 1), (1, 2), (2, 3)])
    K = atomic_topology(chain)
    site = morphism_to_comorphism(SiteFunctor(identity_functor(chain), K, K))
    pi_D = site.projections["to_target"]
    assert site.certificates["pi_D_equivalence"] and pi_D.F.source.n_objects == 10
    assert 0 < len(calls) <= 16 and max(collections.Counter(calls).values()) == 1


def test_failing_clause_iii_searches_each_cover_once(rng, monkeypatch):
    """A failing clause (iii) searches each cover of F(x) at most once for
    its failing pair (x, y): the walk keeps the family and found arrows
    of each cover it tests, and it does not test the least cover m, which
    the table has failed.  So a search repeats only where the first
    failing cover is m and m does not hold the identity, which the table
    searched too.  Counted by (topology, object, members, target) over the
    132 failing clauses of the 300 random site functors: 170 searches, 22
    of them repeats."""
    calls = []
    coherent_families = mor._coherent_families

    def counting(D, K, carrier_obj, members, d):
        calls.append((id(K), carrier_obj, tuple(members), d))
        return coherent_families(D, K, carrier_obj, members, d)
    monkeypatch.setattr(mor, "_coherent_families", counting)
    failing = searches = repeats = 0
    for sf in random_site_functors(rng, 300):
        calls.clear()
        v = _weakly_dense_clause_iii(sf)
        if v.holds:
            continue
        F, K, inst = sf.F, sf.K, v.witness["instance"]
        fx = F.on_obj(inst["x"])
        m = K.min_cover[fx]
        counts = collections.Counter(calls)
        again = [key for key, n in counts.items() if n > 1]
        assert max(counts.values(), default=0) <= 2
        assert again in ([], [(id(K), fx, tuple(bits(m)), F.on_obj(inst["y"]))])
        assert not again or inst["sieve"] == m
        failing, searches, repeats = failing + 1, searches + len(calls), repeats + len(again)
    assert (failing, searches, repeats) == (132, 170, 22)


def test_j_fullness_and_clause_iii_share_the_found_arrow_kernel(rng, monkeypatch):
    """J-fullness and clause (iii) of weak denseness read the arrows an
    arrow g: F(x) -> F(y), or a family into F(y), finds through one
    kernel, `_found_arrows`.  Patched to raise, it is reached by both on
    every site functor of the corpus (`_clause_iii_corpus`), each of which
    has g = id_F(x) to test at x = y, and by neither on one with an empty
    source, which passes both."""
    corpus = [SiteFunctor(sf.F, sf.J, sf.K) for sf in _clause_iii_corpus(rng)]

    def no_kernel(*args):
        raise LookupError("the found-arrow kernel ran")
    monkeypatch.setattr(mor, "_found_arrows", no_kernel)
    for sf in corpus:
        assert sf.F.source.n_objects
        with pytest.raises(LookupError, match="kernel"):
            local_property_tests(sf)
        with pytest.raises(LookupError, match="kernel"):
            _weakly_dense_clause_iii(sf)
    assert len(corpus) >= 400
    empty = validate_category(0, [], [], {})
    point = terminal_category()
    sf = SiteFunctor(validate_functor(empty, point, (), ()), trivial_topology(empty),
                     trivial_topology(point))
    assert local_property_tests(sf)["J_full"].holds and _weakly_dense_clause_iii(sf).holds


def test_weakly_dense_clause_iii_witnesses_replay_from_their_record(rng, monkeypatch):
    """A failed clause (iii) of weak denseness replays from its record,
    with the clause, its tables, the family search and `is_weakly_dense`
    patched to raise: on each failure of the corpus (`_clause_iii_corpus`).
    A copy with one family value moved within its hom-set, one found arrow
    toggled or y moved replays exactly when the definition, with local
    equality by the agreement sieve and the found arrows over every
    factorization, makes it a counterexample; copies of both kinds occur.
    A failed clause (i) replays its nested cover-reflecting record, and
    not with that record's object moved off its sieve."""
    failures, clause_i = [], []
    for sf in _clause_iii_corpus(rng):
        v = _weakly_dense_clause_iii(sf)
        if not v.holds:
            failures.append((SiteFunctor(sf.F, sf.J, sf.K), v.witness))
    for sf in random_site_functors(rng, 300):
        if is_morphism_of_sites(sf) and is_weakly_dense(sf).witness.get("clause") == "i":
            clause_i.append((SiteFunctor(sf.F, sf.J, sf.K), is_weakly_dense(sf).witness))

    def raises(*args):
        raise AssertionError("the replay re-ran a checker")
    for name in ("_weakly_dense_clause_iii", "_clause_iii_tables", "_coherent_families",
                 "_clause_iii_failure", "is_weakly_dense", "is_cover_reflecting"):
        monkeypatch.setattr(mor, name, raises)

    def replays(sf, instance, found):
        return recheck_witness(sf, Verdict(False, {
            "kind": "weakly-dense", "holds": False, "clause": "iii",
            "instance": instance, "found": found}))
    copies = collections.Counter()
    for sf, w in failures:
        F, D = sf.F, sf.F.target
        inst, found = w["instance"], w["found"]
        assert replays(sf, inst, found)
        mutants = [({**inst, "y": y}, found) for y in F.source.objects if y != inst["y"]]
        mutants += [(inst, found ^ (1 << f)) for f in F.source.arrows_into(inst["x"])]
        fy = F.on_obj(inst["y"])
        mutants += [({**inst, "family": {**inst["family"], h: v}}, found)
                     for h, value in inst["family"].items()
                     for v in D.hom(D.dom[h], fy) if v != value]
        for instance, f in mutants:
            counterexample = _reference_clause_iii_counterexample(sf, instance, f)
            assert replays(sf, instance, f) == counterexample
            copies[counterexample] += 1
    assert len(failures) >= 100 and copies[True] and copies[False], copies
    for sf, w in clause_i:
        assert recheck_witness(sf, Verdict(False, w))
        inner = w["witness"]
        moved = [c for c in sf.F.source.objects
                 if not is_sieve_mask(sf.F.source, c, inner["sieve"])]
        assert not any(recheck_witness(sf, Verdict(False, {
            **w, "witness": {**inner, "object": c}})) for c in moved)
        assert not recheck_witness(sf, Verdict(False, {**w, "witness": {
            **inner, "kind": "cover-preserving"}}))
    assert clause_i


def test_clause_ii_searches_only_the_objects_off_the_image_base(rng, monkeypatch):
    """`_realized_arrows` never runs when K covers every d by its image
    base, as for the endofunctors of random sites onto all their objects
    and the identities of the leg-covered vees, and runs over the objects
    the image base misses alone otherwise: on `LATE_MISS_SITE` over 0,
    which the search covers, and 2, where clause (ii) fails."""
    searched = []
    realized_arrows = mor._realized_arrows

    def counting(sf, objects):
        searched.append(list(objects))
        yield from realized_arrows(sf, objects)
    monkeypatch.setattr(mor, "_realized_arrows", counting)
    onto = 0
    for _ in range(40):
        cat = random_category(rng)
        top = random_topology(rng, cat)
        for F in all_functors(cat, cat):
            if len(set(F.obj_map)) == cat.n_objects:
                assert _uncovered_by_realized(SiteFunctor(F, top, top)) is None
                onto += 1
    assert onto >= 40
    for k, m in ((3, 2), (4, 3)):
        assert is_weakly_dense(_document_site_functor(vee_site(k, m), "G"))
    assert searched == []
    sf = _document_site_functor(LATE_MISS_SITE, "T")
    assert is_weakly_dense(sf).witness == {"kind": "weakly-dense", "holds": False,
                                           "clause": "ii", "object": 2, "sieve": 0}
    assert searched == [[0, 2]]
    assert local_property_tests(sf)["K_dense"].witness["object"] == 0


# ---------------------------------------------------------------------------
# morphism-of-sites clauses, clause (ii) of weak denseness and closed sieve
# lifting against the scans they replace

def _reference_realized_arrows(sf):
    """Per object d, the arrows realized for clause (ii) of weak denseness,
    with the carrier, its members and the slot of f0 rebuilt for every
    (d, f0), and the families found by the reference search."""
    F, K = sf.F, sf.K
    C, D = F.source, F.target
    out = []
    for d in D.objects:
        realized = 0
        for c in C.objects:
            e0 = F.on_obj(c)
            for f0 in D.arrows_into(e0):
                members = sorted(bits(K.min_cover[e0] | D.principal_sieves[f0]))
                slot = members.index(f0)
                for fam in _reference_locally_matching_families(yoneda(D, d), K, members):
                    realized |= 1 << D.hom(D.dom[f0], d)[fam[slot]]
        out.append(realized)
    return out


def _reference_closed_sieve_lifting(sf):
    """Every sieve tested for closedness by its full closure, against the
    closures of the images of every sieve upstairs."""
    F, K = sf.F, sf.K
    C, D = F.source, F.target
    for c in C.objects:
        fc = F.on_obj(c)
        liftable = {
            closure_mask(K, fc, generate_mask(D, mask_of(F.on_arr(f) for f in bits(r))))
            for r in all_sieve_masks(C, c)}
        for s in all_sieve_masks(D, fc):
            if closure_mask(K, fc, s) == s and s not in liftable:
                return {"kind": "closed-sieve-lifting", "holds": False, "object": c, "sieve": s}
    return {"kind": "closed-sieve-lifting", "holds": True}


def _equalizer_off_the_image():
    """Objects 0..3 with k: 0 -> 1, parallel f1, f2: 1 -> 2 and g: 3 -> 1,
    where f1∘k = f2∘k and f1∘g = f2∘g, and the inclusion of the full
    subcategory on 0, 1, 2 with trivial topologies.  Clause (iv) realizes
    k for (f1, f2), but g does not factor through it, so (f1, f2, g) fails
    with the empty sieve on 3."""
    # arrows: identities 0-3, k 4, f1 5, f2 6, m 7: 0 -> 2, g 8, n 9: 3 -> 2;
    # in the subcategory f1 and f2 are arrows 4 and 5
    arrows = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 2), (1, 2), (0, 2), (3, 1), (3, 2)]
    comp = {(5, 4): 7, (6, 4): 7, (5, 8): 9, (6, 8): 9}
    for f, (a, b) in enumerate(arrows):
        comp[(b, f)] = comp[(f, a)] = f
    D = validate_category(4, arrows, [0, 1, 2, 3], comp)
    C, incl = full_subcategory(D, [0, 1, 2])
    return SiteFunctor(incl, trivial_topology(C), trivial_topology(D))


def _equalizer_realized_after_t():
    """`_equalizer_off_the_image` with an object 4 and t: 4 -> 3,
    s: 4 -> 0 where g∘t = k∘s.  Clause (iv) does not realize g, but g∘t
    is realized, so (f1, f2, g) fails with the sieve ⟨t⟩ on 3, not the
    empty one."""
    # arrows: identities 0-4, k 5, f1 6, f2 7, m 8 = f1∘k, g 9, n 10 = f1∘g,
    # t 11, s 12, 13 = g∘t = k∘s, 14 = m∘s = n∘t
    arrows = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (0, 1), (1, 2), (1, 2), (0, 2),
              (3, 1), (3, 2), (4, 3), (4, 0), (4, 1), (4, 2)]
    comp = {(6, 5): 8, (7, 5): 8, (6, 9): 10, (7, 9): 10, (9, 11): 13, (5, 12): 13,
            (6, 13): 14, (7, 13): 14, (8, 12): 14, (10, 11): 14}
    for f, (a, b) in enumerate(arrows):
        comp[(b, f)] = comp[(f, a)] = f
    D = validate_category(5, arrows, [0, 1, 2, 3, 4], comp)
    C, incl = full_subcategory(D, [0, 1, 2])
    return SiteFunctor(incl, trivial_topology(C), trivial_topology(D))


def test_morphism_of_sites_matches_reference_scans(rng):
    """Looking gp up among what the cones realize gives the verdict and
    witness of the scan over every cone, on 600 random site functors with
    generated topologies, which fail at each of the four clauses, and on
    two clause (iv) failures where some composites are realized but not g:
    one where g pulls the realized sieve back to the empty sieve, and one
    where it pulls it back to ⟨t⟩."""
    clauses = collections.Counter()
    for sf in random_site_functors(rng, 600):
        v = is_morphism_of_sites(sf)
        assert v.witness == reference_morphism_of_sites(sf)
        clauses[v.witness.get("clause")] += 1
    assert all(clauses[c] for c in ("i", "ii", "iii", "iv", None))
    sf = _equalizer_off_the_image()
    v = is_morphism_of_sites(sf)
    assert v.witness == reference_morphism_of_sites(sf) == {
        "kind": "morphism-of-sites", "holds": False, "clause": "iv",
        "instance": {"f1": 4, "f2": 5, "g": 8, "d": 3}, "sieve": 0}
    assert recheck_witness(sf, v)
    sf = _equalizer_realized_after_t()
    v = is_morphism_of_sites(sf)
    assert v.witness == reference_morphism_of_sites(sf) == {
        "kind": "morphism-of-sites", "holds": False, "clause": "iv",
        "instance": {"f1": 4, "f2": 5, "g": 9, "d": 3}, "sieve": 1 << 11}
    assert recheck_witness(sf, v)


def test_weakly_dense_clause_ii_matches_reference_carriers(rng):
    """Clause (ii) with its carriers laid out once realizes, at every
    object, the arrows of the per-(d, f0) rebuild with the reference family
    search, on 300 random site functors, some of which leave an object
    uncovered, and on a carrier whose members have hom-sets of different
    sizes into d, so that each f0 must read its own slot.  Searching only
    the objects that K does not cover by their image base finds the first
    object the reference arrows leave uncovered, with its sieve; in the
    corpus the search covers some of those objects."""
    uncovered = searched_and_covered = 0
    for sf in random_site_functors(rng, 300):
        D, K = sf.F.target, sf.K
        reference = _reference_realized_arrows(sf)
        assert list(_realized_arrows(sf, D.objects)) == reference
        sieves = [generate_mask(D, realized) for realized in reference]
        assert _uncovered_by_realized(sf) == next(
            ((d, sieves[d]) for d in D.objects if not K.is_covering(d, sieves[d])), None)
        uncovered += _uncovered_by_realized(sf) is not None
        searched_and_covered += any(K.is_covering(d, sieves[d])
                                    for d, _ in _image_base_misses(sf))
    assert uncovered and searched_and_covered
    # objects e0 = 0, a = 1, d = 2; u: a -> e0 (3), p, q: e0 -> d (4, 5) and
    # r = p∘u = q∘u: a -> d (6); the point of e0, trivial topologies
    arrows = [(0, 0), (1, 1), (2, 2), (1, 0), (0, 2), (0, 2), (1, 2)]
    comp = {(4, 3): 6, (5, 3): 6}
    for f, (a, b) in enumerate(arrows):
        comp[(b, f)] = comp[(f, a)] = f
    D = validate_category(3, arrows, [0, 1, 2], comp)
    one = terminal_category()
    sf = SiteFunctor(validate_functor(one, D, (0,), (0,)), trivial_topology(one),
                     trivial_topology(D))
    assert list(_realized_arrows(sf, D.objects)) == _reference_realized_arrows(sf) \
        == [0b1001, 0, 0b1110000]


def test_closed_sieve_lifting_matches_reference_closures(rng):
    """Closedness tested on the non-members only, and liftability read off
    the sieve generated by the image arrows in it, give the verdict and
    witness of the full closures against every image, on 600 random site
    functors, some failing."""
    failed = 0
    for sf in random_site_functors(rng, 600):
        v = closed_sieve_lifting(sf)
        assert v.witness == _reference_closed_sieve_lifting(sf)
        failed += not v.holds
    assert failed


def test_closed_sieve_lifting_reports_the_least_failing_sieve():
    """The point of e0 = 0 in objects 0..3 with g: 1 -> 0, h: 2 -> 0,
    k: 3 -> 1 and g∘k: 3 -> 0, trivial topologies: every sieve on 0 is
    closed, and every non-empty one without the identity fails.  The first
    failing arrow into 0, g, has cl⟨g⟩ = {g, g∘k}, but the least failing
    mask is ⟨h⟩, and that is the witness the scan of every sieve reports."""
    arrows = [(0, 0), (1, 1), (2, 2), (3, 3), (1, 0), (2, 0), (3, 1), (3, 0)]
    comp = {(4, 6): 7}
    for f, (a, b) in enumerate(arrows):
        comp[(b, f)] = comp[(f, a)] = f
    D = validate_category(4, arrows, [0, 1, 2, 3], comp)
    one = terminal_category()
    sf = SiteFunctor(validate_functor(one, D, (0,), (0,)), trivial_topology(one),
                     trivial_topology(D))
    assert closed_sieve_lifting(sf).witness == _reference_closed_sieve_lifting(sf) == {
        "kind": "closed-sieve-lifting", "holds": False, "object": 0, "sieve": 1 << 5}


def test_liftable_closed_sieves_are_closed_under_joins(rng):
    """The lemma behind `closed_sieve_lifting`, checked without it on 300
    random site functors and the projections π_D of the m2c comma sites of
    the morphisms of sites among them: the closures of the images of the
    sieves on c, which are the liftable closed sieves on F(c), hold the
    closure of the union of any two of them.  The projections supply the
    incomparable pairs."""
    randoms = random_site_functors(rng, 300)
    projections = [morphism_to_comorphism(sf).projections["to_target"]
                   for sf in randoms if is_morphism_of_sites(sf)]
    incomparable = 0
    for sf in randoms + projections:
        F, K = sf.F, sf.K
        for c in F.source.objects:
            fc = F.on_obj(c)
            liftable = {reference_closure_mask(K, fc, generate_mask(
                F.target, mask_of(F.on_arr(f) for f in bits(r))))
                for r in all_sieve_masks(F.source, c)}
            for s, t in itertools.combinations(liftable, 2):
                assert reference_closure_mask(K, fc, s | t) in liftable
                incomparable += s | t not in (s, t)
    assert incomparable


def test_morphism_of_sites_witnesses_replay_independently(monkeypatch, rng):
    """Clause (ii)-(iv) counterexamples replay from their recorded
    instance by the direct scans, without the checker; a tampered sieve or
    instance is rejected."""
    import sitecalc.morphisms as mor
    witnesses = [(sf, is_morphism_of_sites(sf).witness)
                 for sf in random_site_functors(rng, 600)]
    witnesses = [(sf, w) for sf, w in witnesses if w.get("clause") in ("ii", "iii", "iv")]

    def no_checker(sf):
        raise AssertionError("the replay re-ran the checker")
    monkeypatch.setattr(mor, "_check_morphism_of_sites", no_checker)

    def replays(sf, w):
        return recheck_witness(sf, Verdict(False, w))

    replayed = collections.Counter()
    for sf, w in witnesses:
        D = sf.F.target
        d = w["object"] if w["clause"] == "ii" else w["instance"]["d"]
        assert replays(sf, w)
        replayed[w["clause"]] += 1
        assert not replays(sf, {**w, "sieve": maximal_sieve_mask(D, d)})
        for f in D.arrows_into(d):
            assert not replays(sf, {**w, "sieve": w["sieve"] ^ (1 << f)})
        if w["clause"] == "ii":
            continue
        inst = w["instance"]
        for other in D.objects:
            if other != d:
                assert not replays(sf, {**w, "instance": {**inst, "d": other}})
        if w["clause"] == "iv":
            assert not replays(sf, {**w, "instance": {**inst, "f2": inst["f1"]}})
    assert all(replayed[c] for c in ("ii", "iii", "iv"))


def test_weakly_dense_clause_ii_witnesses_replay_at_their_object(monkeypatch, rng):
    """A failed clause (ii) record of weak denseness, alone or nested in
    `essential-surjective-closed-image`, replays by recomputing the sieve
    at the object it names, without re-running the clause.  On the
    morphisms of sites among the 300 random site functors, each of the 22
    failures replays, and not with one arrow of its sieve toggled.  A copy
    with the object moved to another d replays exactly when the reference
    search also leaves d with the recorded sieve and K does not cover it:
    35 copies replay False, and 20 replay True, each a counterexample in
    its own right with the empty sieve."""
    failures = []
    for sf in random_site_functors(rng, 300):
        fresh = SiteFunctor(sf.F, sf.J, sf.K)
        if is_morphism_of_sites(fresh) and not mor._weakly_dense_clause_ii(fresh).holds:
            failures.append((sf, mor._weakly_dense_clause_ii(fresh).witness))

    def no_clause(sf):
        raise AssertionError("the replay re-ran clause (ii)")
    monkeypatch.setattr(mor, "_check_weakly_dense_clause_ii", no_clause)

    def replays(sf, w):
        alone = recheck_witness(sf, Verdict(False, w))
        nested = recheck_witness(sf, Verdict(False, {
            "kind": "essential-surjective-closed-image", "holds": False, "witness": w}))
        assert alone == nested
        return alone

    moved = collections.Counter()
    for sf, w in failures:
        D, K = sf.F.target, sf.K
        assert replays(sf, w)
        for f in D.arrows_into(w["object"]):
            assert not replays(sf, {**w, "sieve": w["sieve"] ^ (1 << f)})
        realized = _reference_realized_arrows(sf)
        for d in D.objects:
            if d != w["object"]:
                counterexample = generate_mask(D, realized[d]) == w["sieve"] \
                    and not K.is_covering(d, w["sieve"])
                assert replays(sf, {**w, "object": d}) == counterexample
                assert w["sieve"] == 0 or not counterexample
                moved[counterexample] += 1
    assert len(failures) == 22 and moved == {False: 35, True: 20}, moved


# ---------------------------------------------------------------------------
# comorphism classifiers against the searches they replace

def _reference_comorphism_localic(sf):
    """The localic criterion by search: g: d' -> d passes when some
    subsheaf of a(P_{F(d')}) through which χ_{d'} factors carries an arrow
    ξ into a(y(d)) with χ̄_{d'}∘ξ = a(y(g)); every subpresheaf is tried,
    and every ξ."""
    F = sf.F
    D = F.source
    J = sf.source_topology

    def arrow_ok(g):
        d1, d = D.dom[g], D.cod[g]
        sh_yd1, sh_P, chi = mor._chi_morphism(sf, d1)
        sh_yd = mor._chi_morphism(sf, d)[0]
        target_arrow = mor._yoneda_sheaf_arrow(sf, g, sh_yd1, sh_yd)
        for sub in subpresheaves(sh_P.sheaf):
            if not all(chi.at(e, x) in sub.members[e]
                       for e in D.objects for x in range(sh_yd1.sheaf.sizes[e])):
                continue
            carrier, elems = sub.as_presheaf()
            if not is_sheaf(carrier, J)[0]:
                continue
            index = [{x: i for i, x in enumerate(elems[e])} for e in D.objects]
            chi_bar = validate_presheaf_morphism(sh_yd1.sheaf, carrier, tuple(
                tuple(index[e][chi.at(e, x)] for x in range(sh_yd1.sheaf.sizes[e]))
                for e in D.objects))
            for xi in enumerate_presheaf_morphisms(carrier, sh_yd.sheaf):
                if chi_bar.then(xi).components == target_arrow.components:
                    return True
        return False

    if local_property_tests(sf)["J_faithful"]:
        return {"kind": "comorphism-localic", "holds": True, "via": "K-faithful"}
    for d in D.objects:
        ok = mask_of(g for g in D.arrows_into(d) if arrow_ok(g))
        if not J.is_covering(d, generate_mask(D, ok)):
            return {"kind": "comorphism-localic", "holds": False, "object": d}
    return {"kind": "comorphism-localic", "holds": True}


def _reference_induced(sf, c, s):
    """The family of Hom_C(F(-), c) induced by the sieve s on c."""
    F = sf.F
    D, C = F.source, F.target
    J = sf.source_topology
    return tuple(frozenset(
        xi for xi, x in enumerate(C.hom(F.on_obj(d), c))
        if J.is_covering(d, mask_of(t for t in D.arrows_into(d)
                                    if (s >> C.compose(x, F.on_arr(t))) & 1)))
        for d in D.objects)


def _reference_uninduced_families(sf, c):
    """The closed families of image arrows into c that no sieve on c
    induces, in the order of `subpresheaves`."""
    F = sf.F
    P = mor._hom_presheaf(F, c)
    closed = [A.members for A in subpresheaves(P)
              if closure_cJ(A, sf.source_topology).members == A.members]
    induced_by_some_sieve = {_reference_induced(sf, c, s) for s in all_sieve_masks(F.target, c)}
    return [members for members in closed if members not in induced_by_some_sieve]


def _reference_comorphism_hyperconnected(sf):
    """Every closed family of image arrows into c tried against every sieve
    on c."""
    surj = mor.comorphism_surjection(sf)
    if not surj:
        return {"kind": "comorphism-hyperconnected", "holds": False, "witness": surj.witness}
    for c in sf.F.target.objects:
        uninduced = _reference_uninduced_families(sf, c)
        if uninduced:
            return {"kind": "comorphism-hyperconnected", "holds": False, "object": c,
                    "family": [sorted(m) for m in uninduced[0]]}
    return {"kind": "comorphism-hyperconnected", "holds": True}


def _comorphism_corpora(rng):
    """Random comorphisms, fibrations with their fibration topologies, and
    the four legs of the factorizations of the cover-preserving random
    ones."""
    randoms = [sf for sf in random_site_functors(rng, 240) if is_comorphism_of_sites(sf).holds]
    fibrations = []
    for _ in range(60):
        p = random_fibration(rng)
        K = random_topology(rng, p.target)
        fibrations.append(SiteFunctor(p, fibration_topology(p, K), K))
    legs = []
    for sf in randoms:
        if is_cover_preserving(sf).holds:
            fact = comorphism_factorizations(sf)
            legs += [fact.surjection_leg, fact.inclusion_leg,
                     fact.hyperconnected_leg, fact.localic_leg]
    return {"random": randoms, "fibration": fibrations, "leg": legs}


def _branch(name, witness):
    if name == "localic":
        return "shortcut" if "via" in witness else witness["holds"]
    if name == "hyperconnected" and "witness" in witness:
        return "not a surjection"
    return witness["holds"]


def test_comorphism_classifiers_match_reference_searches(rng):
    """The localic check from the kernel of χ and the hyperconnected check
    from the one candidate sieve s*(A) give the verdicts and witnesses of
    the searches they replace, and the general inclusion body, closed
    families and localic, the verdict of the search through every sheaf
    arrow, on random comorphisms, fibration topologies and factorization
    legs.  Each corpus reaches both answers of every body and both routes
    of the localic and hyperconnected checks, save a localic pass without
    the J-faithful shortcut (see the hand-built case below), and the
    inclusion failures name both halves."""
    bodies = {"localic": (mor._comorphism_localic_general, _reference_comorphism_localic),
              "hyperconnected": (mor._comorphism_hyperconnected,
                                 _reference_comorphism_hyperconnected)}
    branches = collections.Counter()
    for corpus, sfs in _comorphism_corpora(rng).items():
        for sf in sfs:
            for name, (body, reference) in bodies.items():
                witness = body(SiteFunctor(sf.F, sf.J, sf.K)).witness
                assert witness == reference(SiteFunctor(sf.F, sf.J, sf.K))
                branches[corpus, name, _branch(name, witness)] += 1
            inclusion = mor._comorphism_inclusion_general(SiteFunctor(sf.F, sf.J, sf.K))
            assert inclusion.holds == \
                reference_comorphism_inclusion(SiteFunctor(sf.F, sf.J, sf.K)).holds
            branches[corpus, "inclusion", inclusion.holds] += 1
            if not inclusion.holds:
                branches["inclusion fails by", inclusion.witness["witness"]["kind"]] += 1
    for corpus in ("random", "leg"):
        for name, branch in [("localic", "shortcut"), ("localic", False),
                             ("hyperconnected", "not a surjection"),
                             ("hyperconnected", True), ("hyperconnected", False),
                             ("inclusion", True), ("inclusion", False)]:
            assert branches[corpus, name, branch], (corpus, name, branch)
    assert branches["fibration", "hyperconnected", False]
    assert branches["fibration", "localic", False]
    assert branches["inclusion fails by", "comorphism-hyperconnected"]
    assert branches["inclusion fails by", "comorphism-localic"]


def _localic_without_faithfulness():
    """Objects d = 0, d1 = 1, d2 = 2, e = 3, with g1: d1 -> d, g2: d2 -> d,
    v1: e -> d1, v2: e -> d2 and h = g1∘v1, k = g2∘v2: e -> d, the topology
    generated by the sieve of g1 and g2 on d, and the functor onto the
    quotient where h = k, with the trivial topology.  h and k are not
    locally equal, so F is not J-faithful, yet g1 and g2 pass the localic
    check and cover d."""
    def category(arrows, composites):
        comp = dict(composites)
        for f, (a, b) in enumerate(arrows):
            comp[(b, f)] = comp[(f, a)] = f
        return validate_category(4, arrows, [0, 1, 2, 3], comp)
    arrows = [(0, 0), (1, 1), (2, 2), (3, 3), (1, 0), (2, 0), (3, 1), (3, 2)]
    D = category(arrows + [(3, 0), (3, 0)], {(4, 6): 8, (5, 7): 9})
    C = category(arrows + [(3, 0)], {(4, 6): 8, (5, 7): 8})
    F = validate_functor(D, C, (0, 1, 2, 3), tuple(range(9)) + (8,))
    J = generate_topology(D, [(0, mask_of([4, 5, 8, 9]))])
    return SiteFunctor(F, J, trivial_topology(C))


def test_localic_comorphism_that_is_not_J_faithful():
    """No random corpus reaches a localic pass that the J-faithful shortcut
    misses; this hand-built one does, and the search agrees."""
    sf = _localic_without_faithfulness()
    assert is_comorphism_of_sites(sf).holds
    assert local_property_tests(sf)["J_faithful"].witness["instance"] == {"h": 8, "k": 9}
    assert mor._comorphism_localic_general(sf).witness == \
        _reference_comorphism_localic(SiteFunctor(sf.F, sf.J, sf.K)) == \
        {"kind": "comorphism-localic", "holds": True}
    assert classify_comorphism(sf).localic.holds


def _closure_of(P, J, members):
    """c_J of a selection of elements of P, by its definition."""
    D = P.cat
    return tuple(frozenset(
        x for x in range(P.sizes[d])
        if J.is_covering(d, mask_of(t for t in D.arrows_into(d)
                                    if P.res(t, x) in members[D.dom[t]])))
        for d in D.objects)


def test_sieve_induced_families_are_closed_under_joins(rng):
    """The lemma behind `_comorphism_hyperconnected`, checked without it on
    the comorphism corpora: for sieves s and r on c, the family induced by
    s ∪ r is the closure of the union of the families induced by s and r,
    so the induced families hold the join of any two of them."""
    incomparable = 0
    for sfs in _comorphism_corpora(rng).values():
        for sf in sfs:
            for c in sf.F.target.objects:
                P = reference_hom_presheaf(sf.F, c)
                by_family = {}
                for s in all_sieve_masks(sf.F.target, c):
                    by_family.setdefault(_reference_induced(sf, c, s), s)
                for (A, s), (B, r) in itertools.combinations(by_family.items(), 2):
                    join = _closure_of(P, sf.source_topology,
                                       tuple(a | b for a, b in zip(A, B)))
                    assert _reference_induced(sf, c, s | r) == join
                    incomparable += join not in (A, B)
    assert incomparable


def test_comorphism_hyperconnected_witnesses_replay_independently(monkeypatch, rng):
    """A closed family that no sieve induces replays from its record, with
    the checker patched to raise: it is c_J-closed, and no sieve on c
    induces it.  With one element added or removed, or moved to another
    object, it replays exactly when the reference search lists it as
    closed and not induced there, and the full family, which the maximal
    sieve induces, never does.  A failed surjection replays too."""
    cases = [(sf, mor._comorphism_hyperconnected(SiteFunctor(sf.F, sf.J, sf.K)).witness)
             for sfs in _comorphism_corpora(rng).values() for sf in sfs]

    def no_checker(sf):
        raise AssertionError("the replay re-ran the checker")
    monkeypatch.setattr(mor, "_comorphism_hyperconnected", no_checker)
    monkeypatch.setitem(mor._POSITIVE_RUNNERS, "comorphism-hyperconnected", no_checker)

    replayed = collections.Counter()
    for sf, w in cases:
        if w["holds"]:
            continue
        assert recheck_witness(sf, Verdict(False, w))
        if "witness" in w:
            replayed["not a surjection"] += 1
            continue
        replayed["family"] += 1
        F, c = sf.F, w["object"]

        def replays(**fields):
            return recheck_witness(sf, Verdict(False, {**w, **fields}))

        uninduced = _reference_uninduced_families(sf, c)
        sizes = reference_hom_presheaf(F, c).sizes
        assert not replays(family=[list(range(n)) for n in sizes])
        for d in F.source.objects:
            for x in range(sizes[d]):
                family = [sorted(set(m) ^ {x}) if e == d else m
                          for e, m in enumerate(w["family"])]
                expected = tuple(map(frozenset, family)) in uninduced
                assert replays(family=family) == expected
                replayed["toggle rejected"] += not expected
        for other in F.target.objects:
            if other != c:
                expected = tuple(map(frozenset, w["family"])) in \
                    _reference_uninduced_families(sf, other)
                assert replays(object=other) == expected
                replayed["object rejected"] += not expected
        assert not replays(object=F.target.n_objects)
    assert all(replayed[k] for k in ("not a surjection", "family", "toggle rejected",
                                     "object rejected")), replayed


def test_comorphism_surjection_witnesses_replay_independently(monkeypatch, rng):
    """A failed surjection replays from its record, with the checker and
    `coinduced_topology` patched to raise: the recorded sieve on c lies in
    exactly one of the target topology's covers and the sieves that every
    ξ: F(e) -> c pulls back to a preimage covering e.  With bit 0 of the
    sieve toggled, the object set to 99 or the sieve set to -5, it replays
    exactly when the coinduced topology says it should."""
    cases = []
    for sfs in _comorphism_corpora(rng).values():
        for sf in sfs:
            w = mor.comorphism_surjection(SiteFunctor(sf.F, sf.J, sf.K)).witness
            if not w["holds"]:
                cases.append((sf, w, coinduced_topology(sf.F, sf.J)))

    def raises(*args):
        raise AssertionError("the replay re-ran the checker")
    for name in ("comorphism_surjection", "_check_comorphism_surjection", "coinduced_topology"):
        monkeypatch.setattr(mor, name, raises)
    monkeypatch.setitem(mor._POSITIVE_RUNNERS, "comorphism-surjection", raises)

    assert cases
    for sf, w, coinduced in cases:
        D = sf.F.target
        assert recheck_witness(sf, Verdict(False, w))
        for fields in ({"sieve": w["sieve"] ^ 1}, {"object": 99}, {"sieve": -5}):
            c, s = fields.get("object", w["object"]), fields.get("sieve", w["sieve"])
            expected = c in D.objects and s in all_sieve_masks(D, c) and \
                (s in sf.K.covers[c]) != (s in coinduced.covers[c])
            assert recheck_witness(sf, Verdict(False, {**w, **fields})) == expected


def test_comorphism_inclusion_witnesses_replay_independently(monkeypatch, rng):
    """A failed inclusion replays its nested witness with the inclusion,
    closed-family and hyperconnected checkers patched to raise: a closed
    family that no sieve induces replays directly, and a localic failure
    re-runs the localic check.  A K-faithful or K-full failure replays
    directly, with the local-property checker patched to raise too, and
    decides inclusion only for a continuous comorphism.  Changing one field
    (the nested kind, the family's object, k to h, bit 0 of the K-full
    sieve) makes a record fail to replay.  A pass re-runs the general
    check, so a pass recorded for a failure does not replay."""
    failures, locals_ = [], []
    reached = collections.Counter()
    for sfs in _comorphism_corpora(rng).values():
        for sf in sfs:
            routed = classify_comorphism(SiteFunctor(sf.F, sf.J, sf.K)).inclusion
            general = mor._comorphism_inclusion_general(SiteFunctor(sf.F, sf.J, sf.K))
            forged = Verdict(True, {"kind": "comorphism-inclusion", "holds": True})
            assert recheck_witness(sf, forged) == general.holds == routed.holds
            failures += [(sf, v.witness) for v in (routed, general) if not v.holds]
            props = local_property_tests(SiteFunctor(sf.F, sf.J, sf.K))
            continuous = is_continuous(sf).holds
            for name in ("J_full", "J_faithful"):
                if not props[name]:
                    locals_.append((sf, props[name].witness, continuous))

    def raises(*args):
        raise AssertionError("the replay re-ran a checker")
    for name in ("_comorphism_inclusion_general", "_closed_families_induced",
                 "_check_closed_families", "_comorphism_hyperconnected"):
        monkeypatch.setattr(mor, name, raises)
    for kind in ("comorphism-inclusion", "comorphism-hyperconnected"):
        monkeypatch.setitem(mor._POSITIVE_RUNNERS, kind, raises)

    for sf, w in failures:
        inner = w["witness"]
        with monkeypatch.context() as m:
            if inner["kind"] in ("J-full", "J-faithful"):
                m.setattr(mor, "_check_local_properties", raises)

            def replays(**fields):
                return recheck_witness(sf, Verdict(False, {**w, "witness": {**inner, **fields}}))
            assert replays()
            assert not replays(kind="comorphism-surjection")
            if inner["kind"] == "comorphism-hyperconnected":
                assert not replays(object=sf.F.target.n_objects)
            elif inner["kind"] == "J-faithful":
                assert not replays(instance={**inner["instance"], "k": inner["instance"]["h"]})
            elif inner["kind"] == "J-full":
                assert not replays(sieve=inner["sieve"] ^ 1)
        reached[inner["kind"]] += 1

    monkeypatch.setattr(mor, "_check_local_properties", raises)
    for sf, w, continuous in locals_:
        assert recheck_witness(sf, Verdict(False, w))
        wrapped = {"kind": "comorphism-inclusion", "holds": False, "witness": w}
        assert recheck_witness(sf, Verdict(False, wrapped)) == continuous
        reached[w["kind"], continuous] += 1
    assert all(reached[key] for key in ("comorphism-hyperconnected", "comorphism-localic",
                                        "J-full", "J-faithful", ("J-full", False))), reached


def test_forged_local_property_passes_replay_only_when_they_hold(rng):
    """A pass of J-full, J-faithful or K-dense replays through the local
    property tests of the fresh site functor that the replay builds: on
    the 300 random site functors a forged pass of each kind replays
    exactly when the property holds, and each kind occurs both ways."""
    seen = collections.Counter()
    for sf in random_site_functors(rng, 300):
        props = local_property_tests(SiteFunctor(sf.F, sf.J, sf.K))
        for kind, name in (("J-full", "J_full"), ("J-faithful", "J_faithful"),
                           ("K-dense", "K_dense")):
            forged = Verdict(True, {"kind": kind, "holds": True})
            assert recheck_witness(sf, forged) == props[name].holds
            seen[kind, props[name].holds] += 1
    assert len(seen) == 6, seen


def _relocated(w, obj):
    """The sieve-level record w with the object it names set to obj."""
    if "instance" in w:
        return {**w, "instance": {**w["instance"], "d": obj}}
    return {**w, "object": obj}


def _sieve_home(sf, w):
    """The category whose objects the record w names, and the category and
    object its sieve lives on."""
    F = sf.F
    if "instance" in w:
        return F.target, F.target, w["instance"]["d"]
    if w.get("clause") == "ii":
        return F.target, F.target, w["object"]
    if w["kind"] in ("covering-lifting", "closed-sieve-lifting"):
        return F.source, F.target, F.on_obj(w["object"])
    return F.source, F.source, w["object"]


def test_out_of_range_or_non_sieve_records_replay_false(rng):
    """Each failure of cover preservation, cover reflection, covering
    lifting, the four morphism-of-sites clauses and closed-sieve lifting on
    the 300 random site functors replays.  With its object set to the
    number of objects, its sieve set to -5, or its sieve set to a mask that
    is not a sieve on its object, it replays False and does not raise.  The
    mask is the identity alone where another arrow goes into the object,
    and an arrow the category does not have otherwise."""
    seen = collections.Counter()
    for sf in random_site_functors(rng, 300):
        fresh = SiteFunctor(sf.F, sf.J, sf.K)
        for v in (is_cover_preserving(fresh), is_cover_reflecting(fresh),
                  is_comorphism_of_sites(fresh), is_morphism_of_sites(fresh),
                  closed_sieve_lifting(fresh)):
            if v.holds:
                continue
            w = v.witness
            named, cat, c = _sieve_home(sf, w)
            identity = 1 << cat.identity[c]
            non_sieve = identity if not is_sieve_mask(cat, c, identity) else 1 << cat.n_arrows
            assert recheck_witness(sf, v)
            for forged in (_relocated(w, named.n_objects), {**w, "sieve": -5},
                           {**w, "sieve": non_sieve}):
                assert not recheck_witness(sf, Verdict(False, forged))
            seen[w["kind"], w.get("clause")] += 1
            seen["identity alone"] += non_sieve == identity
    assert len(seen) == 9 and seen["identity alone"], seen


def test_every_classifier_flag_replays_through_its_parts(rng):
    """On the 300 random site functors every flag of both classifiers
    replays, the morphism-side inclusions decided on J_F among them.
    A forged pass of a composite flag (morphism-side hyperconnected,
    essential surjection with closed image, comorphism equivalence)
    replays exactly when the flag holds.  Each failing part of a composite,
    recorded in it, replays, and not with its kind swapped for one that is
    not a part or its object out of range; a failed K-full, K-faithful or
    J-dense test decides a comorphism's equivalence only when F is
    continuous."""
    unreplayed, seen = collections.Counter(), collections.Counter()
    for sf in random_site_functors(rng, 300):
        F = sf.F
        out_of_range = max(F.source.n_objects, F.target.n_objects)
        for side, gate, classify in (("morphism", is_morphism_of_sites, classify_morphism),
                                     ("comorphism", is_comorphism_of_sites, classify_comorphism)):
            fresh = SiteFunctor(F, sf.J, sf.K)
            if not gate(fresh):
                continue
            cls = classify(fresh)
            for name in cls.flags():
                v = getattr(cls, name)
                if not recheck_witness(sf, v):
                    unreplayed[side, name, v.holds] += 1
                kind = v.witness["kind"]
                if kind in mor._PARTS:
                    forged = Verdict(True, {"kind": kind, "holds": True})
                    assert recheck_witness(sf, forged) == v.holds
                    seen[kind, v.holds] += 1
            if side == "morphism":
                csl, ii = closed_sieve_lifting(fresh), mor._weakly_dense_clause_ii(fresh)
                parts = {"hyperconnected": (cls.surjection, csl),
                         "essential-surjective-closed-image": (csl, ii)}
                continuous = True
            else:
                props = local_property_tests(fresh)
                parts = {"comorphism-equivalence": (cls.hyperconnected, cls.localic,
                                                    *props.values())}
                continuous = is_continuous(sf).holds
            for kind, verdicts in parts.items():
                for part in verdicts:
                    if part.holds:
                        continue
                    inner = part.witness
                    local = inner["kind"] in ("J-full", "J-faithful", "K-dense")

                    def replays(**fields):
                        return recheck_witness(sf, Verdict(False, {
                            "kind": kind, "holds": False, "witness": {**inner, **fields}}))
                    assert replays() == (continuous or not local)
                    assert not replays(kind="comorphism-surjection")
                    if "object" in inner:
                        assert not replays(object=out_of_range)
                    seen[kind, inner["kind"], continuous or not local] += 1
    assert not unreplayed, unreplayed
    assert all(seen[key] for key in (
        ("hyperconnected", True), ("hyperconnected", False),
        ("essential-surjective-closed-image", True),
        ("essential-surjective-closed-image", False),
        ("comorphism-equivalence", True), ("comorphism-equivalence", False),
        ("hyperconnected", "cover-reflecting", True),
        ("hyperconnected", "closed-sieve-lifting", True),
        ("essential-surjective-closed-image", "weakly-dense", True),
        ("comorphism-equivalence", "comorphism-hyperconnected", True),
        ("comorphism-equivalence", "comorphism-localic", True),
        ("comorphism-equivalence", "J-full", True), ("comorphism-equivalence", "J-full", False),
        ("comorphism-equivalence", "J-faithful", True),
        ("comorphism-equivalence", "K-dense", True))), seen


def test_inclusion_flags_replay_on_the_induced_topology(rng):
    """The morphism-side inclusion is weak denseness on (F, J_F, K).  Where
    J_F differs from J its record says so, and it replays on J_F: each of
    the 52 passes on the 300 random site functors, and each failure with
    the clause it records (here clause (ii), as F is cover-reflecting for
    J_F).  Without the mark a pass replays on J and is rejected; with it, a
    forged pass on a functor along which K induces no topology replays
    False."""
    seen = collections.Counter()
    forged = Verdict(True, {"kind": "weakly-dense", "holds": True,
                            "source_topology": "induced"})
    for sf in random_site_functors(rng, 300):
        fresh = SiteFunctor(sf.F, sf.J, sf.K)
        if not is_morphism_of_sites(fresh):
            try:
                induced_topology(sf.F, sf.K)
            except TopologyError:
                assert not recheck_witness(sf, forged)
                seen["no J_F"] += 1
            continue
        v = classify_morphism(fresh).inclusion
        on_jf = induced_topology(sf.F, sf.K) != sf.J
        assert (v.witness.get("source_topology") == "induced") == on_jf
        assert recheck_witness(sf, v)
        if not on_jf:
            continue
        bare = {k: x for k, x in v.witness.items() if k != "source_topology"}
        if v.holds:
            assert not recheck_witness(sf, Verdict(True, bare))
        seen[v.holds, v.witness.get("clause")] += 1
    assert seen[True, None] == 52 and seen["no J_F"] and len(seen) > 2, seen


def test_classify_comorphism_runs_each_shared_body_once(monkeypatch, rng):
    """One classification builds the coinduced topology once, decides the
    three local verdicts once and runs the localic body once, although the
    localic check reads the local verdicts, the hyperconnected check reads
    the surjection verdict and the general inclusion check runs the
    localic body.  The closed-family body runs once when the general
    inclusion check or a surjection reads it, and not at all otherwise, on
    random comorphisms and the hand-built one."""
    counts = collections.Counter()
    for name in ("_check_local_properties", "coinduced_topology", "_check_comorphism_localic",
                 "_check_closed_families", "_comorphism_inclusion_general"):
        def counted(*args, _name=name, _body=getattr(mor, name)):
            counts[_name] += 1
            return _body(*args)
        monkeypatch.setattr(mor, name, counted)
    reached = collections.Counter()
    comorphisms = [sf for sf in random_site_functors(rng, 80) if is_comorphism_of_sites(sf).holds]
    for sf in comorphisms + [_localic_without_faithfulness()]:
        counts.clear()
        cls = classify_comorphism(sf)
        general = counts["_comorphism_inclusion_general"]
        assert general <= 1
        assert [counts[name] for name in ("_check_local_properties", "coinduced_topology",
                                          "_check_comorphism_localic")] == [1, 1, 1]
        assert counts["_check_closed_families"] == (cls.surjection.holds or general)
        reached["general localic"] += "via" not in cls.localic.witness
        reached["closed families"] += cls.surjection.holds
        reached["both read the closed families"] += cls.surjection.holds and general
        reached["general inclusion reads localic"] += general and (
            cls.inclusion.holds or cls.inclusion.witness["witness"]["kind"] == "comorphism-localic")
    assert all(reached[key] for key in ("general localic", "closed families",
                                        "both read the closed families",
                                        "general inclusion reads localic")), reached


def _parallel_arrow_cospan(k):
    """The functor of `test_classify_comorphism_decides_the_general_inclusion_check`
    with k parallel arrows: the discrete site on 0, 1, where the empty sieve
    covers 0, into the cospan 0 -> 2 <- 1 with arrows a1..ak: 0 -> 2 and
    b: 1 -> 2, where the empty sieve covers 1; F(0) = 2 and F(1) = 0."""
    D = validate_category(2, [(0, 0), (1, 1)], [0, 1], {(0, 0): 0, (1, 1): 1})
    arrows = [(0, 0), (1, 1), (2, 2)] + [(0, 2)] * k + [(1, 2)]
    comp = {}
    for f, (a, b) in enumerate(arrows):
        comp[(f, a)] = comp[(b, f)] = f
    C = validate_category(3, arrows, [0, 1, 2], comp)
    F = validate_functor(D, C, (2, 0), (2, 0))
    return SiteFunctor(F, generate_topology(D, [(0, 0)]), generate_topology(C, [(1, 0)]))


def test_classify_comorphism_sheafifies_each_presheaf_once(monkeypatch, rng):
    """One classification sheafifies each distinct presheaf (sizes and
    restrictions) once, although the localic body reads the sheafified
    y(d) for every arrow into or out of d, and the general inclusion check
    runs that body too; on the parallel-arrow cospans the flags, the
    general inclusion verdict and the localic and hyperconnected witnesses
    equal the reference searches."""
    counts = collections.Counter()

    def counted(P, J, _body=mor.ps.sheafify):
        counts[P.sizes, P.restrict] += 1
        return _body(P, J)
    monkeypatch.setattr(mor.ps, "sheafify", counted)
    cospans = [_parallel_arrow_cospan(k) for k in range(1, 6)]
    corpora = [sf for sfs in _comorphism_corpora(rng).values() for sf in sfs]
    reached = 0
    for sf in cospans + corpora:
        counts.clear()
        cls = classify_comorphism(SiteFunctor(sf.F, sf.J, sf.K))
        assert set(counts.values()) <= {1}, counts
        reached += len(counts) > 1
        if sf in cospans:
            assert cls.flags() == {"surjection": False, "inclusion": True,
                                   "hyperconnected": False, "localic": True,
                                   "equivalence": False}
            assert cls.inclusion.witness == {"kind": "comorphism-inclusion", "holds": True}
            assert reference_comorphism_inclusion(SiteFunctor(sf.F, sf.J, sf.K)).witness == \
                cls.inclusion.witness
            assert cls.localic.witness == \
                _reference_comorphism_localic(SiteFunctor(sf.F, sf.J, sf.K))
            assert cls.hyperconnected.witness == \
                _reference_comorphism_hyperconnected(SiteFunctor(sf.F, sf.J, sf.K))
    assert reached


def test_inclusion_relation_condition_guards_its_arrow_enumeration():
    """The quotient Z18 -> Z9 with trivial topologies: every sheafified hom
    presheaf has 9 elements, so in the reference inclusion search the 9^9
    candidate components of a sheaf arrow between two of them trip the
    2^20 guard of `enumerate_presheaf_morphisms` before any is tried.  The
    general inclusion check enumerates no sheaf arrow: F is not localic,
    and that is its witness."""
    z18, z9 = (monoid_category([[(i + j) % n for j in range(n)] for i in range(n)], 0)
               for n in (18, 9))
    F = validate_functor(z18, z9, (0,), tuple(i % 9 for i in range(18)))
    sf = SiteFunctor(F, trivial_topology(z18), trivial_topology(z9))
    start = time.process_time()
    with pytest.raises(SizeGuardError, match=r"9\^9 candidate components at object 0"):
        reference_comorphism_inclusion(sf)
    assert time.process_time() - start < 1.0
    start = time.process_time()
    assert mor._comorphism_inclusion_general(SiteFunctor(F, sf.J, sf.K)).witness == {
        "kind": "comorphism-inclusion", "holds": False,
        "witness": {"kind": "comorphism-localic", "holds": False, "object": 0}}
    assert time.process_time() - start < 1.0


def test_quotient_z34_to_z17_classifies_from_single_elements():
    """The quotient Z34 -> Z17 with trivial topologies: Hom(F(0), 0) has 17
    elements, so the closed families to decide are subsets of 2^17, and the
    hyperconnected check tests the closures of the 17 single elements.  F
    is a surjection and hyperconnected, not an inclusion, not localic and
    no equivalence."""
    z34, z17 = (monoid_category([[(i + j) % n for j in range(n)] for i in range(n)], 0)
                for n in (34, 17))
    F = validate_functor(z34, z17, (0,), tuple(i % 17 for i in range(34)))
    sf = SiteFunctor(F, trivial_topology(z34), trivial_topology(z17))
    start = time.process_time()
    cls = classify_comorphism(sf)
    assert time.process_time() - start < 5.0
    assert cls.flags() == {"surjection": True, "inclusion": False, "hyperconnected": True,
                           "localic": False, "equivalence": False}


# ---------------------------------------------------------------------------
# the shared building blocks against the bodies that carried their own copy

def _hom_position_corpus(rng):
    """Random categories, the totals of random fibrations and the
    categories of elements of random presheaves."""
    cats = [random_category(rng) for _ in range(200)]
    cats += [random_fibration(rng).source for _ in range(40)]
    cats += [category_of_elements(random_presheaf(rng, random_category(rng))).category
             for _ in range(40)]
    return cats


def test_hom_position_matches_hom_scan(rng):
    """`hom_position` is each arrow's index in its hom-set, and the
    representables and y(g) built from it are the ones built by scans."""
    arrows = 0
    for cat in _hom_position_corpus(rng):
        for f in cat.arrows:
            assert cat.hom_position[f] == cat.hom(cat.dom[f], cat.cod[f]).index(f)
            assert ps.yoneda_arrow(cat, f) == reference_yoneda_arrow(cat, f)
            arrows += 1
        for c in cat.objects:
            y = yoneda(cat, c)
            assert y.restrict == tuple(
                tuple(cat.hom(cat.dom[f], c).index(cat.compose(h, f)) for h in cat.hom(cat.cod[f], c))
                for f in cat.arrows)
    assert arrows > 1000


def test_hom_presheaf_and_continuity_oracle_match_reference(rng):
    """Hom_C(F(-), c) as y(c) restricted along F, and the continuity oracle
    through the shared cocone comparison, against the bodies that scanned
    hom-sets and built the comparison by hand, on 300 random site
    functors."""
    verdicts = collections.Counter()
    for sf in random_site_functors(rng, 300):
        F = sf.F
        for c in F.target.objects:
            assert mor._hom_presheaf(F, c) == reference_hom_presheaf(F, c)
        oracle = continuity_oracle(sf)
        assert oracle == reference_continuity_oracle(sf)
        assert oracle == is_continuous(sf).holds
        verdicts[oracle] += 1
    assert min(verdicts.values()) > 20 and len(verdicts) == 2


def _cocones(cat, rng, n_diagrams):
    """Diagrams of small shapes in cat with every cocone on them: all leg
    choices, not only the members of a sieve."""
    shapes = [poset_category(1, []), poset_category(2, []), poset_category(2, [(0, 1)]),
              poset_category(3, [(0, 1), (0, 2)])]
    for shape in shapes:
        diagrams = all_functors(shape, cat)
        for D in rng.sample(diagrams, min(n_diagrams, len(diagrams))):
            for vertex in cat.objects:
                homs = [cat.hom(D.on_obj(a), vertex) for a in shape.objects]
                for legs in itertools.product(*homs):
                    if all(cat.compose(legs[shape.cod[u]], D.on_arr(u)) == legs[shape.dom[u]]
                           for u in shape.arrows):
                        yield D, vertex, legs


def _clause_b_with_distinct_arrows():
    """The vee onto two isomorphic objects under a common top, legs swapped:
    it fails local-connectedness clause (b) at a pair alpha != beta
    (frozen from a randomized search)."""
    vee = validate_category(3, [(0, 0), (0, 2), (1, 1), (1, 2), (2, 2)], [0, 2, 4],
                            {(0, 0): 0, (1, 0): 1, (2, 2): 2, (3, 2): 3,
                             (4, 1): 1, (4, 3): 3, (4, 4): 4})
    homs = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 2)]
    pair = validate_category(3, homs, [0, 4, 6], {
        (g, f): homs.index((homs[f][0], homs[g][1]))
        for g, f in itertools.product(range(7), repeat=2) if homs[f][1] == homs[g][0]})
    return validate_functor(vee, pair, (1, 0, 2), (4, 5, 0, 2, 6))


def test_connection_loops_match_reference(rng):
    """Cofinality, sheaf colimits and local connectedness, each with its
    connection clause on `_CommaComponents.unconnected`, give the verdicts
    and witnesses of the inline loops they replace.  The corpus makes every
    caller fail its connection clause: random site functors, under their
    own and the trivial target topology, every cocone on small diagrams,
    the functor of `test_clause_b_counterexample`, and one failing clause
    (b) at two distinct arrows."""
    V = poset_category(3, [(0, 2), (1, 2)])
    distinct = _clause_b_with_distinct_arrows()
    functors = [(validate_functor(V, V, (0, 0, 2), (0, 1, 0, 1, 4)), trivial_topology(V)),
                (distinct, trivial_topology(distinct.target))]
    for sf in random_site_functors(rng, 150):
        functors += [(sf.F, sf.K), (sf.F, trivial_topology(sf.F.target))]
    failures = collections.Counter()
    for F, K in functors:
        for name, new, old in (
                ("cofinal", is_J_cofinal(F, K), reference_is_J_cofinal(F, K)),
                ("locally-connected", mor._locally_connected(F, K),
                 reference_locally_connected(F, K))):
            assert new == old
            failures[name, new.witness.get("clause")] += 1
    for _ in range(40):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        for D, vertex, legs in _cocones(cat, rng, 3):
            new = cocone_is_sheaf_colimit(D, vertex, legs, J)
            assert new == reference_cocone_is_sheaf_colimit(D, vertex, legs, J)
            assert new.holds == cocone_sheaf_colimit_oracle(D, vertex, legs, J)
            failures["sheaf-colimit", new.witness.get("clause")] += 1
    for name in ("cofinal", "locally-connected", "sheaf-colimit"):
        assert failures[name, None] > 10
    assert failures["cofinal", "ii"] > 10
    assert failures["locally-connected", "b"] >= 2
    instance = mor._locally_connected(distinct, trivial_topology(distinct.target)).witness["instance"]
    assert instance["alpha"] != instance["beta"]
    assert failures["sheaf-colimit", "ii"] > 10


def test_cofinal_witnesses_replay_against_the_target_topology(rng):
    """The `cofinal` command and `is_terminally_connected` decide
    cofinality with the target topology, so their witnesses replay against
    it, on functors between different categories."""
    replayed = collections.Counter()
    for sf in random_site_functors(rng, 200):
        if sf.F.source == sf.F.target:
            continue
        v = is_J_cofinal(sf.F, sf.K)
        assert recheck_witness(sf, v)
        replayed[v.holds] += 1
        if is_comorphism_of_sites(sf).holds and is_continuous(sf).holds:
            assert recheck_witness(sf, is_terminally_connected(sf))
    assert min(replayed.values()) > 20 and len(replayed) == 2
