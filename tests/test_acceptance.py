"""The acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -s` to see every line.

Criterion 8 is implemented verbatim and is an expected failure: the
biconditional it restates is refuted by a finite counterexample (see the
companion corrected test and the decisions ledger)."""

import random
import time

import pytest

from sitecalc.fincat import (
    identity_functor,
    monoid_category,
    poset_category,
    validate_functor,
)
from sitecalc.morphisms import (
    SiteFunctor,
    classify_comorphism,
    classify_morphism,
    is_comorphism_of_sites,
    is_cover_preserving,
    is_cover_reflecting,
    is_dense_morphism,
    is_morphism_of_sites,
    is_weakly_dense,
    local_property_tests,
)
from sitecalc.constructions import (
    comorphism_to_morphism_comma,
    generalized_elements_fibration,
    generalized_elements_identities,
    morphism_to_comorphism,
)
from sitecalc.factorizations import (
    build_CJ,
    category_of_elements,
    comorphism_factorizations,
    comprehensive_factorization,
    hyperconnected_localic_factorization,
    is_locally_connected_presheaf,
    is_terminally_connected,
    surjection_inclusion_factorization,
)
from sitecalc.presheaf import (
    canonical_topology,
    is_bicovering,
    is_sheaf,
    is_subcanonical,
    sheaf_comparison,
    sheafify,
    sheafify_plus_plus,
    yoneda,
)
from sitecalc.sieves import all_sieve_masks
from sitecalc.topology import (
    atomic_topology,
    fibration_topology,
    generate_topology,
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
    random_topology,
)
from oracles import (
    arrow_to_relation,
    compose_relations,
    enumerate_presheaf_morphisms,
    graph_relation,
    relation_to_arrow,
)
from test_topology import reference_canonical_topology

SEED = 20260809


def report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n} {status}: {detail}")
    return ok


def test_acceptance_01_collapse_endofunctor():
    """The collapse endofunctor on the atomic arrow-preorder site: the five
    classification facts, exactly."""
    start = time.perf_counter()
    two = make_two()
    J = atomic_topology(two)
    sf = SiteFunctor(make_collapse_functor(two), J, J)

    mos = is_morphism_of_sites(sf)
    dense = is_dense_morphism(sf)
    weakly = is_weakly_dense(sf)
    cls = classify_morphism(sf)
    com = is_comorphism_of_sites(sf)
    elapsed = time.perf_counter() - start

    ok = (mos.holds is True
          and dense.holds is False
          and dense.witness["clause"] == "ii"
          and dense.witness["witness"]["object"] == 0
          and weakly.holds is True
          and cls.equivalence.holds is True
          and com.holds is False
          and elapsed < 1.0)
    assert report(1, ok,
                  f"morphism=yes dense=no(witness at object 0) weakly-dense=yes "
                  f"equivalence=yes comorphism=no in {elapsed:.3f}s")


def _fibration_corpus(n=200):
    rng = random.Random(SEED)
    corpus = []
    while len(corpus) < n:
        p = random_fibration(rng)
        if p.source.n_arrows <= 30:
            corpus.append((p, random_topology(rng, p.target)))
    return corpus


def test_acceptance_02_fibration_topology_oracle():
    """Fibration topologies: the direct cartesian-arrow characterization
    equals the generated smallest comorphism topology, as exact explicit
    families, over >= 200 fibrations."""
    corpus = _fibration_corpus(200)
    for i, (p, K) in enumerate(corpus):
        direct = fibration_topology(p, K)
        generated = smallest_comorphism_topology(p, K)
        assert direct.covers == generated.covers, f"mismatch at fibration {i}"
    assert report(2, True, f"{len(corpus)} fibrations, exact family equality")


def test_acceptance_03_fibration_identity_suite():
    """All seven fibration presieve identities as exact set equalities."""
    from test_sieves import fibration_presieve_identities
    rng = random.Random(SEED + 1)
    corpus = _fibration_corpus(200)
    for p, _ in corpus:
        fibration_presieve_identities(p, rng)
    assert report(3, True, f"{len(corpus)} fibrations x 7 identities")


def test_acceptance_04_sheafification():
    """Sheafification correctness on >= 200 random (P, J)."""
    rng = random.Random(SEED + 2)
    count = 0
    while count < 200:
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat, max_size=2)
        sh = sheafify(P, J)
        ok, witness = is_sheaf(sh.sheaf, J)
        assert ok, witness
        assert is_bicovering(sh.unit, J)
        sh2 = sheafify(sh.sheaf, J)
        assert sh2.unit.is_bijective()  # idempotence up to unit isomorphism
        pp, eta = sheafify_plus_plus(P, J)
        cmp = sheaf_comparison(P, J, pp, eta, sh.sheaf, sh.unit)
        assert cmp.is_bijective()       # exact agreement with the oracle
        count += 1

    # subcanonical part: canonical topologies leave representables fixed
    rng2 = random.Random(SEED + 3)
    for _ in range(8):
        cat = random_category(rng2)
        J = canonical_topology(cat)
        for c in cat.objects:
            sh = sheafify(yoneda(cat, c), J)
            assert sh.unit.is_bijective()
    assert report(4, True, f"{count} random (P, J) plus canonical-topology representables")


def test_acceptance_05_relation_calculus():
    """Relation calculus: round trips, associativity, arrow-side
    composition, and hom-set cardinalities against brute-force sheaf-arrow
    counts."""
    rng = random.Random(SEED + 4)
    rounds = 0
    while rounds < 60:
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat, max_size=2)
        Q = random_presheaf(rng, cat, max_size=2)
        shP, shQ = sheafify(P, J), sheafify(Q, J)
        arrows = enumerate_presheaf_morphisms(shP.sheaf, shQ.sheaf)
        for xi in arrows[:3]:
            R = arrow_to_relation(shP, shQ, xi)
            assert relation_to_arrow(J, R, shP, shQ).components == xi.components
        mor_PQ = enumerate_presheaf_morphisms(P, Q)
        if mor_PQ:
            Z = random_presheaf(rng, cat, max_size=2)
            shZ = sheafify(Z, J)
            mor_QZ = enumerate_presheaf_morphisms(Q, Z)
            mor_ZP = enumerate_presheaf_morphisms(Z, P)
            if mor_QZ and mor_ZP:
                R = graph_relation(rng.choice(mor_PQ), J)
                S = graph_relation(rng.choice(mor_QZ), J)
                T = graph_relation(rng.choice(mor_ZP), J)
                lhs = compose_relations(J, T, compose_relations(J, S, R))
                rhs = compose_relations(J, compose_relations(J, T, S), R)
                assert lhs.pairs == rhs.pairs
                aR = relation_to_arrow(J, R, shP, shQ)
                aS = relation_to_arrow(J, S, shQ, shZ)
                aSR = relation_to_arrow(J, compose_relations(J, S, R), shP, shZ)
                assert aR.then(aS).components == aSR.components
        rounds += 1

    # C_J hom cardinalities on sites small enough for the verbatim search
    two = make_two()
    for (cat, J) in [(two, atomic_topology(two)),
                     (two, trivial_topology(two)),
                     (poset_category(3, [(0, 1), (1, 2)]),
                      trivial_topology(poset_category(3, [(0, 1), (1, 2)])))]:
        cj = build_CJ(cat, J)
        for c in cat.objects:
            for d in cat.objects:
                shc = sheafify(yoneda(cat, c), J)
                shd = sheafify(yoneda(cat, d), J)
                count = len(enumerate_presheaf_morphisms(shc.sheaf, shd.sheaf))
                assert count == len(cj.homs[c * cat.n_objects + d])
    assert report(5, True, f"{rounds} relation-calculus rounds plus C_J hom counts")


def _site_functor_corpus(predicate, n, seed):
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < n and tries < 400:
        tries += 1
        src, tgt = random_category(rng), random_category(rng)
        if src.n_arrows + tgt.n_arrows > 10:
            continue
        try:
            fs = all_functors(src, tgt)
        except RuntimeError:
            continue
        if not fs:
            continue
        sf = SiteFunctor(rng.choice(fs), random_topology(rng, src),
                         random_topology(rng, tgt))
        if predicate(sf):
            out.append(sf)
    return out


def test_acceptance_06_comma_certificates():
    """Comma-site certificates and generalized-elements topology equalities
    over the fixture corpus."""
    two = make_two()
    J = atomic_topology(two)
    morphisms = [SiteFunctor(make_collapse_functor(two), J, J),
                 SiteFunctor(identity_functor(two), J, J)]
    morphisms += _site_functor_corpus(lambda sf: is_morphism_of_sites(sf).holds,
                                      6, SEED + 5)
    for sf in morphisms:
        site = morphism_to_comorphism(sf)
        assert all(site.certificates.values()), (sf, site.certificates)

    comorphisms = [SiteFunctor(identity_functor(two), J, J)]
    comorphisms += _site_functor_corpus(lambda sf: is_comorphism_of_sites(sf).holds,
                                        6, SEED + 6)
    for sf in comorphisms:
        site = comorphism_to_morphism_comma(sf)
        assert all(site.certificates.values()), (sf, site.certificates)
        gen = generalized_elements_fibration(sf)
        assert all(gen.certificates.values()), (sf, gen.certificates)
        identities = generalized_elements_identities(sf, gen)
        assert all(identities.values()), (sf, identities)
    assert report(6, True,
                  f"{len(morphisms)} morphisms and {len(comorphisms)} comorphisms certified")


def test_acceptance_07_factorization_coherence():
    """Surjection-inclusion and hyperconnected-localic factorizations carry
    the advertised flags, recompose, and match the original classification."""
    two = make_two()
    J = atomic_topology(two)
    corpus = [SiteFunctor(make_collapse_functor(two), J, J),
              SiteFunctor(identity_functor(two), J, J)]
    corpus += _site_functor_corpus(lambda sf: is_morphism_of_sites(sf).holds,
                                   5, SEED + 7)
    for sf in corpus:
        fact = surjection_inclusion_factorization(sf)
        assert is_cover_reflecting(fact.surjection_leg).holds
        assert classify_morphism(fact.inclusion_leg).inclusion.holds
        assert fact.surjection_leg.functor == sf.functor  # recomposes to F

        if sf.functor.source.n_arrows + sf.functor.target.n_arrows <= 8:
            hl = hyperconnected_localic_factorization(sf)
            assert classify_morphism(hl.hyperconnected_leg).hyperconnected.holds
            assert classify_morphism(hl.localic_leg).localic.holds
            composite = hl.localic_leg.functor.then(hl.hyperconnected_leg.functor)
            assert composite.obj_map == hl.embedding.functor.obj_map
            assert composite.arr_map == hl.embedding.functor.arr_map
            assert classify_morphism(hl.embedding).flags() == classify_morphism(sf).flags()

    cover_preserving = _site_functor_corpus(
        lambda sf: is_comorphism_of_sites(sf).holds and is_cover_preserving(sf).holds,
        6, SEED + 8)
    from sitecalc.morphisms import comorphism_surjection
    for sf in cover_preserving:
        fact = comorphism_factorizations(sf)
        assert comorphism_surjection(fact.surjection_leg).holds
        assert classify_comorphism(fact.inclusion_leg).inclusion.holds
        assert classify_comorphism(fact.hyperconnected_leg).hyperconnected.holds
        assert classify_comorphism(fact.localic_leg).localic.holds
        si = fact.surjection_leg.functor.then(fact.inclusion_leg.functor)
        hl2 = fact.hyperconnected_leg.functor.then(fact.localic_leg.functor)
        for recomposed in (si, hl2):
            assert recomposed.obj_map == sf.functor.obj_map
            assert recomposed.arr_map == sf.functor.arr_map
    assert report(7, True,
                  f"{len(corpus)} morphisms and {len(cover_preserving)} "
                  f"cover-preserving comorphisms factored coherently")


def _bimorphism_corpus(n, seed):
    return _site_functor_corpus(
        lambda sf: is_morphism_of_sites(sf).holds and is_comorphism_of_sites(sf).holds,
        n, seed)


@pytest.mark.xfail(strict=True,
                   reason="the stated biconditional omits local faithfulness and is "
                          "refuted by a finite counterexample (the idempotent monoid "
                          "onto the indiscrete pair); the corrected criterion passes")
def test_acceptance_08_bimorphism_biconditional_as_specified():
    """Verbatim criterion 8: equivalence flag ⟺ (K-full ∧ J-dense) over an
    enumerated bimorphism corpus; zero discrepancies."""
    corpus = _bimorphism_corpus(25, SEED + 9)
    M = monoid_category([[0, 1], [1, 1]], 0)
    ind = indiscrete_category(2)
    F = validate_functor(M, ind, (0,), (ind.identity[0], ind.identity[0]))
    corpus.append(SiteFunctor(F, trivial_topology(M), trivial_topology(ind)))
    discrepancies = []
    for sf in corpus:
        props = local_property_tests(sf)
        cls = classify_comorphism(sf)
        stated = props["J_full"].holds and props["K_dense"].holds
        if cls.equivalence.holds != stated:
            discrepancies.append(sf)
    report(8, not discrepancies,
           f"{len(corpus)} bimorphisms, {len(discrepancies)} discrepancies "
           f"(K-faithfulness is genuinely required; see ledger)")
    assert not discrepancies


def test_acceptance_08_corrected_biconditional():
    """The sound version over the same corpus: equivalence ⟺ dense morphism
    of sites ⟺ K-full ∧ K-faithful ∧ J-dense; zero discrepancies."""
    corpus = _bimorphism_corpus(25, SEED + 9)
    M = monoid_category([[0, 1], [1, 1]], 0)
    ind = indiscrete_category(2)
    F = validate_functor(M, ind, (0,), (ind.identity[0], ind.identity[0]))
    corpus.append(SiteFunctor(F, trivial_topology(M), trivial_topology(ind)))
    for sf in corpus:
        props = local_property_tests(sf)
        cls = classify_comorphism(sf)
        corrected = (props["J_full"].holds and props["J_faithful"].holds
                     and props["K_dense"].holds)
        assert cls.equivalence.holds == corrected
        assert cls.equivalence.holds == is_dense_morphism(sf).holds
    assert report("8*", True,
                  f"{len(corpus)} bimorphisms, corrected criterion, zero discrepancies")


def test_acceptance_09_canonical_topology():
    """Canonical topologies are subcanonical and maximal among subcanonical
    (adding any non-covering sieve breaks subcanonicity)."""
    rng = random.Random(SEED + 10)
    cats = [make_two(), poset_category(3, [(0, 1), (1, 2)]),
            poset_category(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
            indiscrete_category(2)]
    for _ in range(4):
        cats.append(random_category(rng))
    checked = 0
    for cat in cats:
        if any(len(all_sieve_masks(cat, c)) > 10 for c in cat.objects):
            continue
        J = canonical_topology(cat)
        reference = reference_canonical_topology(cat)
        assert J.covers == reference.covers
        assert is_subcanonical(J)
        for c in cat.objects:
            ok_sheaf = all(is_sheaf(yoneda(cat, e), J)[0] for e in cat.objects)
            assert ok_sheaf
            for s in all_sieve_masks(cat, c):
                if J.is_covering(c, s):
                    continue
                bigger = generate_topology(
                    cat, [(c2, s2) for c2 in cat.objects for s2 in J.covers[c2]]
                    + [(c, s)])
                assert not is_subcanonical(bigger), \
                    f"canonical not maximal at object {c}, sieve {s:#x}"
                assert not bigger <= reference
        checked += 1
    assert checked >= 5
    assert report(9, True, f"{checked} categories: subcanonical and maximal")


def test_acceptance_10_locally_connected():
    """Discrete fibrations are locally connected; the curated counterexamples
    are not; comprehensive-factorization lifts are terminally connected."""
    rng = random.Random(SEED + 11)
    count = 0
    for _ in range(30):
        cat = random_category(rng)
        P = random_presheaf(rng, cat, max_size=2)
        proj = category_of_elements(P).projection
        assert is_locally_connected_presheaf(proj).holds
        count += 1

    two = make_two()
    V = poset_category(3, [(0, 2), (1, 2)])
    counterexamples = [
        (make_collapse_functor(two), "a"),
        (validate_functor(V, V, (0, 0, 2), (0, 1, 0, 1, 4)), "b"),
    ]
    for F, clause in counterexamples:
        v = is_locally_connected_presheaf(F)
        assert not v.holds and v.witness["clause"] == clause

    lifts = 0
    rng2 = random.Random(SEED + 12)
    for _ in range(10):
        p = random_fibration(rng2)
        if p.source.n_arrows > 16:
            continue
        K = random_topology(rng2, p.target)
        M = fibration_topology(p, K)
        fact = comprehensive_factorization(p, K)
        sf = SiteFunctor(fact.lift, M, fact.topology)
        if is_comorphism_of_sites(sf).holds:
            assert is_terminally_connected(sf).holds
            lifts += 1
    assert lifts >= 5
    assert report(10, True,
                  f"{count} discrete fibrations locally connected, "
                  f"2 counterexamples rejected, {lifts} comprehensive lifts "
                  f"terminally connected")
