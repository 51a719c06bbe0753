import collections
import random

import pytest

import sitecalc.factorizations as factorizations
import sitecalc.morphisms as morphisms
import sitecalc.presheaf as presheaf
import sitecalc.topology as topology
from sitecalc.constructions import (
    _check_adjunction,
    comorphism_to_morphism_comma,
    generalized_elements_fibration,
    generalized_elements_identities,
    morphism_to_comorphism,
)
from sitecalc.fincat import (
    SizeGuardError,
    comma,
    identity_functor,
    monoid_category,
    validate_category,
    validate_functor,
)
from sitecalc.morphisms import (
    SiteFunctor,
    Verdict,
    _induced_family,
    classify_comorphism,
    classify_morphism,
    is_comorphism_of_sites,
    is_morphism_of_sites,
    local_property_tests,
)
from sitecalc.presheaf import closure_cJ
from sitecalc.replay import recheck_witness
from sitecalc.sieves import all_sieve_masks
from sitecalc.topology import (
    atomic_topology,
    coinduced_topology,
    fibration_topology,
    smallest_comorphism_topology,
    trivial_topology,
)

from conftest import (
    RNG_SEED,
    all_functors,
    forbid,
    idempotent_monoid_category,
    make_collapse_functor,
    random_category,
    random_fibration,
    random_site_functors,
    random_topology,
)
from oracles import (
    reference_closure_cJ,
    reference_induced_family,
    reference_j_faithful,
    reference_j_full,
    reference_morphism_of_sites,
)


def morphism_corpus(rng, n=8):
    out = []
    tries = 0
    while len(out) < n and tries < 150:
        tries += 1
        src, tgt = random_category(rng), random_category(rng)
        try:
            fs = all_functors(src, tgt)
        except RuntimeError:
            continue
        if not fs:
            continue
        sf = SiteFunctor(rng.choice(fs), random_topology(rng, src),
                         random_topology(rng, tgt))
        if is_morphism_of_sites(sf).holds:
            out.append(sf)
    return out


def comorphism_corpus(rng, n=8):
    out = []
    tries = 0
    while len(out) < n and tries < 150:
        tries += 1
        src, tgt = random_category(rng), random_category(rng)
        try:
            fs = all_functors(src, tgt)
        except RuntimeError:
            continue
        if not fs:
            continue
        sf = SiteFunctor(rng.choice(fs), random_topology(rng, src),
                         random_topology(rng, tgt))
        if is_comorphism_of_sites(sf).holds:
            out.append(sf)
    return out


def test_m2c_collapse(two):
    J = atomic_topology(two)
    sf = SiteFunctor(make_collapse_functor(two), J, J)
    site = morphism_to_comorphism(sf)
    assert all(site.certificates.values()), site.certificates


def test_m2c_identity_projection_equivalence(rng):
    for _ in range(4):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        sf = SiteFunctor(identity_functor(cat), J, J)
        site = morphism_to_comorphism(sf)
        assert site.certificates["pi_D_equivalence"]
        assert site.certificates["adjunction"]


def test_m2c_corpus(rng):
    for sf in morphism_corpus(rng, n=5):
        if sf.functor.source.n_arrows + sf.functor.target.n_arrows > 10:
            continue
        site = morphism_to_comorphism(sf)
        assert all(site.certificates.values()), site.certificates


def test_adjunction_certificate_needs_a_natural_unit():
    """On Z3, L = id and R = inversion are not adjoint, though every
    hom-set on both sides has 3 elements, which was all the certificate
    once compared: no candidate unit η: 0 -> 0 is natural, as
    R(L(r))∘η = η∘r forces r^-1 = r.  The identity is adjoint to itself,
    and as Z3 is abelian every η is a unit of that adjunction.  On the
    monoid {1, e} with e∘e = e, η = e is natural for the identity, but
    g ↦ g∘e sends both arrows to e, so only η = 1 is a unit."""
    Z3 = monoid_category([[(i + j) % 3 for j in range(3)] for i in range(3)], 0)
    inversion = validate_functor(Z3, Z3, (0,), (0, 2, 1))
    identity = identity_functor(Z3)
    assert all(len(Z3.hom(identity.on_obj(a), b)) == len(Z3.hom(a, inversion.on_obj(b)))
               for a in Z3.objects for b in Z3.objects)
    assert not any(_check_adjunction(identity, inversion, (eta,)) for eta in Z3.arrows)
    assert all(_check_adjunction(identity, identity, (eta,)) for eta in Z3.arrows)
    M = idempotent_monoid_category()
    identity = identity_functor(M)
    assert [eta for eta in M.arrows if _check_adjunction(identity, identity, (eta,))] \
        == [M.identity[0]]


def test_m2c_requires_morphism(two):
    sf = SiteFunctor(identity_functor(two), atomic_topology(two), trivial_topology(two))
    with pytest.raises(ValueError):
        morphism_to_comorphism(sf)


def test_m2c_object_budget():
    """4,097 × 16 = 65,552 comma objects, each with an identity arrow, trip
    the 2^16 arrow guard before any arrow is enumerated."""
    n = 4097
    discrete = validate_category(n, [(c, c) for c in range(n)], range(n),
                                 {(c, c): c for c in range(n)})
    Z16 = monoid_category([[(i + j) % 16 for j in range(16)] for i in range(16)], 0)
    F = validate_functor(discrete, Z16, (0,) * n, (0,) * n)
    with pytest.raises(SizeGuardError, match="65552 objects"):
        comma(F, identity_functor(Z16))


def test_c2m_identity(rng):
    for _ in range(4):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        sf = SiteFunctor(identity_functor(cat), J, J)
        site = comorphism_to_morphism_comma(sf)
        assert all(site.certificates.values()), site.certificates


def test_c2m_fibration(rng):
    for _ in range(3):
        p = random_fibration(rng)
        if p.source.n_arrows > 8:
            continue
        K = random_topology(rng, p.target)
        M = fibration_topology(p, K)
        sf = SiteFunctor(p, M, K)
        site = comorphism_to_morphism_comma(sf)
        assert all(site.certificates.values()), site.certificates


def test_c2m_requires_comorphism(two):
    J = atomic_topology(two)
    sf = SiteFunctor(make_collapse_functor(two), J, J)
    with pytest.raises(ValueError):
        comorphism_to_morphism_comma(sf)


def test_gen_elements_identity(rng):
    for _ in range(3):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        sf = SiteFunctor(identity_functor(cat), J, J)
        site = generalized_elements_fibration(sf)
        assert all(site.certificates.values()), site.certificates
        ids = generalized_elements_identities(sf, site)
        assert all(ids.values()), ids


def test_gen_elements_corpus(rng):
    checked = 0
    for sf in comorphism_corpus(rng, n=10):
        if sf.functor.source.n_arrows + sf.functor.target.n_arrows > 8:
            continue
        site = generalized_elements_fibration(sf)
        assert all(site.certificates.values()), site.certificates
        ids = generalized_elements_identities(sf, site)
        assert all(ids.values()), ids
        checked += 1
        if checked >= 3:
            break
    assert checked >= 1


def test_embedding_topology_round_trip(rng):
    """K = M^{i'_F}_{K^{i'_F}} for the full and faithful embedding."""
    checked = 0
    for sf in comorphism_corpus(rng, n=8):
        if sf.functor.source.n_arrows + sf.functor.target.n_arrows > 8:
            continue
        site = generalized_elements_fibration(sf)
        i_prime = site.embedding.functor
        K = sf.source_topology
        back = smallest_comorphism_topology(i_prime, coinduced_topology(i_prime, K))
        assert back.covers == K.covers
        checked += 1
        if checked >= 3:
            break
    assert checked >= 1


def test_comma_topology_is_built_once(monkeypatch, rng, two):
    """Each comma construction enumerates and validates its comma topology
    once: `classify_morphism(π_D)` finds K̃ (K̄ for c2m) in the memo of
    `induced_topology` instead of building it again."""
    morphisms_in = [SiteFunctor(make_collapse_functor(two), atomic_topology(two),
                                atomic_topology(two)), *morphism_corpus(rng)]
    comorphisms_in = comorphism_corpus(rng)
    built = []
    where = topology.topology_where

    def counted(cat, covers):
        built.append(cat)
        return where(cat, covers)

    for module in (topology, factorizations):
        monkeypatch.setattr(module, "topology_where", counted)
    for construct, corpus in ((morphism_to_comorphism, morphisms_in),
                              (comorphism_to_morphism_comma, comorphisms_in)):
        assert len(corpus) >= 5
        for sf in corpus:
            built.clear()
            site = construct(sf)
            assert len(built) == 1 and built[0] is site.comma.category
            assert all(site.certificates.values()), site.certificates


@pytest.fixture(scope="module")
def m2c_corpus():
    """The 300 random site functors of `test_flag_lattice_on_both_classifiers`,
    each with its m2c comma site if it is a morphism of sites (else None)."""
    return [(sf, morphism_to_comorphism(sf) if is_morphism_of_sites(sf) else None)
            for sf in random_site_functors(random.Random(RNG_SEED), 300)]


def test_dual_adjunction_through_comma_sites(m2c_corpus):
    """A morphism of sites F and the comorphism π_C out of its m2c comma
    site induce the same geometric morphism, and so do a comorphism and the
    comorphism π_C out of its c2m comma site.  The morphism-side classifier
    and the comorphism-side one share no body, so their flags must agree,
    on each of the 300 site functors, on both sides."""
    patterns = {"m2c": collections.Counter(), "c2m": collections.Counter()}
    for sf, m2c in m2c_corpus:
        if m2c is not None:
            assert all(m2c.certificates.values()), m2c.certificates
            flags = classify_morphism(sf).flags()
            del flags["essential_surjective_closed_image"]
            assert classify_comorphism(m2c.projections["to_source"]).flags() == flags, sf
            patterns["m2c"][tuple(flags.values())] += 1
        if is_comorphism_of_sites(sf):
            c2m = comorphism_to_morphism_comma(sf)
            assert all(c2m.certificates.values()), c2m.certificates
            flags = classify_comorphism(sf).flags()
            assert classify_comorphism(c2m.projections["to_target"]).flags() == flags, sf
            patterns["c2m"][tuple(flags.values())] += 1
    assert sum(patterns["m2c"].values()) >= 100 and sum(patterns["c2m"].values()) >= 100
    assert all(len(c) >= 4 for c in patterns.values())


def test_comorphism_localic_witnesses_replay_at_their_object(m2c_corpus, monkeypatch):
    """A failed localic record of a comorphism names its object and the
    non-covering sieve that the passing arrows generate there, and replays
    by recomputing that sieve at that object alone, with the localic check
    patched to raise.  On the c2m comma comorphisms of the corpus, 33 of
    the 47 failures sit on sources with more than one object.  Each
    failure replays, and not with one arrow of its sieve toggled or its
    object out of range.  A copy with the object moved to another d
    replays exactly when d has the recorded sieve and J does not cover it:
    11 copies replay False, where re-running the check accepted every
    copy, and 29 replay True, each a counterexample in its own right."""
    failures = []
    for sf, _ in m2c_corpus:
        if is_comorphism_of_sites(sf):
            pi = comorphism_to_morphism_comma(sf).projections["to_target"]
            pi = SiteFunctor(pi.F, pi.J, pi.K)
            v = morphisms._comorphism_localic_general(pi)
            if not v.holds:
                sieves = [morphisms._localic_sieve(pi, d) for d in pi.F.source.objects]
                failures.append((pi, v.witness, sieves))

    def no_check(sf):
        raise AssertionError("the replay re-ran the localic check")
    forbid(monkeypatch, ("_check_comorphism_localic", "_comorphism_localic_general"), no_check)

    def replays(sf, w, **fields):
        return recheck_witness(sf, Verdict(False, {**w, **fields}))

    moved = collections.Counter()
    for sf, w, sieves in failures:
        C, J = sf.F.source, sf.J
        assert w["sieve"] == sieves[w["object"]] and not J.is_covering(w["object"], w["sieve"])
        assert replays(sf, w)
        assert not replays(sf, w, object=C.n_objects)
        for f in C.arrows_into(w["object"]):
            assert not replays(sf, w, sieve=w["sieve"] ^ (1 << f))
        for d in C.objects:
            if d != w["object"]:
                counterexample = sieves[d] == w["sieve"] and not J.is_covering(d, w["sieve"])
                assert replays(sf, w, object=d) == counterexample
                moved[counterexample] += 1
    assert len(failures) == 47 and moved == {False: 11, True: 29}, (len(failures), moved)
    assert sum(sf.F.source.n_objects > 1 for sf, _, _ in failures) == 33


def test_morphism_of_sites_matches_reference_on_comma_sites(m2c_corpus):
    """`is_morphism_of_sites` gives the verdict and witness of the scan over
    every cone (`oracles.reference_morphism_of_sites`) on π_C, π_D and i_F
    of each m2c comma site.  The projections send several objects onto
    one, so pairs (c1, c2) share their pair of image objects and the spans
    laid out for it; among them are passes and clause (iii) failures of
    π_C.  i_F is injective on objects, so its pairs never share."""
    seen = collections.Counter()
    for sf, m2c in m2c_corpus:
        if m2c is None:
            continue
        for case in (*m2c.projections.values(), m2c.embedding):
            case = SiteFunctor(case.F, case.J, case.K)
            v = is_morphism_of_sites(case)
            assert v.witness == reference_morphism_of_sites(case)
            seen[v.witness.get("clause"), len(set(case.F.obj_map)) < case.F.source.n_objects] += 1
    assert seen[None, True] and seen["iii", True] and seen[None, False], seen


def test_local_verdicts_match_the_strict_scans(m2c_corpus):
    """J_faithful and J_full, verdict and witness, equal the scans of every
    parallel pair and of every arrow of a hom-set (`tests/oracles.py`), on
    the 300 site functors and on π_D and i_F of each m2c comma site."""
    seen = collections.Counter()
    for sf, m2c in m2c_corpus:
        for case in (sf,) if m2c is None else (sf, m2c.projections["to_target"], m2c.embedding):
            props = local_property_tests(case)
            assert list(props) == ["J_faithful", "J_full", "K_dense"]
            assert props["J_faithful"] == reference_j_faithful(case)
            assert props["J_full"] == reference_j_full(case)
            seen["J_faithful", props["J_faithful"].holds] += 1
            seen["J_full", props["J_full"].holds] += 1
    assert len(seen) == 4


def test_closed_families_match_the_scans_over_every_arrow(m2c_corpus, monkeypatch):
    """`closure_cJ` and `_induced_family` test each element at the
    generators of the least cover.  They give what the bodies over every
    arrow into an object give (`oracles.reference_closure_cJ` and
    `reference_induced_family`) on the comorphisms of the corpus, π_C of
    each m2c comma site and π_C out of each c2m comma site: on each closure
    and induced family that the closed-families check computes, and on the
    family that every sieve on each object induces."""
    seen = collections.Counter()

    def closure(A, J):
        got = closure_cJ(A, J)
        assert got.members == reference_closure_cJ(A, J)
        seen["closed", got.members == A.members] += 1
        return got

    def induced(F, J, c, s):
        got = _induced_family(F, J, c, s)
        assert got == reference_induced_family(F, J, c, s)
        seen["induced", all(map(len, got))] += 1
        return got
    monkeypatch.setattr(presheaf, "closure_cJ", closure)
    monkeypatch.setattr(morphisms, "_induced_family", induced)
    for sf, m2c in m2c_corpus:
        cases = [] if m2c is None else [m2c.projections["to_source"]]
        if is_comorphism_of_sites(sf):
            cases += [sf, comorphism_to_morphism_comma(sf).projections["to_target"]]
        for case in cases:
            case = SiteFunctor(case.F, case.J, case.K)
            seen["check", morphisms._check_closed_families(case).holds] += 1
            for c in case.F.target.objects:
                for s in all_sieve_masks(case.F.target, c):
                    induced(case.F, case.J, c, s)
    assert len(seen) == 6, seen
