import pytest

from sitecalc.constructions import (
    _check_adjunction,
    comorphism_to_morphism_comma,
    generalized_elements_fibration,
    generalized_elements_identities,
    morphism_to_comorphism,
)
from sitecalc.fincat import (
    FinFunctor,
    SizeGuardError,
    comma,
    identity_functor,
    monoid_category,
    validate_category,
)
from sitecalc.morphisms import SiteFunctor, is_comorphism_of_sites, is_morphism_of_sites
from sitecalc.topology import (
    atomic_topology,
    coinduced_topology,
    fibration_topology,
    smallest_comorphism_topology,
    trivial_topology,
)

from conftest import (
    all_functors,
    idempotent_monoid_category,
    make_collapse_functor,
    random_category,
    random_fibration,
    random_topology,
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
    inversion = FinFunctor(Z3, Z3, (0,), (0, 2, 1))
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
    F = FinFunctor(discrete, Z16, (0,) * n, (0,) * n)
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
