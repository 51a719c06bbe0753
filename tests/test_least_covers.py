"""Checks quantified over covering sieves decide a pass at the least covers.

A topology's covers are the sieves that contain its least cover m_c, so a
sieve covers iff it holds each generator of m_c (L0); a test that grows
with the sieve holds on every cover iff it holds at m_c (L1); a presheaf is
a sheaf iff it is one for each m_c (L2); and every non-cover lies in one of
the sieves S_g = {h | g ∉ ⟨h⟩}, g a generator of m_c, none of which covers
(L3).  The checkers read only these on a pass and walk the covers or the
sieve lattice only on a failure, to name the first witness the walk finds.
These tests hold them to the walks they replace, kept in `oracles.py`, and
run them with every such walk patched to raise.  A topology defined by a
condition on sieves is built from its least covers too, with one call of
the condition per arrow and per object: the last tests hold
`topology_where` to the scan over every sieve it replaces.
"""

import collections
import functools
import itertools
import operator
import random

import pytest

import sitecalc.constructions as constructions
import sitecalc.factorizations as factorizations
import sitecalc.morphisms as morphisms
import sitecalc.presheaf as presheaf
import sitecalc.replay as replay
import sitecalc.topology as topology
from sitecalc.cli import parse
from sitecalc.constructions import (
    _covers_exactly,
    generalized_elements_fibration,
    generalized_elements_identities,
)
from sitecalc.factorizations import elements_topology, hyperconnected_localic_factorization
from sitecalc.fincat import comma, full_subcategory, identity_functor, poset_category
from sitecalc.morphisms import (
    SiteFunctor,
    is_comorphism_of_sites,
    is_cover_preserving,
    is_cover_reflecting,
    is_morphism_of_sites,
)
from sitecalc.presheaf import (
    _least_locally_equal,
    constant_presheaf,
    identity_morphism,
    is_sheaf,
    sheaf_comparison,
    sheafify,
    canonical_topology,
    sheafify_plus_plus,
    validate_presheaf,
)
from sitecalc.sieves import all_sieve_masks, bits, mask_of
from sitecalc.topology import (
    GrothendieckTopology,
    TopologyError,
    atomic_topology,
    coinduced_topology,
    fibration_topology,
    generate_topology,
    induced_topology,
    omitting_sieves,
    rigid_topology,
    topology_where,
    trivial_topology,
    validate_topology,
)

from cli_transcript import COSPAN_ATOMIC_SITE
from conftest import (
    RNG_SEED,
    make_two,
    random_category,
    random_fibration,
    random_presheaf,
    random_site_functors,
    random_topology,
)
from oracles import (
    reference_cover_preserving,
    reference_cover_reflecting,
    reference_covering_lifting,
    reference_elem_locally_equal,
    reference_is_sheaf,
    reference_sheaf_comparison,
    reference_topology_where,
)
from test_cli import chain_site
from test_presheaf import _components_or_message
from test_topology import chain_category, cyclic_category, diamond_category, vee_category


def _sites(n: int) -> list:
    """(category, J, P) for random presheaves over random topologies, every
    seventh on the trivial topology."""
    rng = random.Random(RNG_SEED)
    out = []
    for i in range(n):
        cat = random_category(rng)
        J = trivial_topology(cat) if i % 7 == 0 else random_topology(rng, cat)
        out.append((cat, J, random_presheaf(rng, cat)))
    return out


def test_generators_and_omitting_sieves_bound_the_covers():
    """L0 and L3 on every sieve of the random topologies: a sieve covers
    iff it holds each generator, the generators are irredundant and the
    trivial topology's are the identities; no S_g covers, each non-cover
    lies in one, and each S_g is listed once."""
    non_covers = 0
    for cat, J, _ in _sites(150):
        for c in cat.objects:
            gens = J.min_cover_generators[c]
            assert mask_of(gens) & ~J.min_cover[c] == 0
            assert all(g == h or not (cat.principal_sieves[h] >> g) & 1
                       for g in gens for h in gens)
            bounds = omitting_sieves(J, c)
            assert len(set(bounds)) == len(bounds)
            assert not any(J.is_covering(c, s) for s in bounds)
            for s in all_sieve_masks(cat, c):
                assert J.is_covering(c, s) == all((s >> g) & 1 for g in gens)
                if not J.is_covering(c, s):
                    non_covers += 1
                    assert any(s & ~bound == 0 for bound in bounds)
        assert trivial_topology(cat).min_cover_generators == tuple(
            (cat.identity[c],) for c in cat.objects)
    assert non_covers


def test_site_checks_match_the_reference_walks():
    """On the 300 random site functors, cover preservation, cover
    reflection and covering lifting give the verdicts and first witnesses
    of the walks over every cover or sieve, each verdict both ways; and a
    test that grows with the sieve matches the covers exactly
    (`_covers_exactly`) iff a scan of every sieve finds no difference."""
    seen = collections.Counter()
    for sf in random_site_functors(random.Random(RNG_SEED), 300):
        F, J, K = sf.F, sf.J, sf.K
        for name, check, reference in (
                ("preserving", is_cover_preserving, reference_cover_preserving),
                ("reflecting", is_cover_reflecting, reference_cover_reflecting),
                ("lifting", is_comorphism_of_sites, reference_covering_lifting)):
            verdict = check(SiteFunctor(F, J, K))
            assert verdict == reference(sf)
            seen[name, verdict.holds] += 1

        def image_covers(c, s):
            return K.covers_family(F.on_obj(c), mask_of(F.on_arr(f) for f in bits(s)))
        for c in F.source.objects:
            exact = all(J.is_covering(c, s) == image_covers(c, s)
                        for s in all_sieve_masks(F.source, c))
            assert _covers_exactly(J, c, image_covers) == exact
            seen["exact", exact] += 1
    assert len(seen) == 8, seen


def test_sheaf_checks_match_the_reference_walks():
    """On random presheaves over random topologies: `is_sheaf` on the
    presheaf, its sheafification and its plus-plus sheaf, the comparison
    of each pair of presentations and local equality of every pair of
    elements give what the walks over every cover or arrow give."""
    seen = collections.Counter()
    for cat, J, P in _sites(150):
        sh = sheafify(P, J)
        pp, eta = sheafify_plus_plus(P, J)
        for Q in (P, sh.sheaf, pp):
            verdict = is_sheaf(Q, J)
            assert verdict == reference_is_sheaf(Q, J)
            seen["sheaf", verdict[0]] += 1
        ident = identity_morphism(P)
        for presentations in ((pp, eta, sh.sheaf, sh.unit), (sh.sheaf, sh.unit, pp, eta),
                              (P, ident, sh.sheaf, sh.unit), (sh.sheaf, sh.unit, P, ident)):
            got = _components_or_message(sheaf_comparison, P, J, *presentations)
            assert got == _components_or_message(reference_sheaf_comparison, P, J,
                                                 *presentations)
            seen["comparison", isinstance(got, str)] += 1
        for c in cat.objects:
            least = _least_locally_equal(P, J, c)
            for x in range(P.sizes[c]):
                for y in range(P.sizes[c]):
                    equal = least[x] == least[y]
                    assert equal == reference_elem_locally_equal(P, J, c, x, y)
                    seen["local", equal] += 1
    assert len(seen) == 6, seen


def _vee_with_late_least_cover():
    """The vee with four legs i -> t, and J generated by the sieve of legs
    0 and 1: its covers on t are listed with the sieve of all four legs
    first and the least cover m_t third, so m_t is not the first cover the
    walk meets."""
    cat = poset_category(5, [(i, 4) for i in range(4)])
    t = 4
    J = generate_topology(cat, [(t, mask_of(f for f in cat.arrows_into(t) if cat.dom[f] < 2))])
    legs = mask_of(f for f in cat.arrows_into(t) if f != cat.identity[t])
    assert list(J.covers[t]) == [170, 426, 10, 42, 138]
    assert legs == 170 and J.min_cover[t] == 10
    return cat, J, t, legs


def _split_over(cat, J, t):
    """P with two elements over t and one elsewhere, which has two
    amalgamations of the family on each cover without id_t; and the
    identity into the topology that agrees with J off t and covers only
    the maximal sieve on t, which maps no such cover to a cover."""
    sizes = [2 if c == t else 1 for c in cat.objects]
    P = validate_presheaf(cat, sizes, [
        tuple(range(2)) if f == cat.identity[t] else (0,) * sizes[cat.cod[f]]
        for f in cat.arrows])
    K = generate_topology(cat, [(c, J.min_cover[c]) for c in cat.objects if c != t])
    assert K.min_cover[t] == mask_of(cat.arrows_into(t))
    return P, SiteFunctor(identity_functor(cat), J, K)


def test_first_failing_cover_need_not_be_the_least():
    """Where the walk meets a failing cover before m_t, `is_sheaf` and
    cover preservation name that cover, as the walks do."""
    cat, J, t, legs = _vee_with_late_least_cover()
    P, sf = _split_over(cat, J, t)
    verdict = is_sheaf(P, J)
    assert verdict == reference_is_sheaf(P, J)
    assert verdict[1]["object"] == t and verdict[1]["sieve"] == legs

    verdict = is_cover_preserving(sf)
    assert verdict == reference_cover_preserving(sf)
    assert verdict.witness == {"kind": "cover-preserving", "holds": False,
                               "object": t, "sieve": legs}


def test_cover_walks_follow_the_topology_not_its_construction():
    """On the two-leg vee with J generated by one leg, the three covers on
    t given in each of their six orders validate to one listing, and
    `is_sheaf` and cover preservation name one witness, the least cover
    (sieve 2), whatever the order."""
    cat = poset_category(3, [(0, 2), (1, 2)])
    t = 2
    generated = generate_topology(cat, [(t, mask_of(f for f in cat.arrows_into(t)
                                                    if cat.dom[f] == 0))])
    listings, sheaf_sieves, preserving_sieves = set(), set(), set()
    orders = list(itertools.permutations(generated.covers[t]))
    assert len(orders) == 6
    for order in orders:
        covers = list(generated.covers)
        covers[t] = order
        J = validate_topology(cat, covers)
        assert J == generated
        listings.add(tuple(J.covers[t]))
        P, sf = _split_over(cat, J, t)
        sheaf_sieves.add(is_sheaf(P, J)[1]["sieve"])
        preserving_sieves.add(is_cover_preserving(sf).witness["sieve"])
    assert len(listings) == 1
    assert sheaf_sieves == preserving_sieves == {2} == {generated.min_cover[t]}


def test_sheaf_comparison_validates_its_units():
    """A unit that is natural out of another presheaf, not out of P, is
    refused, where the comparison without that check returns an arrow:
    the identity of the swap presheaf Q, as a unit out of the constant
    presheaf with the same sets."""
    two = make_two()
    J = trivial_topology(two)
    P = constant_presheaf(two, 2)
    Q = validate_presheaf(two, (2, 2), ((0, 1), (0, 1), (1, 0)))
    unit = identity_morphism(Q)
    assert reference_sheaf_comparison(P, J, Q, unit, Q, unit).components == ((0, 1), (0, 1))
    with pytest.raises(ValueError, match="naturality fails at arrow 2, element 0"):
        sheaf_comparison(P, J, Q, unit, Q, unit)


# ---------------------------------------------------------------------------
# every walk patched to raise

class _Walked(Exception):
    pass


class _Unwalkable(frozenset):
    """A family of covers that cannot be walked."""

    def __iter__(self):
        raise _Walked("the covers were walked")


def _unwalkable(J: GrothendieckTopology) -> GrothendieckTopology:
    """J with covers that raise when walked.  A topology stores only its
    least covers and membership reads them, so no check asks the family."""
    out = GrothendieckTopology(J.cat, J.min_cover)
    out.__dict__["covers"] = tuple(_Unwalkable() for _ in J.min_cover)
    return out


def _enumerated(*args):
    raise _Walked("the sieves were enumerated")


def _patch_walks(monkeypatch):
    """Patch `all_sieve_masks` to raise wherever a check can reach it."""
    for module in (morphisms, presheaf, factorizations, replay, constructions, topology):
        monkeypatch.setattr(module, "all_sieve_masks", _enumerated, raising=False)


def _passes_or_walks(check, *args):
    """The check's result, or "walked" when it walked the covers or the
    sieves."""
    try:
        return check(*args)
    except _Walked:
        return "walked"


def test_passing_checks_read_only_the_least_covers(monkeypatch):
    """With the sieve lattice and the covers unwalkable, every passing
    check named in the lemmas still returns its verdict, and every failing
    one with a witness reaches the walk.  The corpora and the listings of
    their covers, which the references walk, are built first, as building
    either enumerates the sieves."""
    site_functors = random_site_functors(random.Random(RNG_SEED), 300)
    sites = [(cat, J, P, sheafify(P, J), sheafify_plus_plus(P, J)) for cat, J, P in _sites(60)]
    for J in [*(t for sf in site_functors for t in (sf.J, sf.K)), *(s[1] for s in sites)]:
        assert len(J.covers) == J.cat.n_objects
    _patch_walks(monkeypatch)
    seen = collections.Counter()
    for sf in site_functors:
        unwalkable = SiteFunctor(sf.F, _unwalkable(sf.J), _unwalkable(sf.K))
        for name, check, reference in (
                ("preserving", is_cover_preserving, reference_cover_preserving),
                ("reflecting", is_cover_reflecting, reference_cover_reflecting),
                ("lifting", is_comorphism_of_sites, reference_covering_lifting)):
            expected = reference(sf)
            got = _passes_or_walks(check, unwalkable)
            assert got == (expected if expected else "walked")
            seen[name, expected.holds] += 1
        preserving = reference_cover_preserving(sf).holds
        expected = is_morphism_of_sites(SiteFunctor(sf.F, sf.J, sf.K))
        assert _passes_or_walks(is_morphism_of_sites, unwalkable) == \
            (expected if preserving else "walked")
    assert len(seen) == 6, seen

    for cat, J, P, sh, (pp, eta) in sites:
        unwalkable = _unwalkable(J)
        for Q in (P, sh.sheaf, pp):
            expected = reference_is_sheaf(Q, J)
            assert _passes_or_walks(is_sheaf, Q, unwalkable) == \
                (expected if expected[0] else "walked")
            seen["sheaf", expected[0]] += 1
        assert sheaf_comparison(P, unwalkable, pp, eta, sh.sheaf, sh.unit).components \
            == sheaf_comparison(P, J, pp, eta, sh.sheaf, sh.unit).components
        for c in cat.objects:
            least = _least_locally_equal(P, unwalkable, c)
            assert all((least[x] == least[y]) == reference_elem_locally_equal(P, J, c, x, y)
                       for x in range(P.sizes[c]) for y in range(P.sizes[c]))
    assert seen["sheaf", True] and seen["sheaf", False], seen


def test_generalized_elements_identities_walk_no_sieves(monkeypatch):
    """The two identities that compare a topology with a test on sieves
    give the same answers with the sieve lattice and the covers of the
    input topology unwalkable."""
    rng = random.Random(RNG_SEED)
    cases = []
    for _ in range(3):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        sf = SiteFunctor(identity_functor(cat), J, J)
        site = generalized_elements_fibration(sf)
        cases.append((sf, site, generalized_elements_identities(sf, site)))
    monkeypatch.setattr(constructions, "all_sieve_masks", _enumerated, raising=False)
    for sf, site, expected in cases:
        unwalkable = SiteFunctor(sf.F, _unwalkable(sf.J), _unwalkable(sf.K))
        assert generalized_elements_identities(unwalkable, site) == expected
        assert all(expected.values()), expected


# ---------------------------------------------------------------------------
# predicate topologies from their least covers

def _raises(*args):
    raise AssertionError("the sieves were scanned")


def _predicate_topologies(rng):
    """(kind, category, condition) of every `topology_where` call made while
    building the induced, coinduced, atomic, rigid, fibration, canonical,
    elements and C^s_K topologies of random sites, of the named shapes and
    of the cospan whose atomic topology breaks stability twice."""
    calls, kind = [], None

    def recorded(cat, covers, _where=topology.topology_where):
        calls.append((kind, cat, covers))
        return _where(cat, covers)

    cospan = parse(COSPAN_ATOMIC_SITE.partition("topology")[0]).categories["C"].category
    cats = [random_category(rng) for _ in range(40)] + [
        vee_category(4), chain_category(4), cyclic_category(4), diamond_category(), cospan]
    site_functors = random_site_functors(rng, 150)
    builds = {
        "induced": [lambda sf=sf: induced_topology(sf.F, sf.K) for sf in site_functors],
        "coinduced": [lambda sf=sf: coinduced_topology(sf.F, sf.J) for sf in site_functors],
        "atomic": [lambda cat=cat: atomic_topology(cat) for cat in cats],
        "rigid": [lambda cat=cat, objs=objs: rigid_topology(full_subcategory(cat, objs)[1])
                  for cat in cats[:20] for objs in ([0], list(cat.objects)[1:])],
        "fibration": [lambda p=p: fibration_topology(p, random_topology(rng, p.target))
                      for p in (random_fibration(rng) for _ in range(20))],
        "canonical": [lambda cat=cat: canonical_topology(cat) for cat in cats],
        "elements": [lambda cat=cat: elements_topology(random_presheaf(rng, cat),
                                                       random_topology(rng, cat))
                     for cat in cats[:20]],
        "C^s_K": [lambda sf=sf: hyperconnected_localic_factorization(sf)
                  for sf in site_functors[:40] if is_morphism_of_sites(sf)][:8],
    }
    with pytest.MonkeyPatch.context() as mp:
        for module in (topology, factorizations, presheaf):
            mp.setattr(module, "topology_where", recorded)
        for kind, thunks in builds.items():
            for build in thunks:
                try:
                    build()
                except TopologyError:
                    pass
    return calls


def test_predicate_topologies_equal_the_reference_scan(monkeypatch):
    """Every topology built from a condition on sieves has the covers of
    the scan over every sieve, or raises its violations in its order, the
    cospan's two stability failures among them.  With the sieve
    enumeration and the axiom scan patched to raise, each passing one is
    still built, with the intersection of the reference covers as its
    least covers."""
    calls = _predicate_topologies(random.Random(RNG_SEED))
    expected = []
    for _, cat, covers in calls:
        try:
            expected.append(reference_topology_where(cat, covers))
        except TopologyError as exc:
            expected.append(exc.violations)
    with monkeypatch.context() as mp:
        mp.setattr(topology, "all_sieve_masks", _raises)
        mp.setattr(topology, "_axiom_violations", _raises)
        built = [topology_where(cat, covers) if isinstance(want, tuple) else None
                 for (_, cat, covers), want in zip(calls, expected)]
    seen = collections.Counter()
    for (kind, cat, covers), want, J in zip(calls, expected, built):
        if J is None:
            with pytest.raises(TopologyError) as exc:
                topology_where(cat, covers)
            assert exc.value.violations == want, kind
        else:
            assert J.covers == want, kind
            assert J.min_cover == tuple(functools.reduce(operator.and_, fam) for fam in want)
        seen[kind, J is not None] += 1
    assert {kind for kind, _ in seen} == {"induced", "coinduced", "atomic", "rigid", "fibration",
                                          "canonical", "elements", "C^s_K"}, seen
    assert seen["induced", False] and seen["atomic", False], seen
    cospan = parse(COSPAN_ATOMIC_SITE.partition("topology")[0]).categories["C"].category
    assert {tuple(v["sieve"] for v in want) for (kind, cat, _), want in zip(calls, expected)
            if kind == "atomic" and cat == cospan} == {(1 << 3, 1 << 1)}


def test_a_passing_condition_is_asked_once_per_arrow_and_object(monkeypatch):
    """The induced topology of the m2c comma of the 12-chain, (1 ↓ Id) with
    the trivial topology lifted along its left projection, calls its
    condition at most once per arrow and once per object."""
    doc = parse(chain_site(12))
    F, K = doc.functors["Id"].functor, doc.topologies["J"].topology
    projection = comma(identity_functor(F.target), F).left_projection
    calls = 0

    def counted(cat, covers, _where=topology.topology_where):
        def condition(c, s):
            nonlocal calls
            calls += 1
            return covers(c, s)
        return _where(cat, condition)

    monkeypatch.setattr(topology, "topology_where", counted)
    induced_topology(projection, K)
    cat = projection.source
    assert cat.n_objects == 78 and 0 < calls <= cat.n_arrows + cat.n_objects
