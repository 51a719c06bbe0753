import collections
import dataclasses
import random

import pytest

import sitecalc.topology as topology
from sitecalc.factorizations import elements_topology
from sitecalc.fincat import (
    FinCategory,
    full_subcategory,
    identity_functor,
    monoid_category,
    poset_category,
    terminal_category,
    validate_category,
    validate_functor,
)
from sitecalc.presheaf import canonical_topology, is_sheaf, is_subcanonical, yoneda
from sitecalc.sieves import (
    all_sieve_masks,
    bits,
    generate_mask,
    is_sieve_mask,
    mask_of,
    maximal_sieve_mask,
    preimage_mask,
    pullback_mask,
)
from sitecalc.topology import (
    GrothendieckTopology,
    TopologyError,
    _axiom_violations,
    atomic_topology,
    closure_mask,
    coinduced_topology,
    fibration_topology,
    generate_topology,
    induced_topology,
    join_topologies,
    local_equality,
    rigid_topology,
    smallest_comorphism_topology,
    topology_where,
    trivial_topology,
    validate_topology,
)
from sitecalc.morphisms import SiteFunctor, is_comorphism_of_sites, is_dense_morphism

from conftest import (
    count_computes,
    idempotent_monoid_category,
    indiscrete_category,
    make_collapse_functor,
    make_two,
    product_category,
    random_category,
    random_fibration,
    random_presheaf,
    random_topology,
    z2_category,
)
from oracles import (
    brute_force_axiom_violations,
    enumerate_topologies,
    reference_axiom_violations,
    reference_closure_mask,
    reference_fixpoint_topology,
    reference_local_equality,
)


def atomic_on_two(two):
    return atomic_topology(two)


def test_validate_trivial_family(rng):
    for _ in range(10):
        cat = random_category(rng)
        top = validate_topology(cat, [{maximal_sieve_mask(cat, c)} for c in cat.objects])
        assert top.covers == trivial_topology(cat).covers


def test_validate_atomic_on_two(two):
    J = validate_topology(two, [{1 << 0}, {1 << 2, 0b110}])
    assert J.covers == atomic_topology(two).covers


def test_stability_violation_witnessed(two):
    # removing the pullback of {u} along u (the maximal sieve on 0) breaks
    # stability at exactly (S = {u}, f = u), and maximality at 0 with it
    with pytest.raises(TopologyError) as exc:
        validate_topology(two, [set(), {1 << 2, 0b110}])
    stability = [v for v in exc.value.violations if v["axiom"] == "stability"]
    assert any(v["sieve"] == 1 << 2 and v["arrow"] == 2 for v in stability)
    assert any(v["axiom"] == "maximality" and v["object"] == 0
               for v in exc.value.violations)


def _violations_without_derived_pullbacks(monkeypatch, cat, covers):
    """`_axiom_violations(cat, covers)`, with the `pullback_mask` of the
    topology module failing when asked along an identity, or along a
    member of the sieve whose domain has its maximal sieve covering: the
    pullback there is the sieve itself or that maximal sieve."""
    def guarded(category, mask, f):
        d = cat.dom[f]
        assert not cat.is_identity(f), (mask, f)
        assert not ((mask >> f) & 1 and cat.maximal_sieves[d] in covers[d]), (mask, f)
        return pullback_mask(category, mask, f)
    with monkeypatch.context() as patched:
        patched.setattr(topology, "pullback_mask", guarded)
        return _axiom_violations(cat, covers)


def _assert_violations_match_reference(monkeypatch, cat, covers, kinds):
    """The violations of `validate_topology` equal, in order, those of the
    validation body before it skipped members and identities, and those
    of the scan that pulls back along every arrow; validation asks for no
    pullback that a sieve gives.  The axioms seen are added to kinds, and
    "member skipped" when a cover has a member off the identities whose
    domain has its maximal sieve covering."""
    covers = tuple(frozenset(f) for f in covers)
    expected = reference_axiom_violations(cat, covers)
    assert brute_force_axiom_violations(cat, covers) == expected
    assert _violations_without_derived_pullbacks(monkeypatch, cat, covers) == expected
    if expected:
        with pytest.raises(TopologyError) as exc:
            validate_topology(cat, covers)
        assert exc.value.violations == expected
    kinds.update(v["axiom"] for v in expected)
    if any((s >> f) & 1 and cat.maximal_sieves[cat.dom[f]] in covers[cat.dom[f]]
           for c in cat.objects for s in covers[c] for f in cat.arrows_into(c)
           if not cat.is_identity(f)):
        kinds["member skipped"] += 1


def _perturbations(rng, cat, covers):
    """The covers, then the covers with one of them dropped at a random
    object, then with one non-covering sieve added there, then without the
    maximal sieve there."""
    out = [covers]
    c = rng.randrange(cat.n_objects)
    dropped = list(covers)
    dropped[c] = covers[c] - {rng.choice(sorted(covers[c]))}
    out.append(dropped)
    rest = [s for s in all_sieve_masks(cat, c) if s not in covers[c]]
    if rest:
        added = list(covers)
        added[c] = covers[c] | {rng.choice(rest)}
        out.append(added)
    no_maximal = list(covers)
    no_maximal[c] = covers[c] - {cat.maximal_sieves[c]}
    out.append(no_maximal)
    return out


def _arbitrary_family(rng, cat):
    """Each sieve on each object, kept with a probability drawn per object."""
    families = []
    for c in cat.objects:
        p = rng.random()
        families.append({s for s in all_sieve_masks(cat, c) if rng.random() < p})
    return families


def test_axiom_violations_match_reference_on_random_sites(monkeypatch):
    """Random conftest categories carrying a random topology and its
    one-sieve perturbations, and carrying arbitrary sieve families."""
    rng = random.Random(17)
    kinds = collections.Counter()
    for _ in range(300):
        cat = random_category(rng)
        for covers in _perturbations(rng, cat, random_topology(rng, cat).covers):
            _assert_violations_match_reference(monkeypatch, cat, covers, kinds)
        for _ in range(3):
            _assert_violations_match_reference(monkeypatch, cat, _arbitrary_family(rng, cat),
                                               kinds)
    assert set(kinds) == {"maximality", "stability", "transitivity", "member skipped"}


def test_axiom_violations_match_reference_on_named_shapes(monkeypatch):
    """Vees with 3 to 8 legs carrying the topology generated by their first
    j legs, for each j; chains 3–5, Z4 and the indiscrete category on 3
    objects carrying random generated topologies; each also with its
    one-sieve perturbations and with arbitrary sieve families."""
    rng = random.Random(19)
    kinds = collections.Counter()
    sites = []
    for k in range(3, 9):
        cat = vee_category(k)
        for j in range(1, k + 1):
            legs = mask_of(f for f in cat.arrows_into(k) if cat.dom[f] < j)
            sites.append((cat, generate_topology(cat, [(k, legs)]).covers))
    for cat in [chain_category(n) for n in (3, 4, 5)] + [cyclic_category(4), indiscrete_category(3)]:
        for _ in range(10):
            sites.append((cat, generate_topology(cat, _random_base(rng, cat)).covers))
    for cat, covers in sites:
        for family in _perturbations(rng, cat, covers) + [_arbitrary_family(rng, cat)]:
            _assert_violations_match_reference(monkeypatch, cat, family, kinds)
    assert set(kinds) == {"maximality", "stability", "transitivity", "member skipped"}


def test_generate_empty_base_is_trivial(rng):
    for _ in range(10):
        cat = random_category(rng)
        assert generate_topology(cat, []).covers == trivial_topology(cat).covers


def test_generate_u_gives_atomic(two):
    assert generate_topology(two, [(1, 1 << 2)]).covers == atomic_topology(two).covers


def test_generate_idempotent(rng):
    for _ in range(15):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        again = generate_topology(cat, [(c, s) for c in cat.objects for s in J.covers[c]])
        assert again.covers == J.covers


def test_generate_is_least_named_instances():
    """Minimality against full enumeration, on categories small enough to
    enumerate every topology."""
    for cat in (make_two(), poset_category(3, [(0, 1), (1, 2)]), terminal_category()):
        all_tops = enumerate_topologies(cat)
        rng = random.Random(5)
        for _ in range(6):
            base = []
            for _ in range(rng.randrange(2)):
                c = rng.randrange(cat.n_objects)
                base.append((c, generate_mask(
                    cat, mask_of(f for f in cat.arrows_into(c) if rng.random() < 0.5))))
            J = generate_topology(cat, base)
            validate_topology(cat, J.covers)
            containing = [t for t in all_tops
                          if all(s in t.covers[c] for (c, s) in base)]
            assert all(J <= t for t in containing)
            assert J.covers in [t.covers for t in containing]


def reference_generate_topology(cat, base):
    """Least topology whose covers include the base pairs, by saturating
    explicit covers under maximality, pullback stability and transitivity
    until nothing changes."""
    covers = [{maximal_sieve_mask(cat, c)} for c in cat.objects]
    for c, mask in base:
        covers[c].add(mask)
    sieves = [all_sieve_masks(cat, c) for c in cat.objects]
    changed = True
    while changed:
        changed = False
        for c in cat.objects:
            for s in list(covers[c]):
                for f in cat.arrows_into(c):
                    pb = pullback_mask(cat, s, f)
                    if pb not in covers[cat.dom[f]]:
                        covers[cat.dom[f]].add(pb)
                        changed = True
        for c in cat.objects:
            for s in sieves[c]:
                if s in covers[c]:
                    continue
                for t in covers[c]:
                    if all(pullback_mask(cat, s, f) in covers[cat.dom[f]] for f in bits(t)):
                        covers[c].add(s)
                        changed = True
                        break
    return tuple(frozenset(x) for x in covers)


def chain_category(n):
    return poset_category(n, [(i, i + 1) for i in range(n - 1)])


def vee_category(k):
    """k legs i -> k into a common top."""
    return poset_category(k + 1, [(i, k) for i in range(k)])


def cyclic_category(n):
    return monoid_category([[(i + j) % n for j in range(n)] for i in range(n)], 0)


GENERATION_SHAPES = {
    **{f"chain{n}": (lambda n=n: (chain_category(n), None)) for n in (3, 4, 5)},
    **{f"vee{k}": (lambda k=k: (vee_category(k), None)) for k in range(3, 9)},
    "chain2xindiscrete2": lambda: product_category(chain_category(2), indiscrete_category(2)),
    "chain3xindiscrete2": lambda: product_category(chain_category(3), indiscrete_category(2)),
    "Z4": lambda: (cyclic_category(4), None),
    "Z6": lambda: (cyclic_category(6), None),
    "indiscrete3": lambda: (indiscrete_category(3), None),
    "idempotent": lambda: (idempotent_monoid_category(), None),
}


def _random_sieve(rng, cat, c):
    return generate_mask(cat, mask_of(f for f in cat.arrows_into(c) if rng.random() < 0.4))


def _random_base(rng, cat, n_max=3):
    base = []
    for _ in range(rng.randrange(n_max + 1)):
        c = rng.randrange(cat.n_objects)
        base.append((c, _random_sieve(rng, cat, c)))
    return base


def _assert_generation_matches_reference(rng, cat, functors):
    """generate_topology, join_topologies and smallest_comorphism_topology
    against the reference saturation, on random bases over cat and on
    random topologies pulled back along each functor into cat."""
    base1, base2 = _random_base(rng, cat), _random_base(rng, cat)
    J1, J2 = generate_topology(cat, base1), generate_topology(cat, base2)
    assert J1.covers == reference_generate_topology(cat, base1)
    assert J2.covers == reference_generate_topology(cat, base2)
    assert join_topologies(J1, J2).covers == reference_generate_topology(
        cat, [(c, s) for c in cat.objects for s in J1.covers[c] | J2.covers[c]])
    for A in functors:
        K = generate_topology(A.target, _random_base(rng, A.target))
        assert smallest_comorphism_topology(A, K).covers == reference_generate_topology(
            A.source, [(c, preimage_mask(A, r, c))
                       for c in A.source.objects for r in K.covers[A.on_obj(c)]])


def test_generation_matches_reference_on_named_shapes():
    """Every named shape with its identity functor, and each product also
    with its projection onto the first factor."""
    rng = random.Random(13)
    for make in GENERATION_SHAPES.values():
        cat, projection = make()
        functors = [identity_functor(cat)] + ([projection] if projection else [])
        for _ in range(10):
            _assert_generation_matches_reference(rng, cat, functors)


def test_generation_matches_reference_on_random_sites():
    """Random conftest categories with their identity functors, and random
    fibrations with their projections."""
    rng = random.Random(11)
    for _ in range(300):
        cat = random_category(rng)
        _assert_generation_matches_reference(rng, cat, [identity_functor(cat)])
        p = random_fibration(rng)
        _assert_generation_matches_reference(rng, p.source, [p])


def test_generation_skips_the_members_of_the_least_covers(monkeypatch):
    """The fixpoint of `generate_topology` pulls m_c back along no member
    of m_c as it stands at the call, which an endomorphism can shrink in
    mid-pass, and builds the topology of the fixpoint that pulls back along
    every arrow (`oracles.reference_fixpoint_topology`).  On every named
    shape and on 300 random conftest categories, with random bases; the
    corpus holds members that the reference pulls back along."""
    rng = random.Random(29)
    calls = []
    made = skipped = 0

    def recording(cat, mask, f):
        calls.append((mask, f))
        return pullback_mask(cat, mask, f)

    def stop_recording(cat, covers):
        monkeypatch.setattr(topology, "pullback_mask", pullback_mask)
        return topology_where(cat, covers)
    monkeypatch.setattr(topology, "topology_where", stop_recording)
    cats = [make()[0] for make in GENERATION_SHAPES.values()]
    cats += [random_category(rng) for _ in range(300)]
    for cat in cats:
        for _ in range(3):
            base = _random_base(rng, cat)
            calls.clear()
            monkeypatch.setattr(topology, "pullback_mask", recording)
            J = generate_topology(cat, base)
            assert not any((mask >> f) & 1 for mask, f in calls)
            assert J == reference_fixpoint_topology(cat, base)
            made += len(calls)
            skipped += any(J.min_cover[c] != 0 for c in cat.objects)
    assert made and skipped


def test_trivial_on_terminal():
    one = terminal_category()
    assert trivial_topology(one).covers == (frozenset({1}),)


def test_atomic_undefined_raises():
    # two parallel arrows with no common refinement: discrete 2 + formal cone?
    # the simplest failure: a category where two nonempty sieves pull back to
    # the empty sieve -- the discrete category with 2 objects has only maximal
    # nonempty sieves, so use the cospan 0 -> 2 <- 1: {left leg} pulled back
    # along the right leg is empty.
    cospan = poset_category(3, [(0, 2), (1, 2)])
    with pytest.raises(TopologyError):
        atomic_topology(cospan)


def test_rigid_topology_on_two(two):
    one = terminal_category()
    inc = validate_functor(one, two, (0,), (0,))
    R = rigid_topology(inc)
    # covers(1): every sieve containing u; covers(0): sieves containing id0
    assert R.covers[1] == frozenset({1 << 2, 0b110})
    assert R.covers[0] == frozenset({1})


# ---------------------------------------------------------------------------
# canonical topology: a bespoke cocone search as the reference, independent
# of the sheaf condition of `presheaf`

def _is_effective_epi(cat, c, mask):
    """Hom(c, e) -> {compatible cocones under the sieve's diagram} bijective
    for every e."""
    members = list(bits(mask))
    for e in cat.objects:
        homs = cat.hom(c, e)
        seen = set()
        for h in homs:
            key = tuple(cat.compose(h, f) for f in members)
            if key in seen:
                return False  # restriction not injective
            seen.add(key)
        # cocones under the diagram of the sieve = matching families of
        # arrows; injectivity plus equal counts gives bijectivity
        if _count_arrow_cocones(cat, c, members, e) != len(homs):
            return False
    return True


def _count_arrow_cocones(cat, c, members, e):
    """Number of families (u_f: dom f -> e)_{f in S} with u_{f∘z} = u_f∘z."""

    def extend(i, assign):
        if i == len(members):
            return 1
        f = members[i]
        forced = None
        # u_f may be forced by an earlier assignment via f = g∘z
        for g, ug in assign.items():
            for z in cat.arrows_into(cat.dom[g]):
                if cat.compose(g, z) == f:
                    val = cat.compose(ug, z)
                    if forced is not None and forced != val:
                        return 0
                    forced = val
        candidates = [forced] if forced is not None else cat.hom(cat.dom[f], e)
        total = 0
        for u in candidates:
            ok = all(cat.compose(u, z) == u
                     for z in cat.arrows_into(cat.dom[f])
                     if cat.compose(f, z) == f)
            for g, ug in assign.items():
                if not ok:
                    break
                for z in cat.arrows_into(cat.dom[f]):
                    if cat.compose(f, z) == g and cat.compose(u, z) != ug:
                        ok = False
                        break
                if not ok:
                    break
                for z in cat.arrows_into(cat.dom[f]):
                    for w in cat.arrows_into(cat.dom[g]):
                        if cat.dom[z] == cat.dom[w] and cat.compose(f, z) == cat.compose(g, w):
                            if cat.compose(u, z) != cat.compose(ug, w):
                                ok = False
                                break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                assign[f] = u
                total += extend(i + 1, assign)
                del assign[f]
        return total

    return extend(0, {})


def reference_canonical_topology(cat):
    """Covering sieves are the universally effective-epimorphic ones, by
    counting arrow cocones."""
    return topology_where(cat, lambda c, s: all(
        _is_effective_epi(cat, cat.dom[f], pullback_mask(cat, s, f))
        for f in cat.arrows_into(c)))


def z4_category():
    return cyclic_category(4)


def diamond_category():
    """0 < 1, 0 < 2, 1 < 3, 2 < 3: 3 = 1 ∨ 2 and 0 = 1 ∧ 2."""
    return poset_category(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


NAMED_CATEGORIES = {
    "terminal": terminal_category,
    "two": make_two,
    "diamond": diamond_category,
    "Z2": z2_category,
    "Z4": z4_category,
    "idempotent": idempotent_monoid_category,
    "indiscrete3": lambda: indiscrete_category(3),
}


@pytest.mark.parametrize("name", NAMED_CATEGORIES)
def test_canonical_matches_reference_on_named_categories(name):
    cat = NAMED_CATEGORIES[name]()
    assert canonical_topology(cat).covers == reference_canonical_topology(cat).covers


def test_canonical_matches_reference_on_random_categories():
    rng = random.Random(11)
    for _ in range(300):
        cat = random_category(rng)
        assert canonical_topology(cat).covers == reference_canonical_topology(cat).covers


def atomic_or_trivial(cat):
    try:
        return atomic_topology(cat)
    except TopologyError:
        return trivial_topology(cat)


def test_subcanonical_matches_reference():
    """`is_subcanonical` asks whether the representables are sheaves; the
    reference compares with the canonical topology built by cocone counts."""
    rng = random.Random(12)
    verdicts = collections.Counter()
    for _ in range(300):
        cat = random_category(rng)
        canonical = reference_canonical_topology(cat)
        for J in (random_topology(rng, cat), atomic_or_trivial(cat)):
            verdict = is_subcanonical(J)
            assert verdict == (J <= canonical)
            verdicts[verdict] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_canonical_on_terminal():
    # the unique object is initial, so the empty sieve is universally
    # effective-epimorphic and belongs to the canonical topology
    one = terminal_category()
    assert canonical_topology(one).covers == (frozenset({0, 1}),)


def test_canonical_join_covers_on_poset():
    """In a poset with binary joins, the sieve generated by a pair covering
    the join is canonical-covering."""
    cat = diamond_category()
    J = canonical_topology(cat)
    legs = mask_of(f for f in cat.arrows_into(3)
                   if cat.dom[f] in (1, 2))
    assert J.is_covering(3, generate_mask(cat, legs))


def test_canonical_is_subcanonical_sheaf_oracle(rng):
    """All representables are sheaves for the computed canonical topology,
    which is the one built by cocone counts."""
    for _ in range(8):
        cat = random_category(rng)
        J = canonical_topology(cat)
        assert J.covers == reference_canonical_topology(cat).covers
        for c in cat.objects:
            ok, _ = is_sheaf(yoneda(cat, c), J)
            assert ok


def test_induced_examples(two):
    J = atomic_topology(two)
    assert induced_topology(identity_functor(two), J).covers == J.covers
    F = make_collapse_functor(two)
    assert induced_topology(F, J).covers == J.covers  # F is cover-reflecting here


def test_coinduced_identity(rng):
    for _ in range(10):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        assert coinduced_topology(identity_functor(cat), J).covers == J.covers


def test_coinduced_vacuous_object():
    # target object with no arrows from the image: every sieve covers it
    one = terminal_category()
    cospan = poset_category(2, [])
    inc = validate_functor(one, cospan, (0,), (cospan.identity[0],))
    J = coinduced_topology(inc, trivial_topology(one))
    assert J.covers[1] == frozenset(all_sieve_masks(cospan, 1))


def test_coinduced_certificate(rng):
    """The coinduced topology makes F dense with the covering-lifting
    property (its defining certificate)."""
    for _ in range(12):
        cat = random_category(rng)
        tgt = random_category(rng)
        functors = []
        for c in tgt.objects:
            # constant functors always exist
            functors.append(validate_functor(
                cat, tgt, (c,) * cat.n_objects,
                tuple(tgt.identity[c] for _ in cat.arrows)))
        F = rng.choice(functors)
        J = random_topology(rng, cat)
        JF = coinduced_topology(F, J)
        sf = SiteFunctor(F, J, JF)
        assert is_comorphism_of_sites(sf).holds
        # J^F-density of F
        for d in tgt.objects:
            base = mask_of(u for u in tgt.arrows_into(d)
                           if tgt.dom[u] in F.image_objects)
            assert JF.covers_family(d, base)


def test_smallest_comorphism_identity(rng):
    for _ in range(10):
        cat = random_category(rng)
        K = random_topology(rng, cat)
        assert smallest_comorphism_topology(identity_functor(cat), K).covers == K.covers


def test_smallest_comorphism_trivial(rng):
    for _ in range(10):
        p = random_fibration(rng)
        K = trivial_topology(p.target)
        M = smallest_comorphism_topology(p, K)
        assert M.covers == trivial_topology(p.source).covers


def test_fibration_topology_oracle(rng):
    """Flagship: the direct cartesian characterization equals the generated
    smallest comorphism topology."""
    for _ in range(25):
        p = random_fibration(rng)
        K = random_topology(rng, p.target)
        assert fibration_topology(p, K).covers == smallest_comorphism_topology(p, K).covers


def test_fibration_topology_rejects_non_fibration(two):
    F = make_collapse_functor(two)
    with pytest.raises(ValueError):
        fibration_topology(F, atomic_topology(two))


def test_elements_topology(rng):
    for _ in range(10):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat)
        el, JP = elements_topology(P, J)
        other = fibration_topology(el.projection, J)
        assert JP.covers == other.covers


def test_elements_topology_terminal_is_copy(rng):
    from sitecalc.presheaf import constant_presheaf
    for _ in range(6):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        el, JP = elements_topology(constant_presheaf(cat, 1), J)
        # ∫1 ≅ C: same number of covers per corresponding object
        for i, (c, _) in enumerate(el.objects):
            assert len(JP.covers[i]) == len(J.covers[c])


def test_local_equality(two):
    J = atomic_topology(two)
    assert local_equality(J, 2, 2)
    with pytest.raises(ValueError):
        local_equality(J, 0, 2)


def _arrows_equal_on_one_leg():
    """Legs u: 0 -> 2 and v: 1 -> 2 and two arrows h, k: 2 -> 3 with
    h∘u = k∘u and h∘v ≠ k∘v, as arrows 4, 5, 6 and 7."""
    arrows = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (1, 2), (2, 3), (2, 3), (0, 3), (1, 3),
              (1, 3)]
    identities = [0, 1, 2, 3]
    comp = {}
    for f, (a, b) in enumerate(arrows):
        comp[(identities[b], f)] = comp[(f, identities[a])] = f
    comp[(6, 4)] = comp[(7, 4)] = 8
    comp[(6, 5)], comp[(7, 5)] = 9, 10
    return validate_category(4, arrows, identities, comp)


class _CountedRow(tuple):
    """A composition row that counts how often it is hashed."""
    hashed = 0

    def __hash__(self):
        _CountedRow.hashed += 1
        return tuple.__hash__(self)


def test_hashes_are_taken_once_per_instance(monkeypatch, rng):
    """A category's hash reads each composition row once per instance, and
    a topology's hash reads its category's once; a category or topology
    equal to it but built apart still hashes equal.  On 20 random conftest
    sites."""
    category_hashes = []
    real = FinCategory.__hash__
    monkeypatch.setattr(FinCategory, "__hash__",
                        lambda cat: category_hashes.append(cat) or real(cat))
    for _ in range(20):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        counted = dataclasses.replace(cat, composites=tuple(map(_CountedRow, cat.composites)))
        _CountedRow.hashed = 0
        first = hash(counted)
        assert _CountedRow.hashed == len(cat.composites)
        assert hash(counted) == first and _CountedRow.hashed == len(cat.composites)
        assert counted == cat and counted is not cat and hash(cat) == first

        twin = dataclasses.replace(J, cat=counted)
        category_hashes.clear()
        first = hash(twin)
        assert category_hashes == [counted]
        assert hash(twin) == first and category_hashes == [counted]
        assert twin == J and twin is not J and hash(J) == first


def test_local_equality_is_memoised_per_instance(monkeypatch, two):
    """Local equality compares the per-arrow keys of the topology, built
    once per topology instance; an equal topology built separately builds
    its own, and a non-parallel pair raises on every call without building
    them.  On every parallel pair it equals the agreement-sieve scan of
    `oracles.reference_local_equality`, both ways, and each non-parallel
    pair raises there too: on 200 random conftest sites, and on arrows
    that agree on one of two generators of a least cover
    (`_arrows_equal_on_one_leg`), covered by both legs or by one."""
    built = collections.Counter()
    keys = GrothendieckTopology.__dict__["arrow_keys"]
    build = keys.func

    def counting(J):
        built[id(J)] += 1
        return build(J)
    monkeypatch.setattr(keys, "func", counting)
    J = atomic_topology(two)
    for _ in range(2):
        with pytest.raises(ValueError, match="parallel"):
            local_equality(J, 0, 2)
    assert not built
    for _ in range(3):
        assert local_equality(J, 2, 2) is True
    assert built == {id(J): 1}
    twin = atomic_topology(two)
    assert twin == J and twin is not J
    assert local_equality(twin, 2, 2) is True
    assert built == {id(J): 1, id(twin): 1}

    rng = random.Random(23)
    sites = []
    for _ in range(200):
        cat = random_category(rng)
        sites.append(random_topology(rng, cat))
    legs = _arrows_equal_on_one_leg()
    sites += [generate_topology(legs, [(2, mask)]) for mask in (0b110000, 0b10000)]
    assert [local_equality(J, 6, 7) for J in sites[-2:]] == [False, True]
    outcomes = collections.Counter()
    for J in sites:
        cat = J.cat
        for h in cat.arrows:
            for k in cat.arrows:
                if (cat.dom[h], cat.cod[h]) == (cat.dom[k], cat.cod[k]):
                    equal = local_equality(J, h, k)
                    assert equal == reference_local_equality(J, h, k)
                    outcomes[h == k, equal] += 1
                else:
                    for decide in (local_equality, reference_local_equality):
                        with pytest.raises(ValueError, match="parallel"):
                            decide(J, h, k)
    assert set(outcomes) == {(True, True), (False, True), (False, False)}


def test_induced_topology_is_memoised_per_functor_and_topology_value(monkeypatch, two):
    """J_F is built once per functor instance and value of K: an equal but
    distinct K finds it, an equal functor built separately shares nothing,
    and a TopologyError keeps nothing, so each call decides afresh."""
    import sitecalc.topology as topology
    counts = count_computes(monkeypatch, topology)
    one = terminal_category()
    const = validate_functor(two, one, (0, 0), (0, 0, 0))
    K, K2 = trivial_topology(one), trivial_topology(one)
    assert K2 == K and K2 is not K
    J = induced_topology(const, K)
    assert induced_topology(const, K2) is J
    assert counts == {(id(const), ("induced_topology", K)): 1}
    twin = validate_functor(two, one, (0, 0), (0, 0, 0))
    assert twin == const and induced_topology(twin, K) is not J
    assert induced_topology(twin, K) == J
    assert counts[id(twin), ("induced_topology", K)] == 1
    cospan = poset_category(3, [(0, 2), (1, 2)])
    const2 = validate_functor(cospan, one, (0, 0, 0), (0,) * cospan.n_arrows)
    for _ in range(2):
        with pytest.raises(TopologyError):
            induced_topology(const2, K)
    assert counts[id(const2), ("induced_topology", K)] == 2
    assert ("induced_topology", K) not in const2.__dict__


def test_topology_where_validates(rng, two):
    """The condition s == maximal gives the trivial topology; a condition
    that breaks an axiom raises TopologyError instead of being stored."""
    for _ in range(6):
        cat = random_category(rng)
        top = topology_where(cat, lambda c, s: s == maximal_sieve_mask(cat, c))
        assert top.covers == trivial_topology(cat).covers
    # not upward closed on object 1: the empty sieve covers, {u} does not
    with pytest.raises(TopologyError) as exc:
        topology_where(two, lambda c, s: s in (0, maximal_sieve_mask(two, c)))
    assert {v["axiom"] for v in exc.value.violations} == {"transitivity"}


def test_closure_of_covering_is_maximal(rng):
    for _ in range(15):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        for c in cat.objects:
            for s in J.covers[c]:
                closed = closure_mask(J, c, s)
                assert closed == maximal_sieve_mask(cat, c)


def test_closure_is_closure_operator(rng):
    for _ in range(15):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        c = rng.randrange(cat.n_objects)
        masks = all_sieve_masks(cat, c)
        for s in masks:
            cl = closure_mask(J, c, s)
            assert is_sieve_mask(cat, c, cl)
            assert s & ~cl == 0                             # extensive
            assert closure_mask(J, c, cl) == cl             # idempotent
        for s in masks:
            for t in masks:
                if s & ~t == 0:
                    a = closure_mask(J, c, s)
                    b = closure_mask(J, c, t)
                    assert a & ~b == 0                      # monotone


def test_closure_mask_matches_the_scan_over_every_arrow(rng):
    """Testing only the non-members whose domain has a covering sieve
    other than the maximal one gives the closure the scan over every arrow
    into c gives, on every sieve of 300 random sites; the corpus reaches
    both kinds of non-member, tested and skipped."""
    pairs = tested = skipped = 0
    for _ in range(300):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        for c in cat.objects:
            for s in all_sieve_masks(cat, c):
                assert closure_mask(J, c, s) == reference_closure_mask(J, c, s)
                outside = maximal_sieve_mask(cat, c) & ~s
                pairs += 1
                tested += bool(outside & J.coarse)
                skipped += bool(outside & ~J.coarse)
    assert pairs > 1500 and tested > 200 and skipped > 500


def test_inclusion_topology_correspondence(rng):
    """K = M^i_{K^i} and J ∨ R_i = (M^i_J)^i for full and faithful i."""
    for _ in range(10):
        tgt = random_category(rng)
        objs = sorted(set(rng.sample(list(tgt.objects),
                                     rng.randrange(1, tgt.n_objects + 1))))
        sub, inc = full_subcategory(tgt, objs)
        K = random_topology(rng, sub)
        J = random_topology(rng, tgt)

        coind = coinduced_topology(inc, K)
        back = smallest_comorphism_topology(inc, coind)
        assert back.covers == K.covers  # K = M^i_{K^i}

        m_i_j = smallest_comorphism_topology(inc, J)
        lhs = join_topologies(J, rigid_topology(inc))
        rhs = coinduced_topology(inc, m_i_j)
        assert lhs.covers == rhs.covers  # J ∨ R_i = (M^i_J)^i


def test_dense_morphism_recovers_target_topology(two):
    """Coinducing the induced topology along a dense morphism recovers K."""
    J = atomic_topology(two)
    one = terminal_category()
    inc = validate_functor(one, two, (0,), (0,))
    ji = induced_topology(inc, J)
    sf = SiteFunctor(inc, ji, J)
    assert is_dense_morphism(sf).holds
    assert coinduced_topology(inc, ji).covers == J.covers


def test_subcanonicity_flag(two):
    assert not is_subcanonical(atomic_topology(two))
    assert is_subcanonical(trivial_topology(two))
    assert is_subcanonical(canonical_topology(two))


def test_induced_constant_functor_examples(two):
    """Induced topology of a constant functor to a trivially-covered point:
    the nonempty sieves, when they form a topology, else a reported failure."""
    one = terminal_category()
    const = validate_functor(two, one, (0, 0), (0, 0, 0))
    J = induced_topology(const, trivial_topology(one))
    assert J.covers == atomic_topology(two).covers  # nonempty sieves on 2

    cospan = poset_category(3, [(0, 2), (1, 2)])
    const2 = validate_functor(cospan, one, (0, 0, 0), (0,) * cospan.n_arrows)
    with pytest.raises(TopologyError):
        induced_topology(const2, trivial_topology(one))


from hypothesis import given, settings, strategies as st
import random as _random
from conftest import random_category as _random_category, random_topology as _random_topology


@given(st.integers(min_value=0, max_value=2**18))
@settings(max_examples=40, deadline=None)
def test_generated_topologies_satisfy_axioms(seed):
    """Any generated topology passes the full axiom checker, and its covers
    are upward closed and intersection closed."""
    rng = _random.Random(seed)
    cat = _random_category(rng)
    J = _random_topology(rng, cat)
    validate_topology(cat, J.covers)
    for c in cat.objects:
        sieves = all_sieve_masks(cat, c)
        for s in J.covers[c]:
            for t in sieves:
                if s & ~t == 0:
                    assert t in J.covers[c]          # upward closed
            for t in J.covers[c]:
                assert (s & t) in J.covers[c]        # intersection closed
        assert J.min_cover[c] in J.covers[c]


@given(st.integers(min_value=0, max_value=2**18))
@settings(max_examples=30, deadline=None)
def test_local_equality_is_congruence(seed):
    """≡_J is an equivalence on parallel arrows, stable under composition on
    both sides."""
    rng = _random.Random(seed)
    cat = _random_category(rng)
    J = _random_topology(rng, cat)
    for a in cat.objects:
        for b in cat.objects:
            hom = cat.hom(a, b)
            for h in hom:
                assert local_equality(J, h, h)
                for k in hom:
                    if local_equality(J, h, k):
                        assert local_equality(J, k, h)
                        # precomposition stability
                        for z in cat.arrows_into(a):
                            assert local_equality(
                                J, cat.compose(h, z), cat.compose(k, z))
                        # postcomposition stability
                        for w in cat.arrows_out_of(b):
                            assert local_equality(
                                J, cat.compose(w, h), cat.compose(w, k))
