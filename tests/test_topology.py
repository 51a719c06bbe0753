import random

import pytest

from sitecalc.fincat import FinFunctor, full_subcategory, identity_functor, poset_category, terminal_category
from sitecalc.presheaf import elements_topology, is_sheaf, yoneda
from sitecalc.sieves import Sieve, all_sieve_masks, generate_mask, mask_of, maximal_sieve_mask
from sitecalc.topology import (
    TopologyError,
    atomic_topology,
    canonical_topology,
    coinduced_topology,
    enumerate_topologies,
    fibration_topology,
    generate_topology,
    induced_topology,
    is_subcanonical,
    join_topologies,
    local_equality,
    rigid_topology,
    sieve_J_closure,
    smallest_comorphism_topology,
    topology_where,
    trivial_topology,
    validate_topology,
)
from sitecalc.morphisms import SiteFunctor, is_comorphism_of_sites, is_dense_morphism

from conftest import (
    make_collapse_functor,
    make_two,
    random_category,
    random_fibration,
    random_presheaf,
    random_topology,
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
    inc = FinFunctor(one, two, (0,), (0,))
    R = rigid_topology(inc)
    # covers(1): every sieve containing u; covers(0): sieves containing id0
    assert R.covers[1] == frozenset({1 << 2, 0b110})
    assert R.covers[0] == frozenset({1})


def test_canonical_on_terminal():
    # the unique object is initial, so the empty sieve is universally
    # effective-epimorphic and belongs to the canonical topology
    one = terminal_category()
    assert canonical_topology(one).covers == (frozenset({0, 1}),)


def test_canonical_join_covers_on_poset():
    """In a poset with binary joins, the sieve generated by a pair covering
    the join is canonical-covering."""
    # diamond: 0 < 1, 0 < 2, 1 < 3, 2 < 3 where 3 = 1 ∨ 2 and 0 = 1 ∧ 2
    cat = poset_category(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    J = canonical_topology(cat)
    legs = mask_of(f for f in cat.arrows_into(3)
                   if cat.dom[f] in (1, 2))
    assert J.is_covering(3, generate_mask(cat, legs))


def test_canonical_is_subcanonical_sheaf_oracle(rng):
    """All representables are sheaves for the computed canonical topology."""
    for _ in range(8):
        cat = random_category(rng)
        J = canonical_topology(cat)
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
    inc = FinFunctor(one, cospan, (0,), (cospan.identity[0],))
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
            functors.append(FinFunctor(
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


def test_local_equality_is_memoised_per_instance(two):
    """A verdict is decided once and kept on the topology instance; an equal
    topology built separately has its own memo; a non-parallel pair raises
    on every call and is never stored."""
    J = atomic_topology(two)
    assert local_equality(J, 2, 2)
    assert J.local_equalities == {(2, 2): True}
    J.local_equalities[(2, 2)] = "kept"
    assert local_equality(J, 2, 2) == "kept"
    twin = atomic_topology(two)
    assert twin == J and twin.local_equalities == {}
    assert local_equality(twin, 2, 2) is True
    for _ in range(2):
        with pytest.raises(ValueError):
            local_equality(J, 0, 2)
    assert (0, 2) not in J.local_equalities


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
                closed = sieve_J_closure(J, Sieve(cat, c, s))
                assert closed.arrows == maximal_sieve_mask(cat, c)


def test_closure_is_closure_operator(rng):
    for _ in range(15):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        c = rng.randrange(cat.n_objects)
        masks = all_sieve_masks(cat, c)
        for s in masks:
            sieve = Sieve(cat, c, s)
            cl = sieve_J_closure(J, sieve)
            assert s & ~cl.arrows == 0                      # extensive
            assert sieve_J_closure(J, cl).arrows == cl.arrows  # idempotent
        for s in masks:
            for t in masks:
                if s & ~t == 0:
                    a = sieve_J_closure(J, Sieve(cat, c, s)).arrows
                    b = sieve_J_closure(J, Sieve(cat, c, t)).arrows
                    assert a & ~b == 0                      # monotone


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
    inc = FinFunctor(one, two, (0,), (0,))
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
    const = FinFunctor(two, one, (0, 0), (0, 0, 0))
    J = induced_topology(const, trivial_topology(one))
    assert J.covers == atomic_topology(two).covers  # nonempty sieves on 2

    cospan = poset_category(3, [(0, 2), (1, 2)])
    const2 = FinFunctor(cospan, one, (0, 0, 0), (0,) * cospan.n_arrows)
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
