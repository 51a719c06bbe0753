import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

from sitecalc.factorizations import category_of_elements
from sitecalc.fincat import SizeGuardError, cartesian_arrows, identity_functor, poset_category
from sitecalc.presheaf import yoneda
from sitecalc.sieves import (
    SIEVE_GUARD,
    _enumerate_sieve_masks,
    all_sieve_masks,
    bits,
    cartesian_part,
    generate_mask,
    is_sieve_mask,
    iso_closure,
    mask_of,
    maximal_sieve_mask,
    multicompose_mask,
    preimage_mask,
    pullback_mask,
    vertical_closure,
)

from conftest import (
    RNG_SEED,
    make_collapse_functor,
    make_two,
    random_category,
    random_fibration,
)
from oracles import reference_sieve_masks
from test_derived import _corpus


def random_presieve(rng, cat):
    """(c, P) for a random presieve P on a random object c."""
    c = rng.randrange(cat.n_objects)
    arrows = [f for f in cat.arrows_into(c) if rng.random() < 0.5]
    return c, mask_of(arrows)


def random_sieve(rng, cat):
    c, p = random_presieve(rng, cat)
    return c, generate_mask(cat, p)


def image_mask(F, mask):
    """F(P), a presieve on F(c) for a presieve P on c."""
    return mask_of(F.on_arr(f) for f in bits(mask))


def test_sieve_rejects_unclosed(two):
    # {u} is closed (u has no proper precompositions), {id1} is not
    assert is_sieve_mask(two, 1, 1 << 2)
    assert not is_sieve_mask(two, 1, 1 << 1)


def test_generate_trivial_cases(two):
    s = 1 << 2
    assert generate_mask(two, s) == s
    assert generate_mask(two, 1 << 1) == maximal_sieve_mask(two, 1)
    assert generate_mask(two, 1 << 2) == 1 << 2


def test_generate_idempotent_monotone(rng):
    for _ in range(30):
        cat = random_category(rng)
        c, p = random_presieve(rng, cat)
        q = p | (random_presieve(rng, cat)[1]
                 if rng.random() < 0.5 else 0) & maximal_sieve_mask(cat, c)
        s = generate_mask(cat, p)
        assert is_sieve_mask(cat, c, s)
        assert generate_mask(cat, s) == s
        assert generate_mask(cat, p) & ~generate_mask(cat, q) == 0  # monotone


def test_generate_factor_through_oracle(rng):
    """⟨P⟩ equals the brute-force set of arrows factoring through a member."""
    for _ in range(30):
        cat = random_category(rng)
        c, p = random_presieve(rng, cat)
        expected = 0
        for h in cat.arrows_into(c):
            for f in bits(p):
                if any(cat.compose(f, z) == h
                       for z in cat.hom(cat.dom[h], cat.dom[f])):
                    expected |= 1 << h
                    break
        assert generate_mask(cat, p) == expected


def test_pullback_examples(two):
    s = 1 << 2
    assert pullback_mask(two, s, two.identity[1]) == s
    assert pullback_mask(two, maximal_sieve_mask(two, 1), 2) == maximal_sieve_mask(two, 0)
    assert pullback_mask(two, s, 2) == maximal_sieve_mask(two, 0)


def test_pullback_membership_oracle(rng):
    for _ in range(30):
        cat = random_category(rng)
        c, s = random_sieve(rng, cat)
        for f in cat.arrows_into(c):
            pb = pullback_mask(cat, s, f)
            assert is_sieve_mask(cat, cat.dom[f], pb)
            for g in cat.arrows_into(cat.dom[f]):
                assert (pb >> g) & 1 == (s >> cat.compose(f, g)) & 1


def test_pullback_commutes_with_intersection(rng):
    for _ in range(30):
        cat = random_category(rng)
        c, s = random_sieve(rng, cat)
        t = generate_mask(cat, mask_of(f for f in cat.arrows_into(c)
                                       if rng.random() < 0.5))
        assert is_sieve_mask(cat, c, s & t)
        for f in cat.arrows_into(c):
            assert pullback_mask(cat, s & t, f) == \
                pullback_mask(cat, s, f) & pullback_mask(cat, t, f)


def test_multicompose_trivial(two):
    s = 0b110
    maximal = {f: maximal_sieve_mask(two, two.dom[f]) for f in bits(s)}
    assert multicompose_mask(two, s, maximal) == s

    t = 1 << 2
    refinements = {1: t, 2: maximal_sieve_mask(two, 0)}
    result = multicompose_mask(two, maximal_sieve_mask(two, 1), refinements)
    assert is_sieve_mask(two, 1, result)
    assert t & ~result == 0  # T ⊆ result when S_id = T


def test_multicompose_brute_force(rng):
    for _ in range(30):
        cat = random_category(rng)
        c, s = random_sieve(rng, cat)
        refinements = {f: random_sieve_on(rng, cat, cat.dom[f]) for f in bits(s)}
        result = multicompose_mask(cat, s, refinements)
        expected = mask_of(cat.compose(f, h)
                           for f in bits(s) for h in bits(refinements[f]))
        assert result == expected
        # and the brute-force set is already a sieve
        assert generate_mask(cat, expected) == expected


def random_sieve_on(rng, cat, c):
    arrows = [f for f in cat.arrows_into(c) if rng.random() < 0.6]
    return generate_mask(cat, mask_of(arrows))


def test_functor_image_preimage_identity(rng):
    for _ in range(20):
        cat = random_category(rng)
        ident = identity_functor(cat)
        c, s = random_sieve(rng, cat)
        assert image_mask(ident, s) == s
        assert preimage_mask(ident, s, c) == s


def test_functor_image_collapse(two):
    F = make_collapse_functor(two)
    s = 1 << 2
    img = image_mask(F, s)
    assert F.on_obj(1) == 1 and img == 1 << 1  # {id1}


def test_preimage_of_maximal_is_maximal(two):
    F = make_collapse_functor(two)
    for c in two.objects:
        pre = preimage_mask(F, maximal_sieve_mask(two, F.on_obj(c)), c)
        assert pre == maximal_sieve_mask(two, c)


def test_iso_closure_of_identities(rng):
    for _ in range(10):
        cat = random_category(rng)
        for c in cat.objects:
            closed = iso_closure(cat, c, 1 << cat.identity[c])
            expected = mask_of(f for f in cat.arrows_into(c) if cat.is_iso(f))
            assert closed == expected


def test_discrete_fibration_cartesian_part_is_iso_closure(rng):
    """On a discrete fibration every arrow is cartesian, so the cartesian
    part of a presieve agrees with its isomorphism closure (cartesian images
    are only determined up to compatible isomorphism, so the equality is one
    of iso-closures)."""
    for _ in range(6):
        cat = random_category(rng)
        P = yoneda(cat, rng.randrange(cat.n_objects))
        proj = category_of_elements(P).projection
        total = proj.source
        assert cartesian_arrows(proj) == frozenset(total.arrows)
        for _ in range(3):
            c, p = random_presieve(rng, total)
            assert iso_closure(total, c, cartesian_part(proj, p)) == iso_closure(total, c, p)


def fibration_presieve_identities(p, rng):
    """The seven preimage/image/closure identities of fibrations, as exact
    set equalities."""
    total, base = p.source, p.target
    cart = cartesian_arrows(p)

    def img(presieve):
        return image_mask(p, presieve)

    for _ in range(4):
        c = rng.randrange(total.n_objects)
        pc = p.on_obj(c)
        P = mask_of(f for f in total.arrows_into(c) if rng.random() < 0.5)
        gen_P = generate_mask(total, P)
        # (i) iso-closure of p(⟨P⟩) = ⟨p(P)⟩
        assert iso_closure(base, pc, img(gen_P)) == generate_mask(base, img(P)), \
            "identity (i)"

        # (ii) ⟨S^p_{iso-closure(R)}⟩ = S^p_{⟨R⟩} for a presieve R on p(c)
        R = mask_of(f for f in base.arrows_into(pc) if rng.random() < 0.5)
        lhs = generate_mask(total, preimage_mask(p, iso_closure(base, pc, R), c))
        rhs = preimage_mask(p, generate_mask(base, R), c)
        assert is_sieve_mask(total, c, rhs)
        assert lhs == rhs, "identity (ii)"

        # (iii) S^p_{iso-closure(p(P))} = vertical-closure(P^cart)
        pre = preimage_mask(p, iso_closure(base, pc, img(P)), c)
        vc = vertical_closure(p, cartesian_part(p, P))
        assert pre == vc, "identity (iii)"

        # (iii) second half: for all-cartesian P,
        # ⟨S^p_{iso-closure(p(P))}⟩ = S^p_{⟨p(P)⟩} = ⟨P⟩
        P_cart = P & mask_of(cart)
        lhs = generate_mask(total, preimage_mask(p, iso_closure(base, pc, img(P_cart)), c))
        mid = preimage_mask(p, generate_mask(base, img(P_cart)), c)
        assert is_sieve_mask(total, c, mid)
        assert lhs == mid == generate_mask(total, P_cart), "identity (iii), cartesian case"

        # (iv) iso-closure(R) = iso-closure(p(S^p_{iso-closure(R)}));
        #      for sieves: R = ⟨p(S^p_R)⟩
        lhs = iso_closure(base, pc, R)
        rhs = iso_closure(base, pc, img(preimage_mask(p, iso_closure(base, pc, R), c)))
        assert lhs == rhs, "identity (iv)"
        R_sieve = generate_mask(base, R)
        spr = preimage_mask(p, R_sieve, c)
        assert is_sieve_mask(total, c, spr)
        assert R_sieve == generate_mask(base, img(spr)), "identity (iv), sieve case"

        # (v) S^p_R = ⟨(S^p_R)^cart⟩ for sieves R
        expected = generate_mask(total, cartesian_part(p, spr)) if spr else 0
        assert spr == expected, "identity (v)"

        # (vi)+(vii) for all-cartesian presieves
        if P_cart:
            gen_cart = generate_mask(total, P_cart)
            for f in total.arrows_into(c):
                pb = pullback_mask(total, gen_cart, f)
                assert is_sieve_mask(total, total.dom[f], pb)
                lhs = generate_mask(base, img(pb))
                pf = p.on_arr(f)
                gen_img = generate_mask(base, img(P_cart))
                rhs_mask = mask_of(
                    g for g in base.arrows_into(base.dom[pf])
                    if (gen_img >> base.compose(pf, g)) & 1)
                assert lhs == rhs_mask, "identity (vi)"
                # (vii): pullbacks contain the cartesian images of their members
                if pb:
                    assert cartesian_part(p, pb) & ~pb == 0, "identity (vii)"


def test_fibration_identity_suite_small(rng):
    for _ in range(10):
        p = random_fibration(rng)
        fibration_presieve_identities(p, rng)


@given(st.integers(min_value=0, max_value=2**18))
@settings(max_examples=60, deadline=None)
def test_sieve_masks_are_downclosed_after_generate(seed):
    rng = random.Random(seed)
    cat = random_category(rng)
    _, p = random_presieve(rng, cat)
    s = generate_mask(cat, p)
    for f in bits(s):
        for z in cat.arrows_into(cat.dom[f]):
            assert (s >> cat.compose(f, z)) & 1


def test_pullback_of_generated_sieve_brute_force(rng):
    """f*(⟨P⟩) = all arrows whose composite with f factors through P."""
    for _ in range(25):
        cat = random_category(rng)
        c, p = random_presieve(rng, cat)
        gen = generate_mask(cat, p)
        for f in cat.arrows_into(c):
            pb = pullback_mask(cat, gen, f)
            expected = mask_of(
                g for g in cat.arrows_into(cat.dom[f])
                if any(cat.compose(f, g) == cat.compose(m, z)
                       for m in bits(p)
                       for z in cat.hom(cat.dom[cat.compose(f, g)], cat.dom[m])))
            assert pb == expected


@given(st.integers(min_value=0, max_value=2**18))
@settings(max_examples=60, deadline=None)
def test_pullback_along_composite(seed):
    """(g∘f)*(S) = f*(g*(S))."""
    rng = random.Random(seed)
    cat = random_category(rng)
    c, s = random_sieve(rng, cat)
    for g in cat.arrows_into(c):
        for f in cat.arrows_into(cat.dom[g]):
            gf = cat.compose(g, f)
            assert pullback_mask(cat, s, gf) == pullback_mask(cat, pullback_mask(cat, s, g), f)


@given(st.integers(min_value=0, max_value=2**18))
@settings(max_examples=40, deadline=None)
def test_pullback_of_maximal_and_identity(seed):
    rng = random.Random(seed)
    cat = random_category(rng)
    c = rng.randrange(cat.n_objects)
    top = maximal_sieve_mask(cat, c)
    for f in cat.arrows_into(c):
        assert pullback_mask(cat, top, f) == maximal_sieve_mask(cat, cat.dom[f])
    c, s = random_sieve(rng, cat)
    assert pullback_mask(cat, s, cat.identity[c]) == s


def _reference_all_sieve_masks(cat, c, guard):
    """Every sieve on c, with the guard counted as the enumeration goes."""
    top = maximal_sieve_mask(cat, c)
    seen = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for f in bits(top & ~s):
            s2 = s | cat.principal_sieves[f]
            if s2 not in seen:
                if len(seen) >= guard:
                    raise SizeGuardError(f"more than {guard} sieves on object {c}")
                seen.add(s2)
                frontier.append(s2)
    return tuple(sorted(seen))


def _sieves_or_message(enumerate_sieves, cat, c, guard):
    try:
        return enumerate_sieves(cat, c, guard)
    except SizeGuardError as exc:
        return str(exc)


def test_sieve_guard_fires_where_the_counting_enumeration_does(rng):
    """With every guard from 0 to one above the sieve count, on every
    object of 100 random categories and of the vees with 1 to 6 legs, the
    guard that fires before the enumeration raises the same message
    exactly when the counting enumeration does, and otherwise the same
    sieves come back."""
    cats = [random_category(rng) for _ in range(100)]
    cats += [poset_category(k + 1, [(i, k) for i in range(k)]) for k in range(1, 7)]
    early = 0
    for cat in cats:
        for c in cat.objects:
            count = len(_reference_all_sieve_masks(cat, c, 1 << 20))
            for guard in range(count + 2):
                got = _sieves_or_message(_enumerate_sieve_masks, cat, c, guard)
                assert got == _sieves_or_message(_reference_all_sieve_masks, cat, c, guard)
                early += isinstance(got, str) and guard < count
    assert early


def test_sieve_enumeration_matches_the_unions_of_every_subset(rng):
    """On every object of 150 random categories and of the derived
    categories of `test_derived_categories_are_lawful` and their
    opposites, the sieves are the unions of every subset of principal
    sieves; with the guard at their count they come back, and one below it
    raises."""
    cats = [random_category(rng) for _ in range(150)]
    for _, built, _ in _corpus(random.Random(RNG_SEED)):
        cats += [built["category"], built["category"].opposite()]
    counts = collections.Counter()
    for cat in cats:
        for c in cat.objects:
            expected = reference_sieve_masks(cat, c)
            assert all_sieve_masks(cat, c) == expected
            assert _enumerate_sieve_masks(cat, c, len(expected)) == expected
            with pytest.raises(SizeGuardError, match=f"more than {len(expected) - 1} sieves"):
                _enumerate_sieve_masks(cat, c, len(expected) - 1)
            counts[len(expected)] += 1
    assert max(counts) > 1000, counts


def test_sieve_guard_fires_on_the_21_leg_vee_before_enumerating(monkeypatch):
    """The antichain of the 21 legs raises the guard on the top of the
    21-leg vee after one walk over the arrows into it, the pre-check's; on
    the 3-leg vee, whose 3 legs pass the pre-check, the enumeration walks
    them again."""
    import sitecalc.sieves as sieves
    walked = []

    def recorded(mask):
        walked.append(mask)
        return bits(mask)
    monkeypatch.setattr(sieves, "bits", recorded)
    vee = poset_category(22, [(i, 21) for i in range(21)])
    with pytest.raises(SizeGuardError, match=f"more than {SIEVE_GUARD} sieves on object 21"):
        _enumerate_sieve_masks(vee, 21, SIEVE_GUARD)
    assert walked == [vee.maximal_sieves[21]]
    walked.clear()
    vee = poset_category(4, [(i, 3) for i in range(3)])
    assert len(_enumerate_sieve_masks(vee, 3, 9)) == 9
    assert walked == [vee.maximal_sieves[3]] * 2


def test_all_sieve_masks_is_memoized_per_category(monkeypatch, rng):
    """The sieves of an object are enumerated once per category instance:
    a second call returns the same tuple, and a twin instance of an equal
    category enumerates them again.  A guard that fires keeps nothing, so
    each call enumerates afresh and raises again: the top of the 21-leg vee
    has 2^21 + 1 sieves."""
    import dataclasses

    import sitecalc.sieves as sieves
    counts = collections.Counter()

    def counted(cat, c, guard):
        counts[id(cat), c] += 1
        return _enumerate_sieve_masks(cat, c, guard)

    monkeypatch.setattr(sieves, "_enumerate_sieve_masks", counted)
    cats = [random_category(rng) for _ in range(40)]
    cats += [poset_category(k + 1, [(i, k) for i in range(k)]) for k in range(1, 7)]
    twins = [dataclasses.replace(cat) for cat in cats]  # alive, so no id is reused
    for cat, twin in zip(cats, twins):
        for c in cat.objects:
            got = all_sieve_masks(cat, c)
            assert all_sieve_masks(cat, c) is got
            assert all_sieve_masks(twin, c) == got
            assert counts[id(cat), c] == counts[id(twin), c] == 1
    vee = poset_category(22, [(i, 21) for i in range(21)])
    for calls in (1, 2):
        with pytest.raises(SizeGuardError, match=f"more than {SIEVE_GUARD} sieves on object 21"):
            all_sieve_masks(vee, 21)
        assert counts[id(vee), 21] == calls
