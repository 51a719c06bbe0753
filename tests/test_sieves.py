import random

import pytest
from hypothesis import given, settings, strategies as st

from sitecalc.fincat import SizeGuardError, cartesian_arrows, identity_functor, poset_category
from sitecalc.presheaf import category_of_elements, yoneda
from sitecalc.sieves import (
    all_sieve_masks,
    preimage_presieve,
    Presieve,
    Sieve,
    bits,
    cartesian_part,
    functor_image,
    functor_preimage,
    generate,
    generate_mask,
    intersect,
    iso_closure,
    mask_of,
    maximal_sieve,
    maximal_sieve_mask,
    multicompose,
    pullback,
    vertical_closure,
)

from conftest import make_collapse_functor, make_two, random_category, random_fibration


def random_presieve(rng, cat):
    c = rng.randrange(cat.n_objects)
    arrows = [f for f in cat.arrows_into(c) if rng.random() < 0.5]
    return Presieve(cat, c, mask_of(arrows))


def random_sieve(rng, cat):
    return generate(random_presieve(rng, cat))


def test_sieve_rejects_unclosed(two):
    # {u} is closed (u has no proper precompositions), {id1} is not
    Sieve(two, 1, 1 << 2)
    with pytest.raises(ValueError):
        Sieve(two, 1, 1 << 1)


def test_generate_trivial_cases(two):
    s = Sieve(two, 1, 1 << 2)
    assert generate(s) == s
    assert generate(Presieve(two, 1, 1 << 1)) == maximal_sieve(two, 1)
    assert generate(Presieve(two, 1, 1 << 2)).arrows == 1 << 2


def test_generate_idempotent_monotone(rng):
    for _ in range(30):
        cat = random_category(rng)
        p = random_presieve(rng, cat)
        q = Presieve(cat, p.codomain,
                     p.arrows | (random_presieve(rng, cat).arrows
                                 if rng.random() < 0.5 else 0)
                     & maximal_sieve_mask(cat, p.codomain))
        s = generate(p)
        assert generate(s) == s
        assert generate(p).arrows & ~generate(q).arrows == 0  # monotone


def test_generate_factor_through_oracle(rng):
    """⟨P⟩ equals the brute-force set of arrows factoring through a member."""
    for _ in range(30):
        cat = random_category(rng)
        p = random_presieve(rng, cat)
        expected = 0
        for h in cat.arrows_into(p.codomain):
            for f in bits(p.arrows):
                if any(cat.comp[(f, z)] == h
                       for z in cat.hom(cat.dom[h], cat.dom[f])):
                    expected |= 1 << h
                    break
        assert generate(p).arrows == expected


def test_pullback_examples(two):
    s = Sieve(two, 1, 1 << 2)
    assert pullback(s, two.identity[1]) == s
    assert pullback(maximal_sieve(two, 1), 2) == maximal_sieve(two, 0)
    assert pullback(s, 2) == maximal_sieve(two, 0)
    with pytest.raises(ValueError):
        pullback(s, two.identity[0])


def test_pullback_membership_oracle(rng):
    for _ in range(30):
        cat = random_category(rng)
        s = random_sieve(rng, cat)
        for f in cat.arrows_into(s.codomain):
            pb = pullback(s, f)
            for g in cat.arrows_into(cat.dom[f]):
                assert (g in pb) == (cat.comp[(f, g)] in s)


def test_pullback_commutes_with_intersection(rng):
    for _ in range(30):
        cat = random_category(rng)
        s = random_sieve(rng, cat)
        t = generate(Presieve(cat, s.codomain,
                              mask_of(f for f in cat.arrows_into(s.codomain)
                                      if rng.random() < 0.5)))
        for f in cat.arrows_into(s.codomain):
            assert pullback(intersect(s, t), f) == intersect(pullback(s, f), pullback(t, f))


def test_multicompose_trivial(two):
    s = Sieve(two, 1, 0b110)
    maximal = {f: maximal_sieve(two, two.dom[f]) for f in s.members()}
    assert multicompose(s, maximal) == s

    t = Sieve(two, 1, 1 << 2)
    refinements = {1: t, 2: maximal_sieve(two, 0)}
    result = multicompose(maximal_sieve(two, 1), refinements)
    assert t.arrows & ~result.arrows == 0  # T ⊆ result when S_id = T


def test_multicompose_brute_force(rng):
    for _ in range(30):
        cat = random_category(rng)
        s = random_sieve(rng, cat)
        refinements = {f: random_sieve_on(rng, cat, cat.dom[f]) for f in s.members()}
        result = multicompose(s, refinements)
        expected = mask_of(cat.comp[(f, h)]
                           for f in s.members() for h in refinements[f].members())
        assert result.arrows == expected
        # and the brute-force set is already a sieve
        assert generate_mask(cat, expected) == expected


def random_sieve_on(rng, cat, c):
    arrows = [f for f in cat.arrows_into(c) if rng.random() < 0.6]
    return Sieve(cat, c, generate_mask(cat, mask_of(arrows)))


def test_functor_image_preimage_identity(rng):
    for _ in range(20):
        cat = random_category(rng)
        ident = identity_functor(cat)
        s = random_sieve(rng, cat)
        assert functor_image(ident, s).arrows == s.arrows
        assert functor_preimage(ident, s, s.codomain) == s


def test_functor_image_collapse(two):
    F = make_collapse_functor(two)
    s = Sieve(two, 1, 1 << 2)
    img = functor_image(F, s)
    assert img.codomain == 1 and img.arrows == 1 << 1  # {id1}


def test_preimage_of_maximal_is_maximal(two):
    F = make_collapse_functor(two)
    for c in two.objects:
        pre = functor_preimage(F, maximal_sieve(two, F.on_obj(c)), c)
        assert pre == maximal_sieve(two, c)


def test_iso_closure_of_identities(rng):
    for _ in range(10):
        cat = random_category(rng)
        for c in cat.objects:
            p = Presieve(cat, c, 1 << cat.identity[c])
            closed = iso_closure(p)
            expected = mask_of(f for f in cat.arrows_into(c) if cat.is_iso(f))
            assert closed.arrows == expected


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
            p = random_presieve(rng, total)
            assert iso_closure(cartesian_part(proj, p)).arrows == iso_closure(p).arrows


def fibration_presieve_identities(p, rng):
    """The seven preimage/image/closure identities of fibrations, as exact
    set equalities."""
    total, base = p.source, p.target
    cart = cartesian_arrows(p)

    def img(presieve):
        return functor_image(p, presieve)

    for _ in range(4):
        c = rng.randrange(total.n_objects)
        P = Presieve(total, c, mask_of(
            f for f in total.arrows_into(c) if rng.random() < 0.5))
        gen_P = generate(P)
        # (i) iso-closure of p(⟨P⟩) = ⟨p(P)⟩
        assert iso_closure(img(gen_P)).arrows == generate_mask(base, img(P).arrows), \
            "identity (i)"

        # (ii) ⟨S^p_{iso-closure(R)}⟩ = S^p_{⟨R⟩} for a presieve R on p(c)
        R = Presieve(base, p.on_obj(c), mask_of(
            f for f in base.arrows_into(p.on_obj(c)) if rng.random() < 0.5))
        lhs = generate_mask(total, preimage_presieve(p, iso_closure(R), c).arrows)
        rhs = functor_preimage(
            p, Sieve(base, R.codomain, generate_mask(base, R.arrows)), c).arrows
        assert lhs == rhs, "identity (ii)"

        # (iii) S^p_{iso-closure(p(P))} = vertical-closure(P^cart)
        pre = preimage_presieve(p, iso_closure(img(P)), c)
        vc = vertical_closure(p, cartesian_part(p, P))
        assert pre.arrows == vc.arrows, "identity (iii)"

        # (iii) second half: for all-cartesian P,
        # ⟨S^p_{iso-closure(p(P))}⟩ = S^p_{⟨p(P)⟩} = ⟨P⟩
        P_cart = Presieve(total, c, P.arrows & mask_of(cart))
        lhs = generate_mask(total, preimage_presieve(p, iso_closure(img(P_cart)), c).arrows)
        mid = functor_preimage(
            p, Sieve(base, p.on_obj(c), generate_mask(base, img(P_cart).arrows)), c).arrows
        assert lhs == mid == generate(P_cart).arrows, "identity (iii), cartesian case"

        # (iv) iso-closure(R) = iso-closure(p(S^p_{iso-closure(R)}));
        #      for sieves: R = ⟨p(S^p_R)⟩
        lhs = iso_closure(R).arrows
        rhs = iso_closure(img(preimage_presieve(p, iso_closure(R), c))).arrows
        assert lhs == rhs, "identity (iv)"
        R_sieve = Sieve(base, R.codomain, generate_mask(base, R.arrows))
        assert R_sieve.arrows == generate_mask(
            base, img(functor_preimage(p, R_sieve, c)).arrows), "identity (iv), sieve case"

        # (v) S^p_R = ⟨(S^p_R)^cart⟩ for sieves R
        spr = functor_preimage(p, R_sieve, c)
        expected = generate_mask(total, cartesian_part(p, spr).arrows) if spr.arrows else 0
        assert spr.arrows == expected, "identity (v)"

        # (vi)+(vii) for all-cartesian presieves
        if P_cart.arrows:
            gen_cart = generate(P_cart)
            for f in total.arrows_into(c):
                pb = pullback(gen_cart, f)
                lhs = generate_mask(base, img(pb).arrows)
                pf = p.on_arr(f)
                gen_img = generate_mask(base, img(P_cart).arrows)
                rhs_mask = mask_of(
                    g for g in base.arrows_into(base.dom[pf])
                    if (gen_img >> base.comp[(pf, g)]) & 1)
                assert lhs == rhs_mask, "identity (vi)"
                # (vii): pullbacks contain the cartesian images of their members
                if pb.arrows:
                    assert cartesian_part(p, pb).arrows & ~pb.arrows == 0, "identity (vii)"


def test_fibration_identity_suite_small(rng):
    for _ in range(10):
        p = random_fibration(rng)
        fibration_presieve_identities(p, rng)


@given(st.integers(min_value=0, max_value=2**18))
@settings(max_examples=60, deadline=None)
def test_sieve_masks_are_downclosed_after_generate(seed):
    rng = random.Random(seed)
    cat = random_category(rng)
    p = random_presieve(rng, cat)
    s = generate(p)
    for f in s.members():
        for z in cat.arrows_into(cat.dom[f]):
            assert cat.comp[(f, z)] in s


def test_pullback_of_generated_sieve_brute_force(rng):
    """f*(⟨P⟩) = all arrows whose composite with f factors through P."""
    for _ in range(25):
        cat = random_category(rng)
        p = random_presieve(rng, cat)
        gen = generate(p)
        for f in cat.arrows_into(p.codomain):
            pb = pullback(gen, f)
            expected = mask_of(
                g for g in cat.arrows_into(cat.dom[f])
                if any(cat.comp[(f, g)] == cat.comp[(m, z)]
                       for m in p.members()
                       for z in cat.hom(cat.dom[cat.comp[(f, g)]], cat.dom[m])))
            assert pb.arrows == expected


@given(st.integers(min_value=0, max_value=2**18))
@settings(max_examples=60, deadline=None)
def test_pullback_along_composite(seed):
    """(g∘f)*(S) = f*(g*(S))."""
    rng = random.Random(seed)
    cat = random_category(rng)
    s = random_sieve(rng, cat)
    for g in cat.arrows_into(s.codomain):
        for f in cat.arrows_into(cat.dom[g]):
            gf = cat.comp[(g, f)]
            assert pullback(s, gf) == pullback(pullback(s, g), f)


@given(st.integers(min_value=0, max_value=2**18))
@settings(max_examples=40, deadline=None)
def test_pullback_of_maximal_and_identity(seed):
    rng = random.Random(seed)
    cat = random_category(rng)
    c = rng.randrange(cat.n_objects)
    top = maximal_sieve(cat, c)
    for f in cat.arrows_into(c):
        assert pullback(top, f) == maximal_sieve(cat, cat.dom[f])
    s = random_sieve(rng, cat)
    assert pullback(s, cat.identity[s.codomain]) == s


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
                got = _sieves_or_message(all_sieve_masks, cat, c, guard)
                assert got == _sieves_or_message(_reference_all_sieve_masks, cat, c, guard)
                early += isinstance(got, str) and guard < count
    assert early
