import random

import pytest

from sitecalc.cli import parse
from sitecalc.fincat import (
    CategoryError,
    FinCategory,
    cartesian_arrows,
    cartesian_vertical_factor,
    comma,
    connected_components,
    full_subcategory,
    identity_functor,
    is_cartesian,
    is_colimit_cocone,
    is_fibration,
    monoid_category,
    poset_category,
    terminal_category,
    validate_category,
    validate_functor,
    vertical_arrows,
)
from sitecalc.presheaf import category_of_elements, yoneda

from conftest import (
    SMALL_POSETS,
    idempotent_monoid_category,
    indiscrete_category,
    make_collapse_functor,
    make_two,
    product_category,
    random_category,
    random_fibration,
    random_presheaf,
    z2_category,
)
from oracles import composition_table


def test_terminal_category_valid():
    one = terminal_category()
    assert one.n_objects == 1 and one.n_arrows == 1


def test_two_valid(two):
    assert two.n_arrows == 3
    assert two.hom(0, 1) == (2,)


def test_forced_dom_cod_mismatch():
    # u∘id0 mapped to id1 breaks endpoints
    with pytest.raises(CategoryError) as exc:
        validate_category(2, [(0, 0), (1, 1), (0, 1)], [0, 1],
                          {(0, 0): 0, (1, 1): 1, (2, 0): 1, (1, 2): 2})
    assert any("dom/cod mismatch" in v for v in exc.value.violations)


def test_missing_identity_reported():
    with pytest.raises(CategoryError) as exc:
        validate_category(1, [(0, 0)], [5], {(0, 0): 0})
    assert any("identity" in v for v in exc.value.violations)


def test_non_associative_triple_reported():
    # one object, arrows {id, a, b}: (a∘a)∘a = b∘a = a but a∘(a∘a) = a∘b = id
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
             (1, 1): 2, (1, 2): 0, (2, 1): 1, (2, 2): 2}
    with pytest.raises(CategoryError) as exc:
        validate_category(1, [(0, 0)] * 3, [0], table)
    assert any("non-associative" in v for v in exc.value.violations)


def _reference_table_violations(dom, cod, comp):
    """Missing composites and non-associative triples, by a scan over every
    pair and every triple of arrows."""
    n = len(dom)
    missing = [f"missing composite for composable pair ({g}, {f})"
               for g in range(n) for f in range(n) if cod[f] == dom[g] and (g, f) not in comp]
    if missing:
        return missing
    return [f"non-associative triple ({h}, {g}, {f})"
            for h in range(n) for g in range(n) for f in range(n)
            if cod[g] == dom[h] and cod[f] == dom[g]
            and comp[(comp[(h, g)], f)] != comp[(h, comp[(g, f)])]]


def test_table_violations_match_reference_scan(rng):
    """With a composite dropped, or replaced by a parallel arrow, the
    violations listed by the per-object scans are those of the scan over
    every pair and triple, in the same order."""
    # Z/3 and the four maps of a two-element set, under composition
    maps = [(0, 1), (1, 0), (0, 0), (1, 1)]
    monoids = [monoid_category([[(a + b) % 3 for b in range(3)] for a in range(3)], 0),
               monoid_category([[maps.index(tuple(g[x] for x in f)) for f in maps]
                                for g in maps], 0)]
    associative = 0
    for _ in range(120):
        cat = rng.choice(monoids) if rng.random() < 0.3 else random_category(rng)
        comp = composition_table(cat)
        swaps = [(key, h2) for key, h in sorted(comp.items())
                 if not (cat.is_identity(key[0]) or cat.is_identity(key[1]))
                 for h2 in cat.hom(cat.dom[h], cat.cod[h]) if h2 != h]
        if swaps and rng.random() < 0.5:
            key, h2 = rng.choice(swaps)
            comp[key] = h2
        else:
            del comp[rng.choice(sorted(comp))]
        expected = _reference_table_violations(cat.dom, cat.cod, comp)
        if not expected:
            continue
        with pytest.raises(CategoryError) as exc:
            validate_category(cat.n_objects, list(zip(cat.dom, cat.cod)),
                              list(cat.identity), comp)
        got = [v for v in exc.value.violations if v.startswith(("missing", "non-associative"))]
        assert got == expected
        associative += expected[0].startswith("non-associative")
    assert associative >= 5


def _violations(cat: FinCategory, comp) -> list[str]:
    try:
        validate_category(cat.n_objects, list(zip(cat.dom, cat.cod)), list(cat.identity), comp)
    except CategoryError as exc:
        return exc.violations
    return []


def test_associativity_rows_match_triple_loop_on_conftest_categories(rng):
    """On the named conftest categories and on fibration totals, intact and
    with composites replaced by parallel arrows, `validate_category` lists
    exactly the violations of the triple loop, in the same order."""
    cats = [make_two(), indiscrete_category(2), indiscrete_category(3), z2_category(),
            idempotent_monoid_category(),
            product_category(poset_category(2, [(0, 1)]), indiscrete_category(2))[0],
            product_category(z2_category(), indiscrete_category(2))[0],
            monoid_category([[(a + b) % 3 for b in range(3)] for a in range(3)], 0),
            *(make() for make in SMALL_POSETS),
            *(random_fibration(rng).source for _ in range(12))]
    broken = 0
    for cat in cats:
        table = composition_table(cat)
        assert _violations(cat, table) == [] \
            == _reference_table_violations(cat.dom, cat.cod, table)
        swaps = [(key, h2) for key, h in sorted(table.items())
                 if not (cat.is_identity(key[0]) or cat.is_identity(key[1]))
                 for h2 in cat.hom(cat.dom[h], cat.cod[h]) if h2 != h]
        for key, h2 in rng.sample(swaps, min(len(swaps), 40)):
            comp = {**table, key: h2}
            expected = _reference_table_violations(cat.dom, cat.cod, comp)
            assert _violations(cat, comp) == expected
            broken += bool(expected)
    assert broken >= 40


def test_full_subcategory_matches_reference_double_loop(rng):
    """On random categories, fibration totals and categories of elements,
    each with a random set of objects in a random order, the composition
    table of the full subcategory holds the entries of the loop over every
    pair of its arrows, in the same order."""
    cats = [random_category(rng) for _ in range(200)]
    cats += [random_fibration(rng).source for _ in range(40)]
    cats += [category_of_elements(random_presheaf(rng, random_category(rng))).category
             for _ in range(40)]
    proper = 0
    for cat in cats:
        objects = rng.sample(list(cat.objects), rng.randrange(cat.n_objects + 1))
        sub, inclusion = full_subcategory(cat, objects)
        arrows = [f for f in cat.arrows if cat.dom[f] in objects and cat.cod[f] in objects]
        assert inclusion.arr_map == tuple(arrows)
        index = {f: i for i, f in enumerate(arrows)}
        reference = [((index[g], index[f]), index[cat.compose(g, f)])
                     for g in arrows for f in arrows if cat.cod[f] == cat.dom[g]]
        assert list(composition_table(sub).items()) == reference
        proper += 0 < len(objects) < cat.n_objects and len(reference) > len(objects)
    assert proper


def test_compose_rejects_pairs_that_do_not_compose(two):
    """`compose` raises ValueError on every pair with cod f != dom g, where
    a bare row lookup would read some arrow or fail with IndexError, and
    reads the rows on every composable pair; on a parsed, a derived
    (comma) and an opposite category."""
    parsed = parse("\n".join([
        "site-format 1",
        "category T",
        "  objects: 3",
        "  arrows: i0: 0 -> 0, i1: 1 -> 1, i2: 2 -> 2, u: 0 -> 1, v: 1 -> 2, w: 0 -> 2",
        "  identities: i0, i1, i2",
        "  compose: v . u = w",
    ]) + "\n").categories["T"].category
    derived = comma(identity_functor(two), make_collapse_functor(two)).category
    for cat in (parsed, derived, parsed.opposite()):
        table = composition_table(cat)
        for g in cat.arrows:
            for f in cat.arrows:
                if (g, f) in table:
                    assert cat.compose(g, f) == table[(g, f)]
                else:
                    with pytest.raises(ValueError, match="not composable"):
                        cat.compose(g, f)
        assert len(table) < cat.n_arrows ** 2


def test_opposite_round_trip_random(rng):
    for _ in range(25):
        cat = random_category(rng)
        assert cat.opposite().opposite() == cat


def test_opposite_validates(rng):
    for _ in range(10):
        cat = random_category(rng)
        op = cat.opposite()
        rebuilt = validate_category(
            op.n_objects, list(zip(op.dom, op.cod)), list(op.identity), composition_table(op))
        assert rebuilt == op


def test_comma_terminal():
    one = terminal_category()
    cc = comma(identity_functor(one), identity_functor(one))
    assert len(cc.objects) == 1
    assert cc.category.n_arrows == 1


def _brute_force_comma_objects(F, G):
    C = F.target
    return [(a, b, alpha)
            for a in F.source.objects
            for b in G.source.objects
            for alpha in C.hom(F.on_obj(a), G.on_obj(b))]


def test_comma_object_count_oracle(two):
    F = make_collapse_functor(two)
    cc = comma(identity_functor(two), F)
    assert sorted(cc.objects) == sorted(_brute_force_comma_objects(identity_functor(two), F))
    cc2 = comma(F, identity_functor(two))
    assert sorted(cc2.objects) == sorted(_brute_force_comma_objects(F, identity_functor(two)))


@pytest.mark.parametrize("case, violations", [
    ("dom/cod", ["functor breaks dom/cod at arrow 2",
                 "functor breaks composition at pair (1, 2)"]),
    ("identity", ["functor breaks identity at object 0"]),
    ("composition", ["functor breaks composition at pair (1, 1)"]),
    ("length", ["functor maps have wrong length"]),
])
def test_validate_functor_lists_every_broken_law(case, violations):
    """u: 0 -> 1 sent to id_0 breaks dom/cod, and so the composite id_1∘u;
    the constant map onto the idempotent e of {1, e} breaks the identity
    only; Z_2 -> {1, e} with r ↦ e breaks r∘r = 1 only."""
    two, monoid, z2 = make_two(), idempotent_monoid_category(), z2_category()
    args = {"dom/cod": (two, two, (0, 1), (0, 1, 0)),
            "identity": (monoid, monoid, (0,), (1, 1)),
            "composition": (z2, monoid, (0,), (0, 1)),
            "length": (two, two, (0,), (0, 1, 2))}[case]
    with pytest.raises(CategoryError) as exc:
        validate_functor(*args)
    assert exc.value.violations == violations


def test_comma_projections_are_functors(rng):
    for _ in range(5):
        cat = random_category(rng)
        cc = comma(identity_functor(cat), identity_functor(cat))
        for p in (cc.left_projection, cc.right_projection):
            assert validate_functor(p.source, p.target, p.obj_map, p.arr_map) == p
        validate_category(cc.category.n_objects,
                          list(zip(cc.category.dom, cc.category.cod)),
                          list(cc.category.identity), composition_table(cc.category))


def _reachability_components(cat):
    """Independent oracle: transitive closure of the symmetrized arrow relation."""
    n = cat.n_objects
    adj = [[a == b for b in range(n)] for a in range(n)]
    for f in cat.arrows:
        adj[cat.dom[f]][cat.cod[f]] = True
        adj[cat.cod[f]][cat.dom[f]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                adj[i][j] = adj[i][j] or (adj[i][k] and adj[k][j])
    seen, out = set(), []
    for i in range(n):
        if i in seen:
            continue
        comp = frozenset(j for j in range(n) if adj[i][j])
        seen |= comp
        out.append(comp)
    return sorted(out, key=min)


def test_connected_components(two, rng):
    assert connected_components(two) == (frozenset({0, 1}),)
    disc = poset_category(2, [])
    assert len(connected_components(disc)) == 2
    for _ in range(20):
        cat = random_category(rng)
        assert sorted(connected_components(cat), key=min) == _reachability_components(cat)


def test_components_invariant_under_opposite(rng):
    for _ in range(10):
        cat = random_category(rng)
        assert connected_components(cat) == connected_components(cat.opposite())


def test_colimit_constant_diagram(two):
    one = terminal_category()
    for c in two.objects:
        D = validate_functor(one, two, (c,), (two.identity[c],))
        ok, _ = is_colimit_cocone(D, c, {0: two.identity[c]})
        assert ok


def test_colimit_fails_in_two(two):
    # diagram {0}, vertex 1, leg u: mediation fails at d = 0
    one = terminal_category()
    D = validate_functor(one, two, (0,), (two.identity[0],))
    ok, witness = is_colimit_cocone(D, 1, {0: 2})
    assert not ok
    assert witness["object"] == 0


def test_colimit_pushout_square():
    # poset 0 < 1, 0 < 2, 1 < 3, 2 < 3: 3 is the pushout of 1 <- 0 -> 2
    cat = poset_category(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    span = poset_category(3, [(0, 1), (0, 2)])
    arr = {(a, b): next(f for f in cat.arrows if cat.dom[f] == a and cat.cod[f] == b)
           for a in range(4) for b in range(4)
           if any(cat.dom[f] == a and cat.cod[f] == b for f in cat.arrows)}
    sarr = {(a, b): next(f for f in span.arrows if span.dom[f] == a and span.cod[f] == b)
            for a in range(3) for b in range(3)
            if any(span.dom[f] == a and span.cod[f] == b for f in span.arrows)}
    D = validate_functor(span, cat, (0, 1, 2),
                         tuple(arr[(0, 0)] if f == sarr[(0, 0)] else
                               arr[(1, 1)] if f == sarr[(1, 1)] else
                               arr[(2, 2)] if f == sarr[(2, 2)] else
                               arr[(0, 1)] if f == sarr[(0, 1)] else arr[(0, 2)]
                               for f in span.arrows))
    legs = {0: arr[(0, 3)], 1: arr[(1, 3)], 2: arr[(2, 3)]}
    ok, _ = is_colimit_cocone(D, 3, legs)
    assert ok
    # vertex 1 does not receive a cocone at all: legs precondition fails
    with pytest.raises(ValueError):
        is_colimit_cocone(D, 1, {0: arr[(0, 1)], 1: arr[(1, 1)], 2: arr[(0, 1)]})


def test_identities_are_cartesian(rng):
    for _ in range(8):
        p = random_fibration(rng)
        for c in p.source.objects:
            assert is_cartesian(p, p.source.identity[c])


def test_cartesian_closed_under_composition(rng):
    for _ in range(8):
        p = random_fibration(rng)
        cart = cartesian_arrows(p)
        for g in cart:
            for f in cart:
                if p.source.cod[f] == p.source.dom[g]:
                    assert p.source.compose(g, f) in cart


def test_collapse_functor_is_not_fibration(two):
    F = make_collapse_functor(two)
    ok, witness = is_fibration(F)
    assert not ok
    assert witness is not None


def test_identity_is_fibration(two):
    ok, _ = is_fibration(identity_functor(two))
    assert ok


def test_elements_projection_is_split_fibration(rng):
    for _ in range(6):
        cat = random_category(rng)
        P = yoneda(cat, rng.randrange(cat.n_objects))
        proj = category_of_elements(P).projection
        ok, _ = is_fibration(proj)
        assert ok
        # discrete fibration: every arrow is cartesian
        assert cartesian_arrows(proj) == frozenset(proj.source.arrows)


def test_non_skeletal_fibration_exercises_iso_search():
    """A bundle with indiscrete fiber has lifts that only exist up to a
    non-identity isomorphism."""
    base = poset_category(2, [(0, 1)])
    total, proj = product_category(base, indiscrete_category(2))
    ok, _ = is_fibration(proj)
    assert ok
    assert len(vertical_arrows(proj)) > total.n_objects  # non-identity verticals


def test_cartesian_vertical_factor_recomposes(rng):
    for _ in range(8):
        p = random_fibration(rng)
        cart = cartesian_arrows(p)
        vert = vertical_arrows(p)
        for u in p.source.arrows:
            v, phi = cartesian_vertical_factor(p, u)
            assert v in vert and phi in cart
            assert p.source.compose(phi, v) == u


def test_cartesian_vertical_factor_on_trivial_cases(rng):
    p = random_fibration(random.Random(7))
    ident = p.source.identity
    for u in p.source.arrows:
        v, phi = cartesian_vertical_factor(p, u)
        if u in cartesian_arrows(p):
            # u cartesian: the factorization is (vertical iso, cartesian)
            assert p.source.is_iso(v) or v == ident[p.source.dom[u]]


def test_cartesian_vertical_factor_requires_fibration(two):
    F = make_collapse_functor(two)
    with pytest.raises(ValueError):
        cartesian_vertical_factor(F, 2)


def test_cartesian_fails_with_two_fillers(two):
    """Hand-built non-uniqueness: an idempotent endo e with a∘e = a gives the
    lifting problem (a, id) two distinct fillers."""
    C = validate_category(
        2, [(0, 0), (1, 1), (0, 0), (0, 1)], [0, 1],
        {(0, 0): 0, (1, 1): 1, (2, 0): 2, (0, 2): 2, (2, 2): 2,
         (3, 0): 3, (1, 3): 3, (3, 2): 3})
    p = validate_functor(C, two, (0, 1), (0, 1, 0, 2))
    assert not is_cartesian(p, 3)
    fillers = [chi for chi in C.hom(0, 0)
               if C.compose(3, chi) == 3 and p.on_arr(chi) == 0]
    assert len(fillers) == 2
