import collections
import itertools

import pytest

import sitecalc.morphisms as mor
from sitecalc.fincat import (
    SizeGuardError,
    _UnionFind,
    monoid_category,
    poset_category,
    terminal_category,
    validate_category,
    validate_functor,
)
from sitecalc.cli import parse
from sitecalc.factorizations import (
    build_CJ,
    build_CJs,
    category_of_elements,
    closed_sieves,
)
from sitecalc.morphisms import is_continuous, sieve_diagram
from sitecalc.presheaf import (
    _locally_matching_families,
    canonical_topology,
    closure_cJ,
    colimit_of_representables,
    constant_presheaf,
    elem_locally_equal,
    family_locally_surjective,
    identity_morphism,
    is_bicovering,
    is_sheaf,
    plus_construction,
    sheaf_comparison,
    sheafify,
    sheafify_morphism,
    sheafify_plus_plus,
    sieve_subpresheaf,
    strict_matching_families,
    validate_presheaf,
    validate_presheaf_morphism,
    yoneda,
)
from sitecalc.sieves import all_sieve_masks, bits, mask_of, maximal_sieve_mask, pullback_mask
from sitecalc.topology import (
    GrothendieckTopology,
    atomic_topology,
    generate_topology,
    trivial_topology,
)

from conftest import (
    count_computes,
    idempotent_monoid_category,
    is_restriction_closed,
    make_two,
    random_category,
    random_presheaf,
    random_site_functors,
    random_topology,
    z2_category,
)
from test_cli import vee_site
from oracles import (
    FunctionalRelation,
    arrow_to_relation,
    compose_relations,
    composition_table,
    enumerate_presheaf_morphisms,
    graph_relation,
    identity_relation,
    relation_is_epi,
    relation_is_mono,
    relation_to_arrow,
    subpresheaves,
    validate_functional_relation,
)


def test_every_presheaf_is_trivial_sheaf(rng):
    for _ in range(10):
        cat = random_category(rng)
        P = random_presheaf(rng, cat)
        ok, _ = is_sheaf(P, trivial_topology(cat))
        assert ok


def test_representables_on_two_atomic(two):
    J = atomic_topology(two)
    ok1, _ = is_sheaf(yoneda(two, 1), J)
    assert ok1
    ok0, witness = is_sheaf(yoneda(two, 0), J)
    assert not ok0
    assert witness["object"] == 1 and witness["amalgamations"] == []


def test_constant_presheaf_on_disconnected_cover_site():
    """A two-element constant presheaf fails the sheaf condition at a
    disconnected covering sieve (the locally-connected phenomenon)."""
    cospan = poset_category(3, [(0, 2), (1, 2)])
    legs = mask_of(f for f in cospan.arrows_into(2) if cospan.dom[f] in (0, 1))
    J = generate_topology(cospan, [(2, legs)])
    ok, witness = is_sheaf(constant_presheaf(cospan, 2), J)
    assert not ok
    assert len(witness["amalgamations"]) != 1


def test_closure_cJ(two, rng):
    J = atomic_topology(two)
    E = yoneda(two, 1)
    full = sieve_subpresheaf(two, 1, maximal_sieve_mask(two, 1))
    assert full.ambient == E
    assert full.members == tuple(frozenset(range(E.sizes[c])) for c in two.objects)
    assert is_restriction_closed(full)
    assert closure_cJ(full, J).members == full.members
    for _ in range(15):
        cat = random_category(rng)
        Jr = random_topology(rng, cat)
        P = random_presheaf(rng, cat)
        for A in subpresheaves(P)[:6]:
            assert closure_cJ(A, trivial_topology(cat)).members == A.members
            closed = closure_cJ(A, Jr)
            assert closure_cJ(closed, Jr).members == closed.members  # idempotent


def test_bicovering_identity(rng):
    for _ in range(8):
        cat = random_category(rng)
        P = random_presheaf(rng, cat)
        J = random_topology(rng, cat)
        assert is_bicovering(identity_morphism(P), J)


def test_covering_sieve_inclusion_is_bicovering(rng):
    for _ in range(12):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        c = rng.randrange(cat.n_objects)
        for s in J.covers[c]:
            sub = sieve_subpresheaf(cat, c, s)
            carrier, elems = sub.as_presheaf()
            Y = yoneda(cat, c)
            incl = validate_presheaf_morphism(carrier, Y, tuple(
                tuple(elems[e]) for e in cat.objects))
            assert is_bicovering(incl, J)


def test_bicovering_agrees_with_sheafified_iso(rng):
    """Random morphisms: bicovering iff a_J of the morphism is bijective."""
    for _ in range(12):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat)
        Q = random_presheaf(rng, cat)
        morphisms = enumerate_presheaf_morphisms(P, Q)
        if not morphisms:
            continue
        alpha = rng.choice(morphisms)
        shP, shQ = sheafify(P, J), sheafify(Q, J)
        a_alpha = sheafify_morphism(alpha, shP, shQ)
        assert is_bicovering(alpha, J) == a_alpha.is_bijective()


def test_sheafify_on_sheaf_is_iso(rng):
    for _ in range(12):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat)
        sh = sheafify(P, J)
        ok, _ = is_sheaf(sh.sheaf, J)
        assert ok
        assert is_bicovering(sh.unit, J)
        if is_sheaf(P, J)[0]:
            assert sh.unit.is_bijective()


def test_sheafify_idempotent_up_to_unit_iso(rng):
    for _ in range(10):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat)
        sh = sheafify(P, J)
        sh2 = sheafify(sh.sheaf, J)
        assert sh2.unit.is_bijective()


def test_sheafify_y0_on_two_atomic(two):
    J = atomic_topology(two)
    sh = sheafify(yoneda(two, 0), J)
    assert sh.sheaf.sizes == (1, 1)
    pp, eta = sheafify_plus_plus(yoneda(two, 0), J)
    cmp = sheaf_comparison(yoneda(two, 0), J, pp, eta, sh.sheaf, sh.unit)
    assert cmp.is_bijective()


def test_plus_plus_oracle_agreement(rng):
    for _ in range(15):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat)
        sh = sheafify(P, J)
        pp, eta = sheafify_plus_plus(P, J)
        ok, _ = is_sheaf(pp, J)
        assert ok
        cmp = sheaf_comparison(P, J, pp, eta, sh.sheaf, sh.unit)
        assert cmp.is_bijective()


def test_subcanonical_sheafified_representables(rng):
    for _ in range(6):
        cat = random_category(rng)
        J = canonical_topology(cat)
        for c in cat.objects:
            Y = yoneda(cat, c)
            sh = sheafify(Y, J)
            assert sh.unit.is_bijective()


# ---------------------------------------------------------------------------
# functional relations

def test_identity_relation_is_valid(rng):
    for _ in range(10):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat)
        ok, _ = validate_functional_relation(identity_relation(P, J), J)
        assert ok


def test_dropping_closure_clause_witnessed(two):
    """Remove a pair required by clause (i) from a valid relation."""
    J = atomic_topology(two)
    P = yoneda(two, 1)
    R = identity_relation(P, J)
    # drop the pair at object 1 whose restriction sieve is covering
    pairs = list(R.pairs)
    assert (0, 0) in pairs[1]
    pairs[1] = frozenset(p for p in pairs[1] if p != (0, 0))
    broken = FunctionalRelation(P, P, tuple(pairs))
    ok, witness = validate_functional_relation(broken, J)
    assert not ok
    assert witness["clause"] in ("i", "iii")


def test_graph_relation_round_trip(rng):
    for _ in range(12):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat)
        Q = random_presheaf(rng, cat)
        morphisms = enumerate_presheaf_morphisms(P, Q)
        if not morphisms:
            continue
        alpha = rng.choice(morphisms)
        R = graph_relation(alpha, J)
        ok, witness = validate_functional_relation(R, J)
        assert ok, witness


def test_compose_with_identity(rng):
    for _ in range(8):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat)
        Q = random_presheaf(rng, cat)
        morphisms = enumerate_presheaf_morphisms(P, Q)
        if not morphisms:
            continue
        R = graph_relation(rng.choice(morphisms), J)
        assert compose_relations(J, R, identity_relation(P, J)).pairs == R.pairs
        assert compose_relations(J, identity_relation(Q, J), R).pairs == R.pairs


def test_relation_composition_associative_and_matches_arrows(rng):
    for _ in range(8):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat, max_size=2)
        Q = random_presheaf(rng, cat, max_size=2)
        Z = random_presheaf(rng, cat, max_size=2)
        mor1 = enumerate_presheaf_morphisms(P, Q)
        mor2 = enumerate_presheaf_morphisms(Q, Z)
        mor3 = enumerate_presheaf_morphisms(Z, P)
        if not (mor1 and mor2 and mor3):
            continue
        R = graph_relation(rng.choice(mor1), J)
        S = graph_relation(rng.choice(mor2), J)
        T = graph_relation(rng.choice(mor3), J)
        lhs = compose_relations(J, T, compose_relations(J, S, R))
        rhs = compose_relations(J, compose_relations(J, T, S), R)
        assert lhs.pairs == rhs.pairs

        # arrow-side: a(S∘R) equals a(S)∘a(R)
        shP, shQ, shZ = sheafify(P, J), sheafify(Q, J), sheafify(Z, J)
        aR = relation_to_arrow(J, R, shP, shQ)
        aS = relation_to_arrow(J, S, shQ, shZ)
        aSR = relation_to_arrow(J, compose_relations(J, S, R), shP, shZ)
        assert aR.then(aS).components == aSR.components


def test_arrow_relation_round_trip(rng):
    for _ in range(10):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat, max_size=2)
        Q = random_presheaf(rng, cat, max_size=2)
        shP, shQ = sheafify(P, J), sheafify(Q, J)
        for xi in enumerate_presheaf_morphisms(shP.sheaf, shQ.sheaf)[:4]:
            R = arrow_to_relation(shP, shQ, xi)
            ok, witness = validate_functional_relation(R, J)
            assert ok, witness
            back = relation_to_arrow(J, R, shP, shQ)
            assert back.components == xi.components


def test_relation_count_equals_sheaf_arrow_count(rng):
    for _ in range(6):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat, max_size=2)
        Q = random_presheaf(rng, cat, max_size=2)
        shP, shQ = sheafify(P, J), sheafify(Q, J)
        arrows = enumerate_presheaf_morphisms(shP.sheaf, shQ.sheaf)
        relations = {arrow_to_relation(shP, shQ, xi).pairs for xi in arrows}
        assert len(relations) == len(arrows)


def test_relation_mono_epi(rng):
    for _ in range(10):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat, max_size=2)
        ident = identity_relation(P, J)
        assert relation_is_mono(ident, J) and relation_is_epi(ident, J)


def test_covering_sieve_inclusion_relation_is_epi(rng):
    for _ in range(8):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        c = rng.randrange(cat.n_objects)
        for s in list(J.covers[c])[:3]:
            sub = sieve_subpresheaf(cat, c, s)
            carrier, elems = sub.as_presheaf()
            Y = yoneda(cat, c)
            incl = validate_presheaf_morphism(carrier, Y, tuple(tuple(e) for e in elems))
            R = graph_relation(incl, J)
            assert relation_is_epi(R, J)


def test_mono_epi_agree_with_componentwise_on_sheaf_arrows(rng):
    for _ in range(8):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat, max_size=2)
        Q = random_presheaf(rng, cat, max_size=2)
        shP, shQ = sheafify(P, J), sheafify(Q, J)
        for xi in enumerate_presheaf_morphisms(shP.sheaf, shQ.sheaf)[:4]:
            R = arrow_to_relation(shP, shQ, xi)
            inj = all(len(set(comp)) == len(comp) for comp in xi.components)
            # componentwise injectivity/surjectivity on sheaves = mono/epi
            assert relation_is_mono(R, J) == inj
            surj = all(set(xi.components[c]) == set(range(shQ.sheaf.sizes[c]))
                       for c in cat.objects)
            assert relation_is_epi(R, J) == surj


# ---------------------------------------------------------------------------
# C_J and C_J^s

def test_build_CJ_trivial_is_isomorphic_on_skeletal(rng):
    for maker in (lambda: poset_category(2, [(0, 1)]),
                  lambda: poset_category(3, [(0, 1), (1, 2)])):
        cat = maker()
        J = trivial_topology(cat)
        cj = build_CJ(cat, J)
        assert cj.category.n_objects == cat.n_objects
        for a in cat.objects:
            for b in cat.objects:
                assert len(cj.homs[a * cat.n_objects + b]) == len(cat.hom(a, b))


def test_build_CJ_two_atomic(two):
    J = atomic_topology(two)
    cj = build_CJ(two, J)
    # everything is sheafified to the terminal object: all hom sets singleton
    assert all(len(h) == 1 for h in cj.homs)
    # oracle: arrow counts between sheafified representables
    for c in two.objects:
        for d in two.objects:
            shc = sheafify(yoneda(two, c), J)
            shd = sheafify(yoneda(two, d), J)
            count = len(enumerate_presheaf_morphisms(shc.sheaf, shd.sheaf))
            assert count == len(cj.homs[c * two.n_objects + d])


def test_build_CJ_hom_counts_match_oracle(rng):
    for _ in range(30):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        cj = build_CJ(cat, J)
        for c in cat.objects:
            for d in cat.objects:
                shc = sheafify(yoneda(cat, c), J)
                shd = sheafify(yoneda(cat, d), J)
                count = len(enumerate_presheaf_morphisms(shc.sheaf, shd.sheaf))
                assert count == len(cj.homs[c * cat.n_objects + d])


def test_build_CJs_two_atomic(two):
    J = atomic_topology(two)
    cjs = build_CJs(two, J)
    assert cjs.objects == ((0, 0), (0, 1), (1, 0), (1, 6))
    # maximal-sieve objects reproduce C_J hom-sets
    cj = build_CJ(two, J)
    for i, (c, s) in enumerate(cjs.objects):
        if s != maximal_sieve_mask(two, c):
            continue
        for j, (d, t) in enumerate(cjs.objects):
            if t != maximal_sieve_mask(two, d):
                continue
            n = sum(1 for (a, b, _) in cjs.arrow_decode if a == i and b == j)
            assert n == len(cj.homs[c * two.n_objects + d])


def test_build_CJs_composition_associative(two):
    J = atomic_topology(two)
    cjs = build_CJs(two, J)
    cat = cjs.category
    for h in cat.arrows:
        for g in cat.arrows:
            if cat.cod[g] != cat.dom[h]:
                continue
            for f in cat.arrows:
                if cat.cod[f] != cat.dom[g]:
                    continue
                assert cat.compose(cat.compose(h, g), f) == \
                    cat.compose(h, cat.compose(g, f))


# ---------------------------------------------------------------------------
# colimits and categories of elements

def test_colimit_single_object(rng):
    for _ in range(6):
        cat = random_category(rng)
        c = rng.randrange(cat.n_objects)
        one = terminal_category()
        F = validate_functor(one, cat, (c,), (cat.identity[c],))
        colim, legs = colimit_of_representables(F)
        Y = yoneda(cat, c)
        assert colim.sizes == Y.sizes


def test_elements_of_terminal_presheaf(rng):
    for _ in range(6):
        cat = random_category(rng)
        el = category_of_elements(constant_presheaf(cat, 1))
        assert el.category.n_objects == cat.n_objects
        assert el.category.n_arrows == cat.n_arrows


def test_density_colimit_over_elements(rng):
    """colim of representables over ∫P is isomorphic to P."""
    for _ in range(8):
        cat = random_category(rng)
        P = random_presheaf(rng, cat, max_size=2)
        el = category_of_elements(P)
        colim, legs = colimit_of_representables(el.projection)
        # comparison: leg at (c, x) is the Yoneda arrow of x
        comps = [[None] * colim.sizes[e] for e in cat.objects]
        for i, (c, x) in enumerate(el.objects):
            for e in cat.objects:
                for u_idx, u in enumerate(cat.hom(e, c)):
                    comps[e][legs[i][e][u_idx]] = P.res(u, x)
        comparison = validate_presheaf_morphism(colim, P, tuple(tuple(r) for r in comps))
        assert comparison.is_bijective()


# ---------------------------------------------------------------------------
# counting invariants

def count_closed_subpresheaves(P, J):
    return sum(1 for A in subpresheaves(P)
               if closure_cJ(A, J).members == A.members)


def count_subsheaves(E, J):
    return sum(1 for A in subpresheaves(E)
               if is_sheaf(A.as_presheaf()[0], J)[0]
               and closure_cJ(A, J).members == A.members)


def test_closed_subpresheaf_subobject_count(rng):
    """#closed subpresheaves of P = #subsheaves of a_J(P); each subsheaf
    inclusion induces a mono relation."""
    for _ in range(8):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat, max_size=2)
        sh = sheafify(P, J)
        assert count_closed_subpresheaves(P, J) == count_subsheaves(sh.sheaf, J)
        for A in subpresheaves(sh.sheaf)[:8]:
            if closure_cJ(A, J).members != A.members:
                continue
            carrier, elems = A.as_presheaf()
            incl = validate_presheaf_morphism(carrier, sh.sheaf, elems)
            R = graph_relation(incl, J)
            assert relation_is_mono(R, J)


def test_relation_class_function_correspondence(two):
    """Functional relations = functorial, J-closed, locally pointed
    class-valued functions, by double enumeration on a small instance."""
    J = atomic_topology(two)
    P = yoneda(two, 1)
    Q = yoneda(two, 1)

    # enumerate all J-functional relations by brute force over pair sets
    universe = [(c, x, y) for c in two.objects
                for x in range(P.sizes[c]) for y in range(Q.sizes[c])]
    relations = []
    for combo in itertools.chain.from_iterable(
            itertools.combinations(universe, k) for k in range(len(universe) + 1)):
        pairs = [set() for _ in two.objects]
        for (c, x, y) in combo:
            pairs[c].add((x, y))
        R = FunctionalRelation(P, Q, tuple(frozenset(p) for p in pairs))
        if validate_functional_relation(R, J)[0]:
            relations.append(R)

    # enumerate class-valued functions: per object, per element of P, an
    # ≡_J-class of Q (possibly empty), functorial, closed, locally pointed
    def eq_classes(c):
        classes = []
        for y in range(Q.sizes[c]):
            for cl in classes:
                if elem_locally_equal(Q, J, c, y, next(iter(cl))):
                    cl.add(y)
                    break
            else:
                classes.append({y})
        return [frozenset(cl) for cl in classes] + [frozenset()]

    functions = []
    per_elem = [[(c, x) for x in range(P.sizes[c])] for c in two.objects]
    slots = [e for row in per_elem for e in row]
    choices = [eq_classes(c) for (c, x) in slots]
    for combo in itertools.product(*choices):
        f = {slot: cl for slot, cl in zip(slots, combo)}
        ok = True
        for (c, x), cl in f.items():
            for g in two.arrows_into(c):
                d = two.dom[g]
                for y in cl:
                    if Q.res(g, y) not in f[(d, P.res(g, x))]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:  # J-closed
            for (c, x), cl in f.items():
                for y in range(Q.sizes[c]):
                    if y in cl:
                        continue
                    s = mask_of(g for g in two.arrows_into(c)
                                if Q.res(g, y) in f[(two.dom[g], P.res(g, x))])
                    if J.is_covering(c, s):
                        ok = False
                        break
                if not ok:
                    break
        if ok:  # locally pointed
            for (c, x) in slots:
                s = mask_of(g for g in two.arrows_into(c)
                            if f[(two.dom[g], P.res(g, x))])
                if not J.is_covering(c, s):
                    ok = False
                    break
        if ok:
            functions.append(f)
    assert len(relations) == len(functions)


def test_local_presentation_equality_and_composition(two):
    """Two local presentations give equal sheaf arrows iff they agree on a
    common refinement; composing presentations matches arrow composition."""
    J = atomic_topology(two)
    for c in two.objects:
        for d in two.objects:
            shc = sheafify(yoneda(two, c), J)
            shd = sheafify(yoneda(two, d), J)
            yd = yoneda(two, d)
            for s in J.covers[c]:
                members = sorted(bits(s))
                fams = _locally_matching_families(yd, J, c, members)
                for f1 in fams:
                    for f2 in fams:
                        # arrows induced by the two presentations: restrict to
                        # the least covering sieve and compare classes
                        common = [m for m in members if (J.min_cover[c] >> m) & 1]
                        idx = [members.index(m) for m in common]
                        same = all(
                            elem_locally_equal(yd, J, two.dom[members[i]],
                                               f1[i], f2[i])
                            for i in idx)
                        e1 = shd._index[c][tuple(f1[i] for i in idx)] \
                            if len(common) == len(shd.carrier[c]) else None
                        e2 = shd._index[c][tuple(f2[i] for i in idx)] \
                            if len(common) == len(shd.carrier[c]) else None
                        if e1 is not None and e2 is not None:
                            assert (e1 == e2) == same


def _cj_relation_to_functional(cat, c, d, rel):
    P, Q = yoneda(cat, c), yoneda(cat, d)
    pairs = []
    for e in cat.objects:
        hom_c = {h: i for i, h in enumerate(cat.hom(e, c))}
        hom_d = {h: i for i, h in enumerate(cat.hom(e, d))}
        pairs.append(frozenset(
            (hom_c[f], hom_d[g]) for (f, g) in rel if cat.dom[f] == e))
    return FunctionalRelation(P, Q, tuple(pairs))


def test_build_CJ_composition_agrees_arrowwise():
    """Beyond cardinalities: the composition formula of the relation
    category agrees with actual composition of the induced sheaf arrows."""
    from conftest import make_two
    two = make_two()
    for J in (atomic_topology(two), trivial_topology(two)):
        cj = build_CJ(two, J)
        shs = {c: sheafify(yoneda(two, c), J) for c in two.objects}
        cat = cj.category
        arrow_of = {}
        for a, (c, d, rel) in enumerate(cj.arrow_decode):
            R = _cj_relation_to_functional(two, c, d, rel)
            arrow_of[a] = relation_to_arrow(J, R, shs[c], shs[d])
        for g in cat.arrows:
            for f in cat.arrows:
                if cat.cod[f] != cat.dom[g]:
                    continue
                composite = cat.compose(g, f)
                assert arrow_of[f].then(arrow_of[g]).components == \
                    arrow_of[composite].components


def test_build_CJs_hom_counts_match_sheafified_sieves():
    """Hom-set sizes in the closed-sieve-pair category equal the number of
    sheaf arrows between the sheafified sieve carriers."""
    from conftest import make_two
    two = make_two()
    J = atomic_topology(two)
    cjs = build_CJs(two, J)
    sheaves = []
    for (d, s) in cjs.objects:
        carrier, _ = sieve_subpresheaf(two, d, s).as_presheaf()
        sheaves.append(sheafify(carrier, J).sheaf)
    for i in range(len(cjs.objects)):
        for j in range(len(cjs.objects)):
            n_rel = sum(1 for (a, b, _) in cjs.arrow_decode if a == i and b == j)
            n_arr = len(enumerate_presheaf_morphisms(sheaves[i], sheaves[j]))
            assert n_rel == n_arr, (cjs.objects[i], cjs.objects[j])


def test_sheafification_decode_round_trip(rng):
    """Element decoding returns the canonical locally matching family, and
    looking the family back up returns the element."""
    for _ in range(10):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        P = random_presheaf(rng, cat, max_size=2)
        sh = sheafify(P, J)
        for c in cat.objects:
            for elt in range(sh.sheaf.sizes[c]):
                family = sh.decode(c, elt)
                assert set(family) == set(sh.carrier[c])
                assert sh.element_of_family(c, family) == elt


# ---------------------------------------------------------------------------
# representables are built once per category instance

def test_yoneda_is_memoised_per_category_instance(monkeypatch, rng):
    """A repeat call returns the same object, built once; a twin instance
    of an equal category builds its own, equal presheaf."""
    import dataclasses

    import sitecalc.presheaf as ps
    counts = count_computes(monkeypatch, ps)
    for _ in range(15):
        cat = random_category(rng)
        twin = dataclasses.replace(cat)
        assert twin == cat and twin is not cat
        for c in cat.objects:
            first = yoneda(cat, c)
            assert yoneda(cat, c) is first
            fresh = yoneda(twin, c)
            assert fresh == first and fresh is not first and fresh.cat is twin
            assert yoneda(twin, c) is fresh
            assert counts[id(cat), ("yoneda", c)] == counts[id(twin), ("yoneda", c)] == 1


def test_invalid_presheaf_and_morphism_raise_with_a_reason(two):
    with pytest.raises(ValueError, match="restriction along arrow 2 has 1 entries"):
        validate_presheaf(two, (2, 2), ((0, 1), (0, 1), (0,)))
    with pytest.raises(ValueError, match="restriction along arrow 2 leaves"):
        validate_presheaf(two, (1, 1), ((0,), (0,), (1,)))
    with pytest.raises(ValueError, match="set sizes"):
        validate_presheaf(two, (1,), ((0,), (0,), (0,)))
    with pytest.raises(ValueError, match="restriction maps"):
        validate_presheaf(two, (1, 1), ((0,), (0,)))
    Y = yoneda(two, 1)
    with pytest.raises(ValueError, match="component at object 0 has 0 entries"):
        validate_presheaf_morphism(Y, Y, ((), (0,)))
    C2 = constant_presheaf(two, 2)
    with pytest.raises(ValueError, match="naturality fails at arrow 2, element 0"):
        validate_presheaf_morphism(C2, C2, ((0, 1), (1, 0)))
    # a value outside the target, too large or negative, is named before naturality
    with pytest.raises(ValueError, match="object 0 sends element 0 to 5, outside the 2 elements"):
        validate_presheaf_morphism(C2, C2, ((5, 0), (0, 1)))
    with pytest.raises(ValueError, match="object 1 sends element 1 to -1, outside the 2 elements"):
        validate_presheaf_morphism(C2, C2, ((0, 1), (0, -1)))
    assert validate_presheaf_morphism(C2, C2, [[1, 0], [1, 0]]).components == ((1, 0), (1, 0))


def _reference_presheaf_violation(cat, sizes, restrict):
    """The message of the element-by-element validation, or None: the body
    the presheaf validation ran before it compared whole restriction tuples."""
    if len(sizes) != cat.n_objects:
        return f"{len(sizes)} set sizes for {cat.n_objects} objects"
    if len(restrict) != cat.n_arrows:
        return f"{len(restrict)} restriction maps for {cat.n_arrows} arrows"
    for f in cat.arrows:
        a, b = cat.dom[f], cat.cod[f]
        if len(restrict[f]) != sizes[b]:
            return (f"restriction along arrow {f} has {len(restrict[f])} entries, "
                    f"expected {sizes[b]}, the size at its codomain {b}")
        if not all(0 <= x < sizes[a] for x in restrict[f]):
            return (f"restriction along arrow {f} leaves the {sizes[a]} elements "
                    f"at its domain {a}")
    for c in cat.objects:
        if restrict[cat.identity[c]] != tuple(range(sizes[c])):
            return f"restriction along id_{c} is not the identity"
    for (g, f), h in composition_table(cat).items():
        rf, rg, rh = restrict[f], restrict[g], restrict[h]
        if any(rf[rg[x]] != rh[x] for x in range(sizes[cat.cod[g]])):
            return f"contravariant functoriality fails at pair ({g}, {f})"
    return None


def test_presheaf_validation_matches_reference_loop(rng):
    """Every single-entry change of a restriction, to every other value in
    range and to one below and one above it, in the representables and a
    random presheaf of 150 random categories: the validation raises the
    reference's ValueError, naming the same first failing pair, or accepts
    where the reference does."""
    reasons = collections.Counter()
    for _ in range(150):
        cat = random_category(rng)
        for P in [yoneda(cat, c) for c in cat.objects] + [random_presheaf(rng, cat)]:
            for f in cat.arrows:
                row = P.restrict[f]
                for x, old in enumerate(row):
                    for v in range(-1, P.sizes[cat.dom[f]] + 1):
                        if v == old:
                            continue
                        restrict = list(P.restrict)
                        restrict[f] = row[:x] + (v,) + row[x + 1:]
                        expected = _reference_presheaf_violation(cat, P.sizes, tuple(restrict))
                        try:
                            validate_presheaf(cat, P.sizes, tuple(restrict))
                            got = None
                        except ValueError as exc:
                            got = str(exc)
                        assert got == expected
                        reasons[expected.split(" ")[0] if expected else None] += 1
    assert reasons["contravariant"] and reasons["restriction"]


# ---------------------------------------------------------------------------
# restriction-tuple lookups against the element-by-element scans they replace

def vee_sites():
    """The shape of the `sheafify-oracle` benchmark: (category, J, P) of
    `test_cli.vee_site` for k = 3-6 legs and m = 2, and k = 3-5 and m = 3,
    and of one seeded variant whose presheaf is neither separated nor a
    sheaf.  (k, m) = (6, 3) is left out: the element-by-element sheaf
    comparison takes 16 s on its 729-element sheaf."""
    docs = [parse(vee_site(k, m)) for k in range(3, 7) for m in (2, 3) if m ** k < 729]
    docs.append(parse(vee_site(4, 3, seed=7)))
    return [(doc.categories["V"].category, doc.topologies["J"].topology,
             doc.presheaves["P"].presheaf) for doc in docs]


def _reference_is_sheaf(P, J):
    """Amalgamations found by testing every element against each family."""
    cat = P.cat
    for c in cat.objects:
        for s in J.covers[c]:
            for values in strict_matching_families(P, c, s):
                fam = dict(zip(sorted(bits(s)), values))
                amalg = [x for x in range(P.sizes[c])
                         if all(P.res(f, x) == fam[f] for f in fam)]
                if len(amalg) != 1:
                    return False, {"object": c, "sieve": s, "family": fam,
                                   "amalgamations": amalg}
    return True, None


def _reference_sheafify(P, J):
    """Sizes, restrictions, unit and representative families, with each
    family compared against every class found so far."""
    cat = P.cat
    carriers = tuple(tuple(sorted(bits(J.min_cover[c]))) for c in cat.objects)
    reps, index = [], []
    for c in cat.objects:
        doms = [cat.dom[f] for f in carriers[c]]
        classes, idx = [], {}
        for fam in sorted(_locally_matching_families(P, J, c, carriers[c])):
            hit = next((k for k, rep in enumerate(classes)
                        if all(elem_locally_equal(P, J, d, x, r)
                               for d, x, r in zip(doms, fam, rep))), None)
            if hit is None:
                hit = len(classes)
                classes.append(fam)
            idx[fam] = hit
        reps.append(tuple(classes))
        index.append(idx)
    restrict = tuple(
        tuple(index[cat.dom[f]][tuple(fam[carriers[cat.cod[f]].index(cat.compose(f, g))]
                                      for g in carriers[cat.dom[f]])]
              for fam in reps[cat.cod[f]])
        for f in cat.arrows)
    unit = tuple(tuple(index[c][tuple(P.res(f, x) for f in carriers[c])]
                       for x in range(P.sizes[c]))
                 for c in cat.objects)
    return tuple(len(r) for r in reps), restrict, unit, tuple(reps)


def _reference_sheaf_comparison(P, J, E1, eta1, E2, eta2):
    """For each e, every v of E2 tested over every arrow and element."""
    cat = P.cat
    components = []
    for c in cat.objects:
        comp = []
        for e in range(E1.sizes[c]):
            found = []
            for v in range(E2.sizes[c]):
                s = 0
                for f in cat.arrows_into(c):
                    d = cat.dom[f]
                    if any(eta1.at(d, x) == E1.res(f, e) and eta2.at(d, x) == E2.res(f, v)
                           for x in range(P.sizes[d])):
                        s |= 1 << f
                if J.is_covering(c, s):
                    found.append(v)
            if len(found) != 1:
                raise ValueError(
                    f"sheaf comparison not uniquely defined at object {c}, element {e}: {found}")
            comp.append(found[0])
        components.append(tuple(comp))
    return validate_presheaf_morphism(E1, E2, tuple(components))


def _reference_family_locally_surjective(J, morphisms, target):
    """Each element of the target tested against every arrow and every
    element of each source."""
    cat = target.cat
    for c in cat.objects:
        for y in range(target.sizes[c]):
            s = 0
            for f in cat.arrows_into(c):
                d = cat.dom[f]
                if any(m.at(d, x) == target.res(f, y)
                       for m in morphisms for x in range(m.source.sizes[d])):
                    s |= 1 << f
            if not J.is_covering(c, s):
                return False
    return True


def _reference_is_bicovering(alpha, J):
    """Every pair of elements with one image tested over every arrow, and
    the local surjectivity scan."""
    cat = alpha.source.cat
    for c in cat.objects:
        for x in range(alpha.source.sizes[c]):
            for x2 in range(x + 1, alpha.source.sizes[c]):
                if alpha.at(c, x) != alpha.at(c, x2):
                    continue
                s = 0
                for f in cat.arrows_into(c):
                    if alpha.source.res(f, x) == alpha.source.res(f, x2):
                        s |= 1 << f
                if not J.is_covering(c, s):
                    return False
    return _reference_family_locally_surjective(J, [alpha], alpha.target)


def _components_or_message(compare, *args):
    try:
        return compare(*args).components
    except ValueError as exc:
        return str(exc)


def test_restriction_lookups_match_reference_scans(rng):
    """On 210 random sites and presheaves (every seventh on the trivial
    topology) and on the leg-covered vees, `sheafify`, `is_sheaf`,
    `sheaf_comparison`, `is_bicovering` and `family_locally_surjective`
    give what the element-by-element scans give: the same sheaf and
    representatives, the same verdicts and witnesses on sheaves and
    non-sheaves, the same comparison or the same error, also for swapped
    and non-sheaf presentations, and the same bicovering and surjectivity
    verdicts, both of which occur."""
    raised = non_sheaves = 0
    verdicts = collections.Counter()
    sites = []
    for i in range(210):
        cat = random_category(rng)
        J = trivial_topology(cat) if i % 7 == 0 else random_topology(rng, cat)
        sites.append((cat, J, random_presheaf(rng, cat)))
    for cat, J, P in sites + vee_sites():
        sh = sheafify(P, J)
        assert (sh.sheaf.sizes, sh.sheaf.restrict, sh.unit.components, sh.families) \
            == _reference_sheafify(P, J)
        pp, eta = sheafify_plus_plus(P, J)
        for Q in (P, sh.sheaf, pp):
            verdict = is_sheaf(Q, J)
            assert verdict == _reference_is_sheaf(Q, J)
            non_sheaves += not verdict[0]
        ident = identity_morphism(P)
        for presentations in ((pp, eta, sh.sheaf, sh.unit), (sh.sheaf, sh.unit, pp, eta),
                              (P, ident, sh.sheaf, sh.unit), (sh.sheaf, sh.unit, P, ident)):
            got = _components_or_message(sheaf_comparison, P, J, *presentations)
            assert got == _components_or_message(_reference_sheaf_comparison, P, J,
                                                 *presentations)
            raised += isinstance(got, str)
        collapse = validate_presheaf_morphism(P, constant_presheaf(cat, 1),
                                              [(0,) * n for n in P.sizes])
        for alpha in (sh.unit, eta, ident, collapse):
            verdict = is_bicovering(alpha, J)
            assert verdict == _reference_is_bicovering(alpha, J)
            verdicts["bicovering", verdict] += 1
        for family, target in (([sh.unit], sh.sheaf), ([eta], pp), ([sh.unit, sh.unit], sh.sheaf),
                               ([], P)):
            verdict = family_locally_surjective(J, family, target)
            assert verdict == _reference_family_locally_surjective(J, family, target)
            verdicts["surjective", verdict] += 1
    assert raised and non_sheaves
    assert len(verdicts) == 4


def _reference_strict_matching_families(P, c, mask):
    """Each member's value forced by an earlier member, or else tried over
    every element of its domain and checked against the earlier members."""
    cat = P.cat
    members = sorted(bits(mask))
    out = []

    def extend(i, assign):
        if i == len(members):
            out.append(dict(assign))
            return
        f = members[i]
        forced = {P.res(z, xg) for g, xg in assign.items()
                  for z in cat.arrows_into(cat.dom[g]) if cat.compose(g, z) == f}
        if len(forced) > 1:
            return
        for x in forced or range(P.sizes[cat.dom[f]]):
            if all(P.res(z, x) == x if cat.compose(f, z) == f
                   else assign.get(cat.compose(f, z), P.res(z, x)) == P.res(z, x)
                   for z in cat.arrows_into(cat.dom[f])):
                assign[f] = x
                extend(i + 1, assign)
                del assign[f]

    extend(0, {})
    return out


def test_strict_matching_families_match_reference_scan(rng):
    """On every sieve of 150 random sites and of the leg-covered vees, for
    a presheaf and its sheafification, the lookup by restrictions and the
    search on constraint rows yield the families of the scan over every
    element, keyed by the ascending members, in the same order, also where
    the identity sorts after other arrows of the sieve."""
    late_identity = 0
    sites = []
    for _ in range(150):
        cat = random_category(rng)
        P = random_presheaf(rng, cat)
        sites.append((cat, random_topology(rng, cat), P))
    for cat, J, P in sites + vee_sites():
        for Q in (P, sheafify(P, J).sheaf):
            for c in cat.objects:
                for s in all_sieve_masks(cat, c):
                    members = sorted(bits(s))
                    assert [dict(zip(members, fam)) for fam in strict_matching_families(Q, c, s)] \
                        == _reference_strict_matching_families(Q, c, s)
                    late_identity += cat.identity[c] in bits(s) and min(bits(s)) != cat.identity[c]
    assert late_identity
    # arrow 1 is 0 -> 1 and sorts before id_1 = 2; P(1) swaps the two elements,
    # so the families over the maximal sieve on 1 do not come in element order
    two = poset_category(2, [(0, 1)])
    swap = validate_presheaf(two, (2, 2), ((0, 1), (1, 0), (0, 1)))
    assert strict_matching_families(swap, 1, 0b110) == [(0, 1), (1, 0)]
    assert _reference_strict_matching_families(swap, 1, 0b110) == [{1: 0, 2: 1}, {1: 1, 2: 0}]


# ---------------------------------------------------------------------------
# the plus construction against the body that rebuilt each family per pair

def _reference_plus_construction(P, J):
    """Each pair's family as sorted (arrow, value) items, every pair scanning
    every cover of its object and restricted along every arrow."""
    cat = P.cat
    pairs = []
    pair_index = []
    for c in cat.objects:
        lst = []
        for s in sorted(J.covers[c]):
            for values in strict_matching_families(P, c, s):
                lst.append((s, tuple(zip(sorted(bits(s)), values))))
        pairs.append(lst)
        pair_index.append({p: i for i, p in enumerate(lst)})

    classes = []
    reps = []
    for c in cat.objects:
        uf = _UnionFind(len(pairs[c]))
        for i, (s, fam_items) in enumerate(pairs[c]):
            fam = dict(fam_items)
            for t in J.covers[c]:
                if t & ~s == 0 and t != s:
                    restricted = tuple(sorted((f, fam[f]) for f in bits(t)))
                    uf.union(i, pair_index[c][(t, restricted)])
        roots = {}
        cls = []
        for i in range(len(pairs[c])):
            r = uf.find(i)
            if r not in roots:
                roots[r] = len(roots)
            cls.append(roots[r])
        classes.append(cls)
        reps.append(roots)

    sizes = tuple(len(reps[c]) for c in cat.objects)
    restrict = []
    for f in cat.arrows:
        a, b = cat.dom[f], cat.cod[f]
        row = [0] * sizes[b]
        for i, (s, fam_items) in enumerate(pairs[b]):
            fam = dict(fam_items)
            pb = pullback_mask(cat, s, f)
            restricted = tuple(sorted(
                (g, fam[cat.compose(f, g)]) for g in bits(pb)))
            row[classes[b][i]] = classes[a][pair_index[a][(pb, restricted)]]
        restrict.append(tuple(row))
    plus = validate_presheaf(cat, sizes, tuple(restrict))

    unit_components = []
    for c in cat.objects:
        top = maximal_sieve_mask(cat, c)
        comp = []
        for x in range(P.sizes[c]):
            fam = tuple(sorted((f, P.res(f, x)) for f in bits(top)))
            comp.append(classes[c][pair_index[c][(top, fam)]])
        unit_components.append(tuple(comp))
    return plus, validate_presheaf_morphism(P, plus, tuple(unit_components))


def test_plus_construction_matches_reference_body(rng):
    """On 600 random sites and presheaves (every seventh on the trivial
    topology) and on the leg-covered vees, P⁺ and P⁺⁺ have the sizes,
    restrictions and unit of the body that restricted every pair of a
    class."""
    merged = 0
    sites = []
    for i in range(600):
        cat = random_category(rng)
        J = trivial_topology(cat) if i % 7 == 0 else random_topology(rng, cat)
        sites.append((cat, J, random_presheaf(rng, cat)))
    for cat, J, Q in sites + vee_sites():
        for _ in range(2):
            plus, unit = plus_construction(Q, J)
            ref, ref_unit = _reference_plus_construction(Q, J)
            assert (plus.sizes, plus.restrict, unit.components) \
                == (ref.sizes, ref.restrict, ref_unit.components)
            merged += sum(plus.sizes) < sum(len(strict_matching_families(Q, c, s))
                                            for c in cat.objects for s in J.covers[c])
            Q = plus
    assert merged


class _UnreadableCovers(tuple):
    """Per-object covers that raise when any of them is read."""

    def __getitem__(self, c):
        raise AssertionError("the covers were read")

    def __iter__(self):
        raise AssertionError("the covers were read")


def _cover_blind(J):
    """J with its covers unreadable."""
    blind = GrothendieckTopology(J.cat, J.min_cover)
    blind.__dict__["covers"] = _UnreadableCovers()
    return blind


def test_plus_construction_and_continuity_read_only_the_least_covers(monkeypatch, rng):
    """P⁺ and P⁺⁺ are built from the least covers alone: with the covers
    unreadable they still equal the colimit over every cover, sizes,
    restrictions and units.  On every passing continuity check of the
    corpus, the sieve diagrams built are those of the least covers that do
    not hold the identity, one per object, in object order."""
    sites = []
    for i in range(60):
        cat = random_category(rng)
        J = trivial_topology(cat) if i % 7 == 0 else random_topology(rng, cat)
        sites.append((cat, J, random_presheaf(rng, cat)))
    for cat, J, P in sites + vee_sites():
        blind = _cover_blind(J)
        ref, ref_unit = _reference_plus_construction(P, J)
        ref2, ref_unit2 = _reference_plus_construction(ref, J)
        plus, unit = plus_construction(P, blind)
        pp, eta = sheafify_plus_plus(P, blind)
        assert (plus.sizes, plus.restrict, unit.components) \
            == (ref.sizes, ref.restrict, ref_unit.components)
        assert (pp.sizes, pp.restrict, eta.components) \
            == (ref2.sizes, ref2.restrict, ref_unit.then(ref_unit2).components)

    diagrams = []

    def recorded(cat, mask):
        diagrams.append(mask)
        return sieve_diagram(cat, mask)
    monkeypatch.setattr(mor, "sieve_diagram", recorded)
    passed = beyond = 0
    for sf in random_site_functors(rng, 300):
        diagrams.clear()
        if not is_continuous(sf).holds:
            continue
        C, J = sf.F.source, sf.J
        least = [J.min_cover[c] for c in C.objects if not (J.min_cover[c] >> C.identity[c]) & 1]
        assert diagrams == least
        passed += 1
        # a walk over every cover would build the diagram of another sieve
        beyond += any(s != J.min_cover[c] and not (s >> C.identity[c]) & 1
                      for c in C.objects for s in J.covers[c])
    assert passed and beyond, (passed, beyond)


# ---------------------------------------------------------------------------
# locally matching families against the search that rescanned every arrow

def _reference_locally_matching_families(P, J, members):
    """Each candidate checked against every arrow into its domain and every
    earlier member, by a scan at each step of the search."""
    cat = P.cat
    position = {f: i for i, f in enumerate(members)}
    out = []

    def extend(i, assign):
        if i == len(members):
            out.append(tuple(assign))
            return
        f = members[i]
        for x in range(P.sizes[cat.dom[f]]):
            ok = all(elem_locally_equal(P, J, cat.dom[z], x, P.res(z, x))
                     if cat.compose(f, z) == f
                     else position.get(cat.compose(f, z), i) >= i
                     or elem_locally_equal(P, J, cat.dom[z],
                                           assign[position[cat.compose(f, z)]], P.res(z, x))
                     for z in cat.arrows_into(cat.dom[f]))
            ok = ok and all(elem_locally_equal(P, J, cat.dom[f], x, P.res(z, assign[j]))
                            for j in range(i) for z in cat.arrows_into(cat.dom[members[j]])
                            if cat.compose(members[j], z) == f)
            if ok:
                assign.append(x)
                extend(i + 1, assign)
                assign.pop()

    extend(0, [])
    return out


def test_locally_matching_families_match_reference_search(rng):
    """On every sieve of 150 random sites and of the leg-covered vees, in
    ascending and in descending member order, for a presheaf and for one
    that is empty at an object, the search on class tables, and the
    families read off where the members hold the identity, are the
    families of the search that rescanned, in the same order.  The corpus
    reaches identity-carrying sieves where some local-equality class has
    more than one element."""
    empty_member = identity_carrying = merged_classes = 0
    sites = []
    for _ in range(150):
        cat = random_category(rng)
        J = random_topology(rng, cat)
        sites.append((cat, J, random_presheaf(rng, cat)))
    for cat, J, P in sites + vee_sites():
        # P emptied over the objects that object 0 maps to: a presheaf, as
        # those objects are closed under arrows out of them
        reach = {cat.cod[f] for f in cat.arrows_out_of(0)}
        E = validate_presheaf(cat, [0 if c in reach else P.sizes[c] for c in cat.objects],
                              [() if cat.cod[f] in reach else P.restrict[f] for f in cat.arrows])
        for Q in (P, E):
            for c in cat.objects:
                for s in all_sieve_masks(cat, c):
                    for members in (sorted(bits(s)), sorted(bits(s), reverse=True)):
                        got = _locally_matching_families(Q, J, c, members)
                        assert got == _reference_locally_matching_families(Q, J, members)
                        empty_member += any(Q.sizes[cat.dom[f]] == 0 for f in members)
                        if cat.identity[c] in members and got:
                            identity_carrying += 1
                            # some restriction has a locally equal element besides itself
                            merged_classes += any(
                                elem_locally_equal(Q, J, cat.dom[f], Q.res(f, x), y)
                                for f in members for x in range(Q.sizes[c])
                                for y in range(Q.sizes[cat.dom[f]]) if y != Q.res(f, x))
    assert empty_member
    assert identity_carrying and merged_classes


# ---------------------------------------------------------------------------
# C_J and C_J^s against the search over subsets of arrow pairs

REFERENCE_MAX_RELATION_PAIRS = 16


def _reference_arrow_pair_universe(cat, c, d):
    return [(f, g) for e in cat.objects
            for f in cat.hom(e, c) for g in cat.hom(e, d)]


def _reference_is_CJ_relation(cat, J, c, d, rel):
    # (i) precomposition closure
    for (f, g) in rel:
        for k in cat.arrows_into(cat.dom[f]):
            if (cat.compose(f, k), cat.compose(g, k)) not in rel:
                return False
    # (ii) J-closedness
    for e in cat.objects:
        for x in cat.hom(e, c):
            for y in cat.hom(e, d):
                if (x, y) in rel:
                    continue
                s = mask_of(h for h in cat.arrows_into(e)
                            if (cat.compose(x, h), cat.compose(y, h)) in rel)
                if J.is_covering(e, s):
                    return False
    # (iii) local single-valuedness
    for (x, y) in rel:
        for (x2, y2) in rel:
            if x == x2:
                e = cat.dom[x]
                s = mask_of(h for h in cat.arrows_into(e)
                            if cat.compose(y, h) == cat.compose(y2, h))
                if not J.is_covering(e, s):
                    return False
    # (iv) local totality
    for e in cat.objects:
        for x in cat.hom(e, c):
            s = mask_of(h for h in cat.arrows_into(e)
                        if any((cat.compose(x, h), y) in rel
                               for y in cat.hom(cat.dom[h], d)))
            if not J.is_covering(e, s):
                return False
    return True


def _reference_compose_CJ(cat, J, S, R, c, d, a):
    """S * R for R: c -> d and S: d -> a, on pairs of arrows."""
    out = set()
    for e in cat.objects:
        for x in cat.hom(e, c):
            for z in cat.hom(e, a):
                s = mask_of(
                    h for h in cat.arrows_into(e)
                    if any((cat.compose(x, h), y) in R and (y, cat.compose(z, h)) in S
                           for y in cat.hom(cat.dom[h], d)))
                if J.is_covering(e, s):
                    out.add((x, z))
    return frozenset(out)


def _reference_build_CJ(cat, J):
    """Arrows c -> d are the subsets of arrow pairs that are
    precomposition-closed, locally closed, locally single-valued and locally
    total, composed by the * formula; returns (arrow_decode, category)."""
    homs = {}
    for c in cat.objects:
        for d in cat.objects:
            universe = _reference_arrow_pair_universe(cat, c, d)
            if len(universe) > REFERENCE_MAX_RELATION_PAIRS:
                raise SizeGuardError(
                    f"hom({c},{d}) pair universe has {len(universe)} entries")
            rels = []
            for k in range(len(universe) + 1):
                for combo in itertools.combinations(universe, k):
                    rel = frozenset(combo)
                    if _reference_is_CJ_relation(cat, J, c, d, rel):
                        rels.append(rel)
            homs[(c, d)] = tuple(sorted(rels, key=sorted))

    arrow_decode = [(c, d, rel)
                    for c in cat.objects for d in cat.objects
                    for rel in homs[(c, d)]]
    arr_index = {t: i for i, t in enumerate(arrow_decode)}
    identities = []
    for c in cat.objects:
        ident = frozenset(
            (f, g) for e in cat.objects
            for f in cat.hom(e, c) for g in cat.hom(e, c)
            if J.is_covering(e, mask_of(
                h for h in cat.arrows_into(e)
                if cat.compose(f, h) == cat.compose(g, h))))
        identities.append(arr_index[(c, c, ident)])
    comp = {}
    for j, (d2, a, S) in enumerate(arrow_decode):
        for i, (c, d, R) in enumerate(arrow_decode):
            if d == d2:
                comp[(j, i)] = arr_index[(c, a, _reference_compose_CJ(cat, J, S, R, c, d, a))]
    category = validate_category(
        cat.n_objects, [(c, d) for c, d, _ in arrow_decode], identities, comp)
    return tuple(arrow_decode), category


def _reference_is_CJs_relation(cat, J, S, T, c, d, rel):
    for (x, y) in rel:
        if not ((S >> x) & 1 and (T >> y) & 1):
            return False
        for k in cat.arrows_into(cat.dom[x]):
            if (cat.compose(x, k), cat.compose(y, k)) not in rel:
                return False
    for x in bits(S):
        for y in bits(T):
            if cat.dom[x] != cat.dom[y] or (x, y) in rel:
                continue
            e = cat.dom[x]
            s = mask_of(h for h in cat.arrows_into(e)
                        if (cat.compose(x, h), cat.compose(y, h)) in rel)
            if J.is_covering(e, s):
                return False
    for (x, y) in rel:
        for (x2, y2) in rel:
            if x == x2:
                e = cat.dom[x]
                s = mask_of(h for h in cat.arrows_into(e)
                            if cat.compose(y, h) == cat.compose(y2, h))
                if not J.is_covering(e, s):
                    return False
    for x in bits(S):
        e = cat.dom[x]
        s = mask_of(h for h in cat.arrows_into(e)
                    if any((cat.compose(x, h), y) in rel
                           for y in cat.hom(cat.dom[h], d) if (T >> y) & 1))
        if not J.is_covering(e, s):
            return False
    return True


def _reference_build_CJs(cat, J):
    """C_J^s on pairs (c, J-closed sieve on c) by the same subset search;
    returns (objects, arrow_decode, category)."""
    objects = [(c, s) for c in cat.objects for s in closed_sieves(cat, J, c)]
    homs = {}
    for i, (c, S) in enumerate(objects):
        for j, (d, T) in enumerate(objects):
            universe = [(x, y) for x in bits(S) for y in bits(T)
                        if cat.dom[x] == cat.dom[y]]
            if len(universe) > REFERENCE_MAX_RELATION_PAIRS:
                raise SizeGuardError(
                    f"hom-set pair universe has {len(universe)} entries")
            rels = []
            for k in range(len(universe) + 1):
                for combo in itertools.combinations(universe, k):
                    rel = frozenset(combo)
                    if _reference_is_CJs_relation(cat, J, S, T, c, d, rel):
                        rels.append(rel)
            homs[(i, j)] = tuple(sorted(rels, key=sorted))

    arrow_decode = [(i, j, rel)
                    for i in range(len(objects)) for j in range(len(objects))
                    for rel in homs[(i, j)]]
    arr_index = {t: a for a, t in enumerate(arrow_decode)}
    identities = []
    for i, (c, S) in enumerate(objects):
        ident = frozenset(
            (x, y) for x in bits(S) for y in bits(S)
            if cat.dom[x] == cat.dom[y]
            and J.is_covering(cat.dom[x], mask_of(
                h for h in cat.arrows_into(cat.dom[x])
                if cat.compose(x, h) == cat.compose(y, h))))
        identities.append(arr_index[(i, i, ident)])
    comp = {}
    for b, (j2, k, S2) in enumerate(arrow_decode):
        for a, (i, j, R) in enumerate(arrow_decode):
            if j == j2:
                out = set()
                for x in bits(objects[i][1]):
                    for z in bits(objects[k][1]):
                        if cat.dom[x] != cat.dom[z]:
                            continue
                        s = mask_of(
                            h for h in cat.arrows_into(cat.dom[x])
                            if any((cat.compose(x, h), y) in R
                                   and (y, cat.compose(z, h)) in S2
                                   for y in bits(objects[j][1])
                                   if cat.dom[y] == cat.dom[h]))
                        if J.is_covering(cat.dom[x], s):
                            out.add((x, z))
                comp[(b, a)] = arr_index[(i, k, frozenset(out))]
    category = validate_category(
        len(objects), [(i, j) for i, j, _ in arrow_decode], identities, comp)
    return tuple(objects), tuple(arrow_decode), category


def _reference_sheaf_arrow(cjs, J, a):
    """The sheaf arrow of arrow a of C_J^s, rebuilt from its relation."""
    cat = cjs.site_cat
    i, j, rel = cjs.arrow_decode[a]
    (c, S), (d, T) = cjs.objects[i], cjs.objects[j]
    carrier_i, _ = sieve_subpresheaf(cat, c, S).as_presheaf()
    carrier_j, _ = sieve_subpresheaf(cat, d, T).as_presheaf()
    idx_i = [{x: k for k, x in enumerate(h for h in cat.hom(e, c) if (S >> h) & 1)}
             for e in cat.objects]
    idx_j = [{y: k for k, y in enumerate(h for h in cat.hom(e, d) if (T >> h) & 1)}
             for e in cat.objects]
    pairs = tuple(frozenset((idx_i[e][x], idx_j[e][y]) for (x, y) in rel if cat.dom[x] == e)
                  for e in cat.objects)
    R = FunctionalRelation(carrier_i, carrier_j, pairs)
    return relation_to_arrow(J, R, cjs.sheaves[i], cjs.sheaves[j])


def _category_tables(cat):
    return cat.dom, cat.cod, cat.identity, cat.composites


def _assert_CJ_and_CJs_match_reference(cat, J):
    ref_decode, ref_cat = _reference_build_CJ(cat, J)
    cj = build_CJ(cat, J)
    assert cj.arrow_decode == ref_decode
    assert _category_tables(cj.category) == _category_tables(ref_cat)
    ref_objects, ref_decode, ref_cat = _reference_build_CJs(cat, J)
    cjs = build_CJs(cat, J)
    assert (cjs.objects, cjs.arrow_decode) == (ref_objects, ref_decode)
    assert _category_tables(cjs.category) == _category_tables(ref_cat)
    return cj, cjs


def _left_zero_monoid():
    """The monoid {1, a, b} with a∘x = a and b∘x = b."""
    return monoid_category([[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0)


NAMED_SITES = [
    pytest.param(make, top, id=f"{name}-{top.__name__.removesuffix('_topology')}")
    for name, make in [("two", make_two),
                       ("3-chain", lambda: poset_category(3, [(0, 1), (1, 2)])),
                       ("Z2", z2_category), ("idempotent", idempotent_monoid_category)]
    for top in (atomic_topology, trivial_topology)
] + [
    # the search yields the matching families of some hom-sets in another
    # order than their relations
    pytest.param(_left_zero_monoid, lambda cat: generate_topology(cat, [(0, mask_of([1, 2]))]),
                 id="left-zero-generated"),
]


@pytest.mark.parametrize("make, topology", NAMED_SITES)
def test_CJ_and_CJs_match_reference_on_named_sites(make, topology):
    """Objects, arrows in their order, identities and composition are the
    subset search's, and each sheaf arrow of C_J^s is the one its relation
    names."""
    cat = make()
    J = topology(cat)
    _, cjs = _assert_CJ_and_CJs_match_reference(cat, J)
    for a in cjs.category.arrows:
        assert cjs.sheaf_arrows[a].components == _reference_sheaf_arrow(cjs, J, a).components


def test_CJ_and_CJs_match_reference_on_random_sites(rng):
    """On 300 random sites, each within the reference's pair limit, C_J and
    C_J^s have the subset search's objects, arrows in the same order,
    identities and composition."""
    for _ in range(300):
        cat = random_category(rng)
        _assert_CJ_and_CJs_match_reference(cat, random_topology(rng, cat))
