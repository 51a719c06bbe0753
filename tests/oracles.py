"""Reference bodies of the paper's calculus that no checker in sitecalc reads.

The J-functional relations between presheaves, with composition, the graph
of an arrow and the passage from a relation to an arrow of sheaves, are the
paper's description of the arrows of Sh(C, J); the tests use them as the
oracle for the theorem on arrows, against the sheafified presheaf morphisms
the checkers compute with.  `enumerate_topologies` lists every topology on a
small category by brute force, the oracle for the constructors of the
topology module, and `reference_topology_where` builds a topology from a
condition by testing every sieve, where the constructor reads one sieve
per arrow.  `reference_sieve_masks` lists the sieves on an object as
the unions of every subset of principal sieves.  Two bodies give the
violated axioms of a family of sieves: `brute_force_axiom_violations`
pulls back along every arrow, and `reference_axiom_violations` is the
validation body as it was before it skipped the members of a sieve and
the identity.  `reference_closure_mask` scans every arrow for the closure
of a sieve.  `reference_local_equality` decides local equality by the
agreement sieve over every arrow, where the topology compares per-arrow
keys, and `reference_fixpoint_topology` is the generation fixpoint as it
was before it skipped the members of each least cover.
`reference_is_sheaf`, `reference_sheaf_comparison`,
`reference_elem_locally_equal`, `reference_closure_cJ`,
`reference_induced_family`, `reference_cover_preserving`,
`reference_cover_reflecting`, `reference_covering_lifting` and
`reference_is_continuous` are the checks over covering sieves as they
walked every cover, every sieve or every arrow into c, where the checkers
read the least covers or their generators.
`subpresheaves` lists every subpresheaf and
`enumerate_presheaf_morphisms` every natural transformation, the searches
that the reference bodies of the comorphism checks run and that the
checkers replace; `reference_comorphism_inclusion` is the inclusion check
by its relation and local-splitting clauses, through every sheaf arrow.
The other `reference_*` site-checker bodies are the versions that
carried their own copy of a building block the checkers now share:
the hom-set scans, the colimit comparison and the connection loop;
`reference_j_faithful` and `reference_j_full` scan every parallel pair
and every arrow of a hom-set where `morphisms.local_property_tests` reads
images off masks, and `reference_morphism_of_sites` scans every cone for
each arrow where the checker reads cone bitmasks.  The constructors of
derived categories (comma, full subcategory, quotient, poset, elements and
sieve-diagram shape) are kept
here as they were before they shared `fincat.derived_category`, each with
its own index and composition code; `category_from_table` turns their pair
mappings into the rows a category stores.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from sitecalc.factorizations import _ab_categories
from sitecalc.fincat import (MAX_ARROWS, FinCategory, FinFunctor, SizeGuardError,
                            validate_category, validate_functor)
from sitecalc.morphisms import (
    SiteFunctor,
    Verdict,
    _chi_morphism,
    _CommaComponents,
    _diagram_shape,
    _hom_presheaf,
    _no,
    _sheafified,
    _yes,
    _yoneda_sheaf_arrow,
    is_cover_preserving,
    sieve_diagram,
)
from sitecalc.presheaf import (
    FinPresheaf,
    PresheafMorphism,
    SheafificationResult,
    SubPresheaf,
    _by_restrictions,
    _unamalgamated,
    colimit_presheaf,
    is_bicovering,
    sheafify,
    sheafify_morphism,
    validate_presheaf,
    validate_presheaf_morphism,
    yoneda,
)
from sitecalc.sieves import (
    all_sieve_masks,
    bits,
    generate_mask,
    mask_of,
    maximal_sieve_mask,
    multicompose_mask,
    preimage_mask,
    pullback_mask,
)
from sitecalc.topology import GrothendieckTopology, TopologyError, _axiom_violations, topology_where


# ---------------------------------------------------------------------------
# presheaf combinators

def product_presheaf(P: FinPresheaf, Q: FinPresheaf) -> FinPresheaf:
    cat = P.cat
    sizes = tuple(P.sizes[c] * Q.sizes[c] for c in cat.objects)
    restrict = []
    for f in cat.arrows:
        a, b = cat.dom[f], cat.cod[f]
        row = []
        for x in range(P.sizes[b]):
            for y in range(Q.sizes[b]):
                row.append(P.res(f, x) * Q.sizes[a] + Q.res(f, y))
        restrict.append(tuple(row))
    return validate_presheaf(cat, sizes, tuple(restrict))


def pair_elem(Q: FinPresheaf, c: int, x: int, y: int) -> int:
    return x * Q.sizes[c] + y


def unpair_elem(Q: FinPresheaf, c: int, z: int) -> tuple[int, int]:
    return divmod(z, Q.sizes[c])


# ---------------------------------------------------------------------------
# J-functional relations

@dataclass(frozen=True)
class FunctionalRelation:
    source: FinPresheaf
    target: FinPresheaf
    pairs: tuple[frozenset[tuple[int, int]], ...]  # per object

    def holds(self, c: int, x: int, y: int) -> bool:
        return (x, y) in self.pairs[c]


def validate_functional_relation(R: FunctionalRelation,
                                 J: GrothendieckTopology) -> tuple[bool, dict | None]:
    P, Q = R.source, R.target
    cat = P.cat
    for c in cat.objects:
        for (x, y) in R.pairs[c]:
            for f in cat.arrows_into(c):
                if (P.res(f, x), Q.res(f, y)) not in R.pairs[cat.dom[f]]:
                    return False, {"clause": "functoriality", "object": c,
                                   "pair": (x, y), "arrow": f}
    for c in cat.objects:
        for x in range(P.sizes[c]):
            for y in range(Q.sizes[c]):
                if (x, y) in R.pairs[c]:
                    continue
                s = mask_of(f for f in cat.arrows_into(c)
                            if (P.res(f, x), Q.res(f, y)) in R.pairs[cat.dom[f]])
                if J.is_covering(c, s):
                    return False, {"clause": "i", "object": c, "pair": (x, y)}
    for c in cat.objects:
        for (x, y) in R.pairs[c]:
            for (x2, y2) in R.pairs[c]:
                if x == x2 and not reference_elem_locally_equal(Q, J, c, y, y2):
                    return False, {"clause": "ii", "object": c, "pairs": ((x, y), (x2, y2))}
    for c in cat.objects:
        for x in range(P.sizes[c]):
            s = mask_of(f for f in cat.arrows_into(c)
                        if any((P.res(f, x), y) in R.pairs[cat.dom[f]]
                               for y in range(Q.sizes[cat.dom[f]])))
            if not J.is_covering(c, s):
                return False, {"clause": "iii", "object": c, "element": x}
    return True, None


def identity_relation(P: FinPresheaf, J: GrothendieckTopology) -> FunctionalRelation:
    cat = P.cat
    pairs = tuple(
        frozenset((x, y) for x in range(P.sizes[c]) for y in range(P.sizes[c])
                  if reference_elem_locally_equal(P, J, c, x, y))
        for c in cat.objects)
    return FunctionalRelation(P, P, pairs)


def graph_relation(alpha: PresheafMorphism, J: GrothendieckTopology) -> FunctionalRelation:
    """J-closed graph of a presheaf morphism."""
    P, Q = alpha.source, alpha.target
    pairs = tuple(
        frozenset((x, y) for x in range(P.sizes[c]) for y in range(Q.sizes[c])
                  if reference_elem_locally_equal(Q, J, c, alpha.at(c, x), y))
        for c in P.cat.objects)
    return FunctionalRelation(P, Q, pairs)


def compose_relations(J: GrothendieckTopology, S: FunctionalRelation,
                      R: FunctionalRelation) -> FunctionalRelation:
    """(S * R)(c) = {(x, z) | {f | some y links them through R then S} covers c}."""
    if R.target != S.source:
        raise ValueError("relations not composable")
    P, Q, Z = R.source, R.target, S.target
    cat = P.cat
    pairs = []
    for c in cat.objects:
        good = set()
        for x in range(P.sizes[c]):
            for z in range(Z.sizes[c]):
                s = mask_of(
                    f for f in cat.arrows_into(c)
                    if any((P.res(f, x), y) in R.pairs[cat.dom[f]]
                           and (y, Z.res(f, z)) in S.pairs[cat.dom[f]]
                           for y in range(Q.sizes[cat.dom[f]])))
                if J.is_covering(c, s):
                    good.add((x, z))
        pairs.append(frozenset(good))
    return FunctionalRelation(P, Z, tuple(pairs))


def arrow_to_relation(shP: SheafificationResult, shQ: SheafificationResult,
                      xi: PresheafMorphism) -> FunctionalRelation:
    """(x, y) in R_xi iff xi(eta_P(x)) = eta_Q(y)."""
    P, Q = shP.presheaf, shQ.presheaf
    cat = P.cat
    pairs = tuple(
        frozenset((x, y) for x in range(P.sizes[c]) for y in range(Q.sizes[c])
                  if xi.at(c, shP.unit.at(c, x)) == shQ.unit.at(c, y))
        for c in cat.objects)
    return FunctionalRelation(P, Q, pairs)


def relation_presheaf(R: FunctionalRelation) -> tuple[FinPresheaf, tuple[tuple[tuple[int, int], ...], ...]]:
    """The relation as a presheaf (requires functoriality)."""
    P, Q = R.source, R.target
    cat = P.cat
    elems = tuple(tuple(sorted(R.pairs[c])) for c in cat.objects)
    index = [{p: i for i, p in enumerate(elems[c])} for c in cat.objects]
    restrict = []
    for f in cat.arrows:
        a, b = cat.dom[f], cat.cod[f]
        restrict.append(tuple(
            index[a][(P.res(f, x), Q.res(f, y))] for (x, y) in elems[b]))
    return validate_presheaf(cat, tuple(len(e) for e in elems), tuple(restrict)), elems


def split_product_element(shP: SheafificationResult, shQ: SheafificationResult,
                          shPQ: SheafificationResult, c: int, elt: int) -> tuple[int, int]:
    """a_J(P×Q) ≅ a_J(P) × a_J(Q), on the canonical family representatives."""
    Q = shQ.presheaf
    fam = shPQ.families[c][elt]
    cat = shP.presheaf.cat
    doms = [cat.dom[f] for f in shPQ.carrier[c]]
    first = tuple(unpair_elem(Q, doms[i], z)[0] for i, z in enumerate(fam))
    second = tuple(unpair_elem(Q, doms[i], z)[1] for i, z in enumerate(fam))
    return shP._index[c][first], shQ._index[c][second]


def relation_to_arrow(J: GrothendieckTopology, R: FunctionalRelation,
                      shP: SheafificationResult, shQ: SheafificationResult) -> PresheafMorphism:
    """The sheaf arrow a_J(P) -> a_J(Q) whose graph is a_J(R)."""
    P, Q = R.source, R.target
    cat = P.cat
    PQ = product_presheaf(P, Q)
    shPQ = sheafify(PQ, J)
    carrier, elems = relation_presheaf(R)
    shR = sheafify(carrier, J)
    incl = validate_presheaf_morphism(carrier, PQ, tuple(
        tuple(pair_elem(Q, c, x, y) for (x, y) in elems[c]) for c in cat.objects))
    a_incl = sheafify_morphism(incl, shR, shPQ)

    graph: list[dict[int, int]] = [dict() for _ in cat.objects]
    for c in cat.objects:
        for r in range(shR.sheaf.sizes[c]):
            u, v = split_product_element(shP, shQ, shPQ, c, a_incl.at(c, r))
            if u in graph[c] and graph[c][u] != v:
                raise ValueError(f"relation is not single-valued as a sheaf graph at {c}")
            graph[c][u] = v
    components = []
    for c in cat.objects:
        if len(graph[c]) != shP.sheaf.sizes[c]:
            raise ValueError(f"relation is not total as a sheaf graph at object {c}")
        components.append(tuple(graph[c][u] for u in range(shP.sheaf.sizes[c])))
    return validate_presheaf_morphism(shP.sheaf, shQ.sheaf, tuple(components))


def relation_is_mono(R: FunctionalRelation, J: GrothendieckTopology) -> bool:
    P = R.source
    cat = P.cat
    for c in cat.objects:
        for (x, y) in R.pairs[c]:
            for (x2, y2) in R.pairs[c]:
                if y == y2 and not reference_elem_locally_equal(P, J, c, x, x2):
                    return False
    return True


def relation_is_epi(R: FunctionalRelation, J: GrothendieckTopology) -> bool:
    P, Q = R.source, R.target
    cat = P.cat
    for c in cat.objects:
        for y in range(Q.sizes[c]):
            s = mask_of(f for f in cat.arrows_into(c)
                        if any((x, Q.res(f, y)) in R.pairs[cat.dom[f]]
                               for x in range(P.sizes[cat.dom[f]])))
            if not J.is_covering(c, s):
                return False
    return True


# ---------------------------------------------------------------------------
# subpresheaves, by enumeration

def subpresheaves(P: FinPresheaf) -> list[SubPresheaf]:
    """All subpresheaves (restriction-closed element selections), in the
    order of their members per object, (size, sorted members), the first
    object most significant."""
    cat = P.cat
    out = []
    choices = [list(_subsets(range(P.sizes[c]))) for c in cat.objects]
    for combo in itertools.product(*choices):
        ok = True
        for f in cat.arrows:
            a, b = cat.dom[f], cat.cod[f]
            if any(P.res(f, x) not in combo[a] for x in combo[b]):
                ok = False
                break
        if ok:
            out.append(SubPresheaf(P, tuple(frozenset(m) for m in combo)))
    return out


def _subsets(xs):
    xs = list(xs)
    for k in range(len(xs) + 1):
        yield from (frozenset(c) for c in itertools.combinations(xs, k))


# ---------------------------------------------------------------------------
# natural transformations, by enumeration

def enumerate_presheaf_morphisms(P: FinPresheaf, Q: FinPresheaf) -> list[PresheafMorphism]:
    """All natural transformations P -> Q, by backtracking over objects.
    Before it tries the |Q(c)|^|P(c)| candidate components at an object c,
    it raises SizeGuardError if they number more than 2^20.  Each one found
    is built by `validate_presheaf_morphism`, as the tests build presheaf
    data."""
    cat = P.cat
    objs = list(cat.objects)
    out = []

    def extend(i: int, comps: dict[int, tuple[int, ...]]):
        if i == len(objs):
            out.append(validate_presheaf_morphism(P, Q, tuple(comps[c] for c in objs)))
            return
        c = objs[i]
        if Q.sizes[c] ** P.sizes[c] > 1 << 20:
            raise SizeGuardError(f"{Q.sizes[c]}^{P.sizes[c]} candidate components "
                                 f"at object {c} exceed 2^20")
        for comp in itertools.product(range(Q.sizes[c]), repeat=P.sizes[c]):
            ok = True
            for f in cat.arrows:
                a, b = cat.dom[f], cat.cod[f]
                if b == c and a in comps:
                    if any(Q.res(f, comp[x]) != comps[a][P.res(f, x)]
                           for x in range(P.sizes[b])):
                        ok = False
                        break
                elif a == c and b in comps:
                    if any(Q.res(f, comps[b][x]) != comp[P.res(f, x)]
                           for x in range(P.sizes[b])):
                        ok = False
                        break
                elif a == c and b == c:
                    if any(Q.res(f, comp[x]) != comp[P.res(f, x)]
                           for x in range(P.sizes[b])):
                        ok = False
                        break
            if ok:
                comps[c] = comp
                extend(i + 1, comps)
                del comps[c]

    extend(0, {})
    return out


# ---------------------------------------------------------------------------
# sieves, by brute force

def reference_sieve_masks(cat: FinCategory, c: int) -> tuple[int, ...]:
    """Every sieve on c, in ascending order, as the unions of every subset
    of the distinct principal sieves ⟨f⟩ for f into c: subset i is the
    union of the subset i without its lowest index and the sieve at that
    index."""
    principal = list(dict.fromkeys(cat.principal_sieves[f] for f in cat.arrows_into(c)))
    unions = [0] * (1 << len(principal))
    for i in range(1, len(unions)):
        low = i & -i
        unions[i] = unions[i ^ low] | principal[low.bit_length() - 1]
    return tuple(sorted(set(unions)))


# ---------------------------------------------------------------------------
# topologies, by brute force

def enumerate_topologies(cat: FinCategory) -> list[GrothendieckTopology]:
    """All topologies, by brute force; restricted to categories with at most
    4 arrows per object (doubly exponential beyond that)."""
    if any(len(cat.arrows_into(c)) > 4 for c in cat.objects):
        raise SizeGuardError("topology enumeration needs <= 4 arrows per object")
    per_object = []
    for c in cat.objects:
        sieves = all_sieve_masks(cat, c)
        maximal = maximal_sieve_mask(cat, c)
        rest = [s for s in sieves if s != maximal]
        families = []
        for k in range(len(rest) + 1):
            for chosen in itertools.combinations(rest, k):
                fam = set(chosen) | {maximal}
                # upward closure among sieves is necessary, prune early
                if all(t in fam for s in fam for t in sieves if s & ~t == 0):
                    families.append(frozenset(fam))
        per_object.append(families)
    return [topology_where(cat, lambda c, s, combo=combo: s in combo[c])
            for combo in itertools.product(*per_object) if not _axiom_violations(cat, combo)]


def reference_topology_where(cat: FinCategory, covers) -> tuple[frozenset[int], ...]:
    """The covering sieves on each object c of the topology whose covers are
    the sieves s with covers(c, s), as `topology_where` found them before it
    read the least covers: every sieve tested, each family built in
    ascending order, and the axioms checked on the families.  A condition
    that breaks an axiom raises TopologyError listing every violation."""
    families = tuple(frozenset(s for s in all_sieve_masks(cat, c) if covers(c, s))
                     for c in cat.objects)
    violations = _axiom_violations(cat, families)
    if violations:
        raise TopologyError(violations)
    return families


def brute_force_axiom_violations(cat: FinCategory, covers) -> list[dict]:
    """Every violated axiom instance, found by pulling each cover back
    along every arrow, and each non-covering sieve back along every member
    of every cover."""
    violations = []
    for c in cat.objects:
        if maximal_sieve_mask(cat, c) not in covers[c]:
            violations.append({"axiom": "maximality", "object": c})
    for c in cat.objects:
        for s in covers[c]:
            for f in cat.arrows_into(c):
                pb = pullback_mask(cat, s, f)
                if pb not in covers[cat.dom[f]]:
                    violations.append(
                        {"axiom": "stability", "object": c, "sieve": s, "arrow": f, "pullback": pb})
    for c in cat.objects:
        non_covering = [s for s in all_sieve_masks(cat, c) if s not in covers[c]]
        for s in non_covering:
            for t in covers[c]:
                if all(pullback_mask(cat, s, f) in covers[cat.dom[f]] for f in bits(t)):
                    violations.append(
                        {"axiom": "transitivity", "object": c, "sieve": s, "via": t})
                    break
    return violations


def reference_axiom_violations(cat: FinCategory, covers) -> list[dict]:
    """Every violated axiom instance, in the order maximality, stability,
    transitivity, each by object, as validation found them before it used
    what a sieve gives along its own members: a cover S is stable when
    each arrow into c lies in its closure cl(S); a non-covering S breaks
    transitivity via the first cover T ⊆ cl(S), every member of cl(S)
    decided by a pullback, at most once."""
    def in_closure(mask: int, f: int) -> bool:
        return pullback_mask(cat, mask, f) in covers[cat.dom[f]]

    violations = []
    for c in cat.objects:
        if maximal_sieve_mask(cat, c) not in covers[c]:
            violations.append({"axiom": "maximality", "object": c})
    for c in cat.objects:
        for s in covers[c]:
            for f in cat.arrows_into(c):
                if not in_closure(s, f):
                    violations.append({"axiom": "stability", "object": c, "sieve": s, "arrow": f,
                                       "pullback": pullback_mask(cat, s, f)})
    for c in cat.objects:
        for s in all_sieve_masks(cat, c):
            if s in covers[c]:
                continue
            inside = outside = 0  # arrows found in cl(S) and outside it
            for t in covers[c]:
                if t & outside:
                    continue
                for f in bits(t & ~inside):
                    if not in_closure(s, f):
                        outside |= 1 << f
                        break
                    inside |= 1 << f
                else:
                    violations.append({"axiom": "transitivity", "object": c, "sieve": s, "via": t})
                    break
    return violations


def reference_closure_mask(J: GrothendieckTopology, c: int, mask: int) -> int:
    """cl(S) = {f | f*(S) is J-covering}, by pulling S back along every
    arrow into c."""
    cat = J.cat
    return mask_of(f for f in cat.arrows_into(c)
                   if pullback_mask(cat, mask, f) in J.covers[cat.dom[f]])


def reference_local_equality(J: GrothendieckTopology, h: int, k: int) -> bool:
    """h ≡_J k: the agreement sieve {f | h∘f = k∘f}, over every arrow into
    dom h, covers.  Arrows that are not parallel raise ValueError."""
    cat = J.cat
    if cat.dom[h] != cat.dom[k] or cat.cod[h] != cat.cod[k]:
        raise ValueError("local equality needs parallel arrows")
    agree = mask_of(f for f, hf, kf in zip(cat.arrows_into(cat.dom[h]), cat.composites[h],
                                           cat.composites[k]) if hf == kf)
    return J.is_covering(cat.dom[h], agree)


def reference_fixpoint_topology(cat: FinCategory, base) -> GrothendieckTopology:
    """The least topology over the base pairs by the descending fixpoint on
    the least covers as it ran before it skipped the members of m_c: m_c
    pulled back along every arrow into c, then composed with the least
    covers of the domains of its members."""
    m = list(cat.maximal_sieves)
    for c, mask in base:
        m[c] &= mask
    changed = True
    while changed:
        changed = False
        for c in cat.objects:
            for f in cat.arrows_into(c):
                d = cat.dom[f]
                pb = m[d] & pullback_mask(cat, m[c], f)
                if pb != m[d]:
                    m[d] = pb
                    changed = True
            composed = multicompose_mask(cat, m[c], {g: m[cat.dom[g]] for g in bits(m[c])})
            if composed != m[c]:
                m[c] = composed
                changed = True
    return topology_where(cat, lambda c, s: s & m[c] == m[c])


# ---------------------------------------------------------------------------
# checks over covering sieves: the bodies that walked every cover or sieve
# where the checkers now read the least covers

def reference_is_sheaf(P: FinPresheaf, J: GrothendieckTopology) -> tuple[bool, dict | None]:
    """The sheaf condition on every covering sieve, in the order of
    `J.covers`."""
    for c in P.cat.objects:
        for s in J.covers[c]:
            failure = _unamalgamated(P, c, s)
            if failure is not None:
                fam, amalg = failure
                return False, {"object": c, "sieve": s, "family": fam,
                               "amalgamations": amalg}
    return True, None


def reference_sheaf_comparison(P: FinPresheaf, J: GrothendieckTopology,
                               E1: FinPresheaf, eta1: PresheafMorphism,
                               E2: FinPresheaf, eta2: PresheafMorphism) -> PresheafMorphism:
    """The comparison E1 -> E2 with each candidate's agreement set, over
    every arrow into c, tested against every cover; the units are not
    validated."""
    cat = P.cat
    over = []
    for d in cat.objects:
        images: list[set[int]] = [set() for _ in range(E1.sizes[d])]
        for x in range(P.sizes[d]):
            images[eta1.at(d, x)].add(eta2.at(d, x))
        over.append(images)
    components = []
    for c in cat.objects:
        members = sorted(bits(J.min_cover[c]))
        by_key = _by_restrictions(E2, c, members)
        member_rows = [(E1.restrict[f], over[cat.dom[f]]) for f in members]
        into = [(1 << f, E1.restrict[f], E2.restrict[f], over[cat.dom[f]])
                for f in cat.arrows_into(c)]
        covers = J.covers[c]
        comp = []
        for e in range(E1.sizes[c]):
            options = [images[row[e]] for row, images in member_rows]
            if math.prod(len(o) for o in options) > E2.sizes[c]:
                candidates = range(E2.sizes[c])
            else:
                candidates = sorted(v for key in itertools.product(*options)
                                    for v in by_key.get(key, ()))
            triples = [(bit, row2, images[row1[e]]) for bit, row1, row2, images in into]
            found = [v for v in candidates
                     if sum(bit for bit, row, image in triples if row[v] in image) in covers]
            if len(found) != 1:
                raise ValueError(
                    f"sheaf comparison not uniquely defined at object {c}, element {e}: {found}")
            comp.append(found[0])
        components.append(tuple(comp))
    return validate_presheaf_morphism(E1, E2, components)


def reference_elem_locally_equal(P: FinPresheaf, J: GrothendieckTopology,
                                 c: int, x: int, y: int) -> bool:
    """x ≡_J y: the agreement set over every arrow into c covers."""
    if x == y:
        return True
    cat = P.cat
    agree = mask_of(f for f in cat.arrows_into(c) if P.res(f, x) == P.res(f, y))
    return J.is_covering(c, agree)


def reference_closure_cJ(A: SubPresheaf, J: GrothendieckTopology) -> tuple[frozenset[int], ...]:
    """The members of c_J(A): each x whose set {f | x·f in A} over every
    arrow into c covers."""
    E = A.ambient
    cat = E.cat
    members = []
    for c in cat.objects:
        good = set()
        for x in range(E.sizes[c]):
            s = mask_of(f for f in cat.arrows_into(c)
                        if E.res(f, x) in A.members[cat.dom[f]])
            if J.is_covering(c, s):
                good.add(x)
        members.append(frozenset(good))
    return tuple(members)


def reference_induced_family(F: FinFunctor, J: GrothendieckTopology, c: int,
                             s: int) -> tuple[frozenset[int], ...]:
    """The family induced by the sieve s on c: each x: F(d) -> c whose
    pullback of s, over every arrow into d, covers."""
    D, C = F.source, F.target
    return tuple(
        frozenset(xi for xi, x in enumerate(C.hom(F.on_obj(d), c))
                  if J.is_covering(d, mask_of(t for t in D.arrows_into(d)
                                              if (s >> C.compose(x, F.on_arr(t))) & 1)))
        for d in D.objects)


def reference_cover_preserving(sf: SiteFunctor) -> Verdict:
    """Every cover, in the order of `J.covers`, against its image."""
    F, J, K = sf.F, sf.J, sf.K
    for c in F.source.objects:
        for s in J.covers[c]:
            image = mask_of(F.on_arr(f) for f in bits(s))
            if not K.covers_family(F.on_obj(c), image):
                return _no("cover-preserving", object=c, sieve=s)
    return _yes("cover-preserving")


def reference_cover_reflecting(sf: SiteFunctor) -> Verdict:
    """Every non-cover, in the order of `all_sieve_masks`, against its
    image."""
    F, J, K = sf.F, sf.J, sf.K
    for c in F.source.objects:
        for s in all_sieve_masks(F.source, c):
            if s in J.covers[c]:
                continue
            image = mask_of(F.on_arr(f) for f in bits(s))
            if K.covers_family(F.on_obj(c), image):
                return _no("cover-reflecting", object=c, sieve=s)
    return _yes("cover-reflecting")


def reference_covering_lifting(sf: SiteFunctor) -> Verdict:
    """Every K-cover on an image object, in the order of `K.covers`,
    against its preimage."""
    F, J, K = sf.F, sf.J, sf.K
    for d in F.source.objects:
        for s in K.covers[F.on_obj(d)]:
            lifted = preimage_mask(F, s, d)
            if not J.is_covering(d, lifted):
                return _no("covering-lifting", object=d, sieve=s, preimage=lifted)
    return _yes("covering-lifting")


def reference_is_continuous(sf: SiteFunctor) -> Verdict:
    """Cover preservation, then every commuting square over the image
    diagram of every cover, in the order of `J.covers`, skipping the covers
    that hold the identity."""
    F, J, K = sf.F, sf.J, sf.K
    C, D = F.source, F.target
    cp = is_cover_preserving(sf)
    if not cp:
        return _no("continuous", clause="cover-preserving",
                   object=cp.witness["object"], sieve=cp.witness["sieve"])
    for c in C.objects:
        for s in J.covers[c]:
            if (s >> C.identity[c]) & 1:
                continue
            members, raw_edges = sieve_diagram(C, s)
            vertices = [F.on_obj(C.dom[f]) for f in members]
            comma = _CommaComponents(D, vertices,
                                     [(i, j, F.on_arr(t)) for (i, j, t) in raw_edges])
            for i1, f in enumerate(members):
                for i2, g in enumerate(members):
                    for d in D.objects:
                        for w in D.hom(d, vertices[i1]):
                            for z in D.hom(d, vertices[i2]):
                                if D.compose(F.on_arr(f), w) != D.compose(F.on_arr(g), z):
                                    continue
                                good = comma.sieve(d, i1, w, i2, z)
                                if not K.is_covering(d, good):
                                    return _no("continuous", clause="connection",
                                               object=c, sieve=s,
                                               instance={"f": f, "g": g, "d": d,
                                                         "w": w, "z": z},
                                               found=good)
    return _yes("continuous")


# ---------------------------------------------------------------------------
# site checkers: the bodies that now share one building block each

def _hom_index(cat: FinCategory, c: int, h: int) -> int:
    """The index of the arrow h in hom(dom h, c), by a scan."""
    return cat.hom(cat.dom[h], c).index(h)


def reference_yoneda_arrow(cat: FinCategory, g: int) -> PresheafMorphism:
    """y(g): y(dom g) -> y(cod g), with each composite looked up in its
    hom-set by a scan."""
    d1, d2 = cat.dom[g], cat.cod[g]
    comps = []
    for e in cat.objects:
        hom2 = cat.hom(e, d2)
        comps.append(tuple(hom2.index(cat.compose(g, u)) for u in cat.hom(e, d1)))
    return validate_presheaf_morphism(yoneda(cat, d1), yoneda(cat, d2), tuple(comps))


def reference_hom_presheaf(F: FinFunctor, c: int) -> FinPresheaf:
    """Hom_C(F(-), c) on the source of F, each restriction found by a scan
    of the hom-set."""
    D, C = F.source, F.target
    sizes = tuple(len(C.hom(F.on_obj(d), c)) for d in D.objects)
    restrict = []
    for g in D.arrows:
        a, b = D.dom[g], D.cod[g]
        hom_b = C.hom(F.on_obj(b), c)
        hom_a = C.hom(F.on_obj(a), c)
        restrict.append(tuple(hom_a.index(C.compose(x, F.on_arr(g)))
                              for x in hom_b))
    return validate_presheaf(D, sizes, tuple(restrict))


def reference_continuity_oracle(sf: SiteFunctor) -> bool:
    """For each covering sieve S on c, the comparison
    colim(y∘D^F_S) -> y(F(c)), built by hand from the sieve diagram, must
    be K-bicovering."""
    F, J, K = sf.F, sf.J, sf.K
    C, D = F.source, F.target
    for c in C.objects:
        for s in J.covers[c]:
            members, raw_edges = sieve_diagram(C, s)
            shape = _diagram_shape(len(members), raw_edges, C, members)
            diagram = [yoneda(D, F.on_obj(C.dom[f])) for f in members]
            arrows = []
            for (i, j, t) in raw_edges:
                comps = []
                for e in D.objects:
                    comps.append(tuple(
                        _hom_index(D, F.on_obj(C.dom[members[j]]), D.compose(F.on_arr(t), u))
                        for u in D.hom(e, F.on_obj(C.dom[members[i]]))))
                arrows.append(validate_presheaf_morphism(diagram[i], diagram[j], tuple(comps)))
            colim, legs = colimit_presheaf(D, shape, diagram, arrows)
            target = yoneda(D, F.on_obj(c))
            comps = [[0] * colim.sizes[e] for e in D.objects]
            for i, f in enumerate(members):
                for e in D.objects:
                    for u_idx, u in enumerate(D.hom(e, F.on_obj(C.dom[f]))):
                        comps[e][legs[i][e][u_idx]] = _hom_index(
                            D, F.on_obj(c), D.compose(F.on_arr(f), u))
            comparison = validate_presheaf_morphism(colim, target, comps)
            if not is_bicovering(comparison, K):
                return False
    return True


def reference_is_J_cofinal(F: FinFunctor, J: GrothendieckTopology) -> Verdict:
    """Relative cofinality with both clauses as inline loops."""
    A, C = F.source, F.target
    vertices = [F.on_obj(a) for a in A.objects]
    for c in C.objects:
        good = mask_of(f for f in C.arrows_into(c)
                       if any(C.hom(C.dom[f], v) for v in vertices))
        if not J.is_covering(c, good):
            return _no("cofinal", clause="i", object=c, sieve=good)
    comma = _CommaComponents(C, vertices, [(A.dom[u], A.cod[u], F.on_arr(u)) for u in A.arrows])
    for c in C.objects:
        for a in A.objects:
            for x in C.hom(c, F.on_obj(a)):
                for b in A.objects:
                    for x2 in C.hom(c, F.on_obj(b)):
                        good = comma.sieve(c, a, x, b, x2)
                        if not J.is_covering(c, good):
                            return _no("cofinal", clause="ii",
                                       instance={"c": c, "a": a, "x": x,
                                                 "b": b, "x2": x2},
                                       sieve=good)
    return _yes("cofinal")


def reference_cocone_is_sheaf_colimit(D: FinFunctor, vertex: int, legs,
                                      J: GrothendieckTopology) -> Verdict:
    """The sheaf-colimit criterion with its connection clause as an inline
    loop; the cocone is not validated."""
    A, C = D.source, D.target
    for c in C.objects:
        for y in C.hom(c, vertex):
            good = mask_of(
                f for f in C.arrows_into(c)
                if any(C.compose(y, f) == C.compose(legs[a], yi)
                       for a in A.objects
                       for yi in C.hom(C.dom[f], D.on_obj(a))))
            if not J.is_covering(c, good):
                return _no("sheaf-colimit", clause="i",
                           instance={"c": c, "y": y}, sieve=good)
    comma = _CommaComponents(C, [D.on_obj(a) for a in A.objects],
                             [(A.dom[u], A.cod[u], D.on_arr(u)) for u in A.arrows])
    for c in C.objects:
        for a in A.objects:
            for x in C.hom(c, D.on_obj(a)):
                for b in A.objects:
                    for x2 in C.hom(c, D.on_obj(b)):
                        if C.compose(legs[a], x) != C.compose(legs[b], x2):
                            continue
                        good = comma.sieve(c, a, x, b, x2)
                        if not J.is_covering(c, good):
                            return _no("sheaf-colimit", clause="ii",
                                       instance={"c": c, "a": a, "x": x,
                                                 "b": b, "x2": x2},
                                       sieve=good)
    return _yes("sheaf-colimit")


def reference_morphism_of_sites(sf: SiteFunctor) -> dict:
    """The witness of the morphism-of-sites check, clauses (i)-(iv), with a
    scan over every cone for each gp where the checker reads cone bitmasks
    and realized sieves."""
    F, K = sf.F, sf.K
    C, D = F.source, F.target
    cp = is_cover_preserving(sf)
    if not cp:
        return {"kind": "morphism-of-sites", "holds": False, "clause": "i",
                "object": cp.witness["object"], "sieve": cp.witness["sieve"]}
    for d in D.objects:
        good = mask_of(
            g for g in D.arrows_into(d)
            if any(D.hom(D.dom[g], F.on_obj(c1)) for c1 in C.objects))
        if not K.is_covering(d, good):
            return {"kind": "morphism-of-sites", "holds": False, "clause": "ii",
                    "object": d, "sieve": good}
    for c1, c2 in itertools.product(C.objects, repeat=2):
        for d in D.objects:
            for g1 in D.hom(d, F.on_obj(c1)):
                for g2 in D.hom(d, F.on_obj(c2)):
                    good = 0
                    for gp in D.arrows_into(d):
                        e = D.dom[gp]
                        if any(
                            D.compose(F.on_arr(f1), h) == D.compose(g1, gp)
                            and D.compose(F.on_arr(f2), h) == D.compose(g2, gp)
                            for cc in C.objects
                            for h in D.hom(e, F.on_obj(cc))
                            for f1 in C.hom(cc, c1)
                            for f2 in C.hom(cc, c2)
                        ):
                            good |= 1 << gp
                    if not K.is_covering(d, good):
                        return {"kind": "morphism-of-sites", "holds": False, "clause": "iii",
                                "instance": {"d": d, "g1": g1, "g2": g2}, "sieve": good}
    for c1, c2 in itertools.product(C.objects, repeat=2):
        for f1 in C.hom(c1, c2):
            for f2 in C.hom(c1, c2):
                if f1 == f2:
                    continue
                for d in D.objects:
                    for g in D.hom(d, F.on_obj(c1)):
                        if D.compose(F.on_arr(f1), g) != D.compose(F.on_arr(f2), g):
                            continue
                        good = 0
                        for gp in D.arrows_into(d):
                            e = D.dom[gp]
                            if any(
                                D.compose(F.on_arr(k), h) == D.compose(g, gp)
                                for cc in C.objects
                                for k in C.hom(cc, c1)
                                if C.compose(f1, k) == C.compose(f2, k)
                                for h in D.hom(e, F.on_obj(cc))
                            ):
                                good |= 1 << gp
                        if not K.is_covering(d, good):
                            return {"kind": "morphism-of-sites", "holds": False,
                                    "clause": "iv",
                                    "instance": {"f1": f1, "f2": f2, "g": g, "d": d},
                                    "sieve": good}
    return {"kind": "morphism-of-sites", "holds": True}


def reference_j_faithful(sf: SiteFunctor) -> Verdict:
    """J-faithfulness by the scan of every ordered pair of distinct parallel
    arrows."""
    F, J = sf.F, sf.J
    C = F.source
    for a in C.objects:
        for b in C.objects:
            for h in C.hom(a, b):
                for k in C.hom(a, b):
                    if h == k:
                        continue
                    if F.on_arr(h) == F.on_arr(k) and not reference_local_equality(J, h, k):
                        return _no("J-faithful", instance={"h": h, "k": k})
    return _yes("J-faithful")


def reference_j_full(sf: SiteFunctor) -> Verdict:
    """J-fullness with the image test as a scan of every k: dom f -> y."""
    F, J = sf.F, sf.J
    C, D = F.source, F.target
    for x in C.objects:
        for y in C.objects:
            for g in D.hom(F.on_obj(x), F.on_obj(y)):
                good = 0
                for f in C.arrows_into(x):
                    gf = D.compose(g, F.on_arr(f))
                    if any(gf == F.on_arr(k) for k in C.hom(C.dom[f], y)):
                        good |= 1 << f
                if not J.is_covering(x, good):
                    return _no("J-full", instance={"x": x, "y": y, "g": g}, sieve=good)
    return _yes("J-full")


def reference_locally_connected(F: FinFunctor, K: GrothendieckTopology) -> Verdict:
    """The two local-connectedness clauses, clause (b) as an inline loop."""
    C, D = F.source, F.target
    for h in D.arrows:
        for c in C.objects:
            for x in D.hom(F.on_obj(c), D.cod[h]):
                (a_objects, a_edges, a_proj,
                 b_objects, b_edges, b_proj, xi_map) = _ab_categories(F, h, c, x)
                comma_a = _CommaComponents(D, a_proj, a_edges)
                comma_b = _CommaComponents(D, b_proj, b_edges)
                for bi, (d, z, g) in enumerate(b_objects):
                    good = 0
                    for u in D.arrows_into(d):
                        e = D.dom[u]
                        lab = comma_b.labels(e)
                        if any(lab[(bi, u)] == lab[(xi_map[ai], s)]
                               for ai in range(len(a_objects))
                               for s in D.hom(e, a_proj[ai])):
                            good |= 1 << u
                    if not K.is_covering(d, good):
                        return _no("locally-connected", clause="a",
                                   instance={"h": h, "c": c, "x": x,
                                             "b_object": (d, z, g)}, sieve=good)
                for d in D.objects:
                    lab_b = comma_b.labels(d)
                    for ai in range(len(a_objects)):
                        for alpha in D.hom(d, a_proj[ai]):
                            for aj in range(len(a_objects)):
                                for beta in D.hom(d, a_proj[aj]):
                                    if lab_b[(xi_map[ai], alpha)] != lab_b[(xi_map[aj], beta)]:
                                        continue
                                    good = comma_a.sieve(d, ai, alpha, aj, beta)
                                    if not K.is_covering(d, good):
                                        return _no("locally-connected", clause="b",
                                                   instance={"h": h, "c": c, "x": x,
                                                             "alpha": alpha, "beta": beta},
                                                   sieve=good)
    return _yes("locally-connected")


def reference_comorphism_inclusion(sf: SiteFunctor) -> Verdict:
    """Inclusion by the two clauses that enumerate sheaf arrows.  Relation
    clause: for every sheaf arrow ξ: a(P_c) -> a(P_c2) between sheafified
    image-hom presheaves P_c = Hom_C(F(-), c), the arrows f: z -> c paired
    with some g: z -> c2 such that ξ(η(f∘x)) = η(g∘x) for every
    x: F(e) -> z generate a sieve whose pullback along each x: F(e) -> c
    covers e.  Local splitting: the arrows g: d' -> d for which some sheaf
    arrow a(P_{F(d')}) -> l'(d) splits χ_{d'} over g must cover every d."""
    F = sf.F
    src_top = sf.source_topology
    D, C = F.source, F.target
    sheafified = [_sheafified(sf, _hom_presheaf(F, c)) for c in C.objects]

    def unit(c: int, e: int, x: int) -> int:
        """η(x) in a(P_c)(e), for x: F(e) -> c."""
        return sheafified[c].unit.at(e, C.hom_position[x])

    for c in C.objects:
        for c2 in C.objects:
            for xi in enumerate_presheaf_morphisms(sheafified[c].sheaf, sheafified[c2].sheaf):
                paired = mask_of(
                    f for z in C.objects for f in C.hom(z, c)
                    if any(all(xi.at(e, unit(c, e, C.compose(f, x))) == unit(c2, e, C.compose(g, x))
                               for e in D.objects for x in C.hom(F.on_obj(e), z))
                           for g in C.hom(z, c2)))
                gen = generate_mask(C, paired)
                for e in D.objects:
                    for x in C.hom(F.on_obj(e), c):
                        t_mask = mask_of(
                            t for t in D.arrows_into(e)
                            if (gen >> C.compose(x, F.on_arr(t))) & 1)
                        if not src_top.is_covering(e, t_mask):
                            return _no("comorphism-inclusion",
                                       clause="relation-family",
                                       instance={"c": c, "c2": c2, "e": e, "x": x})

    def splits(g: int) -> bool:
        d1, d = D.dom[g], D.cod[g]
        sh_yd1, sh_P, chi = _chi_morphism(sf, d1)
        sh_yd = _chi_morphism(sf, d)[0]
        target_arrow = _yoneda_sheaf_arrow(sf, g, sh_yd1, sh_yd)
        return any(chi.then(xi).components == target_arrow.components
                   for xi in enumerate_presheaf_morphisms(sh_P.sheaf, sh_yd.sheaf))

    for d in D.objects:
        ok = mask_of(g for g in D.arrows_into(d) if splits(g))
        if not src_top.is_covering(d, generate_mask(D, ok)):
            return _no("comorphism-inclusion", clause="local-splitting", object=d)
    return _yes("comorphism-inclusion")


# ---------------------------------------------------------------------------
# the pair mapping (g, f) -> g∘f, which outside input and these constructors
# give, and the per-arrow rows a FinCategory stores

def category_from_table(n_objects: int, dom, cod, identities, table) -> FinCategory:
    """The FinCategory with the composites of `table`, a mapping
    (g, f) -> g∘f over every composable pair; the laws are not checked."""
    into: list[list[int]] = [[] for _ in range(n_objects)]
    for f, c in enumerate(cod):
        into[c].append(f)
    return FinCategory(n_objects, tuple(dom), tuple(cod), tuple(identities),
                       tuple(tuple(table[(g, f)] for f in into[a]) for g, a in enumerate(dom)))


def composition_table(cat: FinCategory) -> dict[tuple[int, int], int]:
    """(g, f) -> g∘f, read off the rows, g ascending and then f."""
    return {(g, f): h for g, row in enumerate(cat.composites)
            for f, h in zip(cat.arrows_into(cat.dom[g]), row)}


# ---------------------------------------------------------------------------
# derived-category constructors, each with its own index and composition
# code; they return tuples where the library returns records, as the
# records gained their index maps

def reference_poset_category(n: int, le) -> FinCategory:
    rel = {(a, a) for a in range(n)} | set(le)
    changed = True
    while changed:
        changed = False
        for (a, b), (b2, c) in itertools.product(list(rel), list(rel)):
            if b == b2 and (a, c) not in rel:
                rel.add((a, c))
                changed = True
    pairs = sorted(rel)
    index = {p: i for i, p in enumerate(pairs)}
    comp = {}
    for j, (b, c) in enumerate(pairs):
        for i, (a, b2) in enumerate(pairs):
            if b2 == b:
                comp[(j, i)] = index[(a, c)]
    return validate_category(n, pairs, [index[(a, a)] for a in range(n)], comp)


def reference_comma(F: FinFunctor, G: FinFunctor):
    """(category, objects, arrow_data, left projection, right projection)."""
    if F.target != G.target:
        raise ValueError("comma categories need functors with a common target")
    C = F.target
    A, B = F.source, G.source
    objects = [(a, b, alpha)
               for a in A.objects for b in B.objects
               for alpha in C.hom(F.on_obj(a), G.on_obj(b))]
    # every object carries an identity arrow, so this is the arrow guard,
    # fired before any arrow is enumerated
    if len(objects) > MAX_ARROWS:
        raise SizeGuardError(f"comma category has {len(objects)} objects (budget {MAX_ARROWS})")
    obj_index = {o: i for i, o in enumerate(objects)}

    arrow_data = []
    for si, (a, b, alpha) in enumerate(objects):
        for u in A.arrows_out_of(a):
            for v in B.arrows_out_of(b):
                a2, b2 = A.cod[u], B.cod[v]
                for alpha2 in C.hom(F.on_obj(a2), G.on_obj(b2)):
                    if C.compose(G.on_arr(v), alpha) == C.compose(alpha2, F.on_arr(u)):
                        arrow_data.append((si, obj_index[(a2, b2, alpha2)], u, v))
    if len(arrow_data) > MAX_ARROWS:
        raise SizeGuardError(f"comma category has {len(arrow_data)} arrows")
    arr_index = {d: i for i, d in enumerate(arrow_data)}

    dom = tuple(d[0] for d in arrow_data)
    cod = tuple(d[1] for d in arrow_data)
    identities = tuple(
        arr_index[(i, i, A.identity[a], B.identity[b])]
        for i, (a, b, _) in enumerate(objects))
    comp_table = {}
    for j, (s2, t2, u2, v2) in enumerate(arrow_data):
        for i, (s1, t1, u1, v1) in enumerate(arrow_data):
            if t1 == s2:
                comp_table[(j, i)] = arr_index[(s1, t2, A.compose(u2, u1), B.compose(v2, v1))]
    cat = category_from_table(len(objects), dom, cod, identities, comp_table)
    left = validate_functor(cat, A,
                            tuple(o[0] for o in objects),
                            tuple(d[2] for d in arrow_data))
    right = validate_functor(cat, B,
                             tuple(o[1] for o in objects),
                             tuple(d[3] for d in arrow_data))
    return cat, tuple(objects), tuple(arrow_data), left, right


def reference_full_subcategory(cat: FinCategory, objects):
    objects = list(objects)
    obj_index = {c: i for i, c in enumerate(objects)}
    arrows = [f for f in cat.arrows
              if cat.dom[f] in obj_index and cat.cod[f] in obj_index]
    arr_index = {f: i for i, f in enumerate(arrows)}
    sub = category_from_table(
        len(objects),
        tuple(obj_index[cat.dom[f]] for f in arrows),
        tuple(obj_index[cat.cod[f]] for f in arrows),
        tuple(arr_index[cat.identity[c]] for c in objects),
        {(arr_index[g], arr_index[f]): arr_index[cat.compose(g, f)]
         for g in arrows for f in cat.arrows_into(cat.dom[g]) if f in arr_index},
    )
    inclusion = validate_functor(sub, cat, tuple(objects), tuple(arrows))
    return sub, inclusion


def reference_quotient_by_functor_congruence(F: FinFunctor):
    cat = F.source
    classes: dict[tuple[int, int, int], int] = {}
    arr_class = []
    for f in cat.arrows:
        key = (cat.dom[f], cat.cod[f], F.on_arr(f))
        if key not in classes:
            classes[key] = len(classes)
        arr_class.append(classes[key])
    n = len(classes)
    dom = [0] * n
    cod = [0] * n
    rep = [0] * n
    for f in cat.arrows:
        k = arr_class[f]
        dom[k], cod[k], rep[k] = cat.dom[f], cat.cod[f], f
    comp = {}
    for (g, f), h in composition_table(cat).items():
        comp[(arr_class[g], arr_class[f])] = arr_class[h]
    quotient = category_from_table(cat.n_objects, dom, cod,
                                   [arr_class[cat.identity[c]] for c in cat.objects], comp)
    projection = validate_functor(cat, quotient, tuple(cat.objects), tuple(arr_class))
    induced = validate_functor(quotient, F.target, F.obj_map,
                               tuple(F.on_arr(rep[k]) for k in range(n)))
    return quotient, projection, induced


def reference_category_of_elements(P: FinPresheaf):
    """(category, projection, objects, arrow_decode)."""
    cat = P.cat
    objects = [(c, x) for c in cat.objects for x in range(P.sizes[c])]
    obj_index = {o: i for i, o in enumerate(objects)}
    arrow_decode = [(f, x) for f in cat.arrows for x in range(P.sizes[cat.cod[f]])]
    arr_index = {a: i for i, a in enumerate(arrow_decode)}
    dom = tuple(obj_index[(cat.dom[f], P.res(f, x))] for (f, x) in arrow_decode)
    cod = tuple(obj_index[(cat.cod[f], x)] for (f, x) in arrow_decode)
    identities = tuple(arr_index[(cat.identity[c], x)] for (c, x) in objects)
    comp = {}
    for j, (f, x) in enumerate(arrow_decode):
        for i, (g, y) in enumerate(arrow_decode):
            if cat.cod[g] == cat.dom[f] and y == P.res(f, x):
                comp[(j, i)] = arr_index[(cat.compose(f, g), x)]
    category = category_from_table(len(objects), dom, cod, identities, comp)
    projection = validate_functor(category, cat,
                                  tuple(o[0] for o in objects),
                                  tuple(a[0] for a in arrow_decode))
    return category, projection, tuple(objects), tuple(arrow_decode)


def reference_diagram_shape(n: int, edges, cat: FinCategory, members) -> FinCategory:
    arrow_data = list(edges)
    arr_index = {a: i for i, a in enumerate(arrow_data)}
    dom = tuple(a[0] for a in arrow_data)
    cod = tuple(a[1] for a in arrow_data)
    identities = tuple(arr_index[(i, i, cat.identity[cat.dom[members[i]]])]
                       for i in range(n))
    comp = {}
    for j, (s2, t2, u2) in enumerate(arrow_data):
        for i, (s1, t1, u1) in enumerate(arrow_data):
            if t1 == s2:
                comp[(j, i)] = arr_index[(s1, t2, cat.compose(u2, u1))]
    return category_from_table(n, dom, cod, identities, comp)
