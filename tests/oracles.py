"""Reference bodies of the paper's calculus that no checker in sitecalc reads.

The J-functional relations between presheaves, with composition, the graph
of an arrow and the passage from a relation to an arrow of sheaves, are the
paper's description of the arrows of Sh(C, J); the tests use them as the
oracle for the theorem on arrows, against the sheafified presheaf morphisms
the checkers compute with.  `enumerate_topologies` lists every topology on a
small category by brute force, the oracle for the constructors of the
topology module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from sitecalc.fincat import FinCategory, SizeGuardError
from sitecalc.presheaf import (
    FinPresheaf,
    PresheafMorphism,
    SheafificationResult,
    elem_locally_equal,
    sheafify,
    sheafify_morphism,
)
from sitecalc.sieves import all_sieve_masks, bits, mask_of, maximal_sieve_mask, pullback_mask
from sitecalc.topology import GrothendieckTopology, _axiom_violations


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
    return FinPresheaf(cat, sizes, tuple(restrict))


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
                if x == x2 and not elem_locally_equal(Q, J, c, y, y2):
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
                  if elem_locally_equal(P, J, c, x, y))
        for c in cat.objects)
    return FunctionalRelation(P, P, pairs)


def graph_relation(alpha: PresheafMorphism, J: GrothendieckTopology) -> FunctionalRelation:
    """J-closed graph of a presheaf morphism."""
    P, Q = alpha.source, alpha.target
    pairs = tuple(
        frozenset((x, y) for x in range(P.sizes[c]) for y in range(Q.sizes[c])
                  if elem_locally_equal(Q, J, c, alpha.at(c, x), y))
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
    return FinPresheaf(cat, tuple(len(e) for e in elems), tuple(restrict)), elems


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
    incl = PresheafMorphism(carrier, PQ, tuple(
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
    return PresheafMorphism(shP.sheaf, shQ.sheaf, tuple(components))


def relation_is_mono(R: FunctionalRelation, J: GrothendieckTopology) -> bool:
    P = R.source
    cat = P.cat
    for c in cat.objects:
        for (x, y) in R.pairs[c]:
            for (x2, y2) in R.pairs[c]:
                if y == y2 and not elem_locally_equal(P, J, c, x, x2):
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
    out = []
    for combo in itertools.product(*per_object):
        if not _axiom_violations(cat, combo):
            out.append(GrothendieckTopology(cat, tuple(combo)))
    return out


def reference_axiom_violations(cat: FinCategory, covers) -> list[dict]:
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
