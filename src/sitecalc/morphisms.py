"""Functor-level decision procedures: morphisms and comorphisms of sites,
continuity, cofinality, the denseness ladder, property classifiers for the
induced geometric morphisms, and the three factorizations.

Every verdict carries a replayable witness: counterexamples name the
quantifier instance that fails, positive answers record what was checked.
All "there exists a covering family such that" searches iterate over stored
sieves; where a clause quantifies over arbitrary families of sieves, a
restriction argument (see the decisions ledger) collapses the search to
least-covering or principal sieves without losing completeness.

Clause (iii) of weak denseness reads the families over the least cover of
each image object, and what each finds, from one table per topology and
pair of image objects (`_clause_iii_tables`), so pairs of objects over
the same image pair share it; local equality is read off the topology's
per-arrow keys.  J-fullness and clause (iii) find their arrows through
one kernel (`_found_arrows`), whose slots are built once per object.
Clause (iii) of a morphism of sites keeps one bitmask of cone apexes per
arrow into each image (`_cone_masks`) and lays out the spans into each
pair of image objects once, so a realized instance is one `&`.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .fincat import (
    FinCategory,
    FinFunctor,
    _memo,
    _UnionFind,
    corestrict,
    derived_category,
    full_subcategory,
    identity_functor,
    quotient_by_functor_congruence,
)
from .sieves import (
    all_sieve_masks,
    bits,
    generate_mask,
    is_sieve_mask,
    mask_of,
    maximal_sieve_mask,
    preimage_mask,
    pullback_mask,
)
from .topology import (
    GrothendieckTopology,
    TopologyError,
    closure_mask,
    coinduced_topology,
    induced_topology,
    local_equality,
    smallest_comorphism_topology,
    topology_where,
    trivial_topology,
)
from . import presheaf as ps


@dataclass(frozen=True)
class SiteFunctor:
    functor: FinFunctor
    source_topology: GrothendieckTopology
    target_topology: GrothendieckTopology

    def __post_init__(self):
        if self.source_topology.cat != self.functor.source:
            raise ValueError("source topology lives on the wrong category")
        if self.target_topology.cat != self.functor.target:
            raise ValueError("target topology lives on the wrong category")

    @property
    def F(self) -> FinFunctor:
        return self.functor

    @property
    def J(self) -> GrothendieckTopology:
        return self.source_topology

    @property
    def K(self) -> GrothendieckTopology:
        return self.target_topology


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: dict

    def __bool__(self) -> bool:
        return self.holds


def _yes(kind: str, **data) -> Verdict:
    return Verdict(True, {"kind": kind, "holds": True, **data})


def _no(kind: str, **data) -> Verdict:
    return Verdict(False, {"kind": kind, "holds": False, **data})


def _conjunction(kind: str, *parts: Verdict, **data) -> Verdict:
    """A pass, recording `data`, when every part holds; otherwise a
    failure that records the first failing part's witness."""
    for part in parts:
        if not part:
            return _no(kind, witness=part.witness)
    return _yes(kind, **data)


def _require(verdict: Verdict, what: str) -> None:
    """A failed precondition: ValueError("not <what>: <witness>")."""
    if not verdict:
        raise ValueError(f"not {what}: {verdict.witness}")


# ---------------------------------------------------------------------------
# cover preservation / reflection / lifting

def _image(F: FinFunctor, mask: int) -> int:
    """The presieve F(S) of the images of the members of S."""
    return mask_of(F.on_arr(f) for f in bits(mask))


def is_cover_preserving(sf: SiteFunctor) -> Verdict:
    """K covers ⟨F(S)⟩ for every J-cover S on c, a test that grows with S
    (L1 at `GrothendieckTopology.first_failing_cover`)."""
    F, J, K = sf.F, sf.J, sf.K
    for c in F.source.objects:
        s = J.first_failing_cover(c, lambda s: K.is_covering(F.on_obj(c), F.image_sieve(s)))
        if s is not None:
            return _no("cover-preserving", object=c, sieve=s)
    return _yes("cover-preserving")


def is_cover_reflecting(sf: SiteFunctor) -> Verdict:
    return _memo(sf, ("cover-reflecting",), lambda: _check_cover_reflecting(sf))


def _check_cover_reflecting(sf: SiteFunctor) -> Verdict:
    """K covers ⟨F(S)⟩ for no J-non-cover S on c, a test that grows with S
    (L3 at `GrothendieckTopology.first_passing_non_cover`)."""
    F, J, K = sf.F, sf.J, sf.K
    for c in F.source.objects:
        s = J.first_passing_non_cover(c, lambda s: K.is_covering(F.on_obj(c), F.image_sieve(s)))
        if s is not None:
            return _no("cover-reflecting", object=c, sieve=s)
    return _yes("cover-reflecting")


def is_comorphism_of_sites(sf: SiteFunctor) -> Verdict:
    """Covering-lifting property: the full preimage of every covering sieve
    on an image object must cover (any lift R sits inside the preimage).
    The preimage grows with the sieve (L1 at
    `GrothendieckTopology.first_failing_cover`)."""
    F, J, K = sf.F, sf.J, sf.K
    for d in F.source.objects:
        s = K.first_failing_cover(F.on_obj(d),
                                  lambda s: J.is_covering(d, preimage_mask(F, s, d)))
        if s is not None:
            return _no("covering-lifting", object=d, sieve=s, preimage=preimage_mask(F, s, d))
    return _yes("covering-lifting")


# ---------------------------------------------------------------------------
# morphisms of sites: the four clauses, each reduced to "this sieve covers"

def is_morphism_of_sites(sf: SiteFunctor) -> Verdict:
    return _memo(sf, ("morphism-of-sites",), lambda: _check_morphism_of_sites(sf))


def _check_morphism_of_sites(sf: SiteFunctor) -> Verdict:
    """Clauses (iii) and (iv) collect what the cones realize once, then
    look each gp up instead of scanning for a cone.  What the cones
    realize is closed under precomposition, so when the instance itself is
    realized every gp is good, and the maximal sieve covers.

    For (iii), gp is good for (g1, g2) exactly when g1∘gp = F(f1)∘h and
    g2∘gp = F(f2)∘h for one cone (cc, h).  So per object c and arrow u
    into F(c), the apexes (cc, h) with u = F(f)∘h, f: cc -> c, are one
    bitmask (`_cone_masks`), and a span is realized when the masks at its
    two legs meet.  The spans (d, g1, g2) into each pair of image objects
    are laid out when the pair is first met, and kept only where pairs
    (c1, c2) share them: an injective functor keeps none.
    For (iv), gp is good for g exactly when g∘gp lies in the sieve of the
    realized composites F(k)∘h with f1∘k = f2∘k: g pulls it back."""
    F, J, K = sf.F, sf.J, sf.K
    C, D = F.source, F.target
    rows, column = D.composites, D.into_position

    cp = is_cover_preserving(sf)
    if not cp:
        return _no("morphism-of-sites", clause="i",
                   object=cp.witness["object"], sieve=cp.witness["sieve"])

    for d, good in enumerate(_sieves_to_image(F)):
        if not K.is_covering(d, good):
            return _no("morphism-of-sites", clause="ii", object=d, sieve=good)

    cones = _cone_masks(F)
    # per image object e: per d, ascending, the arrows g: d -> e with their columns
    legs: dict[int, dict[int, list[tuple[int, int]]]] = {}
    for e in F.image_objects:
        by_dom: dict[int, list[tuple[int, int]]] = {}
        for p, g in enumerate(D.arrows_into(e)):
            by_dom.setdefault(D.dom[g], []).append((g, p))
        legs[e] = dict(sorted(by_dom.items()))
    # the spans into each pair of image objects, kept where pairs (c1, c2) share it
    spans: dict[tuple[int, int], list[tuple[int, int, int, int, int]]] = {}
    fibres = collections.Counter(F.obj_map)
    for c1, c2 in itertools.product(C.objects, repeat=2):
        ends = F.on_obj(c1), F.on_obj(c2)
        laid = spans.get(ends)
        if laid is None:
            legs2 = legs[ends[1]]
            laid = [(d, g1, p1, g2, p2) for d, legs1 in legs[ends[0]].items()
                    if d in legs2 for g1, p1 in legs1 for g2, p2 in legs2[d]]
            if fibres[ends[0]] * fibres[ends[1]] > 1:
                spans[ends] = laid
        at1, at2 = cones[c1], cones[c2]
        for d, g1, p1, g2, p2 in laid:
            if at1[p1] & at2[p2]:
                continue
            good = 0
            for gp, u1, u2 in zip(D.arrows_into(d), rows[g1], rows[g2]):
                if at1[column[u1]] & at2[column[u2]]:
                    good |= 1 << gp
            if not K.is_covering(d, good):
                return _no("morphism-of-sites", clause="iii",
                           instance={"d": d, "g1": g1, "g2": g2}, sieve=good)

    for c1, c2 in itertools.product(C.objects, repeat=2):
        for f1 in C.hom(c1, c2):
            for f2 in C.hom(c1, c2):
                if f1 == f2:
                    continue
                realized = None
                for d in D.objects:
                    for g in D.hom(d, F.on_obj(c1)):
                        if D.compose(F.on_arr(f1), g) != D.compose(F.on_arr(f2), g):
                            continue
                        if realized is None:
                            realized = mask_of(F.on_arr(k) for cc in C.objects
                                               for k in C.hom(cc, c1)
                                               if C.compose(f1, k) == C.compose(f2, k))
                            realized = generate_mask(D, realized)
                        if (realized >> g) & 1:
                            continue
                        good = pullback_mask(D, realized, g)
                        if not K.is_covering(d, good):
                            return _no("morphism-of-sites", clause="iv",
                                       instance={"f1": f1, "f2": f2, "g": g, "d": d},
                                       sieve=good)
    return _yes("morphism-of-sites")


def _cone_masks(F: FinFunctor) -> list[list[int]]:
    """Per object c of the source, per column p of `arrows_into(F(c))`,
    the bitmask of the cone apexes (cc, h), h into F(cc), with
    F(f)∘h the p-th arrow into F(c) for some f: cc -> c.  Apex (cc, h) is
    bit i + n, for h the i-th arrow into F(cc) and n the arrows into the
    images of the objects before cc."""
    C, D = F.source, F.target
    column = D.into_position
    cones = [[0] * len(D.arrows_into(F.on_obj(c))) for c in C.objects]
    offset = 0
    for cc in C.objects:
        for f in C.arrows_out_of(cc):
            through = cones[C.cod[f]]
            for i, Ffh in enumerate(D.composites[F.on_arr(f)]):
                through[column[Ffh]] |= 1 << (offset + i)
        offset += len(D.arrows_into(F.on_obj(cc)))
    return cones


def _sieves_to_image(F: FinFunctor) -> list[int]:
    """Per object d of the target, the arrows into d whose domain maps to
    some image object F(c): the sieve of morphism-of-sites clause (ii) and
    of cofinality clause (i).  The objects with an arrow to an image
    object are found once, as the domains of the arrows into one."""
    D = F.target
    reach = {D.dom[u] for e in F.image_objects for u in D.arrows_into(e)}
    sieves = [0] * D.n_objects
    for g, (a, d) in enumerate(zip(D.dom, D.cod)):
        if a in reach:
            sieves[d] |= 1 << g
    return sieves


def _cone_sieve_iii(sf: SiteFunctor, c1: int, c2: int, g1: int, g2: int) -> int:
    """Clause (iii) by the direct cone scan: the arrows gp into dom g1 with
    g1∘gp = F(f1)∘h and g2∘gp = F(f2)∘h for some f1: cc -> c1,
    f2: cc -> c2 and h: dom gp -> F(cc)."""
    F = sf.F
    C, D = F.source, F.target
    return mask_of(
        gp for gp in D.arrows_into(D.dom[g1])
        if any(D.compose(F.on_arr(f1), h) == D.compose(g1, gp)
               and D.compose(F.on_arr(f2), h) == D.compose(g2, gp)
               for cc in C.objects
               for h in D.hom(D.dom[gp], F.on_obj(cc))
               for f1 in C.hom(cc, c1)
               for f2 in C.hom(cc, c2)))


def _cone_sieve_iv(sf: SiteFunctor, f1: int, f2: int, g: int) -> int:
    """Clause (iv) by the direct cone scan: the arrows gp into dom g with
    g∘gp = F(k)∘h for some k: cc -> dom f1 with f1∘k = f2∘k and
    h: dom gp -> F(cc)."""
    F = sf.F
    C, D = F.source, F.target
    c1 = C.dom[f1]
    return mask_of(
        gp for gp in D.arrows_into(D.dom[g])
        if any(D.compose(F.on_arr(k), h) == D.compose(g, gp)
               for cc in C.objects
               for k in C.hom(cc, c1)
               if C.compose(f1, k) == C.compose(f2, k)
               for h in D.hom(D.dom[gp], F.on_obj(cc))))


# ---------------------------------------------------------------------------
# connected-component machinery shared by continuity / cofinality / locally
# connected checks

def sieve_diagram(cat: FinCategory, mask: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The diagram of a sieve: vertices are its member arrows (by their
    domains), edges (i, j, t) are the factorizations members[j]∘t = members[i]."""
    members = sorted(bits(mask))
    pos = {f: i for i, f in enumerate(members)}
    edges = [(pos[f], pos[g], t)
             for f in members for g in members
             for t in cat.hom(cat.dom[f], cat.dom[g])
             if cat.compose(g, t) == f]
    return members, edges


def comma_components(cat: FinCategory, e: int,
                     vertices: Sequence[int],
                     edges: Sequence[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    """Connected components of (e ↓ D), for a diagram D in cat presented by
    vertex objects and edges (i, j, arrow D(i) -> D(j)).  Keys are pairs
    (vertex index, arrow e -> D(i))."""
    nodes = [(i, u) for i, v in enumerate(vertices) for u in cat.hom(e, v)]
    idx = {n: k for k, n in enumerate(nodes)}
    uf = _UnionFind(len(nodes))
    for (i, j, t) in edges:
        for u in cat.hom(e, vertices[i]):
            uf.union(idx[(i, u)], idx[(j, cat.compose(t, u))])
    return {n: uf.find(idx[n]) for n in nodes}


class _CommaComponents:
    """The components of (e ↓ D) for a diagram D in cat, presented as in
    `comma_components`, labelled once per object e on first use."""

    def __init__(self, cat: FinCategory, vertices: Sequence[int],
                 edges: Sequence[tuple[int, int, int]]):
        self.cat, self.vertices, self.edges = cat, vertices, edges

    def labels(self, e: int) -> dict[tuple[int, int], int]:
        return _memo(self, ("labels", e),
                     lambda: comma_components(self.cat, e, self.vertices, self.edges))

    def sieve(self, c: int, i: int, x: int, j: int, y: int) -> int:
        """The arrows f into c along which (i, x∘f) and (j, y∘f) are
        connected, for arrows x: c -> D(i) and y: c -> D(j)."""
        cat = self.cat
        good = 0
        for f in cat.arrows_into(c):
            lab = self.labels(cat.dom[f])
            if lab[(i, cat.compose(x, f))] == lab[(j, cat.compose(y, f))]:
                good |= 1 << f
        return good

    def unconnected(self, J: GrothendieckTopology,
                    keep: Callable[[int, int, int, int, int], bool] | None = None
                    ) -> tuple[int, int, int, int, int, int] | None:
        """The first (c, a, x, b, x2, sieve), in that loop order, with
        x: c -> D(a), x2: c -> D(b) and keep(c, a, x, b, x2), whose sieve
        `sieve(c, a, x, b, x2)` does not J-cover c; None when every one
        covers."""
        cat, vertices = self.cat, self.vertices
        for c in cat.objects:
            for a, va in enumerate(vertices):
                for x in cat.hom(c, va):
                    for b, vb in enumerate(vertices):
                        for x2 in cat.hom(c, vb):
                            if keep is not None and not keep(c, a, x, b, x2):
                                continue
                            good = self.sieve(c, a, x, b, x2)
                            if not J.is_covering(c, good):
                                return c, a, x, b, x2, good
        return None


def is_continuous(sf: SiteFunctor) -> Verdict:
    """Finitary continuity criterion: cover-preserving, plus local connection
    of every commuting square over the image diagram of a covering sieve.
    A sieve that holds id_c is skipped: each member f has an edge f to
    id_c, so for F(f)∘w = F(g)∘z both ends connect to (id_c, F(f)∘w∘u)
    along every u; the sieve found is maximal, and it covers."""
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


def continuity_oracle(sf: SiteFunctor) -> bool:
    """Independent route: for each covering sieve S on c the comparison
    colim(y∘D^F_S) -> y(F(c)) must be K-bicovering, the image diagram with
    legs F(f) being a cocone for `cocone_sheaf_colimit_oracle`."""
    F, J, K = sf.F, sf.J, sf.K
    C, D = F.source, F.target
    for c in C.objects:
        for s in J.covers[c]:
            members, edges = sieve_diagram(C, s)
            image = FinFunctor(_diagram_shape(len(members), edges, C, members), D,
                               tuple(F.on_obj(C.dom[f]) for f in members),
                               tuple(F.on_arr(t) for _, _, t in edges))
            if not cocone_sheaf_colimit_oracle(image, F.on_obj(c),
                                               [F.on_arr(f) for f in members], K):
                return False
    return True


def _diagram_shape(n: int, edges: Sequence[tuple[int, int, int]],
                   cat: FinCategory, members: Sequence[int]) -> FinCategory:
    """Shape category of a sieve diagram (used only to drive colimits, where
    just the underlying graph with identities matters)."""
    return derived_category(n, edges, [(i, i, cat.identity[cat.dom[members[i]]]) for i in range(n)],
                            lambda g, f: (f[0], g[1], cat.compose(g[2], f[2])))[0]


# ---------------------------------------------------------------------------
# relative cofinality

def is_J_cofinal(F: FinFunctor, J: GrothendieckTopology) -> Verdict:
    """The two clauses of J-cofinality: local existence of factorizations and
    local connection of pairs, via components of (c ↓ F)."""
    A, C = F.source, F.target
    for c, good in enumerate(_sieves_to_image(F)):
        if not J.is_covering(c, good):
            return _no("cofinal", clause="i", object=c, sieve=good)
    comma = _CommaComponents(C, [F.on_obj(a) for a in A.objects],
                             [(A.dom[u], A.cod[u], F.on_arr(u)) for u in A.arrows])
    miss = comma.unconnected(J)
    if miss:
        return _no("cofinal", clause="ii", **_connection_witness(*miss))
    return _yes("cofinal")


def _connection_witness(c: int, a: int, x: int, b: int, x2: int, sieve: int) -> dict:
    """The witness fields of an instance `_CommaComponents.unconnected` finds."""
    return {"instance": {"c": c, "a": a, "x": x, "b": b, "x2": x2}, "sieve": sieve}


def cocone_is_sheaf_colimit(D: FinFunctor, vertex: int, legs,
                            J: GrothendieckTopology) -> Verdict:
    """Is the cocone sent by l to a colimit cocone in the sheaf topos."""
    A, C = D.source, D.target
    for i in A.objects:
        f = legs[i]
        if C.dom[f] != D.on_obj(i) or C.cod[f] != vertex:
            raise ValueError(f"leg at {i} is not an arrow D({i}) -> vertex")
    for u in A.arrows:
        if C.compose(legs[A.cod[u]], D.on_arr(u)) != legs[A.dom[u]]:
            raise ValueError("legs do not form a cocone")

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
    miss = comma.unconnected(J, lambda c, a, x, b, x2:
                             C.compose(legs[a], x) == C.compose(legs[b], x2))
    if miss:
        return _no("sheaf-colimit", clause="ii", **_connection_witness(*miss))
    return _yes("sheaf-colimit")


def cocone_sheaf_colimit_oracle(D: FinFunctor, vertex: int, legs,
                                J: GrothendieckTopology) -> bool:
    """Oracle: compare colim(y∘D) -> y(vertex) with the bicovering test."""
    A, C = D.source, D.target
    colim, colim_legs = ps.colimit_of_representables(D)
    position = C.hom_position
    comps = [[0] * colim.sizes[e] for e in C.objects]
    for a in A.objects:
        for e in C.objects:
            for u_idx, u in enumerate(C.hom(e, D.on_obj(a))):
                comps[e][colim_legs[a][e][u_idx]] = position[C.compose(legs[a], u)]
    comparison = ps.validate_presheaf_morphism(colim, ps.yoneda(C, vertex), comps)
    return ps.is_bicovering(comparison, J)


# ---------------------------------------------------------------------------
# local faithfulness / fullness / denseness

def local_property_tests(sf: SiteFunctor) -> dict[str, Verdict]:
    """The three local verdicts, computed once per site functor:
    J_faithful (parallel h, k with F(h) = F(k) are J-locally equal),
    J_full (for each g: F(x) -> F(y), the arrows f into x with g∘F(f) the
    image of an arrow dom f -> y form a J-covering sieve) and K_dense
    (K covers each object of the target by its image base)."""
    return _memo(sf, ("local-properties",), lambda: _check_local_properties(sf))


def _check_local_properties(sf: SiteFunctor) -> dict[str, Verdict]:
    F, J = sf.F, sf.J
    C, D = F.source, F.target

    def faithful() -> Verdict:
        for a in C.objects:
            for b in C.objects:
                for h in C.hom(a, b):
                    for k in C.hom(a, b):
                        if h != k and F.on_arr(h) == F.on_arr(k) and not local_equality(J, h, k):
                            return _no("J-faithful", instance={"h": h, "k": k})
        return _yes("J-faithful")

    def full() -> Verdict:
        # g finds f when F(k) = g∘F(f) for some k: the test of `_found_arrows`
        # with the single-valued rows R(φ) = {g∘φ}
        images, rows = _image_homs(F), {}

        def row(g: int) -> list[int]:
            if g not in rows:
                rows[g] = [1 << u for u in D.composites[g]]
            return rows[g]
        for x in C.objects:
            fx, slots = F.on_obj(x), _found_slots(F, x)
            for y in C.objects:
                gs = D.hom(fx, F.on_obj(y))
                if not gs:
                    continue
                for g, good in zip(gs, _found_arrows(slots, images[y], map(row, gs))):
                    if not J.is_covering(x, good):
                        return _no("J-full", instance={"x": x, "y": y, "g": g}, sieve=good)
        return _yes("J-full")

    miss = next(_image_base_misses(sf), None)
    return {"J_faithful": faithful(), "J_full": full(),
            "K_dense": _no("K-dense", object=miss[0], sieve=miss[1]) if miss else _yes("K-dense")}


def _image_base_misses(sf: SiteFunctor) -> Iterator[tuple[int, int]]:
    """Each object d, in order, that K does not cover by its image base,
    the sieve generated by the arrows into d from image objects, with that
    sieve.  Reads only F and K."""
    D, image = sf.F.target, sf.F.image_objects
    for d in D.objects:
        base = generate_mask(D, mask_of(u for u in D.arrows_into(d) if D.dom[u] in image))
        if not sf.K.is_covering(d, base):
            yield d, base


# ---------------------------------------------------------------------------
# denseness ladder

def is_dense_morphism(sf: SiteFunctor) -> Verdict:
    """Dense morphism of sites: cover-reflecting both ways, K-dense, and
    strictly J-full."""
    _require(is_morphism_of_sites(sf), "a morphism of sites")
    cp = is_cover_preserving(sf)
    cr = is_cover_reflecting(sf)
    if not cp:
        return _no("dense", clause="i", witness=cp.witness)
    if not cr:
        return _no("dense", clause="i", witness=cr.witness)
    props = local_property_tests(sf)
    if not props["K_dense"]:
        return _no("dense", clause="ii", witness=props["K_dense"].witness)
    if not props["J_full"]:
        return _no("dense", clause="iii", witness=props["J_full"].witness)
    return _yes("dense")


def _coherent_families(D: FinCategory, K: GrothendieckTopology,
                       carrier_obj: int, members: Sequence[int], d: int):
    """Families (g_h: dom h -> d)_{h in members} with g_{h∘z} ≡_K g_h∘z,
    i.e. locally matching families of y(d) over the given sieve members."""
    yd = ps.yoneda(D, d)
    fams = ps._locally_matching_families(yd, K, carrier_obj, list(members))
    hom_lists = {h: D.hom(D.dom[h], d) for h in members}
    return [{h: hom_lists[h][fam[i]] for i, h in enumerate(members)} for fam in fams]


def _weakly_dense_clause_ii(sf: SiteFunctor) -> Verdict:
    return _memo(sf, ("weakly-dense-ii",), lambda: _check_weakly_dense_clause_ii(sf))


def _realized_arrows(sf: SiteFunctor, objects: Iterable[int]) -> Iterator[int]:
    """Per object d of `objects`, in order, the mask of the arrows g_f0
    realized by locally matching families of y(d) over the carriers
    S_min(e0) ∪ ⟨f0⟩, for f0 into an image object e0.  The carriers, their
    members and the slot of each f0 do not depend on d, so they are laid
    out once, and carriers that coincide are searched once per d.  Reads
    only F and K."""
    F, K = sf.F, sf.K
    C, D = F.source, F.target
    base = K.min_cover
    # carrier mask -> (its object, ascending members, (slot, f0) per f0 it serves)
    carriers: dict[int, tuple[int, list[int], list[tuple[int, int]]]] = {}
    for e0 in sorted({F.on_obj(c) for c in C.objects}):
        for f0 in D.arrows_into(e0):
            carrier = base[e0] | D.principal_sieves[f0]
            if carrier not in carriers:
                carriers[carrier] = (e0, sorted(bits(carrier)), [])
            members, served = carriers[carrier][1:]
            served.append((members.index(f0), f0))
    for d in objects:
        realized = 0
        yd = ps.yoneda(D, d)
        for e0, members, served in carriers.values():
            families = ps._locally_matching_families(yd, K, e0, members)
            for slot, f0 in served:
                hom = D.hom(D.dom[f0], d)
                for fam in families:
                    realized |= 1 << hom[fam[slot]]
        yield realized


def _uncovered_by_realized(sf: SiteFunctor) -> tuple[int, int] | None:
    """The first d, with the sieve it gets, that is not covered by the
    arrows `_realized_arrows` finds for it; None when every d is covered.
    Only the objects that K does not cover by their image base are
    searched (`_image_base_misses`), as the others are covered already."""
    D, K = sf.F.target, sf.K
    objects = [d for d, _ in _image_base_misses(sf)]
    for d, realized in zip(objects, _realized_arrows(sf, objects)):
        sieve = generate_mask(D, realized)
        if not K.is_covering(d, sieve):
            return d, sieve
    return None


def _check_weakly_dense_clause_ii(sf: SiteFunctor) -> Verdict:
    """Every d is covered by arrows presenting maps from sheafified images:
    the realizable g_f arrows, collected over S_min ∪ ⟨f⟩ carriers (complete
    by the restriction argument), must generate a covering sieve.  Reads
    only F and K.

    The image base of d, the arrows into d from image objects, is among
    the realized arrows: for f0 = id_e0 the carrier is the maximal sieve on
    e0, over which h ↦ g∘h is a locally matching family for every
    g: e0 -> d.  So a d that K covers by its image base (the K-dense test)
    passes, and the family search runs only for the others; the first
    uncovered d and its sieve are those of the search over every d."""
    miss = _uncovered_by_realized(sf)
    if miss:
        return _no("weakly-dense", clause="ii", object=miss[0], sieve=miss[1])
    return _yes("weakly-dense-ii")


def _weakly_dense_clause_iii(sf: SiteFunctor) -> Verdict:
    """Clause (iii), exhaustive over covering sieves U on images and
    coherent families g over U.  An arrow f into x is found when some
    k: dom f -> y has g·F(f) ≡_K F(k) (`_restrictions`).  The found arrows
    must J-cover x.  The witness is the first (x, y, U, g), U in the order
    of `K.covers`.

    A family g over a cover U ⊇ m, m = K.min_cover[F(x)], restricts to one
    over m with the same found arrows: for a = F(f)∘w = h∘z in U, the
    members a∘v of m, v in the cover a*(m), give g_h∘z∘v ≡_K g_{a∘v} ≡_K
    F(k)∘w∘v, and local equality is local.  So when every family over m
    passes, every family over every cover does, as
    `GrothendieckTopology.first_failing_cover` asks.

    The families over m and what each finds at every arrow into F(x)
    depend only on K, F(x) and F(y), so the pass over m reads one table per
    (K, F(x), F(y)) (`_clause_iii_tables`), however many pairs (x, y) lie
    over it.  Only a failing pair walks the covers, to name its first
    (U, g)."""
    F, J, K = sf.F, sf.J, sf.K
    C = F.source
    images = _image_homs(F)
    for x in C.objects:
        fx, slots = F.on_obj(x), _found_slots(F, x)
        for y in C.objects:
            tables = _clause_iii_tables(K, fx, F.on_obj(y))
            if all(J.is_covering(x, ok) for ok in _found_arrows(slots, images[y], tables)):
                continue
            # the tables fail at m, so the walk does not search m again; each
            # cover it tests is searched once, the one it returns included
            m, failures = K.min_cover[fx], {}

            def passes(u: int) -> bool:
                if u == m:
                    return False
                failures[u] = _clause_iii_failure(sf, x, y, u)
                return failures[u] is None
            u = K.first_failing_cover(fx, passes)
            g, found = failures.get(u) or _clause_iii_failure(sf, x, y, u)
            return _no("weakly-dense", clause="iii",
                       instance={"x": x, "y": y, "sieve": u, "family": g}, found=found)
    return _yes("weakly-dense")


def _clause_iii_failure(sf: SiteFunctor, x: int, y: int,
                        u_mask: int) -> tuple[dict[int, int], int] | None:
    """Clause (iii) for (x, y) over the sieve U = u_mask on F(x): the first
    coherent family g on U, in search order, whose found arrows do not
    J-cover x, with those arrows; None when every family passes.  When U
    holds the identity, the families are searched only when one of
    `_value_families` fails, as they find what those find."""
    F, J, K = sf.F, sf.J, sf.K
    fx, fy = F.on_obj(x), F.on_obj(y)
    slots, images = _found_slots(F, x), _image_homs(F)[y]

    def found(families: Iterable[dict[int, int]]) -> Iterator[int]:
        return _found_arrows(slots, images, (_restrictions(K, fx, g, fy) for g in families))
    if (u_mask >> F.target.identity[fx]) & 1 and all(
            J.is_covering(x, ok) for ok in found(_value_families(F.target, fx, fy))):
        return None
    families = _coherent_families(F.target, K, fx, sorted(bits(u_mask)), fy)
    return next(((g, ok) for g, ok in zip(families, found(families))
                 if not J.is_covering(x, ok)), None)


def _clause_iii_tables(K: GrothendieckTopology, e: int, e2: int) -> tuple[tuple[int, ...], ...]:
    """The distinct `_restrictions` of the coherent families into e2 over
    m = K.min_cover[e], built once per topology instance and pair (e, e2).
    When m holds id_e the families are not searched: they have the
    restrictions of `_value_families`."""
    def build() -> tuple[tuple[int, ...], ...]:
        D = K.cat
        m = K.min_cover[e]
        families = (_value_families(D, e, e2) if (m >> D.identity[e]) & 1
                    else _coherent_families(D, K, e, sorted(bits(m)), e2))
        return tuple(dict.fromkeys(_restrictions(K, e, g, e2) for g in families))
    return _memo(K, ("clause-iii-tables", e, e2), build)


def _value_families(D: FinCategory, e: int, e2: int) -> list[dict[int, int]]:
    """The families h ↦ v∘h over the maximal sieve on e, one per
    v: e -> e2.  A coherent family g over the maximal sieve has
    g_h ≡_K g_id∘h, so it has the `_restrictions` of the one for g_id."""
    return [dict(zip(D.arrows_into(e), D.composites[v])) for v in D.hom(e, e2)]


def _restrictions(K: GrothendieckTopology, e: int, g: dict[int, int],
                  e2: int) -> tuple[int, ...]:
    """R_g(φ) for a coherent family g into e2 over the members of a sieve U
    on e, per arrow φ into e in the order of `arrows_into(e)`: the mask of
    the ψ: dom φ -> e2 with g·φ ≡_K ψ, that is ψ∘w ≡_K g_{φ∘w} for every
    w with φ∘w in U, read as equal `K.arrow_keys`.

    This is the test of the definition, ψ∘w ≡_K g_h∘z for every h in U and
    z with h∘z = φ∘w.  A sieve holds h∘z whenever it holds h, and
    coherence gives g_h∘z ≡_K g_{h∘z}, so each such value is locally equal
    to g_{φ∘w}, and a φ∘w outside U has none.  For φ in U the test at
    w = id_{dom φ} implies the others: ψ ≡_K g_φ gives
    ψ∘w ≡_K g_φ∘w ≡_K g_{φ∘w}."""
    D = K.cat
    key = K.arrow_keys
    out = []
    for phi in D.arrows_into(e):
        r = 0
        if phi in g:
            k = key[g[phi]]
            for psi in D.hom(D.dom[phi], e2):
                if key[psi] == k:
                    r |= 1 << psi
        else:
            asked = [(i, key[g[a]]) for i, a in enumerate(D.composites[phi]) if a in g]
            for psi in D.hom(D.dom[phi], e2):
                row = D.composites[psi]
                if all(key[row[i]] == k for i, k in asked):
                    r |= 1 << psi
        out.append(r)
    return tuple(out)


def _image_homs(F: FinFunctor) -> list[list[int]]:
    """Per pair of source objects y, a, the mask of F(C(a, y)) at [y][a]."""
    C = F.source
    images = [[0] * C.n_objects for _ in C.objects]
    for k, (a, y) in enumerate(zip(C.dom, C.cod)):
        images[y][a] |= 1 << F.on_arr(k)
    return images


def _found_slots(F: FinFunctor, x: int) -> list[tuple[int, int, int]]:
    """The slots of `_found_arrows` at x: per arrow f into x, (1 << f, the
    column of F(f) among the arrows into F(x), dom f)."""
    C, D = F.source, F.target
    return [(1 << f, D.into_position[F.on_arr(f)], C.dom[f]) for f in C.arrows_into(x)]


def _found_arrows(slots: Sequence[tuple[int, int, int]], images: Sequence[int],
                  restrictions: Iterable[Sequence[int]]) -> Iterator[int]:
    """Per row R of masks over the arrows into F(x), one per column of
    `arrows_into(F(x))`, in order, the mask of the arrows f into x it
    finds: those with F(k) in R(F(f)) for some k: dom f -> y, the images
    of which are `images[dom f]` (`_image_homs(F)[y]`).  `slots` are
    `_found_slots(F, x)`.  Clause (iii) of weak denseness passes the
    `_restrictions` of its families; J-fullness of g: F(x) -> F(y) passes
    R(φ) = {g∘φ}, which finds the f with g∘F(f) in F(C(dom f, y))."""
    for r in restrictions:
        ok = 0
        for bit, i, a in slots:
            if r[i] & images[a]:
                ok |= bit
        yield ok


def is_weakly_dense(sf: SiteFunctor) -> Verdict:
    """Weakly dense morphism of sites; equivalent to the induced geometric
    morphism being an equivalence."""
    return _memo(sf, ("weakly-dense",), lambda: _check_weakly_dense(sf))


def _check_weakly_dense(sf: SiteFunctor) -> Verdict:
    _require(is_morphism_of_sites(sf), "a morphism of sites")
    cr = is_cover_reflecting(sf)
    if not cr:
        return _no("weakly-dense", clause="i", witness=cr.witness)
    ii = _weakly_dense_clause_ii(sf)
    if not ii:
        return ii
    return _weakly_dense_clause_iii(sf)


# ---------------------------------------------------------------------------
# classification of the geometric morphism induced by a morphism of sites

def closed_sieve_lifting(sf: SiteFunctor) -> Verdict:
    """Every K-closed sieve on an image object is the closure of the image
    of some sieve upstairs.

    A closed s is such a closure exactly when it is the closure of the
    sieve t generated by the image arrows in s, the image of the largest
    sieve r on c with F(r) ⊆ s: any r with closure(F(r)) = s lies in that
    one, and closure is monotone.  As t ⊆ s, t = s settles it at once.
    Such s are closed under joins s ∨ s' = cl(s ∪ s') = cl(t ∪ t'), which
    lies in cl(gen((s ∨ s')∩im)).  Each closed s is the join of the
    s_g = cl⟨g⟩ with g in s, whose masks are no larger; so the least
    failing closed sieve is the least failing s_g, and only those are
    tested."""
    F, K = sf.F, sf.K
    C, D = F.source, F.target
    for c in C.objects:
        fc = F.on_obj(c)
        image = mask_of(F.on_arr(f) for f in C.arrows_into(c))
        for s in sorted({closure_mask(K, fc, D.principal_sieves[g]) for g in D.arrows_into(fc)}):
            t = generate_mask(D, s & image)
            if t != s and closure_mask(K, fc, t) != s:
                return _no("closed-sieve-lifting", object=c, sieve=s)
    return _yes("closed-sieve-lifting")


def _principally_presented(sf: SiteFunctor) -> list[int]:
    """Per object d, the mask of arrows h: dom f0 -> d presented by locally
    matching families of y(d) over principal sieves ⟨f0⟩, f0 into an image
    object.  Such a family is fixed, up to local equality, by its value h
    at f0, and h extends to one exactly when h∘u ≡_K h∘u' for all u, u'
    with f0∘u = f0∘u', local equality being an equivalence relation on a
    topology; so no search over families is needed.  Reads only F and K."""
    F, K = sf.F, sf.K
    D = F.target
    # per f0 into an image object: pairs (u, u') with f0∘u = f0∘u'
    equalized: dict[int, list[tuple[int, int]]] = {}
    for e0 in {F.on_obj(c) for c in F.source.objects}:
        for f0 in D.arrows_into(e0):
            by_composite: dict[int, list[int]] = {}
            for u, f0u in zip(D.arrows_into(D.dom[f0]), D.composites[f0]):
                by_composite.setdefault(f0u, []).append(u)
            equalized[f0] = [(us[0], u) for us in by_composite.values() for u in us[1:]]
    presented = []
    for d in D.objects:
        realized = 0
        for f0, pairs in equalized.items():
            for h in D.hom(D.dom[f0], d):
                if all(local_equality(K, D.compose(h, u), D.compose(h, u2)) for u, u2 in pairs):
                    realized |= 1 << h
        presented.append(realized)
    return presented


def _localic_condition(sf: SiteFunctor) -> Verdict:
    """Localic criterion: arrows presented by families over arbitrary sieves
    on image objects must cover every d; complete over principal sieves."""
    D, K = sf.F.target, sf.K
    for d, realized in enumerate(_principally_presented(sf)):
        sieve = generate_mask(D, realized)
        if not K.is_covering(d, sieve):
            return _no("localic", object=d, sieve=sieve)
    return _yes("localic")


@dataclass(frozen=True)
class MorphismClassification:
    surjection: Verdict
    inclusion: Verdict
    hyperconnected: Verdict
    localic: Verdict
    equivalence: Verdict
    essential_surjective_closed_image: Verdict | None = None

    def __post_init__(self):
        if self.equivalence.holds:
            if not (self.surjection.holds and self.inclusion.holds
                    and self.hyperconnected.holds and self.localic.holds):
                raise AssertionError("equivalence without all component flags")
        if self.hyperconnected.holds and not self.surjection.holds:
            raise AssertionError("hyperconnected but not a surjection")

    def flags(self) -> dict[str, bool]:
        out = {
            "surjection": self.surjection.holds,
            "inclusion": self.inclusion.holds,
            "hyperconnected": self.hyperconnected.holds,
            "localic": self.localic.holds,
            "equivalence": self.equivalence.holds,
        }
        if self.essential_surjective_closed_image is not None:
            out["essential_surjective_closed_image"] = \
                self.essential_surjective_closed_image.holds
        return out


def classify_morphism(sf: SiteFunctor) -> MorphismClassification:
    _require(is_morphism_of_sites(sf), "a morphism of sites")
    surjection = is_cover_reflecting(sf)
    jf = induced_topology(sf.F, sf.K)
    ii = _weakly_dense_clause_ii(sf)
    if jf == sf.J:
        inclusion = is_weakly_dense(sf)
    else:
        f_r = SiteFunctor(sf.F, jf, sf.K)
        _memo(f_r, ("weakly-dense-ii",), lambda: ii)  # clause (ii) reads only F and K
        v = is_weakly_dense(f_r)  # the record names J_F, so a replay reads (F, J_F, K)
        inclusion = Verdict(v.holds, {**v.witness, "source_topology": "induced"})
    csl = closed_sieve_lifting(sf)
    hyperconnected = _conjunction("hyperconnected", surjection, csl)
    localic = _localic_condition(sf)
    equivalence = is_weakly_dense(sf)
    essential = _conjunction("essential-surjective-closed-image", csl, ii)
    return MorphismClassification(surjection, inclusion, hyperconnected,
                                  localic, equivalence, essential)


@dataclass(frozen=True)
class SurjectionInclusionFactorization:
    induced: GrothendieckTopology          # J_F on the source
    surjection_leg: SiteFunctor            # F: (C, J_F) -> (D, K)
    inclusion_leg: SiteFunctor             # id: (C, J) -> (C, J_F)


def surjection_inclusion_factorization(sf: SiteFunctor) -> SurjectionInclusionFactorization:
    _require(is_morphism_of_sites(sf), "a morphism of sites")
    jf = induced_topology(sf.F, sf.K)
    return SurjectionInclusionFactorization(
        jf,
        SiteFunctor(sf.F, jf, sf.K),
        SiteFunctor(identity_functor(sf.F.source), sf.J, jf),
    )


# ---------------------------------------------------------------------------
# hyperconnected-localic factorization through C^s_K

@dataclass(frozen=True)
class HyperconnectedLocalicFactorization:
    cjs: ps.CJsResult                       # D^s_K with its data
    cjs_topology: GrothendieckTopology      # C^s_K
    sub_objects: tuple[int, ...]            # indices of D^s_F inside D^s_K
    sub_topology: GrothendieckTopology      # C^s_K restricted to D^s_F
    localic_leg: SiteFunctor                # F_s: (C, J) -> (D^s_F, ·)
    hyperconnected_leg: SiteFunctor         # i^s_F: (D^s_F, ·) -> (D^s_K, C^s_K)
    embedding: SiteFunctor                  # i^s_K∘F = i^s_F ∘ F_s: (C, J) -> (D^s_K, C^s_K)


def cjs_canonical_topology(cjs: ps.CJsResult, K: GrothendieckTopology) -> GrothendieckTopology:
    """C^s_K: a sieve covers (d, S) iff the corresponding sheaf arrows are
    jointly locally surjective onto a_K(S)."""
    return topology_where(cjs.category, lambda i, sigma: ps.family_locally_surjective(
        K, [cjs.sheaf_arrows[a] for a in bits(sigma)], cjs.sheaves[i].sheaf))


def hyperconnected_localic_factorization(sf: SiteFunctor) -> HyperconnectedLocalicFactorization:
    _require(is_morphism_of_sites(sf), "a morphism of sites")
    F, J, K = sf.F, sf.J, sf.K
    D = F.target
    cjs = ps.build_CJs(D, K)
    ctop = cjs_canonical_topology(cjs, K)

    obj_index = {o: i for i, o in enumerate(cjs.objects)}
    arr_index = {t: a for a, t in enumerate(cjs.arrow_decode)}

    def graph_rel(g: int, src: int, dst: int) -> int:
        """Arrow of D^s_K induced by g: d -> d' between maximal-sieve objects."""
        (d, s), (d2, s2) = cjs.objects[src], cjs.objects[dst]
        rel = frozenset(
            (x, y) for x in bits(s) for y in bits(s2)
            if D.dom[x] == D.dom[y]
            and K.is_covering(D.dom[x], mask_of(
                h for h, yh, gxh in zip(D.arrows_into(D.dom[x]), D.composites[y],
                                        D.composites[D.compose(g, x)]) if yh == gxh)))
        return arr_index[(src, dst, rel)]

    # the canonical embedding i^s_K: D -> D^s_K on maximal sieves
    isk_obj = tuple(obj_index[(d, maximal_sieve_mask(D, d))] for d in D.objects)
    isk_arr = tuple(graph_rel(g, isk_obj[D.dom[g]], isk_obj[D.cod[g]])
                    for g in D.arrows)
    i_s_k = FinFunctor(D, cjs.category, isk_obj, isk_arr)

    sub_objects = tuple(i for i, (d, s) in enumerate(cjs.objects)
                        if d in F.image_objects)
    _, sub_incl = full_subcategory(cjs.category, sub_objects)
    sub_top = induced_topology(sub_incl, ctop)
    isk_F = F.then(i_s_k)
    f_s = corestrict(isk_F, sub_incl)

    localic_leg = SiteFunctor(f_s, J, sub_top)
    hyper_leg = SiteFunctor(sub_incl, sub_top, ctop)
    embedding = SiteFunctor(isk_F, J, ctop)
    return HyperconnectedLocalicFactorization(
        cjs, ctop, sub_objects, sub_top, localic_leg, hyper_leg, embedding)


# ---------------------------------------------------------------------------
# comorphism-side classifiers

def _hom_presheaf(F: FinFunctor, c: int) -> ps.FinPresheaf:
    """Hom_C(F(-), c) as a presheaf on the source of F: y(c) restricted
    along F."""
    y = ps.yoneda(F.target, c)
    return ps.FinPresheaf(F.source, tuple(y.sizes[F.on_obj(d)] for d in F.source.objects),
                          tuple(y.restrict[F.on_arr(g)] for g in F.source.arrows))


def comorphism_surjection(sf: SiteFunctor) -> Verdict:
    """C_F surjection iff the target topology equals the coinduced image of
    the source topology along F."""
    return _memo(sf, ("comorphism-surjection",), lambda: _check_comorphism_surjection(sf))


def _check_comorphism_surjection(sf: SiteFunctor) -> Verdict:
    coind = coinduced_topology(sf.F, sf.source_topology)
    if coind == sf.target_topology:
        return _yes("comorphism-surjection")
    for c in sf.F.target.objects:
        diff = sf.target_topology.covers[c] ^ coind.covers[c]
        if diff:
            return _no("comorphism-surjection", object=c, sieve=min(diff))
    raise AssertionError("unreachable")


def _sheafified(sf: SiteFunctor, P: ps.FinPresheaf) -> ps.SheafificationResult:
    """a(P) on the source site, sheafified once per site functor instance
    and presheaf (its sizes and restrictions)."""
    return _memo(sf, ("sheafified", P.sizes, P.restrict),
                 lambda: ps.sheafify(P, sf.source_topology))


def _chi_morphism(sf: SiteFunctor, d: int) -> tuple[ps.SheafificationResult,
                                                   ps.SheafificationResult,
                                                   ps.PresheafMorphism]:
    """The canonical arrow χ_d: l'(d) -> a(Hom_C(F(-), F(d))), as the
    sheafification of u -> F(u), with the sheafified representable l'(d)
    and a(Hom_C(F(-), F(d))).  Built once per site functor instance and
    object."""
    def build():
        F = sf.F
        D, C = F.source, F.target
        yd = ps.yoneda(D, d)
        P = _hom_presheaf(F, F.on_obj(d))
        chi0 = ps.PresheafMorphism(yd, P, tuple(
            tuple(C.hom_position[F.on_arr(u)] for u in D.hom(e, d)) for e in D.objects))
        sh_yd = _sheafified(sf, yd)
        sh_P = _sheafified(sf, P)
        return sh_yd, sh_P, ps.sheafify_morphism(chi0, sh_yd, sh_P)
    return _memo(sf, ("chi", d), build)


def _yoneda_sheaf_arrow(sf: SiteFunctor, g: int,
                        sh_src: ps.SheafificationResult,
                        sh_dst: ps.SheafificationResult) -> ps.PresheafMorphism:
    """a(y(g)) between sheafified representables of the source site."""
    return ps.sheafify_morphism(ps.yoneda_arrow(sf.F.source, g), sh_src, sh_dst)


def _comorphism_inclusion_general(sf: SiteFunctor) -> Verdict:
    """C_F is an inclusion exactly when every closed family is induced and
    C_F is localic.  F is a comorphism, so the target topology lies in the
    coinduced topology T, and C_F is s: Sh(source site) -> Sh(target, T),
    a surjection as T is its own coinduced topology, then an inclusion.
    (surjection, inclusion) is orthogonal, so C_F is an inclusion exactly
    when s is an equivalence: by the (hyperconnected, localic) system, when
    s is localic and, being a surjection, has its closed families induced.
    Neither half reads the target topology, so each decides s as it
    decides F.  A failure records the failing half's witness."""
    for half in (_closed_families_induced, _comorphism_localic_general):
        verdict = half(sf)
        if not verdict:
            return _no("comorphism-inclusion", witness=verdict.witness)
    return _yes("comorphism-inclusion")


def _comorphism_localic_general(sf: SiteFunctor) -> Verdict:
    return _memo(sf, ("comorphism-localic",), lambda: _check_comorphism_localic(sf))


def _check_comorphism_localic(sf: SiteFunctor) -> Verdict:
    """Localic criterion: the arrows g: d' -> d for which a(y(g)) factors,
    through χ_{d'}, over a subsheaf of a(P_{F(d')}) must cover every d.

    One candidate decides each g.  A closed subpresheaf of a sheaf is a
    sheaf, and any splitting ξ restricts to the closure of im χ_{d'}, where
    it is forced by its values on the dense image.  So g passes exactly
    when χ_{d'}(x) = χ_{d'}(x') implies a(y(g))(x) = a(y(g))(x') at every
    object."""
    F = sf.F
    D = F.source
    src_top = sf.source_topology
    if local_property_tests(sf)["J_faithful"]:
        return _yes("comorphism-localic", via="K-faithful")

    def arrow_ok(g: int) -> bool:
        d1, d = D.dom[g], D.cod[g]
        sh_yd1, _, chi = _chi_morphism(sf, d1)
        sh_yd = _chi_morphism(sf, d)[0]
        y_g = _yoneda_sheaf_arrow(sf, g, sh_yd1, sh_yd)
        return all(len(set(zip(chi.components[e], y_g.components[e])))
                   == len(set(chi.components[e])) for e in D.objects)

    for d in D.objects:
        ok = mask_of(g for g in D.arrows_into(d) if arrow_ok(g))
        if not src_top.is_covering(d, generate_mask(D, ok)):
            return _no("comorphism-localic", object=d)
    return _yes("comorphism-localic")


def _comorphism_hyperconnected(sf: SiteFunctor) -> Verdict:
    """Surjection condition plus `_closed_families_induced`."""
    surj = comorphism_surjection(sf)
    if not surj:
        return _no("comorphism-hyperconnected", witness=surj.witness)
    return _closed_families_induced(sf)


def _closed_families_induced(sf: SiteFunctor) -> Verdict:
    return _memo(sf, ("closed-families",), lambda: _check_closed_families(sf))


def _check_closed_families(sf: SiteFunctor) -> Verdict:
    """Every functorial source-closed family A of arrows F(d) -> c (a
    closed subpresheaf of the hom presheaf) is induced by some sieve on c.
    Reads only F and the source topology.

    One candidate decides each A: s*(A), the largest sieve whose principal
    sieves miss every arrow outside A.  A sieve s that induces A has its
    image arrows in A, so s ⊆ s*(A), and inducing is monotone; s*(A)
    induces a family inside A, as A is closed.  So A is induced exactly
    when s*(A) induces it.  Induced families are closed under joins
    c_J(A ∪ B), as ind(s ∪ r) = c_J(ind s ∪ ind r), where ⊆ holds since a
    member of s pulls s back to the maximal sieve.  Each closed A is the
    join of the A_x = c_J⟨x⟩ with x in A, and they come no later in the
    order of A's members per object, (size, sorted members), the first
    object most significant, which extends inclusion.  So the first
    failing closed family is the first failing A_x; only those are tested."""
    F = sf.F
    D, C = F.source, F.target
    src_top = sf.source_topology
    for c in C.objects:
        P = _hom_presheaf(F, c)
        generated = (ps.SubPresheaf(P, tuple(frozenset(P.res(t, x) for t in D.hom(e, d))
                                             for e in D.objects))
                     for d in D.objects for x in range(P.sizes[d]))
        closures = {ps.closure_cJ(A, src_top).members for A in generated}
        for members in sorted(closures, key=lambda A: [(len(m), sorted(m)) for m in A]):
            outside = mask_of(x for d in D.objects for xi, x in enumerate(C.hom(F.on_obj(d), c))
                              if xi not in members[d])
            s = mask_of(f for f in C.arrows_into(c) if not C.principal_sieves[f] & outside)
            if _induced_family(F, src_top, c, s) != members:
                return _no("comorphism-hyperconnected", object=c,
                           family=[sorted(m) for m in members])
    return _yes("comorphism-hyperconnected")


def _induced_family(F: FinFunctor, J: GrothendieckTopology, c: int,
                    s: int) -> tuple[frozenset[int], ...]:
    """The family of Hom_C(F(-), c) induced by the sieve s on c: per d, the
    positions of the x: F(d) -> c along which s pulls back to a J-cover."""
    D, C = F.source, F.target
    return tuple(
        frozenset(xi for xi, x in enumerate(C.hom(F.on_obj(d), c))
                  if J.is_covering(d, mask_of(t for t in D.arrows_into(d)
                                              if (s >> C.compose(x, F.on_arr(t))) & 1)))
        for d in D.objects)


def classify_comorphism(sf: SiteFunctor) -> MorphismClassification:
    _require(is_comorphism_of_sites(sf), "a comorphism of sites")
    props = local_property_tests(sf)
    continuous = is_continuous(sf)

    surjection = comorphism_surjection(sf)

    if props["J_full"] and props["J_faithful"]:
        inclusion = _yes("comorphism-inclusion", via="K-full and K-faithful")
    elif continuous:
        bad = props["J_full"] if not props["J_full"] else props["J_faithful"]
        inclusion = _no("comorphism-inclusion", witness=bad.witness)
    else:
        inclusion = _comorphism_inclusion_general(sf)

    localic = _comorphism_localic_general(sf)
    hyperconnected = _comorphism_hyperconnected(sf)
    equivalence = _comorphism_equivalence(sf, continuous.holds)
    return MorphismClassification(surjection, inclusion, hyperconnected,
                                  localic, equivalence)


def _comorphism_equivalence(sf: SiteFunctor, continuous: bool) -> Verdict:
    """C_F is an equivalence: full-faithful-dense for a continuous F (the
    bimorphism criterion without K-faithfulness is unsound, see the
    decisions ledger), otherwise hyperconnected and localic."""
    if continuous:
        props = local_property_tests(sf)
        return _conjunction("comorphism-equivalence", props["J_full"], props["J_faithful"],
                            props["K_dense"], via="continuous K-full K-faithful J-dense")
    return _conjunction("comorphism-equivalence", _comorphism_hyperconnected(sf),
                        _comorphism_localic_general(sf), via="hyperconnected and localic")


# ---------------------------------------------------------------------------
# comorphism-side factorizations (for cover-preserving comorphisms)

@dataclass(frozen=True)
class ComorphismFactorizations:
    # surjection-inclusion: F = i ∘ F' through the full image subcategory
    image_topology: GrothendieckTopology
    surjection_leg: SiteFunctor          # F': (D, K) -> (C', M^i_J)
    inclusion_leg: SiteFunctor           # i: (C', M^i_J) -> (C, J)
    # hyperconnected-localic: F = F~ ∘ π through the functor-congruence quotient
    quotient_topology: GrothendieckTopology
    hyperconnected_leg: SiteFunctor      # π: (D, K) -> (E, L)
    localic_leg: SiteFunctor             # F~: (E, L) -> (C, J)


def comorphism_factorizations(sf: SiteFunctor) -> ComorphismFactorizations:
    _require(is_comorphism_of_sites(sf), "a comorphism of sites")
    cp = is_cover_preserving(sf)
    if not cp:
        raise ValueError(f"comorphism factorizations need cover preservation: {cp.witness}")
    F = sf.F
    K, J = sf.source_topology, sf.target_topology

    _, incl = full_subcategory(F.target, sorted(F.image_objects))
    j_prime = smallest_comorphism_topology(incl, J)
    f_prime = corestrict(F, incl)

    quotient, projection, induced = quotient_by_functor_congruence(F)
    L = topology_where(quotient, lambda c, s: K.is_covering(
        c, preimage_mask(projection, s, c)))

    return ComorphismFactorizations(
        j_prime,
        SiteFunctor(f_prime, K, j_prime),
        SiteFunctor(incl, j_prime, J),
        L,
        SiteFunctor(projection, K, L),
        SiteFunctor(induced, L, J),
    )


# ---------------------------------------------------------------------------
# locally connected morphisms

def _ab_categories(F: FinFunctor, h: int, c: int, x: int):
    """The two elements-style categories attached to (h: d0 -> d1, c, x),
    their projections to the target, and the comparison functor between them.

    Returns (A objects, A edges, a-projection objects;
             B objects, B edges, b-projection objects; xi object map)."""
    C, D = F.source, F.target
    d0, d1 = D.dom[h], D.cod[h]

    a_objects = [(cp, y, f)
                 for cp in C.objects
                 for f in C.hom(cp, c)
                 for y in D.hom(F.on_obj(cp), d0)
                 if D.compose(x, F.on_arr(f)) == D.compose(h, y)]
    a_index = {o: i for i, o in enumerate(a_objects)}
    a_edges = []
    for i, (c1, y1, f1) in enumerate(a_objects):
        for j, (c2, y2, f2) in enumerate(a_objects):
            for t in C.hom(c1, c2):
                if C.compose(f2, t) == f1 and \
                        D.compose(y2, F.on_arr(t)) == y1:
                    a_edges.append((i, j, F.on_arr(t)))
    a_proj = [F.on_obj(o[0]) for o in a_objects]

    b_objects = [(d, z, g)
                 for d in D.objects
                 for g in D.hom(d, F.on_obj(c))
                 for z in D.hom(d, d0)
                 if D.compose(x, g) == D.compose(h, z)]
    b_index = {o: i for i, o in enumerate(b_objects)}
    b_edges = []
    for i, (e1, z1, g1) in enumerate(b_objects):
        for j, (e2, z2, g2) in enumerate(b_objects):
            for s in D.hom(e1, e2):
                if D.compose(g2, s) == g1 and D.compose(z2, s) == z1:
                    b_edges.append((i, j, s))
    b_proj = [o[0] for o in b_objects]

    xi_map = [b_index[(F.on_obj(cp), y, F.on_arr(f))] for (cp, y, f) in a_objects]
    return a_objects, a_edges, a_proj, b_objects, b_edges, b_proj, xi_map


def is_locally_connected_presheaf(F: FinFunctor) -> Verdict:
    """Local connectedness of the presheaf-topos morphism induced by F: the
    trivial-topology instance of `is_locally_connected_general`, where every
    functor is a continuous comorphism."""
    return _locally_connected(F, trivial_topology(F.target))


def is_locally_connected_general(sf: SiteFunctor) -> Verdict:
    """Local connectedness of C_F for a continuous comorphism, with covering
    refinements in both clauses."""
    _require(is_comorphism_of_sites(sf), "a comorphism of sites")
    _require(is_continuous(sf), "continuous")
    return _locally_connected(sf.F, sf.target_topology)


def _locally_connected(F: FinFunctor, K: GrothendieckTopology) -> Verdict:
    """The two comparison conditions over the elements categories attached
    to every (h, c, x), each required to hold on a K-covering sieve."""
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
                        if any(
                            lab[(bi, u)] == lab[(xi_map[ai], s)]
                            for ai in range(len(a_objects))
                            for s in D.hom(e, a_proj[ai])
                        ):
                            good |= 1 << u
                    if not K.is_covering(d, good):
                        return _no("locally-connected", clause="a",
                                   instance={"h": h, "c": c, "x": x,
                                             "b_object": (d, z, g)}, sieve=good)

                miss = comma_a.unconnected(K, lambda d, ai, alpha, aj, beta: (
                    comma_b.labels(d)[(xi_map[ai], alpha)]
                    == comma_b.labels(d)[(xi_map[aj], beta)]))
                if miss:
                    _, _, alpha, _, beta, good = miss
                    return _no("locally-connected", clause="b",
                               instance={"h": h, "c": c, "x": x,
                                         "alpha": alpha, "beta": beta},
                               sieve=good)
    return _yes("locally-connected")


# ---------------------------------------------------------------------------
# comprehensive factorization and terminal connectedness

@dataclass(frozen=True)
class ComprehensiveFactorization:
    sheaf: ps.FinPresheaf                  # F_K = a_K(colim y∘F)
    elements: ps.ElementsResult            # ∫F_K with its projection to D
    topology: GrothendieckTopology         # M^{π}_K on ∫F_K
    lift: FinFunctor                       # ξ: C -> ∫F_K
    projection: FinFunctor                 # π: ∫F_K -> D
    cofinality: Verdict                    # ξ is M^{π}_K-cofinal


def comprehensive_factorization(F: FinFunctor, K: GrothendieckTopology) -> ComprehensiveFactorization:
    C, D = F.source, F.target
    colim, legs = ps.colimit_of_representables(F)
    sh = ps.sheafify(colim, K)
    el, topology = ps.elements_topology(sh.sheaf, K)

    def elt(c: int) -> int:
        fc = F.on_obj(c)
        return sh.unit.at(fc, legs[c][fc][D.hom_position[D.identity[fc]]])

    xi_obj = tuple(el.object_index[(F.on_obj(c), elt(c))] for c in C.objects)
    xi_arr = tuple(el.arrow_index.get((xi_obj[C.dom[u]], xi_obj[C.cod[u]], F.on_arr(u)))
                   for u in C.arrows)
    if None in xi_arr:
        raise ValueError(f"comprehensive lift is not a functor at arrow {xi_arr.index(None)}")
    xi = FinFunctor(C, el.category, xi_obj, xi_arr)
    cof = is_J_cofinal(xi, topology)
    return ComprehensiveFactorization(sh.sheaf, el, topology, xi,
                                      el.projection, cof)


def is_terminally_connected(sf: SiteFunctor) -> Verdict:
    """Terminal connectedness of the (essential) morphism induced by a
    continuous comorphism: relative cofinality wrt the target topology."""
    _require(is_comorphism_of_sites(sf), "a comorphism of sites")
    _require(is_continuous(sf), "continuous")
    return is_J_cofinal(sf.F, sf.target_topology)


# ---------------------------------------------------------------------------
# witness replay

def recheck_witness(sf: SiteFunctor, verdict: Verdict) -> bool:
    """Replay a verdict's witness against the definitions.

    Counterexample witnesses are re-verified directly from the recorded
    quantifier instance (the morphism-of-sites clauses by the direct scans
    that the checker replaces with look-ups, weak-denseness clause (iii)
    by the definition at its recorded family, a composite flag and
    weak-denseness clause (i) by the part they record); an object out of
    range or a mask that is not a sieve on it replays False.  Positive
    certificates are replayed by re-running the corresponding checker, or
    those of a composite flag's parts.  A record whose `source_topology`
    is "induced" was decided, and replays, on (F, J_F, K).
    """
    w = verdict.witness
    kind = w["kind"]
    F, J, K = sf.F, sf.source_topology, sf.target_topology
    C, D = F.source, F.target
    if w.get("source_topology") == "induced":  # decided on J_F, as an inclusion flag may be
        try:
            J = induced_topology(F, K)
        except TopologyError:
            return False
    sf = SiteFunctor(F, J, K)  # re-run the checkers, not the verdicts kept on sf
    if verdict.holds:
        runner = _POSITIVE_RUNNERS.get(kind)
        return runner is None or runner(sf).holds
    if kind in ("cover-preserving", "cover-reflecting") or \
            kind == "morphism-of-sites" and w["clause"] == "i":
        c, s = w["object"], w["sieve"]
        if not (c in C.objects and is_sieve_mask(C, c, s)):
            return False
        covered = K.covers_family(F.on_obj(c), _image(F, s))
        if kind == "cover-reflecting":
            return not J.is_covering(c, s) and covered
        return J.is_covering(c, s) and not covered
    if kind == "covering-lifting":
        d, s = w["object"], w["sieve"]
        return d in C.objects and is_sieve_mask(D, F.on_obj(d), s) and \
            K.is_covering(F.on_obj(d), s) and not J.is_covering(d, preimage_mask(F, s, d))
    if kind == "morphism-of-sites":
        return _replays_morphism_of_sites(sf, w)
    if kind in _PARTS:
        # a failed K-full, K-faithful or J-dense test decides a comorphism's
        # flag for a continuous F only; a failed surjection, nested in the
        # hyperconnected witness, says nothing of inclusion
        inner = w.get("witness", {})
        if (inner.get("kind"), inner.get("clause")) not in _PARTS[kind] or \
                kind == "comorphism-inclusion" and "witness" in inner:
            return False
        if inner["kind"] in ("J-full", "J-faithful", "K-dense") and not is_continuous(sf).holds:
            return False
        return recheck_witness(sf, Verdict(False, inner))
    if kind == "weakly-dense" and w.get("clause") == "i":
        inner = w.get("witness", {})
        return inner.get("kind") == "cover-reflecting" \
            and recheck_witness(sf, Verdict(False, inner))
    if kind == "weakly-dense" and w.get("clause") == "iii":
        return _replays_weakly_dense_clause_iii(sf, w)
    if kind == "weakly-dense" and w.get("clause") == "ii":
        d, s = w["object"], w["sieve"]
        return d in D.objects and s == generate_mask(D, next(_realized_arrows(sf, [d]))) \
            and not K.is_covering(d, s)
    # this one re-runs its check, once the object it records is in range
    if kind == "comorphism-localic":
        return w["object"] in C.objects and not _comorphism_localic_general(sf).holds
    if kind == "closed-sieve-lifting":
        c, s = w["object"], w["sieve"]
        return c in C.objects and is_sieve_mask(D, F.on_obj(c), s) \
            and closure_mask(K, F.on_obj(c), s) == s \
            and all(closure_mask(K, F.on_obj(c), generate_mask(D, _image(F, r))) != s
                    for r in all_sieve_masks(C, c))
    if kind == "comorphism-hyperconnected":
        if "witness" in w:
            return recheck_witness(sf, Verdict(False, w["witness"]))
        c, members = w["object"], tuple(frozenset(m) for m in w["family"])
        return c in D.objects and len(members) == len(C.objects) and \
            ps.closure_cJ(ps.SubPresheaf(_hom_presheaf(F, c), members), J).members == members \
            and all(_induced_family(F, J, c, s) != members for s in all_sieve_masks(D, c))
    if kind == "comorphism-surjection":
        c, s = w["object"], w["sieve"]
        return c in D.objects and is_sieve_mask(D, c, s) and K.is_covering(c, s) != all(
            J.is_covering(e, preimage_mask(F, pullback_mask(D, s, xi), e))
            for e in C.objects for xi in D.hom(F.on_obj(e), c))
    if kind == "J-faithful":
        h, k = w["instance"]["h"], w["instance"]["k"]
        return h in C.arrows and k in C.hom(C.dom[h], C.cod[h]) and h != k \
            and F.on_arr(h) == F.on_arr(k) and not local_equality(J, h, k)
    if kind == "J-full":
        x, y, g = (w["instance"][key] for key in "xyg")
        return x in C.objects and y in C.objects and g in D.hom(F.on_obj(x), F.on_obj(y)) \
            and not J.is_covering(x, w["sieve"]) and w["sieve"] == mask_of(
                f for f in C.arrows_into(x)
                if any(D.compose(g, F.on_arr(f)) == F.on_arr(k) for k in C.hom(C.dom[f], y)))
    if kind == "K-dense":
        return (w["object"], w["sieve"]) in _image_base_misses(sf)
    if kind == "cofinal":
        return not is_J_cofinal(F, K).holds
    checker = _POSITIVE_RUNNERS.get(kind)
    if checker is not None:
        return not checker(sf).holds
    raise ValueError(f"no re-checker for witness kind {kind!r}")


def _replays_morphism_of_sites(sf: SiteFunctor, w: dict) -> bool:
    """Clauses (ii)-(iv): recompute the sieve of the recorded instance by
    the direct scans, not the realized values the checker looks up, and
    require that it is the recorded sieve and does not cover.  Clause (iii)
    records g1: d -> F(c1) and g2: d -> F(c2) but not c1 and c2, so every
    pair of objects over their codomains is tried."""
    F, K = sf.F, sf.K
    C, D = F.source, F.target
    clause, sieve = w["clause"], w["sieve"]
    d = w["object"] if clause == "ii" else w["instance"]["d"]
    if not (d in D.objects and is_sieve_mask(D, d, sieve)):
        return False
    if clause == "ii":
        return sieve == _sieves_to_image(F)[d] and not K.is_covering(d, sieve)
    inst = w["instance"]
    if clause == "iii":
        g1, g2 = inst["g1"], inst["g2"]
        if not (g1 in D.arrows and g2 in D.arrows and D.dom[g1] == D.dom[g2] == d):
            return False
        found = any(_cone_sieve_iii(sf, c1, c2, g1, g2) == sieve
                    for c1 in C.objects if F.on_obj(c1) == D.cod[g1]
                    for c2 in C.objects if F.on_obj(c2) == D.cod[g2])
    else:
        f1, f2, g = inst["f1"], inst["f2"], inst["g"]
        if (not (f1 in C.arrows and f2 in C.arrows and g in D.arrows) or f1 == f2
                or (C.dom[f2], C.cod[f2]) != (C.dom[f1], C.cod[f1])
                or (D.dom[g], D.cod[g]) != (d, F.on_obj(C.dom[f1]))
                or D.compose(F.on_arr(f1), g) != D.compose(F.on_arr(f2), g)):
            return False
        found = _cone_sieve_iv(sf, f1, f2, g) == sieve
    return found and not K.is_covering(d, sieve)


def _replays_weakly_dense_clause_iii(sf: SiteFunctor, w: dict) -> bool:
    """Clause (iii) of weak denseness from its record alone: U must be a
    K-cover of F(x) and g a coherent family over U into F(y), with
    g_{h∘z} ≡_K g_h∘z for each member h and z into dom h.  `found` must be
    the arrows f into x for which some k: dom f -> y has
    F(k)∘v ≡_K g_{F(f)∘v} at every v with F(f)∘v in U, and it must not
    J-cover x.  Local equality compares `arrow_keys`; no family is
    searched and no table is read."""
    F, J, K = sf.F, sf.J, sf.K
    C, D = F.source, F.target
    x, y, u, g = (w["instance"][key] for key in ("x", "y", "sieve", "family"))
    if not (x in C.objects and y in C.objects and isinstance(g, dict)):
        return False
    fx, fy = F.on_obj(x), F.on_obj(y)
    if not (is_sieve_mask(D, fx, u) and K.is_covering(fx, u) and set(g) == set(bits(u))
            and all(g[h] in D.hom(D.dom[h], fy) for h in g)):
        return False
    if not all(local_equality(K, g[hz], D.compose(g[h], z))
               for h in g for z, hz in zip(D.arrows_into(D.dom[h]), D.composites[h])):
        return False
    found = mask_of(
        f for f in C.arrows_into(x)
        if any(all(local_equality(K, D.compose(F.on_arr(k), v), g[fv])
                   for v, fv in zip(D.arrows_into(F.on_obj(C.dom[f])), D.composites[F.on_arr(f)])
                   if (u >> fv) & 1)
               for k in C.hom(C.dom[f], y)))
    return w["found"] == found and not J.is_covering(x, found)


# the parts, by (kind, clause), whose failure a failed composite flag records
_PARTS: dict[str, set[tuple[str, str | None]]] = {
    "hyperconnected": {("cover-reflecting", None), ("closed-sieve-lifting", None)},
    "essential-surjective-closed-image": {("closed-sieve-lifting", None), ("weakly-dense", "ii")},
    "comorphism-inclusion": {("comorphism-hyperconnected", None), ("comorphism-localic", None),
                             ("J-full", None), ("J-faithful", None)},
    "comorphism-equivalence": {("comorphism-hyperconnected", None), ("comorphism-localic", None),
                               ("J-full", None), ("J-faithful", None), ("K-dense", None)},
}


_POSITIVE_RUNNERS: dict[str, Callable[[SiteFunctor], Verdict]] = {
    "cover-preserving": is_cover_preserving,
    "cover-reflecting": is_cover_reflecting,
    "covering-lifting": is_comorphism_of_sites,
    "morphism-of-sites": is_morphism_of_sites,
    "continuous": is_continuous,
    "dense": is_dense_morphism,
    "weakly-dense": is_weakly_dense,
    "closed-sieve-lifting": closed_sieve_lifting,
    "localic": _localic_condition,
    "comorphism-surjection": comorphism_surjection,
    "comorphism-inclusion": _comorphism_inclusion_general,
    "comorphism-hyperconnected": _comorphism_hyperconnected,
    "comorphism-localic": _comorphism_localic_general,
    "J-full": lambda sf: local_property_tests(sf)["J_full"],
    "J-faithful": lambda sf: local_property_tests(sf)["J_faithful"],
    "K-dense": lambda sf: local_property_tests(sf)["K_dense"],
    "hyperconnected": lambda sf: _conjunction(
        "hyperconnected", is_cover_reflecting(sf), closed_sieve_lifting(sf)),
    "essential-surjective-closed-image": lambda sf: _conjunction(
        "essential-surjective-closed-image", closed_sieve_lifting(sf),
        _weakly_dense_clause_ii(sf)),
    "comorphism-equivalence": lambda sf: _comorphism_equivalence(sf, is_continuous(sf).holds),
}
