"""Functor-level decision procedures: morphisms and comorphisms of sites,
continuity, cofinality, the denseness ladder and the property classifiers
for the induced geometric morphisms.  The factorizations and the witness
replay are modules of their own, `factorizations` and `replay`.

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

from .fincat import FinCategory, FinFunctor, _memo, _UnionFind, derived_category
from .sieves import bits, generate_mask, mask_of, preimage_mask, pullback_mask
from .topology import (GrothendieckTopology, closure_mask, coinduced_topology, induced_topology,
                       local_equality)
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


def _unconnected_square(sf: SiteFunctor, c: int, s: int) -> tuple[dict, int] | None:
    """The first commuting square F(f)∘w = F(g)∘z over the image diagram of
    the sieve s on c, f and g its members, whose ends (f, w) and (g, z) are
    not connected on a K-cover of d = dom w, with the sieve on which they
    are; None when every square connects.  A sieve that holds id_c gives
    None: each member f has an edge f to id_c, so both ends connect to
    (id_c, F(f)∘w∘u) along every u, and the sieve found is maximal."""
    F, K = sf.F, sf.K
    C, D = F.source, F.target
    if (s >> C.identity[c]) & 1:
        return None
    members, raw_edges = sieve_diagram(C, s)
    vertices = [F.on_obj(C.dom[f]) for f in members]
    comma = _CommaComponents(D, vertices, [(i, j, F.on_arr(t)) for (i, j, t) in raw_edges])
    for i1, f in enumerate(members):
        for i2, g in enumerate(members):
            for d in D.objects:
                for w in D.hom(d, vertices[i1]):
                    for z in D.hom(d, vertices[i2]):
                        if D.compose(F.on_arr(f), w) != D.compose(F.on_arr(g), z):
                            continue
                        good = comma.sieve(d, i1, w, i2, z)
                        if not K.is_covering(d, good):
                            return {"f": f, "g": g, "d": d, "w": w, "z": z}, good
    return None


def is_continuous(sf: SiteFunctor) -> Verdict:
    """Finitary continuity criterion: cover-preserving, plus local connection
    of every commuting square over the image diagram of a covering sieve
    (`_unconnected_square`), decided at m_c through `first_failing_cover`.

    L4: for a cover-preserving F, the squares over every cover connect iff
    those over m_c do.  Take a cover S ⊇ m_c, members f, g of S and
    F(f)∘w = F(g)∘z out of d.  F(f*(m_c)) generates a K-cover; pulled
    back along w, it is a K-cover of d on whose members u, w∘u = F(h)∘w'
    with f∘h in m_c, and (f, w∘u) joins (f∘h, w') by the edge h.  Likewise
    for g; on the intersection of the two covers the m_c test connects
    (f∘h, w') and (g∘h', z') locally, so by transitivity of K the ends
    connect on a K-cover of d."""
    cp = is_cover_preserving(sf)
    if not cp:
        return _no("continuous", clause="cover-preserving",
                   object=cp.witness["object"], sieve=cp.witness["sieve"])
    for c in sf.F.source.objects:
        s = sf.J.first_failing_cover(c, lambda s: _unconnected_square(sf, c, s) is None)
        if s is not None:
            instance, good = _unconnected_square(sf, c, s)
            return _no("continuous", clause="connection", object=c, sieve=s,
                       instance=instance, found=good)
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
    if local_property_tests(sf)["J_faithful"]:
        return _yes("comorphism-localic", via="K-faithful")
    for d in sf.F.source.objects:
        s = _localic_sieve(sf, d)
        if not sf.source_topology.is_covering(d, s):
            return _no("comorphism-localic", object=d, sieve=s)
    return _yes("comorphism-localic")


def _localic_sieve(sf: SiteFunctor, d: int) -> int:
    """The sieve on d generated by the arrows g into d that pass the
    localic criterion (`_check_comorphism_localic`)."""
    D = sf.F.source

    def arrow_ok(g: int) -> bool:
        sh_yd1, _, chi = _chi_morphism(sf, D.dom[g])
        y_g = _yoneda_sheaf_arrow(sf, g, sh_yd1, _chi_morphism(sf, d)[0])
        return all(len(set(zip(chi.components[e], y_g.components[e])))
                   == len(set(chi.components[e])) for e in D.objects)

    return generate_mask(D, mask_of(g for g in D.arrows_into(d) if arrow_ok(g)))


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
    positions of the x: F(d) -> c along which s pulls back to a J-cover.
    As s is a sieve, so is {t | x∘F(t) in s}, and it covers iff it holds
    each generator of the least cover m_d (L0)."""
    C = F.target
    return tuple(
        frozenset(xi for xi, x in enumerate(C.hom(F.on_obj(d), c))
                  if all((s >> C.compose(x, F.on_arr(g))) & 1 for g in gens))
        for d, gens in enumerate(J.min_cover_generators))


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
