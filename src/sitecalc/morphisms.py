"""Functor-level decision procedures: morphisms and comorphisms of sites,
continuity, cofinality, the denseness ladder, property classifiers for the
induced geometric morphisms, and the three factorizations.

Every verdict carries a replayable witness: counterexamples name the
quantifier instance that fails, positive answers record what was checked.
All "there exists a covering family such that" searches iterate over stored
sieves; where a clause quantifies over arbitrary families of sieves, a
restriction argument (see the decisions ledger) collapses the search to
least-covering or principal sieves without losing completeness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .fincat import (
    FinCategory,
    FinFunctor,
    SizeGuardError,
    _UnionFind,
    full_subcategory,
    identity_functor,
    quotient_by_functor_congruence,
)
from .sieves import (
    all_sieve_masks,
    bits,
    generate_mask,
    mask_of,
    maximal_sieve_mask,
    preimage_mask,
    pullback_mask,
)
from .topology import (
    GrothendieckTopology,
    closure_mask,
    coinduced_topology,
    induced_topology,
    local_equality,
    smallest_comorphism_topology,
    topology_where,
    trivial_topology,
)
from . import presheaf as ps

V = TypeVar("V")


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

    @cached_property
    def verdicts(self) -> dict[str, Verdict | dict[str, Verdict]]:
        """Checker verdicts on this site functor, each computed once by
        `verdict`; they live and die with this instance."""
        return {}

    def verdict(self, key: str, check: Callable[[SiteFunctor], V]) -> V:
        """check(self), computed on the first request for `key` only."""
        if key not in self.verdicts:
            self.verdicts[key] = check(self)
        return self.verdicts[key]

    @cached_property
    def sheaves(self) -> dict:
        """Sheafifications on the source site, keyed by presheaf, and the
        arrows χ_d, each built once by `_sheafified` and `_chi_morphism`;
        they live and die with this instance."""
        return {}


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


def _require(verdict: Verdict, what: str) -> None:
    """A failed precondition: ValueError("not <what>: <witness>")."""
    if not verdict:
        raise ValueError(f"not {what}: {verdict.witness}")


# ---------------------------------------------------------------------------
# cover preservation / reflection / lifting

def is_cover_preserving(sf: SiteFunctor) -> Verdict:
    F, J, K = sf.F, sf.J, sf.K
    for c in F.source.objects:
        for s in J.covers[c]:
            image = mask_of(F.on_arr(f) for f in bits(s))
            if not K.covers_family(F.on_obj(c), image):
                return _no("cover-preserving", object=c, sieve=s)
    return _yes("cover-preserving")


def is_cover_reflecting(sf: SiteFunctor) -> Verdict:
    return sf.verdict("cover-reflecting", _check_cover_reflecting)


def _check_cover_reflecting(sf: SiteFunctor) -> Verdict:
    F, J, K = sf.F, sf.J, sf.K
    for c in F.source.objects:
        for s in all_sieve_masks(F.source, c):
            if s in J.covers[c]:
                continue
            image = mask_of(F.on_arr(f) for f in bits(s))
            if K.covers_family(F.on_obj(c), image):
                return _no("cover-reflecting", object=c, sieve=s)
    return _yes("cover-reflecting")


def is_comorphism_of_sites(sf: SiteFunctor) -> Verdict:
    """Covering-lifting property: the full preimage of every covering sieve
    on an image object must cover (any lift R sits inside the preimage)."""
    F, J, K = sf.F, sf.J, sf.K
    for d in F.source.objects:
        for s in K.covers[F.on_obj(d)]:
            lifted = preimage_mask(F, s, d)
            if not J.is_covering(d, lifted):
                return _no("covering-lifting", object=d, sieve=s, preimage=lifted)
    return _yes("covering-lifting")


# ---------------------------------------------------------------------------
# morphisms of sites: the four clauses, each reduced to "this sieve covers"

def is_morphism_of_sites(sf: SiteFunctor) -> Verdict:
    return sf.verdict("morphism-of-sites", _check_morphism_of_sites)


def _check_morphism_of_sites(sf: SiteFunctor) -> Verdict:
    """Clauses (iii) and (iv) collect what the cones realize once, then
    look each gp up instead of scanning for a cone.  For (iii), gp is good
    for (g1, g2) exactly when g1∘gp = F(f1)∘h and g2∘gp = F(f2)∘h for one
    cone (cc, h), so the cones through each arrow into each F(c) are
    collected once.  For (iv), gp is good for g exactly when g∘gp is a
    realized composite F(k)∘h with f1∘k = f2∘k.  What the cones realize
    is closed under precomposition, so when the instance itself is
    realized every gp is good."""
    F, J, K = sf.F, sf.J, sf.K
    C, D = F.source, F.target
    comp = D.comp

    cp = is_cover_preserving(sf)
    if not cp:
        return _no("morphism-of-sites", clause="i",
                   object=cp.witness["object"], sieve=cp.witness["sieve"])

    for d in D.objects:
        good = _sieve_to_image(F, d)
        if not K.is_covering(d, good):
            return _no("morphism-of-sites", clause="ii", object=d, sieve=good)

    # per object c: arrow u into F(c) -> the cones (cc, h) with u = F(f)∘h, f: cc -> c
    cones: list[dict[int, set[tuple[int, int]]]] = [{} for _ in C.objects]
    for cc in C.objects:
        hs = D.arrows_into(F.on_obj(cc))
        for f in C.arrows_out_of(cc):
            Ff, through = F.on_arr(f), cones[C.cod[f]]
            for h in hs:
                through.setdefault(comp[(Ff, h)], set()).add((cc, h))
    no_cones: frozenset[tuple[int, int]] = frozenset()
    tops = [maximal_sieve_mask(D, d) for d in D.objects]
    for c1, c2 in itertools.product(C.objects, repeat=2):
        cones1, cones2 = cones[c1], cones[c2]
        e1, e2 = F.on_obj(c1), F.on_obj(c2)
        for d in D.objects:
            for g1 in D.hom(d, e1):
                for g2 in D.hom(d, e2):
                    if not cones1.get(g1, no_cones).isdisjoint(cones2.get(g2, no_cones)):
                        good = tops[d]
                    else:
                        good = mask_of(
                            gp for gp in D.arrows_into(d)
                            if not cones1.get(comp[(g1, gp)], no_cones).isdisjoint(
                                cones2.get(comp[(g2, gp)], no_cones)))
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
                        if comp[(F.on_arr(f1), g)] != comp[(F.on_arr(f2), g)]:
                            continue
                        if realized is None:
                            realized = {comp[(F.on_arr(k), h)]
                                        for cc in C.objects for k in C.hom(cc, c1)
                                        if C.comp[(f1, k)] == C.comp[(f2, k)]
                                        for h in D.arrows_into(F.on_obj(cc))}
                        if g in realized:
                            good = tops[d]
                        else:
                            good = mask_of(gp for gp in D.arrows_into(d)
                                           if comp[(g, gp)] in realized)
                        if not K.is_covering(d, good):
                            return _no("morphism-of-sites", clause="iv",
                                       instance={"f1": f1, "f2": f2, "g": g, "d": d},
                                       sieve=good)
    return _yes("morphism-of-sites")


def _sieve_to_image(F: FinFunctor, d: int) -> int:
    """The arrows into d whose domain maps to some image object F(c): the
    sieve of morphism-of-sites clause (ii) and of cofinality clause (i)."""
    D = F.target
    return mask_of(g for g in D.arrows_into(d)
                   if any(D.hom(D.dom[g], F.on_obj(c)) for c in F.source.objects))


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
             if cat.comp[(g, t)] == f]
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
        self._labels: dict[int, dict[tuple[int, int], int]] = {}

    def labels(self, e: int) -> dict[tuple[int, int], int]:
        if e not in self._labels:
            self._labels[e] = comma_components(self.cat, e, self.vertices, self.edges)
        return self._labels[e]

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
    of every commuting square over the image diagram of a covering sieve."""
    F, J, K = sf.F, sf.J, sf.K
    C, D = F.source, F.target
    cp = is_cover_preserving(sf)
    if not cp:
        return _no("continuous", clause="cover-preserving",
                   object=cp.witness["object"], sieve=cp.witness["sieve"])
    for c in C.objects:
        for s in J.covers[c]:
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
                comp[(j, i)] = arr_index[(s1, t2, cat.comp[(u2, u1)])]
    return FinCategory(n, dom, cod, identities, comp)


# ---------------------------------------------------------------------------
# relative cofinality

def is_J_cofinal(F: FinFunctor, J: GrothendieckTopology) -> Verdict:
    """The two clauses of J-cofinality: local existence of factorizations and
    local connection of pairs, via components of (c ↓ F)."""
    A, C = F.source, F.target
    for c in C.objects:
        good = _sieve_to_image(F, c)
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
                             C.comp[(legs[a], x)] == C.comp[(legs[b], x2)])
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
    comparison = ps.PresheafMorphism(colim, ps.yoneda(C, vertex),
                                     tuple(tuple(row) for row in comps))
    return ps.is_bicovering(comparison, J)


# ---------------------------------------------------------------------------
# local faithfulness / fullness / denseness

def local_property_tests(sf: SiteFunctor) -> dict[str, Verdict]:
    """The five local verdicts, J_faithful, JK_faithful, J_full, JK_full
    and K_dense, computed once per site functor."""
    return sf.verdict("local-properties", _check_local_properties)


def _check_local_properties(sf: SiteFunctor) -> dict[str, Verdict]:
    F, J, K = sf.F, sf.J, sf.K
    C, D = F.source, F.target
    out: dict[str, Verdict] = {}

    def faithful(local_target: bool) -> Verdict:
        kind = "JK-faithful" if local_target else "J-faithful"
        for a in C.objects:
            for b in C.objects:
                for h in C.hom(a, b):
                    for k in C.hom(a, b):
                        if h == k:
                            continue
                        if local_target:
                            eq = local_equality(K, F.on_arr(h), F.on_arr(k))
                        else:
                            eq = F.on_arr(h) == F.on_arr(k)
                        if eq and not local_equality(J, h, k):
                            return _no(kind, instance={"h": h, "k": k})
        return _yes(kind)

    def full(local_target: bool) -> Verdict:
        kind = "JK-full" if local_target else "J-full"
        for x in C.objects:
            for y in C.objects:
                for g in D.hom(F.on_obj(x), F.on_obj(y)):
                    good = 0
                    for f in C.arrows_into(x):
                        gf = D.compose(g, F.on_arr(f))
                        hit = any(
                            (local_equality(K, gf, F.on_arr(k))
                             if local_target else gf == F.on_arr(k))
                            for k in C.hom(C.dom[f], y))
                        if hit:
                            good |= 1 << f
                    if not J.is_covering(x, good):
                        return _no(kind, instance={"x": x, "y": y, "g": g}, sieve=good)
        return _yes(kind)

    out["J_faithful"] = faithful(False)
    out["JK_faithful"] = faithful(True)
    out["J_full"] = full(False)
    out["JK_full"] = full(True)

    miss = next(_image_base_misses(sf), None)
    out["K_dense"] = _no("K-dense", object=miss[0], sieve=miss[1]) if miss else _yes("K-dense")
    return out


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
    return sf.verdict("weakly-dense-ii", _check_weakly_dense_clause_ii)


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
    k: dom f -> y has g_h∘z ≡_K F(k)∘w for every w into F(dom f) and every
    h∘z = F(f)∘w with h in U; the values g_h∘z are collected once per
    composite h∘z.  The found arrows must J-cover x.

    The least cover m = K.min_cover[F(x)] decides the verdict.  A family g
    over a cover U ⊇ m restricts to one over m with the same found arrows:
    for a = F(f)∘w = h∘z in U, the members a∘v of m, v in the cover a*(m),
    give g_h∘z∘v ≡_K g_{a∘v} ≡_K F(k)∘w∘v, and local equality is local.
    So when every family over m passes, every family over every cover
    does, and m is a cover itself.  The pass path scans m alone on each
    object; only a failure rescans every cover in the order of `K.covers`
    for the first failing cover and family, the witness."""
    least = _clause_iii_scan(sf, [(m,) for m in sf.K.min_cover])
    return least if least else _clause_iii_scan(sf, sf.K.covers)


def _clause_iii_scan(sf: SiteFunctor, sieves: Sequence[Iterable[int]]) -> Verdict:
    """Clause (iii) over the sieves U in `sieves[F(x)]` for each x, and the
    coherent families g on U in search order; the first (x, y, U, g) whose
    found arrows do not J-cover x is the witness.

    When U holds the identity of F(x), U is maximal and every g_h is
    locally equal to g_id∘h, so f is found exactly when F(k) ≡_K g_id∘F(f)
    for some k, local equality being an equivalence relation stable under
    precomposition on a topology.  Every g_id: F(x) -> F(y) is the value
    of the family h ↦ g_id∘h, so the found arrows are computed once per
    arrow of D(F(x), F(y)), and the families are searched only when some
    g_id fails, to name the first failing family."""
    F, J, K = sf.F, sf.J, sf.K
    C, D = F.source, F.target
    for x in C.objects:
        fx = F.on_obj(x)
        id_fx = D.identity[fx]
        for y in C.objects:
            fy = F.on_obj(y)
            for u_mask in sieves[fx]:
                members = sorted(bits(u_mask))
                by_value = None
                if (u_mask >> id_fx) & 1:
                    by_value = {v: mask_of(
                        f for f in C.arrows_into(x)
                        if any(local_equality(K, F.on_arr(k), D.comp[(v, F.on_arr(f))])
                               for k in C.hom(C.dom[f], y)))
                        for v in D.hom(fx, fy)}
                    if all(J.is_covering(x, ok) for ok in by_value.values()):
                        continue
                for g in _coherent_families(D, K, fx, members, fy):
                    ok = (_found_through(sf, x, y, members, g) if by_value is None
                          else by_value[g[id_fx]])
                    if not J.is_covering(x, ok):
                        return _no("weakly-dense", clause="iii",
                                   instance={"x": x, "y": y, "sieve": u_mask, "family": g},
                                   found=ok)
    return _yes("weakly-dense")


def _found_through(sf: SiteFunctor, x: int, y: int, members: Sequence[int],
                   g: dict[int, int]) -> int:
    """The arrows f into x found for the coherent family g over `members`,
    with the values g_h∘z collected once per composite h∘z."""
    F, K = sf.F, sf.K
    C, D = F.source, F.target
    through: dict[int, set[int]] = {}
    for h in members:
        for z in D.arrows_into(D.dom[h]):
            through.setdefault(D.comp[(h, z)], set()).add(D.comp[(g[h], z)])
    ok = 0
    for f in C.arrows_into(x):
        dom_f, Ff = C.dom[f], F.on_arr(f)
        ws = D.arrows_into(F.on_obj(dom_f))
        if any(all(local_equality(K, v, D.comp[(F.on_arr(k), w)])
                   for w in ws for v in through.get(D.comp[(Ff, w)], ()))
               for k in C.hom(dom_f, y)):
            ok |= 1 << f
    return ok


def is_weakly_dense(sf: SiteFunctor) -> Verdict:
    """Weakly dense morphism of sites; equivalent to the induced geometric
    morphism being an equivalence."""
    return sf.verdict("weakly-dense", _check_weakly_dense)


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

    A sieve s is K-closed exactly when no arrow outside it pulls it back
    to a covering sieve, members pulling it back to the maximal sieve, so
    only the non-members are tested.  A closed s is such a closure exactly
    when it is the closure of the sieve t generated by the image arrows in
    s, the image of the largest sieve r on c with F(r) ⊆ s: any r with
    closure(F(r)) = s lies in that one, and closure is monotone.  As t ⊆ s,
    t = s settles it at once.  A non-member f pulls s back to a sieve
    without the identity, so it is tested only when dom f has a covering
    sieve other than the maximal one."""
    F, K = sf.F, sf.K
    C, D = F.source, F.target
    coarse_objects = [any(s != maximal_sieve_mask(D, e) for s in K.covers[e])
                      for e in D.objects]
    coarse = mask_of(f for f in D.arrows if coarse_objects[D.dom[f]])

    def closure(e: int, s: int) -> int:
        return s | mask_of(f for f in bits(maximal_sieve_mask(D, e) & coarse & ~s)
                           if K.is_covering(D.dom[f], pullback_mask(D, s, f)))

    for c in C.objects:
        fc = F.on_obj(c)
        image = mask_of(F.on_arr(f) for f in C.arrows_into(c))
        for s in all_sieve_masks(D, fc):
            if closure(fc, s) != s:
                continue
            t = generate_mask(D, s & image)
            if t != s and closure(fc, t) != s:
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
            for u in D.arrows_into(D.dom[f0]):
                by_composite.setdefault(D.comp[(f0, u)], []).append(u)
            equalized[f0] = [(us[0], u) for us in by_composite.values() for u in us[1:]]
    presented = []
    for d in D.objects:
        realized = 0
        for f0, pairs in equalized.items():
            for h in D.hom(D.dom[f0], d):
                if all(local_equality(K, D.comp[(h, u)], D.comp[(h, u2)]) for u, u2 in pairs):
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
    if jf.covers == sf.J.covers:
        f_r = sf
    else:
        f_r = SiteFunctor(sf.F, jf, sf.K)
        f_r.verdicts["weakly-dense-ii"] = ii  # clause (ii) reads only F and K
    inclusion = is_weakly_dense(f_r)
    csl = closed_sieve_lifting(sf)
    if surjection and csl:
        hyperconnected = _yes("hyperconnected")
    else:
        bad = surjection if not surjection else csl
        hyperconnected = _no("hyperconnected", witness=bad.witness)
    localic = _localic_condition(sf)
    equivalence = is_weakly_dense(sf)
    if csl and ii:
        essential = _yes("essential-surjective-closed-image")
    else:
        bad = csl if not csl else ii
        essential = _no("essential-surjective-closed-image", witness=bad.witness)
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
    C, D = F.source, F.target
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
                h for h in D.arrows_into(D.dom[x])
                if D.comp[(y, h)] == D.comp[(D.comp[(g, x)], h)])))
        return arr_index[(src, dst, rel)]

    # the canonical embedding i^s_K: D -> D^s_K on maximal sieves
    isk_obj = tuple(obj_index[(d, maximal_sieve_mask(D, d))] for d in D.objects)
    isk_arr = tuple(graph_rel(g, isk_obj[D.dom[g]], isk_obj[D.cod[g]])
                    for g in D.arrows)
    i_s_k = FinFunctor(D, cjs.category, isk_obj, isk_arr)

    sub_objects = tuple(i for i, (d, s) in enumerate(cjs.objects)
                        if d in F.image_objects)
    sub_cat, sub_incl = full_subcategory(cjs.category, sub_objects)
    sub_top = induced_topology(sub_incl, ctop)

    sub_index = {o: i for i, o in enumerate(sub_objects)}
    fs_obj = tuple(sub_index[isk_obj[F.on_obj(c)]] for c in C.objects)
    sub_arr_index = {f: i for i, f in enumerate(
        [a for a in cjs.category.arrows
         if cjs.category.dom[a] in sub_index and cjs.category.cod[a] in sub_index])}
    fs_arr = tuple(sub_arr_index[isk_arr[F.on_arr(u)]] for u in C.arrows)
    f_s = FinFunctor(C, sub_cat, fs_obj, fs_arr)

    localic_leg = SiteFunctor(f_s, J, sub_top)
    hyper_leg = SiteFunctor(sub_incl, sub_top, ctop)
    embedding = SiteFunctor(f_s.then(sub_incl), J, ctop)
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
    return sf.verdict("comorphism-surjection", _check_comorphism_surjection)


def _check_comorphism_surjection(sf: SiteFunctor) -> Verdict:
    coind = coinduced_topology(sf.F, sf.source_topology)
    if coind.covers == sf.target_topology.covers:
        return _yes("comorphism-surjection")
    for c in sf.F.target.objects:
        diff = sf.target_topology.covers[c] ^ coind.covers[c]
        if diff:
            return _no("comorphism-surjection", object=c, sieve=min(diff))
    raise AssertionError("unreachable")


def _inclusion_relation_condition(sf: SiteFunctor) -> Verdict:
    """For every sheaf arrow ξ: a(P_c) -> a(P_c2) between sheafified
    image-hom presheaves P_c = Hom_C(F(-), c), the arrows f: z -> c paired
    with some g: z -> c2 such that ξ(η(f∘x)) = η(g∘x) for every
    x: F(e) -> z generate a sieve whose pullback along each x: F(e) -> c
    covers e.  These are the pairs related by the functional relation of
    ξ, read off ξ and the units directly."""
    F = sf.F
    src_top = sf.source_topology
    D, C = F.source, F.target
    sheafified = [_sheafified(sf, _hom_presheaf(F, c)) for c in C.objects]

    def unit(c: int, e: int, x: int) -> int:
        """η(x) in a(P_c)(e), for x: F(e) -> c."""
        return sheafified[c].unit.at(e, C.hom_position[x])

    for c in C.objects:
        for c2 in C.objects:
            for xi in ps.enumerate_presheaf_morphisms(sheafified[c].sheaf, sheafified[c2].sheaf):
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
    return _yes("comorphism-inclusion-relations")


def _sheafified(sf: SiteFunctor, P: ps.FinPresheaf) -> ps.SheafificationResult:
    """a(P) on the source site, sheafified once per presheaf (its sizes and
    restrictions) and kept in `sf.sheaves`."""
    key = (P.sizes, P.restrict)
    if key not in sf.sheaves:
        sf.sheaves[key] = ps.sheafify(P, sf.source_topology)
    return sf.sheaves[key]


def _chi_morphism(sf: SiteFunctor, d: int) -> tuple[ps.SheafificationResult,
                                                   ps.SheafificationResult,
                                                   ps.PresheafMorphism]:
    """The canonical arrow χ_d: l'(d) -> a(Hom_C(F(-), F(d))), as the
    sheafification of u -> F(u), with the sheafified representable l'(d)
    and a(Hom_C(F(-), F(d))).  Built once per object and kept in
    `sf.sheaves`."""
    key = ("chi", d)
    if key in sf.sheaves:
        return sf.sheaves[key]
    F = sf.F
    D, C = F.source, F.target
    yd = ps.yoneda(D, d)
    P = _hom_presheaf(F, F.on_obj(d))
    chi0 = ps.PresheafMorphism(yd, P, tuple(
        tuple(C.hom_position[F.on_arr(u)] for u in D.hom(e, d)) for e in D.objects))
    sh_yd = _sheafified(sf, yd)
    sh_P = _sheafified(sf, P)
    sf.sheaves[key] = sh_yd, sh_P, ps.sheafify_morphism(chi0, sh_yd, sh_P)
    return sf.sheaves[key]


def _yoneda_sheaf_arrow(sf: SiteFunctor, g: int,
                        sh_src: ps.SheafificationResult,
                        sh_dst: ps.SheafificationResult) -> ps.PresheafMorphism:
    """a(y(g)) between sheafified representables of the source site."""
    return ps.sheafify_morphism(ps.yoneda_arrow(sf.F.source, g), sh_src, sh_dst)


def _inclusion_arrow_splits(sf: SiteFunctor, g: int) -> bool:
    """Is there a relation (equivalently sheaf arrow a(P_{F(d')}) -> l'(d))
    splitting χ_{d'} over g: d' -> d."""
    D = sf.F.source
    d1, d = D.dom[g], D.cod[g]
    sh_yd1, sh_P, chi = _chi_morphism(sf, d1)
    sh_yd = _chi_morphism(sf, d)[0]
    target_arrow = _yoneda_sheaf_arrow(sf, g, sh_yd1, sh_yd)
    for xi in ps.enumerate_presheaf_morphisms(sh_P.sheaf, sh_yd.sheaf):
        if chi.then(xi).components == target_arrow.components:
            return True
    return False


def _comorphism_inclusion_general(sf: SiteFunctor) -> Verdict:
    rel = _inclusion_relation_condition(sf)
    if not rel:
        return rel
    F = sf.F
    D = F.source
    src_top = sf.source_topology
    for d in D.objects:
        ok = mask_of(g for g in D.arrows_into(d) if _inclusion_arrow_splits(sf, g))
        if not src_top.is_covering(d, generate_mask(D, ok)):
            return _no("comorphism-inclusion", clause="local-splitting", object=d)
    return _yes("comorphism-inclusion")


def _comorphism_localic_general(sf: SiteFunctor) -> Verdict:
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
    """Surjection condition plus: every functorial source-closed family A of
    arrows F(d) -> c (a closed subpresheaf of the hom presheaf) is induced
    by some sieve on c.

    One candidate decides each A: s*(A), the largest sieve whose principal
    sieves miss every arrow outside A.  A sieve s that induces A has its
    image arrows in A, so s ⊆ s*(A), and inducing is monotone; s*(A)
    induces a family inside A, as A is closed.  So A is induced exactly
    when s*(A) induces it."""
    surj = comorphism_surjection(sf)
    if not surj:
        return _no("comorphism-hyperconnected", witness=surj.witness)
    F = sf.F
    D, C = F.source, F.target
    src_top = sf.source_topology
    for c in C.objects:
        P = _hom_presheaf(F, c)
        if sum(P.sizes) > 16:
            raise SizeGuardError(
                f"{sum(P.sizes)} image arrows into {c} (limit 16)")
        homs = [C.hom(F.on_obj(d), c) for d in D.objects]
        for A in ps.subpresheaves(P):
            members = A.members
            if ps.closure_cJ(A, src_top).members != members:
                continue
            outside = mask_of(x for d in D.objects for xi, x in enumerate(homs[d])
                              if xi not in members[d])
            s = mask_of(f for f in C.arrows_into(c) if not C.principal_sieves[f] & outside)
            induced = tuple(
                frozenset(
                    xi for xi, x in enumerate(homs[d])
                    if src_top.is_covering(d, mask_of(
                        t for t in D.arrows_into(d)
                        if (s >> C.compose(x, F.on_arr(t))) & 1)))
                for d in D.objects)
            if induced != members:
                return _no("comorphism-hyperconnected", object=c,
                           family=[sorted(m) for m in members])
    return _yes("comorphism-hyperconnected")


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

    # the bimorphism criterion without K-faithfulness is unsound (see the
    # decisions ledger); continuous comorphisms, bimorphisms included, are
    # decided by the full-faithful-dense criterion
    if continuous:
        if props["J_full"] and props["J_faithful"] and props["K_dense"]:
            equivalence = _yes("comorphism-equivalence",
                               via="continuous K-full K-faithful J-dense")
        else:
            bad = next(props[k] for k in ("J_full", "J_faithful", "K_dense")
                       if not props[k])
            equivalence = _no("comorphism-equivalence", witness=bad.witness)
    else:
        if hyperconnected and localic:
            equivalence = _yes("comorphism-equivalence", via="hyperconnected and localic")
        else:
            bad = hyperconnected if not hyperconnected else localic
            equivalence = _no("comorphism-equivalence", witness=bad.witness)

    return MorphismClassification(surjection, inclusion, hyperconnected,
                                  localic, equivalence)


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
    D, C = F.source, F.target
    K, J = sf.source_topology, sf.target_topology

    image_objects = sorted(F.image_objects)
    sub_cat, incl = full_subcategory(C, image_objects)
    j_prime = smallest_comorphism_topology(incl, J)
    obj_index = {c: i for i, c in enumerate(image_objects)}
    sub_arrows = [f for f in C.arrows
                  if C.dom[f] in obj_index and C.cod[f] in obj_index]
    arr_index = {f: i for i, f in enumerate(sub_arrows)}
    f_prime = FinFunctor(D, sub_cat,
                         tuple(obj_index[F.on_obj(d)] for d in D.objects),
                         tuple(arr_index[F.on_arr(g)] for g in D.arrows))

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

    obj_index = {o: i for i, o in enumerate(el.objects)}
    arr_index = {a: i for i, a in enumerate(el.arrow_decode)}

    def elt(c: int) -> int:
        fc = F.on_obj(c)
        return sh.unit.at(fc, legs[c][fc][D.hom_position[D.identity[fc]]])

    xi_obj = tuple(obj_index[(F.on_obj(c), elt(c))] for c in C.objects)
    xi_arr = tuple(arr_index[(F.on_arr(u), elt(C.cod[u]))] for u in C.arrows)
    xi = FinFunctor(C, el.category, xi_obj, xi_arr)
    for u in C.arrows:
        if el.category.dom[xi_arr[u]] != xi_obj[C.dom[u]]:
            raise ValueError(f"comprehensive lift is not a functor at arrow {u}")
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
    that the checker replaces with look-ups); positive certificates are
    replayed by re-running the corresponding checker.
    """
    w = verdict.witness
    kind = w["kind"]
    F, J, K = sf.F, sf.source_topology, sf.target_topology
    C, D = F.source, F.target
    sf = SiteFunctor(F, J, K)  # re-run the checkers, not the verdicts kept on sf
    if verdict.holds:
        runner = _POSITIVE_RUNNERS.get(kind)
        return runner is None or runner(sf).holds
    if kind == "cover-preserving":
        c, s = w["object"], w["sieve"]
        image = mask_of(F.on_arr(f) for f in bits(s))
        return J.is_covering(c, s) and not K.covers_family(F.on_obj(c), image)
    if kind == "cover-reflecting":
        c, s = w["object"], w["sieve"]
        image = mask_of(F.on_arr(f) for f in bits(s))
        return (not J.is_covering(c, s)) and K.covers_family(F.on_obj(c), image)
    if kind == "covering-lifting":
        d, s = w["object"], w["sieve"]
        return K.is_covering(F.on_obj(d), s) and \
            not J.is_covering(d, preimage_mask(F, s, d))
    if kind == "morphism-of-sites":
        if w["clause"] == "i":
            image = mask_of(F.on_arr(f) for f in bits(w["sieve"]))
            return J.is_covering(w["object"], w["sieve"]) and \
                not K.covers_family(F.on_obj(w["object"]), image)
        return _replays_morphism_of_sites(sf, w)
    if kind in ("dense", "weakly-dense"):
        return not is_dense_morphism(sf).holds if kind == "dense" \
            else not is_weakly_dense(sf).holds
    if kind == "closed-sieve-lifting":
        c, s = w["object"], w["sieve"]
        fc = F.on_obj(c)
        if closure_mask(K, fc, s) != s:
            return False
        return all(
            closure_mask(K, fc, generate_mask(D, mask_of(F.on_arr(f) for f in bits(r)))) != s
            for r in all_sieve_masks(C, c))
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
    if clause == "ii":
        d = w["object"]
        return sieve == _sieve_to_image(F, d) and not K.is_covering(d, sieve)
    inst = w["instance"]
    d = inst["d"]
    if clause == "iii":
        g1, g2 = inst["g1"], inst["g2"]
        if not D.dom[g1] == D.dom[g2] == d:
            return False
        found = any(_cone_sieve_iii(sf, c1, c2, g1, g2) == sieve
                    for c1 in C.objects if F.on_obj(c1) == D.cod[g1]
                    for c2 in C.objects if F.on_obj(c2) == D.cod[g2])
    else:
        f1, f2, g = inst["f1"], inst["f2"], inst["g"]
        c1 = C.dom[f1]
        if (f1 == f2 or (C.dom[f2], C.cod[f2]) != (c1, C.cod[f1])
                or (D.dom[g], D.cod[g]) != (d, F.on_obj(c1))
                or D.comp[(F.on_arr(f1), g)] != D.comp[(F.on_arr(f2), g)]):
            return False
        found = _cone_sieve_iv(sf, f1, f2, g) == sieve
    return found and not K.is_covering(d, sieve)


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
    "comorphism-hyperconnected": _comorphism_hyperconnected,
    "comorphism-localic": _comorphism_localic_general,
}
