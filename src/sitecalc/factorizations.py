"""The paper's factorizations of the geometric morphisms that site functors
induce, and the sites they pass through: surjection-inclusion through J_F;
hyperconnected-localic through C^s_K, the pairs (d, S) of an object and a
K-closed sieve with the sheaf arrows a_K(S) -> a_K(T) (`build_CJs`; its
case on maximal sieves is C_J, `build_CJ`); both for a cover-preserving
comorphism; and the comprehensive factorization through the category of
elements of a_K(colim y∘F), with local and terminal connectedness.  No
classifier of `morphisms` runs any of it, so it is loaded only by the
commands that build a factorization or decide local connectedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fincat import (FinCategory, FinFunctor, corestrict, derived_category, full_subcategory,
                     identity_functor, quotient_by_functor_congruence, validate_category)
from .morphisms import (SiteFunctor, Verdict, _CommaComponents, _no, _require, _yes,
                        is_comorphism_of_sites, is_continuous, is_cover_preserving, is_J_cofinal,
                        is_morphism_of_sites)
from .presheaf import (FinPresheaf, PresheafMorphism, SheafificationResult, _by_restrictions,
                       colimit_of_representables, family_locally_surjective, sheafify,
                       sieve_subpresheaf, strict_matching_families)
from .sieves import all_sieve_masks, bits, mask_of, maximal_sieve_mask, preimage_mask
from .topology import (GrothendieckTopology, closure_mask, induced_topology,
                       smallest_comorphism_topology, topology_where, trivial_topology)


# ---------------------------------------------------------------------------
# the sites C_J, C_J^s and ∫P

@dataclass(frozen=True)
class CJResult:
    site_cat: FinCategory
    topology: GrothendieckTopology
    category: FinCategory
    homs: tuple  # per (c, d): tuple of relations, each a frozenset of (f, g) arrow pairs
    arrow_decode: tuple  # per arrow of `category`: (c, d, relation)


@dataclass(frozen=True)
class CJsResult:
    site_cat: FinCategory
    topology: GrothendieckTopology
    category: FinCategory
    objects: tuple[tuple[int, int], ...]      # (object, closed sieve mask)
    arrow_decode: tuple  # per arrow: (src_idx, dst_idx, relation frozenset)
    sheaves: tuple[SheafificationResult, ...]   # per object (c, S): a_J(S)
    sheaf_arrows: tuple[PresheafMorphism, ...]  # per arrow (c, S) -> (d, T): a_J(S) -> a_J(T)


def closed_sieves(cat: FinCategory, J: GrothendieckTopology, c: int) -> list[int]:
    return [s for s in all_sieve_masks(cat, c) if closure_mask(J, c, s) == s]


def _sheafified_sieve_category(cat: FinCategory, J: GrothendieckTopology,
                               objects: Sequence[tuple[int, int]]):
    """The category on `objects`, pairs (c, S) of an object and a sieve on
    it, whose arrows (c, S) -> (d, T) are the sheaf arrows a_J(S) -> a_J(T).

    Such an arrow is fixed by its restriction along the unit of S, a
    matching family for S in the sheaf a_J(T), so a hom-set is one
    `strict_matching_families` call.  The identity is the unit family
    x ↦ η_S(x).  ψ∘φ applies to φ's values the extension of ψ along the
    unit: each carrier family of a_J(T), pushed through ψ, is a matching
    family of the sheaf a_J(U), and its amalgamation is the image.

    An arrow is recorded as the relation of the arrow pairs (x, y), x in S
    and y in T with one domain, such that φ(x) = η_T(y); each hom-set is
    listed in the order of its sorted relations.  Returns the category,
    the arrows as (source, target, relation), the sheafified sieves and,
    per arrow, the components of its sheaf arrow.
    """
    members = []      # per object, per e: the arrows of S from e, ascending
    sheaves = []
    for c, s in objects:
        members.append(tuple(tuple(h for h in cat.hom(e, c) if (s >> h) & 1)
                             for e in cat.objects))
        carrier, _ = sieve_subpresheaf(cat, c, s).as_presheaf()
        sheaves.append(sheafify(carrier, J))
    # per object, η_S(x) for each arrow x of S, and the arrows of S keyed
    # by their domain e and unit value v in a_J(S)(e)
    unit = [{h: sh.unit.at(e, k) for e in cat.objects for k, h in enumerate(mem[e])}
            for mem, sh in zip(members, sheaves)]
    preimage: list[dict[tuple[int, int], list[int]]] = []
    for u in unit:
        over: dict[tuple[int, int], list[int]] = {}
        for h, v in u.items():
            over.setdefault((cat.dom[h], v), []).append(h)
        preimage.append(over)

    sieve_members = [sorted(bits(s)) for _, s in objects]
    arrow_decode = []
    families = []
    for i, (c, s) in enumerate(objects):
        for j in range(len(objects)):
            hom = []
            for phi in strict_matching_families(sheaves[j].sheaf, c, s):
                hom.append((frozenset((x, y) for x, v in zip(sieve_members[i], phi)
                                      for y in preimage[j].get((cat.dom[x], v), ())), phi))
            for rel, phi in sorted(hom, key=lambda arrow: sorted(arrow[0])):
                arrow_decode.append((i, j, rel))
                families.append(phi)
    arr_index = {(i, j, phi): a for a, ((i, j, _), phi) in enumerate(zip(arrow_decode, families))}
    identities = [arr_index[(i, i, tuple(unit[i][x] for x in sieve_members[i]))]
                  for i in range(len(objects))]

    amalgamations = [[{key: xs[0] for key, xs in
                       _by_restrictions(sh.sheaf, e, sh.carrier[e]).items()}
                      for e in cat.objects] for sh in sheaves]
    extensions = []
    for (j, k, _), psi in zip(arrow_decode, families):
        sh = sheaves[j]
        at = dict(zip(sieve_members[j], psi))
        extensions.append(tuple(
            tuple(amalgamations[k][e][tuple(at[members[j][cat.dom[g]][m]]
                                            for g, m in zip(sh.carrier[e], fam))]
                  for fam in sh.families[e])
            for e in cat.objects))

    into: list[list[int]] = [[] for _ in objects]
    for a, (_, j, _) in enumerate(arrow_decode):
        into[j].append(a)
    composition = {}
    for b, (j, k, _) in enumerate(arrow_decode):
        ext = extensions[b]
        for a in into[j]:
            i = arrow_decode[a][0]
            phi = tuple(ext[cat.dom[x]][v] for x, v in zip(sieve_members[i], families[a]))
            composition[(b, a)] = arr_index[(i, k, phi)]
    category = validate_category(
        len(objects), [(i, j) for i, j, _ in arrow_decode], identities, composition)
    return category, tuple(arrow_decode), tuple(sheaves), extensions


def build_CJ(cat: FinCategory, J: GrothendieckTopology) -> CJResult:
    """The category C_J: same objects, arrows c -> d the sheaf arrows
    a_J(y c) -> a_J(y d), recorded as relations on arrow pairs; the case of
    `build_CJs` where every sieve is maximal."""
    objects = [(c, maximal_sieve_mask(cat, c)) for c in cat.objects]
    category, arrow_decode, _, _ = _sheafified_sieve_category(cat, J, objects)
    homs = tuple(tuple(rel for (i, j, rel) in arrow_decode if (i, j) == (c, d))
                 for c in cat.objects for d in cat.objects)
    return CJResult(cat, J, category, homs, arrow_decode)


def build_CJs(cat: FinCategory, J: GrothendieckTopology) -> CJsResult:
    """The category C_J^s on pairs (c, J-closed sieve on c)."""
    objects = tuple((c, s) for c in cat.objects for s in closed_sieves(cat, J, c))
    category, arrow_decode, sheaves, extensions = _sheafified_sieve_category(cat, J, objects)
    sheaf_arrows = tuple(PresheafMorphism(sheaves[j].sheaf, sheaves[k].sheaf, ext)
                         for (j, k, _), ext in zip(arrow_decode, extensions))
    return CJsResult(cat, J, category, objects, arrow_decode, sheaves, sheaf_arrows)


@dataclass(frozen=True)
class ElementsResult:
    category: FinCategory
    projection: FinFunctor
    objects: tuple[tuple[int, int], ...]  # (c, x in P(c))
    arrow_decode: tuple[tuple[int, int], ...]  # (f in base, target element x)
    object_index: dict[tuple[int, int], int]
    arrow_index: dict[tuple[int, int, int], int]  # (source, target, f) -> arrow


def category_of_elements(P: FinPresheaf) -> ElementsResult:
    """∫P with its canonical projection, a discrete fibration."""
    cat = P.cat
    objects = tuple((c, x) for c in cat.objects for x in range(P.sizes[c]))
    obj_index = {o: i for i, o in enumerate(objects)}
    arrow_decode = tuple((f, x) for f in cat.arrows for x in range(P.sizes[cat.cod[f]]))
    category, arr_index = derived_category(
        len(objects),
        [(obj_index[(cat.dom[f], P.res(f, x))], obj_index[(cat.cod[f], x)], f)
         for f, x in arrow_decode],
        [(i, i, cat.identity[c]) for i, (c, _) in enumerate(objects)],
        lambda g, f: (f[0], g[1], cat.compose(g[2], f[2])))
    projection = FinFunctor(category, cat,
                            tuple(o[0] for o in objects),
                            tuple(a[0] for a in arrow_decode))
    return ElementsResult(category, projection, objects, arrow_decode, obj_index, arr_index)


def elements_topology(P: FinPresheaf, J: GrothendieckTopology) -> tuple[ElementsResult, GrothendieckTopology]:
    """J_P on ∫P: sieves sent by the projection to J-covering families."""
    el = category_of_elements(P)
    return el, induced_topology(el.projection, J)


# ---------------------------------------------------------------------------
# the two factorizations of a morphism of sites, through J_F and through C^s_K

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


@dataclass(frozen=True)
class HyperconnectedLocalicFactorization:
    cjs: CJsResult                          # D^s_K with its data
    cjs_topology: GrothendieckTopology      # C^s_K
    sub_objects: tuple[int, ...]            # indices of D^s_F inside D^s_K
    sub_topology: GrothendieckTopology      # C^s_K restricted to D^s_F
    localic_leg: SiteFunctor                # F_s: (C, J) -> (D^s_F, ·)
    hyperconnected_leg: SiteFunctor         # i^s_F: (D^s_F, ·) -> (D^s_K, C^s_K)
    embedding: SiteFunctor                  # i^s_K∘F = i^s_F ∘ F_s: (C, J) -> (D^s_K, C^s_K)


def cjs_canonical_topology(cjs: CJsResult, K: GrothendieckTopology) -> GrothendieckTopology:
    """C^s_K: a sieve covers (d, S) iff the corresponding sheaf arrows are
    jointly locally surjective onto a_K(S)."""
    return topology_where(cjs.category, lambda i, sigma: family_locally_surjective(
        K, [cjs.sheaf_arrows[a] for a in bits(sigma)], cjs.sheaves[i].sheaf))


def hyperconnected_localic_factorization(sf: SiteFunctor) -> HyperconnectedLocalicFactorization:
    _require(is_morphism_of_sites(sf), "a morphism of sites")
    F, J, K = sf.F, sf.J, sf.K
    D = F.target
    cjs = build_CJs(D, K)
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
    sheaf: FinPresheaf                     # F_K = a_K(colim y∘F)
    elements: ElementsResult               # ∫F_K with its projection to D
    topology: GrothendieckTopology         # M^{π}_K on ∫F_K
    lift: FinFunctor                       # ξ: C -> ∫F_K
    projection: FinFunctor                 # π: ∫F_K -> D
    cofinality: Verdict                    # ξ is M^{π}_K-cofinal


def comprehensive_factorization(F: FinFunctor, K: GrothendieckTopology) -> ComprehensiveFactorization:
    C, D = F.source, F.target
    colim, legs = colimit_of_representables(F)
    sh = sheafify(colim, K)
    el, topology = elements_topology(sh.sheaf, K)

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
