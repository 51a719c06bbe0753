"""Comma-site constructions converting morphisms of sites to comorphisms
and back, and the fibration of generalized elements.

Each construction returns the comma category with its topology and the
canonical functors as site functors, plus eagerly computed certificates:
every advertised property is re-proved by the corresponding checker, never
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .fincat import CommaCategory, FinFunctor, comma, identity_functor, is_fibration
from .sieves import bits
from .topology import (
    GrothendieckTopology,
    coinduced_topology,
    fibration_topology,
    induced_topology,
    join_topologies,
    omitting_sieves,
    rigid_topology,
    smallest_comorphism_topology,
)
from .morphisms import (
    SiteFunctor,
    _image,
    _require,
    is_comorphism_of_sites,
    is_cover_reflecting,
    is_dense_morphism,
    is_morphism_of_sites,
    is_weakly_dense,
    local_property_tests,
)


@dataclass(frozen=True)
class CommaSite:
    comma: CommaCategory
    topology: GrothendieckTopology
    projections: dict[str, SiteFunctor]
    embedding: SiteFunctor
    certificates: dict[str, bool]


def _check_adjunction(left: FinFunctor, right: FinFunctor, unit: Sequence[int]) -> bool:
    """left ⊣ right with unit η, η_a = unit[a]: a -> right(left(a)) (finite
    check): η is natural, and g ↦ right(g)∘η_a is a bijection
    B(left(a), b) -> A(a, right(b)) for all objects a of A and b of B."""
    A, B = left.source, left.target
    if right.source != B or right.target != A:
        return False
    if any(A.dom[unit[a]] != a or A.cod[unit[a]] != right.on_obj(left.on_obj(a))
           for a in A.objects):
        return False
    if any(A.compose(right.on_arr(left.on_arr(u)), unit[A.dom[u]])
           != A.compose(unit[A.cod[u]], u) for u in A.arrows):
        return False
    for a in A.objects:
        for b in B.objects:
            lhs = B.hom(left.on_obj(a), b)
            transposes = {A.compose(right.on_arr(g), unit[a]) for g in lhs}
            if not len(transposes) == len(lhs) == len(A.hom(a, right.on_obj(b))):
                return False
    return True


def _unit_section(cc: CommaCategory, F: FinFunctor) -> FinFunctor:
    """The embedding x -> (F(x), x, id) of the source of F into
    cc = (1 ↓ F), with u -> (F(u), u)."""
    A, B = F.source, F.target
    obj = tuple(cc.object_index[(F.on_obj(x), x, B.identity[F.on_obj(x)])] for x in A.objects)
    arr = tuple(cc.arrow_index[(obj[A.dom[u]], obj[A.cod[u]], F.on_arr(u), u)] for u in A.arrows)
    return FinFunctor(A, cc.category, obj, arr)


def morphism_to_comorphism(sf: SiteFunctor) -> CommaSite:
    """(1_D ↓ F) with the topology lifted through the right projection;
    turns a morphism of sites into the comorphism c_F = π_C."""
    _require(is_morphism_of_sites(sf), "a morphism of sites")
    F, J, K = sf.F, sf.J, sf.K
    cc = comma(identity_functor(F.target), F)
    k_tilde = induced_topology(cc.left_projection, K)

    pi_C = SiteFunctor(cc.right_projection, k_tilde, J)
    pi_D = SiteFunctor(cc.left_projection, k_tilde, K)

    i_F = SiteFunctor(_unit_section(cc, F), J, k_tilde)

    # the unit at (d, c, α) is the arrow (α, id_c) into i_F(c)
    unit = tuple(cc.arrow_index[(i, i_F.functor.on_obj(c), alpha, F.source.identity[c])]
                 for i, (d, c, alpha) in enumerate(cc.objects))

    pi_D_props = local_property_tests(pi_D)
    composite = i_F.functor.then(cc.left_projection)
    certificates = {
        "pi_C_comorphism": is_comorphism_of_sites(pi_C).holds,
        "i_F_morphism": is_morphism_of_sites(i_F).holds,
        "pi_D_morphism": is_morphism_of_sites(pi_D).holds,
        "pi_D_comorphism": is_comorphism_of_sites(pi_D).holds,
        "pi_D_full": pi_D_props["J_full"].holds,
        "pi_D_dense": pi_D_props["K_dense"].holds,
        "pi_D_cover_reflecting": is_cover_reflecting(pi_D).holds,
        "pi_D_equivalence": is_weakly_dense(pi_D).holds,
        "adjunction": _check_adjunction(cc.right_projection, i_F.functor, unit),
        "composite_is_F": composite.obj_map == F.obj_map and composite.arr_map == F.arr_map,
    }
    return CommaSite(cc, k_tilde, {"to_source": pi_C, "to_target": pi_D},
                     i_F, certificates)


def comorphism_to_morphism_comma(sf: SiteFunctor) -> CommaSite:
    """(F ↓ 1_C) for a comorphism F: (D, K) -> (C, J); j_F is a dense
    morphism of sites presenting the same topos."""
    _require(is_comorphism_of_sites(sf), "a comorphism of sites")
    F = sf.F
    D, C = F.source, F.target
    K, J = sf.source_topology, sf.target_topology
    cc = comma(F, identity_functor(C))
    k_bar = induced_topology(cc.left_projection, K)

    pi_D = SiteFunctor(cc.left_projection, k_bar, K)
    pi_C = SiteFunctor(cc.right_projection, k_bar, J)

    j_obj = tuple(cc.object_index[(d, F.on_obj(d), C.identity[F.on_obj(d)])]
                  for d in D.objects)
    j_arr = tuple(
        cc.arrow_index[(j_obj[D.dom[g]], j_obj[D.cod[g]], g, F.on_arr(g))]
        for g in D.arrows)
    j_F = SiteFunctor(FinFunctor(D, cc.category, j_obj, j_arr), K, k_bar)

    density_witnesses = all(
        k_bar.covers_family(i, 1 << cc.arrow_index[(j_obj[d], i, g_id, alpha)])
        for i, (d, c, alpha) in enumerate(cc.objects)
        for g_id in [D.identity[d]])
    composite = j_F.functor.then(cc.right_projection)
    certificates = {
        "pi_C_comorphism": is_comorphism_of_sites(pi_C).holds,
        "j_F_full_faithful": j_F.functor.is_full() and j_F.functor.is_faithful(),
        "j_F_comorphism": is_comorphism_of_sites(j_F).holds,
        "j_F_dense_morphism": is_dense_morphism(j_F).holds,
        "pi_D_morphism": is_morphism_of_sites(pi_D).holds,
        "pi_D_comorphism": is_comorphism_of_sites(pi_D).holds,
        "pi_D_equivalence": is_weakly_dense(pi_D).holds,
        "adjunction": _check_adjunction(j_F.functor, cc.left_projection, D.identity),
        "density_witness_arrows": density_witnesses,
        "composite_is_F": composite.obj_map == F.obj_map and composite.arr_map == F.arr_map,
    }
    return CommaSite(cc, k_bar, {"to_source": pi_D, "to_target": pi_C},
                     j_F, certificates)


def generalized_elements_fibration(sf: SiteFunctor) -> CommaSite:
    """(1_C ↓ F) for a comorphism F: (D, K) -> (C, J), with the topology
    coinduced along the canonical embedding; its projection to C is a split
    fibration presenting C_F."""
    _require(is_comorphism_of_sites(sf), "a comorphism of sites")
    F = sf.F
    K, J = sf.source_topology, sf.target_topology
    cc = comma(identity_functor(F.target), F)

    i_prime = _unit_section(cc, F)

    k_coinduced = coinduced_topology(i_prime, K)
    pi_C = SiteFunctor(cc.left_projection, k_coinduced, J)
    pi_D = SiteFunctor(cc.right_projection, k_coinduced, K)
    i_prime_sf = SiteFunctor(i_prime, K, k_coinduced)

    fib, _ = is_fibration(cc.left_projection)
    certificates = {
        "pi_C_comorphism": is_comorphism_of_sites(pi_C).holds,
        "pi_D_comorphism": is_comorphism_of_sites(pi_D).holds,
        "i_F_full_faithful": i_prime.is_full() and i_prime.is_faithful(),
        "i_F_comorphism": is_comorphism_of_sites(i_prime_sf).holds,
        "i_F_dense_morphism": is_dense_morphism(i_prime_sf).holds,
        "i_F_equivalence": is_weakly_dense(i_prime_sf).holds,
        "pi_C_split_fibration": fib,
    }
    return CommaSite(cc, k_coinduced, {"to_source": pi_D, "to_target": pi_C},
                     i_prime_sf, certificates)


def _covers_exactly(J: GrothendieckTopology, c: int, covers: Callable[[int, int], bool]) -> bool:
    """Whether the sieves s on c with covers(c, s) are exactly the J-covers,
    for a test that grows with s: it holds at m_c (L1) and fails on the
    non-covers of `omitting_sieves` (L3), as the two cover quantifiers of
    `GrothendieckTopology` test."""
    return covers(c, J.min_cover[c]) and not any(covers(c, s) for s in omitting_sieves(J, c))


def generalized_elements_identities(sf: SiteFunctor, site: CommaSite) -> dict[str, bool]:
    """The three topology identities tying M^F_J to the fibration of
    generalized elements, checked as exact family equalities; the two that
    compare a topology with a test on sieves read only its least covers and
    the non-covers that bound the others (`_covers_exactly`)."""
    F = sf.F
    D, C = F.source, F.target
    J = sf.target_topology
    cc = site.comma
    pi_C = cc.left_projection
    i_prime = site.embedding.functor

    m_pi = smallest_comorphism_topology(pi_C, J)
    fib_pi = fibration_topology(pi_C, J)
    m_F = smallest_comorphism_topology(F, J)

    # (i): covering sieves of M^{π}_J contain an (f_i, 1_d)-family with
    # J-covering first components
    def base_family_covers(o: int, s: int) -> bool:
        c, d, alpha = cc.objects[o]
        special = 0
        for a in bits(s):
            src, dst, u, v = cc.arrow_data[a]
            if dst == o and v == D.identity[d]:
                special |= 1 << u
        return J.covers_family(c, special)
    ok_i = all(_covers_exactly(m_pi, o, base_family_covers)
               for o in range(cc.category.n_objects))

    m_via_embedding = smallest_comorphism_topology(i_prime, m_pi)
    rigid = rigid_topology(i_prime)
    joined = join_topologies(m_pi, rigid)
    coinduced_mF = coinduced_topology(i_prime, m_F)

    # T covers for the smallest comorphism topology of F iff its image
    # under the embedding covers for the join with the rigid topology
    ok_detect = all(_covers_exactly(m_F, d, lambda e, t: joined.covers_family(
        i_prime.on_obj(e), _image(i_prime, t))) for d in D.objects)

    return {
        "fibration_topology_matches": fib_pi == m_pi,
        "covering_by_base_families": ok_i,
        "smallest_topology_via_embedding": m_via_embedding == m_F,
        "coinduced_equals_join_with_rigid": coinduced_mF == joined,
        "embedding_detects_covering": ok_detect,
    }
