"""Witness replay: a verdict of `morphisms` or `factorizations` checked
again against the definitions, a failure from the instance it records by
a check other than its checker (the morphism-of-sites clauses by direct
cone scans), a pass by re-running its checker (`_POSITIVE_RUNNERS`).  No
command replays, so the classifiers do not load this module.
"""

from __future__ import annotations

from typing import Callable

from . import presheaf as ps
from .factorizations import _locally_connected
from .morphisms import (SiteFunctor, Verdict, _comorphism_equivalence, _comorphism_hyperconnected,
                        _comorphism_inclusion_general, _comorphism_localic_general, _conjunction,
                        _hom_presheaf, _image, _image_base_misses, _induced_family,
                        _localic_condition, _localic_sieve, _realized_arrows, _sieves_to_image,
                        _weakly_dense_clause_ii, closed_sieve_lifting, comorphism_surjection,
                        is_comorphism_of_sites, is_continuous, is_cover_preserving,
                        is_cover_reflecting, is_dense_morphism, is_J_cofinal, is_morphism_of_sites,
                        is_weakly_dense, local_property_tests)
from .sieves import (all_sieve_masks, bits, generate_mask, is_sieve_mask, mask_of, preimage_mask,
                     pullback_mask)
from .topology import TopologyError, closure_mask, induced_topology, local_equality


# ---------------------------------------------------------------------------
# witness replay

def recheck_witness(sf: SiteFunctor, verdict: Verdict) -> bool:
    """Replay a verdict's witness against the definitions.

    Counterexample witnesses are re-verified directly from the recorded
    quantifier instance (the morphism-of-sites clauses by the direct scans
    that the checker replaces with look-ups, weak-denseness clause (iii)
    by the definition at its recorded family, a failed localic comorphism
    by the sieve of passing arrows at its recorded object, a composite flag
    and weak-denseness clause (i) by the part they record); an object out of
    range or a mask that is not a sieve on it replays False.  Positive
    certificates are replayed by re-running the corresponding checker, or
    those of a composite flag's parts; a kind without a checker to re-run
    (a sheaf-colimit verdict, which names no site functor) raises
    ValueError, pass or failure.  A record whose `source_topology`
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
        if kind not in _POSITIVE_RUNNERS:
            raise ValueError(f"no re-checker for witness kind {kind!r}")
        return _POSITIVE_RUNNERS[kind](sf).holds
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
    if kind == "comorphism-localic":
        d, s = w["object"], w["sieve"]
        return d in C.objects and s == _localic_sieve(sf, d) and not J.is_covering(d, s)
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
    "cofinal": lambda sf: is_J_cofinal(sf.F, sf.K),
    "weakly-dense-ii": _weakly_dense_clause_ii,
    "locally-connected": lambda sf: _locally_connected(sf.F, sf.K),
}
