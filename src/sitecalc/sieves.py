"""Sieve and presieve algebra on bitmasks.

A presieve on c is a bitmask over the ids of arrows into c, so membership,
intersection (`&`), union (`|`) and the fixpoint loops in the topology
module are single integer operations.  A sieve is a presieve closed under
precomposition (`is_sieve_mask`); `generate_mask` is the coercion from
presieves to sieves.  The masks carry no codomain: each function that needs
it takes the object.

The sieves on c are the unions of principal sieves, enumerated one arrow
at a time: {0} is closed under S ↦ S ∪ ⟨f⟩ for each f into c in turn.
The maximal sieve of each object is kept on the category
(`FinCategory.maximal_sieves`).  A sieve pulls back along each of its
members to the maximal sieve on the member's domain, which topology
validation uses to skip those members (`topology._axiom_violations`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .fincat import (
    FinCategory,
    FinFunctor,
    SizeGuardError,
    _memo,
    cartesian_vertical_factor,
    vertical_arrows,
)


def bits(mask: int) -> Iterator[int]:
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def mask_of(arrows: Iterable[int]) -> int:
    m = 0
    for a in arrows:
        m |= 1 << a
    return m


def maximal_sieve_mask(cat: FinCategory, c: int) -> int:
    return cat.maximal_sieves[c]


def generate_mask(cat: FinCategory, mask: int) -> int:
    """Sieve generated by a presieve: all arrows factoring through a member."""
    out = 0
    for f in bits(mask):
        out |= cat.principal_sieves[f]
    return out


def is_sieve_mask(cat: FinCategory, c: int, mask: int) -> bool:
    if mask & ~cat.maximal_sieves[c]:
        return False
    return generate_mask(cat, mask) == mask


def pullback_mask(cat: FinCategory, mask: int, f: int) -> int:
    """f*(S) = {g | f∘g ∈ S} on dom(f)."""
    out = 0
    # `_into`, not `arrows_into(...)`: saves a call in the hot loop of topology validation
    for g, fg in zip(cat._into[cat.dom[f]], cat.composites[f]):
        if (mask >> fg) & 1:
            out |= 1 << g
    return out


def multicompose_mask(cat: FinCategory, mask: int, refinements: dict[int, int]) -> int:
    """{f∘h | f ∈ S, h ∈ S_f}; a sieve whenever S and the S_f are."""
    out = 0
    for f in bits(mask):
        for h, fh in zip(cat.arrows_into(cat.dom[f]), cat.composites[f]):
            if (refinements[f] >> h) & 1:
                out |= 1 << fh
    return out


SIEVE_GUARD = 1 << 20


def all_sieve_masks(cat: FinCategory, c: int) -> tuple[int, ...]:
    """Every sieve on c, in ascending order; enumerated once per category
    instance and object.  More than `SIEVE_GUARD` sieves raise
    SizeGuardError and keep nothing."""
    return _memo(cat, ("all_sieve_masks", c), lambda: _enumerate_sieve_masks(cat, c, SIEVE_GUARD))


def _enumerate_sieve_masks(cat: FinCategory, c: int, guard: int) -> tuple[int, ...]:
    """Every sieve on c, enumerated as unions of principal sieves: {0} is
    closed under S ↦ S ∪ ⟨f⟩ one arrow f at a time, so after the arrows
    f1, …, fk it holds the unions of the subsets of ⟨f1⟩, …, ⟨fk⟩.  The
    set only grows, so it passes the guard after some arrow exactly when
    the count does; an arrow at most doubles it, so it never holds more
    than twice the guard.  Each arrow's unions are listed before they are
    added, as a list holds them in less memory than a second set.

    The guard fires before the enumeration when it can: the unions of w
    pairwise incomparable principal sieves are 2^w distinct sieves, so an
    antichain of them, taken greedily from the smallest, bounds the count
    from below.  With n arrows into c there are at most 2^n sieves, so the
    antichain is sought only when 2^n passes the guard."""
    top = cat.maximal_sieves[c]
    if 1 << top.bit_count() > guard:
        antichain: list[tuple[int, int]] = []  # (f, ⟨f⟩)
        for f in sorted(bits(top), key=lambda f: cat.principal_sieves[f].bit_count()):
            p = cat.principal_sieves[f]
            if all(not (q >> f) & 1 and not (p >> g) & 1 for g, q in antichain):
                antichain.append((f, p))
                if 1 << len(antichain) > guard:
                    raise SizeGuardError(f"more than {guard} sieves on object {c}")
    seen = {0}
    for f in bits(top):
        p = cat.principal_sieves[f]
        seen.update([s | p for s in seen])
        if len(seen) > guard:
            raise SizeGuardError(f"more than {guard} sieves on object {c}")
    return tuple(sorted(seen))


def preimage_mask(F: FinFunctor, r_mask: int, c: int) -> int:
    """S^F_R = {f: dom(f) -> c | F(f) ∈ R} for a presieve R on F(c); a sieve
    whenever R is, as F(f∘z) = F(f)∘F(z)."""
    cat = F.source
    return mask_of(f for f in cat.arrows_into(c) if (r_mask >> F.on_arr(f)) & 1)


def iso_closure(cat: FinCategory, c: int, mask: int) -> int:
    """All arrows f into c with f∘α ∈ P for some isomorphism α."""
    out = mask
    for f in cat.arrows_into(c):
        if any(cat.is_iso(alpha) and (mask >> f_alpha) & 1
               for alpha, f_alpha in zip(cat.arrows_into(cat.dom[f]), cat.composites[f])):
            out |= 1 << f
    return out


def vertical_closure(fib: FinFunctor, mask: int) -> int:
    """{f∘z | f ∈ P, z vertical for the fibration}."""
    cat = fib.source
    vert = vertical_arrows(fib)
    out = 0
    for f in bits(mask):
        for z, fz in zip(cat.arrows_into(cat.dom[f]), cat.composites[f]):
            if z in vert:
                out |= 1 << fz
    return out


def cartesian_part(fib: FinFunctor, mask: int) -> int:
    """Cartesian images of the members of P (canonical factorizations)."""
    out = 0
    for u in bits(mask):
        _, phi = cartesian_vertical_factor(fib, u)
        out |= 1 << phi
    return out
