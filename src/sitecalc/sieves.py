"""Sieve and presieve algebra on bitmasks.

A presieve on c is a bitmask over the ids of arrows into c, so membership,
intersection (`&`), union (`|`) and the fixpoint loops in the topology
module are single integer operations.  A sieve is a presieve closed under
precomposition (`is_sieve_mask`); `generate_mask` is the coercion from
presieves to sieves.  The masks carry no codomain: each function that needs
it takes the object.
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
    return mask_of(cat.arrows_into(c))


def generate_mask(cat: FinCategory, mask: int) -> int:
    """Sieve generated by a presieve: all arrows factoring through a member."""
    out = 0
    for f in bits(mask):
        out |= cat.principal_sieves[f]
    return out


def is_sieve_mask(cat: FinCategory, c: int, mask: int) -> bool:
    if mask & ~maximal_sieve_mask(cat, c):
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
    """Every sieve on c, enumerated as unions of principal sieves.

    The guard fires before the enumeration when it can: the unions of w
    pairwise incomparable principal sieves are 2^w distinct sieves, so an
    antichain of them, taken greedily from the smallest, bounds the count
    from below.  With n arrows into c there are at most 2^n sieves, so the
    antichain is sought only when 2^n passes the guard."""
    top = maximal_sieve_mask(cat, c)
    if 1 << top.bit_count() > guard:
        antichain: list[tuple[int, int]] = []  # (f, ⟨f⟩)
        for f in sorted(bits(top), key=lambda f: cat.principal_sieves[f].bit_count()):
            p = cat.principal_sieves[f]
            if all(not (q >> f) & 1 and not (p >> g) & 1 for g, q in antichain):
                antichain.append((f, p))
                if 1 << len(antichain) > guard:
                    raise SizeGuardError(f"more than {guard} sieves on object {c}")
    seen = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for f in bits(top & ~s):
            s2 = s | cat.principal_sieves[f]
            if s2 not in seen:
                if len(seen) >= guard:
                    raise SizeGuardError(f"more than {guard} sieves on object {c}")
                seen.add(s2)
                frontier.append(s2)
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
