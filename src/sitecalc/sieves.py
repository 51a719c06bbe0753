"""Sieve and presieve algebra.

Arrow families are bitmasks over arrow ids, so membership, intersection and
the fixpoint loops in the topology module are single integer operations.
A Presieve is any family with common codomain; a Sieve is additionally
closed under precomposition, and `generate` is the only coercion between
the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .fincat import FinCategory, FinFunctor, SizeGuardError, cartesian_vertical_factor, vertical_arrows


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


# ---------------------------------------------------------------------------
# mask-level core (used by the topology fixpoint loops)

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
    for g in cat.arrows_into(cat.dom[f]):
        if (mask >> cat.comp[(f, g)]) & 1:
            out |= 1 << g
    return out


def multicompose_mask(cat: FinCategory, mask: int, refinements: dict[int, int]) -> int:
    """{f∘h | f ∈ S, h ∈ S_f}; a sieve whenever S and the S_f are."""
    out = 0
    for f in bits(mask):
        for h in bits(refinements[f]):
            out |= 1 << cat.comp[(f, h)]
    return out


def all_sieve_masks(cat: FinCategory, c: int, guard: int = 1 << 20) -> tuple[int, ...]:
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


# ---------------------------------------------------------------------------
# typed wrappers

@dataclass(frozen=True)
class Presieve:
    cat: FinCategory
    codomain: int
    arrows: int  # bitmask

    def __post_init__(self):
        for f in bits(self.arrows):
            if self.cat.cod[f] != self.codomain:
                raise ValueError(f"arrow {f} does not have codomain {self.codomain}")

    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.arrows))

    def __contains__(self, f: int) -> bool:
        return bool((self.arrows >> f) & 1)

    def __le__(self, other: "Presieve") -> bool:
        return self.arrows & ~other.arrows == 0


@dataclass(frozen=True)
class Sieve(Presieve):
    def __post_init__(self):
        super().__post_init__()
        if generate_mask(self.cat, self.arrows) != self.arrows:
            raise ValueError("not closed under precomposition")


def maximal_sieve(cat: FinCategory, c: int) -> Sieve:
    return Sieve(cat, c, maximal_sieve_mask(cat, c))


def generate(presieve: Presieve) -> Sieve:
    return Sieve(presieve.cat, presieve.codomain,
                 generate_mask(presieve.cat, presieve.arrows))


def pullback(sieve: Sieve, f: int) -> Sieve:
    cat = sieve.cat
    if cat.cod[f] != sieve.codomain:
        raise ValueError(f"arrow {f} does not land in the sieve's codomain")
    return Sieve(cat, cat.dom[f], pullback_mask(cat, sieve.arrows, f))


def intersect(s: Sieve, t: Sieve) -> Sieve:
    if s.codomain != t.codomain:
        raise ValueError("sieves on different objects")
    return Sieve(s.cat, s.codomain, s.arrows & t.arrows)


def union(s: Sieve, t: Sieve) -> Sieve:
    if s.codomain != t.codomain:
        raise ValueError("sieves on different objects")
    return Sieve(s.cat, s.codomain, s.arrows | t.arrows)


def multicompose(sieve: Sieve, refinements: dict[int, Sieve]) -> Sieve:
    cat = sieve.cat
    masks = {}
    for f in bits(sieve.arrows):
        try:
            r = refinements[f]
        except KeyError:
            raise ValueError(f"no refinement supplied for arrow {f}") from None
        if r.codomain != cat.dom[f]:
            raise ValueError(f"refinement at {f} lives on the wrong object")
        masks[f] = r.arrows
    return Sieve(cat, sieve.codomain, multicompose_mask(cat, sieve.arrows, masks))


def functor_image(F: FinFunctor, p: Presieve) -> Presieve:
    """F(P) as a presieve on F(codomain)."""
    if p.cat != F.source:
        raise ValueError("presieve lives in a different category")
    return Presieve(F.target, F.on_obj(p.codomain),
                    mask_of(F.on_arr(f) for f in bits(p.arrows)))


def preimage_presieve(F: FinFunctor, r: Presieve, c: int) -> Presieve:
    """S^F_R = {f: dom(f) -> c | F(f) ∈ R} for any presieve R on F(c)."""
    if r.cat != F.target:
        raise ValueError("presieve lives in a different category")
    if F.on_obj(c) != r.codomain:
        raise ValueError(f"object {c} is not sent to the presieve's codomain")
    cat = F.source
    mask = mask_of(f for f in cat.arrows_into(c) if (r.arrows >> F.on_arr(f)) & 1)
    return Presieve(cat, c, mask)


def functor_preimage(F: FinFunctor, r: Sieve, c: int) -> Sieve:
    """S^F_R for a sieve R; always a sieve (F(f∘z) = F(f)∘F(z) ∈ R)."""
    p = preimage_presieve(F, r, c)
    return Sieve(p.cat, p.codomain, p.arrows)


def preimage_mask(F: FinFunctor, r_mask: int, c: int) -> int:
    cat = F.source
    return mask_of(f for f in cat.arrows_into(c) if (r_mask >> F.on_arr(f)) & 1)


def iso_closure(p: Presieve) -> Presieve:
    """All arrows f with f∘α ∈ P for some isomorphism α."""
    cat = p.cat
    out = p.arrows
    for f in cat.arrows_into(p.codomain):
        for alpha in cat.arrows_into(cat.dom[f]):
            if cat.is_iso(alpha) and (p.arrows >> cat.comp[(f, alpha)]) & 1:
                out |= 1 << f
                break
    return Presieve(cat, p.codomain, out)


def vertical_closure(fib: FinFunctor, p: Presieve) -> Presieve:
    """{f∘z | f ∈ P, z vertical for the fibration}."""
    cat = p.cat
    vert = vertical_arrows(fib)
    out = 0
    for f in bits(p.arrows):
        for z in cat.arrows_into(cat.dom[f]):
            if z in vert:
                out |= 1 << cat.comp[(f, z)]
    return Presieve(cat, p.codomain, out)


def cartesian_part(fib: FinFunctor, p: Presieve) -> Presieve:
    """Cartesian images of the members of P (canonical factorizations)."""
    out = 0
    for u in bits(p.arrows):
        _, phi = cartesian_vertical_factor(fib, u)
        out |= 1 << phi
    return Presieve(p.cat, p.codomain, out)
