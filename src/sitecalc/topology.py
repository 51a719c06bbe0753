"""Grothendieck topologies on finite categories, stored as explicit
per-object families of covering sieves.

Explicit storage makes every axiom and every downstream classifier a finite
loop.  On a finite category a topology is fixed by its least covering sieve
on each object, so generation is a descending fixpoint on those least
sieves.  A topology defined by a condition on sieves (atomic, rigid,
induced, coinduced, fibration, generated, and the ones built in the other
modules) is built by `topology_where`, which enumerates the sieves, keeps
those meeting the condition and checks the axioms on the result; its
masks are sieves by construction, so only `validate_topology`, for
families from outside, checks that each mask is a sieve.  Validation reads
the axioms off the closure cl(S) = {f | f*(S) covers} of each sieve, the
same predicate as `closure_mask`: a cover S is stable when cl(S) is
maximal, and a non-covering S breaks transitivity when some cover lies
inside cl(S).  What a sieve gives is not derived again: S pulls back
along its own members to maximal sieves and along the identity to
itself, so those arrows are placed in or out of cl(S) without a
pullback.  Each other member of cl(S) is decided at most once, however
many covers are tested against it.  The sieves of each object are
enumerated once per category instance (`sieves.all_sieve_masks`).

Local equality of parallel arrows is a comparison of per-arrow keys
(`GrothendieckTopology.arrow_keys`): the composites of an arrow with the
generators of the least cover on its domain.  The generation fixpoint
pulls m_c back only along the arrows outside m_c as it stands at the
call, as m_c pulls back along its own members to maximal sieves.

Checks over the covers or the non-covers of an object walk them only on a
failure, through `GrothendieckTopology.first_failing_cover` and
`first_passing_non_cover`, which state the lemmas.  `validate_topology`
stores each family in ascending insertion order, so the walk order depends
only on the topology's value.
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
    covers: tuple[frozenset[int], ...]  # per object: the covering sieve masks

    def is_covering(self, c: int, mask: int) -> bool:
        return mask in self.covers[c]

    def covers_family(self, c: int, mask: int) -> bool:
        """A family of arrows is covering when the sieve it generates is."""
        return generate_mask(self.cat, mask) in self.covers[c]

    @cached_property
    def min_cover(self) -> tuple[int, ...]:
        """Least covering sieve per object (covering sieves are closed under
        finite intersection)."""
        out = []
        for c in self.cat.objects:
            m = self.cat.maximal_sieves[c]
            for s in self.covers[c]:
                m &= s
            out.append(m)
        return tuple(out)

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
          S, x·g and s_g agree on g*(m_c) ⊇ m_dom g, so they are equal.
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
        return all(a <= b for a, b in zip(self.covers, other.covers))


def _in_closure(cat: FinCategory, covers, mask: int, f: int) -> bool:
    """f ∈ cl(S): S pulls back along f to a cover of dom(f)."""
    return pullback_mask(cat, mask, f) in covers[cat.dom[f]]


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
                    if not _in_closure(cat, covers, s, f):
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
    witnesses.  Each family is stored in ascending insertion order, which
    fixes its walk order by its value."""
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
    return GrothendieckTopology(cat, tuple(frozenset(sorted(f)) for f in covers))


def topology_where(cat: FinCategory,
                   covers: Callable[[int, int], bool]) -> GrothendieckTopology:
    """The topology whose covering sieves on c are the sieves s with
    covers(c, s).  The result is checked against the axioms: a condition
    that breaks one raises TopologyError.  Its masks come from
    `all_sieve_masks`, so they are sieves, and each family is built in
    ascending order."""
    families = tuple(frozenset(s for s in all_sieve_masks(cat, c) if covers(c, s))
                     for c in cat.objects)
    violations = _axiom_violations(cat, families)
    if violations:
        raise TopologyError(violations)
    return GrothendieckTopology(cat, families)


def trivial_topology(cat: FinCategory) -> GrothendieckTopology:
    return GrothendieckTopology(
        cat, tuple(frozenset({cat.maximal_sieves[c]}) for c in cat.objects))


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


def generate_topology(cat: FinCategory, base) -> GrothendieckTopology:
    """Least topology whose covers include the given (object, sieve-mask)
    pairs.  Its least covering sieve m_c on c starts as the intersection of
    the base sieves on c and shrinks until m_d ⊆ f*(m_c) for every
    f: d -> c (stability) and m_c = {g∘h | g ∈ m_c, h ∈ m_dom(g)}
    (transitivity); the covering sieves are those containing m_c.  An f
    in m_c pulls m_c back to the maximal sieve, so it is skipped, tested
    against m_c at its turn: an endomorphism of c can shrink m_c in
    mid-pass."""
    m = list(cat.maximal_sieves)
    for c, mask in base:
        if not is_sieve_mask(cat, c, mask):
            raise ValueError(f"base mask {mask:#x} on object {c} is not a sieve")
        m[c] &= mask
    changed = True
    while changed:
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
    return topology_where(cat, lambda c, s: s & m[c] == m[c])


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
    cat = J.cat
    return tuple(dict.fromkeys(
        mask_of(h for h in cat.arrows_into(c) if not (cat.principal_sieves[h] >> g) & 1)
        for g in J.min_cover_generators[c]))


def closure_mask(J: GrothendieckTopology, c: int, mask: int) -> int:
    """cl(S) = {f | f*(S) is J-covering}, a closure operator on sieves on c;
    `mask` must be a sieve.  Its members pull it back to the maximal sieve,
    so they lie in cl(S), and a non-member f pulls it back to a sieve
    without the identity, so f is tested only when dom f has a covering
    sieve other than the maximal one (`J.coarse`)."""
    cat = J.cat
    return mask | mask_of(f for f in bits(cat.maximal_sieves[c] & J.coarse & ~mask)
                          if _in_closure(cat, J.covers, mask, f))
