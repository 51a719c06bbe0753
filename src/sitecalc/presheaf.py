"""Finite presheaves and their sheaf theory.

Presheaf sets are tagged finite enumerations (elements 0..n-1 per object)
and restriction maps are arrays.  An arrow of sheaves a(P) -> a(Q) is a
`PresheafMorphism` between the computed sheafifications; the paper's
J-functional relations, which describe the same arrows, are kept in the
tests as their oracle.  Sheafification is computed twice, by two
genuinely different code paths: the primary locally-matching-families
quotient, carried by the least covering sieve of each object, and the
classical plus construction applied twice: its colimit over the covers
is read at the least cover, terminal in that diagram, as the matching
families there, and it computes no local equality.  `sheaf_comparison`,
which compares the two, first validates both units as natural transformations
out of the presheaf: its test at the least covers rests on that.

The sheaf kernels work on restriction rows.  A matching family is a tuple
of values along the ascending members of its sieve.  Each family search
builds its constraint tables once, before it extends any family, and the
locally matching search reads local equality off class tables: x ≡_J y
exactly when their least locally equal elements are equal.  The key of an
element x of P(c) is its tuple of restrictions along the generators of
the least cover m_c: a sieve covers iff it holds each generator (L0), so
local equality is equality of keys, and local injectivity, local
surjectivity and the closure c_J read the generators' rows whole, with no
loop over pairs of elements.

The sites built from sheaves, C_J, C^s_J and the category of elements
∫P, serve only the factorizations and are in `factorizations`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .fincat import FinCategory, FinFunctor, _memo, _UnionFind
from .sieves import bits, pullback_mask
from .topology import GrothendieckTopology, topology_where


@dataclass(frozen=True)
class FinPresheaf:
    """P(c) = {0, ..., sizes[c] - 1}, restrictions as arrays.  Plain data,
    as `FinCategory` is: outside input goes through `validate_presheaf`."""
    cat: FinCategory
    sizes: tuple[int, ...]
    restrict: tuple[tuple[int, ...], ...]  # per arrow f: P(cod f) -> P(dom f)

    def size(self, c: int) -> int:
        return self.sizes[c]

    def res(self, f: int, x: int) -> int:
        return self.restrict[f][x]


def validate_presheaf(cat: FinCategory, sizes: Sequence[int],
                      restrict: Sequence[Sequence[int]]) -> FinPresheaf:
    """Check the shape, the range of every restriction, the identities and
    functoriality; return the presheaf or raise ValueError at the first."""
    sizes, restrict = tuple(sizes), tuple(map(tuple, restrict))
    if len(sizes) != cat.n_objects:
        raise ValueError(f"{len(sizes)} set sizes for {cat.n_objects} objects")
    if len(restrict) != cat.n_arrows:
        raise ValueError(f"{len(restrict)} restriction maps for {cat.n_arrows} arrows")
    for f in cat.arrows:
        a, b = cat.dom[f], cat.cod[f]
        r = restrict[f]
        if len(r) != sizes[b]:
            raise ValueError(
                f"restriction along arrow {f} has {len(r)} entries, "
                f"expected {sizes[b]}, the size at its codomain {b}")
        if r and not (0 <= min(r) and max(r) < sizes[a]):
            raise ValueError(
                f"restriction along arrow {f} leaves the {sizes[a]} elements "
                f"at its domain {a}")
    for c in cat.objects:
        if restrict[cat.identity[c]] != tuple(range(sizes[c])):
            raise ValueError(f"restriction along id_{c} is not the identity")
    # P(g∘f) = P(f)∘P(g) as whole tuples; an empty P(cod g) has nothing to compare
    for g, row in enumerate(cat.composites):
        for f, h in zip(cat.arrows_into(cat.dom[g]), row):
            if restrict[g] and tuple(map(restrict[f].__getitem__, restrict[g])) != restrict[h]:
                raise ValueError(f"contravariant functoriality fails at pair ({g}, {f})")
    return FinPresheaf(cat, sizes, restrict)


def constant_presheaf(cat: FinCategory, n: int) -> FinPresheaf:
    return FinPresheaf(cat, (n,) * cat.n_objects,
                       tuple(tuple(range(n)) for _ in cat.arrows))


def yoneda(cat: FinCategory, c: int) -> FinPresheaf:
    """y(c): e -> Hom(e, c), elements indexed by position in hom(e, c).
    Built once per category instance and object."""
    def build() -> FinPresheaf:
        position = cat.hom_position
        sizes = tuple(len(cat.hom(e, c)) for e in cat.objects)
        restrict = [()] * cat.n_arrows  # along f into e: column f of the rows of hom(e, c)
        for e in cat.objects:
            columns = zip(*map(cat.composites.__getitem__, cat.hom(e, c)))
            for f, column in zip(cat.arrows_into(e), columns):
                restrict[f] = tuple(map(position.__getitem__, column))
        return FinPresheaf(cat, sizes, tuple(restrict))
    return _memo(cat, ("yoneda", c), build)


@dataclass(frozen=True)
class PresheafMorphism:
    """Plain data; outside input goes through `validate_presheaf_morphism`."""
    source: FinPresheaf
    target: FinPresheaf
    components: tuple[tuple[int, ...], ...]

    def at(self, c: int, x: int) -> int:
        return self.components[c][x]

    def then(self, other: "PresheafMorphism") -> "PresheafMorphism":
        return PresheafMorphism(
            self.source, other.target,
            tuple(tuple(other.components[c][y] for y in self.components[c])
                  for c in self.source.cat.objects))

    def is_bijective(self) -> bool:
        return all(len(set(comp)) == self.target.sizes[c] == len(comp)
                   for c, comp in enumerate(self.components))


def validate_presheaf_morphism(source: FinPresheaf, target: FinPresheaf,
                               components: Sequence[Sequence[int]]) -> PresheafMorphism:
    """Check each component's size and range, then naturality along each
    arrow as a comparison of whole rows; return the morphism or raise
    ValueError at the first failure, naming its object or arrow and its
    element."""
    cat = source.cat
    components = tuple(map(tuple, components))
    if len(components) != cat.n_objects:
        raise ValueError(f"{len(components)} components for {cat.n_objects} objects")
    for c in cat.objects:
        comp, n = components[c], target.sizes[c]
        if len(comp) != source.sizes[c]:
            raise ValueError(
                f"component at object {c} has {len(comp)} entries, "
                f"expected {source.sizes[c]}")
        if comp and not (0 <= min(comp) and max(comp) < n):
            x = next(x for x, v in enumerate(comp) if not 0 <= v < n)
            raise ValueError(
                f"component at object {c} sends element {x} to {comp[x]}, "
                f"outside the {n} elements of the target there")
    # target(f)∘α_b = α_a∘source(f) as whole rows
    for f in cat.arrows:
        a, b = cat.dom[f], cat.cod[f]
        pushed = tuple(map(target.restrict[f].__getitem__, components[b]))
        pulled = tuple(map(components[a].__getitem__, source.restrict[f]))
        if pushed != pulled:
            x = next(x for x, (u, v) in enumerate(zip(pushed, pulled)) if u != v)
            raise ValueError(f"naturality fails at arrow {f}, element {x}")
    return PresheafMorphism(source, target, components)


def identity_morphism(P: FinPresheaf) -> PresheafMorphism:
    return PresheafMorphism(P, P, tuple(tuple(range(n)) for n in P.sizes))


def yoneda_arrow(cat: FinCategory, g: int) -> PresheafMorphism:
    """y(g): y(dom g) -> y(cod g), composition with g."""
    d1, d2 = cat.dom[g], cat.cod[g]
    position = cat.hom_position
    row = dict(zip(cat.arrows_into(d1), cat.composites[g]))
    return PresheafMorphism(yoneda(cat, d1), yoneda(cat, d2), tuple(
        tuple(position[row[u]] for u in cat.hom(e, d1)) for e in cat.objects))


@dataclass(frozen=True)
class SubPresheaf:
    """Members of `ambient` per object, closed under restriction by construction."""
    ambient: FinPresheaf
    members: tuple[frozenset[int], ...]

    def as_presheaf(self) -> tuple[FinPresheaf, tuple[tuple[int, ...], ...]]:
        """Carrier presheaf plus the per-object element lists."""
        cat = self.ambient.cat
        elems = tuple(tuple(sorted(self.members[c])) for c in cat.objects)
        index = [{x: i for i, x in enumerate(elems[c])} for c in cat.objects]
        restrict = tuple(
            tuple(index[cat.dom[f]][self.ambient.res(f, x)] for x in elems[cat.cod[f]])
            for f in cat.arrows)
        return FinPresheaf(cat, tuple(len(e) for e in elems), restrict), elems


def sieve_subpresheaf(cat: FinCategory, c: int, mask: int) -> SubPresheaf:
    """A sieve on c as a subpresheaf of y(c)."""
    Y = yoneda(cat, c)
    members = tuple(
        frozenset(i for i, h in enumerate(cat.hom(e, c)) if (mask >> h) & 1)
        for e in cat.objects)
    return SubPresheaf(Y, members)


def closure_cJ(A: SubPresheaf, J: GrothendieckTopology) -> SubPresheaf:
    """c_J(A)(c) = {x in E(c) | {f | E(f)(x) in A(dom f)} is J-covering}.
    As A is a subpresheaf, x·f in A gives x·(f∘g) in A, so that set is a
    sieve; it covers iff it holds each generator g of m_c (L0), that is
    iff x·g lies in A(dom g) for each g."""
    E = A.ambient
    dom = E.cat.dom
    return SubPresheaf(E, tuple(
        frozenset(x for x in range(n) if all(E.restrict[g][x] in A.members[dom[g]] for g in gens))
        for n, gens in zip(E.sizes, J.min_cover_generators)))


def _element_keys(P: FinPresheaf, J: GrothendieckTopology, c: int) -> Iterable[tuple[int, ...]]:
    """Per element x of P(c), ascending, its key: its restrictions along
    the generators of the least cover m_c.  x ≡_J y, x and y agree on a
    J-covering sieve, iff their keys are equal.  Their agreement set
    {f | x·f = y·f} is a sieve, as x·f = y·f gives x·(f∘g) = y·(f∘g), so it
    covers iff it holds each generator of m_c (L0)."""
    return _restriction_keys(P, c, J.min_cover_generators[c])


def is_locally_injective(alpha: PresheafMorphism, J: GrothendieckTopology) -> bool:
    """Elements with one image are locally equal: per object c where alpha
    is not injective, the pairs (alpha(x), key of x) are no more than the
    images alpha(x), as each image has one key (`_element_keys`)."""
    F = alpha.source
    for c, comp in enumerate(alpha.components):
        images = len(set(comp))
        if images < len(comp) and images < len(set(zip(comp, _element_keys(F, J, c)))):
            return False
    return True


def is_locally_surjective(alpha: PresheafMorphism, J: GrothendieckTopology) -> bool:
    return family_locally_surjective(J, [alpha], alpha.target)


def is_bicovering(alpha: PresheafMorphism, J: GrothendieckTopology) -> bool:
    return is_locally_injective(alpha, J) and is_locally_surjective(alpha, J)


# ---------------------------------------------------------------------------
# sheaf condition

def strict_matching_families(P: FinPresheaf, c: int, mask: int) -> list[tuple[int, ...]]:
    """Families (x_f)_{f in S} with x_{f∘z} = P(z)(x_f) exactly, as value
    tuples along the ascending members, in lexicographic order.

    A sieve holding the identity of c is the maximal sieve, and its
    families are the restrictions of the elements of P(c), so they are read
    off directly; a search that assigned the identity after other members
    would try every element of P(c) for each choice of those members.

    Otherwise the members are assigned in ascending order, one member at a
    time for every partial family.  The constraints are laid out once per
    search, as restriction rows: at each member, the earlier members whose
    values force its value, the candidates fixed by every z with f∘z = f,
    and the earlier members f∘z that its candidate must restrict to.
    """
    cat = P.cat
    members = sorted(bits(mask))
    if (mask >> cat.identity[c]) & 1:
        return sorted(zip(*(P.restrict[f] for f in members)))
    position = {f: i for i, f in enumerate(members)}
    # at member i: (j, P(z)) with j < i and members[j]∘z = members[i], so x_i = P(z)(x_j)
    forcing: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in members]
    # at member i: (j, P(z)) with members[i]∘z = members[j] and j < i, so x_j = P(z)(x_i)
    checks: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in members]
    # at member i: P(z) for each z with members[i]∘z = members[i], which must fix x_i
    fixing: list[list[tuple[int, ...]]] = [[] for _ in members]
    for i, f in enumerate(members):
        a = cat.dom[f]
        for z, fz in zip(cat.arrows_into(a), cat.composites[f]):
            if z == cat.identity[a]:  # P(id) fixes every element
                continue
            j = position.get(fz)
            if j is None:
                continue
            if j == i:
                fixing[i].append(P.restrict[z])
            elif j < i:
                checks[i].append((j, P.restrict[z]))
            else:
                forcing[j].append((i, P.restrict[z]))
    families: list[tuple[int, ...]] = [()]
    for f, forced_by, checked, fixed in zip(members, forcing, checks, fixing):
        if not forced_by:
            free = [x for x in range(P.sizes[cat.dom[f]]) if all(row[x] == x for row in fixed)]
            families = [fam + (x,) for fam in families for x in free
                        if not checked or all(fam[j] == row[x] for j, row in checked)]
            continue
        extended = []
        for fam in families:
            forced = {row[fam[j]] for j, row in forced_by}
            if len(forced) == 1:
                x = forced.pop()
                if all(row[x] == x for row in fixed) and all(fam[j] == row[x] for j, row in checked):
                    extended.append(fam + (x,))
        families = extended
    return families


def _restriction_keys(P: FinPresheaf, c: int, members: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """Per element of P(c), ascending, the tuple of its restrictions along
    the arrows `members` into c."""
    if not members:
        return [()] * P.sizes[c]
    return zip(*(P.restrict[f] for f in members))


def _by_restrictions(P: FinPresheaf, c: int, members: Sequence[int]) -> dict[tuple[int, ...], list[int]]:
    """The elements of P(c), ascending, keyed by their restrictions along
    the arrows `members` into c."""
    out: dict[tuple[int, ...], list[int]] = {}
    for x, key in enumerate(_restriction_keys(P, c, members)):
        out.setdefault(key, []).append(x)
    return out


def _unamalgamated(P: FinPresheaf, c: int, mask: int) -> tuple[dict[int, int], list[int]] | None:
    """The sheaf condition for one sieve on c: the first matching family,
    keyed by the members, without exactly one amalgamation, with its
    amalgamations, or None when every family has exactly one."""
    members = sorted(bits(mask))
    amalgamations = _by_restrictions(P, c, members)
    for fam in strict_matching_families(P, c, mask):
        amalg = amalgamations.get(fam, [])
        if len(amalg) != 1:
            return dict(zip(members, fam)), amalg
    return None


def is_sheaf(P: FinPresheaf, J: GrothendieckTopology) -> tuple[bool, dict | None]:
    """Unique amalgamation of every matching family over every covering
    sieve; returns a failing (sieve, family) witness otherwise, the first
    in the order of `J.covers`.  P is a J-sheaf iff it is a sheaf for each
    least cover m_c (L2 at `GrothendieckTopology.first_failing_cover`)."""
    for c in P.cat.objects:
        s = J.first_failing_cover(c, lambda s: _unamalgamated(P, c, s) is None)
        if s is not None:
            fam, amalg = _unamalgamated(P, c, s)
            return False, {"object": c, "sieve": s, "family": fam, "amalgamations": amalg}
    return True, None


def canonical_topology(cat: FinCategory) -> GrothendieckTopology:
    """Covering sieves are the universally effective-epimorphic ones: every
    representable satisfies the sheaf condition on every pullback of the
    sieve (a matching family of y(e) is a cocone with vertex e)."""
    return topology_where(cat, lambda c, s: all(
        _unamalgamated(yoneda(cat, e), cat.dom[f], pullback_mask(cat, s, f)) is None
        for f in cat.arrows_into(c) for e in cat.objects))


def is_subcanonical(J: GrothendieckTopology) -> bool:
    """J lies below the canonical topology: every representable is a
    J-sheaf (the covers of a topology are stable under pullback)."""
    return all(is_sheaf(yoneda(J.cat, e), J)[0] for e in J.cat.objects)


# ---------------------------------------------------------------------------
# sheafification, primary path: locally matching families over the least
# covering sieve, modulo pointwise local equality, lexicographic reps

@dataclass(frozen=True)
class SheafificationResult:
    presheaf: FinPresheaf
    topology: GrothendieckTopology
    sheaf: FinPresheaf
    unit: PresheafMorphism
    carrier: tuple[tuple[int, ...], ...]     # per object: arrows of the least covering sieve
    families: tuple[tuple[tuple[int, ...], ...], ...]  # per object: representative families
    _index: tuple[dict[tuple[int, ...], int], ...]

    def decode(self, c: int, elt: int) -> dict[int, int]:
        """The canonical locally matching family of an element."""
        return dict(zip(self.carrier[c], self.families[c][elt]))

    def element_of_family(self, c: int, family: dict[int, int]) -> int:
        key = tuple(family[f] for f in self.carrier[c])
        return self._index[c][key]


def _locally_matching_families(P: FinPresheaf, J: GrothendieckTopology,
                               c: int, members: Sequence[int]) -> list[tuple[int, ...]]:
    """Families (x_f) over `members` with x_{f∘z} ≡_J P(z)(x_f) whenever
    f∘z is a member too, as value tuples along `members`, in lexicographic
    order.  Each constraint is collected once, at the later of its two
    members, as a pair of class tables: x ≡_J y exactly when their least
    locally equal elements are equal (`_least_locally_equal`), as J is a
    topology.  So a candidate value is checked by two lookups per
    constraint of its own member.

    When the members hold the identity of c the families are read off:
    they are the products over the members f of the classes [P(f)(x)]_J,
    for x in P(c).  A family is locally equal to the restrictions of its
    value at the identity, and any such product is a family, as local
    equality is an equivalence relation stable under restriction on a
    topology."""
    cat = P.cat
    if any(P.sizes[cat.dom[f]] == 0 for f in members):
        return []
    if cat.identity[c] in members:
        return _read_off_families(P, J, c, members)
    position = {f: i for i, f in enumerate(members)}
    least: dict[int, list[int]] = {}  # object -> its class table, built when a constraint needs it
    # at member i: (j, u, v) with j < i, so that the constraint reads u[x_j] == v[x_i].
    # For members[i]∘z = members[j] it is x_j ≡ P(z)(x_i), and for
    # members[j]∘z = members[i] it is x_i ≡ P(z)(x_j); the class of P(z)(x)
    # is read off the composite table of the classes of dom z after P(z).
    checks: list[list[tuple[int, Sequence[int], Sequence[int]]]] = [[] for _ in members]
    # at member i: (classes, composite) for each z with members[i]∘z = members[i]
    fixing: list[list[tuple[Sequence[int], Sequence[int]]]] = [[] for _ in members]
    for i, f in enumerate(members):
        for z, fz in zip(cat.arrows_into(cat.dom[f]), cat.composites[f]):
            j = position.get(fz)
            d = cat.dom[z]
            # it holds along an identity, and in a set of at most one element
            if j is None or z == cat.identity[d] or P.sizes[d] < 2:
                continue
            if d not in least:
                least[d] = _least_locally_equal(P, J, d)
            classes = least[d]
            composite = [classes[y] for y in P.restrict[z]]
            if j == i:
                fixing[i].append((classes, composite))
            elif j < i:
                checks[i].append((j, classes, composite))
            else:
                checks[j].append((i, composite, classes))
    families: list[tuple[int, ...]] = [()]
    for f, checked, fixed in zip(members, checks, fixing):
        free = [x for x in range(P.sizes[cat.dom[f]])
                if all(classes[x] == composite[x] for classes, composite in fixed)]
        families = [fam + (x,) for fam in families for x in free
                    if not checked or all(u[fam[j]] == v[x] for j, u, v in checked)]
    return families


def _read_off_families(P: FinPresheaf, J: GrothendieckTopology, c: int,
                       members: Sequence[int]) -> list[tuple[int, ...]]:
    """The locally matching families over members that hold the identity
    of c, sorted: the products of the classes of the restrictions of each
    x in P(c).  Distinct tuples of classes give disjoint products."""
    cat = P.cat
    least = {d: _least_locally_equal(P, J, d) for d in {cat.dom[f] for f in members}}
    classes: dict[int, dict[int, list[int]]] = {d: {} for d in least}  # least element -> class
    for d, reps in least.items():
        for y, r in enumerate(reps):
            classes[d].setdefault(r, []).append(y)
    keys = set(zip(*(map(least[cat.dom[f]].__getitem__, P.restrict[f]) for f in members)))
    return sorted(fam for key in keys for fam in itertools.product(
        *(classes[cat.dom[f]][r] for f, r in zip(members, key))))


def _least_locally_equal(P: FinPresheaf, J: GrothendieckTopology, c: int) -> list[int]:
    """For each x in P(c), the least element locally equal to x: the first
    element with its key (`_element_keys`), found in one dict pass."""
    first: dict[tuple[int, ...], int] = {}
    return list(map(first.setdefault, _element_keys(P, J, c), range(P.sizes[c])))


def sheafify(P: FinPresheaf, J: GrothendieckTopology) -> SheafificationResult:
    """Locally matching families over the least covering sieve of each
    object, modulo componentwise local equality.  J must be a topology: then
    local equality is an equivalence relation, so two families are
    identified exactly when their components have the same least locally
    equal elements, and each class is found by that tuple, its key.  The
    keys are read column by column, and the families come in lexicographic
    order, so each class's representative, the first family with its key,
    is its lexicographically least family."""
    cat = P.cat
    carriers = tuple(tuple(sorted(bits(J.min_cover[c]))) for c in cat.objects)
    all_families = [
        _locally_matching_families(P, J, c, carriers[c]) for c in cat.objects]
    least = [_least_locally_equal(P, J, d) for d in cat.objects]

    reps: list[tuple[tuple[int, ...], ...]] = []
    index: list[dict[tuple[int, ...], int]] = []
    for c, families in zip(cat.objects, all_families):
        # per family, the least locally equal elements of its components, read column-wise
        keys = zip(*(map(least[cat.dom[f]].__getitem__, column)
                     for f, column in zip(carriers[c], zip(*families)))) \
            if carriers[c] else [()] * len(families)
        first: dict[tuple[int, ...], tuple[int, ...]] = {}  # key -> its least family
        least_of = list(map(first.setdefault, keys, families))
        number = dict(zip(first.values(), itertools.count()))
        reps.append(tuple(first.values()))
        index.append(dict(zip(families, map(number.__getitem__, least_of))))

    sizes = tuple(len(r) for r in reps)
    # per object, the values of its representatives at each carrier arrow
    columns = [list(zip(*r)) or [()] * len(carrier) for r, carrier in zip(reps, carriers)]
    restrict = []
    for f in cat.arrows:
        a, b = cat.dom[f], cat.cod[f]
        # f∘g lies in the least cover of b for g in that of a, by stability
        slots = [carriers[b].index(cat.compose(f, g)) for g in carriers[a]]
        keys = zip(*(columns[b][i] for i in slots)) if slots else [()] * sizes[b]
        restrict.append(tuple(map(index[a].__getitem__, keys)))
    sheaf = FinPresheaf(cat, sizes, tuple(restrict))

    unit = PresheafMorphism(P, sheaf, tuple(
        tuple(map(index[c].__getitem__, _restriction_keys(P, c, carriers[c])))
        for c in cat.objects))
    return SheafificationResult(P, J, sheaf, unit, carriers, tuple(reps), tuple(index))


def sheafify_morphism(alpha: PresheafMorphism, shP: SheafificationResult,
                      shQ: SheafificationResult) -> PresheafMorphism:
    """a_J(alpha) between the computed sheafifications."""
    cat = alpha.source.cat
    components = []
    for c in cat.objects:
        comp = []
        for fam in shP.families[c]:
            mapped = tuple(alpha.at(cat.dom[f], x)
                           for f, x in zip(shP.carrier[c], fam))
            comp.append(shQ._index[c][mapped])
        components.append(tuple(comp))
    return PresheafMorphism(shP.sheaf, shQ.sheaf, tuple(components))


# ---------------------------------------------------------------------------
# independent oracle: the plus construction, applied twice, read at the
# least cover; the colimit over every cover is kept in the tests

def plus_construction(P: FinPresheaf, J: GrothendieckTopology) -> tuple[FinPresheaf, PresheafMorphism]:
    """P⁺(c) = Match(m_c, P), in the order of `strict_matching_families`.

    P⁺(c) is the colimit of Match(S, P) over the covers S of c, ordered by
    reverse inclusion.  m_c lies inside every cover, so it is terminal in
    that diagram, and each pair (S, x) is glued to its restriction to m_c
    alone.  Restriction along f: d -> c reads x at f∘g for g in m_d, as
    f*(m_c) ⊇ m_d, by zipping value columns; the unit sends x to its
    restrictions along m_c.
    """
    cat = P.cat
    carriers = [sorted(bits(J.min_cover[c])) for c in cat.objects]
    families = [strict_matching_families(P, c, J.min_cover[c]) for c in cat.objects]
    index = [{fam: i for i, fam in enumerate(fams)} for fams in families]
    sizes = tuple(map(len, families))
    columns = [list(zip(*fams)) or [()] * len(carrier) for fams, carrier in zip(families, carriers)]
    restrict = []
    for f in cat.arrows:
        a, b = cat.dom[f], cat.cod[f]
        slots = [carriers[b].index(cat.compose(f, g)) for g in carriers[a]]
        keys = zip(*(columns[b][i] for i in slots)) if slots else [()] * sizes[b]
        restrict.append(tuple(map(index[a].__getitem__, keys)))
    plus = FinPresheaf(cat, sizes, tuple(restrict))
    return plus, PresheafMorphism(P, plus, tuple(
        tuple(map(index[c].__getitem__, _restriction_keys(P, c, carriers[c])))
        for c in cat.objects))


def sheafify_plus_plus(P: FinPresheaf, J: GrothendieckTopology) -> tuple[FinPresheaf, PresheafMorphism]:
    plus, eta1 = plus_construction(P, J)
    plusplus, eta2 = plus_construction(plus, J)
    return plusplus, eta1.then(eta2)


def sheaf_comparison(P: FinPresheaf, J: GrothendieckTopology,
                     E1: FinPresheaf, eta1: PresheafMorphism,
                     E2: FinPresheaf, eta2: PresheafMorphism) -> PresheafMorphism:
    """The unique morphism E1 -> E2 under P, for two sheaf presentations of
    the same presheaf (units must be J-bicovering with sheaf targets).

    phi(e) is the unique v with {f | some x has eta1(x) = e·f and
    eta2(x) = v·f} covering; raises if existence or uniqueness fails, and
    raises ValueError, from `validate_presheaf_morphism`, when a unit is
    not a natural transformation out of P.

    With natural units that set of f is a sieve: eta1(x) = e·f and
    eta2(x) = v·f give eta1(x·g) = e·(f∘g) and eta2(x·g) = v·(f∘g).  So it
    covers iff it holds each member of the least cover m_c, or each
    generator of m_c (L0).  Those v are the ones whose restriction along
    each f in m_c lies in over[dom f][e·f] = {eta2(x) | eta1(x) = e·f},
    and they are looked up by their restrictions along m_c.  When each set
    over[dom f][e·f] read at c has one element, each e has one such key,
    read column by column, and when the elements of E2(c) have distinct
    keys it names at most one of them.  If so, and each key names one, that
    is the component at c; otherwise each e is compared on its own
    (`_compare_by_element`), which also names the first e that fails.
    """
    validate_presheaf_morphism(P, E1, eta1.components)
    validate_presheaf_morphism(P, E2, eta2.components)
    cat = P.cat
    over = []
    for d in cat.objects:
        images: list[set[int]] = [set() for _ in range(E1.sizes[d])]
        for u, v in zip(eta1.components[d], eta2.components[d]):
            images[u].add(v)
        over.append(images)
    # per d and u, the one element of over[d][u], or -1 when it has none or several
    sole = [[min(s) if len(s) == 1 else -1 for s in images] for images in over]
    components = []
    for c in cat.objects:
        members = sorted(bits(J.min_cover[c]))
        # per e, its key when each set read has one element; a key with -1 names no element
        keys = zip(*(map(sole[cat.dom[f]].__getitem__, E1.restrict[f]) for f in members)) \
            if members else [()] * E1.sizes[c]
        element = dict(zip(_restriction_keys(E2, c, members), range(E2.sizes[c])))
        comp = tuple(map(element.get, keys))
        if None in comp or len(element) < E2.sizes[c]:
            comp = _compare_by_element(J, c, E1, E2, over, members)
        components.append(comp)
    # checked: its naturality is part of what the comparison asserts
    return validate_presheaf_morphism(E1, E2, components)


def _compare_by_element(J: GrothendieckTopology, c: int, E1: FinPresheaf, E2: FinPresheaf,
                        over: list[list[set[int]]], members: list[int]) -> tuple[int, ...]:
    """The component at c of `sheaf_comparison`, one element of E1(c) at a
    time: the keys in the product of the sets over[dom f][e·f] are looked
    up, or, when there are more of them than elements of E2(c), every
    element is tested at the generators of m_c.  Raises at the first e
    with no such element or several."""
    cat = J.cat
    by_key = _by_restrictions(E2, c, members)
    # per e, the sets over[dom f][e·f] along the members f of m_c
    options_of = zip(*(map(over[cat.dom[f]].__getitem__, E1.restrict[f])
                       for f in members)) if members else [()] * E1.sizes[c]
    generator_rows = [(E1.restrict[g], E2.restrict[g], over[cat.dom[g]])
                      for g in J.min_cover_generators[c]]
    comp = []
    for e, options in enumerate(options_of):
        if math.prod(map(len, options)) > E2.sizes[c]:
            tests = [(row2, images[row1[e]]) for row1, row2, images in generator_rows]
            found = [v for v in range(E2.sizes[c])
                     if all(row[v] in image for row, image in tests)]
        else:
            found = sorted(v for key in itertools.product(*options)
                           for v in by_key.get(key, ()))
        if len(found) != 1:
            raise ValueError(
                f"sheaf comparison not uniquely defined at object {c}, element {e}: {found}")
        comp.append(found[0])
    return tuple(comp)


# ---------------------------------------------------------------------------
# colimits

def colimit_presheaf(cat: FinCategory, shape: FinCategory, diagram: Sequence[FinPresheaf],
                     arrows: Sequence[PresheafMorphism]) -> tuple[FinPresheaf, list[list[tuple[int, ...]]]]:
    """Pointwise colimit of a diagram of presheaves on cat; also returns,
    per shape object, the per-object leg maps into the colimit.  The empty
    diagram has the empty presheaf as its colimit."""
    offsets = []
    sizes = []
    classes: list[list[int]] = []
    for c in cat.objects:
        offs = []
        total = 0
        for i in shape.objects:
            offs.append(total)
            total += diagram[i].sizes[c]
        uf = _UnionFind(total)
        for u in shape.arrows:
            i, j = shape.dom[u], shape.cod[u]
            for x in range(diagram[i].sizes[c]):
                uf.union(offs[i] + x, offs[j] + arrows[u].at(c, x))
        roots: dict[int, int] = {}
        cls = []
        for k in range(total):
            r = uf.find(k)
            if r not in roots:
                roots[r] = len(roots)
            cls.append(roots[r])
        offsets.append(offs)
        sizes.append(len(roots))
        classes.append(cls)

    restrict = []
    for f in cat.arrows:
        a, b = cat.dom[f], cat.cod[f]
        row = [0] * sizes[b]
        for i in shape.objects:
            for x in range(diagram[i].sizes[b]):
                row[classes[b][offsets[b][i] + x]] = \
                    classes[a][offsets[a][i] + diagram[i].res(f, x)]
        restrict.append(tuple(row))
    colim = FinPresheaf(cat, tuple(sizes), tuple(restrict))
    legs = [[tuple(classes[c][offsets[c][i] + x]
                   for x in range(diagram[i].sizes[c]))
             for c in cat.objects]
            for i in shape.objects]
    return colim, legs


def colimit_of_representables(F: FinFunctor) -> tuple[FinPresheaf, list[list[tuple[int, ...]]]]:
    """colim(y∘F), via the explicit connected-component description of the
    pointwise colimit: (c, x: c -> F(a)) up to zig-zag in (c ↓ F)."""
    A, C = F.source, F.target
    return colimit_presheaf(C, A, [yoneda(C, F.on_obj(a)) for a in A.objects],
                            [yoneda_arrow(C, F.on_arr(u)) for u in A.arrows])


def family_locally_surjective(J: GrothendieckTopology,
                              morphisms: Sequence[PresheafMorphism],
                              target: FinPresheaf) -> bool:
    """Joint local surjectivity onto the target (joint epi after a_J): for
    each y in target(c), {f | y·f in the image} covers.  The union of the
    images is a subpresheaf, so that set is a sieve, and it covers iff it
    holds each generator g of m_c (L0).  So the family is surjective iff
    the image at dom g holds the whole row target(g), for every g."""
    cat = target.cat
    images = [set() for _ in cat.objects]
    for m in morphisms:
        for c in cat.objects:
            images[c].update(m.components[c])
    return all(images[cat.dom[g]].issuperset(target.restrict[g])
               for gens in J.min_cover_generators for g in gens)
