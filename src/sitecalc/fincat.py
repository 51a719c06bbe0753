"""Finite categories, functors, comma categories and fibration machinery.

Objects and arrows are dense small integers.  A category stores its full
composition table as one row per arrow g, the composites g∘f along
`arrows_into(dom g)`.  Everything is immutable after construction.
Categories and functors are plain data: outside input goes through
`validate_category` and `validate_functor`, and constructions build
directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

MAX_ARROWS = 1 << 16

V = TypeVar("V")


def _memo(owner: object, key: tuple, compute: Callable[[], V]) -> V:
    """compute(), run once per `owner` instance and `key` and kept in the
    owner's instance dict under `key`, whose first item names the memo, so
    two memos on one owner never share a key and no key is an attribute
    name.  A raise keeps nothing.  The value dies with its owner, and equal
    but distinct owners share nothing.  A hit is one dict lookup."""
    memo = owner.__dict__
    try:
        return memo[key]
    except KeyError:
        pass
    value = memo[key] = compute()
    return value


class SizeGuardError(Exception):
    """A construction exceeded the documented resource guard."""


class CategoryError(Exception):
    """Raised with the full list of violated category laws."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class FinCategory:
    n_objects: int
    dom: tuple[int, ...]
    cod: tuple[int, ...]
    identity: tuple[int, ...]
    composites: tuple[tuple[int, ...], ...]  # [g][i]: g∘f for the i-th f in arrows_into(dom g)

    @property
    def n_arrows(self) -> int:
        return len(self.dom)

    @property
    def objects(self) -> range:
        return range(self.n_objects)

    @property
    def arrows(self) -> range:
        return range(self.n_arrows)

    def compose(self, g: int, f: int) -> int:
        """g∘f, defined when cod(f) = dom(g)."""
        if self.cod[f] != self.dom[g]:
            raise ValueError(f"arrows {g} and {f} are not composable")
        return self.composites[g][self.into_position[f]]

    @property
    def comp(self) -> dict[tuple[int, int], int]:  # rebuilt per read, for perfbench/spans.py
        return {(g, f): h for g, row in enumerate(self.composites)
                for f, h in zip(self._into[self.dom[g]], row)}

    def is_identity(self, f: int) -> bool:
        return self.identity[self.dom[f]] == f

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:  # once per instance: it reads every composition row
        return hash((self.n_objects, self.dom, self.cod, self.identity, self.composites))

    @cached_property
    def _into(self) -> tuple[tuple[int, ...], ...]:
        buckets: list[list[int]] = [[] for _ in self.objects]
        for f in self.arrows:
            buckets[self.cod[f]].append(f)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def _out_of(self) -> tuple[tuple[int, ...], ...]:
        buckets: list[list[int]] = [[] for _ in self.objects]
        for f in self.arrows:
            buckets[self.dom[f]].append(f)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def into_position(self) -> tuple[int, ...]:
        """Per arrow f, its index in arrows_into(cod f): its column in the rows."""
        counters = [itertools.count() for _ in self.objects]
        return tuple([next(counters[c]) for c in self.cod])

    def arrows_into(self, c: int) -> tuple[int, ...]:
        return self._into[c]

    def arrows_out_of(self, c: int) -> tuple[int, ...]:
        return self._out_of[c]

    @cached_property
    def _hom(self) -> dict[tuple[int, int], tuple[int, ...]]:
        table: dict[tuple[int, int], list[int]] = {
            (a, b): [] for a in self.objects for b in self.objects}
        for f in self.arrows:
            table[(self.dom[f], self.cod[f])].append(f)
        return {k: tuple(v) for k, v in table.items()}

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        return self._hom[(a, b)]

    @cached_property
    def hom_position(self) -> tuple[int, ...]:
        """Per arrow f, its index in hom(dom f, cod f): the element of the
        representable y(cod f) at dom f that f is."""
        counters = {ends: itertools.count() for ends in self._hom}
        return tuple([next(counters[ends]) for ends in zip(self.dom, self.cod)])

    @cached_property
    def isomorphisms(self) -> frozenset[int]:
        ids = self.identity
        return frozenset(f for f in self.arrows if any(
            self.compose(g, f) == ids[self.dom[f]] and self.compose(f, g) == ids[self.cod[f]]
            for g in self.hom(self.cod[f], self.dom[f])))

    def is_iso(self, f: int) -> bool:
        return f in self.isomorphisms

    @cached_property
    def maximal_sieves(self) -> tuple[int, ...]:
        """Per object c, the bitmask of the maximal sieve: every arrow into c."""
        masks = [0] * self.n_objects
        for f, c in enumerate(self.cod):
            masks[c] |= 1 << f
        return tuple(masks)

    @cached_property
    def principal_sieves(self) -> tuple[int, ...]:
        """Per arrow f, the bitmask of ⟨f⟩ = {f∘z | z composable}."""
        masks = []
        for row in self.composites:  # the row of f holds f∘id = f
            mask = 0
            for h in row:
                mask |= 1 << h
            masks.append(mask)
        return tuple(masks)

    @cached_property
    def omitting_sieves(self) -> tuple[int, ...]:
        """Per arrow f, the bitmask of S_f = {h into cod f | f ∉ ⟨h⟩}, the
        largest sieve on cod f that omits f: the arrows into cod f that f
        does not factor through."""
        return tuple(sum(1 << h for h in self._into[c] if not (self.principal_sieves[h] >> f) & 1)
                     for f, c in enumerate(self.cod))

    def opposite(self) -> "FinCategory":
        return FinCategory(
            n_objects=self.n_objects,
            dom=self.cod,
            cod=self.dom,
            identity=self.identity,
            composites=tuple(tuple(self.compose(f, g) for f in self._out_of[self.cod[g]])
                             for g in self.arrows),  # the row of g: f∘g along f out of cod g
        )


def validate_category(
    n_objects: int,
    arrows: Sequence[tuple[int, int]],
    identities: Sequence[int],
    composition: Mapping[tuple[int, int], int],
) -> FinCategory:
    """Check all category laws; return the category or raise CategoryError
    listing every violated law instance."""
    if len(arrows) > MAX_ARROWS:
        raise SizeGuardError(f"{len(arrows)} arrows exceeds the limit {MAX_ARROWS}")
    violations: list[str] = []
    n_arrows = len(arrows)
    dom = tuple(a for a, _ in arrows)
    cod = tuple(b for _, b in arrows)

    for f, (a, b) in enumerate(arrows):
        if not (0 <= a < n_objects and 0 <= b < n_objects):
            violations.append(f"arrow {f} has endpoints ({a}, {b}) outside [0, {n_objects})")
    if violations:
        raise CategoryError(violations)

    if len(identities) != n_objects:
        violations.append(f"expected {n_objects} identities, got {len(identities)}")
        raise CategoryError(violations)
    for c, i in enumerate(identities):
        if not (0 <= i < n_arrows) or dom[i] != c or cod[i] != c:
            violations.append(f"missing identity: identity of object {c} is not an arrow {c} -> {c}")

    for (g, f), h in composition.items():
        if not (0 <= f < n_arrows and 0 <= g < n_arrows and 0 <= h < n_arrows):
            violations.append(f"composition entry ({g}, {f}) = {h} mentions unknown arrows")
            continue
        if cod[f] != dom[g]:
            violations.append(f"composition outside hom-sets: ({g}, {f}) not composable")
            continue
        if dom[h] != dom[f] or cod[h] != cod[g]:
            violations.append(
                f"dom/cod mismatch: {g}∘{f} = {h} but {h}: {dom[h]} -> {cod[h]}, "
                f"expected {dom[f]} -> {cod[g]}")
    into: list[list[int]] = [[] for _ in range(n_objects)]  # per object, ascending
    for f in range(n_arrows):
        into[cod[f]].append(f)
    composites = tuple([tuple([composition.get((g, f)) for f in into[dom[g]]])
                        for g in range(n_arrows)])
    for g, entries in enumerate(composites):
        if None in entries:
            violations.extend(f"missing composite for composable pair ({g}, {f})"
                              for f, h in zip(into[dom[g]], entries) if h is None)
    if violations:
        raise CategoryError(violations)

    for f in range(n_arrows):
        if composition[(f, identities[dom[f]])] != f:
            violations.append(f"identity law broken: {f}∘id_{dom[f]} != {f}")
        if composition[(identities[cod[f]], f)] != f:
            violations.append(f"identity law broken: id_{cod[f]}∘{f} != {f}")
    # (h∘g)∘f = h∘(g∘f) for all f at once: h applied to the row of g, the
    # x∘f along the f into dom(x), is compared with the row of h∘g
    for h in range(n_arrows):
        at_h = dict(zip(into[dom[h]], composites[h])).__getitem__
        for g, hg in zip(into[dom[h]], composites[h]):
            if composites[hg] == tuple(map(at_h, composites[g])):
                continue
            for f in into[dom[g]]:
                if composition[(hg, f)] != composition[(h, composition[(g, f)])]:
                    violations.append(f"non-associative triple ({h}, {g}, {f})")
    if violations:
        raise CategoryError(violations)
    return FinCategory(n_objects, dom, cod, tuple(identities), composites)


def derived_category(
    n_objects: int,
    arrows: Sequence[tuple],
    identities: Sequence[tuple],
    compose: Callable[[tuple, tuple], tuple],
) -> tuple[FinCategory, dict[tuple, int]]:
    """The category on objects 0..n_objects-1 whose arrows are the keys in
    `arrows`, each a tuple (source, target, ...), with the key of each
    object's identity and `compose(g, f)` on the keys of composable pairs;
    returns it with the key -> arrow index map.  The row of g lists
    `compose(g, f)` over the f into its source in key order.  The laws are
    not checked: a caller derives them from a lawful category."""
    if len(arrows) > MAX_ARROWS:
        raise SizeGuardError(f"{len(arrows)} arrows exceeds the limit {MAX_ARROWS}")
    index = {a: i for i, a in enumerate(arrows)}
    into: list[list[tuple]] = [[] for _ in range(n_objects)]
    for f in arrows:
        into[f[1]].append(f)
    composites = tuple(tuple(index[compose(g, f)] for f in into[g[0]]) for g in arrows)
    category = FinCategory(n_objects, tuple(a[0] for a in arrows), tuple(a[1] for a in arrows),
                           tuple(index[k] for k in identities), composites)
    return category, index


def terminal_category() -> FinCategory:
    return validate_category(1, [(0, 0)], [0], {(0, 0): 0})


def poset_category(n: int, le: Sequence[tuple[int, int]]) -> FinCategory:
    """Category of a preorder: one arrow a -> b per related pair.

    `le` lists the related pairs; reflexivity is added and transitivity
    closed automatically, so any relation gives its preorder closure.
    """
    rel = {(a, a) for a in range(n)} | set(le)
    changed = True
    while changed:
        changed = False
        for (a, b), (b2, c) in itertools.product(list(rel), list(rel)):
            if b == b2 and (a, c) not in rel:
                rel.add((a, c))
                changed = True
    pairs = sorted(rel)
    return derived_category(n, pairs, [(a, a) for a in range(n)],
                            lambda g, f: (f[0], g[1]))[0]


def monoid_category(mult: Sequence[Sequence[int]], unit: int) -> FinCategory:
    """One-object category from a finite monoid multiplication table."""
    n = len(mult)
    return validate_category(1, [(0, 0)] * n, [unit],
                             {(g, f): mult[g][f] for g in range(n) for f in range(n)})


@dataclass(frozen=True)
class FinFunctor:
    """Plain data, as `FinCategory` is: outside input goes through
    `validate_functor`."""
    source: FinCategory
    target: FinCategory
    obj_map: tuple[int, ...]
    arr_map: tuple[int, ...]

    def on_obj(self, c: int) -> int:
        return self.obj_map[c]

    def on_arr(self, f: int) -> int:
        return self.arr_map[f]

    def then(self, other: "FinFunctor") -> "FinFunctor":
        """other ∘ self."""
        if self.target is not other.source and self.target != other.source:
            raise ValueError("functors not composable")
        return FinFunctor(self.source, other.target,
                          tuple(other.obj_map[c] for c in self.obj_map),
                          tuple(other.arr_map[f] for f in self.arr_map))

    @cached_property
    def image_objects(self) -> frozenset[int]:
        return frozenset(self.obj_map)

    @cached_property
    def image_sieves(self) -> tuple[int, ...]:
        """Per source arrow f, the mask of the principal sieve ⟨F f⟩."""
        return tuple([self.target.principal_sieves[g] for g in self.arr_map])

    def image_sieve(self, mask: int) -> int:
        """The sieve generated by F(S), S given as `mask`: the union of `image_sieves`."""
        out, sieves = 0, self.image_sieves
        while mask:
            low = mask & -mask
            out |= sieves[low.bit_length() - 1]
            mask ^= low
        return out

    def is_full(self) -> bool:
        for a in self.source.objects:
            for b in self.source.objects:
                image = {self.arr_map[f] for f in self.source.hom(a, b)}
                if set(self.target.hom(self.obj_map[a], self.obj_map[b])) - image:
                    return False
        return True

    def is_faithful(self) -> bool:
        for a in self.source.objects:
            for b in self.source.objects:
                hom = self.source.hom(a, b)
                if len({self.arr_map[f] for f in hom}) != len(hom):
                    return False
        return True


def validate_functor(source: FinCategory, target: FinCategory, obj_map: Sequence[int],
                     arr_map: Sequence[int]) -> FinFunctor:
    """Check that the maps send dom/cod, identities and composites of the
    source to those of the target; return the functor or raise
    CategoryError listing every broken instance."""
    obj_map, arr_map = tuple(obj_map), tuple(arr_map)
    if len(obj_map) != source.n_objects or len(arr_map) != source.n_arrows:
        raise CategoryError(["functor maps have wrong length"])
    bad = []
    for f in source.arrows:
        ff = arr_map[f]
        if target.dom[ff] != obj_map[source.dom[f]] or target.cod[ff] != obj_map[source.cod[f]]:
            bad.append(f"functor breaks dom/cod at arrow {f}")
    for c in source.objects:
        if arr_map[source.identity[c]] != target.identity[obj_map[c]]:
            bad.append(f"functor breaks identity at object {c}")
    for g, row in enumerate(source.composites):
        for f, h in zip(source.arrows_into(source.dom[g]), row):
            Fg, Ff = arr_map[g], arr_map[f]
            if target.cod[Ff] != target.dom[Fg] or target.compose(Fg, Ff) != arr_map[h]:
                bad.append(f"functor breaks composition at pair ({g}, {f})")
    if bad:
        raise CategoryError(bad)
    return FinFunctor(source, target, obj_map, arr_map)


def identity_functor(cat: FinCategory) -> FinFunctor:
    return FinFunctor(cat, cat, tuple(cat.objects), tuple(cat.arrows))


def corestrict(G: FinFunctor, inclusion: FinFunctor) -> FinFunctor:
    """G through an inclusion, injective on objects and arrows, that
    contains its image: the G' with inclusion∘G' = G."""
    obj = {c: i for i, c in enumerate(inclusion.obj_map)}
    arr = {f: i for i, f in enumerate(inclusion.arr_map)}
    return FinFunctor(G.source, inclusion.source, tuple(obj[c] for c in G.obj_map),
                      tuple(arr[f] for f in G.arr_map))


@dataclass(frozen=True)
class CommaCategory:
    """(F ↓ G): objects are triples (a, b, α: F(a) -> G(b)), arrows are
    component pairs commuting with the α's."""
    category: FinCategory
    objects: tuple[tuple[int, int, int], ...]
    arrow_data: tuple[tuple[int, int, int, int], ...]  # (src_idx, dst_idx, u, v)
    left_projection: FinFunctor
    right_projection: FinFunctor
    object_index: dict[tuple[int, int, int], int]
    arrow_index: dict[tuple[int, int, int, int], int]


def comma(F: FinFunctor, G: FinFunctor) -> CommaCategory:
    if F.target != G.target:
        raise ValueError("comma categories need functors with a common target")
    C = F.target
    A, B = F.source, G.source
    objects = tuple((a, b, alpha)
                    for a in A.objects for b in B.objects
                    for alpha in C.hom(F.on_obj(a), G.on_obj(b)))
    # every object carries an identity arrow, so this is the arrow guard,
    # fired before any arrow is enumerated
    if len(objects) > MAX_ARROWS:
        raise SizeGuardError(f"comma category has {len(objects)} objects (budget {MAX_ARROWS})")
    obj_index = {o: i for i, o in enumerate(objects)}

    # G(v)∘α = α2∘F(u), read off the rows of G(v) and α2
    rows, pos = C.composites, C.into_position
    arrow_data = []
    for si, (a, b, alpha) in enumerate(objects):
        for u in A.arrows_out_of(a):
            a2, at_Fu = A.cod[u], pos[F.arr_map[u]]
            for v in B.arrows_out_of(b):
                b2, Gv_alpha = B.cod[v], rows[G.arr_map[v]][pos[alpha]]
                for alpha2 in C.hom(F.obj_map[a2], G.obj_map[b2]):
                    if Gv_alpha == rows[alpha2][at_Fu]:
                        arrow_data.append((si, obj_index[(a2, b2, alpha2)], u, v))
    a_rows, a_pos, b_rows, b_pos = A.composites, A.into_position, B.composites, B.into_position
    cat, arr_index = derived_category(
        len(objects), arrow_data,
        [(i, i, A.identity[a], B.identity[b]) for i, (a, b, _) in enumerate(objects)],
        lambda g, f: (f[0], g[1], a_rows[g[2]][a_pos[f[2]]], b_rows[g[3]][b_pos[f[3]]]))
    left = FinFunctor(cat, A, tuple(o[0] for o in objects), tuple(d[2] for d in arrow_data))
    right = FinFunctor(cat, B, tuple(o[1] for o in objects), tuple(d[3] for d in arrow_data))
    return CommaCategory(cat, objects, tuple(arrow_data), left, right, obj_index, arr_index)


def full_subcategory(cat: FinCategory, objects: Sequence[int]) -> tuple[FinCategory, FinFunctor]:
    """The full subcategory on the given objects, with its inclusion."""
    objects = list(objects)
    obj_index = {c: i for i, c in enumerate(objects)}
    arrows = [(obj_index[cat.dom[f]], obj_index[cat.cod[f]], f) for f in cat.arrows
              if cat.dom[f] in obj_index and cat.cod[f] in obj_index]
    sub, _ = derived_category(len(objects), arrows,
                              [(i, i, cat.identity[c]) for i, c in enumerate(objects)],
                              lambda g, f: (f[0], g[1], cat.compose(g[2], f[2])))
    return sub, FinFunctor(sub, cat, tuple(objects), tuple(a[2] for a in arrows))


def quotient_by_functor_congruence(F: FinFunctor) -> tuple[FinCategory, FinFunctor, FinFunctor]:
    """Quotient of the source by the hom-set congruence g ~ g' iff F(g) = F(g')
    (parallel arrows only).  Returns (quotient, projection, induced functor),
    with the induced functor satisfying induced ∘ projection = F.  A class
    is the key (dom, cod, F(g)), numbered in order of first occurrence."""
    cat, D = F.source, F.target
    arr_class = [(cat.dom[f], cat.cod[f], F.on_arr(f)) for f in cat.arrows]
    quotient, index = derived_category(
        cat.n_objects, list(dict.fromkeys(arr_class)),
        [(c, c, F.on_arr(cat.identity[c])) for c in cat.objects],
        lambda g, f: (f[0], g[1], D.compose(g[2], f[2])))
    projection = FinFunctor(cat, quotient, tuple(cat.objects), tuple(map(index.get, arr_class)))
    induced = FinFunctor(quotient, D, F.obj_map, tuple(k[2] for k in index))
    return quotient, projection, induced


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        self.parent[self.find(i)] = self.find(j)


def connected_components(cat: FinCategory) -> tuple[frozenset[int], ...]:
    """Zig-zag equivalence classes of objects."""
    uf = _UnionFind(cat.n_objects)
    for f in cat.arrows:
        uf.union(cat.dom[f], cat.cod[f])
    groups: dict[int, set[int]] = {}
    for c in cat.objects:
        groups.setdefault(uf.find(c), set()).add(c)
    return tuple(frozenset(g) for g in sorted(groups.values(), key=min))


def _cocones_into(shape: FinCategory, diagram: FinFunctor, d: int) -> Iterable[dict[int, int]]:
    """All cocones from the diagram to vertex d, by backtracking."""
    C = diagram.target
    shape_objs = list(shape.objects)

    def extend(i: int, legs: dict[int, int]):
        if i == len(shape_objs):
            yield dict(legs)
            return
        obj = shape_objs[i]
        for leg in C.hom(diagram.on_obj(obj), d):
            legs[obj] = leg
            ok = True
            for u in shape.arrows:
                a, b = shape.dom[u], shape.cod[u]
                if a in legs and b in legs:
                    if C.compose(legs[b], diagram.on_arr(u)) != legs[a]:
                        ok = False
                        break
            if ok:
                yield from extend(i + 1, legs)
            del legs[obj]

    yield from extend(0, {})


def is_colimit_cocone(
    diagram: FinFunctor,
    vertex: int,
    legs: Mapping[int, int],
) -> tuple[bool, dict | None]:
    """Universal-property check: every cocone factors uniquely through the vertex.

    Returns (True, None) or (False, witness) where the witness names the
    object and cocone at which mediation fails.
    """
    shape, C = diagram.source, diagram.target
    for i in shape.objects:
        f = legs[i]
        if C.dom[f] != diagram.on_obj(i) or C.cod[f] != vertex:
            raise ValueError(f"leg at {i} is not an arrow D({i}) -> vertex")
    for u in shape.arrows:
        a, b = shape.dom[u], shape.cod[u]
        if C.compose(legs[b], diagram.on_arr(u)) != legs[a]:
            raise ValueError(f"legs do not form a cocone: fails at shape arrow {u}")

    for d in C.objects:
        for mu in _cocones_into(shape, diagram, d):
            mediators = [h for h in C.hom(vertex, d)
                         if all(C.compose(h, legs[i]) == mu[i] for i in shape.objects)]
            if len(mediators) != 1:
                return False, {"object": d, "cocone": mu, "mediators": mediators}
    return True, None


def is_cartesian(p: FinFunctor, phi: int) -> bool:
    """Street cartesianness of phi: c' -> c relative to p: unique fillers for
    all (psi, g) with p(phi)∘g = p(psi)."""
    C, D = p.source, p.target
    c1, c = C.dom[phi], C.cod[phi]
    for c2 in C.objects:
        for psi in C.hom(c2, c):
            for g in D.hom(p.on_obj(c2), p.on_obj(c1)):
                if D.compose(p.on_arr(phi), g) != p.on_arr(psi):
                    continue
                fillers = [chi for chi in C.hom(c2, c1)
                           if C.compose(phi, chi) == psi and p.on_arr(chi) == g]
                if len(fillers) != 1:
                    return False
    return True


def cartesian_arrows(p: FinFunctor) -> frozenset[int]:
    return _memo(p, ("cartesian_arrows",), lambda: frozenset(
        f for f in p.source.arrows if is_cartesian(p, f)))


def vertical_arrows(p: FinFunctor) -> frozenset[int]:
    return _memo(p, ("vertical_arrows",), lambda: frozenset(
        f for f in p.source.arrows if p.target.is_iso(p.on_arr(f))))


def is_fibration(p: FinFunctor) -> tuple[bool, dict | None]:
    """Street fibration: every f: d -> p(c) lifts to a cartesian arrow up to
    an isomorphism α with f∘α = p(φ).  Returns a missing-lift witness;
    decided once per functor instance."""
    def decide() -> tuple[bool, dict | None]:
        C, D = p.source, p.target
        cart = cartesian_arrows(p)
        for c in C.objects:
            for d in D.objects:
                for f in D.hom(d, p.on_obj(c)):
                    if not any(
                        D.compose(f, alpha) == p.on_arr(phi)
                        for phi in cart if C.cod[phi] == c
                        for alpha in D.hom(p.on_obj(C.dom[phi]), d)
                        if D.is_iso(alpha)
                    ):
                        return False, {"object": c, "arrow": f}
        return True, None
    return _memo(p, ("is_fibration",), decide)


def cartesian_vertical_factor(p: FinFunctor, u: int) -> tuple[int, int]:
    """Factor u = φ∘v with v vertical and φ cartesian; ties broken by the
    lexicographically least (φ, v).  Requires p to be a fibration."""
    ok, witness = is_fibration(p)
    if not ok:
        raise ValueError(f"cartesian_vertical_factor needs a fibration: no lift at {witness}")
    C = p.source
    cart = cartesian_arrows(p)
    vert = vertical_arrows(p)
    best = None
    for phi in sorted(cart):
        if C.cod[phi] != C.cod[u]:
            continue
        for v in sorted(vert):
            if C.dom[v] == C.dom[u] and C.cod[v] == C.dom[phi] and C.compose(phi, v) == u:
                if best is None or (phi, v) < best:
                    best = (phi, v)
    if best is None:
        raise AssertionError("fibration without a vertical-cartesian factorization")
    phi, v = best
    return v, phi
