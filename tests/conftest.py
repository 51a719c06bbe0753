"""Shared fixtures: small named categories and deterministic random
corpora of categories, topologies, fibrations and presheaves."""

from __future__ import annotations

import collections
import itertools
import random

import pytest

from sitecalc import fincat
from sitecalc.fincat import (
    FinCategory,
    FinFunctor,
    monoid_category,
    poset_category,
    terminal_category,
    validate_category,
    validate_functor,
)
from sitecalc.morphisms import SiteFunctor
from sitecalc.presheaf import (
    FinPresheaf,
    SubPresheaf,
    category_of_elements,
    validate_presheaf,
    yoneda,
)
from sitecalc.sieves import generate_mask, mask_of
from sitecalc.topology import GrothendieckTopology, generate_topology

from oracles import category_from_table


# ---------------------------------------------------------------------------
# named small categories

def make_two() -> FinCategory:
    """The preorder 0 -> 1 (arrows id0=0, id1=1, u=2)."""
    return validate_category(2, [(0, 0), (1, 1), (0, 1)], [0, 1],
                             {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2})


def make_collapse_functor(two: FinCategory) -> FinFunctor:
    return validate_functor(two, two, (1, 1), (1, 1, 1))


def indiscrete_category(n: int) -> FinCategory:
    """One arrow between any two objects; every arrow is an isomorphism."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    index = {p: i for i, p in enumerate(pairs)}
    comp = {(index[(b, c)], index[(a, b2)]): index[(a, c)]
            for (b, c) in pairs for (a, b2) in pairs if b2 == b}
    return validate_category(n, pairs, [index[(a, a)] for a in range(n)], comp)


def z2_category() -> FinCategory:
    return monoid_category([[0, 1], [1, 0]], 0)


def idempotent_monoid_category() -> FinCategory:
    """Monoid {1, e} with e∘e = e (a split-idempotent-free category)."""
    return monoid_category([[0, 1], [1, 1]], 0)


def product_category(A: FinCategory, B: FinCategory) -> tuple[FinCategory, FinFunctor]:
    """A × B with the projection to A (a split fibration)."""
    objs = [(a, b) for a in A.objects for b in B.objects]
    oidx = {o: i for i, o in enumerate(objs)}
    arrs = [(f, g) for f in A.arrows for g in B.arrows]
    aidx = {a: i for i, a in enumerate(arrs)}
    dom = tuple(oidx[(A.dom[f], B.dom[g])] for (f, g) in arrs)
    cod = tuple(oidx[(A.cod[f], B.cod[g])] for (f, g) in arrs)
    identities = tuple(aidx[(A.identity[a], B.identity[b])] for (a, b) in objs)
    comp = {}
    for j, (f2, g2) in enumerate(arrs):
        for i, (f1, g1) in enumerate(arrs):
            if A.cod[f1] == A.dom[f2] and B.cod[g1] == B.dom[g2]:
                comp[(j, i)] = aidx[(A.compose(f2, f1), B.compose(g2, g1))]
    cat = category_from_table(len(objs), dom, cod, identities, comp)
    proj = validate_functor(cat, A, tuple(o[0] for o in objs), tuple(a[0] for a in arrs))
    return cat, proj


# ---------------------------------------------------------------------------
# Grothendieck construction over a chain base (split fibrations)

def grothendieck_total(base: FinCategory, fibers: list[FinCategory],
                       reindex: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]
                       ) -> tuple[FinCategory, FinFunctor]:
    """Total category of a strict contravariant pseudofunctor: `reindex[f]`
    gives (object map, arrow map) of Φ_f: fiber(cod f) -> fiber(dom f).
    Identity arrows may be omitted from `reindex`."""
    def phi(f: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if base.is_identity(f):
            fib = fibers[base.dom[f]]
            return tuple(fib.objects), tuple(fib.arrows)
        return reindex[f]

    objs = [(b, x) for b in base.objects for x in fibers[b].objects]
    oidx = {o: i for i, o in enumerate(objs)}
    arrs = []
    for (b, x) in objs:
        for f in base.arrows_out_of(b):
            b2 = base.cod[f]
            for x2 in fibers[b2].objects:
                for phi_arr in fibers[b].hom(x, phi(f)[0][x2]):
                    arrs.append((oidx[(b, x)], oidx[(b2, x2)], f, phi_arr))
    aidx = {a: i for i, a in enumerate(arrs)}
    dom = tuple(a[0] for a in arrs)
    cod = tuple(a[1] for a in arrs)
    identities = tuple(
        aidx[(i, i, base.identity[b], fibers[b].identity[x])]
        for i, (b, x) in enumerate(objs))
    comp = {}
    for j, (s2, t2, g, psi) in enumerate(arrs):
        for i, (s1, t1, f, phi_a) in enumerate(arrs):
            if t1 != s2:
                continue
            b = objs[s1][0]
            gf = base.compose(g, f)
            # Φ_f(ψ) ∘ φ in fiber(b)
            psi_mapped = phi(f)[1][psi]
            comp[(j, i)] = aidx[(s1, t2, gf, fibers[b].compose(psi_mapped, phi_a))]
    cat = category_from_table(len(objs), dom, cod, identities, comp)
    proj = validate_functor(cat, base, tuple(o[0] for o in objs), tuple(a[2] for a in arrs))
    return cat, proj


def _monotone_maps(src: FinCategory, dst: FinCategory):
    """All functors between preorder-like categories, as (obj, arr) maps."""
    for obj_map in itertools.product(dst.objects, repeat=src.n_objects):
        arr_map = []
        ok = True
        for f in src.arrows:
            hom = dst.hom(obj_map[src.dom[f]], obj_map[src.cod[f]])
            if not hom:
                ok = False
                break
            arr_map.append(hom[0])  # thin target: at most one arrow
        if not ok:
            continue
        try:
            yield validate_functor(src, dst, tuple(obj_map), tuple(arr_map))
        except Exception:
            continue


SMALL_POSETS = [
    lambda: poset_category(1, []),
    lambda: poset_category(2, [(0, 1)]),
    lambda: poset_category(2, []),
    lambda: poset_category(3, [(0, 1), (1, 2)]),
    lambda: poset_category(3, [(0, 1), (0, 2)]),
    lambda: poset_category(3, [(0, 2), (1, 2)]),
    lambda: poset_category(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
]


def count_computes(monkeypatch, module) -> collections.Counter:
    """Route the memo helper as `module` calls it through a wrapper that
    counts every run of a value's compute, raising or not, per (id of the
    owner instance, key).  The owners are kept alive, so no two share an
    id."""
    counts: collections.Counter = collections.Counter()
    owners = []

    def counted_memo(owner, key, compute):
        def counted():
            owners.append(owner)
            counts[id(owner), key] += 1
            return compute()
        return fincat._memo(owner, key, counted)

    monkeypatch.setattr(module, "_memo", counted_memo)
    return counts


def random_fibration(rng: random.Random) -> FinFunctor:
    """A random split fibration: a trivial bundle, a chain-based Grothendieck
    construction, or a discrete fibration of a random presheaf."""
    kind = rng.randrange(3)
    if kind == 0:
        base = rng.choice(SMALL_POSETS[:5])()
        fiber = rng.choice([poset_category(2, [(0, 1)]), indiscrete_category(2),
                            terminal_category(), z2_category()])
        _, proj = product_category(base, fiber)
        return proj
    if kind == 1:
        base = poset_category(2, [(0, 1)])
        fib1 = rng.choice([poset_category(2, [(0, 1)]), poset_category(2, []),
                           terminal_category()])
        fib0 = rng.choice([poset_category(2, [(0, 1)]), indiscrete_category(2),
                           terminal_category()])
        u = next(f for f in base.arrows if not base.is_identity(f))
        maps = list(_monotone_maps(fib1, fib0))
        chosen = rng.choice(maps)
        _, proj = grothendieck_total(
            base, [fib0, fib1], {u: (chosen.obj_map, chosen.arr_map)})
        return proj
    base = rng.choice(SMALL_POSETS)()
    P = random_presheaf(rng, base, max_size=2)
    return category_of_elements(P).projection


# ---------------------------------------------------------------------------
# random categories / topologies / presheaves

def random_category(rng: random.Random) -> FinCategory:
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(SMALL_POSETS)()
    if kind == 1:
        return indiscrete_category(2)
    if kind == 2:
        return z2_category()
    if kind == 3:
        return idempotent_monoid_category()
    if kind == 4:
        cat, _ = product_category(poset_category(2, [(0, 1)]), indiscrete_category(2))
        return cat
    return rng.choice(SMALL_POSETS)()


def random_topology(rng: random.Random, cat: FinCategory) -> GrothendieckTopology:
    base = []
    for _ in range(rng.randrange(3)):
        c = rng.randrange(cat.n_objects)
        into = cat.arrows_into(c)
        chosen = [f for f in into if rng.random() < 0.5]
        base.append((c, generate_mask(cat, mask_of(chosen))))
    return generate_topology(cat, base)


def random_presheaf(rng: random.Random, cat: FinCategory, max_size: int = 3) -> FinPresheaf:
    """Random presheaf: a sum of representables, optionally quotiented by a
    restriction-compatible congruence and cut down to a subpresheaf."""
    n = rng.randrange(1, 3)
    summands = [yoneda(cat, rng.randrange(cat.n_objects)) for _ in range(n)]

    sizes = [sum(p.sizes[c] for p in summands) for c in cat.objects]
    offsets = []
    for c in cat.objects:
        offs, total = [], 0
        for p in summands:
            offs.append(total)
            total += p.sizes[c]
        offsets.append(offs)
    restrict = []
    for f in cat.arrows:
        a, b = cat.dom[f], cat.cod[f]
        row = []
        for i, p in enumerate(summands):
            row.extend(offsets[a][i] + p.res(f, x) for x in range(p.sizes[b]))
        restrict.append(tuple(row))
    P = validate_presheaf(cat, tuple(sizes), tuple(restrict))

    if rng.random() < 0.5 and any(s > 1 for s in P.sizes):
        # quotient by a congruence generated by one random identification
        c = rng.choice([c for c in cat.objects if P.sizes[c] > 1])
        x, y = rng.sample(range(P.sizes[c]), 2)
        parent = [list(range(s)) for s in P.sizes]

        def find(c, i):
            while parent[c][i] != i:
                parent[c][i] = parent[c][parent[c][i]]
                i = parent[c][i]
            return i

        def union(c, i, j):
            parent[c][find(c, i)] = find(c, j)

        union(c, x, y)
        changed = True
        while changed:
            changed = False
            for f in cat.arrows:
                a, b = cat.dom[f], cat.cod[f]
                for i in range(P.sizes[b]):
                    j = find(b, i)
                    if j != i and find(a, P.res(f, i)) != find(a, P.res(f, j)):
                        union(a, P.res(f, i), P.res(f, j))
                        changed = True
        labels = []
        new_sizes = []
        for c2 in cat.objects:
            roots = {}
            lab = []
            for i in range(P.sizes[c2]):
                r = find(c2, i)
                if r not in roots:
                    roots[r] = len(roots)
                lab.append(roots[r])
            labels.append(lab)
            new_sizes.append(len(roots))
        new_restrict = []
        for f in cat.arrows:
            a, b = cat.dom[f], cat.cod[f]
            row = [0] * new_sizes[b]
            for i in range(P.sizes[b]):
                row[labels[b][i]] = labels[a][P.res(f, i)]
            new_restrict.append(tuple(row))
        P = validate_presheaf(cat, tuple(new_sizes), tuple(new_restrict))

    if max(P.sizes, default=0) > max_size:
        # too big: fall back to a representable
        P = yoneda(cat, rng.randrange(cat.n_objects))
    return P


def is_restriction_closed(A: SubPresheaf) -> bool:
    """The members of A are closed under the restrictions of its ambient
    presheaf, the law that a `SubPresheaf` holds by construction."""
    P = A.ambient
    cat = P.cat
    return all(P.res(f, x) in A.members[cat.dom[f]]
               for f in cat.arrows for x in A.members[cat.cod[f]])


def all_functors(A: FinCategory, B: FinCategory, limit: int = 4000):
    """Every functor A -> B, by backtracking over arrow assignments."""
    out = []
    for obj_map in itertools.product(B.objects, repeat=A.n_objects):
        arr_choices = []
        feasible = True
        for f in A.arrows:
            hom = B.hom(obj_map[A.dom[f]], obj_map[A.cod[f]])
            if A.is_identity(f):
                hom = (B.identity[obj_map[A.dom[f]]],)
            if not hom:
                feasible = False
                break
            arr_choices.append(hom)
        if not feasible:
            continue
        total = 1
        for ch in arr_choices:
            total *= len(ch)
        if total > limit:
            raise RuntimeError("functor enumeration too large")
        for arr_map in itertools.product(*arr_choices):
            ok = all(
                arr_map[h] == B.compose(arr_map[g], arr_map[f])
                for g, row in enumerate(A.composites)
                for f, h in zip(A.arrows_into(A.dom[g]), row))
            if ok:
                out.append(validate_functor(A, B, obj_map, tuple(arr_map)))
    return out


def random_site_functors(rng: random.Random, n: int) -> list[SiteFunctor]:
    """Random functors between random sites, morphisms of sites or not."""
    out = []
    while len(out) < n:
        src, tgt = random_category(rng), random_category(rng)
        try:
            fs = all_functors(src, tgt)
        except RuntimeError:
            continue
        for F in rng.sample(fs, min(2, len(fs))):
            out.append(SiteFunctor(F, random_topology(rng, src), random_topology(rng, tgt)))
    return out


@pytest.fixture
def two() -> FinCategory:
    return make_two()


RNG_SEED = 20260809


@pytest.fixture
def rng() -> random.Random:
    return random.Random(RNG_SEED)
