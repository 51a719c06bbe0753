"""Seeded `.site` documents whose verdicts are known from theory.

Every document is built from an abstract category (objects, arrows with
endpoints, composition of non-identity pairs) and then relabelled: objects,
arrow order and arrow names are permuted by the caller's random generator.
A `Relabeller` remembers the category values it has produced and redraws
on a repeat, so no two documents of one run give sitecalc an equal
category value.  A CLI user pays every fill of a value-keyed cache in each
fresh process; an in-process loop over distinct values pays them too.

Known answers (none is computed by sitecalc):

* An isomorphism of sites F: (C, J) -> (C', J') classifies with all five
  flags true, as a morphism and as a comorphism; it is dense and weakly
  dense and induces an equivalence; every `comma m2c` certificate holds.
* On the vee with k legs l_i: b_i -> t and the topology generated by the
  sieve of j legs on t, the top object has 2^(k-j) + 1 covering sieves
  (the maximal sieve and every set of legs containing the j), a bottom
  object in the base has 1 and every other bottom has 2 (the empty sieve
  covers it, being the pullback of the base sieve).
* On the vee covered by the sieve of all k legs, the presheaf with m
  elements over each bottom and 1 over the top sheafifies to sizes m over
  each bottom and m^k over the top (one amalgamation per family of leg
  values); both constructions agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    """An abstract finite category: arrow i runs ends[i][0] -> ends[i][1];
    `identities[c]` is the identity arrow of object c; `compose` holds
    (g, f) -> g∘f for the composable pairs with no identity in them."""
    n_objects: int
    ends: tuple[tuple[int, int], ...]
    identities: tuple[int, ...]
    compose: tuple[tuple[int, int, int], ...]

    @property
    def n_arrows(self) -> int:
        return len(self.ends)


def chain(n: int) -> Shape:
    """The poset 0 < 1 < ... < n-1: n(n+1)/2 arrows."""
    return product_with_indiscrete(n, 1)


def product_with_indiscrete(n: int, width: int) -> Shape:
    """The n-chain times the indiscrete category on `width` objects: object
    (i, x) is i*width + x; one arrow (i, x) -> (j, y) for each i <= j."""
    ends, index = [], {}
    for i in range(n):
        for j in range(i, n):
            for x in range(width):
                for y in range(width):
                    index[(i, x, j, y)] = len(ends)
                    ends.append((i * width + x, j * width + y))
    identities = tuple(index[(i, x, i, x)] for i in range(n) for x in range(width))
    ids = set(identities)
    compose = []
    for (i, x, j, y), f in index.items():
        for (j2, y2, k, z), g in index.items():
            if (j2, y2) == (j, y) and f not in ids and g not in ids:
                compose.append((g, f, index[(i, x, k, z)]))
    return Shape(n * width, tuple(ends), identities, tuple(compose))


def vee(k: int) -> Shape:
    """Bottoms 0..k-1 and top k; leg i is arrow k + 1 + i: i -> k."""
    ends = [(c, c) for c in range(k + 1)] + [(i, k) for i in range(k)]
    return Shape(k + 1, tuple(ends), tuple(range(k + 1)), ())


def vee_leg(k: int, i: int) -> int:
    return k + 1 + i


@dataclass(frozen=True)
class Labelled:
    """A relabelled shape: `obj[c]` and `arr[f]` give the new object number
    and arrow position of abstract object c and arrow f."""
    shape: Shape
    obj: tuple[int, ...]
    arr: tuple[int, ...]
    names: tuple[str, ...]  # indexed by abstract arrow

    def text(self, name: str) -> str:
        s = self.shape
        order = sorted(range(s.n_arrows), key=self.arr.__getitem__)
        out = [f"category {name}", f"  objects: {s.n_objects}",
               "  arrows: " + ", ".join(
                   f"{self.names[f]}: {self.obj[s.ends[f][0]]} -> {self.obj[s.ends[f][1]]}"
                   for f in order)]
        ident = sorted(s.identities, key=lambda f: self.obj[s.ends[f][0]])
        out.append("  identities: " + ", ".join(self.names[f] for f in ident))
        if s.compose:
            out.append("  compose: " + ", ".join(
                f"{self.names[g]} . {self.names[f]} = {self.names[h]}"
                for g, f, h in s.compose))
        return "\n".join(out)


class Relabeller:
    """Seeded relabelling that never repeats a category value in a run."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set = set()
        self.serial = 0

    def __call__(self, shape: Shape) -> Labelled:
        rng = self.rng
        for _ in range(1000):
            obj = list(range(shape.n_objects))
            arr = list(range(shape.n_arrows))
            rng.shuffle(obj)
            rng.shuffle(arr)
            key = self._value_key(shape, obj, arr)
            if key not in self.seen:
                self.seen.add(key)
                break
        else:
            raise RuntimeError(f"no unused relabelling of a {shape.n_arrows}-arrow shape")
        self.serial += 1
        tag = f"{self.serial:x}"
        names = tuple(f"a{tag}_{arr[f]}" for f in range(shape.n_arrows))
        return Labelled(shape, tuple(obj), tuple(arr), names)

    @staticmethod
    def _value_key(shape: Shape, obj, arr):
        """What sitecalc's category value depends on: endpoints and
        identities by new arrow position, and the composition table."""
        ends = [None] * shape.n_arrows
        for f, (a, b) in enumerate(shape.ends):
            ends[arr[f]] = (obj[a], obj[b])
        ident = [None] * shape.n_objects
        for f in shape.identities:
            ident[obj[shape.ends[f][0]]] = arr[f]
        comp = frozenset((arr[g], arr[f], arr[h]) for g, f, h in shape.compose)
        return shape, tuple(ends), tuple(ident), comp


# ---------------------------------------------------------------------------
# documents

HEADER = "site-format 1\n"


def iso_document(relabel: Relabeller, shape: Shape, kind: str) -> str:
    """Two relabelled copies of `shape`, each with the `kind` topology
    (trivial or atomic), and the isomorphism F between them."""
    src, tgt = relabel(shape), relabel(shape)
    functor = [
        "functor F : C -> D",
        "  objects: " + ", ".join(
            f"{src.obj[c]} -> {tgt.obj[c]}" for c in range(shape.n_objects)),
        "  arrows: " + ", ".join(
            f"{src.names[f]} -> {tgt.names[f]}" for f in range(shape.n_arrows)),
    ]
    return "\n\n".join([
        HEADER, src.text("C"), tgt.text("D"),
        f"topology J on C\n  kind: {kind}", f"topology K on D\n  kind: {kind}",
        "\n".join(functor)]) + "\n"


@dataclass(frozen=True)
class VeeTopologyCase:
    text: str
    expected_counts: tuple[int, ...]  # covering sieves per (relabelled) object


def vee_topology_document(relabel: Relabeller, k: int, j: int) -> VeeTopologyCase:
    """The vee with k legs and the topology J generated by j seeded legs."""
    shape = vee(k)
    lab = relabel(shape)
    base = relabel.rng.sample(range(k), j)
    legs = " ".join(lab.names[vee_leg(k, i)] for i in base)
    counts = [0] * (k + 1)
    for i in range(k):
        counts[lab.obj[i]] = 1 if i in base else 2
    counts[lab.obj[k]] = 2 ** (k - j) + 1
    text = "\n\n".join([HEADER, lab.text("V"),
                        f"topology J on V\n  sieve: {lab.obj[k]} : {legs}"]) + "\n"
    return VeeTopologyCase(text, tuple(counts))


@dataclass(frozen=True)
class VeeSheafCase:
    text: str
    expected_sizes: tuple[int, ...]  # sheaf sizes per (relabelled) object


def vee_sheaf_document(relabel: Relabeller, k: int, m: int) -> VeeSheafCase:
    """The vee covered by the sieve of its k legs, and the presheaf P with
    m elements over each bottom and one over the top; each leg restricts
    the top element to a seeded element."""
    shape = vee(k)
    lab = relabel(shape)
    rng = relabel.rng
    legs = " ".join(lab.names[vee_leg(k, i)] for i in range(k))
    sizes = [0] * (k + 1)
    for i in range(k):
        sizes[lab.obj[i]] = m
    sizes[lab.obj[k]] = 1
    presheaf = ["presheaf P on V",
                "  sets: " + ", ".join(f"{c}: {n}" for c, n in enumerate(sizes))]
    presheaf += [f"  map {lab.names[vee_leg(k, i)]}: {rng.randrange(m)}" for i in range(k)]
    expected = list(sizes)
    expected[lab.obj[k]] = m ** k
    text = "\n\n".join([HEADER, lab.text("V"),
                        f"topology J on V\n  sieve: {lab.obj[k]} : {legs}",
                        "\n".join(presheaf)]) + "\n"
    return VeeSheafCase(text, tuple(expected))
