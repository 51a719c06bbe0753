"""The three workloads: op mixes, size ladders and the known answers.

An op is one `sitecalc` CLI invocation on a generated document.  `check`
receives the exit code and the machine-format results (name -> value) and
says whether the verdict is the family's known answer (see `gen`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

import gen

CLASSIFY_FLAGS = ("surjection", "inclusion", "hyperconnected", "localic", "equivalence")
M2C_CERTIFICATES = (
    "pi_C_comorphism", "i_F_morphism", "pi_D_morphism", "pi_D_comorphism", "pi_D_full",
    "pi_D_dense", "pi_D_cover_reflecting", "pi_D_equivalence", "adjunction", "composite_is_F")


@dataclass(frozen=True)
class Op:
    label: str  # the op's class within the mix, e.g. "classify-morphism chain5 atomic"
    text: str
    argv: tuple[str, ...]
    check: Callable[[int, dict], bool]


def _all_true(names: tuple[str, ...], extra: dict | None = None):
    def check(code: int, results: dict) -> bool:
        expected = set(names) | set(extra or ())
        if code != 0 or set(results) != expected:
            return False
        return all(results[n] is True for n in names) and all(
            test(results[n]) for n, test in (extra or {}).items())
    return check


ISO_COMMANDS = {
    "classify-morphism": (("classify-morphism", "F"), _all_true(CLASSIFY_FLAGS)),
    "denseness": (("denseness", "F"),
                  _all_true(("dense", "weakly-dense", "equivalence"))),
    "classify-comorphism": (("classify-comorphism", "F"), _all_true(CLASSIFY_FLAGS)),
    "comma-m2c": (("comma", "m2c", "F"),
                  _all_true(M2C_CERTIFICATES, {"objects": lambda v: isinstance(v, int) and v > 0})),
}


def iso_op(relabel: gen.Relabeller, command: str, shape_name: str, shape: gen.Shape,
           kind: str) -> Op:
    argv, check = ISO_COMMANDS[command]
    return Op(f"{command} {shape_name} {kind}", gen.iso_document(relabel, shape, kind),
              argv, check)


def topology_op(relabel: gen.Relabeller, k: int, j: int) -> Op:
    case = gen.vee_topology_document(relabel, k, j)
    names = tuple(f"covers({c})" for c in range(k + 1))

    def check(code: int, results: dict) -> bool:
        return (code == 0 and set(results) == set(names)
                and tuple(len(results[n]) for n in names) == case.expected_counts)
    return Op(f"topology-generate vee{k} j{j}", case.text, ("topology", "generate", "J"), check)


def sheafify_op(relabel: gen.Relabeller, k: int, m: int) -> Op:
    case = gen.vee_sheaf_document(relabel, k, m)
    flags = ("is-sheaf", "unit-bicovering", "oracle-agreement")

    def check(code: int, results: dict) -> bool:
        return (code == 0 and set(results) == {"sizes", *flags}
                and tuple(results["sizes"]) == case.expected_sizes
                and all(results[n] is True for n in flags))
    return Op(f"sheafify-oracle vee{k} m{m}", case.text, ("sheafify", "P", "--oracle"), check)


@dataclass(frozen=True)
class Ladder:
    """Sizes tried in order; a rung counts when its single op finishes
    within `budget_s` of CPU time.  `arrows(size)` is the rung's size as
    the arrow count of its category."""
    sizes: tuple[int, ...]
    budget_s: float
    make: Callable[[gen.Relabeller, int], Op]
    arrows: Callable[[int], int]


@dataclass(frozen=True)
class Workload:
    name: str
    # One cycle of the mix: op factories, shuffled per cycle.  Cycles run
    # whole and hold 5 or 15 op classes, so the median and the 90th
    # percentile fall mid-class, not on the edge between two classes.
    cycle: tuple[Callable[[gen.Relabeller], Op], ...]
    ladder: Ladder

    def ops(self, rng: random.Random, relabel: gen.Relabeller) -> Iterator[tuple[int, Op]]:
        """Endless stream of (cycle number, op); each cycle runs every
        factory once, in a seeded order."""
        cycle = 0
        while True:
            order = list(self.cycle)
            rng.shuffle(order)
            for make in order:
                yield cycle, make(relabel)
            cycle += 1


def _classify_cycle():
    chain4, chain5, square = gen.chain(4), gen.chain(5), gen.product_with_indiscrete(2, 2)
    sites = (("chain4", chain4, "trivial"), ("chain4", chain4, "atomic"),
             ("chain5", chain5, "trivial"), ("chain2x2", square, "atomic"))
    commands = [(c, site) for c in ("classify-morphism", "denseness", "classify-comorphism")
                for site in sites]
    commands += [("comma-m2c", site) for site in sites[:3]]
    return tuple((lambda r, c=c, n=n, s=s, k=k: iso_op(r, c, n, s, k))
                 for c, (n, s, k) in commands)


def _chain_arrows(n: int) -> int:
    return n * (n + 1) // 2


def _vee_arrows(k: int) -> int:
    return 2 * k + 1


# Each ladder step costs 3.5x or more, and each budget sits near the geometric
# middle between the slowest CPU time seen for the last rung that passes and
# the fastest seen for the next one (README, "Ladders and the ROADMAP cliffs").
WORKLOADS = {
    "classify": Workload(
        "classify", _classify_cycle(),
        Ladder(sizes=(6, 9, 12, 16, 21, 28, 37, 49, 65), budget_s=4.9,
               make=lambda r, n: iso_op(r, "classify-morphism", f"chain{n}", gen.chain(n),
                                        "trivial"),
               arrows=_chain_arrows)),
    "topology-generate": Workload(
        "topology-generate",
        tuple((lambda r, k=k, j=j: topology_op(r, k, j))
              for k, j in ((6, 2), (6, 1), (7, 3), (7, 2), (7, 1))),
        Ladder(sizes=tuple(range(9, 42, 2)), budget_s=24.0,
               make=lambda r, k: topology_op(r, k, 2), arrows=_vee_arrows)),
    "sheafify-oracle": Workload(
        "sheafify-oracle",
        tuple((lambda r, k=k, m=m: sheafify_op(r, k, m))
              for k, m in ((4, 2), (5, 2), (6, 2), (7, 2), (4, 3))),
        Ladder(sizes=tuple(range(6, 25)), budget_s=2.2,
               make=lambda r, k: sheafify_op(r, k, 2), arrows=_vee_arrows)),
}
