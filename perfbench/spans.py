"""Span tracing of sitecalc's public functions, installed from outside.

`Tracer.install` wraps every public function of the seven sitecalc modules
(plus the few methods named in `METHODS`) and rebinds the wrapper in every
sitecalc module namespace that binds the original, because `morphisms`,
`topology`, `cli` and the others import names directly.  Nothing in `src/`
changes.

Each call records one span in flat typed arrays: name, start, end (ns),
parent span and op id, plus one integer `aux` taken from the call's
arguments or return value (sieves enumerated, covering sieves generated,
matching families, or an interned yoneda input).  `derive` turns the arrays into
the per-layer metrics after the run; `write` saves them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

MODULES = ("cli", "fincat", "sieves", "topology", "presheaf", "morphisms", "constructions")

# Mask helpers called millions of times per op inside the search loops.  A
# span each would cost more than the work it times, so their time counts as
# the caller's self time.
LEAVES = frozenset({
    "sieves.bits", "sieves.mask_of", "sieves.maximal_sieve_mask", "sieves.generate_mask",
    "sieves.is_sieve_mask", "sieves.pullback_mask", "sieves.multicompose_mask",
    "sieves.preimage_mask", "presheaf.yoneda_element", "presheaf.pair_elem",
    "presheaf.unpair_elem",
})

# (module, class, attribute, span name)
METHODS = (
    ("cli", "Report", "render", "cli.render"),
    ("presheaf", "FinPresheaf", "__init__", "presheaf.FinPresheaf"),
    ("topology", "GrothendieckTopology", "covers_family", "topology.covers_family"),
)

NO_PARENT = -1


def _count_result(args, kwargs, result):
    return len(result)


def _count_covers(args, kwargs, result):
    return sum(len(c) for c in result.covers)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.aux = array("q")
        self.stack = [NO_PARENT]
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []
        # yoneda inputs are interned by category value, so the distinct
        # count is what a value-keyed memo could reuse
        self._category_sig: dict[int, tuple[object, int]] = {}
        self._sig_ids: dict[tuple, int] = {}
        self._aux = {
            "sieves.all_sieve_masks": _count_result,
            "presheaf.strict_matching_families": _count_result,
            "topology.generate_topology": _count_covers,
            "presheaf.yoneda": self._yoneda_key,
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"sitecalc.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for m, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if home not in mods or fn.__name__.startswith("_"):
                    continue
                name = f"{home}.{fn.__name__}"
                if name in LEAVES or inspect.isgeneratorfunction(fn):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn)
                self._rebind(mod, attr, wrapped[id(fn)])
        for m, cls, attr, name in METHODS:
            klass = getattr(mods[m], cls)
            self._rebind(klass, attr, self._wrap(name, getattr(klass, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        aux_of = self._aux.get(name)
        span_name, start, end, parent, op, aux = (
            self.span_name, self.start, self.end, self.parent, self.op, self.aux)
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            aux.append(0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if aux_of is not None:
                try:
                    aux[i] = aux_of(args, kwargs, result)
                except (AttributeError, TypeError):
                    pass  # a changed sitecalc API leaves the count at 0, not the run broken
            return result

        return traced

    def _yoneda_key(self, args, kwargs, result) -> int:
        cat, c = args
        entry = self._category_sig.get(id(cat))
        if entry is None or entry[0] is not cat:
            sig = (cat.n_objects, cat.dom, cat.cod, cat.identity,
                   frozenset(cat.comp.items()))
            entry = (cat, self._sig_ids.setdefault(sig, len(self._sig_ids)))
            self._category_sig[id(cat)] = entry
        return entry[1] * 1_000_003 + c

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        # categories of one op are garbage afterwards; let their ids go
        self._category_sig.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Gzipped TSV: name, start_ns, end_ns, parent span, op id, aux."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\taux\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                         f"{self.parent[i]}\t{self.op[i]}\t{self.aux[i]}\n")

    def derive(self, scales: list[float]) -> dict[str, float]:
        """Per-op aggregates by span name, from the recorded spans; op i's
        times are multiplied by `scales[i]` (see `refclock`)."""
        n_ops = len(scales)
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p != NO_PARENT:
                child[p] += dur[i]
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        aux: dict[str, int] = {}
        for i in range(n):
            name = names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (dur[i] - child[i]) * scales[self.op[i]]
            aux[name] = aux.get(name, 0) + self.aux[i]

        def nearest(i: int, target: int) -> int:
            p = self.parent[i]
            while p != NO_PARENT and self.span_name[p] != target:
                p = self.parent[p]
            return p

        out: dict[str, float] = {}
        for name in names:
            out[f"{name}.calls"] = calls.get(name, 0) / n_ops
            out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6 / n_ops
        root = self.name_id.get("cli.main")
        total = sum(dur[i] * scales[self.op[i]] for i in range(n) if self.span_name[i] == root)
        for m in MODULES:
            share = sum(v for k, v in self_ns.items() if k.partition(".")[0] == m)
            out[f"{m}.self_share"] = share / total if total else 0.0
        out["sieves.all_sieve_masks.sieves"] = aux.get("sieves.all_sieve_masks", 0) / n_ops
        out["presheaf.strict_matching_families.families"] = (
            aux.get("presheaf.strict_matching_families", 0) / n_ops)
        out["topology.generate_topology.covers_out"] = (
            aux.get("topology.generate_topology", 0) / n_ops)

        gen_id = self.name_id.get("topology.generate_topology")
        masks_id = self.name_id.get("sieves.all_sieve_masks")
        under_gen = sum(self.aux[i] for i in range(n)
                        if self.span_name[i] == masks_id and nearest(i, gen_id) != NO_PARENT)
        out["topology.generate_topology.cover_yield"] = (
            aux.get("topology.generate_topology", 0) / under_gen if under_gen else 0.0)

        y = self.name_id.get("presheaf.yoneda")
        keys = {(self.op[i], self.aux[i]) for i in range(n) if self.span_name[i] == y}
        out["presheaf.yoneda.distinct_ratio"] = (
            len(keys) / calls["presheaf.yoneda"] if calls.get("presheaf.yoneda") else 0.0)

        cls = self.name_id.get("morphisms.classify_morphism")
        n_cls = calls.get("morphisms.classify_morphism", 0)
        for callee in ("morphisms.is_morphism_of_sites", "morphisms.is_weakly_dense"):
            cid = self.name_id.get(callee)
            inside = sum(1 for i in range(n)
                         if self.span_name[i] == cid and nearest(i, cls) != NO_PARENT)
            out[f"{callee}.calls_per_classify"] = inside / n_cls if n_cls else 0.0
        return out
