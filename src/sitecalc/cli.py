"""Batch interface: parse .site documents, run checkers and constructions,
emit human- or machine-readable reports with witnesses.

Machine output is a JSON-lines stream (one record per line).  Exit codes:
0 pass, 1 property fails, 2 invalid input, 3 resource guard.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .fincat import (CategoryError, FinCategory, FinFunctor, SizeGuardError, validate_category,
                     validate_functor)
from .sieves import generate_mask, mask_of
from .topology import (
    GrothendieckTopology,
    TopologyError,
    atomic_topology,
    coinduced_topology,
    fibration_topology,
    generate_topology,
    induced_topology,
    smallest_comorphism_topology,
    trivial_topology,
)

# `presheaf`, `morphisms` and `constructions` are imported by the code that
# runs them, so a command compiles only the layers it uses; only the type
# annotations read them here
if TYPE_CHECKING:
    from . import morphisms as mor
    from . import presheaf as ps

FORMAT_VERSION = "site-format 1"


class SiteParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class CategoryDecl:
    name: str
    category: FinCategory
    arrow_names: list[str]
    arrow_index: dict[str, int]


@dataclass
class TopologyDecl:
    name: str
    on: str
    topology: GrothendieckTopology
    recipe: list[str]  # the section's "kind: ..." and "sieve: ..." lines


@dataclass
class FunctorDecl:
    name: str
    source: str
    target: str
    functor: FinFunctor


@dataclass
class PresheafDecl:
    name: str
    on: str
    presheaf: ps.FinPresheaf


@dataclass
class SiteDocument:
    categories: dict[str, CategoryDecl] = field(default_factory=dict)
    topologies: dict[str, TopologyDecl] = field(default_factory=dict)
    functors: dict[str, FunctorDecl] = field(default_factory=dict)
    presheaves: dict[str, PresheafDecl] = field(default_factory=dict)

    def topology_for(self, cat_name: str, explicit: str | None, line: int = 0) -> TopologyDecl:
        if explicit is not None:
            if explicit not in self.topologies:
                raise SiteParseError(line, f"unresolved topology name {explicit!r}")
            t = self.topologies[explicit]
            if t.on != cat_name:
                raise SiteParseError(line, f"topology {explicit!r} lives on {t.on}, not {cat_name}")
            return t
        candidates = [t for t in self.topologies.values() if t.on == cat_name]
        if len(candidates) != 1:
            raise SiteParseError(
                line, f"category {cat_name!r} has {len(candidates)} topologies; name one explicitly")
        return candidates[0]


def _split_entries(value: str) -> list[str]:
    return [e.strip() for e in value.replace(";", ",").split(",") if e.strip()]


def parse(text: str) -> SiteDocument:
    """Parse a .site document; first error wins, with its line number."""
    doc = SiteDocument()
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_VERSION:
        raise SiteParseError(1, f"expected header {FORMAT_VERSION!r}")

    section: tuple | None = None
    body: list[tuple[int, str, str]] = []

    def flush():
        nonlocal section, body
        if section is None:
            return
        kind = section[0]
        if kind == "category":
            _finish_category(doc, section, body)
        elif kind == "topology":
            _finish_topology(doc, section, body)
        elif kind == "functor":
            _finish_functor(doc, section, body)
        elif kind == "presheaf":
            _finish_presheaf(doc, section, body)
        section, body = None, []

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head = line.strip()
        if not raw[:1].isspace():
            flush()
            words = head.split()
            if words[0] == "category" and len(words) == 2:
                section = ("category", lineno, words[1])
            elif words[0] == "topology" and len(words) == 4 and words[2] == "on":
                section = ("topology", lineno, words[1], words[3])
            elif words[0] == "functor":
                # shape: functor NAME : SRC -> TGT
                parts = head.removeprefix("functor").replace(":", " ").replace("->", " ").split()
                if len(parts) != 3:
                    raise SiteParseError(lineno, f"bad functor header {head!r}")
                section = ("functor", lineno, parts[0], parts[1], parts[2])
            elif words[0] == "presheaf" and len(words) == 4 and words[2] == "on":
                section = ("presheaf", lineno, words[1], words[3])
            else:
                raise SiteParseError(lineno, f"unknown section header {head!r}")
        else:
            if section is None:
                raise SiteParseError(lineno, "indented entry outside any section")
            if ":" not in head:
                raise SiteParseError(lineno, f"expected 'key: value', got {head!r}")
            key, value = head.split(":", 1)
            body.append((lineno, key.strip(), value.strip()))
    flush()
    return doc


def _finish_category(doc: SiteDocument, section, body):
    _, lineno, name = section
    n_objects = None
    arrow_names: list[str] = []
    arrow_ends: list[tuple[int, int]] = []
    arrow_lines: list[int] = []
    identities: list[str] = []
    composes: list[tuple[int, str]] = []
    for ln, key, value in body:
        if key == "objects":
            try:
                n_objects = int(value)
            except ValueError:
                raise SiteParseError(ln, f"bad object count {value!r}") from None
        elif key == "arrows":
            for entry in _split_entries(value):
                try:
                    arr_name, ends = entry.split(":")
                    a, b = ends.split("->")
                    arrow_names.append(arr_name.strip())
                    arrow_ends.append((int(a), int(b)))
                    arrow_lines.append(ln)
                except ValueError:
                    raise SiteParseError(ln, f"bad arrow entry {entry!r}") from None
        elif key == "identities":
            identities = _split_entries(value)
        elif key == "compose":
            composes.extend((ln, e) for e in _split_entries(value))
        else:
            raise SiteParseError(ln, f"unknown category key {key!r}")
    if n_objects is None:
        raise SiteParseError(lineno, "category needs an 'objects:' entry")
    index = {a: i for i, a in enumerate(arrow_names)}
    if len(index) != len(arrow_names):
        raise SiteParseError(lineno, "duplicate arrow names")
    if len(identities) != n_objects:
        raise SiteParseError(lineno, f"need {n_objects} identities")
    for ident in identities:
        if ident not in index:
            raise SiteParseError(lineno, f"unresolved identity arrow {ident!r}")
    ids = [index[i] for i in identities]
    for f, (a, b) in enumerate(arrow_ends):
        if not (0 <= a < n_objects and 0 <= b < n_objects):
            raise SiteParseError(arrow_lines[f], f"arrow {arrow_names[f]!r} has endpoints "
                                                 f"({a}, {b}) outside [0, {n_objects})")

    composition: dict[tuple[int, int], int] = {}
    for f, (a, b) in enumerate(arrow_ends):
        composition[(f, ids[a])] = f
        composition[(ids[b], f)] = f
    for ln, entry in composes:
        try:
            left, result = entry.split("=")
            g, f = left.split(".")
            g, f, result = g.strip(), f.strip(), result.strip()
            key = (index[g], index[f])
            val = index[result]
        except (ValueError, KeyError):
            raise SiteParseError(ln, f"dangling or malformed composite {entry!r}") from None
        if key in composition and composition[key] != val:
            raise SiteParseError(ln, f"conflicting composite {entry!r}")
        composition[key] = val
    try:
        cat = validate_category(n_objects, arrow_ends, ids, composition)
    except CategoryError as exc:
        raise SiteParseError(lineno, f"invalid category {name!r}: {exc}") from None
    if name in doc.categories:
        raise SiteParseError(lineno, f"duplicate category {name!r}")
    doc.categories[name] = CategoryDecl(name, cat, arrow_names, index)


def _canonical_topology(cat: FinCategory) -> GrothendieckTopology:
    from .presheaf import canonical_topology
    return canonical_topology(cat)


_TOPOLOGY_KINDS = {"trivial": trivial_topology, "atomic": atomic_topology,
                   "canonical": _canonical_topology}


def _finish_topology(doc: SiteDocument, section, body):
    _, lineno, name, on = section
    if on not in doc.categories:
        raise SiteParseError(lineno, f"unresolved category name {on!r}")
    decl = doc.categories[on]
    kind = None
    base: list[tuple[int, int]] = []
    for ln, key, value in body:
        if key == "kind":
            if kind is not None:
                raise SiteParseError(ln, f"topology {name!r} has a second kind")
            kind = value
        elif key == "sieve":
            try:
                obj, arrows = value.split(":")
                mask = mask_of(decl.arrow_index[a] for a in arrows.split())
                obj = int(obj)
            except (ValueError, KeyError):
                raise SiteParseError(ln, f"bad sieve entry {value!r}") from None
            if not 0 <= obj < decl.category.n_objects:
                raise SiteParseError(ln, f"sieve entry {value!r} names no object")
            base.append((obj, mask))
        else:
            raise SiteParseError(ln, f"unknown topology key {key!r}")
    if kind in _TOPOLOGY_KINDS and base:
        raise SiteParseError(lineno, f"topology of kind {kind!r} takes no sieve entries")
    if kind not in _TOPOLOGY_KINDS and kind not in (None, "sieves"):
        raise SiteParseError(lineno, f"unknown topology kind {kind!r}")
    if kind is None and not base:
        raise SiteParseError(lineno, "topology needs a kind or sieve entries")
    try:
        if kind in _TOPOLOGY_KINDS:
            top = _TOPOLOGY_KINDS[kind](decl.category)
        else:
            top = generate_topology(decl.category,
                                    [(c, generate_mask(decl.category, m)) for c, m in base])
    except (TopologyError, ValueError) as exc:
        raise SiteParseError(lineno, f"invalid topology {name!r}: {exc}") from None
    doc.topologies[name] = TopologyDecl(name, on, top, [f"{k}: {v}" for _, k, v in body])


def _finish_functor(doc: SiteDocument, section, body):
    _, lineno, name, src, tgt = section
    for cname in (src, tgt):
        if cname not in doc.categories:
            raise SiteParseError(lineno, f"unresolved category name {cname!r}")
    A, B = doc.categories[src], doc.categories[tgt]
    obj_map = [None] * A.category.n_objects
    arr_map = [None] * A.category.n_arrows
    for ln, key, value in body:
        if key == "objects":
            for entry in _split_entries(value):
                try:
                    a, b = (int(x) for x in entry.split("->"))
                except ValueError:
                    raise SiteParseError(ln, f"bad object entry {entry!r}") from None
                if not (0 <= a < A.category.n_objects and 0 <= b < B.category.n_objects):
                    raise SiteParseError(ln, f"object entry {entry!r} leaves the objects")
                obj_map[a] = b
        elif key == "arrows":
            for entry in _split_entries(value):
                try:
                    a, b = entry.split("->")
                    arr_map[A.arrow_index[a.strip()]] = B.arrow_index[b.strip()]
                except (ValueError, KeyError, IndexError):
                    raise SiteParseError(ln, f"bad arrow entry {entry!r}") from None
        else:
            raise SiteParseError(ln, f"unknown functor key {key!r}")
    if None in obj_map or None in arr_map:
        raise SiteParseError(lineno, f"functor {name!r} is missing assignments")
    try:
        fun = validate_functor(A.category, B.category, obj_map, arr_map)
    except CategoryError as exc:
        raise SiteParseError(lineno, f"invalid functor {name!r}: {exc}") from None
    doc.functors[name] = FunctorDecl(name, src, tgt, fun)


def _finish_presheaf(doc: SiteDocument, section, body):
    from . import presheaf as ps
    _, lineno, name, on = section
    if on not in doc.categories:
        raise SiteParseError(lineno, f"unresolved category name {on!r}")
    decl = doc.categories[on]
    cat = decl.category
    sizes = [None] * cat.n_objects
    maps: dict[int, tuple[int, ...]] = {}
    for ln, key, value in body:
        if key == "sets":
            for entry in _split_entries(value):
                try:
                    obj, n = (int(x) for x in entry.split(":"))
                except ValueError:
                    raise SiteParseError(ln, f"bad set entry {entry!r}") from None
                if not 0 <= obj < cat.n_objects:
                    raise SiteParseError(ln, f"set entry {entry!r} names no object")
                sizes[obj] = n
        elif key.startswith("map "):
            arr = key[4:].strip()
            if arr not in decl.arrow_index:
                raise SiteParseError(ln, f"unresolved arrow name {arr!r}")
            try:
                maps[decl.arrow_index[arr]] = tuple(int(x) for x in value.split())
            except ValueError:
                raise SiteParseError(ln, f"bad map entry {value!r}") from None
        else:
            raise SiteParseError(ln, f"unknown presheaf key {key!r}")
    if None in sizes:
        raise SiteParseError(lineno, f"presheaf {name!r} is missing sizes")
    restrict = []
    for f in cat.arrows:
        if cat.is_identity(f):
            restrict.append(tuple(range(sizes[cat.cod[f]])))
        elif f in maps:
            restrict.append(maps[f])
        else:
            raise SiteParseError(lineno, f"presheaf {name!r} is missing 'map' for arrow {decl.arrow_names[f]}")
    try:
        P = ps.validate_presheaf(cat, sizes, restrict)
    except ValueError as exc:
        raise SiteParseError(lineno, f"invalid presheaf {name!r}: {exc}") from None
    doc.presheaves[name] = PresheafDecl(name, on, P)


def print_document(doc: SiteDocument) -> str:
    """Render a document back to .site text (parse∘print is the identity on
    the semantic content)."""
    out = [FORMAT_VERSION, ""]
    for name, decl in doc.categories.items():
        cat = decl.category
        out.append(f"category {name}")
        out.append(f"  objects: {cat.n_objects}")
        out.append("  arrows: " + ", ".join(
            f"{decl.arrow_names[f]}: {cat.dom[f]} -> {cat.cod[f]}" for f in cat.arrows))
        out.append("  identities: " + ", ".join(
            decl.arrow_names[cat.identity[c]] for c in cat.objects))
        entries = [f"{decl.arrow_names[g]} . {decl.arrow_names[f]} = {decl.arrow_names[h]}"
                   for g, row in enumerate(cat.composites)
                   for f, h in zip(cat.arrows_into(cat.dom[g]), row)
                   if not (cat.is_identity(g) or cat.is_identity(f))]
        if entries:
            out.append("  compose: " + ", ".join(entries))
        out.append("")
    for name, tdecl in doc.topologies.items():
        out.append(f"topology {name} on {tdecl.on}")
        out.extend("  " + line for line in tdecl.recipe)
        out.append("")
    for name, fdecl in doc.functors.items():
        A = doc.categories[fdecl.source]
        B = doc.categories[fdecl.target]
        out.append(f"functor {name} : {fdecl.source} -> {fdecl.target}")
        out.append("  objects: " + ", ".join(
            f"{c} -> {fdecl.functor.on_obj(c)}" for c in A.category.objects))
        out.append("  arrows: " + ", ".join(
            f"{A.arrow_names[f]} -> {B.arrow_names[fdecl.functor.on_arr(f)]}"
            for f in A.category.arrows))
        out.append("")
    for name, pdecl in doc.presheaves.items():
        decl = doc.categories[pdecl.on]
        cat = decl.category
        out.append(f"presheaf {name} on {pdecl.on}")
        out.append("  sets: " + ", ".join(
            f"{c}: {pdecl.presheaf.sizes[c]}" for c in cat.objects))
        for f in cat.arrows:
            if not cat.is_identity(f):
                out.append(f"  map {decl.arrow_names[f]}: "
                           + " ".join(str(x) for x in pdecl.presheaf.restrict[f]))
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# reports

@dataclass
class Report:
    command: str
    entries: list[dict] = field(default_factory=list)
    exit_code: int = 0
    elapsed: float = 0.0

    def add(self, name: str, value, witness=None):
        entry = {"name": name, "value": value}
        if witness is not None:
            entry["witness"] = witness
        self.entries.append(entry)

    def render(self, fmt: str, with_witness: bool) -> str:
        if fmt == "machine":
            lines = []
            for e in self.entries:
                rec = {"record": "result", "name": e["name"],
                       "value": _jsonable(e["value"])}
                if with_witness and "witness" in e:
                    rec["witness"] = _jsonable(e["witness"])
                lines.append(json.dumps(rec, sort_keys=True))
            lines.append(json.dumps({"record": "status", "command": self.command,
                                     "exit": self.exit_code,
                                     "seconds": round(self.elapsed, 6)}))
            return "\n".join(lines)
        lines = [f"== {self.command} =="]
        for e in self.entries:
            val = e["value"]
            if isinstance(val, bool):
                val = "yes" if val else "no"
            lines.append(f"{e['name']}: {val}")
            if with_witness and "witness" in e:
                lines.append(f"  witness: {_jsonable(e['witness'])}")
        lines.append(f"[{self.exit_code == 0 and 'pass' or 'fail'} in {self.elapsed:.3f}s]")
        return "\n".join(lines)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    return str(x)


def _lookup(table: dict, name, what: str):
    if name not in table:
        raise SiteParseError(0, f"unresolved {what} name {name!r}")
    return table[name]


def _operand(args, what: str) -> str:
    """The name that follows a subcommand, as in `topology induced F`."""
    if not args.args:
        raise SiteParseError(0, f"{args.name!r} needs a {what} name")
    return args.args[0]


def _site_functor(doc: SiteDocument, name, args) -> mor.SiteFunctor:
    from .morphisms import SiteFunctor
    fd = _lookup(doc.functors, name, "functor")
    j = doc.topology_for(fd.source, args.source_topology).topology
    k = doc.topology_for(fd.target, args.target_topology).topology
    return SiteFunctor(fd.functor, j, k)


def run(command: str, doc: SiteDocument, args) -> Report:
    """Dispatch a CLI command against a parsed document."""
    report = Report(command)
    start = time.perf_counter()
    try:
        _COMMANDS[command](doc, args, report)
    except (SiteParseError,) as exc:
        report.add("error", str(exc))
        report.exit_code = 2
    except (SizeGuardError,) as exc:
        report.add("resource-guard", str(exc))
        report.exit_code = 3
    except (ValueError, TopologyError, CategoryError) as exc:
        report.add("error", str(exc))
        report.exit_code = 2
    report.elapsed = time.perf_counter() - start
    return report


def _cmd_validate(doc: SiteDocument, args, report: Report):
    for name, decl in doc.categories.items():
        report.add(f"category {name}", True)
    # parsing built each topology with `topology_where`, which validates,
    # or as a trivial topology, which is valid by construction
    for name in doc.topologies:
        report.add(f"topology {name}", True)
    for name in doc.functors:
        report.add(f"functor {name}", True)
    for name in doc.presheaves:
        report.add(f"presheaf {name}", True)


def _cmd_classify(classify):
    """The `classify-morphism` or `classify-comorphism` command: the five
    flags of `classify(morphisms, sf)` with their witnesses."""
    def command(doc, args, report):
        from . import morphisms as mor
        cls = classify(mor, _site_functor(doc, args.name, args))
        for flag, verdict in (("surjection", cls.surjection), ("inclusion", cls.inclusion),
                              ("hyperconnected", cls.hyperconnected), ("localic", cls.localic),
                              ("equivalence", cls.equivalence)):
            report.add(flag, verdict.holds, verdict.witness)
    return command


def _cmd_denseness(doc, args, report):
    from . import morphisms as mor
    sf = _site_functor(doc, args.name, args)
    dense = mor.is_dense_morphism(sf)
    weakly = mor.is_weakly_dense(sf)
    report.add("dense", dense.holds, dense.witness)
    report.add("weakly-dense", weakly.holds, weakly.witness)
    # the equivalence flag of `classify_morphism` is the weak-denseness verdict
    report.add("equivalence", weakly.holds, weakly.witness)


def _cmd_continuity(doc, args, report):
    from . import morphisms as mor
    sf = _site_functor(doc, args.name, args)
    v = mor.is_continuous(sf)
    report.add("continuous", v.holds, v.witness)
    if args.oracle:
        agreement = mor.continuity_oracle(sf) == v.holds
        report.add("oracle-agreement", agreement)
        if not agreement:
            report.exit_code = 1
    if not v.holds:
        report.exit_code = 1


def _cmd_check(name, check):
    """A command reporting the verdict `check(morphisms, sf)` under `name`;
    it exits 1 when the verdict fails."""
    def command(doc, args, report):
        from . import morphisms as mor
        v = check(mor, _site_functor(doc, args.name, args))
        report.add(name, v.holds, v.witness)
        if not v.holds:
            report.exit_code = 1
    return command


def _cmd_sheafify(doc, args, report):
    from . import presheaf as ps
    pd = _lookup(doc.presheaves, args.name, "presheaf")
    j = doc.topology_for(pd.on, args.source_topology).topology
    sh = ps.sheafify(pd.presheaf, j)
    report.add("sizes", list(sh.sheaf.sizes))
    ok, witness = ps.is_sheaf(sh.sheaf, j)
    report.add("is-sheaf", ok, witness)
    report.add("unit-bicovering", ps.is_bicovering(sh.unit, j))
    if args.oracle:
        pp, eta = ps.sheafify_plus_plus(pd.presheaf, j)
        try:
            comparison = ps.sheaf_comparison(pd.presheaf, j, pp, eta, sh.sheaf, sh.unit)
            agree = comparison.is_bijective()
        except ValueError:
            agree = False
        report.add("oracle-agreement", agree)
        if not agree:
            report.exit_code = 1
    if not ok:
        report.exit_code = 1


def _cmd_topology(doc, args, report):
    sub = args.name
    if sub == "canonical":
        decl = _lookup(doc.categories, _operand(args, "category"), "category")
        top = _canonical_topology(decl.category)
    elif sub == "generate":
        # parsing generated the declared topology already
        top = _lookup(doc.topologies, _operand(args, "topology"), "topology").topology
    elif sub in ("induced", "coinduced", "smallest-comorphism", "fibration"):
        fd = _lookup(doc.functors, _operand(args, "functor"), "functor")
        if sub == "induced":
            k = doc.topology_for(fd.target, args.target_topology).topology
            top = induced_topology(fd.functor, k)
        elif sub == "coinduced":
            j = doc.topology_for(fd.source, args.source_topology).topology
            top = coinduced_topology(fd.functor, j)
        elif sub == "smallest-comorphism":
            k = doc.topology_for(fd.target, args.target_topology).topology
            top = smallest_comorphism_topology(fd.functor, k)
        else:
            k = doc.topology_for(fd.target, args.target_topology).topology
            top = fibration_topology(fd.functor, k)
            if args.oracle:
                other = smallest_comorphism_topology(fd.functor, k)
                agree = other == top
                report.add("oracle-agreement", agree)
                if not agree:
                    report.exit_code = 1
    else:
        raise SiteParseError(0, f"unknown topology construction {sub!r}")
    for c in top.cat.objects:
        report.add(f"covers({c})", sorted(top.covers[c]))


def _cmd_factorize(doc, args, report):
    from . import morphisms as mor
    sub = args.name
    if sub not in ("surj-incl", "hyper-localic", "comprehensive"):
        raise SiteParseError(0, f"unknown factorization {sub!r}")
    sf = _site_functor(doc, _operand(args, "functor"), args)
    if sub == "surj-incl":
        fact = mor.surjection_inclusion_factorization(sf)
        report.add("induced-topology",
                   [sorted(fact.induced.covers[c]) for c in sf.functor.source.objects])
        reflecting = mor.is_cover_reflecting(fact.surjection_leg).holds
        report.add("surjection-leg-cover-reflecting", reflecting)
        incl = mor.classify_morphism(fact.inclusion_leg)
        report.add("inclusion-leg-inclusion", incl.inclusion.holds)
        if not (reflecting and incl.inclusion.holds):
            report.exit_code = 1
    elif sub == "hyper-localic":
        fact = mor.hyperconnected_localic_factorization(sf)
        hyper = mor.classify_morphism(fact.hyperconnected_leg)
        loc = mor.classify_morphism(fact.localic_leg)
        report.add("hyperconnected-leg", hyper.hyperconnected.holds)
        report.add("localic-leg", loc.localic.holds)
        if not (hyper.hyperconnected.holds and loc.localic.holds):
            report.exit_code = 1
    else:
        fact = mor.comprehensive_factorization(sf.functor, sf.K)
        report.add("sheaf-sizes", list(fact.sheaf.sizes))
        report.add("lift-cofinal", fact.cofinality.holds, fact.cofinality.witness)
        recomposed = fact.lift.then(fact.projection)
        report.add("recomposes", recomposed.obj_map == sf.functor.obj_map
                   and recomposed.arr_map == sf.functor.arr_map)
        if not fact.cofinality.holds:
            report.exit_code = 1


def _cmd_comma(doc, args, report):
    from . import constructions as cons
    sub = args.name
    construct = {"m2c": cons.morphism_to_comorphism,
                 "c2m": cons.comorphism_to_morphism_comma,
                 "gen-elements": cons.generalized_elements_fibration}.get(sub)
    if construct is None:
        raise SiteParseError(0, f"unknown comma construction {sub!r}")
    sf = _site_functor(doc, _operand(args, "functor"), args)
    site = construct(sf)
    report.add("objects", len(site.comma.objects))
    for key, value in site.certificates.items():
        report.add(key, value)
    if sub == "gen-elements":
        for key, value in cons.generalized_elements_identities(sf, site).items():
            report.add(key, value)
    if not all(site.certificates.values()):
        report.exit_code = 1


# the classifiers and checkers are looked up in `morphisms` when a command
# runs, so that a function rebound there after import, such as a tracing
# wrapper, is called
_COMMANDS = {
    "validate": _cmd_validate,
    "classify-morphism": _cmd_classify(lambda mor, sf: mor.classify_morphism(sf)),
    "classify-comorphism": _cmd_classify(lambda mor, sf: mor.classify_comorphism(sf)),
    "denseness": _cmd_denseness,
    "continuity": _cmd_continuity,
    "cofinal": _cmd_check("cofinal", lambda mor, sf: mor.is_J_cofinal(sf.F, sf.K)),
    "locally-connected": _cmd_check("locally-connected",
                                    lambda mor, sf: mor.is_locally_connected_general(sf)),
    "sheafify": _cmd_sheafify,
    "topology": _cmd_topology,
    "factorize": _cmd_factorize,
    "comma": _cmd_comma,
}


# built once; each `parse_args` call fills a fresh namespace from the defaults
_PARSER = argparse.ArgumentParser(
    prog="sitecalc",
    description="Finite-site computations: checkers, constructions, factorizations.")
_PARSER.add_argument("document", help="path to a .site document")
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("name", nargs="?", default=None,
                     help="functor/presheaf name, or subcommand for topology/factorize/comma")
_PARSER.add_argument("args", nargs="*", help="extra arguments for the subcommand")
_PARSER.add_argument("-J", "--source-topology", default=None)
_PARSER.add_argument("-K", "--target-topology", default=None)
_PARSER.add_argument("--oracle", action="store_true",
                     help="also run the independent construction and compare")
_PARSER.add_argument("--witness", action="store_true", help="emit witnesses")
_PARSER.add_argument("--format", choices=["human", "machine"], default="human")


def main(argv=None) -> int:
    ns = _PARSER.parse_args(argv)

    start = time.perf_counter()
    try:
        with open(ns.document, encoding="utf-8") as fh:
            doc = parse(fh.read())
    except OSError as exc:
        print(f"cannot read document: {exc}", file=sys.stderr)
        return 2
    except SiteParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        report = Report(ns.command, exit_code=3, elapsed=time.perf_counter() - start)
        report.add("resource-guard", str(exc))
        print(report.render(ns.format, ns.witness))
        return report.exit_code

    report = run(ns.command, doc, ns)
    print(report.render(ns.format, ns.witness))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
