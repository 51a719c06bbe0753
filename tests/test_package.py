"""The package surface: every exported name imports, every top-level
definition in `src/sitecalc` is used there, exported, or a library entry
point listed with its reason, and each command loads only the modules it
runs."""

import ast
import collections
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import sitecalc

from test_cli import FIXTURE, chain_site, vee_site

SRC = pathlib.Path(sitecalc.__file__).parent

# Top-level definitions that nothing in src/ references and `sitecalc`
# does not export, kept as library entry points.
LIBRARY_ONLY = {
    "cli.print_document": "the inverse of `parse`: a document back as .site text",
    "fincat.terminal_category": "category constructor",
    "fincat.poset_category": "category constructor",
    "fincat.monoid_category": "category constructor",
    "fincat.is_colimit_cocone": "decides colimit cocones in a finite category",
    "morphisms.cocone_is_sheaf_colimit": "paper criterion: a cocone sent to a colimit of sheaves",
    "factorizations.comorphism_factorizations": "paper construction: the factorizations of a "
                                                "cover-preserving comorphism",
    "factorizations.is_locally_connected_presheaf": "the presheaf-topos case of local "
                                                    "connectedness",
    "factorizations.is_terminally_connected": "paper criterion: terminal connectedness",
    "replay.recheck_witness": "replays a witness against the definitions",
    "presheaf.constant_presheaf": "presheaf constructor",
    "presheaf.identity_morphism": "presheaf-morphism constructor",
    "presheaf.is_subcanonical": "paper criterion: every representable is a sheaf",
    "factorizations.build_CJ": "the paper's category C_J",
    "sieves.iso_closure": "paper presieve closure: under isomorphisms",
    "sieves.vertical_closure": "paper presieve closure: under vertical arrows of a fibration",
    "sieves.cartesian_part": "paper presieve closure: cartesian parts along a fibration",
    "__init__.__getattr__": "PEP 562 hook: resolves an export when it is first read",
    "__init__.__dir__": "PEP 562 hook: lists the exports before they are resolved",
}


def test_every_exported_name_imports():
    namespace = {}
    exec("from sitecalc import *", namespace)  # a listed name that is missing raises
    assert set(sitecalc.__all__) <= set(namespace)
    for name in sitecalc.__all__:
        home = importlib.import_module(namespace[name].__module__)
        assert getattr(home, name) is namespace[name] is getattr(sitecalc, name)


def test_dir_lists_the_exports_and_unknown_names_raise():
    assert set(sitecalc.__all__) <= set(dir(sitecalc))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        sitecalc.nope


BASE = {"sitecalc", "sitecalc.cli", "sitecalc.fincat", "sitecalc.sieves", "sitecalc.topology"}
PRESHEAF_FREE = vee_site(3, 2).partition("presheaf P")[0]
# the identity of the 3-chain with its trivial topology passes every functor command
CHAIN = chain_site(3)
FUNCTOR = {"presheaf", "morphisms"}


def _modules_after(statements: str) -> set[str]:
    """The `sitecalc` modules that a fresh interpreter holds after running
    `statements`, which must exit 0."""
    script = statements + (
        "\nimport sys"
        "\nprint(*(m for m in sys.modules if m.partition('.')[0] == 'sitecalc'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    return set(out.stdout.split())


def _main(path: pathlib.Path, *argv: str) -> str:
    return ("import contextlib, io\n"
            "from sitecalc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main([{str(path)!r}, *{argv!r}])\n"
            "if code:\n"
            "    raise SystemExit(code)")


@pytest.mark.parametrize("statements, loaded", [
    ("import sitecalc", {"sitecalc"}),
    ("import sitecalc.cli", BASE),
], ids=["sitecalc", "sitecalc.cli"])
def test_imports_load_no_layer(statements, loaded):
    """`sitecalc` loads no module, and `sitecalc.cli` only what parsing
    needs, each in a fresh interpreter; so a module-level import that pulls
    a layer back in fails here."""
    assert _modules_after(statements) == loaded


@pytest.mark.parametrize("text, argv, extra", [
    pytest.param(text, argv, extra, id=" ".join(argv)) for text, argv, extra in [
        (PRESHEAF_FREE, ("validate",), set()),
        (PRESHEAF_FREE, ("topology", "generate", "J"), set()),
        (FIXTURE.read_text(), ("sheafify", "P", "--oracle"), {"presheaf"}),
        (FIXTURE.read_text(), ("classify-morphism", "F"), FUNCTOR),
        (CHAIN, ("classify-comorphism", "Id"), FUNCTOR),
        (CHAIN, ("denseness", "Id"), FUNCTOR),
        (CHAIN, ("continuity", "Id"), FUNCTOR),
        (CHAIN, ("cofinal", "Id"), FUNCTOR),
        (CHAIN, ("locally-connected", "Id"), FUNCTOR | {"factorizations"}),
        (CHAIN, ("factorize", "surj-incl", "Id"), FUNCTOR | {"factorizations"}),
        (CHAIN, ("factorize", "hyper-localic", "Id"), FUNCTOR | {"factorizations"}),
        (CHAIN, ("factorize", "comprehensive", "Id"), FUNCTOR | {"factorizations"}),
        (FIXTURE.read_text(), ("comma", "m2c", "F"), FUNCTOR | {"constructions"}),
    ]])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, text, argv, extra):
    """A command adds to the parser's modules only the layers it runs:
    `validate` and `topology generate` on a document without presheaves
    none, `sheafify` `presheaf`, the functor commands `morphisms`, the
    factorizations and local connectedness `factorizations` too, and
    `comma` `constructions`.  No command loads `replay`, and a module-level
    import that pulls `factorizations` or `replay` into `morphisms` or
    `presheaf` fails here."""
    path = tmp_path / "doc.site"
    path.write_text(text)
    assert _modules_after(_main(path, *argv)) == BASE | {f"sitecalc.{m}" for m in extra}


def _names_read(tree: ast.AST) -> collections.Counter:
    """How often each name or attribute is read in `tree`."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _unreferenced_definitions() -> set[str]:
    """`module.name` of each top-level function or class of src/sitecalc
    that no code there references, apart from its own definition."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    reads = sum((_names_read(tree) for tree in trees.values()), collections.Counter())
    return {f"{module}.{node.name}"
            for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and reads[node.name] == _names_read(node)[node.name]}


def test_every_definition_is_used_exported_or_listed():
    unused = {name for name in _unreferenced_definitions()
              if name.partition(".")[2] not in sitecalc.__all__}
    assert sorted(unused - set(LIBRARY_ONLY)) == []
    # an entry that src/ starts to use, or that is deleted, leaves the list
    assert sorted(set(LIBRARY_ONLY) - unused) == []


# containers that a `cached_property` returning them empty would fill later
_MUTABLE = {"dict", "list", "set", "bytearray", "defaultdict", "Counter", "OrderedDict", "deque"}


def _is_empty_mutable(node: ast.expr | None) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Call) and not node.keywords:
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
        return name in _MUTABLE and len(node.args) <= (name == "defaultdict")
    return False


def _is_cached_property(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        (d.id if isinstance(d, ast.Name) else getattr(d, "attr", "")) == "cached_property"
        for d in node.decorator_list)


def _hand_written_memos(trees: dict[str, ast.Module]) -> list[str]:
    """`module:line` of each hand-written keyed memo: a read or write of an
    instance `__dict__`, or a `vars` call, outside `fincat._memo`; a
    `cached_property` that returns an empty mutable container; and an
    attribute set to one."""
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            if module == "fincat" and getattr(top, "name", None) == "_memo":
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "vars"
                        or _is_cached_property(node) and any(
                            isinstance(r, ast.Return) and _is_empty_mutable(r.value)
                            for r in ast.walk(node))
                        or isinstance(node, (ast.Assign, ast.AnnAssign))
                        and _is_empty_mutable(node.value)
                        and any(isinstance(t, ast.Attribute) for t in
                                (node.targets if isinstance(node, ast.Assign) else [node.target]))):
                    found.append((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_every_keyed_memo_goes_through_the_helper():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert _hand_written_memos(trees) == []


def test_hand_written_memos_are_found():
    sample = ast.parse(
        "class A:\n"
        "    @cached_property\n"
        "    def seen(self):\n"
        "        return {}\n"
        "    @functools.cached_property\n"
        "    def groups(self):\n"
        "        return collections.defaultdict(list)\n"
        "    @cached_property\n"
        "    def table(self):\n"
        "        return dict(zip('ab', 'cd'))\n"
        "def get(p):\n"
        "    return p.__dict__.get('x')\n"
        "def put(p):\n"
        "    vars(p)['x'] = 1\n"
        "class B:\n"
        "    def __init__(self):\n"
        "        self._labels: dict = {}\n"
        "        self.parent = list(range(3))\n")
    assert _hand_written_memos({"fincat": sample}) \
        == ["fincat:3", "fincat:6", "fincat:12", "fincat:14", "fincat:17"]


# the name of every keyed memo in `src/`, the first item of its key; adding
# or dropping a memo is an edit here
MEMO_NAMES = {
    "all_sieve_masks", "cartesian_arrows", "chi", "clause-iii-tables", "closed-families",
    "comorphism-localic", "comorphism-surjection", "cover-reflecting", "induced_topology",
    "is_fibration", "labels", "local-properties", "morphism-of-sites", "sheafified",
    "vertical_arrows", "weakly-dense", "weakly-dense-ii", "yoneda",
}


def _memo_names(trees: dict[str, ast.Module]) -> set[str]:
    """The first key item of each `_memo(owner, (name, ...), ...)` call,
    bare or as an attribute; a key that is not a tuple opening with a
    string literal gives `module:line?`."""
    names = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                    == "_memo"):
                key = node.args[1] if len(node.args) > 1 else None
                if (isinstance(key, ast.Tuple) and key.elts
                        and isinstance(key.elts[0], ast.Constant)
                        and isinstance(key.elts[0].value, str)):
                    names.add(key.elts[0].value)
                else:
                    names.add(f"{module}:{node.lineno}?")
    return names


def test_memo_names_are_listed():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert _memo_names(trees) == MEMO_NAMES


def test_memo_names_are_found():
    sample = ast.parse(
        "def yoneda(cat, c):\n"
        "    return _memo(cat, ('yoneda', c), lambda: c)\n"
        "def labels(self, e):\n"
        "    def build():\n"
        "        return fincat._memo(self, ('labels', e, 1), list)\n"
        "    return build()\n"
        "def keyed(cat, key):\n"
        "    return _memo(cat, key, list)\n"
        "def numbered(cat):\n"
        "    return _memo(cat, (1, 'x'), list)\n"
        "def other(cat):\n"
        "    return memo(cat, ('other',), list), _memo_names(cat, ('nested',))\n")
    assert _memo_names({"fincat": sample}) == {"yoneda", "labels", "fincat:8?", "fincat:10?"}


# the only places that call the FinCategory constructor: the law check for
# outside input, the opposite, and the builder of derived categories
CATEGORY_CONSTRUCTORS = {"fincat.validate_category", "fincat.FinCategory.opposite",
                         "fincat.derived_category"}


def _direct_calls(trees: dict[str, ast.Module], name: str,
                  allowed: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """`module.scope:line` of each `name(...)` call outside the scopes in
    `allowed`, where a scope is the dotted path of the enclosing classes
    and functions."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif (isinstance(child, ast.Call) and scope not in allowed
                  and (getattr(child.func, "id", None) or getattr(child.func, "attr", None))
                  == name):
                found.append(f"{scope}:{child.lineno}")
            visit(child, inner)

    for module, tree in trees.items():
        visit(tree, module)
    return sorted(found)


def test_categories_are_built_in_three_places():
    """A derived category comes out of `derived_category`, outside input
    goes through `validate_category`, and the opposite swaps a built
    category's table; nothing else calls the constructor."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert _direct_calls(trees, "FinCategory", CATEGORY_CONSTRUCTORS) == []


def test_direct_category_calls_are_found():
    sample = ast.parse(
        "def validate_category(n):\n"
        "    return FinCategory(n, (), (), (), {})\n"
        "def derived_category(n):\n"
        "    def table():\n"
        "        return fincat.FinCategory(n, (), (), (), {})\n"
        "    return table()\n"
        "class FinCategory:\n"
        "    def opposite(self):\n"
        "        return FinCategory(1, (0,), (0,), (0,), {(0, 0): 0})\n"
        "    def twin(self):\n"
        "        return FinCategory(1, (0,), (0,), (0,), {(0, 0): 0})\n"
        "def poset_category(n):\n"
        "    return [FinCategory(n, (), (), (), {})]\n")
    assert _direct_calls({"fincat": sample}, "FinCategory", CATEGORY_CONSTRUCTORS) \
        == ["fincat.FinCategory.twin:11", "fincat.derived_category.table:5",
            "fincat.poset_category:13"]
    assert _direct_calls({"presheaf": sample}, "FinCategory", CATEGORY_CONSTRUCTORS) == [
        "presheaf.FinCategory.opposite:9", "presheaf.FinCategory.twin:11",
        "presheaf.derived_category.table:5", "presheaf.poset_category:13",
        "presheaf.validate_category:2"]


# a topology stores only its least covers, which it trusts as a category
# trusts its rows: each constructor in `topology` builds m as a topology's
def _topology_calls(trees: dict[str, ast.Module]) -> list[str]:
    """`module.scope:line` of each `GrothendieckTopology(...)` call outside
    the `topology` module."""
    return _direct_calls({module: tree for module, tree in trees.items() if module != "topology"},
                         "GrothendieckTopology")


def test_topologies_are_built_in_the_topology_module():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert _topology_calls(trees) == []


def test_direct_topology_calls_are_found():
    sample = ast.parse(
        "def lift(cat, m):\n"
        "    return GrothendieckTopology(cat, m)\n"
        "def typed(J: GrothendieckTopology) -> GrothendieckTopology:\n"
        "    return [topology.GrothendieckTopology(J.cat, J.min_cover)]\n")
    assert _topology_calls({"morphisms": sample, "topology": sample}) == [
        "morphisms.lift:2", "morphisms.typed:4"]


# the presheaf dataclasses hold plain data; outside input reaches them only
# through `validate_presheaf` and `validate_presheaf_morphism`
PRESHEAF_CLASSES = ("FinPresheaf", "PresheafMorphism", "SubPresheaf")
TESTS = pathlib.Path(__file__).parent
# the reference enumeration of subpresheaves, which builds only the
# selections it has found restriction-closed
PRESHEAF_CONSTRUCTIONS = {"oracles.subpresheaves"}


def _direct_presheaf_calls(trees: dict[str, ast.Module]) -> list[str]:
    return [call for name in PRESHEAF_CLASSES
            for call in _direct_calls(trees, name, PRESHEAF_CONSTRUCTIONS)]


def test_outside_presheaf_data_is_validated():
    """The parser and the tests, which build presheaves, morphisms and
    subpresheaves from their own data, call none of the three constructors;
    the constructions in src/ are lawful by construction and call them, and
    so does the reference enumeration of subpresheaves, whose output
    `tests/test_derived.py` re-validates."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in [SRC / "cli.py", *sorted(TESTS.glob("*.py"))]}
    assert _direct_presheaf_calls(trees) == []


def test_direct_presheaf_calls_are_found():
    sample = ast.parse(
        "def parse(cat):\n"
        "    return ps.FinPresheaf(cat, (), ())\n"
        "def arrow(P):\n"
        "    return [PresheafMorphism(P, P, ())]\n"
        "class Case:\n"
        "    def full(self, P):\n"
        "        return SubPresheaf(P, ())\n"
        "def checked(cat, P):\n"
        "    return validate_presheaf(cat, (), ()), validate_presheaf_morphism(P, P, ())\n")
    assert _direct_presheaf_calls({"cli": sample}) == ["cli.parse:2", "cli.arrow:4",
                                                       "cli.Case.full:7"]
    assert _direct_presheaf_calls({"oracles": ast.parse(
        "def subpresheaves(P):\n"
        "    return [SubPresheaf(P, ())]\n"
        "def subsets(P):\n"
        "    return [SubPresheaf(P, ())]\n")}) == ["oracles.subsets:4"]


# a functor is plain data; outside input reaches it only through
# `validate_functor`, the one helper that builds a `FinFunctor` and checks it
def test_outside_functor_data_is_validated():
    """The parser and the tests, which build functors from their own maps,
    call `validate_functor`, never the constructor; the constructions in
    src/ are functors by construction and call it, and
    `tests/test_derived.py` re-validates what they build."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in [SRC / "cli.py", *sorted(TESTS.glob("*.py"))]}
    assert _direct_calls(trees, "FinFunctor") == []


def test_direct_functor_calls_are_found():
    sample = ast.parse(
        "def parse(A, B):\n"
        "    return FinFunctor(A, B, (), ())\n"
        "class Case:\n"
        "    def collapse(self, A):\n"
        "        return [fincat.FinFunctor(A, A, (0,), (0,))]\n"
        "def checked(A, B):\n"
        "    return validate_functor(A, B, (), ()), fincat.validate_functor(A, B, (), ())\n"
        "def typed(F: FinFunctor) -> FinFunctor:\n"
        "    return F\n")
    assert _direct_calls({"cli": sample}, "FinFunctor") == ["cli.Case.collapse:5",
                                                            "cli.parse:2"]


# the hyperconnected checks test the closures of single elements: nothing in
# src/ enumerates subpresheaves, and closed sieve lifting walks no lattice
ENUMERATIONS = {"subpresheaves", "_subsets", "enumerate_presheaf_morphisms",
                "_inclusion_relation_condition", "_inclusion_arrow_splits"}
LIFTING = "morphisms.closed_sieve_lifting"


def _definitions(trees: dict[str, ast.Module], names: set[str]) -> list[str]:
    """`module:line` of each function or class named in `names`, at any depth."""
    return sorted(f"{module}:{node.lineno}" for module, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name in names)


def _lifting_sieve_walks(trees: dict[str, ast.Module]) -> list[str]:
    return [call for call in _direct_calls(trees, "all_sieve_masks")
            if f"{call.partition(':')[0]}.".startswith(f"{LIFTING}.")]


def test_closed_families_are_not_enumerated():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert _definitions(trees, ENUMERATIONS) == []
    assert _lifting_sieve_walks(trees) == []


def test_closed_family_enumerations_are_found():
    sample = ast.parse(
        "def subpresheaves(P):\n"
        "    return list(_subsets(P))\n"
        "class Lattice:\n"
        "    def _subsets(self):\n"
        "        return []\n"
        "def closed_sieve_lifting(sf):\n"
        "    def walk(c):\n"
        "        return sieves.all_sieve_masks(sf.F.target, c)\n"
        "    return [s for c in sf.F.source.objects for s in all_sieve_masks(sf.K.cat, c)]\n"
        "def closed_sieve_lifting_reference(sf):\n"
        "    return all_sieve_masks(sf.K.cat, 0)\n"
        "def _comorphism_inclusion_general(sf):\n"
        "    def _inclusion_arrow_splits(g):\n"
        "        return enumerate_presheaf_morphisms(sf, g)\n"
        "    return _inclusion_relation_condition(sf)\n"
        "def _inclusion_relation_condition(sf):\n"
        "    return []\n"
        "class Arrows:\n"
        "    def enumerate_presheaf_morphisms(self, P, Q):\n"
        "        return []\n")
    assert _definitions({"morphisms": sample}, ENUMERATIONS) == [
        "morphisms:1", "morphisms:13", "morphisms:16", "morphisms:19", "morphisms:4"]
    assert _lifting_sieve_walks({"morphisms": sample}) == [
        "morphisms.closed_sieve_lifting.walk:8", "morphisms.closed_sieve_lifting:9"]


# a category stores its composites as rows; one pair is read through `compose`
def _comp_reads(trees: dict[str, ast.Module]) -> list[str]:
    """`module:line` of each read of a `.comp` attribute."""
    return sorted(f"{module}:{node.lineno}" for module, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "comp")


def test_composites_are_read_through_compose_or_the_rows():
    """No module of the package or of the tests reads the pair mapping: a
    stale read on an untested path would surface only as a traceback."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]}
    assert _comp_reads(trees) == []


def test_comp_reads_are_found():
    sample = ast.parse(
        "def pair(cat):\n"
        "    return cat.comp[(1, 0)]\n"
        "def table(cat, comp):\n"
        "    entries = dict(cat.category.comp)\n"
        "    return cat.compose(1, 0), cat.composites[1], comp[(1, 0)], entries\n")
    assert _comp_reads({"morphisms": sample}) == ["morphisms:2", "morphisms:4"]


# checks over covering sieves read the least covers on a pass, and walk the
# covers or the sieve lattice on a failure only through the two quantifiers
# of `topology.GrothendieckTopology`; a loop over a topology's covers or over
# the sieve lattice sits in a construction that needs every sieve
SIEVE_WALKS = {
    "factorizations.closed_sieves",  # the objects of C^s_J
    "morphisms.continuity_oracle",  # the independent route over every cover
    "replay.recheck_witness",  # replays read the definitions
}


def _sieve_walks(trees: dict[str, ast.Module]) -> list[str]:
    """`module.scope:line` of each loop or comprehension over a `.covers[...]`
    subscript or an `all_sieve_masks(...)` call outside `SIEVE_WALKS`."""
    def walks(node: ast.expr) -> bool:
        return any(isinstance(n, ast.Subscript) and isinstance(n.value, ast.Attribute)
                   and n.value.attr == "covers"
                   or isinstance(n, ast.Call) and (getattr(n.func, "id", None)
                                                   or getattr(n.func, "attr", None))
                   == "all_sieve_masks"
                   for n in ast.walk(node))
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif (isinstance(child, (ast.For, ast.AsyncFor, ast.comprehension))
                  and scope not in SIEVE_WALKS and walks(child.iter)):
                found.append(f"{scope}:{child.iter.lineno}")
            visit(child, inner)

    for module, tree in trees.items():
        visit(tree, module)
    return sorted(found)


# the modules whose checks and constructions read the least covers, and
# the others, each with why the check does not read it
SIEVE_WALK_MODULES = ("presheaf", "morphisms", "constructions", "factorizations", "replay")
NOT_SIEVE_WALK_MODULES = {
    "topology": "defines the covers, their listing and the two quantifiers that walk them",
    "sieves": "enumerates the sieve lattice",
    "fincat": "categories and functors, below sieves",
    "cli": "parses documents and prints listings",
    "__init__": "the export table",
}


def test_pass_paths_walk_no_covers_or_sieves():
    trees = {module: ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
             for module in SIEVE_WALK_MODULES}
    assert _sieve_walks(trees) == []


def test_cover_walks_are_found():
    sample = ast.parse(
        "def is_sheaf(P, J):\n"
        "    for c in P.cat.objects:\n"
        "        for s in J.covers[c]:\n"
        "            pass\n"
        "def continuity_oracle(sf):\n"
        "    return [s for s in sorted(sf.J.covers[0])]\n"
        "def closed_sieves(cat, J, c):\n"
        "    def walk():\n"
        "        return {s: 1 for s in all_sieve_masks(cat, c)}\n"
        "    return walk()\n"
        "def _check_cover_reflecting(sf):\n"
        "    return any(s for c in sf.F.source.objects\n"
        "               for s in sieves.all_sieve_masks(sf.F.source, c))\n"
        "def is_cover_preserving(sf):\n"
        "    covers = sf.J.covers[0]\n"
        "    return all(s in covers for s in bits(sf.J.min_cover[0]))\n")
    assert _sieve_walks({"morphisms": sample}) == [
        "morphisms._check_cover_reflecting:13", "morphisms.closed_sieves.walk:9",
        "morphisms.is_sheaf:3"]


# outside `topology`, a sieve's membership is asked through `is_covering` and
# two topologies are compared with `==`; the covers are read only where every
# cover is needed or a listing is printed
COVERS_READERS = {
    "morphisms.continuity_oracle",  # the independent route over every cover
    "morphisms._check_comorphism_surjection",  # its first-difference witness
    "cli._cmd_topology", "cli._cmd_factorize",  # the printed listings
}


def _covers_reads(trees: dict[str, ast.Module]) -> list[str]:
    """`module.scope:line` of each read of a `.covers` attribute outside
    `COVERS_READERS`."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif (isinstance(child, ast.Attribute) and child.attr == "covers"
                  and scope not in COVERS_READERS):
                found.append(f"{scope}:{child.lineno}")
            visit(child, inner)

    for module, tree in trees.items():
        visit(tree, module)
    return sorted(found)


COVERS_MODULES = ("presheaf", "morphisms", "constructions", "factorizations", "replay", "cli")
NOT_COVERS_MODULES = {
    "topology": "defines the covers and their listing",
    "sieves": "sieves as masks, with no topology",
    "fincat": "categories and functors, with no topology",
    "__init__": "the export table",
}


def test_covers_are_read_only_where_every_cover_is_needed():
    trees = {module: ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
             for module in COVERS_MODULES}
    assert _covers_reads(trees) == []


@pytest.mark.parametrize("read, excluded", [
    (SIEVE_WALK_MODULES, NOT_SIEVE_WALK_MODULES),
    (COVERS_MODULES, NOT_COVERS_MODULES),
], ids=["sieve walks", "covers reads"])
def test_the_cover_checks_read_every_module_or_say_why_not(read, excluded):
    """A module added to src/sitecalc, or one split off another, is read by
    each of the two checks or named in its exclusions with the reason; a
    module in both, or one that is gone, fails too."""
    modules = {path.stem for path in SRC.glob("*.py")}
    assert not set(read) & set(excluded)
    assert sorted(set(read) | set(excluded)) == sorted(modules)


def test_covers_reads_are_found():
    sample = ast.parse(
        "def is_sheaf(P, J):\n"
        "    return [s for s in J.covers[0]]\n"
        "def classify(sf, jf):\n"
        "    return jf.covers == sf.J.covers\n"
        "def continuity_oracle(sf):\n"
        "    def walk():\n"
        "        return sf.J.covers[0]\n"
        "    return sorted(sf.J.covers[0]), walk()\n"
        "def is_cover_preserving(sf):\n"
        "    return sf.J.is_covering(0, 1) and sf.K.covers_family(0, 1)\n")
    assert _covers_reads({"morphisms": sample}) == [
        "morphisms.classify:4", "morphisms.classify:4",
        "morphisms.continuity_oracle.walk:7", "morphisms.is_sheaf:2"]


# the maximal sieve of each object is kept on its category
# (`FinCategory.maximal_sieves`); nothing outside the class rebuilds it
def _rebuilt_maximal_sieves(trees: dict[str, ast.Module]) -> list[str]:
    """`module.scope:line` of each `mask_of(<x>.arrows_into(...))` whose
    only argument is the bare listing, outside `fincat.FinCategory`."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif (isinstance(child, ast.Call)
                  and (getattr(child.func, "id", None) or getattr(child.func, "attr", None))
                  == "mask_of"
                  and len(child.args) == 1 and not child.keywords
                  and isinstance(child.args[0], ast.Call)
                  and isinstance(child.args[0].func, ast.Attribute)
                  and child.args[0].func.attr == "arrows_into"
                  and not f"{scope}.".startswith("fincat.FinCategory.")):
                found.append(f"{scope}:{child.lineno}")
            visit(child, inner)

    for module, tree in trees.items():
        visit(tree, module)
    return sorted(found)


def test_maximal_sieves_are_read_not_rebuilt():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert _rebuilt_maximal_sieves(trees) == []


def test_rebuilt_maximal_sieves_are_found():
    sample = ast.parse(
        "def maximal_sieve_mask(cat, c):\n"
        "    return mask_of(cat.arrows_into(c))\n"
        "def tops(D):\n"
        "    return [sieves.mask_of(D.arrows_into(d)) for d in D.objects]\n"
        "def legs(cat, c):\n"
        "    return mask_of(f for f in cat.arrows_into(c) if not cat.is_identity(f))\n"
        "class FinCategory:\n"
        "    def maximal_sieves(self):\n"
        "        return tuple(mask_of(self.arrows_into(c)) for c in self.objects)\n"
        "class Site:\n"
        "    def top(self, c):\n"
        "        return mask_of(self.cat.arrows_into(c))\n")
    assert _rebuilt_maximal_sieves({"fincat": sample}) == [
        "fincat.Site.top:12", "fincat.maximal_sieve_mask:2", "fincat.tops:4"]
    assert _rebuilt_maximal_sieves({"sieves": sample}) == [
        "sieves.FinCategory.maximal_sieves:9", "sieves.Site.top:12",
        "sieves.maximal_sieve_mask:2", "sieves.tops:4"]


# every verdict kind replays: a failure in a branch of `replay.recheck_witness`
# or through its table of checkers, a pass through the table; the one kind
# whose record names a cocone, not a site functor, raises
UNREPLAYED_KINDS = {"sheaf-colimit"}
_VERDICTS = ("_yes", "_no", "_conjunction")


def _verdict_kinds(trees: dict[str, ast.Module]) -> set[str]:
    """The kind literal of each `_yes`, `_no` or `_conjunction` call, bare
    or as an attribute, outside the definitions of those three; a kind that
    is not a string literal gives `module.scope:line?`."""
    kinds = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name in _VERDICTS:
                    continue
                inner = f"{scope}.{child.name}"
            elif (isinstance(child, ast.Call)
                  and (getattr(child.func, "id", None) or getattr(child.func, "attr", None))
                  in _VERDICTS):
                kind = child.args[0] if child.args else None
                kinds.add(kind.value if isinstance(kind, ast.Constant)
                          and isinstance(kind.value, str) else f"{scope}:{child.lineno}?")
            visit(child, inner)

    for module, tree in trees.items():
        visit(tree, module)
    return kinds


def _replayed_kinds(tree: ast.Module) -> set[str]:
    """The kinds that a replay module handles: the keys of its
    `_POSITIVE_RUNNERS` and `_PARTS` tables and each string compared with
    the name `kind`."""
    handled = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if (any(getattr(target, "id", None) in ("_POSITIVE_RUNNERS", "_PARTS")
                    for target in targets) and isinstance(node.value, ast.Dict)):
                handled |= {key.value for key in node.value.keys
                            if isinstance(key, ast.Constant)}
        elif isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "kind":
            handled |= {n.value for comparator in node.comparators for n in ast.walk(comparator)
                        if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return handled


def test_every_verdict_kind_replays():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert sorted(_verdict_kinds(trees) - _replayed_kinds(trees["replay"])) \
        == sorted(UNREPLAYED_KINDS)


def test_unreplayed_kinds_are_found():
    checkers = ast.parse(
        "def _no(kind, **data):\n"
        "    return Verdict(False, {'kind': kind, **data})\n"
        "def _conjunction(kind, *parts):\n"
        "    return _no(kind, witness=parts[0].witness)\n"
        "def is_cofinal(sf):\n"
        "    return _yes('cofinal') if sf else _no('cofinal', clause='i')\n"
        "def is_tidy(sf):\n"
        "    return morphisms._no('tidy', object=0)\n"
        "def is_neat(sf, name):\n"
        "    def inner():\n"
        "        return _yes(name)\n"
        "    return _conjunction('hyperconnected', inner(), _yes('localic'))\n")
    replay = ast.parse(
        "_PARTS: dict = {'hyperconnected': set()}\n"
        "_POSITIVE_RUNNERS = {'cofinal': is_cofinal}\n"
        "def recheck_witness(sf, verdict):\n"
        "    kind = verdict.witness['kind']\n"
        "    if kind in ('localic', 'dense'):\n"
        "        return True\n"
        "    if verdict.witness.get('inner') == 'tidy':\n"
        "        return False\n")
    assert sorted(_verdict_kinds({"morphisms": checkers}) - _replayed_kinds(replay)) == [
        "morphisms.is_neat.inner:11?", "tidy"]


# failed records that `replay.recheck_witness` replays by re-running the
# checker of their own kind: the kinds with no branch of their own reach its
# table of checkers at the end, each kept there for the reason given
REPLAY_RERUNS = {
    "continuous": "no branch yet replays a failed connection square from its record",
    "dense": "its record nests a failed part that no branch yet replays as a part",
    "localic": "no branch yet recomputes the recorded sieve from the presented arrows",
    "cofinal": "no branch yet replays either clause from its recorded instance",
    "locally-connected": "its records name elements of categories that only the check builds",
    "weakly-dense-ii": "a pass-only kind: clause (ii) fails as `weakly-dense`, so only a "
                       "forged record reaches the re-run",
}


def _runner_checkers(runner: ast.expr, functions: dict[str, list[ast.AST]]) -> set[str]:
    """The checker a `_POSITIVE_RUNNERS` entry runs: the function named,
    or the outermost call of a lambda's body; for a `_conjunction`, the
    checkers of its parts.  A checker that returns its `_memo` brings the
    checker its memo computes."""
    node = runner.body if isinstance(runner, ast.Lambda) else runner
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Call):
        if getattr(node.func, "id", None) == "_conjunction":
            return set().union(*(_runner_checkers(arg, functions) for arg in node.args[1:]))
        return _runner_checkers(node.func, functions)
    if not isinstance(node, ast.Name):
        return set()
    found = {node.id}
    for definition in functions.get(node.id, ()):
        last = definition.body[-1]
        if (isinstance(last, ast.Return) and isinstance(last.value, ast.Call)
                and getattr(last.value.func, "id", None) == "_memo"):
            found |= _runner_checkers(last.value.args[-1], functions)
    return found


def _reached(nodes: list[ast.AST], functions: dict[str, list[ast.AST]],
             stop: str) -> set[str]:
    """The top-level functions of src/ that the nodes name, bare or as an
    attribute, and every function those name in turn, except `stop`."""
    seen: set[str] = set()
    todo = list(nodes)
    while todo:
        for node in ast.walk(todo.pop()):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in functions and name != stop and name not in seen:
                seen.add(name)
                todo.extend(functions[name])
    return seen


def _own_checker_reruns(trees: dict[str, ast.Module]) -> list[str]:
    """`kind:checker` for each branch of `replay.recheck_witness` that
    reaches a checker of a kind it tests, and `kind:_POSITIVE_RUNNERS` for
    each kind of the table without a branch, whose failure the table's
    checker re-runs.  The branch on `verdict.holds` re-runs the table for a
    pass and is not read."""
    functions = collections.defaultdict(list)
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name].append(node)
    replay = trees["replay"]
    tables = {}
    for node in replay.body:
        target = getattr(node, "target", None) or (node.targets[0] if isinstance(node, ast.Assign)
                                                    else None)
        if getattr(target, "id", None) in ("_POSITIVE_RUNNERS", "_PARTS"):
            tables[target.id] = node.value
    runners = tables["_POSITIVE_RUNNERS"]
    checkers = {key.value: _runner_checkers(value, functions)
                for key, value in zip(runners.keys, runners.values)}
    parts = {key.value for key in tables.get("_PARTS", ast.Dict([], [])).keys}
    body = next(node for node in replay.body
                if isinstance(node, ast.FunctionDef) and node.name == "recheck_witness").body
    found, branched = [], set()
    for statement in body:
        if isinstance(statement, ast.If):
            if getattr(statement.test, "attr", None) == "holds":
                continue
            kinds = set()
            for node in ast.walk(statement.test):
                if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "kind":
                    for n in (n for comparator in node.comparators for n in ast.walk(comparator)):
                        if isinstance(n, ast.Constant) and isinstance(n.value, str):
                            kinds.add(n.value)
                        elif getattr(n, "id", None) == "_PARTS":
                            kinds |= parts
            reached = _reached([statement.test, *statement.body], functions, "recheck_witness")
            found += [f"{kind}:{name}" for kind in kinds
                      for name in sorted(checkers.get(kind, set()) & reached)]
            branched |= kinds
        elif any(getattr(node, "id", None) == "_POSITIVE_RUNNERS" for node in ast.walk(statement)):
            found += [f"{kind}:_POSITIVE_RUNNERS" for kind in checkers if kind not in branched]
    return sorted(found)


def test_no_replay_reruns_the_checker_of_its_kind():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert _own_checker_reruns(trees) == sorted(f"{kind}:_POSITIVE_RUNNERS"
                                                for kind in REPLAY_RERUNS)


def test_unlisted_reruns_are_found():
    """On a sample tree: a branch that calls its checker, a branch whose
    helper in another module calls it, and a kind that has no branch are
    found; the pass branch and a checker of another kind are not."""
    morphisms = ast.parse(
        "def is_dense(sf):\n"
        "    return _memo(sf, 'dense', lambda: _check_dense(sf))\n"
        "def _check_dense(sf):\n"
        "    return is_continuous(sf)\n"
        "def is_continuous(sf):\n"
        "    return _yes('continuous')\n"
        "def _helper(sf):\n"
        "    return _check_dense(sf)\n"
        "def is_cofinal(sf):\n"
        "    return _yes('cofinal')\n")
    replay = ast.parse(
        "_POSITIVE_RUNNERS = {'dense': is_dense, 'continuous': lambda sf: is_continuous(sf),\n"
        "                     'cofinal': lambda sf: is_cofinal(sf.F)['x'],\n"
        "                     'pair': lambda sf: _conjunction('pair', is_dense(sf),\n"
        "                                                     is_cofinal(sf))}\n"
        "def recheck_witness(sf, verdict):\n"
        "    kind = verdict.witness['kind']\n"
        "    if verdict.holds:\n"
        "        return _POSITIVE_RUNNERS[kind](sf).holds\n"
        "    if kind == 'dense':\n"
        "        return not is_dense(sf).holds\n"
        "    if kind in ('continuous', 'pair'):\n"
        "        return not _helper(sf).holds and recheck_witness(sf, verdict)\n"
        "    checker = _POSITIVE_RUNNERS.get(kind)\n"
        "    return not checker(sf).holds\n")
    assert _own_checker_reruns({"morphisms": morphisms, "replay": replay}) == [
        "cofinal:_POSITIVE_RUNNERS", "continuous:is_continuous", "dense:_check_dense",
        "dense:is_dense", "pair:_check_dense"]
