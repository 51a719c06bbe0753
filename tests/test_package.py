"""The package surface: every exported name imports, and every top-level
definition in `src/sitecalc` is used there, exported, or a library entry
point listed with its reason."""

import ast
import collections
import pathlib

import sitecalc

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
    "morphisms.comorphism_factorizations": "paper construction: the factorizations of a "
                                           "cover-preserving comorphism",
    "morphisms.is_locally_connected_presheaf": "the presheaf-topos case of local connectedness",
    "morphisms.is_terminally_connected": "paper criterion: terminal connectedness",
    "morphisms.recheck_witness": "replays a witness against the definitions",
    "presheaf.constant_presheaf": "presheaf constructor",
    "presheaf.identity_morphism": "presheaf-morphism constructor",
    "presheaf.is_subcanonical": "paper criterion: every representable is a sheaf",
    "presheaf.build_CJ": "the paper's category C_J",
    "sieves.iso_closure": "paper presieve closure: under isomorphisms",
    "sieves.vertical_closure": "paper presieve closure: under vertical arrows of a fibration",
    "sieves.cartesian_part": "paper presieve closure: cartesian parts along a fibration",
}


def test_every_exported_name_imports():
    namespace = {}
    exec("from sitecalc import *", namespace)  # a listed name that is missing raises
    assert set(sitecalc.__all__) <= set(namespace)


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
