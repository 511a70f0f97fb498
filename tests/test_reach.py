"""Every public top-level function and class of laxcat is reached.

A name is reached when other code of the package uses it, when the
package exports it (laxcat._EXPORTS), when it runs a `check` property
(cli.CHECKS), or when it is on ALLOWED below with its reason.  A
function that only tests call belongs under tests/.

Every error class is caught by name somewhere in the package: a class
that is only raised tells a caller nothing its base class does not.
"""

import ast
from pathlib import Path

import laxcat
from laxcat.cli import CHECKS

SRC = Path(laxcat.__file__).resolve().parent

# reached only from outside the package: each entry says from where
ALLOWED = {
    "check_block_multiply": "criterion 4, the block calculus",
    "star_multiply": "criterion 7, the signed block product",
    "cone_star_matrix": "criterion 7, the cone differential as a block matrix",
    "rand_quasi_iso_case": "criterion 8, seeded quasi-isomorphism cases",
    "cone_from_data": "criterion 9, the cone's universal property",
    "cone_to_data": "criterion 9, the cone's universal property",
    "rand_universal_case": "criterion 9, seeded null homotopies",
    "diagram_to_json": "bench/workloads.py writes diagram inputs",
    "dumps_canonical": "tools/ladder.py times the canonical dump",
}


def _public_definitions(trees):
    return {node.name: module for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _used_names(trees):
    """Every name read as a variable or an attribute, outside the body of
    the top-level definition of that name (recursion is no use)."""
    used = set()
    for tree in trees.values():
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def test_every_public_definition_is_reached():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    defined = _public_definitions(trees)
    exported = {name for names in laxcat._EXPORTS.values() for name in names}
    checks = {name for _, _, name in CHECKS.values()}
    unreached = set(defined) - _used_names(trees) - exported - checks
    dead = sorted(f"{defined[name]}.{name}" for name in unreached - set(ALLOWED))
    assert not dead, f"public definitions nothing in laxcat reaches: {dead}"
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"ALLOWED entries that need no entry: {stale}"


def _caught_names(trees):
    """Every name in the type of an except clause."""
    caught = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(n.id for n in ast.walk(node.type)
                              if isinstance(n, ast.Name))
    return caught


def test_every_error_class_is_caught_by_name():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    classes = [node.name for node in trees["errors"].body
               if isinstance(node, ast.ClassDef)]
    uncaught = sorted(set(classes) - _caught_names(trees))
    assert not uncaught, f"error classes no except clause names: {uncaught}"
