"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fuzzyifs"

# perfbench/tracing.py times these three under system's names, so system
# imports them although its step no longer calls them. An allowance the code
# no longer needs fails the test too, so this list shrinks with the imports.
ALLOWED_UNUSED = {("system", "apply_grey"), ("system", "join"), ("system", "zadeh_pushforward")}


def imports_and_uses(source: str):
    """The names bound by the imports of a module and the names read in it;
    a name listed in __all__ counts as read."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(element.value for element in node.value.elts)
    return imported, used


def unused_imports(source: str) -> set:
    """Names bound by the imports of a module and never read in it."""
    imported, used = imports_and_uses(source)
    return imported - used


def test_every_imported_name_is_used():
    unused = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert unused == ALLOWED_UNUSED


def test_fuzzy_reaches_the_kd_tree_only_through_the_kernel():
    """d_infinity hands every prefix to geometry's nearest-neighbour kernel,
    which builds the one tree per directed scan."""
    imported, _ = imports_and_uses((PACKAGE / "fuzzy.py").read_text(encoding="utf-8"))
    assert not imported & {"cKDTree", "tree_pays_off", "as_float_array"}
