"""Every name a module of the package imports is used in that module, and
no module imports scipy."""

import ast
import os
import subprocess
import sys
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


def imported_modules(source: str) -> set:
    """The top-level names of the modules a module imports."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_no_module_imports_scipy():
    """Nearest neighbours come from geometry's numpy grid, so the package
    needs numpy alone."""
    importers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
                 if "scipy" in imported_modules(path.read_text(encoding="utf-8"))]
    assert importers == []


def test_a_band_run_leaves_scipy_unloaded():
    """Not even lazily: after a full band run, scipy is not in sys.modules."""
    band = PACKAGE.parent.parent / "scenes" / "dyadic_band.json"
    code = ("import sys; from fuzzyifs.cli import main; "
            "status = main(['run', sys.argv[1], '--steps', '6']); "
            "print(status, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, str(band)], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout.splitlines()[-1] == "0 []"
