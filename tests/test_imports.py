"""Every name a module of the package imports is used in that module, every
public function has a caller, every public class, every public function or
class outside __all__, every private function or class, every field of a
public dataclass and every public method has a reader, every optional
parameter of a private function is passed by some call, no module imports
scipy, a run loads neither scipy, the process pool, the property suites
nor any reference implementation, the package's names load on first use,
and only the command line sets OpenBLAS's thread count."""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fuzzyifs"

# perfbench/tracing.py times these four under system's names, so system
# imports them although its step and its run no longer call them. An allowance the code
# no longer needs fails the test too, so this list shrinks with the imports.
ALLOWED_UNUSED = {("system", "apply_grey"), ("system", "d_infinity"), ("system", "join"),
                  ("system", "zadeh_pushforward")}


def imports_and_uses(source: str):
    """The names bound by the imports of a module and the names read in it;
    a name listed in a literal __all__ counts as read."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)) and any(
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


# Public functions that no module of the package, no perfbench script and
# not the README's example calls, and why each stays. An allowance the code
# no longer needs fails the test too.
ALLOWED_UNCALLED = {
    "compose_word": "the oracle of the orbit test: the image of every word",
    "directed_distance": "the directed half of the Hausdorff metric, checked against brute force",
    "invariant_domain_check": "the paper's invariant-domain condition on an orbital system",
    "le_sum": "the exact triangle inequality check, since a Radical does not add",
    "parse_pgm": "the tests read rendered images with it",
}


def names_read(source: str, attributes_only: bool = False) -> set:
    """The names and attribute names that a piece of python reads, or its
    attribute names alone. A read inside a function of the same name does
    not count: a recursive call, or a to_float that calls the to_float of
    its parts, is no caller."""
    read = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.update({node.attr} - enclosing)
        elif isinstance(node, ast.Name) and not attributes_only:
            read.update({node.id} - enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return read


def client_sources() -> list:
    """The modules of the package other than __init__, the perfbench
    scripts and the README's python example."""
    sources = [path.read_text(encoding="utf-8") for path in
               [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
               if path != PACKAGE / "__init__.py"]
    return sources + re.findall(r"```python\n(.*?)```",
                                (ROOT / "README.md").read_text(encoding="utf-8"), re.DOTALL)


def client_reads(attributes_only: bool = False) -> set:
    return set().union(*(names_read(source, attributes_only) for source in client_sources()))


def public_of_all(kind) -> dict:
    """The names of __all__ whose values pass the test kind, with their
    values."""
    import fuzzyifs

    values = {name: getattr(fuzzyifs, name) for name in fuzzyifs.__all__}
    return {name: value for name, value in values.items() if kind(value)}


def test_every_public_function_is_called():
    """Each function of __all__ is read by a module of the package other
    than __init__, by a perfbench script or by the README's example."""
    assert public_of_all(inspect.isfunction).keys() - client_reads() == set(ALLOWED_UNCALLED)


def test_every_public_class_is_read():
    """Each class of __all__ is read as a name or an attribute by a client
    source, as its functions are."""
    assert public_of_all(inspect.isclass).keys() - client_reads() == set()


# Public functions and classes that a module of the package defines outside
# __all__ and that no client source reads, and why each stays. An allowance
# the code no longer needs fails the test too.
ALLOWED_UNREAD_OUTSIDE_ALL = {
    "scene_to_dict": "the scene round-trip tests use it",
}


def test_every_public_name_outside_all_is_read():
    """Each public function or class that a module of the package defines
    at its top level, and that __all__ leaves out, is read by a client
    source."""
    import fuzzyifs

    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and node.name not in fuzzyifs.__all__}
    assert defined - client_reads() == set(ALLOWED_UNREAD_OUTSIDE_ALL)


def test_every_private_function_and_class_is_read():
    """Each private function or class that a module of the package defines
    at its top level is read by a module of the package, outside a
    function of the same name, so a route that goes leaves no helper of
    its own behind."""
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")]
    defined = {node.name for source in sources for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    assert defined - set().union(*map(names_read, sources)) == set()


# Optional parameters of private functions and methods that no call in the
# package passes, as "function.parameter", and why each stays. An allowance
# the code no longer needs fails the test too.
ALLOWED_UNPASSED = {}


def optional_parameters(tree: ast.Module) -> set:
    """(name, parameter, place) for each optional parameter of a private
    function or method that the module defines, dunders left out: place is
    the parameter's index among a call's positional arguments, after the
    self or cls of a method, or None for a keyword-only one."""
    found = set()

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if name.startswith("_") and not name.startswith("__"):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    bound = in_class and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in child.decorator_list)
                    for i in range(len(positional) - len(args.defaults), len(positional)):
                        found.add((name, positional[i].arg, i - bound))
                    found.update((name, arg.arg, None)
                                 for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                                 if default is not None)
            visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return found


def passes(call: ast.Call, parameter: str, place) -> bool:
    """Whether a call passes the parameter by keyword, at its place among
    the positional arguments, or through a * or ** argument."""
    if any(keyword.arg in (None, parameter) for keyword in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return place is not None
    return place is not None and len(call.args) > place


def unpassed_parameters(sources) -> set:
    """The optional parameters of private functions and methods of sources
    that no call among them, to a function or an attribute of that name,
    passes."""
    trees = [ast.parse(source) for source in sources]
    calls = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(node)
    return {f"{name}.{parameter}" for tree in trees
            for name, parameter, place in optional_parameters(tree)
            if not any(passes(call, parameter, place) for call in calls.get(name, ()))}


def test_every_optional_parameter_of_a_private_function_is_passed():
    """Each optional parameter of a private function or method of the
    package is passed, by keyword or by position, by some call in the
    package: a setting that no caller sets is a constant."""
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")]
    assert unpassed_parameters(sources) == set(ALLOWED_UNPASSED)


def test_an_unpassed_optional_parameter_is_caught():
    source = """
def _f(a, b=1, *, c=2):
    return a + b + c

class K:
    def _m(self, x, y=0):
        return x + y

    @staticmethod
    def _s(x, y=0):
        return x + y

_f(1, 2)
K()._m(1, 2)
K._s(1)
"""
    assert unpassed_parameters([source]) == {"_f.c", "_s.y"}
    assert unpassed_parameters([source + "_f(1, c=3)\nK._s(1, 2)\n"]) == set()
    assert unpassed_parameters([source.replace("K()._m(1, 2)", "K()._m(1)")]) == \
        {"_f.c", "_m.y", "_s.y"}


# Fields of the public dataclasses that nothing reads, as "Class.field", and
# why each stays. An allowance the code no longer needs fails the test too.
ALLOWED_UNREAD = {}


def test_every_public_field_is_read():
    """Each field of a dataclass of __all__ is read as an attribute by a
    module of the package other than __init__, by a perfbench script or by
    the README's example."""
    read = client_reads(attributes_only=True)
    dataclass_types = public_of_all(lambda value: inspect.isclass(value)
                                    and dataclasses.is_dataclass(value))
    unread = {f"{cls.__name__}.{field.name}" for cls in dataclass_types.values()
              for field in dataclasses.fields(cls) if field.name not in read}
    assert unread == set(ALLOWED_UNREAD)


# Public methods and properties of the classes of __all__ that nothing
# reads, as "Class.name", and why each stays. An allowance the code no longer
# needs fails the test too.
ALLOWED_UNREAD_METHODS = {
    "OrbitalFuzzySystem.a_priori_bound": "perfbench/tracing.py wraps it by name",
}

# Public methods that only a method of the same name reads, and why each
# stays. An allowance the code no longer needs fails the test too.
ALLOWED_SELF_READ_METHODS = dict.fromkeys(
    ["AffineMap.to_float", "GreyLevelMap.to_float", "IteratedFunctionSystem.to_float",
     "OrbitalFuzzySystem.to_float", "FuzzySet.to_float"],
    "it builds the float twin of an exact object for the cross-mode tests")


def test_every_public_method_is_read():
    """Each public method or property of a class of __all__ is read as an
    attribute by a module of the package other than __init__, by a
    perfbench script or by the README's example, outside a method of the
    same name."""
    read = client_reads(attributes_only=True)
    unread = {f"{cls.__name__}.{name}" for cls in public_of_all(inspect.isclass).values()
              for name, value in vars(cls).items()
              if not name.startswith("_") and name not in read
              and isinstance(value, (types.FunctionType, property, classmethod, staticmethod))}
    assert unread == {*ALLOWED_UNREAD_METHODS, *ALLOWED_SELF_READ_METHODS}


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


# What OpenBLAS reads for its thread count, in this order.
BLAS_THREAD_SETTINGS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
THREADS = "len(os.listdir('/proc/self/task'))"
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted in /proc/self/task")


def run_python(code: str, *args: str, **env: str) -> str:
    """The last line that code prints in a new interpreter, with the package
    on its path and the OpenBLAS thread settings of this process left out,
    replaced by those given in env."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    base = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_SETTINGS}
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                            env={**base, "PYTHONPATH": path, **env}, check=True)
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize("package", ["scipy", "multiprocessing", "concurrent"])
def test_a_band_run_leaves_a_package_unloaded(package):
    """Not even lazily: after a full band run, the package is not in
    sys.modules. Only verify's pool needs multiprocessing and concurrent,
    and a run would pay for their import in its start-up."""
    band = PACKAGE.parent.parent / "scenes" / "dyadic_band.json"
    code = ("import sys; from fuzzyifs.cli import main; "
            "status = main(['run', sys.argv[1], '--steps', '6']); "
            "print(status, sorted(name for name in sys.modules "
            "if name.split('.')[0] == sys.argv[2]))")
    assert run_python(code, str(band), package) == "0 []"


def test_a_band_run_loads_no_property_suite():
    """Importing the command line and a band run load neither the property
    suites nor `dyadic`, which they import, nor the csv module, which only
    render reads with: verify imports the suites on its first call, through
    `cli.run_all`. That stays a function of the module's own, which
    perfbench/tracing.py wraps by name and the tests replace."""
    band = PACKAGE.parent.parent / "scenes" / "dyadic_band.json"
    code = ("import sys, types, fuzzyifs.cli; "
            "status = fuzzyifs.cli.main(['run', sys.argv[1], '--steps', '2']); "
            "print(status, sorted(set(sys.modules) & "
            "{'fuzzyifs.properties', 'fuzzyifs.dyadic', 'csv'}), "
            "type(vars(fuzzyifs.cli)['run_all']) is types.FunctionType)")
    assert run_python(code, str(band)) == "0 [] True"


ORACLES = ("d_infinity_level_sweep", "invariant_domain_check", "words_of_length", "words_up_to",
           "compose_word", "hausdorff_brute", "directed_distance_brute")


def test_a_band_run_loads_no_oracle():
    """The reference implementations live in modules that a run does not
    load, or under tests/, so a run compiles none of them."""
    band = PACKAGE.parent.parent / "scenes" / "dyadic_band.json"
    code = ("import sys, fuzzyifs.cli; "
            "status = fuzzyifs.cli.main(['run', sys.argv[1], '--steps', '2']); "
            "print(status, sorted(f'{name}.{oracle}' for name, module in list(sys.modules.items()) "
            "if name.startswith('fuzzyifs.') for oracle in sys.argv[2:] if oracle in vars(module)))")
    assert run_python(code, str(band), *ORACLES) == "0 []"


def test_importing_the_package_loads_no_module():
    """The package's names load on first use, so neither numpy nor any
    module of the package is loaded by the import itself."""
    code = ("import sys, fuzzyifs; "
            "print(sorted(name for name in sys.modules "
            "if name.split('.')[0] in ('numpy', 'fuzzyifs')))")
    assert run_python(code) == "['fuzzyifs']"


def test_every_public_name_resolves():
    code = """
import fuzzyifs, importlib, sys
from fuzzyifs import FuzzySet
assert fuzzyifs.FuzzySet is FuzzySet is importlib.import_module("fuzzyifs.fuzzy").FuzzySet
assert sorted(fuzzyifs._MODULE_OF) == sorted(fuzzyifs.__all__)
for name in fuzzyifs.__all__:
    value = getattr(fuzzyifs, name)
    assert getattr(sys.modules[f"fuzzyifs.{fuzzyifs._MODULE_OF[name]}"], name) is value, name
    assert name in dir(fuzzyifs)
scope = {}
exec("from fuzzyifs import *", scope)
assert sorted(set(scope) - {"__builtins__"}) == sorted(fuzzyifs.__all__)
try:
    fuzzyifs.no_such_name
except AttributeError as err:
    print(err)
"""
    assert run_python(code) == "module 'fuzzyifs' has no attribute 'no_such_name'"


@needs_proc
def test_the_cli_loads_openblas_with_one_thread():
    assert run_python(f"import os, fuzzyifs.cli; print({THREADS})") == "1"


@needs_proc
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS runs one thread per CPU")
def test_the_users_openblas_thread_count_wins():
    code = f"import os, fuzzyifs.cli; print({THREADS})"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_the_library_leaves_the_environment_alone():
    """Only the command line sets the OpenBLAS default, and only for a
    numpy it loads itself."""
    code = """
import os
before = dict(os.environ)
import fuzzyifs.fuzzy
library = dict(os.environ) == before
import fuzzyifs.cli
print(library, dict(os.environ) == before)
"""
    assert run_python(code) == "True True"
