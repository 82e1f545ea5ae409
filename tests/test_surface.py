"""Surface guards: every public name in the package has a caller, and every
imported name is used.

Each public function, class and method defined in ``src/permatch/*.py``
(``__init__`` aside) must be referenced outside its own definition, as an
``ast.Name`` or an attribute, somewhere in ``src/permatch``, ``scripts/`` or
``perfbench/``. The re-exports in ``__init__`` do not count, and neither do
the tests: a name only the tests call is surface that nothing else uses.
The rule has no exceptions; the independent routes the tests compare the
package against live in ``tests/oracles.py``, which imports nothing from
``permatch``.

The same rule holds for parameters: every parameter with a default, of each
public function and method defined there, must be passed, by position or by
keyword, in some call under the same three directories. A default that no
caller overrides is a mode that only the tests reach.

Each name a module under ``src/permatch`` (``__init__`` aside),
``scripts/``, ``perfbench/`` or ``tests/`` imports must appear in it as an
``ast.Name``, so a deletion leaves no import behind.

Every module under ``src/permatch``, ``scripts/`` and ``perfbench/`` must
parse at the oldest Python that ``pyproject.toml`` declares
(``requires-python``), so syntax newer than the floor fails here even when
the suite runs on a newer interpreter.

The match is by name only, so two definitions that share a name are
covered by each other's callers: ``UndirectedGraph.edges`` would pass on
the strength of ``BipartiteGraph.edges``' callers alone.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "permatch"
CALLERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
IMPORTERS = (*CALLERS, ROOT / "tests")


def _trees(directory):
    for path in sorted(directory.glob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(), filename=str(path))


def _public_definitions(tree):
    """(name, node) of each public module-level function and class, and of
    each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item


def _references(trees):
    """name -> ids of the Name and Attribute nodes that mention it."""
    refs = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, set()).add(id(node))
    return refs


def test_every_public_name_has_a_caller_outside_the_tests():
    # one parse of every file, so a definition's own nodes are the nodes counted
    trees = {path: tree for directory in CALLERS for path, tree in _trees(directory)}
    refs = _references(trees.values())
    definitions = [
        (name, node)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, node in _public_definitions(tree)
    ]
    assert {"permanent_zero_one", "scan", "Digraph"} <= {name for name, _ in definitions}  # the scan found the package
    unused = set()
    for name, node in definitions:
        own = {id(n) for n in ast.walk(node)}
        if not refs.get(name, set()) - own:
            unused.add(name)
    assert unused == set(), "public names with no caller; delete them or move them into the tests"


def _optional_parameters(node):
    """(name, position) of each parameter of a function node that has a default;
    position is None for keyword-only parameters, and a method's receiver is not counted."""
    args = node.args
    positional = args.posonlyargs + args.args
    receiver = int(bool(positional) and positional[0].arg in ("self", "cls"))
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield arg.arg, index - receiver
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passed(call, name, position):
    """Whether a call passes the parameter, by keyword, by position, or through * or ** unpacking."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_optional_parameter_is_passed_outside_the_tests():
    trees = {path: tree for directory in CALLERS for path, tree in _trees(directory)}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    functions = [
        (name, node)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, node in _public_definitions(tree)
        if isinstance(node, ast.FunctionDef)
    ]
    assert {"permanent_zero_one", "scan", "dp_ratio"} <= {name for name, _ in functions}  # the scan found the package
    unpassed = {
        f"{name}.{param}"
        for name, node in functions
        for param, position in _optional_parameters(node)
        if not any(_passed(call, param, position) for call in calls.get(name, ()))
    }
    assert unpassed == set(), "optional parameters that no caller passes; drop them or make them required"


def _imported_names(tree):
    """name -> line of each name an import statement binds, __future__ aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_the_oracles_import_nothing_from_the_package():
    # an oracle that calls into permatch could quietly become the kernel it checks
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "itertools" in modules  # the scan found the imports
    assert [m for m in modules if m.partition(".")[0] == "permatch"] == []


def test_every_imported_name_is_used():
    unused = []
    scanned = 0
    for directory in IMPORTERS:
        for path, tree in _trees(directory):
            scanned += 1
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for name, line in _imported_names(tree).items():
                if name not in used:
                    unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert scanned > 20  # the scan found the modules
    assert unused == [], "imported names that are never used; drop the imports"


def test_every_module_parses_at_the_declared_python_floor():
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    floor = (int(declared[1]), int(declared[2]))
    paths = [path for directory in CALLERS for path in sorted(directory.glob("*.py"))]
    assert len(paths) > 15 and PACKAGE / "__init__.py" in paths  # the scan found the modules
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
