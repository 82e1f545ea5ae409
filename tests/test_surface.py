"""Surface guard: every public name in the package has a caller.

Each public function, class and method defined in ``src/permatch/*.py``
(``__init__`` aside) must be referenced outside its own definition, as an
``ast.Name`` or an attribute, somewhere in ``src/permatch``, ``scripts/`` or
``perfbench/``. The re-exports in ``__init__`` do not count, and neither do
the tests: a name only the tests call is surface that nothing else uses.
The exceptions are listed in ``ALLOWED``, each with its reason.

The match is by name only, so two definitions that share a name are
covered by each other's callers: ``UndirectedGraph.induced`` would pass on
the strength of ``Digraph.induced``'s callers alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "permatch"
CALLERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

ALLOWED = {
    # independent oracles that the tests compare the kernels against
    "permanent_naive": "oracle: the permanent by its definition, for the kernel tests",
    "bipartite_permutation_sum": "oracle: p of a flattened bipartite graph by squared subpermanents",
    "derangement_number": "oracle: d(n) by recurrence, against the complete-graph counts",
    # statements of the paper that have no CLI entry
    "choose_special_vertex": "paper: the root at which the injection misses a permutation",
    "forward_chords": "paper: the chords the cycle-breaking map chooses from",
    "first_minimal_forward_chord": "paper: the chord the cycle-breaking map breaks at",
    "cycle_doubling_sweep": "paper: the cycle-doubling corollary on every digraph up to 5 vertices",
    "log_bounds": "paper: the log-permanent bounds of the ratio estimate",
}


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
    assert len(definitions) > 100  # the scan found the package
    unused = set()
    for name, node in definitions:
        own = {id(n) for n in ast.walk(node)}
        if not refs.get(name, set()) - own:
            unused.add(name)
    assert unused - set(ALLOWED) == set(), "public names with no caller; delete them or list them in ALLOWED"
    assert set(ALLOWED) <= unused, "ALLOWED names that now have a caller; drop them from the table"
