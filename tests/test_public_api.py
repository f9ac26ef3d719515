"""Every public name in ``src/repro`` has a caller outside ``tests/``.

The library is what the system runs: a public top-level function or
class that only tests call is code to delete, not API to keep. This
scan collects the public top-level ``def``/``class`` names of every
``src/repro`` module and looks for a reference (a bare name or an
attribute) to each in code that is not a test:

- its own module, outside its own definition;
- any other ``src/`` module, except that a package ``__init__``'s
  re-exports and ``__all__`` strings do not count (imports never count);
- ``examples/``;
- ``bench/`` outside ``bench/tests``;
- ``benchmarks/``, ``conftest.py`` included.

A name with no such reference fails the test unless ``ALLOWED`` lists
it with the reason it has no call site to find.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

ALLOWED = {
    "SyncSimBackend": "resolved by get_backend('sync') through the registry",
    "AsyncSimBackend": "resolved by get_backend('async') through the registry",
    "TCPBackend": "resolved by get_backend('tcp') through the registry",
    "ParMACAdapter": "the protocol an adapter satisfies; checked structurally",
    "speedup_divisible": "the paper's closed form, kept for ROADMAP item 8's figures",
    "speedup_large_dataset": "the paper's closed form, kept for ROADMAP item 8's figures",
    "interval_bounds": "the paper's closed form, kept for ROADMAP item 8's figures",
    "scale_invariant_transforms": "the paper's closed form, kept for ROADMAP item 8's figures",
}


def _defined(tree):
    """Public top-level functions and classes: name -> definition node."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _references(tree, skip=()):
    """Names used as a bare name or an attribute, outside ``skip`` nodes."""
    skip_ids = {id(node) for node in skip}
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip_ids:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _caller_paths():
    """Every non-test Python file whose references count."""
    paths = list((REPO / "src").rglob("*.py"))
    paths += (REPO / "examples").rglob("*.py")
    paths += (p for p in (REPO / "bench").rglob("*.py")
              if REPO / "bench" / "tests" not in p.parents)
    paths += (REPO / "benchmarks").rglob("*.py")
    return paths


def _unreferenced():
    """Public ``src/repro`` names that no non-test code references."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in _caller_paths()}
    refs = {p: _references(tree) for p, tree in trees.items()}
    missing = set()
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        elsewhere = set().union(*(r for p, r in refs.items() if p != path))
        for name, node in _defined(tree).items():
            if name not in elsewhere and name not in _references(tree, skip=[node]):
                missing.add(name)
    return missing


def test_every_public_name_has_a_non_test_caller():
    missing = _unreferenced() - ALLOWED.keys()
    assert not missing, (
        "public names with no caller outside tests/ (delete them, or move "
        f"a test oracle under tests/): {sorted(missing)}"
    )


def test_allow_list_entries_are_still_needed():
    found = _unreferenced()
    assert found >= ALLOWED.keys(), sorted(ALLOWED.keys() - found)
