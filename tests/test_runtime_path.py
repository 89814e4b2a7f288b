"""The set-based functions in ``gops.core`` are reference semantics for
the tests. This test keeps them off the runtime path: no module other
than ``core`` may use them (``__init__`` re-exports them), and neither
may the code in ``core`` that grounds and holds instances."""

import ast
from pathlib import Path

import gops

REFERENCE_ONLY = {"satisfies", "action_effects", "appl", "cost_of", "benefit_of",
                  "check_ics", "ground_ics_for_state"}
# the definitions in core that instances and solvers run
CORE_RUNTIME = {"Grounding", "Problem", "_point_mask", "_ball"}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, sub.lineno
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, sub.lineno
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name, sub.lineno


def _runtime_nodes(path: Path, tree: ast.Module):
    if path.name == "core.py":
        return [node for node in tree.body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in CORE_RUNTIME]
    if path.name == "__init__.py":
        return [node for node in tree.body if not isinstance(node, ast.ImportFrom)]
    return [tree]


def test_reference_semantics_have_no_runtime_callers():
    package = Path(gops.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nodes = _runtime_nodes(path, tree)
        if path.name == "core.py":
            assert {node.name for node in nodes} == CORE_RUNTIME
        for node in nodes:
            found += [f"{path.name}:{line} {name}" for name, line in _names(node)
                      if name in REFERENCE_ONLY]
    assert found == []
