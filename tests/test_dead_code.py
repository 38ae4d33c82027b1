"""Every module-level private function or class in the package has a caller.

A private name is one that starts with a single underscore; nothing outside
the package may use it, so a private name that no other code in the package
references is dead.
"""

import ast
from pathlib import Path

import oalsim

PACKAGE = Path(oalsim.__file__).parent


def _references(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names read or imported in `tree`, outside the definition `skip`."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_private_definitions_are_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if not any(node.name in _references(other, node) for other in trees.values()):
                unused.append(f"{module}:{node.lineno} {node.name}")
    assert unused == []
