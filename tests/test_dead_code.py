"""Every module-level private function or class, and every private method of a
module-level class, in the package has a caller, and every error class in
oalsim.errors is raised or caught somewhere in it.

A private name is one that starts with a single underscore; nothing outside
the package may use it, so a private name that no other code in the package
references is dead. A method is referenced by attribute name, so a call
through any object with that attribute counts.
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


def _definitions(body: list[ast.stmt]):
    """Functions and classes defined in `body`, and the private methods of its classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )


def test_private_definitions_are_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    checked = 0
    for module, tree in trees.items():
        for node in _definitions(tree.body):
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            checked += 1
            if not any(node.name in _references(other, node) for other in trees.values()):
                unused.append(f"{module}:{node.lineno} {node.name}")
    assert checked > 0
    assert unused == []


def test_error_classes_are_raised_or_caught():
    # an exception class the package never raises or handles only documents a
    # failure that cannot happen
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    used: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= _references(node.exc, None)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= _references(node.type, None)
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    assert len(classes) > 5
    assert [name for name in classes if name not in used] == []
