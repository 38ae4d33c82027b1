"""Every module-level private function or class, and every private method of a
module-level class, in the package has a caller; every public module-level
function or class is referenced elsewhere in the package or exported by
oalsim/__init__.py; and every error class in oalsim.errors is raised or
caught somewhere in it.

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


def _unreferenced(definitions) -> list[str]:
    """The definitions that no code in the package references outside themselves.

    `definitions` maps a module body to the definitions to check in it.
    """
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    checked = [(module, node) for module, tree in trees.items() for node in definitions(tree.body)]
    assert checked
    return [
        f"{module}:{node.lineno} {node.name}"
        for module, node in checked
        if not any(node.name in _references(other, node) for other in trees.values())
    ]


def test_private_definitions_are_referenced():
    def private(body):
        return (
            node for node in _definitions(body)
            if node.name.startswith("_") and not node.name.startswith("__")
        )

    assert _unreferenced(private) == []


def test_public_definitions_are_referenced_or_exported():
    # a public name that the package neither uses nor exports from
    # oalsim/__init__.py is reachable only by its module path
    def public(body):
        return (
            node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        )

    assert _unreferenced(public) == []


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


def _names_read(tree: ast.AST) -> set[str]:
    """Names that `tree` reads, in code or in annotations, quoted ones included."""
    found = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                found |= _names_read(ast.parse(part.value, mode="eval"))
    return found


def test_imported_names_are_used():
    # a name that its module imports and never reads is a dead dependency;
    # oalsim/__init__.py imports names to export them
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.partition(".")[0]) not in read
                ]
    assert unused == []
