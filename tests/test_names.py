"""Every module-level name of the package is used: exported or read in ``src/``."""

import ast
from pathlib import Path

import timeopt

SRC = Path(timeopt.__file__).parent


def _defined(tree: ast.Module) -> list[str]:
    """The names a module binds at its top level by a def, a class or an assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _read(trees: list[ast.Module]) -> set[str]:
    """Every name loaded in the trees, bare or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_no_dead_module_level_names():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    exported = {name for names in timeopt._EXPORTS.values() for name in names}
    read = _read(list(trees.values()))
    dead = [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for name in _defined(tree)
        if name not in read and (name.startswith("_") or name not in exported)
    ]
    assert dead == []
