"""The package keeps only code that feeds an output or the documented API."""

import ast
import pathlib

import walshlab

SRC = pathlib.Path(walshlab.__file__).parent


def test_every_definition_is_used_or_exported():
    """Each module-level function and class is read in `src/` or in `__all__`.

    A name counts as read when package code outside its own body loads it,
    under its own name in its module or through a relative import
    elsewhere.  Slow reference constructions belong in `tests/oracles.py`.
    """
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    defined = {
        (mod, node.name)
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    read = set()
    for mod, tree in trees.items():
        binding = {name: (home, name) for home, name in defined if home == mod}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    binding[a.asname or a.name] = (node.module, a.name)
        for stmt in tree.body:
            own = (mod, getattr(stmt, "name", None))
            read |= {
                binding[node.id]
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and binding.get(node.id, own) != own
            }
    unused = sorted(f"{m}.{n}" for m, n in defined - read if n not in walshlab.__all__)
    assert not unused, unused


def test_every_import_is_read():
    """Each name a module imports is loaded in that module.

    In `__init__.py`, listing the name in `__all__` counts as a read.
    """
    unused = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {
            (a.asname or a.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for a in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if path.name == "__init__.py":
            read |= set(walshlab.__all__)
        unused += sorted(f"{path.stem}.{name}" for name in imported - read)
    assert not unused, unused
