"""The package keeps only code that feeds an output or the documented API."""

import ast
import pathlib
import re

import walshlab

SRC = pathlib.Path(walshlab.__file__).parent
README = SRC.parents[1] / "README.md"

# methods without a caller in `src/` that stay until they move or gain one
UNREAD_METHODS: set = set()


def _definitions_and_reads():
    """The (module, name) of each module-level function and class, and those read.

    A name counts as read when package code outside its own body loads it,
    under its own name in its module or through a relative import
    elsewhere.
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
    return defined, read


def test_every_definition_is_used_or_exported():
    """Each module-level function and class is read in `src/` or in `__all__`.

    Slow reference constructions belong in `tests/oracles.py`.
    """
    defined, read = _definitions_and_reads()
    unused = sorted(f"{m}.{n}" for m, n in defined - read if n not in walshlab.__all__)
    assert not unused, unused


def test_every_export_is_used_or_documented():
    """Each name in `__all__` is read in `src/` or listed in the README API paragraph."""
    _, read = _definitions_and_reads()
    unread = set(walshlab.__all__) - {name for _, name in read} - _api_names()
    assert not unread, sorted(unread)


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


def _api_names():
    """The backticked names of the README paragraph that lists the public API."""
    text = README.read_text()
    (paragraph,) = [p for p in text.split("\n\n") if "stay public API" in p]
    return set(re.findall(r"`([\w.]+)`", paragraph))


def test_every_method_is_used_or_documented():
    """Each public method of a package class is read in `src/` or documented.

    A method counts as read when package code outside its own body loads
    an attribute of its name (on any object: attribute reads carry no
    type).  Otherwise the README's API paragraph must list it as
    `Class.method`, or it is one of UNREAD_METHODS, which only shrinks.
    """
    trees = [ast.parse(p.read_text()) for p in SRC.glob("*.py")]
    methods = {
        f"{cls.name}.{node.name}": node
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    bodies = {id(node): name for name, node in methods.items()}
    reads = set()  # (attribute name, method whose body holds the read)

    def visit(node, inside):
        inside = bodies.get(id(node), inside)
        if isinstance(node, ast.Attribute):
            reads.add((node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in trees:
        visit(tree, None)
    unread = {
        name
        for name, node in methods.items()
        if not any(attr == node.name and inside != name for attr, inside in reads)
    }
    assert UNREAD_METHODS <= unread, sorted(UNREAD_METHODS - unread)
    undocumented = sorted(unread - UNREAD_METHODS - _api_names())
    assert not undocumented, undocumented


def test_no_function_imports_from_the_package():
    """Package modules import each other at module level only.

    No two package modules import each other, so a relative import inside
    a function body only hides a dependency.  An import of another package
    that costs set-up time may still be deferred.
    """
    inside = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [
                    f"{path.stem}.{fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                ]
    assert not inside, sorted(inside)
