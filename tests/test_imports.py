"""Every name the library imports is read somewhere in its module."""

import ast
from pathlib import Path

import leibcoh

# Imported on purpose but never read, with the reason.
KEPT = {
    ("cli.py", "kernel"): "bench/tests/test_bench.py checks that tracing "
                          "restores cli.kernel",
}


def unread_imports(source: str):
    """Names bound by an import (not from __future__) that no expression
    reads and `__all__` does not re-export."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items()
            if name not in read and name not in exported}


def test_unread_imports_are_caught():
    source = "import os\nfrom a import b, c as d\nprint(d)\n"
    assert unread_imports(source) == {"os": 1, "b": 2}
    assert unread_imports("from x import y\n__all__ = ['y']\n") == {}


def test_library_reads_every_name_it_imports():
    package = Path(leibcoh.__file__).parent
    unread = [f"{path.name}:{line} {name}"
              for path in sorted(package.glob("*.py"))
              for name, line in unread_imports(path.read_text()).items()
              if (path.name, name) not in KEPT]
    assert unread == []
    for path_name, name in KEPT:
        assert name in unread_imports((package / path_name).read_text())
