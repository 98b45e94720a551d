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


# Public methods and properties that neither the library nor the
# benchmark reads, kept on purpose, with the reason.
KEPT_METHODS = {
    "MasseyReport.record": "the lookup of one ledger record by monomial, "
                           "which the acceptance tests read the ledger with",
}


def public_methods(source: str):
    """(class, method, line) for every public method or property of a
    public top-level class."""
    tree = ast.parse(source)
    return [(cls.name, node.name, node.lineno)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def names_read(source: str, literals: bool = False) -> set:
    """Attribute names and loaded names in the source, and its string
    literals when `literals` is set.

    A `def` binds its name without reading it, so a method's own
    definition never counts.  Only the benchmark looks names up by
    `getattr` from tables of strings (its span lists), so only its
    sources count their literals: elsewhere a literal such as a catalog
    name would hide a method of the same name.
    """
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (literals and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            read.add(node.value)
    return read


def test_unread_methods_are_caught():
    source = ("class A:\n    def f(self): pass\n    def g(self): pass\n"
              "    @property\n    def h(self): pass\n    def _i(self): pass\n"
              "class _B:\n    def j(self): pass\n")
    assert public_methods(source) == [("A", "f", 2), ("A", "g", 3),
                                      ("A", "h", 5)]
    assert names_read(source) == {"property"}
    assert names_read("a.f()\nprint(g)\nx = 'h'\n") == {"f", "g", "print",
                                                        "a"}
    assert names_read("a.f()\nprint(g)\nx = 'h'\n",
                      literals=True) == {"f", "g", "h", "print", "a"}


def library_reads() -> set:
    """Names read anywhere in `src/leibcoh` or `bench/`, string
    literals counting only in `bench/`."""
    package = Path(leibcoh.__file__).parent
    bench = package.parents[1] / "bench"
    read = set()
    for path in package.glob("*.py"):
        read |= names_read(path.read_text())
    for path in bench.glob("*.py"):
        read |= names_read(path.read_text(), literals=True)
    return read


def test_library_reads_every_public_method():
    package = Path(leibcoh.__file__).parent
    read = library_reads()
    unread = {f"{cls}.{name}": f"{path.name}:{line}"
              for path in sorted(package.glob("*.py"))
              for cls, name, line in public_methods(path.read_text())
              if name not in read}
    assert sorted(set(unread) - set(KEPT_METHODS)) == []
    assert sorted(set(KEPT_METHODS) - set(unread)) == []


# Public top-level functions and classes that neither the library nor
# the benchmark reads, kept on purpose, with the reason.
KEPT_FUNCTIONS = {
    "families.specialize": "exact specialization of a family at a point, "
                           "documented in README; acceptance check 9 and "
                           "the family tests read it",
}


def public_definitions(source: str):
    """(name, line) for every public top-level function or class."""
    return [(node.name, node.lineno) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def test_unread_functions_are_caught():
    source = ("def f(): pass\nasync def g(): pass\nclass A:\n"
              "    def h(self): pass\ndef _i(): pass\nclass _B: pass\n"
              "x = f()\n")
    assert public_definitions(source) == [("f", 1), ("g", 2), ("A", 3)]
    assert {"f", "g", "A"} - names_read(source) == {"g", "A"}


def test_library_reads_every_public_function():
    package = Path(leibcoh.__file__).parent
    read = library_reads()
    unread = {f"{path.stem}.{name}": f"{path.name}:{line}"
              for path in sorted(package.glob("*.py"))
              for name, line in public_definitions(path.read_text())
              if name not in read}
    assert sorted(set(unread) - set(KEPT_FUNCTIONS)) == []
    assert sorted(set(KEPT_FUNCTIONS) - set(unread)) == []
