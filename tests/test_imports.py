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


def attributes_read(source: str) -> set:
    """Attribute names the source loads, as `x.name`: the one way the
    library reads a method.  A bare local of the same name (a `zero`
    beside `Poly.zero`) is not a read of the method."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def string_literals(source: str) -> set:
    """The source's string literals.  Only the benchmark looks names up
    by `getattr` from tables of strings (its span lists), so only its
    literals count: elsewhere a literal such as a catalog name would hide
    a definition of the same name."""
    return {node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def names_read(source: str, literals: bool = False) -> set:
    """Attribute names and loaded names in the source, and its string
    literals when `literals` is set.

    A `def` binds its name without reading it, so a definition never
    counts as a read of itself.
    """
    read = attributes_read(source)
    read |= {node.id for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    if literals:
        read |= string_literals(source)
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
    # A local named like a method does not read it; an attribute does.
    source = ("class Poly:\n    def zero(self): pass\n"
              "    def one(self): pass\n"
              "def f(p):\n    zero = p.one()\n    return zero\n")
    methods = {name for _, name, _ in public_methods(source)}
    assert methods - attributes_read(source) == {"zero"}
    assert methods - names_read(source) == set()


def method_reads() -> set:
    """Attribute names loaded in `src/leibcoh` and string literals in
    `bench/`: the ways a public method is read."""
    package = Path(leibcoh.__file__).parent
    bench = package.parents[1] / "bench"
    read = set()
    for path in package.glob("*.py"):
        read |= attributes_read(path.read_text())
    for path in bench.glob("*.py"):
        read |= string_literals(path.read_text())
    return read


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
    read = method_reads()
    unread = {f"{cls}.{name}": f"{path.name}:{line}"
              for path in sorted(package.glob("*.py"))
              for cls, name, line in public_methods(path.read_text())
              if name not in read}
    assert sorted(set(unread) - set(KEPT_METHODS)) == []
    assert sorted(set(KEPT_METHODS) - set(unread)) == []


# Public top-level functions, classes and constants that neither the
# library nor the benchmark reads, kept on purpose, with the reason.
KEPT_FUNCTIONS = {
    "families.specialize": "exact specialization of a family at a point, "
                           "documented in README; acceptance check 9 and "
                           "the family tests read it",
}


def public_definitions(source: str):
    """(name, line) for every public top-level function or class, and
    every public upper-case name a top-level assignment binds."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [t.id for t in targets
                     if isinstance(t, ast.Name) and t.id.isupper()]
        else:
            continue
        found += [(name, node.lineno) for name in names
                  if not name.startswith("_")]
    return found


def test_unread_functions_are_caught():
    source = ("def f(): pass\nasync def g(): pass\nclass A:\n"
              "    def h(self): pass\ndef _i(): pass\nclass _B: pass\n"
              "x = f()\nC = 1\nD: int = 2\n_E = 3\nlower = 4\n"
              "__all__ = []\nprint(D)\n")
    assert public_definitions(source) == [("f", 1), ("g", 2), ("A", 3),
                                          ("C", 8), ("D", 9)]
    assert {"f", "g", "A", "C", "D"} - names_read(source) == {"g", "A",
                                                              "C"}


def test_library_reads_every_public_function():
    package = Path(leibcoh.__file__).parent
    read = library_reads()
    unread = {f"{path.stem}.{name}": f"{path.name}:{line}"
              for path in sorted(package.glob("*.py"))
              for name, line in public_definitions(path.read_text())
              if name not in read}
    assert sorted(set(unread) - set(KEPT_FUNCTIONS)) == []
    assert sorted(set(KEPT_FUNCTIONS) - set(unread)) == []
