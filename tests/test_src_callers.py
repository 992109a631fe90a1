"""`src/choreocert` holds only what a command or the benchmark runs: every
module-level function and class has a caller outside its own body, every
public method of a class has a reader outside its own body, and every
dataclass field has a reader.

A caller is an import of the name or a `module.name` access from another
module of the package or of `perfbench/`, or a use in its own module outside
the definition.  A reader is an attribute read `.name` anywhere in the
package or in `perfbench/`, for a method outside its own body; attributes
are matched by name, so a field or a method shares its reader with any
same-named attribute.  The package's `__init__` re-exports do not count, and
neither do the tests: code only a test calls belongs in `tests/helpers.py`,
and a field only a test reads is a record nobody keeps.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "choreocert"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _external_uses(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs a file imports from the package or reads as
    `module.name`."""
    uses, aliases = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = "." * node.level + (node.module or "")
        if source in (".", "choreocert"):              # from . import m as a
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif source.startswith((".", "choreocert.")):  # from .m import name
            module = source.rsplit(".", 1)[1]
            uses.update((module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.add((aliases[node.value.id], node.attr))
    return uses


def _definitions(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _used_in_own_module(tree: ast.Module, definition) -> bool:
    inside = range(definition.lineno, definition.end_lineno + 1)
    return any(isinstance(node, ast.Name) and node.id == definition.name
               and node.lineno not in inside for node in ast.walk(tree))


def _modules(package: Path) -> dict[str, ast.Module]:
    return {path.stem: _parse(path) for path in sorted(package.glob("*.py"))
            if path.name != "__init__.py"}


def _other_trees(others) -> list[ast.Module]:
    return [_parse(path) for directory in others
            for path in sorted(directory.glob("*.py"))]


def uncalled_definitions(package: Path = PACKAGE,
                         others=(ROOT / "perfbench",)) -> list[str]:
    """`module.name` of every module-level function and class of `package`
    that nothing outside its own body calls."""
    modules = _modules(package)
    external: set[tuple[str, str]] = set()
    for stem, tree in modules.items():
        external |= {(m, n) for m, n in _external_uses(tree) if m != stem}
    for tree in _other_trees(others):
        external |= _external_uses(tree)
    return [f"{stem}.{d.name}" for stem, tree in modules.items()
            for d in _definitions(tree)
            if (stem, d.name) not in external
            and not _used_in_own_module(tree, d)]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _attribute_reads(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(package: Path = PACKAGE,
                  others=(ROOT / "perfbench",)) -> list[str]:
    """`module.Class.field` of every dataclass field of `package` that no
    code of the package or of `others` reads as an attribute."""
    modules = _modules(package)
    reads = set().union(*map(_attribute_reads,
                             [*modules.values(), *_other_trees(others)]))
    return [f"{stem}.{cls.name}.{item.target.id}"
            for stem, tree in modules.items()
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            for item in cls.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.target.id not in reads]


def _attribute_read_lines(tree: ast.Module) -> list[tuple[str, int]]:
    return [(node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)]


def unread_methods(package: Path = PACKAGE,
                   others=(ROOT / "perfbench",)) -> list[str]:
    """`module.Class.method` of every public method of a class of `package`
    that no code of the package or of `others` reads as an attribute
    outside the method's own body."""
    modules = _modules(package)
    module_reads = {stem: _attribute_reads(t) for stem, t in modules.items()}
    other_reads = set().union(*map(_attribute_reads, _other_trees(others)))
    unread = []
    for stem, tree in modules.items():
        reads = other_reads.union(*(r for s, r in module_reads.items()
                                    if s != stem))
        own_reads = _attribute_read_lines(tree)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (not isinstance(fn, ast.FunctionDef)
                        or fn.name.startswith("_") or fn.name in reads):
                    continue
                body = range(fn.lineno, fn.end_lineno + 1)
                if not any(name == fn.name and line not in body
                           for name, line in own_reads):
                    unread.append(f"{stem}.{cls.name}.{fn.name}")
    return unread


def test_every_definition_has_a_caller():
    assert uncalled_definitions() == []


def test_the_guard_sees_a_test_only_definition(tmp_path):
    # a module-level function that only its own body and a test would call
    package = tmp_path / "choreocert"
    package.mkdir()
    (package / "__init__.py").write_text("from .a import used, unused\n")
    (package / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def unused(n):\n    return unused(n - 1) if n else used()\n")
    (package / "b.py").write_text("from . import a as m\n\nX = m.used\n")
    assert uncalled_definitions(package, others=()) == ["a.unused"]


def test_every_dataclass_field_has_a_reader():
    assert unread_fields() == []


def test_the_guard_sees_a_field_only_a_test_reads(tmp_path):
    # `unread` is written by its module and read by a test alone; a
    # store is no read
    package = tmp_path / "choreocert"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(eq=False)\nclass Record:\n    read: int\n"
        "    unread: int = 0\n\n\n"
        "def total(r):\n    r.unread = r.read\n    return r.read\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text(
        "from choreocert.a import Record\n\n\n"
        "def test_unread():\n    assert Record(1, 2).unread == 2\n")
    assert unread_fields(package, others=()) == ["a.Record.unread"]
    # the same read from a directory the guard scans counts
    assert unread_fields(package, others=(tests,)) == []


def test_every_public_method_has_a_reader():
    assert unread_methods() == []


def test_the_guard_sees_a_method_only_a_test_calls(tmp_path):
    # `unused` calls itself and a test calls it; `used` is read from
    # another module, and `_private` by nobody
    package = tmp_path / "choreocert"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text(
        "class Box:\n    def used(self):\n        return 1\n\n"
        "    def unused(self, n):\n"
        "        return self.unused(n - 1) if n else self.used()\n\n"
        "    def _private(self):\n        return 0\n")
    (package / "b.py").write_text(
        "from .a import Box\n\n\ndef one():\n    return Box().used()\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text(
        "from choreocert.a import Box\n\n\n"
        "def test_unused():\n    assert Box().unused(2) == 1\n")
    assert unread_methods(package, others=()) == ["a.Box.unused"]
    # the same call from a directory the guard scans counts
    assert unread_methods(package, others=(tests,)) == []
