"""`src/choreocert` holds only what a command or the benchmark runs: every
module-level function and class has a caller outside its own body.

A caller is an import of the name or a `module.name` access from another
module of the package or of `perfbench/`, or a use in its own module outside
the definition.  The package's `__init__` re-exports do not count, and
neither do the tests: code only a test calls belongs in `tests/helpers.py`.
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


def uncalled_definitions(package: Path = PACKAGE,
                         others=(ROOT / "perfbench",)) -> list[str]:
    """`module.name` of every module-level function and class of `package`
    that nothing outside its own body calls."""
    modules = {path.stem: _parse(path) for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"}
    external: set[tuple[str, str]] = set()
    for stem, tree in modules.items():
        external |= {(m, n) for m, n in _external_uses(tree) if m != stem}
    for directory in others:
        for path in sorted(directory.glob("*.py")):
            external |= _external_uses(_parse(path))
    return [f"{stem}.{d.name}" for stem, tree in modules.items()
            for d in _definitions(tree)
            if (stem, d.name) not in external
            and not _used_in_own_module(tree, d)]


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
