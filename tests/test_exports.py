import ast
from pathlib import Path

import conbreak

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve_without_duplicates():
    names = conbreak.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(conbreak, name)] == []


def _names_used(path: Path) -> set:
    """Every bare name and attribute name read or written in a module."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_export_has_a_caller_outside_the_unit_tests():
    # an exported name that only unit tests reach is a helper to retire;
    # the package's own modules, the benchmark and the acceptance tests
    # are the callers that count
    sources = [p for p in (ROOT / "src" / "conbreak").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*(_names_used(p) for p in sources))
    assert sorted(set(conbreak.__all__) - used) == []


def _unread_imports(path: Path) -> list:
    """The names a module imports but never reads. In the package's
    `__init__`, a name listed in `__all__` counts as read."""
    imported, read = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_every_import_is_read():
    unread = {
        p.name: names
        for p in sorted((ROOT / "src" / "conbreak").glob("*.py"))
        if (names := _unread_imports(p))
    }
    assert unread == {}
