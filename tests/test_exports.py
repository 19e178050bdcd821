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
