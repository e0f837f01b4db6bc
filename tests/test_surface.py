"""The public surface holds only names that something reaches.

Every name that ``empbridge`` exports must be used by package code outside
its own definition, be imported by the acceptance tests, or be listed below
with the open ROADMAP item that will call it. A name that meets none of these
is dead surface: delete it, with its own unit tests.
"""

import ast
from pathlib import Path

import empbridge

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "empbridge"

# Exported names whose first caller is an open ROADMAP item.
ROADMAP_CONSUMERS = {
    "net_radius": "item 5, the run manifest: each grid's realized net radius",
}


def _used_names(tree: ast.Module, skip: str | None = None) -> set:
    """Names and attributes that code in ``tree`` reads, outside the
    top-level definition of ``skip``."""
    used = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
    return used


MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(PACKAGE.glob("*.py"))
    if path.name != "__init__.py"
}


def _reached_in_package(name: str, home: str) -> bool:
    return any(
        name in _used_names(tree, skip=name if module == home else None)
        for module, tree in MODULES.items()
    )


def _acceptance_imports() -> set:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("empbridge")
        for alias in node.names
    }


def test_every_export_has_a_caller():
    acceptance = _acceptance_imports()
    dead = [
        f"{module}.{name}"
        for module, names in empbridge._EXPORTS.items()
        for name in names
        if name not in acceptance
        and name not in ROADMAP_CONSUMERS
        and not _reached_in_package(name, module)
    ]
    assert dead == [], f"exported names that nothing reaches: {dead}"


def test_roadmap_consumers_are_still_exported():
    exported = {name for names in empbridge._EXPORTS.values() for name in names}
    assert set(ROADMAP_CONSUMERS) <= exported
