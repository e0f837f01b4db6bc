"""The public surface holds only names and fields that something reaches.

Every name that ``empbridge`` exports must be used by package code outside
its own definition, be imported by the acceptance tests, or be listed below
with the open ROADMAP item that will call it. Every field of a dataclass in
the package must be read as an attribute by package code or by the
acceptance tests, or be listed below with its reason. A name or field that
meets none of these is dead surface: delete it, with its own unit tests.
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

# Dataclass fields that no package code or acceptance test reads.
UNREAD_FIELDS = {
    "BridgeModel.repair": "item 5, the run manifest: each factorization's eigenvalue clamp",
    "ConditionalLaw.repair": "item 5, the run manifest: each conditional law's clamp",
    "EpsilonSelection.capped": "item 5, the run manifest: whether a br radius hit its cap",
    "CouplingRealization.y_sum": "tests check sup_grid and the Y-sum against the process",
    "CouplingRealization.z_sum": "tests check sup_grid as the sup of y_sum - z_sum",
    "BoundReport.extras": "tests check each bound's intermediate terms",
    "BracketSet.brackets": "tests check that the brackets tile and cover the class",
    "ConditionalLaw.schur": "tests check staged conditioning against the one-stage Schur complement",
    "MomentEstimate.exhaustive": "tests check which path, exact or Monte Carlo, gave the estimate",
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


ACCEPTANCE = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))


def _acceptance_imports() -> set:
    return {
        alias.name
        for node in ast.walk(ACCEPTANCE)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("empbridge")
        for alias in node.names
    }


def _attributes_read(tree: ast.AST) -> set:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _dataclass_fields() -> list:
    """"Class.field" for every field of every dataclass in the package."""
    fields = []
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(getattr(d, "id", None) == "dataclass" for d in decorators):
                fields += [
                    f"{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    return fields


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


def test_every_dataclass_field_has_a_reader():
    read = set().union(*map(_attributes_read, MODULES.values()), _attributes_read(ACCEPTANCE))
    unread = [
        name
        for name in _dataclass_fields()
        if name.split(".")[1] not in read and name not in UNREAD_FIELDS
    ]
    assert unread == [], f"dataclass fields that nothing reads: {unread}"


def test_listed_fields_still_exist():
    assert set(UNREAD_FIELDS) <= set(_dataclass_fields())
