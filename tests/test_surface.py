"""The public surface holds only names, fields, parameters and methods that
something reaches.

Every name that ``empbridge`` exports must be used by package code outside
its own definition, be imported by the acceptance tests, or be listed below
with the open ROADMAP item that will call it. Every field of a dataclass in
the package must be read as an attribute by package code or by the
acceptance tests, or be listed below with its reason. Every parameter with a
default and every method or property must be passed or read by package
code, the acceptance tests or the benchmark scripts (``perfbench``, the only
caller of ``cli.main(argv)``), or be listed below with its reason. A name,
field, parameter or method that meets none of these is dead surface: delete
it, with its own unit tests.
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

# Parameters with a default that no call in package code, the acceptance tests
# or the benchmark scripts passes.
UNPASSED_PARAMETERS = {
    "fit_rate.x_col": "item 4, the rate report: fits the sup_mesh and strong columns",
    "fit_rate.y_col": "item 4, the rate report: fits the sup_mesh and strong columns",
    "dudley_integral_quadrature.tol": "the reference quadrature; tests tighten it to 1e-10",
}

# Methods and properties that no package code, acceptance test or benchmark
# script reads.
UNREAD_METHODS = {
    "FunctionClass.to_spec": "item 5, the run manifest: its to_dict() consumes it",
    "Distribution.to_spec": "item 5, the run manifest: its to_dict() consumes it",
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


PERFBENCH = [
    ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))
]
CALLERS = [*MODULES.values(), ACCEPTANCE, *PERFBENCH]


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


def _functions() -> list:
    """(name, definition, bound) for every function and method in the package.

    A method is named "Class.method" and is bound: its first parameter is
    the instance, which no call passes.
    """
    out = []
    for tree in MODULES.values():
        owner = {
            item: node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                name = f"{owner[node]}.{node.name}" if node in owner else node.name
                out.append((name, node, node in owner))
    return out


def _defaulted(node: ast.FunctionDef, bound: bool) -> list:
    """(parameter, call position) for each parameter with a default; a
    keyword-only parameter has no call position."""
    positional = [a.arg for a in node.args.posonlyargs + node.args.args][int(bound):]
    first = len(positional) - len(node.args.defaults)
    out = [(name, index) for index, name in enumerate(positional) if index >= first]
    out += [
        (a.arg, None)
        for a, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
        if default is not None
    ]
    return out


def _calls_by_name() -> dict:
    calls = {}
    for tree in CALLERS:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword, by position, or through
    ``*args`` or ``**kwargs``, which may carry any parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_keyword_parameter_has_a_caller():
    calls = _calls_by_name()
    unpassed = [
        f"{name.split('.')[-1]}.{param}"
        for name, node, bound in _functions()
        for param, index in _defaulted(node, bound)
        if not any(_passes(c, param, index) for c in calls.get(node.name, []))
    ]
    dead = sorted(set(unpassed) - set(UNPASSED_PARAMETERS))
    assert dead == [], f"parameters with a default that no call passes: {dead}"


def test_every_method_has_a_caller():
    read = set().union(*map(_attributes_read, CALLERS))
    unread = [
        name
        for name, _, bound in _functions()
        if bound and name.split(".")[1] not in read and name not in UNREAD_METHODS
    ]
    assert unread == [], f"methods and properties that nothing reads: {unread}"


def test_listed_parameters_and_methods_still_exist():
    functions = _functions()
    parameters = {
        f"{name.split('.')[-1]}.{param}"
        for name, node, bound in functions
        for param, _ in _defaulted(node, bound)
    }
    assert set(UNPASSED_PARAMETERS) <= parameters
    assert set(UNREAD_METHODS) <= {name for name, _, bound in functions if bound}
