"""Experiment orchestration: configs, replication, rate fits, persistence.

A single JSON config describes one experiment (kind, class, distribution,
selection regime, grids, replication count, master seed, constant overrides,
output). Replications are independent tasks keyed by (master seed,
replication index); a replication that fails numerically or on a capacity
budget is counted, never fatal, unless failures exceed one percent, while any
other exception ends the run. Reduction is by replication index, so results
are identical for any worker count, and all file output is byte-stable:
floats are written with shortest round-trip representation and JSON keys are
sorted.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .bounds import (
    BoundConstants,
    br_moment_bound,
    combined_tail_empirical,
    combined_tail_gaussian,
    error_budget,
    talagrand_tail,
    vc_moment_bound,
)
from .exponents import _as_fraction, rate_br, rate_vc
from .blocking import block_contexts, path_envelope, run_sequential, schedule_br, schedule_vc
from .coupling import (
    OT_EXACT_LIMIT,
    check_method,
    construct_joint,
    prepare_coupling,
    select_delta_t,
    select_epsilon,
)
from .distributions import Distribution
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateFitError,
    DomainError,
    NumericError,
    UnsupportedOperationError,
)
from .function_classes import (
    EntropyRegime,
    FunctionClass,
    bracketing_set,
    covering_certificate,
    dP_matrix,
    fit_entropy_counts,
    mesh_cdf,
)
from .seeds import replication_seed

COUPLE_HEADER = (
    "n",
    "rep",
    "seed",
    "epsilon",
    "delta",
    "t",
    "sup_grid",
    "sup_mesh",
    "transport_cost",
)
STRONG_HEADER = ("run_id", "regime", "N", "t_N", "m_star", "max_discrepancy", "normalized")
ENTROPY_HEADER = ("epsilon", "cover_lower", "cover_upper", "exact", "bracketing")

# The top-level keys and blocks each kind's run reads. ExperimentConfig refuses
# any other set field but the run settings, which every kind reads and which
# mirror the CLI flags.
_READ_BY = {
    "gauss-approx": ("class", "distribution", "selection", "n_grid", "ot_batch", "method",
                     "eval_mesh_size", "gamma1", "gamma2", "reps", "labels"),
    "couple": ("class", "distribution", "selection", "n_grid", "ot_batch", "method",
               "eval_mesh_size", "gamma1", "gamma2"),
    "strong-approx": ("class", "distribution", "selection", "reps", "labels", "schedule"),
    "entropy": ("class", "distribution", "entropy"),
    "bounds-audit": ("selection", "gamma1", "gamma2", "constants", "audit"),
}
_RUN_SETTINGS = ("kind", "seed", "out", "format", "workers")
KINDS = tuple(_READ_BY)

# The failures one replication may have without ending the run; programming
# and config errors propagate.
REPLICATION_ERRORS = (NumericError, CapacityError, np.linalg.LinAlgError)

# -- config grammar ------------------------------------------------------------
#
# Each config object is described by one table, key -> (converter, default),
# and read by ``_parse``: a key that its table does not list, or a value that
# its converter refuses, is a ConfigError naming the dotted key. Objects with a
# "kind" (or "type") pick their table by it, through ``_parse_tagged``, and an
# absent key takes its default; ExperimentConfig fills its fields and blocks
# through ``_gated``.


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {type(value).__name__}")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"must be an object, got {type(value).__name__}")
    return dict(value)  # a copy, so that no two configs share a default


def _list_of(convert):
    def parse(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"must be a list, got {type(value).__name__}")
        return tuple(convert(v) for v in value)

    return parse


def _int(value) -> int:  # an integral float too, as JSON may write it; never a bool
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _batch(value):
    return _list_of(_int)(value) if isinstance(value, (list, tuple)) else _int(value)


def _number(value):  # an int or a float, unchanged: a report echoes it as given
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {type(value).__name__}")
    return value


def _fraction(value) -> Fraction:
    try:
        return _as_fraction(value)
    except ConfigError as exc:  # raised again as a converter failure, naming the key
        raise ValueError(str(exc)) from None


def _convert(name: str, convert, value):
    try:
        return convert(value)
    except ConfigError:  # a nested object's error already names its key
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config field {name!r}: {exc}") from exc


def _parse(path: str, table: dict, spec) -> dict:
    """The keys given in config object ``spec`` at dotted ``path``, converted."""
    if not isinstance(spec, dict):
        raise ConfigError(f"config field {path!r} must be an object")
    prefix = f"{path}." if path else ""
    unknown = sorted(f"{prefix}{key}" for key in spec if key not in table)
    if unknown:
        raise ConfigError(f"unknown config fields: {unknown}")
    return {key: _convert(prefix + key, table[key][0], value) for key, value in spec.items()}


def _parse_tagged(path: str, tables: dict, spec, tag: str = "kind") -> dict:
    """A config object whose ``tag`` value picks its table from ``tables``."""
    if not isinstance(spec, dict) or tag not in spec:
        raise ConfigError(f"config field {path!r} must be an object with a {tag!r}")
    name = spec[tag]
    if not isinstance(name, str) or name not in tables:
        raise ConfigError(f"unknown {path} {tag} {name!r}")
    table = {tag: (_text, name), **tables[name]}
    return {key: default for key, (_, default) in table.items()} | _parse(path, table, spec)


def _gated(path: str, table: dict, given: dict, readers: dict, what: str, run: str) -> dict:
    """The keys of ``table`` that a ``run`` reads, each its ``given`` value or,
    left out or None (unset), its default converted. ``readers`` maps a dotted
    key to the ``what`` values that read it, every one where it lists none; a
    key that ``run`` does not read is left out, and a ConfigError if set."""
    out = {}
    for key, (convert, default) in table.items():
        value, read = given.get(key), readers.get(path + key, (run,))
        if run in read:
            out[key] = _convert(path + key, convert, default) if value is None else value
        elif value is not None:
            raise ConfigError(
                f"config field {path + key!r} is read only under a {' or '.join(read)} "
                f"{what}, not {run}"
            )
    return out


_REGIMES = {
    "vc": {"c0": (float, 1.0), "nu0": (float, 1.0)},
    "br": {"b0": (float, 1.0), "r0": (float, 0.5)},
}


def regime_from_spec(spec: dict, field: str) -> EntropyRegime:
    """Build an EntropyRegime from the config object {"type": "vc"|"br", ...} at ``field``."""
    keys = _parse_tagged(field, _REGIMES, spec, tag="type")
    return EntropyRegime(keys.pop("type"), **keys)


_MEMBER = {"form": (_text, None), "theta": (lambda v: v, None)}  # both required


def _member(value) -> tuple:
    """A finite-class member: [form, theta] or {"form": ..., "theta": ...}."""
    if isinstance(value, dict):
        keys = _parse("class.members", _MEMBER, value)
        missing = [f"class.members.{key}" for key in _MEMBER if key not in keys]
        if missing:
            raise ConfigError(f"missing config fields: {missing}")
        return keys["form"], keys["theta"]
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise TypeError(f"a member must be [form, theta], got {value!r}")
    return tuple(value)


_CLASS_COMMON = {
    "M": (float, 2.0),
    "regime": (lambda v: regime_from_spec(v, "class.regime"), None),  # None: the kind's default
}
_CLASSES = {
    "intervals": {**_CLASS_COMMON, "mesh_size": (_int, 1000)},
    "rectangles": {**_CLASS_COMMON, "mesh_size": (_int, 1000), "dim": (_int, 2)},
    "holder": {**_CLASS_COMMON, "mesh_size": (_int, 64), "s": (float, 1.0), "R": (float, 1.0),
               "knots": (_int, 9), "mesh_seed": (_int, 20260815)},
    "finite": {**_CLASS_COMMON, "members": (_list_of(_member), ())},
}
# Class config keys named otherwise in FunctionClass.
_CLASS_FIELDS = {"M": "envelope", "s": "holder_exponent", "R": "holder_radius", "knots": "knot_count"}


def class_from_spec(spec: dict) -> FunctionClass:
    """Build a FunctionClass from a "class" config object."""
    keys = _parse_tagged("class", _CLASSES, spec)
    return FunctionClass(**{_CLASS_FIELDS.get(k, k): v for k, v in keys.items()})


def _atom(value):
    return tuple(value) if isinstance(value, (list, tuple)) else float(value)


_DISTRIBUTIONS = {
    "uniform": {"dim": (_int, 1)},
    "product-uniform": {"dim": (_int, 1)},
    "beta": {"dim": (_int, 1), "a": (float, 1.0), "b": (float, 1.0)},
    # dim None: the length of the first atom, 1 for scalar atoms.
    "discrete": {
        "dim": (_optional(_int), None), "atoms": (_list_of(_atom), ()), "weights": (tuple, ()),
    },
}


def distribution_from_spec(spec: dict) -> Distribution:
    """Build a Distribution from a "distribution" config object."""
    keys = _parse_tagged("distribution", _DISTRIBUTIONS, spec)
    if keys["dim"] is None:
        first = keys["atoms"][0] if keys["atoms"] else 0.0
        keys["dim"] = len(first) if isinstance(first, tuple) else 1
    return Distribution(**keys)


def _spec(value):
    """The config form of ``value``, read from the parsers' tables: a class or
    a law is its "kind" and each key of its kind's table (class keys read
    through ``_CLASS_FIELDS``), a regime its "type" and ``_REGIMES`` keys, a
    tuple a list, and anything else itself. The ``*_from_spec`` parsers
    invert it."""
    if isinstance(value, EntropyRegime):
        return {"type": value.kind} | {key: getattr(value, key) for key in _REGIMES[value.kind]}
    if isinstance(value, (FunctionClass, Distribution)):
        is_class = isinstance(value, FunctionClass)
        table, fields = (_CLASSES, _CLASS_FIELDS) if is_class else (_DISTRIBUTIONS, {})
        keys = table[value.kind]
        return {"kind": value.kind} | {k: _spec(getattr(value, fields.get(k, k))) for k in keys}
    if isinstance(value, tuple):
        return [_spec(v) for v in value]
    return value


# The blocks that only some kinds read.
_SCHEDULE = {
    "N_grid": (_list_of(_int), (4, 6, 8)),
    "m": (_int, 48),
    "budget": (_int, 500_000),
    "eval_mesh_size": (_int, 9),
    "alpha": (_fraction, Fraction(5)),
    "kappa": (_optional(_fraction), None),  # None: (1 - r0) / (2 r0)
}
_ENTROPY = {"radii": (_list_of(float), (0.6, 0.45, 0.3, 0.2, 0.15))}
_AUDIT = {  # Talagrand-tail inputs first, then vc-moment, br-moment and error-budget ones
    "n": (_int, 1024), "M": (float, 1.0), "sigma2": (float, 0.25),
    "t_grid": (_list_of(float), (0.5, 1.0, 2.0)), "sym_moment": (_number, 0.5),
    "sigma": (_optional(float), None),  # None: 1/16 for vc-moment, 0.25 for br-moment
    "beta": (float, 1.0), "v": (float, 2.0), "c": (float, 2.0), "M_sup": (float, 0.25),
    "b0": (float, 1.0), "r0": (float, 0.5),
    "epsilon": (float, 0.25), "budget_n_grid": (_list_of(_int), (1024, 4096, 16384)),
}
_BLOCKS = {"schedule": _SCHEDULE, "entropy": _ENTROPY, "audit": _AUDIT}
# Schedule key -> the selection types whose block schedule reads it.
_READERS = {"schedule.alpha": ("vc",), "schedule.kappa": ("br",)}

# Top-level config key -> (converter, default), the default as a config gives it.
_FIELDS = {
    "kind": (_text, "gauss-approx"),
    "class": (class_from_spec, {"kind": "intervals"}),
    "distribution": (distribution_from_spec, {"kind": "uniform"}),
    "selection": (lambda v: regime_from_spec(v, "selection"), {"type": "vc"}),
    "n_grid": (_list_of(_int), (256, 1024, 4096)),
    "reps": (_int, 1),
    "seed": (_int, 20260815),
    "constants": (lambda v: BoundConstants(**v), {}),
    "gamma1": (float, 1.0),
    "gamma2": (float, 1.0),
    "ot_batch": (_batch, 256),
    "method": (_optional(_text), None),  # None: quantile for couple runs of intervals, else exact
    "eval_mesh_size": (_int, 201),
    "workers": (_int, 1),
    "out": (_optional(_text), None),
    "format": (_text, "csv"),
    "labels": (_object, {}),
    "schedule": (_object, {}),
    "entropy": (_object, {}),
    "audit": (_object, {}),
}
# Config keys named otherwise in ExperimentConfig.
_CONFIG_FIELDS = {"class": "cls", "distribution": "dist"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked as a run of its ``kind``.

    A field left None is unset. A field that the kind reads takes its
    ``_FIELDS`` default when unset, and its blocks their table defaults; a
    field that it does not read stays None, and setting one is a ConfigError.
    The schedule keys that one selection type reads (``_READERS``) follow the
    same rule, left out of the block where unread.
    """

    kind: str | None = None
    cls: FunctionClass | None = None
    dist: Distribution | None = None
    selection: EntropyRegime | None = None
    n_grid: tuple | None = None
    reps: int | None = None
    seed: int | None = None
    constants: BoundConstants | None = None
    gamma1: float | None = None
    gamma2: float | None = None
    ot_batch: int | tuple | None = None
    method: str | None = None
    eval_mesh_size: int | None = None
    workers: int | None = None
    out: str | None = None
    format: str | None = None
    labels: dict | None = None
    schedule: dict | None = None
    entropy: dict | None = None
    audit: dict | None = None

    def __post_init__(self):
        kind = _FIELDS["kind"][1] if self.kind is None else self.kind
        if kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        given = {key: getattr(self, _CONFIG_FIELDS.get(key, key)) for key in _FIELDS}
        readers = {key: [k for k, read in _READ_BY.items() if key in read]
                   for key in _FIELDS if key not in _RUN_SETTINGS}
        fields = _gated("", _FIELDS, given, readers, "kind", kind)
        for key in _FIELDS:
            object.__setattr__(self, _CONFIG_FIELDS.get(key, key), fields.get(key))
        selection = getattr(self.selection, "kind", None)
        for block, table in _BLOCKS.items():
            if getattr(self, block) is None:
                continue
            keys = _parse(block, table, getattr(self, block))
            object.__setattr__(
                self, block, _gated(f"{block}.", table, keys, _READERS, "selection", selection)
            )
            for key, value in getattr(self, block).items():
                if value == ():
                    raise ConfigError(f"config field '{block}.{key}' must be a nonempty list")
        # Each test checks a field that the kind reads, and is written so that NaN fails it.
        if self.entropy is not None:
            radii = self.entropy["radii"]
            if not (all(0 < r < 1 for r in radii) and all(b < a for a, b in zip(radii, radii[1:]))):
                raise ConfigError(
                    "config field 'entropy.radii' must decrease strictly within (0, 1), "
                    f"got {radii}"
                )
        if self.audit is not None and not all(t > 0 for t in self.audit["t_grid"]):
            raise ConfigError(
                f"config field 'audit.t_grid' must hold values > 0, got {self.audit['t_grid']}"
            )
        if self.reps is not None and self.reps < 1:
            raise ConfigError("replication count must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.n_grid is not None and not self.n_grid:
            raise ConfigError("n grid must be nonempty")
        if self.n_grid is not None and any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n grid must be strictly increasing")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        if self.workers < 1:
            raise ConfigError("worker count must be >= 1")
        if self.gamma1 is not None and not (self.gamma1 > 0 and self.gamma2 > 0):
            raise ConfigError(f"gamma1 and gamma2 must be > 0, got {self.gamma1}, {self.gamma2}")
        if self.ot_batch is not None:  # read with method and eval_mesh_size by approx and couple
            batches = self.ot_batch if isinstance(self.ot_batch, tuple) else (self.ot_batch,)
            if any(int(b) < 1 for b in batches):
                raise ConfigError("ot_batch entries must be >= 1")
            if isinstance(self.ot_batch, tuple) and len(self.ot_batch) != len(self.n_grid):
                raise ConfigError("per-n ot_batch needs one entry per n_grid value")
            if self.method is None:
                quantile = self.kind == "couple" and self.cls.kind == "intervals"
                object.__setattr__(self, "method", "quantile" if quantile else "exact")
            check_method(self.method, self.cls)
            if self.method == "exact" and any(int(b) > OT_EXACT_LIMIT for b in batches):
                raise ConfigError(f"ot_batch entries must be <= {OT_EXACT_LIMIT}")
            if self.eval_mesh_size < 1:
                raise ConfigError(f"eval_mesh_size must be >= 1, got {self.eval_mesh_size}")
        if self.schedule is not None:
            m, mesh_size = self.schedule["m"], self.schedule["eval_mesh_size"]
            if m < 1:
                raise ConfigError(f"schedule m must be >= 1, got {m}")
            if m > OT_EXACT_LIMIT:
                raise ConfigError(f"schedule m must be <= {OT_EXACT_LIMIT}, got {m}")
            if mesh_size < 1:
                raise ConfigError(f"schedule eval_mesh_size must be >= 1, got {mesh_size}")

    def batch_for(self, i: int) -> int:
        """Transport batch size for the i-th n_grid entry."""
        return int(self.ot_batch[i]) if isinstance(self.ot_batch, tuple) else int(self.ot_batch)


def config_from_dict(spec: dict) -> ExperimentConfig:
    if not isinstance(spec, dict):
        raise ConfigError("config must be a JSON object")
    keys = _parse("", _FIELDS, spec)
    return ExperimentConfig(**{_CONFIG_FIELDS.get(k, k): v for k, v in keys.items()})


def load_config(path: str, kind: str | None = None) -> ExperimentConfig:
    """The config in a JSON file, checked as a run of ``kind`` if one is given."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if kind is not None and isinstance(spec, dict):
        spec = {**spec, "kind": kind}
    return config_from_dict(spec)


@dataclass(frozen=True, eq=False)
class ResultTable:
    header: tuple
    rows: tuple
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]

    def to_csv_text(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        doc = {"header": list(self.header), "rows": [list(r) for r in self.rows], "meta": self.meta}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render(obj, format: str) -> str:
    """The text of a table or JSON-serializable document; same input, same bytes."""
    if isinstance(obj, ResultTable):
        return obj.to_csv_text() if format == "csv" else obj.to_json_text()
    if format == "csv":
        raise ConfigError("only tables can be written as CSV")
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def emit(obj, path: str, format: str = "csv") -> None:
    """Write ``render(obj, format)`` to ``path``, making its directory."""
    text = render(obj, format)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _prepare_at(config: ExperimentConfig, n: int, mesh: tuple):
    """The radius, delta and t selected at sample size n, and the coupling
    context prepared at that radius on evaluation mesh ``mesh``."""
    sel = config.selection
    eps = select_epsilon(sel, n)
    delta, t = select_delta_t(eps, sel.kind, config.gamma1, config.gamma2, r0=sel.r0)
    ctx = prepare_coupling(config.cls, config.dist, eps, eval_mesh=mesh, method=config.method)
    return eps, delta, t, ctx


def _eval_mesh(cls: FunctionClass, size: int) -> tuple:
    mesh = list(cls.mesh)
    if size >= len(mesh):
        return tuple(mesh)
    # The rounded indices are sorted; keep each one that differs from the one
    # before it (np.unique would load numpy.ma).
    idx = np.linspace(0, len(mesh) - 1, size).round().astype(int)
    return tuple(mesh[i] for i in idx[np.diff(idx, prepend=-1) > 0])


def _couple_task(context, n, batch, master, rep):
    real = construct_joint(context, n, batch, replication_seed(master, rep))
    return real.sup_grid, real.sup_mesh, real.transport_cost


def _strong_task(schedule, contexts, master, rep, **kw):
    return run_sequential(schedule, contexts, replication_seed(master, rep), **kw)


def _attempt(job):
    task, rep = job
    try:
        return True, task(rep)
    except REPLICATION_ERRORS as exc:
        return False, f"{type(exc).__name__}: {exc}"


def _replicate(config: ExperimentConfig, tasks: list) -> tuple[list, dict]:
    """Run ``task(rep)`` for every (label, size, task) triple and replication index.

    All jobs go out in one pass, through one process pool when
    ``config.workers`` exceeds one, and come back in (task, rep) order for
    any worker count. The pool receives them heaviest first, by the task's
    sample count ``size`` (stable among equal sizes), so that the largest
    jobs do not all land in the last chunks; the order of dispatch changes no
    result. A replication that fails with one of ``REPLICATION_ERRORS`` is
    counted under ``"<label> rep=<rep>"``; the run aborts if more than one
    percent of all replications fail. Returns the (task index, rep, result)
    triples of the successes and the table meta.
    """
    jobs = [(task, rep) for _, _, task in tasks for rep in range(config.reps)]
    if config.workers == 1:
        outcomes = map(_attempt, jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        order = sorted(range(len(jobs)), key=lambda j: -tasks[j // config.reps][1])
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunk = max(1, len(jobs) // (4 * config.workers))
            outcomes = [None] * len(jobs)
            heaviest_first = pool.map(_attempt, [jobs[j] for j in order], chunksize=chunk)
            for j, outcome in zip(order, heaviest_first):
                outcomes[j] = outcome
    done, failures = [], []
    for j, (ok, value) in enumerate(outcomes):
        i, rep = divmod(j, config.reps)
        if ok:
            done.append((i, rep, value))
        else:
            failures.append(f"{tasks[i][0]} rep={rep}: {value}")
    if len(failures) > 0.01 * len(jobs):
        raise NumericError(
            f"{len(failures)} of {len(jobs)} replications failed; first: {failures[0]}"
        )
    meta = {"failures": len(failures), "failure_messages": failures[:10], "kind": config.kind}
    if config.labels:
        meta["labels"] = dict(config.labels)
        meta["label_note"] = "lambda, gamma, H are target tail labels, not certified levels"
    return done, meta


def run_gauss_approx(config: ExperimentConfig) -> ResultTable:
    """Replicated grid couplings across the n grid.

    One row per (n, replication); numeric and capacity failures are isolated
    and counted, and the run aborts only if more than one percent of
    replications fail.
    """
    mesh = _eval_mesh(config.cls, config.eval_mesh_size)
    selected, tasks = [], []
    for i, n in enumerate(config.n_grid):
        eps, delta, t, ctx = _prepare_at(config, n, mesh)
        selected.append((n, eps, delta, t))
        task = partial(_couple_task, ctx, n, config.batch_for(i), config.seed)
        tasks.append((f"n={n}", n, task))
    done, meta = _replicate(config, tasks)
    rows = []
    for i, rep, value in done:
        n, eps, delta, t = selected[i]
        rows.append((n, rep, config.seed, eps, delta, t, *value))
    return ResultTable(COUPLE_HEADER, tuple(rows), meta)


def build_schedule(config: ExperimentConfig, N: int):
    spec, sel = config.schedule, config.selection
    if sel.kind == "vc":
        tau1, tau2 = rate_vc(sel.nu0)
        return schedule_vc(spec["alpha"], tau1, tau2, N)
    kappa = rate_br(sel.r0) if spec["kappa"] is None else spec["kappa"]
    if spec["kappa"] is None and kappa >= Fraction(1, 2):  # every r0 <= 1/2
        raise ConfigError(
            f"selection.r0 = {sel.r0} gives the default schedule.kappa = (1 - r0) / (2 r0)"
            f" = {kappa}, outside (0, 1/2); set schedule.kappa or take r0 in (1/2, 1)"
        )
    return schedule_br(kappa, N)


def run_strong_approx(config: ExperimentConfig) -> ResultTable:
    """Replicated sequential constructions across a block-count grid.

    Every schedule is checked against the sample budget, and every block's
    coupling context prepared, before any replication runs.
    """
    n_grid, budget = config.schedule["N_grid"], config.schedule["budget"]
    mesh = _eval_mesh(config.cls, config.schedule["eval_mesh_size"])
    schedules = []
    for N in n_grid:
        schedule = build_schedule(config, N)
        if schedule.total > budget:
            raise NumericError(f"schedule at N = {N} needs {schedule.total} samples")
        schedules.append(schedule)
    # Shared by every replication, as run_gauss_approx shares one context per n.
    contexts = block_contexts(config.cls, config.dist, schedules, config.selection, mesh)
    tasks = []
    for i, (N, schedule) in enumerate(zip(n_grid, schedules)):
        task = partial(
            _strong_task, schedule, contexts[i], config.seed,
            m=config.schedule["m"], tag_offset=10_000 * i,
        )
        tasks.append((f"N={N}", schedule.total, task))
    done, meta = _replicate(config, tasks)
    meta["envelope"] = {str(N): path_envelope(s) for N, s in zip(n_grid, schedules)}
    rows = tuple(
        (run_id, path.regime, path.N, path.t_N, path.m_star, path.max_discrepancy, path.normalized)
        for run_id, (_, _, path) in enumerate(done)
    )
    return ResultTable(STRONG_HEADER, rows, meta)


@dataclass(frozen=True)
class RateFit:
    abscissae: tuple
    slope: float
    residual: float
    model: str

    def __post_init__(self):
        if len(self.abscissae) < 3:
            raise DomainError("rate fits need at least 3 points")
        if not math.isfinite(self.slope):
            raise DomainError("fitted slope must be finite")


def fit_rate(
    table: ResultTable,
    model: str = "power",
    x_col: str = "n",
    y_col: str = "sup_grid",
) -> RateFit:
    """Least-squares slope of log median discrepancy against log n (power)
    or log log n (logpower)."""
    if model not in ("power", "logpower"):
        raise ConfigError(f"unknown rate model {model!r}")
    xs = table.column(x_col)
    ys = table.column(y_col)
    groups: dict = {}
    for x, y in zip(xs, ys):
        groups.setdefault(x, []).append(y)
    if len(groups) < 3:
        raise DomainError("rate fits need at least 3 distinct abscissae")
    pts = sorted((float(x), float(np.median(v))) for x, v in groups.items())
    raw = np.array([p[0] for p in pts])
    med = np.array([p[1] for p in pts])
    if np.any(med <= 0):
        raise DegenerateFitError("medians must be positive for a log fit")
    with np.errstate(divide="raise", invalid="raise"):
        try:
            abscissae = np.log(raw) if model == "power" else np.log(np.log(raw))
        except FloatingPointError as exc:
            raise DegenerateFitError(f"abscissae not usable for {model}: {exc}") from exc
    if np.ptp(abscissae) < 1e-12:
        raise DegenerateFitError("abscissae are degenerate")
    slope, intercept = np.polyfit(abscissae, np.log(med), 1)
    resid = float(np.abs(np.log(med) - (slope * abscissae + intercept)).max())
    return RateFit(tuple(float(a) for a in abscissae), float(slope), resid, model)


def run_entropy(config: ExperimentConfig) -> ResultTable:
    """Covering, packing, and bracketing counts across a radius ladder."""
    radii = config.entropy["radii"]
    cls, P = config.cls, config.dist
    # Read once for the whole ladder: interval meshes are counted by a sweep
    # over the mesh CDF, which their brackets read too; others on the matrix.
    distances = cdf = None
    if cls.kind == "intervals":
        cdf = mesh_cdf(cls, P)
    else:
        distances = dP_matrix(cls, P, list(cls.mesh))
    rows = []
    for eps in radii:
        cert = covering_certificate(cls, P, eps, distances=distances, cdf=cdf)
        try:
            brack = bracketing_set(cls, P, eps, cdf).count
        except (UnsupportedOperationError, CapacityError):
            # Rectangles and finite classes have no brackets; a Hoelder
            # bracketing can exceed its cell budget.
            brack = ""
        rows.append((eps, cert.lower, cert.upper, cert.exact, brack))
    meta: dict = {"kind": config.kind}
    counts = [r[2] for r in rows]
    try:
        fit = fit_entropy_counts(radii, counts, cls.regime.kind)
        meta["fit"] = {
            "model": fit.model,
            "constants": fit.constants,
            "residual": fit.residual,
        }
    except (DegenerateFitError, DomainError) as exc:
        meta["fit"] = {"error": str(exc)}
    return ResultTable(ENTROPY_HEADER, tuple(rows), meta)


def run_couple(config: ExperimentConfig) -> dict:
    """One coupling realization, serialized with the documented fields."""
    n = config.n_grid[0]
    _, delta, t, ctx = _prepare_at(config, n, _eval_mesh(config.cls, config.eval_mesh_size))
    real = construct_joint(ctx, n, config.batch_for(0), replication_seed(config.seed, 0))
    doc = real.to_json_dict()
    doc["delta"] = delta
    doc["t"] = t
    return doc


def run_bounds_audit(config: ExperimentConfig) -> list:
    """Evaluate the whole inequality battery at config-driven inputs.

    The default grid is chosen so every precondition holds; overriding any
    field in the audit block moves the battery to the caller's inputs, and
    reports then carry honest preconditions_ok flags.
    """
    a, consts = config.audit, config.constants
    n, M, sigma2, t_grid = a["n"], a["M"], a["sigma2"], a["t_grid"]
    reports = [talagrand_tail(t, n, sigma2, M, a["sym_moment"], consts) for t in t_grid]
    vc_sigma, br_sigma = (1.0 / 16.0, 0.25) if a["sigma"] is None else (a["sigma"], a["sigma"])
    reports.append(vc_moment_bound(n, vc_sigma, a["beta"], a["v"], a["c"], a["M_sup"], consts))
    reports.append(br_moment_bound(br_sigma, a["b0"], a["r0"], n, M, consts))
    eps = a["epsilon"]
    sel = config.selection
    delta, t_sel = select_delta_t(eps, sel.kind, config.gamma1, config.gamma2, r0=sel.r0)
    for n_val in a["budget_n_grid"]:
        reports.append(error_budget(eps, delta, t_sel, n_val, M, sel, consts))
    for t in t_grid:
        reports.append(combined_tail_empirical(t, n, consts.B, sigma2, M, consts))
        reports.append(combined_tail_gaussian(t, n, consts.B, sigma2, consts))
    return [r.as_dict() for r in reports]


def run(config: ExperimentConfig):
    """The result of ``config``'s run: the table, document or report list
    of its kind's runner."""
    # Looked up at each call, so that a runner patched on this module is the one called.
    return {
        "gauss-approx": run_gauss_approx,
        "strong-approx": run_strong_approx,
        "entropy": run_entropy,
        "couple": run_couple,
        "bounds-audit": run_bounds_audit,
    }[config.kind](config)
