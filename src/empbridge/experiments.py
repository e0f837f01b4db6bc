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
from concurrent.futures import ProcessPoolExecutor
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
from .exponents import rate_vc
from .blocking import block_radii, path_envelope, run_sequential, schedule_br, schedule_vc
from .coupling import (
    OT_EXACT_LIMIT,
    construct_joint,
    prepare_coupling,
    select_delta_t,
    select_epsilon_br,
    select_epsilon_vc,
)
from .distributions import Distribution, distribution_from_spec
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
    bracketing_number,
    class_from_spec,
    covering_certificate,
    dP_matrix,
    fit_entropy_counts,
    regime_from_spec,
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

KINDS = ("gauss-approx", "strong-approx", "bounds-audit", "entropy", "couple")

# The failures one replication may have without ending the run; programming
# and config errors propagate.
REPLICATION_ERRORS = (NumericError, CapacityError, np.linalg.LinAlgError)

# What a strong-approx run reads from its "schedule" block when a key is absent.
SCHEDULE_DEFAULTS = {"N_grid": (4, 6, 8), "m": 48, "budget": 500_000, "eval_mesh_size": 9}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "gauss-approx"
    cls: FunctionClass = field(default_factory=lambda: FunctionClass("intervals"))
    dist: Distribution = field(default_factory=lambda: Distribution("uniform"))
    selection: EntropyRegime = field(default_factory=lambda: EntropyRegime("vc", c0=1.0, nu0=1.0))
    n_grid: tuple = (256, 1024, 4096)
    reps: int = 1
    seed: int = 20260815
    constants: BoundConstants = field(default_factory=BoundConstants)
    gamma1: float = 1.0
    gamma2: float = 1.0
    ot_batch: int | tuple = 256
    method: str = "exact"
    eval_mesh_size: int = 201
    workers: int = 1
    out: str | None = None
    format: str = "csv"
    labels: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    entropy: dict = field(default_factory=dict)
    audit: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.reps < 1:
            raise ConfigError("replication count must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not self.n_grid:
            raise ConfigError("n grid must be nonempty")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n grid must be strictly increasing")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        if self.workers < 1:
            raise ConfigError("worker count must be >= 1")
        batches = self.ot_batch if isinstance(self.ot_batch, tuple) else (self.ot_batch,)
        if any(int(b) < 1 for b in batches):
            raise ConfigError("ot_batch entries must be >= 1")
        if isinstance(self.ot_batch, tuple) and len(self.ot_batch) != len(self.n_grid):
            raise ConfigError("per-n ot_batch needs one entry per n_grid value")
        if self.method != "exact":
            raise ConfigError(f"unknown coupling method {self.method!r}")
        if any(int(b) > OT_EXACT_LIMIT for b in batches):
            raise ConfigError(f"ot_batch entries must be <= {OT_EXACT_LIMIT}")
        if self.eval_mesh_size < 1:
            raise ConfigError(f"eval_mesh_size must be >= 1, got {self.eval_mesh_size}")
        if self.kind == "strong-approx":
            m, mesh_size = self.schedule_value("m"), self.schedule_value("eval_mesh_size")
            if m < 1:
                raise ConfigError(f"schedule m must be >= 1, got {m}")
            if m > OT_EXACT_LIMIT:
                raise ConfigError(f"schedule m must be <= {OT_EXACT_LIMIT}, got {m}")
            if mesh_size < 1:
                raise ConfigError(f"schedule eval_mesh_size must be >= 1, got {mesh_size}")

    def batch_for(self, i: int) -> int:
        """Transport batch size for the i-th n_grid entry."""
        return int(self.ot_batch[i]) if isinstance(self.ot_batch, tuple) else int(self.ot_batch)

    def schedule_value(self, key: str):
        """A strong-approx schedule setting, or its default."""
        value = self.schedule.get(key, SCHEDULE_DEFAULTS[key])
        return tuple(int(v) for v in value) if key == "N_grid" else int(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {type(value).__name__}")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"must be an object, got {type(value).__name__}")
    return value


def _list_of(convert):
    def parse(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"must be a list, got {type(value).__name__}")
        return tuple(convert(v) for v in value)

    return parse


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _batch(value):
    return _list_of(int)(value) if isinstance(value, (list, tuple)) else int(value)


# Config key -> (ExperimentConfig field, converter).
_FIELDS = {
    "kind": ("kind", _text),
    "class": ("cls", class_from_spec),
    "distribution": ("dist", distribution_from_spec),
    "selection": ("selection", lambda v: regime_from_spec(v, "selection")),
    "n_grid": ("n_grid", _list_of(int)),
    "reps": ("reps", int),
    "seed": ("seed", int),
    "constants": ("constants", lambda v: BoundConstants(**v)),
    "gamma1": ("gamma1", float),
    "gamma2": ("gamma2", float),
    "ot_batch": ("ot_batch", _batch),
    "method": ("method", _text),
    "eval_mesh_size": ("eval_mesh_size", int),
    "workers": ("workers", int),
    "out": ("out", _optional(_text)),
    "format": ("format", _text),
    "labels": ("labels", _object),
    "schedule": ("schedule", _object),
    "entropy": ("entropy", _object),
    "audit": ("audit", _object),
}

# Nested block key -> converter, for the keys the runners read as numbers or
# lists of numbers; the runners apply the same conversions, so a converted
# value reads the same. Other nested keys pass through as given.
_NESTED = {
    "schedule": {
        "N_grid": _list_of(int),
        **dict.fromkeys(("m", "budget", "eval_mesh_size"), int),
        "beta": _optional(float),
    },
    "entropy": {"radii": _list_of(float)},
    "audit": {
        "t_grid": _list_of(float),
        "budget_n_grid": _list_of(int),
        **dict.fromkeys(("M", "sigma2", "sigma", "beta", "v", "c", "M_sup", "b0", "r0"), float),
        "n": int,
        "epsilon": float,
    },
}


def _convert(name: str, convert, value):
    try:
        return convert(value)
    except ConfigError:  # already says what is wrong
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config field {name!r}: {exc}") from exc


def config_from_dict(spec: dict) -> ExperimentConfig:
    if not isinstance(spec, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(spec) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    kwargs = {}
    for key, value in spec.items():
        name, convert = _FIELDS[key]
        kwargs[name] = _convert(key, convert, value)
    for block, converters in _NESTED.items():
        if block in kwargs:
            kwargs[block] = {
                key: _convert(f"{block}.{key}", converters[key], v) if key in converters else v
                for key, v in kwargs[block].items()
            }
    return ExperimentConfig(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
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


def emit(obj, path: str, format: str = "csv") -> None:
    """Write a table or JSON-serializable document; same input, same bytes."""
    if isinstance(obj, ResultTable):
        text = obj.to_csv_text() if format == "csv" else obj.to_json_text()
    else:
        if format == "csv":
            raise ConfigError("only tables can be written as CSV")
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _select_radius(config: ExperimentConfig, n: int):
    sel = config.selection
    if sel.kind == "vc":
        eps = select_epsilon_vc(n, sel.nu0)
        delta, t = select_delta_t(eps, "vc", config.gamma1, config.gamma2)
    else:
        eps = select_epsilon_br(n, sel.b0, sel.r0).epsilon
        delta, t = select_delta_t(eps, "br", config.gamma1, config.gamma2, r0=sel.r0)
    return eps, delta, t


def _eval_mesh(cls: FunctionClass, size: int) -> tuple:
    mesh = list(cls.mesh)
    if size >= len(mesh):
        return tuple(mesh)
    idx = np.unique(np.linspace(0, len(mesh) - 1, size).round().astype(int))
    return tuple(mesh[i] for i in idx)


def _couple_task(cls, dist, n, eps, batch, master, rep, **kw):
    real = construct_joint(cls, dist, n, eps, batch, replication_seed(master, rep), **kw)
    return real.sup_grid, real.sup_mesh, real.transport_cost


def _strong_task(cls, dist, schedule, master, rep, **kw):
    return run_sequential(cls, dist, schedule, replication_seed(master, rep), **kw)


def _attempt(job):
    task, rep = job
    try:
        return True, task(rep)
    except REPLICATION_ERRORS as exc:
        return False, f"{type(exc).__name__}: {exc}"


def _replicate(config: ExperimentConfig, tasks: list) -> tuple[list, dict]:
    """Run ``task(rep)`` for every (label, task) pair and replication index.

    All jobs go out in one pass, through one process pool when
    ``config.workers`` exceeds one, and come back in (task, rep) order for
    any worker count. A replication that fails with one of
    ``REPLICATION_ERRORS`` is counted under ``"<label> rep=<rep>"``; the run
    aborts if more than one percent of all replications fail. Returns the
    (task index, rep, result) triples of the successes and the table meta.
    """
    jobs = [(task, rep) for _, task in tasks for rep in range(config.reps)]
    if config.workers == 1:
        outcomes = map(_attempt, jobs)
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunk = max(1, len(jobs) // (4 * config.workers))
            outcomes = list(pool.map(_attempt, jobs, chunksize=chunk))
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
        eps, delta, t = _select_radius(config, n)
        ctx = prepare_coupling(config.cls, config.dist, eps, eval_mesh=mesh)
        selected.append((n, eps, delta, t))
        task = partial(
            _couple_task, config.cls, config.dist, n, eps, config.batch_for(i), config.seed,
            method=config.method, context=ctx,
        )
        tasks.append((f"n={n}", task))
    done, meta = _replicate(config, tasks)
    rows = []
    for i, rep, value in done:
        n, eps, delta, t = selected[i]
        rows.append((n, rep, config.seed, eps, delta, t, *value))
    return ResultTable(COUPLE_HEADER, tuple(rows), meta)


def build_schedule(config: ExperimentConfig, N: int):
    sched_spec = config.schedule
    sel = config.selection
    beta = sched_spec.get("beta")
    if sel.kind == "vc":
        alpha = sched_spec.get("alpha", 5)
        tau1, tau2 = rate_vc(Fraction(str(sel.nu0)) if not float(sel.nu0).is_integer() else int(sel.nu0))
        return schedule_vc(alpha, tau1, tau2, N, beta=beta)
    kappa = sched_spec.get("kappa")
    if kappa is None:
        r0 = Fraction(str(sel.r0))
        kappa = (1 - r0) / (2 * r0)
    return schedule_br(kappa, N, beta=0.7 if beta is None else beta)


def run_strong_approx(config: ExperimentConfig) -> ResultTable:
    """Replicated sequential constructions across a block-count grid."""
    n_grid = config.schedule_value("N_grid")
    budget = config.schedule_value("budget")
    mesh = _eval_mesh(config.cls, config.schedule_value("eval_mesh_size"))
    schedules = []
    for N in n_grid:
        schedule = build_schedule(config, N)
        if schedule.total > budget:
            raise NumericError(f"schedule at N = {N} needs {schedule.total} samples")
        schedules.append(schedule)
    # One context per distinct block radius across the whole grid, shared by
    # every replication, as run_gauss_approx shares one per n.
    radii = dict.fromkeys(e for s in schedules for e in block_radii(s, config.selection))
    contexts = {e: prepare_coupling(config.cls, config.dist, e, eval_mesh=mesh) for e in radii}
    tasks = []
    for i, (N, schedule) in enumerate(zip(n_grid, schedules)):
        task = partial(
            _strong_task, config.cls, config.dist, schedule, config.seed,
            m=config.schedule_value("m"), method=config.method, eval_mesh=mesh, budget=budget,
            selector=config.selection, tag_offset=10_000 * i, contexts=contexts,
        )
        tasks.append((f"N={N}", task))
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
    log_medians: tuple
    slope: float
    intercept: float
    residual: float
    model: str
    comparison: float | None = None

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
    comparison: float | None = None,
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
    return RateFit(
        tuple(float(a) for a in abscissae),
        tuple(float(v) for v in np.log(med)),
        float(slope),
        float(intercept),
        resid,
        model,
        comparison,
    )


def run_entropy(config: ExperimentConfig) -> ResultTable:
    """Covering, packing, and bracketing counts across a radius ladder."""
    radii = tuple(float(e) for e in config.entropy.get("radii", (0.6, 0.45, 0.3, 0.2, 0.15)))
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("entropy radii must be strictly decreasing")
    distances = dP_matrix(config.cls, config.dist, list(config.cls.mesh))
    rows = []
    for eps in radii:
        cert = covering_certificate(config.cls, config.dist, eps, distances=distances)
        try:
            brack = bracketing_number(config.cls, config.dist, eps)
        except (UnsupportedOperationError, CapacityError):
            # Rectangles and finite classes have no brackets; a Hoelder
            # bracketing can exceed its cell budget.
            brack = ""
        rows.append((eps, cert.lower, cert.upper, cert.exact, brack))
    meta: dict = {"kind": config.kind}
    counts = [r[2] for r in rows]
    try:
        fit = fit_entropy_counts(radii, counts, config.cls.regime.kind)
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
    eps, delta, t = _select_radius(config, n)
    mesh = _eval_mesh(config.cls, config.eval_mesh_size)
    ctx = prepare_coupling(config.cls, config.dist, eps, eval_mesh=mesh)
    real = construct_joint(
        config.cls,
        config.dist,
        n,
        eps,
        config.batch_for(0),
        replication_seed(config.seed, 0),
        method=config.method,
        context=ctx,
    )
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
    a = config.audit
    consts = config.constants
    n = int(a.get("n", 1024))
    M = float(a.get("M", 1.0))
    sigma2 = float(a.get("sigma2", 0.25))
    t_grid = [float(t) for t in a.get("t_grid", (0.5, 1.0, 2.0))]
    reports = []
    for t in t_grid:
        reports.append(talagrand_tail(t, n, sigma2, M, a.get("sym_moment", 0.5), consts))
    reports.append(
        vc_moment_bound(
            n,
            float(a.get("sigma", 1.0 / 16.0)),
            float(a.get("beta", 1.0)),
            float(a.get("v", 2.0)),
            float(a.get("c", 2.0)),
            float(a.get("M_sup", 0.25)),
            consts,
        )
    )
    reports.append(
        br_moment_bound(
            float(a.get("sigma", 0.25)),
            float(a.get("b0", 1.0)),
            float(a.get("r0", 0.5)),
            n,
            M,
            consts,
        )
    )
    eps = float(a.get("epsilon", 0.25))
    sel = config.selection
    delta, t_sel = select_delta_t(
        eps, sel.kind, config.gamma1, config.gamma2, r0=sel.r0 if sel.kind == "br" else None
    )
    for n_val in a.get("budget_n_grid", (1024, 4096, 16384)):
        reports.append(error_budget(eps, delta, t_sel, int(n_val), M, sel, consts))
    for t in t_grid:
        reports.append(combined_tail_empirical(t, n, consts.B, sigma2, M, consts))
        reports.append(combined_tail_gaussian(t, n, consts.B, sigma2, consts))
    return [r.as_dict() for r in reports]
