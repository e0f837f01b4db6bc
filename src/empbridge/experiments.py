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
from .seeds import SeedSpec, replication_seed

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
            m = int(self.schedule.get("m", 48))
            if m < 1:
                raise ConfigError(f"schedule m must be >= 1, got {m}")
            if m > OT_EXACT_LIMIT:
                raise ConfigError(f"schedule m must be <= {OT_EXACT_LIMIT}, got {m}")
            mesh_size = int(self.schedule.get("eval_mesh_size", 9))
            if mesh_size < 1:
                raise ConfigError(f"schedule eval_mesh_size must be >= 1, got {mesh_size}")

    def batch_for(self, i: int) -> int:
        """Transport batch size for the i-th n_grid entry."""
        return int(self.ot_batch[i]) if isinstance(self.ot_batch, tuple) else int(self.ot_batch)


def config_from_dict(spec: dict) -> ExperimentConfig:
    if not isinstance(spec, dict):
        raise ConfigError("config must be a JSON object")
    known = {
        "kind",
        "class",
        "distribution",
        "selection",
        "n_grid",
        "reps",
        "seed",
        "constants",
        "gamma1",
        "gamma2",
        "ot_batch",
        "method",
        "eval_mesh_size",
        "workers",
        "out",
        "format",
        "labels",
        "schedule",
        "entropy",
        "audit",
    }
    unknown = set(spec) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    kwargs: dict = {}
    if "kind" in spec:
        kwargs["kind"] = spec["kind"]
    if "class" in spec:
        kwargs["cls"] = class_from_spec(spec["class"])
    if "distribution" in spec:
        kwargs["dist"] = distribution_from_spec(spec["distribution"])
    if "selection" in spec:
        kwargs["selection"] = regime_from_spec(spec["selection"], "selection")
    if "constants" in spec:
        try:
            kwargs["constants"] = BoundConstants(**spec["constants"])
        except TypeError as exc:
            raise ConfigError(f"bad constants block: {exc}") from exc
    if "n_grid" in spec:
        kwargs["n_grid"] = tuple(int(n) for n in spec["n_grid"])
    for name in (
        "reps",
        "seed",
        "eval_mesh_size",
        "workers",
    ):
        if name in spec:
            kwargs[name] = int(spec[name])
    if "ot_batch" in spec:
        batch = spec["ot_batch"]
        if isinstance(batch, (list, tuple)):
            kwargs["ot_batch"] = tuple(int(b) for b in batch)
        else:
            kwargs["ot_batch"] = int(batch)
    for name in ("gamma1", "gamma2"):
        if name in spec:
            kwargs[name] = float(spec[name])
    for name in ("method", "out", "format"):
        if name in spec:
            kwargs[name] = spec[name]
    for name in ("labels", "schedule", "entropy", "audit"):
        if name in spec:
            block = spec[name]
            if not isinstance(block, dict):
                raise ConfigError(f"config field {name!r} must be an object")
            kwargs[name] = block
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


def _couple_one(cls, dist, ctx, n, eps, batch, method, master, rep):
    try:
        seed = replication_seed(master, rep)
        real = construct_joint(
            cls, dist, n, eps, batch, seed, method=method, context=ctx
        )
        return ("ok", real.sup_grid, real.sup_mesh, real.transport_cost)
    except REPLICATION_ERRORS as exc:
        return ("error", f"{type(exc).__name__}: {exc}")


def _run_replicated(config: ExperimentConfig, worker, reps: int) -> list:
    """Run ``worker(rep)`` for each index, optionally in a process pool."""
    if config.workers == 1:
        return [worker(rep) for rep in range(reps)]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        chunk = max(1, reps // (4 * config.workers))
        return list(pool.map(worker, range(reps), chunksize=chunk))


class _CoupleWorker:
    """Picklable replication task for the coupling experiment."""

    def __init__(self, cls, dist, ctx, n, eps, batch, method, master):
        self.args = (cls, dist, ctx, n, eps, batch, method, master)

    def __call__(self, rep):
        return _couple_one(*self.args, rep)


def run_gauss_approx(config: ExperimentConfig) -> ResultTable:
    """Replicated grid couplings across the n grid.

    One row per (n, replication); numeric and capacity failures are isolated
    and counted, and the run aborts only if more than one percent of
    replications fail.
    """
    rows = []
    failures: list[str] = []
    mesh = _eval_mesh(config.cls, config.eval_mesh_size)
    for i, n in enumerate(config.n_grid):
        eps, delta, t = _select_radius(config, n)
        ctx = prepare_coupling(config.cls, config.dist, eps, eval_mesh=mesh)
        worker = _CoupleWorker(
            config.cls, config.dist, ctx, n, eps, config.batch_for(i), config.method, config.seed
        )
        outcomes = _run_replicated(config, worker, config.reps)
        for rep, outcome in enumerate(outcomes):
            if outcome[0] == "error":
                failures.append(f"n={n} rep={rep}: {outcome[1]}")
                continue
            _, sup_grid, sup_mesh, cost = outcome
            rows.append((n, rep, config.seed, eps, delta, t, sup_grid, sup_mesh, cost))
    total = len(config.n_grid) * config.reps
    if len(failures) > 0.01 * total:
        raise NumericError(
            f"{len(failures)} of {total} replications failed; first: {failures[0]}"
        )
    meta = {"failures": len(failures), "failure_messages": failures[:10], "kind": config.kind}
    meta.update(_label_note(config))
    return ResultTable(COUPLE_HEADER, tuple(rows), meta)


def _label_note(config: ExperimentConfig) -> dict:
    if not config.labels:
        return {}
    return {
        "labels": dict(config.labels),
        "label_note": "lambda, gamma, H are target tail labels, not certified levels",
    }


class _StrongWorker:
    def __init__(self, cls, dist, schedule, selector, m, method, mesh, master, offset, contexts):
        self.args = (cls, dist, schedule, selector, m, method, mesh, master, offset, contexts)

    def __call__(self, rep):
        cls, dist, schedule, selector, m, method, mesh, master, offset, contexts = self.args
        try:
            path = run_sequential(
                cls,
                dist,
                schedule,
                replication_seed(master, rep),
                m=m,
                method=method,
                eval_mesh=mesh,
                selector=selector,
                tag_offset=offset,
                contexts=contexts,
            )
            return ("ok", path)
        except REPLICATION_ERRORS as exc:
            return ("error", f"{type(exc).__name__}: {exc}")


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
    n_grid = tuple(int(v) for v in config.schedule.get("N_grid", (4, 6, 8)))
    m = int(config.schedule.get("m", 48))
    budget = int(config.schedule.get("budget", 500_000))
    mesh_size = int(config.schedule.get("eval_mesh_size", 9))
    mesh = _eval_mesh(config.cls, mesh_size)
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
    rows = []
    failures: list[str] = []
    envelopes = {}
    run_id = 0
    for i, (N, schedule) in enumerate(zip(n_grid, schedules)):
        envelopes[str(N)] = path_envelope(schedule)
        worker = _StrongWorker(
            config.cls,
            config.dist,
            schedule,
            config.selection,
            m,
            config.method,
            mesh,
            config.seed,
            10_000 * i,
            contexts,
        )
        outcomes = _run_replicated(config, worker, config.reps)
        for rep, outcome in enumerate(outcomes):
            if outcome[0] == "error":
                failures.append(f"N={N} rep={rep}: {outcome[1]}")
                continue
            path = outcome[1]
            rows.append(
                (
                    run_id,
                    path.regime,
                    path.N,
                    path.t_N,
                    path.m_star,
                    path.max_discrepancy,
                    path.normalized,
                )
            )
            run_id += 1
    total = len(n_grid) * config.reps
    if len(failures) > 0.01 * total:
        raise NumericError(
            f"{len(failures)} of {total} replications failed; first: {failures[0]}"
        )
    meta = {
        "failures": len(failures),
        "failure_messages": failures[:10],
        "kind": config.kind,
        "envelope": envelopes,
    }
    meta.update(_label_note(config))
    return ResultTable(STRONG_HEADER, tuple(rows), meta)


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
