"""Grid-level coupling of the empirical process with the Gaussian field.

One realization works as follows. A grid of centers is built at radius
epsilon; the empirical process on the grid is one mean-zero random vector
(the Y-sum) whose summands are bounded by M sqrt(N/n). A batch of m
independent Y-sums is paired with m independent Gaussian vectors carrying the
grid covariance by a minimum-cost squared-Euclidean assignment, a concrete
stand-in for the abstract coupling whose existence the exponential inequality
asserts. The designated realization (batch index 0) keeps its matched
Gaussian vector, which is then extended by Gaussian conditioning to a wider
evaluation mesh, and the sup discrepancies on grid and mesh are recorded.

Only the designated sample is evaluated point by point, since its per-summand
bound is checked. The auxiliary batches and the mesh need column sums only,
which ``FunctionClass.column_sums`` computes; for interval indicators it counts
instead of building the n x g matrix: one comparison pass per center on short
grids, one sort of the sample and a binary search per parameter on long ones.

Also here: the exponential tail bound for the coupled sum, its grid
specialization, and the radius and threshold selections used by the
convergence-rate experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .bridge import (
    BridgeModel,
    ConditionalLaw,
    conditional_law,
    covariance,
    extend_from_law,
    factorize,
)
from .distributions import Distribution
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    NumericError,
    ShapeError,
)
from .function_classes import FunctionClass, Grid, build_grid, mean_vector
from .sampling import SamplePath
from .seeds import SeedSpec

OT_EXACT_LIMIT = 512


@dataclass(frozen=True)
class ZaitsevParams:
    C1: float = 1.0
    C2: float = 1.0

    def __post_init__(self):
        if self.C1 <= 0 or self.C2 <= 0:
            raise ConfigError("tail constants must be positive")


def zaitsev_bound(N: int, B: float, delta: float, params: ZaitsevParams, clamp: bool = False) -> float:
    """Exponential coupling tail C1 N^2 exp(-C2 delta / (N^2 B))."""
    if N < 1:
        raise DomainError("dimension N must be >= 1")
    if B <= 0:
        raise DomainError("summand bound B must be positive")
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    raw = params.C1 * N * N * math.exp(-params.C2 * delta / (N * N * B))
    return min(raw, 1.0) if clamp else raw


def zaitsev_grid_tail(
    n: int, M: float, N_eps: int, delta: float, params: ZaitsevParams, clamp: bool = False
) -> float:
    """The grid specialization with B = M sqrt(N_eps / n) substituted."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    return zaitsev_bound(N_eps, M * math.sqrt(N_eps / n), delta, params, clamp)


def make_Y_sum(sample: SamplePath, cls: FunctionClass, P: Distribution, grid: Grid) -> np.ndarray:
    """Sum of the grid coordinate vectors; equals the empirical process there.

    Verifies the per-summand Euclidean bound |Y_i| <= M sqrt(N/n) before
    returning.
    """
    centers = list(grid.centers)
    vals = cls.evaluate_matrix(centers, sample.points)
    means = mean_vector(cls, P, centers)
    centered = vals - means[None, :]
    n = sample.n
    norms = np.sqrt((centered**2).sum(axis=1) / n)
    limit = cls.envelope * math.sqrt(len(centers) / n)
    if norms.max(initial=0.0) > limit + 1e-12:
        raise NumericError(
            f"summand norm {norms.max():.6g} exceeds the bound {limit:.6g}"
        )
    return centered.sum(axis=0) / math.sqrt(n)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A bijective pairing of two point batches with its mean squared cost."""

    source: np.ndarray
    target: np.ndarray
    assignment: np.ndarray
    cost: float

    def __post_init__(self):
        m = len(self.source)
        if sorted(self.assignment.tolist()) != list(range(m)):
            raise DomainError("assignment is not a bijection")
        matched = self.target[self.assignment]
        expect = float(((self.source - matched) ** 2).sum(axis=1).mean())
        if not math.isclose(expect, self.cost, rel_tol=1e-9, abs_tol=1e-12):
            raise DomainError("stored cost does not match the assignment")


def ot_couple(source: np.ndarray, target: np.ndarray, method: str = "exact") -> TransportPlan:
    """Pair batches by the exact minimum squared-Euclidean assignment."""
    source = np.atleast_2d(np.asarray(source, dtype=float))
    target = np.atleast_2d(np.asarray(target, dtype=float))
    if source.shape != target.shape:
        raise ShapeError(f"batch shapes differ: {source.shape} vs {target.shape}")
    if method != "exact":
        raise ConfigError(f"unknown coupling method {method!r}")
    m = source.shape[0]
    if m > OT_EXACT_LIMIT:
        raise CapacityError(f"exact assignment limited to {OT_EXACT_LIMIT} points, got {m}")
    costs = cdist(source, target, metric="sqeuclidean")
    _, cols = linear_sum_assignment(costs)
    assignment = cols.astype(int)
    cost = float(costs[np.arange(m), assignment].mean())
    return TransportPlan(source, target, assignment, cost)


def coupling_tail(plan: TransportPlan, delta: float, norm: str = "euclid") -> float:
    """Fraction of matched pairs whose difference norm exceeds delta."""
    diffs = plan.source - plan.target[plan.assignment]
    if norm == "euclid":
        norms = np.sqrt((diffs**2).sum(axis=1))
    elif norm == "sup":
        norms = np.abs(diffs).max(axis=1)
    else:
        raise ConfigError(f"unknown norm {norm!r}")
    return float((norms > delta).mean())


def select_epsilon_vc(n: int, nu0: float) -> float:
    """Radius ((log n)/n)^{1/(2+5 nu0)}."""
    if n < 3:
        raise DomainError("need n >= 3 so log n / n < 1")
    if nu0 <= 0:
        raise DomainError("nu0 must be positive")
    return (math.log(n) / n) ** (1.0 / (2.0 + 5.0 * nu0))


@dataclass(frozen=True)
class EpsilonSelection:
    epsilon: float
    capped: bool
    induced: float  # exp(-5 2^{2 r0} b0^2 / (2 eps^{2 r0})); n^{-1/4} when uncapped


def select_epsilon_br(n: int, b0: float, r0: float, cap: float = 1.0 / math.e) -> EpsilonSelection:
    """Radius (10 b0^2 2^{2 r0} / log n)^{1/(2 r0)}, capped below 1."""
    if n < 3:
        raise DomainError("need n >= 3")
    if not (0.0 < r0 < 1.0):
        raise DomainError("r0 must lie in (0, 1)")
    if b0 <= 0:
        raise DomainError("b0 must be positive")
    if not (0.0 < cap < 1.0):
        raise DomainError("cap must lie in (0, 1)")
    raw = (10.0 * b0 * b0 * 2.0 ** (2.0 * r0) / math.log(n)) ** (1.0 / (2.0 * r0))
    capped = raw >= cap
    eps = cap if capped else raw
    induced = math.exp(-5.0 * 2.0 ** (2.0 * r0) * b0 * b0 / (2.0 * eps ** (2.0 * r0)))
    return EpsilonSelection(eps, capped, induced)


def select_delta_t(
    epsilon: float, regime: str, gamma1: float, gamma2: float, r0: float | None = None
):
    """Threshold pieces delta and t matched to the radius selection."""
    if regime == "vc":
        if not (0.0 < epsilon < 1.0):
            raise DomainError("vc selection needs 0 < epsilon < 1")
        root = math.sqrt(math.log(1.0 / epsilon))
        return gamma1 * epsilon * root, gamma2 * epsilon * root
    if regime == "br":
        if r0 is None:
            raise DomainError("br selection needs r0")
        if not (0.0 < epsilon < 1.0):
            raise DomainError("br selection needs 0 < epsilon < 1")
        base = epsilon ** (1.0 - r0)
        return gamma1 * base, gamma2 * base
    raise ConfigError(f"unknown regime {regime!r}")


@dataclass(frozen=True, eq=False)
class CouplingContext:
    """Reusable per-(grid, mesh) state shared across replications."""

    cls: FunctionClass
    P: Distribution
    grid: Grid
    model: BridgeModel
    eval_mesh: tuple
    law: ConditionalLaw
    mesh_means: np.ndarray
    grid_means: np.ndarray


def prepare_coupling(
    cls: FunctionClass,
    P: Distribution,
    epsilon: float,
    eval_mesh=None,
    budget: int = 4096,
) -> CouplingContext:
    grid = build_grid(cls, P, epsilon, budget=budget)
    model = factorize(grid.gram, grid.centers)
    mesh = tuple(eval_mesh if eval_mesh is not None else cls.mesh)
    joint = covariance(cls, P, list(grid.centers) + list(mesh))
    g = grid.size
    cross = joint[g:, :g]
    marginal = joint[g:, g:]
    law = conditional_law(model, cross, marginal)
    return CouplingContext(
        cls,
        P,
        grid,
        model,
        mesh,
        law,
        mean_vector(cls, P, list(mesh)),
        mean_vector(cls, P, list(grid.centers)),
    )


@dataclass(frozen=True, eq=False)
class CouplingRealization:
    n: int
    epsilon: float
    grid: Grid
    y_sum: np.ndarray
    z_sum: np.ndarray
    sup_grid: float
    sup_grid_euclid: float
    sup_mesh: float
    transport_cost: float
    seeds: SeedSpec
    sample: SamplePath | None = None  # kept only on request
    mesh_gauss: np.ndarray | None = None

    @property
    def grid_gap(self) -> np.ndarray:
        return self.y_sum - self.z_sum

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "epsilon": self.epsilon,
            "grid_size": self.grid.size,
            "sup_grid": self.sup_grid,
            "sup_mesh": self.sup_mesh,
            "transport_cost": self.transport_cost,
            "seeds": {"master": self.seeds.master, "stream": self.seeds.stream},
        }


def construct_joint(
    cls: FunctionClass,
    P: Distribution,
    n: int,
    epsilon: float,
    m: int,
    seed: SeedSpec,
    method: str = "exact",
    eval_mesh=None,
    context: CouplingContext | None = None,
    tag: int = 0,
    keep_sample: bool = False,
) -> CouplingRealization:
    """Run one full coupling realization.

    ``tag`` namespaces the random streams so several couplings (for example
    blocks of a sequential construction) can share one seed spec.
    ``keep_sample`` retains the designated sample and the extended Gaussian
    values for path-level consumers.
    """
    if m < 1:
        raise DomainError("batch size must be >= 1")
    if context is None:
        context = prepare_coupling(cls, P, epsilon, eval_mesh)
    grid, model = context.grid, context.model
    centers = list(grid.centers)
    g = grid.size
    y_batch = np.empty((m, g))
    designated = None
    for b in range(m):
        x = P.draw(n, seed.rng("sample", tag, b))
        if b == 0:
            designated = x
            vals = cls.evaluate_matrix(centers, x)
            sums = vals.sum(axis=0)
            norms = np.sqrt(((vals - context.grid_means[None, :]) ** 2).sum(axis=1) / n)
            limit = cls.envelope * math.sqrt(g / n)
            if norms.max(initial=0.0) > limit + 1e-12:
                raise NumericError(
                    f"summand norm {norms.max():.6g} exceeds the bound {limit:.6g}"
                )
        else:
            sums = cls.column_sums(centers, x)
        y_batch[b] = (sums - n * context.grid_means) / math.sqrt(n)
    z_batch = (model.L @ seed.rng("target", tag).standard_normal((g, m))).T
    plan = ot_couple(y_batch, z_batch, method)
    z0 = z_batch[plan.assignment[0]]
    gap = y_batch[0] - z0
    sup_grid = float(np.abs(gap).max())
    sup_grid_euclid = float(np.sqrt((gap**2).sum()))
    mesh_gauss = extend_from_law(context.law, z0, seed, rep=tag)
    mesh_sums = cls.column_sums(list(context.eval_mesh), designated)
    mesh_emp = (mesh_sums - n * context.mesh_means) / math.sqrt(n)
    sup_mesh = float(np.abs(mesh_emp - mesh_gauss).max())
    return CouplingRealization(
        n,
        float(epsilon),
        grid,
        y_batch[0],
        z0,
        sup_grid,
        sup_grid_euclid,
        sup_mesh,
        plan.cost,
        seed,
        sample=SamplePath(n, designated, seed) if keep_sample else None,
        mesh_gauss=mesh_gauss if keep_sample else None,
    )
