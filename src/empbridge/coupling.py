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
The realization carries the designated sample points and their mesh Gaussian
values, from which the sequential construction fills in the partial sums of
a block.

Only the designated sample is drawn point by point and evaluated as a matrix,
since its per-summand bound is checked; its mesh values are column sums
(``FunctionClass.column_sums``). The m - 1 auxiliary Y-sums all come from one
generator, the ``auxiliary`` seed phase. For interval indicators the grid
Y-sum of a sample depends only on the multinomial counts of the g+1 cells that
the sorted centers cut out (the grid reduction of Dudley and Philipp), so the
auxiliary Y-sums are drawn as multinomial cell counts and turned into grid
sums by a cumulative sum, with the same law as from full samples. Other
classes draw the m - 1 auxiliary samples as consecutive rows of that
generator, in chunks of at most ``AUX_CHUNK_POINTS`` points, and reduce each
chunk to its rows' column sums (``FunctionClass.batch_column_sums``) without
evaluating it point by point where the class allows: a one-dimensional
Hoelder sum needs only the count and point sum of each knot cell, and one
kernel takes them for every row of a chunk. Consecutive draws from one
generator give the bits of one larger draw, so the chunk size changes no
output.

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
from .function_classes import EntropyRegime, FunctionClass, Grid, build_grid, covariance, mean_vector
from .seeds import SeedSpec

OT_EXACT_LIMIT = 512
AUX_CHUNK_POINTS = 1 << 16  # most auxiliary points drawn and reduced at once
BR_EPSILON_CAP = 1.0 / math.e  # the br radius never exceeds it


def zaitsev_bound(N: int, B: float, delta: float, C1: float, C2: float) -> float:
    """Exponential coupling tail C1 N^2 exp(-C2 delta / (N^2 B))."""
    if N < 1:
        raise DomainError("dimension N must be >= 1")
    if B <= 0:
        raise DomainError("summand bound B must be positive")
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    try:
        spread = N * N * B
    except OverflowError:  # an integer N whose square is past the float range
        spread = math.inf
    return C1 * N * N * math.exp(-C2 * delta / spread)


def zaitsev_grid_tail(n: int, M: float, N_eps: int, delta: float, C1: float, C2: float) -> float:
    """The grid specialization with B = M sqrt(N_eps / n) substituted."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    return zaitsev_bound(N_eps, M * math.sqrt(N_eps / n), delta, C1, C2)


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


def select_epsilon_br(n: int, b0: float, r0: float) -> EpsilonSelection:
    """Radius (10 b0^2 2^{2 r0} / log n)^{1/(2 r0)}, capped at ``BR_EPSILON_CAP``."""
    if n < 3:
        raise DomainError("need n >= 3")
    if not (0.0 < r0 < 1.0):
        raise DomainError("r0 must lie in (0, 1)")
    if b0 <= 0:
        raise DomainError("b0 must be positive")
    raw = (10.0 * b0 * b0 * 2.0 ** (2.0 * r0) / math.log(n)) ** (1.0 / (2.0 * r0))
    capped = raw >= BR_EPSILON_CAP
    return EpsilonSelection(BR_EPSILON_CAP if capped else raw, capped)


def select_epsilon(selection: EntropyRegime, n: int) -> float:
    """The coupling radius at sample size n under a vc or br entropy selection."""
    if selection.kind == "vc":
        return select_epsilon_vc(n, selection.nu0)
    return select_epsilon_br(n, selection.b0, selection.r0).epsilon


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
class IntervalCells:
    """The g+1 cells that interval grid centers cut out, with their masses.

    Cell 0 is x <= c_(1), cell j is c_(j) < x <= c_(j+1) and cell g is
    x > c_(g), for the centers sorted as c_(1) <= ... <= c_(g); ``order`` is
    that sort's permutation of the grid order.
    """

    order: np.ndarray
    masses: np.ndarray

    def grid_sums(self, counts: np.ndarray) -> np.ndarray:
        """Per-center counts sum_i 1{x_i <= c} from cell counts, in grid order."""
        out = np.empty(counts.shape[:-1] + (len(self.order),))
        out[..., self.order] = np.cumsum(counts[..., :-1], axis=-1)
        return out


def interval_cells(P: Distribution, centers) -> IntervalCells:
    """Sort order and P-masses of the cells cut out by interval centers."""
    thetas = np.asarray(centers, dtype=float)
    order = np.argsort(thetas, kind="stable")
    F = np.asarray(P.cdf(thetas[order]), dtype=float)
    masses = np.clip(np.diff(np.concatenate([[0.0], F, [1.0]])), 0.0, None)
    return IntervalCells(order, masses)


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
    cells: IntervalCells | None = None  # interval classes only


def prepare_coupling(
    cls: FunctionClass,
    P: Distribution,
    epsilon: float,
    eval_mesh=None,
) -> CouplingContext:
    grid = build_grid(cls, P, epsilon)
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
        interval_cells(P, grid.centers) if cls.kind == "intervals" else None,
    )


@dataclass(frozen=True, eq=False)
class CouplingRealization:
    n: int
    epsilon: float
    grid: Grid
    y_sum: np.ndarray
    z_sum: np.ndarray
    sup_grid: float
    sup_mesh: float
    transport_cost: float
    seeds: SeedSpec
    points: np.ndarray  # the designated sample
    mesh_gauss: np.ndarray  # its Gaussian partner on the evaluation mesh

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
    context: CouplingContext | None = None,
    tag: int = 0,
) -> CouplingRealization:
    """Run one full coupling realization.

    The designated sample (batch 0) comes from the ``sample`` phase at index
    0. The m - 1 auxiliary Y-sums come from one generator of the
    ``auxiliary`` phase: for an interval class, one multinomial draw of cell
    counts; for any other class, m - 1 samples of n points drawn as
    consecutive rows, ``AUX_CHUNK_POINTS // n`` rows (at least one) per draw
    and reduction.

    ``tag`` namespaces the random streams so several couplings (for example
    blocks of a sequential construction) can share one seed spec. The
    realization carries the designated sample and its Gaussian partner on the
    evaluation mesh, which the sequential construction fills in between.
    """
    if m < 1:
        raise DomainError("batch size must be >= 1")
    if context is None:
        context = prepare_coupling(cls, P, epsilon)
    grid, model = context.grid, context.model
    centers = list(grid.centers)
    g = grid.size
    designated = P.draw(n, seed.rng("sample", tag, 0))
    vals = cls.evaluate_matrix(centers, designated)
    norms = np.sqrt(((vals - context.grid_means[None, :]) ** 2).sum(axis=1) / n)
    limit = cls.envelope * math.sqrt(g / n)
    if norms.max(initial=0.0) > limit + 1e-12:
        raise NumericError(
            f"summand norm {norms.max():.6g} exceeds the bound {limit:.6g}"
        )
    sums = np.empty((m, g))
    sums[0] = vals.sum(axis=0)
    aux = seed.rng("auxiliary", tag)
    if context.cells is not None:
        sums[1:] = context.cells.grid_sums(aux.multinomial(n, context.cells.masses, size=m - 1))
    else:
        rows = max(1, AUX_CHUNK_POINTS // n)
        for b in range(1, m, rows):
            k = min(rows, m - b)
            xs = P.draw(k * n, aux)
            sums[b : b + k] = cls.batch_column_sums(centers, xs.reshape((k, n) + xs.shape[1:]))
    y_batch = (sums - n * context.grid_means) / math.sqrt(n)
    z_batch = (model.L @ seed.rng("target", tag).standard_normal((g, m))).T
    plan = ot_couple(y_batch, z_batch, method)
    z0 = z_batch[plan.assignment[0]]
    sup_grid = float(np.abs(y_batch[0] - z0).max())
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
        sup_mesh,
        plan.cost,
        seed,
        designated,
        mesh_gauss,
    )
