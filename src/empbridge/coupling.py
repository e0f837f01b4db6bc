"""Grid-level coupling of the empirical process with the Gaussian field.

A ``CouplingContext`` (``prepare_coupling``) fixes, once per radius, the
class, the law, a grid of centers built at radius epsilon, an evaluation mesh
and the method; ``construct_joint(context, n, m, seed)`` reads all of them
from it. One realization works as follows. The empirical process on the grid
is one mean-zero random vector (the Y-sum) whose summands are bounded by
M sqrt(N/n). It is coupled with a Gaussian vector carrying the grid
covariance by the context's method, the Gaussian partner is extended to the
evaluation mesh, and the sup discrepancies on grid and mesh are recorded.
There are two methods, concrete stand-ins for the abstract coupling whose
existence the exponential inequality asserts. Each is one row of
``_METHODS``, all that a new method supplies: the class kinds it couples, a
prepare step that builds the context's one ``state`` field once per radius,
the grid pair that ``construct_joint`` runs, and whether its realizations
carry the sample points that ``run_sequential`` fills in between.

Under ``"exact"`` a batch of m independent Y-sums is paired with m
independent Gaussian vectors by a minimum-cost squared-Euclidean assignment.
The designated realization (batch index 0) keeps its matched Gaussian vector,
which is extended to the mesh by Gaussian conditioning. The state holds the
grid factor, that dense conditional law and, for every class but Hoelder,
the grid and mesh cells (``OrthantCells``, unrefined). The realization
carries the designated sample points and their mesh Gaussian values, from
which the sequential construction fills in the partial sums of a block. Only
the designated sample is drawn point by point and evaluated on the grid as a
matrix, since its per-summand bound is checked; its mesh sums are cell counts
(``OrthantCells.sample_sums``) or Hoelder knot-cell sums. The m - 1 auxiliary
Y-sums all come from one generator, the ``auxiliary`` seed phase. Every
indicator class (intervals, rectangles, finite) has members w 1{x <= t}, and
the grid Y-sum of a sample depends only on its multinomial counts in the
cells that the grid corners cut out (the grid reduction of Dudley and
Philipp), so its auxiliary Y-sums are drawn as multinomial cell counts and
turned into grid sums by a cumulative sum along each axis, with the same law
as from full samples. Only Hoelder classes draw auxiliary points, n to a row,
and reduce each chunk of rows to its column sums
(``FunctionClass.batch_column_sums``): a Hoelder sum needs only the count and
point sum of each knot cell, and one kernel takes them for every row of a
chunk. Rows come in chunks of at most ``AUX_CHUNK_POINTS`` points or cells.
Consecutive draws from one generator give the bits of one larger draw, so the
chunk size changes no output.

The ``"quantile"`` method (interval classes only) draws no sample at all.
The grid Y-sum depends only on the g+1 cell counts, and the Gaussian grid
vector only on the Brownian-bridge masses of the same cells, so the two are
coupled cell by cell on a dyadic tree (the quantile construction of Komlos,
Major and Tusnady, and of Bretagnolle and Massart): at a node of mass p with
count N and Gaussian mass G, one standard normal e splits G as its
conditional law given the parent does, and the left count is the
Binomial(N, p_L / p) quantile of Phi(e). Both marginals are exact. The mesh
cuts each grid cell into finer cells, one flat list with no padding; their
counts are one multinomial per grid cell given its count. The mesh Gaussian
refines the grid cells' Gaussian masses the same way: the bridge is Markov,
so given those masses its pieces inside the cells are independent pinned
Brownian pieces, each drawn from that exact conditional law. The state is
the cells and their refinement alone: no grid factor, no dense law. The cost
grows with n only through the binomial quantile (over 78 equal cells the tree
took 0.19 ms at n = 2^10, 2.2 ms at 2^30 and 26 ms at 2^50 on one core of a
2-core Xeon), which is exact up to n = 2^51 (``TREE_N_LIMIT``); a larger n is
refused.

Only ``"exact"`` needs scipy's assignment solver and squared-distance
kernel (``scipy.optimize._lsap`` and ``scipy.spatial._distance_pybind``), and
only ``"quantile"`` needs the normal CDF and the binomial quantile (ufuncs of
``scipy.special._ufuncs``). ``kernels`` loads each compiled module from its
file on first use, without the package around it: about 1 ms and under 1 MB
for the two transport modules, about 10 ms and 4 MB for the special
functions, against 21 MB and 24 MB for the packages. Each method's prepare
step loads what it needs, before any worker process is forked;
``ot_couple`` and ``_binomial_tree`` do so for a direct call. A process that
runs only exact couplings, under any law but beta (whose CDF is scipy's
``betainc``), loads numpy and the two transport modules alone.

Also here: the exponential tail bound for the coupled sum, its grid
specialization, and the radius and threshold selections used by the
convergence-rate experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import conditional_law, extend_from_law, factorize
from .distributions import Distribution
from .errors import CapacityError, ConfigError, DomainError, NumericError
from .function_classes import (
    KINDS, EntropyRegime, FunctionClass, Grid, _monotone_cdf, _orthant, _orthant_mass, build_grid,
    covariance, mean_vector,
)
from .kernels import _transport_solvers, _tree_kernels
from .seeds import SeedSpec

OT_EXACT_LIMIT = 512
TREE_N_LIMIT = 1 << 51  # largest n at which the quantile tree's binomial quantile is exact
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


def ot_couple(source: np.ndarray, target: np.ndarray) -> TransportPlan:
    """Pair batches by the exact minimum squared-Euclidean assignment."""
    linear_sum_assignment, sqeuclidean = _transport_solvers()
    source = np.atleast_2d(np.asarray(source, dtype=float))
    target = np.atleast_2d(np.asarray(target, dtype=float))
    if source.shape != target.shape:
        raise DomainError(f"batch shapes differ: {source.shape} vs {target.shape}")
    m = source.shape[0]
    if m > OT_EXACT_LIMIT:
        raise CapacityError(f"exact assignment limited to {OT_EXACT_LIMIT} points, got {m}")
    costs = sqeuclidean(source, target)
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
class OrthantCells:
    """The cells that the corners of members w 1{x <= t} cut out, with masses.

    Along each axis the sorted corner coordinates u_1 <= ... <= u_k (``axes``;
    all of them in one dimension, the distinct ones in more) cut out x <= u_1,
    u_j < x <= u_(j+1) and x > u_k; the cells are their products, in C order
    over ``shape``. ``corner`` is the flat index of each member's corner
    cell, ``weights`` the members' weights (None for unit weights). In one
    dimension the mesh points cut the cells into finer cells, left to right:
    ``within`` holds each one's mass given its grid cell (all 0 in a massless
    grid cell), ``cell`` that grid cell (nondecreasing) and ``mesh_at`` the
    finer cell that ends at each mesh point. In more dimensions all are None.
    """

    masses: np.ndarray
    axes: tuple
    corner: np.ndarray
    weights: np.ndarray | None
    within: np.ndarray | None = None
    cell: np.ndarray | None = None
    mesh_at: np.ndarray | None = None

    @property
    def shape(self) -> tuple:
        return tuple(len(u) + 1 for u in self.axes)

    @property
    def order(self) -> np.ndarray:
        """The members in the order of their corner cells: in one dimension,
        the sort of the corners."""
        return np.argsort(self.corner, kind="stable")

    def grid_sums(self, counts: np.ndarray) -> np.ndarray:
        """Per-member sums sum_i w 1{x_i <= t} from cell counts, in grid order:
        the cumulative counts along every axis, read at each member's corner
        and times its weight."""
        cum = counts.reshape(counts.shape[:-1] + self.shape)
        for axis in range(-len(self.shape), 0):
            cum = np.cumsum(cum, axis=axis)
        out = cum.reshape(counts.shape)[..., self.corner]
        return out if self.weights is None else out * self.weights

    def sample_sums(self, points: np.ndarray) -> np.ndarray:
        """Per-member sums sum_i w 1{x_i <= t} over a sample, (n,) or (n, d):
        its counts in the cells, by one sort of the points and a sorted search
        of the cuts in one dimension, by one search per axis in more. A NaN
        coordinate lies past every cut, so below no corner."""
        x = np.asarray(points, dtype=float)
        if len(self.axes) == 1:
            below = np.searchsorted(np.sort(x.ravel()), self.axes[0], side="right")[self.corner]
            return below.astype(float) if self.weights is None else below * self.weights
        index = tuple(np.searchsorted(u, c) for u, c in zip(self.axes, x.T))
        counts = np.bincount(np.ravel_multi_index(index, self.shape), minlength=len(self.masses))
        return self.grid_sums(counts).astype(float)


def orthant_cells(P: Distribution, corners, mesh=(), weights=None) -> OrthantCells:
    """The cells of member corners t (g, d), or of interval parameters, and
    in one dimension their refinement by the interval parameters ``mesh``.
    The masses are the d-fold differences of ``_orthant_mass`` (the means'
    and the Gram's arithmetic) at the cells' upper corners, rounding-level
    negatives set to 0. In one dimension that is the monotone CDF, so a cell
    past t = 1 has mass exactly 0."""
    d = P.dim
    t = np.asarray(corners, dtype=float).reshape(-1, d)
    axes = tuple(np.sort(u) for u in t.T)
    if d > 1:  # each value once; np.unique would load numpy.ma
        axes = tuple(np.concatenate([u[:1], u[1:][u[1:] != u[:-1]]]) for u in axes)
    shape = tuple(len(u) + 1 for u in axes)
    upper = [np.append(u, 1.0) for u in axes]
    if d == 1:  # _orthant_mass(P, u, 1) is the CDF at u, which is 1 from u = 1 on
        mass = _monotone_cdf(P, upper[0])
    else:
        corner_grid = np.stack(np.meshgrid(*upper, indexing="ij"), -1).reshape(-1, d)
        mass = _orthant_mass(P, corner_grid, np.ones((1, d))).reshape(shape)
    for axis in range(d):
        mass = np.diff(mass, axis=axis, prepend=0.0)
    masses = np.maximum(mass.ravel(), 0.0)
    corner = np.ravel_multi_index(tuple(np.searchsorted(u, c) for u, c in zip(axes, t.T)), shape)
    if d > 1:
        return OrthantCells(masses, axes, corner, weights)
    # Every cut, the corners first among ties. Finer cell i ends at sorted cut
    # i (the last one at +inf) and lies in the grid cell numbered by the
    # corners among the cuts before it.
    cuts = np.concatenate([axes[0], np.asarray(mesh, dtype=float)])
    sort = np.argsort(cuts, kind="stable")
    fine = np.diff(np.concatenate([[0.0], _monotone_cdf(P, cuts[sort]), [1.0]]))
    cell = np.concatenate([[0], np.cumsum(sort < len(t))])
    total = np.bincount(cell, fine)[cell]
    within = np.divide(fine, total, out=np.zeros_like(fine), where=total > 0)
    place = np.empty(len(cuts), dtype=int)
    place[sort] = np.arange(len(cuts))
    return OrthantCells(masses, axes, corner, weights, within, cell, place[len(t) :])


def _binomial_tree(masses: np.ndarray, n: int, rng: np.random.Generator) -> tuple:
    """Cell counts of n points and Brownian-bridge cell masses, coupled top-down.

    The cells, padded with massless ones to a power of two, are the leaves of
    a dyadic tree whose root holds n points and Gaussian mass 0. Level by
    level, a node of mass p = p_L + p_R with count N and Gaussian mass G takes
    its next normal e: its left child gets Gaussian mass
    (p_L / p) G + sqrt(p_L p_R / p) e, the law of the bridge's left mass given
    G, and count the Binomial(N, p_L / p) quantile of Phi(e). The 2^L - 1
    normals of a tree with 2^L leaves are one draw from ``rng``, taken in
    level order. Returns the counts (as floats) and the Gaussian masses of the
    given cells.
    """
    ndtr, binom_ppf = _tree_kernels()
    leaves = 1 << (len(masses) - 1).bit_length()
    normals = rng.standard_normal(leaves - 1)
    p = np.zeros(leaves)
    p[: len(masses)] = masses
    counts, gauss = np.array([float(n)]), np.zeros(1)
    while len(counts) < leaves:
        halves = p.reshape(2 * len(counts), -1).sum(axis=1)
        left, right = halves[0::2], halves[1::2]
        q = np.divide(left, left + right, out=np.zeros_like(left), where=left + right > 0)
        e = normals[len(counts) - 1 : 2 * len(counts) - 1]
        g_left = q * gauss + np.sqrt(q * right) * e
        n_left = binom_ppf(ndtr(e), counts, q)
        counts = np.stack([n_left, counts - n_left], axis=1).ravel()
        gauss = np.stack([g_left, gauss - g_left], axis=1).ravel()
    return counts[: len(masses)], gauss[: len(masses)]


@dataclass(frozen=True, eq=False)
class CouplingContext:
    """What every realization on it reads: class, law, grid (its epsilon is
    the radius), evaluation mesh, mean vectors, method and the state that
    the method's prepare step built; shared across replications."""

    cls: FunctionClass
    P: Distribution
    grid: Grid
    eval_mesh: tuple
    mesh_means: np.ndarray
    grid_means: np.ndarray
    method: str  # a name in ``_METHODS``: what ``construct_joint`` runs on it
    state: object  # what the method's prepare step returned


def prepare_coupling(
    cls: FunctionClass,
    P: Distribution,
    epsilon: float,
    eval_mesh=None,
    method: str = "exact",
) -> CouplingContext:
    """The grid and mean vectors at radius epsilon and the state that the
    method's prepare step builds on them; every realization on it runs that
    method."""
    check_method(method, cls)
    grid = build_grid(cls, P, epsilon)
    mesh = tuple(eval_mesh if eval_mesh is not None else cls.mesh)
    return CouplingContext(
        cls,
        P,
        grid,
        mesh,
        mean_vector(cls, P, list(mesh)),
        mean_vector(cls, P, list(grid.centers)),
        method,
        _METHODS[method][1](cls, P, grid, mesh),
    )


@dataclass(frozen=True, eq=False)
class CouplingRealization:
    n: int
    grid: Grid
    y_sum: np.ndarray
    z_sum: np.ndarray
    sup_grid: float
    sup_mesh: float
    transport_cost: float
    seeds: SeedSpec
    points: np.ndarray | None  # the designated sample; None under the count-only quantile method
    mesh_gauss: np.ndarray  # its Gaussian partner on the evaluation mesh

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "epsilon": self.grid.epsilon,
            "grid_size": self.grid.size,
            "sup_grid": self.sup_grid,
            "sup_mesh": self.sup_mesh,
            "transport_cost": self.transport_cost,
            "seeds": {"master": self.seeds.master, "stream": self.seeds.stream},
        }


def _check_summand_norm(rows: np.ndarray, means: np.ndarray, envelope: float, n: int) -> None:
    """Refuse a sample whose largest centered summand, sqrt(max row sum of
    (rows - means)^2 / n), exceeds the envelope's bound M sqrt(g / n). The
    rows, grid values (n', g), are centred and squared in place."""
    g = rows.shape[1]
    rows -= means
    np.square(rows, out=rows)
    norm = math.sqrt((rows @ np.ones(g)).max(initial=0.0) / n)
    limit = envelope * math.sqrt(g / n)
    if norm > limit + 1e-12:
        raise NumericError(f"summand norm {norm:.6g} exceeds the bound {limit:.6g}")


def _prepare_batch(cls, P, grid, mesh) -> tuple:
    """The ``"exact"`` state: grid factor, mesh law given the grid and, for
    every class but Hoelder, the cells of the grid and of the mesh, neither
    refined (``_batch_pair`` reads no more)."""
    _transport_solvers()  # here, so a pool forked after set-up inherits them
    model = factorize(grid.gram)
    joint = covariance(cls, P, list(grid.centers) + list(mesh))
    g = grid.size
    law = conditional_law(model, joint[g:, :g], joint[g:, g:])
    if cls.kind == "holder":
        return model, law, None, None
    w, t = _orthant(cls, list(grid.centers), P.dim)
    mesh_w, mesh_t = _orthant(cls, list(mesh), P.dim)
    return model, law, orthant_cells(P, t, weights=w), orthant_cells(P, mesh_t, weights=mesh_w)


def _batch_pair(context, n, m, seed, tag) -> tuple:
    """The ``"exact"`` method: the designated sample (``sample`` phase,
    index 0), its grid pair (y0, z0) by batch transport, the batch's mean
    squared cost, the sample's mesh sums and the mesh Gaussian drawn from the
    context's conditional law given z0."""
    cls, P, grid = context.cls, context.P, context.grid
    model, law, cells, mesh_cells = context.state
    centers = list(grid.centers)
    g = grid.size
    designated = P.draw(n, seed.rng("sample", tag, 0))
    vals = cls.evaluate_matrix(centers, designated)
    sums = np.empty((m, g))
    sums[0] = vals.sum(axis=0)
    # The check overwrites the matrix, which is freed before the transport step.
    _check_summand_norm(vals, context.grid_means, cls.envelope, n)
    del vals
    aux = seed.rng("auxiliary", tag)
    # A row of cell counts stands for a row of n points.
    rows = max(1, AUX_CHUNK_POINTS // (n if cells is None else len(cells.masses)))
    for b in range(1, m, rows):
        k = min(rows, m - b)
        if cells is not None:
            sums[b : b + k] = cells.grid_sums(aux.multinomial(n, cells.masses, size=k))
        else:
            xs = P.draw(k * n, aux)
            sums[b : b + k] = cls.batch_column_sums(centers, xs.reshape(k, n))
    y_batch = (sums - n * context.grid_means) / math.sqrt(n)
    z_batch = (model.L @ seed.rng("target", tag).standard_normal((g, m))).T
    plan = ot_couple(y_batch, z_batch)
    z0 = z_batch[plan.assignment[0]]
    if mesh_cells is None:
        mesh_sums = cls.batch_column_sums(list(context.eval_mesh), designated[None])[0]
    else:
        mesh_sums = mesh_cells.sample_sums(designated)
    mesh_gauss = extend_from_law(law, z0, seed, rep=tag)
    return designated, y_batch[0], z0, plan.cost, mesh_sums, mesh_gauss


def _prepare_tree(cls, P, grid, mesh) -> OrthantCells:
    """The ``"quantile"`` state: the grid cells and their mesh refinement."""
    _tree_kernels()  # here, so a pool forked after set-up inherits them
    return orthant_cells(P, grid.centers, mesh)


def _tree_pair(context, n, m, seed, tag) -> tuple:
    """The ``"quantile"`` method (interval classes only), count-only: no
    point is drawn (the first value is None) and m is not used. The grid
    pair (y0, z0), its squared gap ||y0 - z0||^2, the mesh counts and the
    mesh Gaussian come from the dyadic quantile tree over the grid cells
    (``tree`` phase), one multinomial per grid cell, in cell order, of its
    finer cells' counts (``refine`` phase) and one normal per finer cell for
    their Gaussian masses given the grid cells' ones (``extend`` phase).

    Given its mass G_j on grid cell j of mass p_j, the bridge's masses on the
    finer cells of relative masses w_k are independent N(0, p_j w_k) pieces
    conditioned on summing to G_j: w_k G_j + sqrt(p_j) (sqrt(w_k) e_k -
    w_k sum_l sqrt(w_l) e_l) for standard normals e. Cells are independent
    given their masses, so this is the mesh's exact law given z0. A center
    or mesh point with no mass to its right (CDF 1, variance 0) gets
    Gaussian value exactly 0."""
    if n > TREE_N_LIMIT:
        raise DomainError(f"the quantile method takes n up to 2^51 = {TREE_N_LIMIT}, got n = {n}")
    cells, g = context.state, context.grid.size
    counts, gauss = _binomial_tree(cells.masses, n, seed.rng("tree", tag))
    # A point of cell j has grid values cells.grid_sums(e_j).
    occupied = cells.grid_sums(np.eye(g + 1))[counts > 0]
    _check_summand_norm(occupied, context.grid_means, context.cls.envelope, n)
    y0 = (cells.grid_sums(counts) - n * context.grid_means) / math.sqrt(n)
    z0 = cells.grid_sums(gauss)
    # Past the last cell with mass the bridge is pinned at the root's 0, which
    # floating sums of the leaf masses need not return to: set it exactly.
    z0[cells.order[np.flatnonzero(cells.masses)[-1] :]] = 0.0
    w, cell = cells.within, cells.cell
    refine = seed.rng("refine", tag)
    rows = zip(counts.astype(np.int64), np.split(w, np.flatnonzero(np.diff(cell)) + 1))
    fine = np.concatenate([refine.multinomial(k, row) for k, row in rows])
    mesh_sums = np.cumsum(fine)[cells.mesh_at].astype(float)
    pieces = np.sqrt(w) * seed.rng("extend", tag).standard_normal(len(w))
    pinned = pieces - w * np.bincount(cell, pieces)[cell]
    fine_gauss = w * gauss[cell] + np.sqrt(cells.masses)[cell] * pinned
    mesh_gauss = np.cumsum(fine_gauss)[cells.mesh_at]
    mesh_gauss[cells.mesh_at >= np.flatnonzero(w)[-1]] = 0.0
    return None, y0, z0, float(((y0 - z0) ** 2).sum()), mesh_sums, mesh_gauss


# name -> (class kinds, prepare step, grid pair, realizations carry points)
_METHODS = {
    "exact": (KINDS, _prepare_batch, _batch_pair, True),
    "quantile": (("intervals",), _prepare_tree, _tree_pair, False),
}


def check_method(method: str, cls: FunctionClass, points: bool = False) -> None:
    """Refuse a coupling method that ``construct_joint`` cannot run on
    ``cls`` or, with ``points``, whose realizations carry no sample points."""
    if method not in _METHODS:
        raise ConfigError(f"unknown coupling method {method!r}")
    kinds, _, _, carries_points = _METHODS[method]
    if cls.kind not in kinds:
        only = ", ".join(kinds)
        raise ConfigError(f"the {method} method couples {only} classes only, not {cls.kind}")
    if points and not carries_points:
        raise ConfigError(f"the {method} method draws no sample points to fill in between")


def construct_joint(
    context: CouplingContext, n: int, m: int, seed: SeedSpec, tag: int = 0
) -> CouplingRealization:
    """Run one full coupling realization of n points on ``context``: its
    class, law, grid (and so radius), evaluation mesh and the grid pair of
    its method's row. ``tag`` namespaces the random streams so several
    couplings (for example blocks of a sequential construction) can share
    one seed spec. The realization carries the designated sample (None when
    the method draws none) and its Gaussian partner on the evaluation mesh.
    """
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if m < 1:
        raise DomainError("batch size must be >= 1")
    pair = _METHODS[context.method][2]
    designated, y0, z0, cost, mesh_sums, mesh_gauss = pair(context, n, m, seed, tag)
    sup_grid = float(np.abs(y0 - z0).max())
    mesh_emp = (mesh_sums - n * context.mesh_means) / math.sqrt(n)
    sup_mesh = float(np.abs(mesh_emp - mesh_gauss).max())
    return CouplingRealization(
        n, context.grid, y0, z0, sup_grid, sup_mesh, cost, seed, designated, mesh_gauss
    )
