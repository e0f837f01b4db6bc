"""Parametric function classes: evaluation, metric, grids, entropy counts.

Four kinds of pointwise-evaluable classes on [0,1]^d, all bounded by half the
envelope constant M:

* ``intervals``      indicators 1{x <= t} of lower intervals, t in [0,1];
* ``rectangles``     indicators 1{x <= t componentwise} of lower-left
                     rectangles, t in [0,1]^d;
* ``holder``         piecewise-linear interpolants on an equally spaced knot
                     mesh whose knot values satisfy |v_i - v_j| <= R |x_i - x_j|^s
                     for every knot pair, plus the envelope bound;
* ``finite``         an explicit duplicate-free list of members given by
                     (form, parameter) descriptors with form one of
                     "interval", "rectangle", "constant".

The intrinsic metric is the uncentered L2(P) distance
d_P(f, h) = sqrt(E (f(X) - h(X))^2). This differs from the centered Gram form
used for the Gaussian field whenever means differ; both are computed from the
same moment engine (mean vector and uncentered second-moment matrix) and are
kept strictly apart. All are in closed form. Every member that is not
Hoelder is a lower-orthant indicator w 1{x <= t} (``_orthant``), with mean
w P(X <= t) and product moments w w' P(X <= min(t, t')), the masses taken by
``_orthant_mass``.
Hoelder moments take the trapezoid and Simpson rules under the uniform law
and ``_cell_moments`` under any other.

Members are evaluated in batches: ``FunctionClass.evaluate_matrix`` gives
f_theta(x_i) for a parameter list and a sample (indicators compare the
points with the corners one axis at a time), and ``batch_column_sums`` the
column sums of each Hoelder sample in a stack. An indicator class is summed
over a sample through its counts in the cells that the corners cut out
(``coupling.OrthantCells``), whose cumulative sums give the column sums.
Holder classes are evaluated by one binary search of the knots per sample
point, shared by every parameter, with np.interp's slopes and order of
operations, so the matrix is bit-identical to one np.interp call per
parameter. Their column sums skip the matrix: they need only each knot cell's
point count and point sum, which one kernel takes for every sample of a stack
at once, with the cell found by truncating x (K - 1) and no exact search.

Grids (epsilon-nets), covering numbers and bracketing numbers are all defined
relative to the class's declared finite verification mesh of parameters
(``FunctionClass.mesh``), which makes every "covers" predicate decidable. A
grid holds at most ``GRID_BUDGET`` centers. On an interval mesh every ball is
a window of mesh indices, so one left-to-right sweep (``_interval_cover``),
taken with the distance matrix's own arithmetic and without building it,
gives a minimum strict cover: interval grids are its centers and interval
covering counts are exact at any mesh size. Other kinds work on
``dP_matrix``: grids take a greedy cover, and covering counts are exact by
branch and bound on meshes of at most ``EXACT_COVER_LIMIT`` points, a greedy
upper bound with a separation-packing lower bound above. Entropy-law fits
take (radius, count) pairs (``fit_entropy_counts``); the ``entropy`` command
counts covers on a radius ladder and fits them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import MAX_DIM, Distribution
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateFitError,
    DomainError,
    UnsupportedOperationError,
)
from .kernels import special
from .seeds import PHASES

KINDS = ("intervals", "rectangles", "holder", "finite")
FINITE_FORMS = ("interval", "rectangle", "constant")
GRID_BUDGET = 4096  # most centers a grid may hold
EXACT_COVER_LIMIT = 24  # largest matrix-path mesh whose cover is counted exactly
ROW_BLOCK = 1 << 12  # points per row block of per-point work; the last block takes the rest


@dataclass(frozen=True)
class EntropyRegime:
    """Declared entropy metadata: polynomial ("vc") or exponential ("br")."""

    kind: str
    c0: float = 1.0
    nu0: float = 1.0
    b0: float = 1.0
    r0: float = 0.5

    def __post_init__(self):
        if self.kind not in ("vc", "br"):
            raise ConfigError(f"regime kind must be 'vc' or 'br', got {self.kind!r}")
        if self.kind == "vc" and not (self.c0 > 0 and self.nu0 > 0):  # NaN fails too
            raise ConfigError(f"vc regime needs c0 > 0 and nu0 > 0, got {self.c0}, {self.nu0}")
        if self.kind == "br" and not (self.b0 > 0 and 0 < self.r0 < 1):
            raise ConfigError("br regime needs b0 > 0 and 0 < r0 < 1")


@dataclass(frozen=True)
class FunctionClass:
    kind: str
    envelope: float = 2.0  # M; every member satisfies |f| <= M/2
    regime: EntropyRegime | None = None
    dim: int = 1
    mesh_size: int = 1000
    holder_exponent: float = 1.0  # s in (0, 1]
    holder_radius: float = 1.0  # R
    knot_count: int = 9
    mesh_seed: int = 20260815
    members: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown class kind {self.kind!r}")
        if not 0 < self.envelope < math.inf:  # NaN fails too
            raise ConfigError(f"envelope bound M must be positive and finite, got {self.envelope}")
        if self.regime is None:
            object.__setattr__(self, "regime", _default_regime(self.kind))
        if self.kind == "intervals" and self.dim != 1:
            raise ConfigError("interval indicators are one-dimensional")
        if self.kind == "rectangles" and not 1 <= self.dim <= MAX_DIM:
            raise ConfigError(f"rectangles need dim in [1, {MAX_DIM}], got {self.dim}")
        if self.kind == "holder":
            if not (0 < self.holder_exponent <= 1):
                raise ConfigError("holder exponent must lie in (0, 1]")
            if not self.holder_radius > 0:
                raise ConfigError(f"holder radius R must be positive, got {self.holder_radius}")
            if self.knot_count < 2:
                raise ConfigError("holder classes need at least 2 knots")
        if self.kind == "finite":
            if not self.members:
                raise ConfigError("finite class needs a nonempty member list")
            canon = tuple(_canonical_member(m, self.envelope) for m in self.members)
            if len(set(canon)) != len(canon):
                raise ConfigError("finite member list has duplicates")
            object.__setattr__(self, "members", canon)
        if self.mesh_size < 1:
            raise ConfigError("mesh size must be >= 1")
        for key, value in (("mesh_size", self.mesh_size), ("knots", self.knot_count)):
            if value >= 2**53:  # past the integers a JSON number holds exactly
                raise ConfigError(f"class {key} must be below 2**53, got {value}")
        if self.kind == "rectangles" and self._per_axis ** self.dim >= 2**53:
            raise ConfigError(
                f"a rectangles mesh of {self._per_axis}^{self.dim} points must number below 2**53"
            )

    # -- parameter mesh -----------------------------------------------------

    @cached_property
    def mesh(self) -> tuple:
        """Declared verification mesh of parameters."""
        if self.kind == "intervals":
            return tuple(self.mesh_array.tolist())
        if self.kind == "rectangles":
            axis = np.linspace(0.0, 1.0, self._per_axis)
            return tuple(itertools.product(*([tuple(axis)] * self.dim)))
        if self.kind == "holder":
            return self._holder_mesh()
        return self.members

    @property
    def _per_axis(self) -> int:
        """The points per axis of a rectangles mesh: at least 2, so that the
        mesh has at least 2^dim points whatever its ``mesh_size``."""
        return max(2, int(round(self.mesh_size ** (1.0 / self.dim))))

    @cached_property
    def mesh_array(self) -> np.ndarray:
        """An interval class's mesh, ``linspace(0, 1, mesh_size)``, as one
        read-only float array: the array that ``mesh`` lists. Only interval
        classes read their mesh this way."""
        arr = np.linspace(0.0, 1.0, self.mesh_size)
        arr.flags.writeable = False
        return arr

    @cached_property
    def knots(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.knot_count)

    def _holder_mesh(self) -> tuple:
        """Deterministic sample of admissible knot-value vectors.

        Random rough shapes are rescaled so the pairwise knot constraint and
        the envelope bound hold exactly; rescaling preserves both. The zero
        function is always member 0.
        """
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.mesh_seed, spawn_key=(PHASES["mesh"],)))
        )
        xs = self.knots
        s, radius, half = self.holder_exponent, self.holder_radius, self.envelope / 2.0
        gaps = np.abs(xs[:, None] - xs[None, :]) ** s
        out = [tuple(0.0 for _ in xs)]
        while len(out) < self.mesh_size:
            step = rng.uniform(-1.0, 1.0, size=len(xs) - 1)
            v = np.concatenate([[rng.uniform(-half, half)], step]).cumsum()
            dv = np.abs(v[:, None] - v[None, :])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # inf is the bound
                ratio = np.where(dv > 0, radius * gaps / np.where(dv > 0, dv, 1.0), np.inf)
            scale = min(1.0, float(ratio.min()) * (1.0 - 1e-12))
            v = v * scale
            peak = float(np.abs(v).max())
            if peak > half:
                v = v * (half / peak)
            out.append(tuple(float(x) for x in v))
        return tuple(out)

    # -- evaluation ----------------------------------------------------------

    def evaluate_matrix(self, params, xs: np.ndarray) -> np.ndarray:
        """Matrix f_theta(x_i), shape (n, len(params))."""
        xs = np.asarray(xs, dtype=float)
        if self.kind == "holder":
            vals = np.asarray(params, dtype=float).reshape(len(params), self.knot_count)
            return _interp_matrix(self.knots, vals, xs)
        pts = xs if xs.ndim == 2 else xs[:, None]
        w, t = _orthant(self, params, pts.shape[1])
        # One axis at a time, each comparison laid out (p, n) so that its
        # inner loop runs over the n points, and the axes ANDed together; the
        # (n, p) result is its transpose view.
        inside = pts[:, 0] <= t[:, :1]
        for axis in range(1, t.shape[1]):
            inside &= pts[:, axis] <= t[:, axis : axis + 1]
        out = inside.astype(float).T
        # Weighted values keep the (n, p) layout, whose column sums add row by
        # row; over the transposed layout numpy adds them pairwise, which can
        # round differently.
        return out if w is None else np.multiply(out, w, order="C")

    def batch_column_sums(self, params, batch: np.ndarray) -> np.ndarray:
        """Row r is sum_i f_theta(batch[r, i]) for each theta in params, for
        a Hoelder class; shape (rows, len(params)).

        ``batch`` stacks one-dimensional samples of equal size, (rows, n),
        and one knot-cell kernel (``_interp_column_sums``) reduces them
        together, each row equal to its one-row call bit for bit. Indicator
        sums are cell counts (``coupling.OrthantCells``) instead.
        """
        if self.kind != "holder":
            raise UnsupportedOperationError(f"only holder classes take batch sums, not {self.kind}")
        vals = np.asarray(params, dtype=float).reshape(len(params), self.knot_count)
        return _interp_column_sums(self.knots, vals, np.asarray(batch, dtype=float))


def regime_grid_bound(regime: EntropyRegime, epsilon: float, M: float) -> float:
    """Covering-count bound N(epsilon) implied by the declared regime."""
    if regime.kind == "vc":
        try:
            return regime.c0 * M**regime.nu0 * epsilon ** (-regime.nu0)
        except OverflowError:  # a power past the float range
            return math.inf
    try:
        expo = 2.0 ** (2.0 * regime.r0) * regime.b0**2 / epsilon ** (2.0 * regime.r0)
    except (OverflowError, ZeroDivisionError):  # a power past the float range, or below it
        return math.inf
    return math.inf if expo > 700 else math.exp(expo)


def _default_regime(kind: str) -> EntropyRegime:
    # Interval/rectangle indicators have polynomial L2 entropy with exponent
    # about twice the VC-subgraph dimension; c0 = 4 leaves validation slack.
    if kind == "holder":
        return EntropyRegime("br", b0=1.0, r0=0.75)
    return EntropyRegime("vc", c0=4.0, nu0=2.0)


def _canonical_member(member, envelope: float) -> tuple:
    """A checked finite member: (form, float), or (form, tuple) for a rectangle."""
    form, param = member
    if form not in FINITE_FORMS:
        raise ConfigError(f"unknown finite-member form {form!r}")
    if isinstance(param, (list, tuple, np.ndarray)):
        param = tuple(float(v) for v in param)
    else:
        param = float(param)
    if form == "interval" and not (isinstance(param, float) and 0.0 <= param <= 1.0):
        raise ConfigError(f"interval member parameter {param} outside [0,1]")
    if form == "rectangle" and not (isinstance(param, tuple) and all(0 <= v <= 1 for v in param)):
        raise ConfigError(f"rectangle member parameter {param} invalid")
    if form == "constant" and not (isinstance(param, float) and abs(param) <= envelope / 2.0):
        raise ConfigError("constant member exceeds the envelope")
    return (form, param)


def row_blocks(n: int) -> list:
    """The row ranges (a, b) that cover rows 0..n-1 in order: blocks of
    ``ROW_BLOCK`` rows, the last one taking the remainder, so a block holds
    ``ROW_BLOCK`` to 2 ``ROW_BLOCK`` - 1 rows and fewer rows are one block.

    Per-point work taken block by block holds a bounded working set.
    Elementwise work gives the same bits at any block size. A BLAS product
    (the strong fill) can round a column by a kernel that depends on the
    width of the call: one column is a matrix-vector product, and OpenBLAS
    takes the last (width mod 8) columns of a wide call by another kernel.
    So a block is two rows at least unless n is 1, and blocks start at
    multiples of ``ROW_BLOCK`` (a multiple of 8) with the last one ending at
    n: the last columns stay where the product over all rows has them.
    """
    size = max(ROW_BLOCK, 2)
    starts = [size * i for i in range(max(1, n // size))]
    return list(zip(starts, starts[1:] + [n]))


def _interp_matrix(knots: np.ndarray, vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Column j is np.interp(xs, knots, vals[j]), bit for bit for every
    non-NaN point; shape (n, g).

    One binary search of the knots per sample point serves every parameter.
    Each cell value is slope * (x - knot) + value, computed in np.interp's
    order of operations with its slope expression, so finite inputs give the
    same bits. Points on a knot or outside [knots[0], knots[-1]] take the
    knot value, as in np.interp; offsets are taken from the points clipped
    to that range, so infinite points compute no inf * 0 before their rows
    are overwritten. A NaN point, which the search puts past the last knot,
    takes the last knot's value where np.interp gives NaN, as it does in the
    column sums (``_interp_column_sums``), so the two agree.
    The result is C-ordered (n, g), so its column sums add in the
    same order as those of the column-stacked matrix. The knot values are
    gathered and added one row block (``row_blocks``) at a time, so no second
    n x g array is formed.
    """
    pos = np.searchsorted(knots, xs, side="right") - 1
    j = np.clip(pos, 0, len(knots) - 2)
    slopes = (vals[:, 1:] - vals[:, :-1]) / (knots[1:] - knots[:-1])
    out = np.take(np.ascontiguousarray(slopes.T), j, axis=0)
    out *= (np.clip(xs, knots[0], knots[-1]) - knots[j])[:, None]
    table = np.ascontiguousarray(vals.T)
    for a, b in row_blocks(len(xs)):
        out[a:b] += np.take(table, j[a:b], axis=0)
    fixed = (pos != j) | (xs == knots[j])
    if fixed.any():
        out[fixed] = table[np.clip(pos[fixed], 0, len(knots) - 1)]
    return out


def _interp_column_sums(knots: np.ndarray, vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Column sums of ``_interp_matrix(knots, vals, row)`` for each row of a
    sample batch xs (rows, n), without the matrix; shape (rows, g).

    On knot cell j member v is v[j] + slope_j (x - knots[j]), so its sum over
    the points of the cell is v[j] C_j + slope_j D_j, with C_j the points'
    count and D_j = S_j - C_j knots[j] the sum of their offsets, S_j the sum
    of the points. Clipping the points to [knots[0], knots[-1]] first gives
    the knot value to points outside, as np.interp does: they land on an end
    knot with offset 0. The cell is x (K - 1) truncated, capped at K - 1 by
    np.fmin, which also sends NaN there: a point at the last knot, and NaN,
    count in the last entry of C, which no cell extends. When K - 1 is a
    power of two (the default K = 9 among them), x (K - 1) is exact and the
    truncation is ``_interp_matrix``'s exact cell. For other K a point
    within about (K - 1) 2^-51 of a knot may count in the neighbouring cell;
    members are continuous at the knots, so that moves the sum by rounding
    only. One ``bincount`` on the key row * K + cell gives C and S for every
    row at once, each bin adding its row's points in sample order, and the
    sums are taken one knot column at a time, so each row's bits do not
    depend on the other rows. The sums equal the matrix column sums up to
    rounding.
    """
    rows, K = len(xs), len(knots)
    x = np.clip(xs, knots[0], knots[-1])
    cell = x * (K - 1)
    np.fmin(cell, K - 1, out=cell)
    key = cell.astype(np.intp)
    key += K * np.arange(rows)[:, None]
    counts = np.bincount(key.ravel(), minlength=rows * K).reshape(rows, K)
    offsets = np.bincount(key.ravel(), weights=x.ravel(), minlength=rows * K).reshape(rows, K)
    offsets -= counts * knots
    slopes = (vals[:, 1:] - vals[:, :-1]) / (knots[1:] - knots[:-1])
    out = counts[:, :1] * vals[:, 0]
    for j in range(1, K):
        out += counts[:, j : j + 1] * vals[:, j]
    for j in range(K - 1):
        out += offsets[:, j : j + 1] * slopes[:, j]
    return out


# -- operations ---------------------------------------------------------------


def mean_vector(cls: FunctionClass, P: Distribution, params) -> np.ndarray:
    """E f_theta(X) for each parameter."""
    params = list(params)
    if cls.kind == "holder":
        _require_dim(P, 1)
        vals = np.asarray(params, dtype=float)  # (p, K) knot values
        if P.kind in ("uniform", "product-uniform"):
            h = 1.0 / (cls.knot_count - 1)
            return h * (0.5 * vals[:, 0] + vals[:, 1:-1].sum(axis=1) + 0.5 * vals[:, -1])
        C = _cell_moments(P, cls.knots)
        return vals[:, :-1] @ C[0] + (np.diff(vals) / np.diff(cls.knots)) @ C[1]
    w, t = _orthant(cls, params, P.dim)
    mass = _orthant_mass(P, t, np.ones((1, P.dim)))[:, 0]  # min(t, 1) = t on the cube
    return mass if w is None else w * mass


def second_moment_matrix(cls: FunctionClass, P: Distribution, params) -> np.ndarray:
    """Uncentered Gram matrix E f_i(X) f_j(X)."""
    params = list(params)
    if cls.kind == "holder":
        _require_dim(P, 1)
        vals = np.asarray(params, dtype=float)
        if P.kind in ("uniform", "product-uniform"):
            # Product of linear pieces is quadratic per cell; one Simpson
            # application per cell is exact.
            h = 1.0 / (cls.knot_count - 1)
            a, b = vals[:, :-1], vals[:, 1:]
            return (a @ a.T + (a + b) @ (a + b).T + b @ b.T) * (h / 6.0)
        C = _cell_moments(P, cls.knots)
        L, S = vals[:, :-1], np.diff(vals) / np.diff(cls.knots)
        X = (L * C[1]) @ S.T
        return (L * C[0]) @ L.T + X + X.T + (S * C[2]) @ S.T
    # E w_i 1{X <= t_i} w_j 1{X <= t_j} is w_i w_j P(X <= min(t_i, t_j)).
    w, t = _orthant(cls, params, P.dim)
    q = _orthant_mass(P, t, t)
    return q if w is None else q * np.outer(w, w)


def covariance(cls: FunctionClass, P: Distribution, params) -> np.ndarray:
    """Centered Gram matrix E f_i f_j - E f_i E f_j: the covariance of the field."""
    params = list(params)
    q = second_moment_matrix(cls, P, params)
    m = mean_vector(cls, P, params)
    return q - np.outer(m, m)


def _require_dim(P: Distribution, dim: int):
    if P.dim != dim:
        raise DomainError(f"distribution dimension {P.dim} does not match class ({dim})")


def _orthant(cls: FunctionClass, params, dim: int):
    """Weights w and corners t, shape (p, d), of members w 1{x <= t}.

    Intervals and rectangles have weight 1 (w is None: unit weights cost no
    multiplication) and their parameter as corner. A finite constant c has
    weight c and the corner of ones, d = ``dim`` (the points' or the law's
    dimension), which every other finite member must match.
    """
    if cls.kind != "finite":
        return None, np.asarray(params, dtype=float).reshape(len(params), cls.dim)
    w, t = np.ones(len(params)), np.ones((len(params), dim))
    for i, (form, theta) in enumerate(params):
        if form == "constant":
            w[i] = theta
        elif np.size(theta) != dim:
            raise DomainError(f"{form} member {theta} does not match dimension {dim}")
        else:
            t[i] = theta
    return w, t


def _orthant_mass(P: Distribution, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """P(X <= min(s_i, t_j)), the minimum taken coordinate by coordinate, for
    the corner rows of s (p, d) and t (q, d); shape (p, q).

    In one dimension that is the smaller corner's monotone CDF value under
    any law: p + q CDF values (p when t is s), not p q. Rectangles take the
    product of the sides under product-uniform, and the weights of the atoms
    below both corners under a discrete law. Corners at or past (1, ..., 1)
    get exactly 1 (as in ``_monotone_cdf``), whatever the weights sum to in
    floating point, so constants keep mean c and variance 0.
    """
    _require_dim(P, s.shape[1])
    if s.shape[1] == 1:
        F = _monotone_cdf(P, s[:, 0])
        return np.where(s <= t.T, F[:, None], F if t is s else _monotone_cdf(P, t[:, 0]))
    if P.kind == "product-uniform":
        return np.minimum(s[:, None], t[None]).prod(axis=2)
    # Discrete: uniform and beta laws are one-dimensional.
    atoms = P._atom_array()[:, None, :]
    below_s = np.all(atoms <= s, axis=2).astype(float)
    below_t = below_s if t is s else np.all(atoms <= t, axis=2)
    mass = below_s.T @ (below_t * np.asarray(P.weights, float)[:, None])
    mass[np.ix_(np.all(s >= 1.0, axis=1), np.all(t >= 1.0, axis=1))] = 1.0
    return mass


def _monotone_cdf(P: Distribution, thetas) -> np.ndarray:
    """P's CDF at interval parameters, raised to its running maximum in
    sorted parameter order: scipy's beta CDF can fall by one ulp near 1, and
    interval moments, covers, brackets and cells need it nondecreasing. It
    never exceeds 1 and is exactly 1 from t = 1 on, where a discrete law's
    weights may sum to a little more or less."""
    _require_dim(P, 1)
    t = np.asarray(thetas, dtype=float)
    order = np.argsort(t, kind="stable")
    F = np.empty(len(t))
    F[order] = np.minimum(np.maximum.accumulate(np.asarray(P.cdf(t[order]), dtype=float)), 1.0)
    F[t >= 1.0] = 1.0
    return F


def mesh_cdf(cls: FunctionClass, P: Distribution) -> np.ndarray:
    """``_monotone_cdf`` on an interval class's mesh: what its covers and
    brackets read, computed once by a caller that takes several radii."""
    return _monotone_cdf(P, cls.mesh_array)


def _cell_moments(P: Distribution, knots: np.ndarray) -> np.ndarray:
    """C[k, j] = E[(X - knots[j])^k; X in knot cell j], k = 0, 1, 2, under a
    beta or discrete law; shape (3, K - 1). Cell j is [knots[j], knots[j+1]),
    the last one closed. A Hoelder member is L_j + S_j (x - knots[j]) there.

    Under beta(a, b), for any a, b > 0, E[X^k; cell] is B(a + k, b) / B(a, b)
    times the difference of I(a + k, b, .) at the cell's ends, then shifted to
    the left knot; the shift cancels terms of size knots[j]^k, so it loses
    relative accuracy on cells much narrower than knots[j]. A discrete law
    sums its atoms.
    """
    left = knots[:-1]
    if P.kind == "beta":
        a, b = P.a, P.b
        scale = np.array([1.0, a / (a + b), a * (a + 1.0) / ((a + b) * (a + b + 1.0))])
        incomplete = special().betainc(a + np.arange(3.0)[:, None], b, knots)
        m0, m1, m2 = scale[:, None] * np.diff(incomplete)
        return np.stack([m0, m1 - left * m0, m2 - 2.0 * left * m1 + left * left * m0])
    x = P._atom_array()[:, 0]
    w = np.asarray(P.weights, dtype=float)
    cell = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(knots) - 2)
    offset = x - left[cell]
    return np.stack([np.bincount(cell, w * offset**k, minlength=len(left)) for k in range(3)])


def dP_matrix(cls: FunctionClass, P: Distribution, params) -> np.ndarray:
    """Pairwise intrinsic distances sqrt(E (f_i - f_j)^2)."""
    q = second_moment_matrix(cls, P, params)
    d2 = np.diag(q)[:, None] + np.diag(q)[None, :] - 2.0 * q
    return np.sqrt(np.clip(d2, 0.0, None))


# -- grids ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Grid:
    """An epsilon-net of class members with its covariance under P."""

    epsilon: float
    centers: tuple
    gram: np.ndarray

    @property
    def size(self) -> int:
        return len(self.centers)


def build_grid(cls: FunctionClass, P: Distribution, epsilon: float) -> Grid:
    """Select centers forming a strict epsilon-net of the verification mesh:
    every mesh point lies at a ``dP_matrix`` distance below epsilon from a
    center.

    Interval classes take the minimum cover of ``_interval_cover``. Other
    kinds, and the interval meshes it declines, take a greedy set cover on
    ``dP_matrix < epsilon`` with deterministic tie breaking. Raises a
    capacity error when more than ``GRID_BUDGET`` centers would be needed.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")
    mesh = list(cls.mesh)
    picks = _interval_cover(cls, P, epsilon)
    if picks is None:
        picks = _greedy_cover(dP_matrix(cls, P, mesh) < epsilon)
    centers = [mesh[i] for i in picks]
    if len(centers) > GRID_BUDGET:
        raise CapacityError(
            f"grid needs {len(centers)} centers, exceeding the budget of {GRID_BUDGET}"
        )
    bound = regime_grid_bound(cls.regime, epsilon, cls.envelope)
    if len(centers) > bound:
        raise DomainError(
            f"grid size {len(centers)} exceeds the declared entropy bound {bound:.3g} "
            f"at epsilon/2; declared regime constants are too small"
        )
    return Grid(float(epsilon), tuple(centers), covariance(cls, P, centers))


def _interval_cover(cls: FunctionClass, P: Distribution, epsilon: float, cdf=None):
    """Mesh indices of a minimum strict epsilon-cover of an interval mesh.

    On a mesh sorted by parameter, ``dP_matrix`` gives d[i, k] for k >= i as
    sqrt(clip((F[i] + F[k]) - 2 F[i], 0)), F the nondecreasing CDF of
    ``_monotone_cdf`` on the mesh, and is bitwise symmetric (q is F(min);
    addition commutes). That expression is nondecreasing in k (rounded
    addition is monotone), so the ball about i reaches right up to hi[i],
    the first k with d[i, k] >= epsilon. ``_right_edges`` finds it by one
    sorted search of F for F[i] + epsilon^2, checked row by row in that same
    arithmetic, and bisects the rows whose check fails. With hi nondecreasing
    too, every ball is an index window whose ends are nondecreasing in its
    center, and the sweep is the minimum cover of a line by such windows: the
    first uncovered point i takes the rightmost center covering it,
    hi[i] - 1, and the next uncovered point is that center's right edge.

    ``cdf`` is ``mesh_cdf(cls, P)`` when the caller already has it, as a
    ladder of radii over one mesh does; it is computed here otherwise.
    Returns None for other classes, and when hi falls somewhere (rounding
    can make it fall); the caller then works on the matrix.
    """
    if cls.kind != "intervals":
        return None
    hi = _right_edges(mesh_cdf(cls, P) if cdf is None else cdf, epsilon)
    if np.any(np.diff(hi) < 0):
        return None
    hi = hi.tolist()
    picks, i = [], 0
    while i < len(hi):
        picks.append(hi[i] - 1)
        i = hi[picks[-1]]
    return picks


def _greedy_cover(ball: np.ndarray) -> list:
    """Greedy set cover over a boolean coverage matrix ball[c, p].

    Each pick takes the candidate covering the most uncovered points. The
    gains are counted once and then lowered by the counts over the newly
    covered columns only, so every column is summed once in all.
    """
    gains = ball.sum(axis=1)
    uncovered = np.ones(ball.shape[1], dtype=bool)
    picks = []
    while uncovered.any():
        c = int(np.argmax(gains))  # argmax takes the lowest index on ties
        if gains[c] == 0:
            raise DomainError("mesh point not coverable by any candidate center")
        picks.append(c)
        newly = ball[c] & uncovered
        uncovered &= ~newly
        gains -= ball[:, newly].sum(axis=1)
    return picks


def net_radius(cls: FunctionClass, P: Distribution, grid: Grid) -> float:
    """Max over mesh parameters of the distance to the nearest center."""
    union = list(grid.centers) + list(cls.mesh)
    d = dP_matrix(cls, P, union)[: len(grid.centers), len(grid.centers) :]
    return float(d.min(axis=0).max())


# -- covering and bracketing ----------------------------------------------------


@dataclass(frozen=True)
class CoverCertificate:
    lower: int
    upper: int
    exact: bool


def covering_certificate(
    cls: FunctionClass, P: Distribution, epsilon: float, distances=None, cdf=None
) -> CoverCertificate:
    """Minimal strict-ball cover of the class mesh.

    Interval meshes are counted exactly at any size by ``_interval_cover``,
    the cover that ``build_grid`` takes. Other meshes are counted on the
    distance matrix: exactly by branch and bound on at most
    ``EXACT_COVER_LIMIT`` points; above that, a greedy upper bound and a
    lower bound from a first-fit 2*epsilon-separated subset (an open
    epsilon-ball contains at most one point of such a subset).

    ``distances`` is ``dP_matrix(cls, P, cls.mesh)`` and ``cdf`` is
    ``mesh_cdf(cls, P)`` when the caller already has them, as a ladder of
    radii over one mesh does; each is computed here otherwise. Only the
    matrix path reads ``distances``, and only the interval sweep ``cdf``.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")
    picks = _interval_cover(cls, P, epsilon, cdf)
    if picks is not None:
        return CoverCertificate(len(picks), len(picks), True)
    d = dP_matrix(cls, P, list(cls.mesh)) if distances is None else distances
    ball = d < epsilon
    if len(d) <= EXACT_COVER_LIMIT:
        size = _exact_cover_size(ball)
        return CoverCertificate(size, size, True)
    upper = len(_greedy_cover(ball))
    lower = len(_first_fit_packing(d >= 2.0 * epsilon))
    return CoverCertificate(lower, upper, False)


def _right_edges(F: np.ndarray, radius: float) -> np.ndarray:
    """For each i, the first k >= i with d[i, k] >= radius, or len(F).

    d[i, k] is ``dP_matrix``'s expression on the CDF values F; for F
    nondecreasing it is nondecreasing in k, so the answer is the one k with
    d[i, k - 1] < radius (or k = i) and d[i, k] >= radius (or k = len(F)).
    One sorted search of F for F[i] + radius^2 guesses k for every row, and
    each guess is accepted only if that pair of conditions holds in d's own
    arithmetic, which makes it exact. The search compares F[k] with the
    rounded F[i] + radius^2, not d[i, k] with radius, so it can miss by a
    place where d[i, k] sits at the radius; the rows whose guess fails take
    the bisection.
    """
    n = len(F)
    rows = np.arange(n)
    edge = np.maximum(np.searchsorted(F, F + radius * radius), rows)
    inside = (edge == rows) | ~_far(F, F.take(edge - 1, mode="clip"), radius)
    reached = (edge == n) | _far(F, F.take(edge, mode="clip"), radius)
    missed = np.flatnonzero(~(inside & reached))
    if len(missed):
        edge[missed] = _bisect_edges(F, missed, radius)
    return edge


def _far(Fi: np.ndarray, Fk: np.ndarray, radius: float) -> np.ndarray:
    """d[i, k] >= radius from the CDF values F[i] and F[k], elementwise, in
    ``dP_matrix``'s arithmetic."""
    d2 = (Fi + Fk) - 2.0 * Fi
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2) >= radius


def _bisect_edges(F: np.ndarray, rows: np.ndarray, radius: float) -> np.ndarray:
    """``_right_edges`` of the given rows by bisection: one step per bit of
    len(F) halves every bracket [lo, hi] at once."""
    n, Fi = len(F), F[rows]
    lo, hi = rows.copy(), np.full(len(rows), n)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        far = _far(Fi, F.take(mid, mode="clip"), radius)
        np.copyto(hi, mid, where=far)
        np.copyto(lo, mid + 1, where=~far)
        np.minimum(lo, hi, out=lo)  # a closed bracket stays closed
    return lo


def _first_fit_packing(sep: np.ndarray) -> list:
    """Indices kept in order when sep[k, i] holds for every earlier kept i.

    free[k] records that point k, after the last kept point, is separated
    from every kept point; the next kept point is the lowest free index.
    """
    free = np.ones(sep.shape[0], dtype=bool)
    kept = []
    while free.any():
        i = int(np.argmax(free))
        kept.append(i)
        free &= sep[:, i]
        free[: i + 1] = False
    return kept


def _exact_cover_size(ball: np.ndarray) -> int:
    """Branch-and-bound minimal set cover over candidate rows of ``ball``."""
    n = ball.shape[0]
    masks = []
    full = (1 << n) - 1
    for i in range(n):
        m = 0
        for j in range(n):
            if ball[i, j]:
                m |= 1 << j
        masks.append(m)
    # Drop dominated candidates for speed; keep lowest index among equals.
    order = sorted(range(n), key=lambda i: -bin(masks[i]).count("1"))
    keep = []
    for i in order:
        if not any(masks[i] | masks[k] == masks[k] and masks[i] != masks[k] for k in keep):
            keep.append(i)
    cand = [masks[i] for i in keep]
    best = len(_greedy_cover(ball))

    def recurse(covered: int, used: int):
        nonlocal best
        if covered == full:
            best = min(best, used)
            return
        if used + 1 >= best:
            return
        # Branch on the uncovered point with the fewest covering candidates.
        rem = full & ~covered
        pick, fewest = -1, None
        for j in range(n):
            if rem >> j & 1:
                cover_j = [m for m in cand if m >> j & 1]
                if fewest is None or len(cover_j) < len(fewest):
                    pick, fewest = j, cover_j
                    if len(cover_j) <= 1:
                        break
        if not fewest:
            return
        for m in fewest:
            recurse(covered | m, used + 1)

    recurse(0, 0)
    return best


@dataclass(frozen=True)
class BracketSet:
    count: int
    brackets: tuple  # pairs of (lower, upper) descriptors, kind-specific


def bracketing_set(cls: FunctionClass, P: Distribution, epsilon: float, cdf=None) -> BracketSet:
    """Brackets of width at most epsilon that cover the class mesh. ``cdf``
    is ``mesh_cdf(cls, P)`` when the caller already has it; only interval
    classes read it."""
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")
    if cls.kind == "intervals":
        return _interval_brackets(cls, P, epsilon, cdf)
    if cls.kind == "holder":
        return _holder_brackets(cls, P, epsilon)
    raise UnsupportedOperationError(
        f"bracketing is defined for interval and holder kinds, not {cls.kind!r}"
    )


def _interval_brackets(cls, P, epsilon, cdf) -> BracketSet:
    # Monotone chain: brackets [1{x<=a}, 1{x<=b}] with CDF gap <= eps^2, so
    # the bracket width is d_P(l, u) = sqrt(F(b) - F(a)) <= eps.
    k = int(math.ceil(1.0 / (epsilon * epsilon)))
    qs = np.linspace(0.0, 1.0, k + 1)
    mesh = cls.mesh_array
    F = mesh_cdf(cls, P) if cdf is None else cdf
    # Map CDF levels back to parameter boundaries on the mesh.
    bounds = mesh[np.searchsorted(F, qs, side="left").clip(0, len(mesh) - 1)].tolist()
    bounds[0], bounds[-1] = 0.0, 1.0
    pairs = tuple((bounds[i], bounds[i + 1]) for i in range(k))
    return BracketSet(k, pairs)


def _holder_brackets(cls, P, epsilon) -> BracketSet:
    # Piecewise-constant envelopes: quantized cell values with half-width
    # covering within-cell variation (R w^s <= eps/4) plus quantization eps/8.
    s, radius = cls.holder_exponent, cls.holder_radius
    try:
        w_max = (epsilon / (4.0 * radius)) ** (1.0 / s)
    except OverflowError:  # past the float range, for a small R: one cell
        w_max = math.inf
    # A width below 2^-1000 (a small s underflows it to 0) needs more cells
    # than any budget; its inverse may be inf, which math.ceil refuses.
    n_cells = max(1, math.ceil(1.0 / w_max)) if w_max > 2.0**-1000 else math.inf
    if n_cells > 1 << 16:
        raise CapacityError(f"holder bracketing needs {n_cells} cells, over the 65536 budget")
    eta = epsilon / 4.0
    mids = (np.arange(n_cells) + 0.5) / n_cells
    xs = cls.knots
    seen = set()
    for theta in cls.mesh:
        vals = np.interp(mids, xs, np.asarray(theta, dtype=float))
        seen.add(tuple(np.round(vals / eta).astype(int)))
    half = radius * (1.0 / n_cells) ** s + eta / 2.0
    brackets = tuple((key, half) for key in sorted(seen))
    return BracketSet(len(seen), brackets)


# -- entropy fits ----------------------------------------------------------------


@dataclass(frozen=True)
class EntropyReport:
    epsilons: tuple
    counts: tuple
    model: str  # "vc" or "br"
    constants: dict
    residual: float

    def __post_init__(self):
        if any(c < 1 for c in self.counts):
            raise DomainError("covering counts must be >= 1")
        for i in range(len(self.epsilons) - 1):
            if self.counts[i] > self.counts[i + 1]:
                raise DomainError("counts must be nonincreasing as radius grows")


def fit_entropy_counts(epsilons, counts, model: str) -> EntropyReport:
    """Least-squares fit of the declared entropy law to (epsilon, count) data."""
    eps = np.asarray(list(epsilons), dtype=float)
    cnt = np.asarray(list(counts), dtype=float)
    if len(eps) < 3:
        raise DomainError("need at least 3 radii")
    if np.any(np.diff(eps) >= 0):
        raise DomainError("radii must be strictly decreasing")
    if np.allclose(cnt, cnt[0]):
        raise DegenerateFitError("all counts equal; nothing to fit")
    x = np.log(1.0 / eps)
    if model == "vc":
        y = np.log(cnt)
    elif model == "br":
        if np.any(cnt <= 1):
            raise DegenerateFitError("br fit needs counts > 1 (log log)")
        y = np.log(np.log(cnt))
    else:
        raise ConfigError(f"unknown entropy model {model!r}")
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.abs(y - (slope * x + intercept)).max())
    if model == "vc":
        constants = {"c0": float(np.exp(intercept)), "nu0": float(slope)}
    else:
        constants = {"b0": float(np.exp(intercept / 2.0)), "r0": float(slope / 2.0)}
    return EntropyReport(
        tuple(float(e) for e in eps), tuple(int(c) for c in cnt), model, constants, resid
    )

