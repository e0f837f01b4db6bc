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
kept strictly apart.

Members are evaluated in batches: ``FunctionClass.evaluate_matrix`` gives
f_theta(x_i) for a parameter list and a sample, ``column_sums`` its column
sums, and ``batch_column_sums`` the column sums of each sample in a stack.
Holder classes are evaluated by one cell search per sample point, shared by
every parameter, with np.interp's slopes and order of operations, so the
matrix is bit-identical to one np.interp call per parameter. Their column sums
skip the matrix: they need only each knot cell's point count and point sum,
which one kernel takes for every sample of a stack at once.

Grids (epsilon-nets), covering numbers and bracketing numbers are all defined
relative to the class's declared finite verification mesh of parameters
(``FunctionClass.mesh``), which makes every "covers" predicate decidable. A
grid holds at most ``GRID_BUDGET`` centers. Covering counts on meshes of at
most ``EXACT_COVER_LIMIT`` points use an exact branch-and-bound set cover;
larger meshes use a greedy upper bound with a separation-packing lower
certificate. On a larger interval mesh every ball is a window of mesh indices:
both counts are taken on windows found with the distance matrix's own
arithmetic, so they equal the matrix counts, and the mesh x mesh matrix is
never built. Entropy-law fits take (radius, count) pairs
(``fit_entropy_counts``); the ``entropy`` command counts covers on a radius
ladder and fits them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import Distribution
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateFitError,
    DomainError,
    UnsupportedOperationError,
)
from .quadrature import adaptive_simpson

KINDS = ("intervals", "rectangles", "holder", "finite")
FINITE_FORMS = ("interval", "rectangle", "constant")
GRID_BUDGET = 4096  # most centers a grid may hold
EXACT_COVER_LIMIT = 24  # largest mesh whose cover is counted exactly


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
        if self.kind == "vc" and (self.c0 <= 0 or self.nu0 <= 0):
            raise ConfigError("vc regime needs c0 > 0 and nu0 > 0")
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
        if self.envelope <= 0:
            raise ConfigError("envelope bound must be positive")
        if self.regime is None:
            object.__setattr__(self, "regime", _default_regime(self.kind))
        if self.kind == "intervals" and self.dim != 1:
            raise ConfigError("interval indicators are one-dimensional")
        if self.kind == "rectangles" and self.dim < 1:
            raise ConfigError("rectangles need dim >= 1")
        if self.kind == "holder":
            if not (0 < self.holder_exponent <= 1):
                raise ConfigError("holder exponent must lie in (0, 1]")
            if self.holder_radius <= 0:
                raise ConfigError("holder radius must be positive")
            if self.knot_count < 2:
                raise ConfigError("holder classes need at least 2 knots")
        if self.kind == "finite":
            if not self.members:
                raise ConfigError("finite class needs a nonempty member list")
            canon = [_canonical_member(m) for m in self.members]
            if len(set(canon)) != len(canon):
                raise ConfigError("finite member list has duplicates")
            object.__setattr__(self, "members", tuple(canon))
            for form, param in self.members:
                _validate_member(form, param, self.dim, self.envelope)
        if self.mesh_size < 1:
            raise ConfigError("mesh size must be >= 1")

    # -- parameter mesh -----------------------------------------------------

    @cached_property
    def mesh(self) -> tuple:
        """Declared verification mesh of parameters."""
        if self.kind == "intervals":
            return tuple(float(t) for t in np.linspace(0.0, 1.0, self.mesh_size))
        if self.kind == "rectangles":
            per_axis = max(2, int(round(self.mesh_size ** (1.0 / self.dim))))
            axis = np.linspace(0.0, 1.0, per_axis)
            return tuple(itertools.product(*([tuple(axis)] * self.dim)))
        if self.kind == "holder":
            return self._holder_mesh()
        return self.members

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
            np.random.PCG64(np.random.SeedSequence(self.mesh_seed, spawn_key=(7,)))
        )
        xs = self.knots
        s, radius, half = self.holder_exponent, self.holder_radius, self.envelope / 2.0
        gaps = np.abs(xs[:, None] - xs[None, :]) ** s
        out = [tuple(0.0 for _ in xs)]
        while len(out) < self.mesh_size:
            step = rng.uniform(-1.0, 1.0, size=len(xs) - 1)
            v = np.concatenate([[rng.uniform(-half, half)], step]).cumsum()
            dv = np.abs(v[:, None] - v[None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
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
        if self.kind == "intervals":
            thetas = np.asarray(params, dtype=float)
            return (xs[:, None] <= thetas[None, :]).astype(float)
        if self.kind == "rectangles":
            t = np.asarray(params, dtype=float)
            pts = xs if xs.ndim == 2 else xs[:, None]
            return np.all(pts[:, None, :] <= t[None, :, :], axis=2).astype(float)
        if self.kind == "holder" and xs.ndim == 1 and len(params):
            return _interp_matrix(self.knots, np.asarray(params, dtype=float), xs)
        cols = [_member_eval(form, param, xs) for form, param in params]
        return np.column_stack(cols) if cols else np.zeros((len(xs), 0))

    def column_sums(self, params, xs: np.ndarray) -> np.ndarray:
        """sum_i f_theta(x_i) for each theta in params, shape (len(params),).

        Neither indicator intervals nor one-dimensional Hoelder members build
        the n x g matrix (g = len(params)). Interval indicators are counted:
        one sort of the sample and a binary search per parameter; the counts
        are integers, so they equal the matrix column sums bit for bit. A
        Hoelder member is linear on each knot cell, so its sum needs only each
        cell's point count and sum of offsets from the cell's left knot (see
        ``_interp_column_sums``, here with one row); that adds in another
        order than the matrix sum, so the two agree to rounding, not bit for
        bit. Other classes sum the matrix.
        """
        xs = np.asarray(xs, dtype=float)
        if self.kind == "intervals":
            thetas = np.asarray(params, dtype=float)
            return np.searchsorted(np.sort(xs), thetas, side="right").astype(float)
        if self.kind == "holder" and xs.ndim == 1 and len(params):
            return _interp_column_sums(self.knots, np.asarray(params, dtype=float), xs[None])[0]
        return self.evaluate_matrix(params, xs).sum(axis=0)

    def batch_column_sums(self, params, batch: np.ndarray) -> np.ndarray:
        """Row r is ``column_sums(params, batch[r])``; shape (rows, len(params)).

        ``batch`` stacks samples of equal size: (rows, n) for one-dimensional
        points, (rows, n, d) otherwise. One-dimensional Hoelder samples are
        reduced together by one knot-cell kernel whose rows equal the one-row
        calls bit for bit; other classes sum each row by ``column_sums``.
        """
        batch = np.asarray(batch, dtype=float)
        if self.kind == "holder" and batch.ndim == 2 and len(params):
            return _interp_column_sums(self.knots, np.asarray(params, dtype=float), batch)
        return np.stack([self.column_sums(params, xs) for xs in batch])

    def grid_bound(self, epsilon: float) -> float:
        """Declared covering-number bound evaluated at epsilon/2."""
        return regime_grid_bound(self.regime, epsilon, self.envelope)

    def to_spec(self) -> dict:
        spec = {"kind": self.kind, "M": self.envelope, "mesh_size": self.mesh_size}
        r = self.regime
        spec["regime"] = (
            {"type": "vc", "c0": r.c0, "nu0": r.nu0}
            if r.kind == "vc"
            else {"type": "br", "b0": r.b0, "r0": r.r0}
        )
        if self.kind == "rectangles":
            spec["dim"] = self.dim
        if self.kind == "holder":
            spec.update(
                s=self.holder_exponent,
                R=self.holder_radius,
                knots=self.knot_count,
                mesh_seed=self.mesh_seed,
            )
        if self.kind == "finite":  # its mesh is the member list, not mesh_size
            del spec["mesh_size"]
            spec["members"] = [
                {"form": f, "theta": list(p) if isinstance(p, tuple) else p}
                for f, p in self.members
            ]
        return spec


def regime_grid_bound(regime: EntropyRegime, epsilon: float, M: float) -> float:
    """Covering-count bound N(epsilon) implied by the declared regime."""
    if regime.kind == "vc":
        try:
            return regime.c0 * M**regime.nu0 * epsilon ** (-regime.nu0)
        except OverflowError:  # a power past the float range
            return math.inf
    expo = 2.0 ** (2.0 * regime.r0) * regime.b0**2 / epsilon ** (2.0 * regime.r0)
    return math.inf if expo > 700 else math.exp(expo)


def _default_regime(kind: str) -> EntropyRegime:
    # Interval/rectangle indicators have polynomial L2 entropy with exponent
    # about twice the VC-subgraph dimension; c0 = 4 leaves validation slack.
    if kind == "holder":
        return EntropyRegime("br", b0=1.0, r0=0.75)
    return EntropyRegime("vc", c0=4.0, nu0=2.0)


def _canonical_member(member) -> tuple:
    form, param = member
    if form not in FINITE_FORMS:
        raise ConfigError(f"unknown finite-member form {form!r}")
    if isinstance(param, (list, tuple, np.ndarray)):
        param = tuple(float(v) for v in param)
    else:
        param = float(param)
    return (form, param)


def _validate_member(form, param, dim, envelope):
    if form == "interval":
        if not isinstance(param, float) or not (0.0 <= param <= 1.0):
            raise ConfigError(f"interval member parameter {param} outside [0,1]")
    elif form == "rectangle":
        if not isinstance(param, tuple) or any(not (0.0 <= v <= 1.0) for v in param):
            raise ConfigError(f"rectangle member parameter {param} invalid")
    else:
        if abs(param) > envelope / 2.0:
            raise ConfigError("constant member exceeds the envelope")


def _knot_cells(knots: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """np.searchsorted(knots, xs, side="right") - 1 for knots = np.linspace(0, 1, K).

    Equally spaced knots give the cell as floor(x k), k = K - 1, with no
    binary search over the knots. Each knot lies within 2^-52 of i / k and
    x k is rounded by at most k 2^-53, so the floor can be wrong only when
    x k falls within k 2^-51 of an integer. Those few points (and points on
    a knot, outside [0, 1] or NaN) are searched exactly, so the result is
    exact: -1 left of 0, K - 1 at or right of 1 and for NaN, which sorts
    last.
    """
    k = len(knots) - 1
    tol = k * 2.0**-48  # 8 times the rounding bound above
    v = np.fmin(np.maximum(xs * k, -1.0), k)  # np.maximum keeps NaN, np.fmin sends it to k
    cell = np.floor(v)
    frac = v - cell
    near = (frac < tol) | (frac > 1.0 - tol)
    pos = cell.astype(np.intp)
    if near.any():
        pos[near] = np.searchsorted(knots, xs[near], side="right") - 1
    return pos


def _interp_matrix(knots: np.ndarray, vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Column j is np.interp(xs, knots, vals[j]), bit for bit; shape (n, g).

    One cell search per sample serves every parameter. Each cell value is
    slope * (x - knot) + value, computed in np.interp's order of operations
    with its slope expression, so finite inputs give the same bits. Points
    on a knot or outside [knots[0], knots[-1]] take the knot value, as in
    np.interp. The result is C-ordered (n, g), so its column sums add in the
    same order as those of the column-stacked matrix.
    """
    pos = _knot_cells(knots, xs)
    j = np.clip(pos, 0, len(knots) - 2)
    slopes = (vals[:, 1:] - vals[:, :-1]) / (knots[1:] - knots[:-1])
    out = np.take(np.ascontiguousarray(slopes.T), j, axis=0)
    out *= (xs - knots[j])[:, None]
    table = np.ascontiguousarray(vals.T)
    out += np.take(table, j, axis=0)
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
    knot with offset 0. A point at the last knot counts in the last entry of
    C, which no cell extends. One ``bincount`` on the key row * K + cell gives
    C and S for every row at once, each bin adding its row's points in
    sample order, and the sums are taken one knot column at a time, so each
    row's bits do not depend on the other rows. The sums equal the matrix
    column sums up to rounding.
    """
    rows, K = len(xs), len(knots)
    x = np.clip(xs, knots[0], knots[-1])
    key = _knot_cells(knots, x)
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


def _member_eval(form, param, xs: np.ndarray) -> np.ndarray:
    if form == "interval":
        return (xs <= param).astype(float)
    if form == "rectangle":
        pts = xs if xs.ndim == 2 else xs[:, None]
        t = np.asarray(param, dtype=float)
        return np.all(pts <= t[None, :], axis=1).astype(float)
    return np.full(len(xs), param, dtype=float)


# -- operations ---------------------------------------------------------------


def mean_vector(cls: FunctionClass, P: Distribution, params) -> np.ndarray:
    """E f_theta(X) for each parameter."""
    params = list(params)
    if cls.kind == "intervals":
        _require_dim(P, 1)
        return np.asarray(P.cdf(np.asarray(params, dtype=float)), dtype=float)
    if cls.kind == "rectangles":
        _require_dim(P, cls.dim)
        t = np.asarray(params, dtype=float)
        if P.kind == "product-uniform":
            return t.prod(axis=1)
        if P.kind == "discrete":
            pts = P._atom_array()
            w = np.asarray(P.weights, float)
            ind = np.all(pts[:, None, :] <= t[None, :, :], axis=2)
            return w @ ind
        raise DomainError(f"rectangle moments undefined under {P.kind}")
    if cls.kind == "holder":
        _require_dim(P, 1)
        vals = np.asarray(params, dtype=float)  # (p, K) knot values
        if P.kind in ("uniform", "product-uniform"):
            h = 1.0 / (cls.knot_count - 1)
            return h * (0.5 * vals[:, 0] + vals[:, 1:-1].sum(axis=1) + 0.5 * vals[:, -1])
        if P.kind == "discrete":
            pts = P._atom_array()[:, 0]
            w = np.asarray(P.weights, float)
            return np.array([w @ np.interp(pts, cls.knots, v) for v in vals])
        return np.array([_holder_beta_moment(cls, P, v, None) for v in vals])
    out = []
    for form, param in params:
        out.append(_member_mean(form, param, P))
    return np.asarray(out, dtype=float)


def second_moment_matrix(cls: FunctionClass, P: Distribution, params) -> np.ndarray:
    """Uncentered Gram matrix E f_i(X) f_j(X)."""
    params = list(params)
    p = len(params)
    if cls.kind == "intervals":
        _require_dim(P, 1)
        # cdf(min(s, t)) is the CDF value of the smaller parameter: p CDF
        # evaluations, not p^2, and the same bits.
        t = np.asarray(params, dtype=float)
        F = np.asarray(P.cdf(t), dtype=float)
        return np.where(t[:, None] <= t[None, :], F[:, None], F[None, :])
    if cls.kind == "rectangles":
        _require_dim(P, cls.dim)
        t = np.asarray(params, dtype=float)
        if P.kind == "product-uniform":
            return np.minimum(t[:, None, :], t[None, :, :]).prod(axis=2)
        if P.kind == "discrete":
            pts = P._atom_array()
            w = np.asarray(P.weights, float)
            ind = np.all(pts[:, None, :] <= t[None, :, :], axis=2).astype(float)
            return ind.T @ (ind * w[:, None])
        raise DomainError(f"rectangle moments undefined under {P.kind}")
    if cls.kind == "holder":
        _require_dim(P, 1)
        vals = np.asarray(params, dtype=float)
        if P.kind in ("uniform", "product-uniform"):
            # Product of linear pieces is quadratic per cell; one Simpson
            # application per cell is exact.
            h = 1.0 / (cls.knot_count - 1)
            a, b = vals[:, :-1], vals[:, 1:]
            return (a @ a.T + (a + b) @ (a + b).T + b @ b.T) * (h / 6.0)
        if P.kind == "discrete":
            pts = P._atom_array()[:, 0]
            w = np.asarray(P.weights, float)
            mat = cls.evaluate_matrix(vals, pts)
            return mat.T @ (mat * w[:, None])
        out = np.empty((p, p))
        for i in range(p):
            for j in range(i, p):
                out[i, j] = out[j, i] = _holder_beta_moment(cls, P, vals[i], vals[j])
        return out
    out = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            out[i, j] = out[j, i] = _member_cross(params[i], params[j], P)
    return out


def covariance(cls: FunctionClass, P: Distribution, params) -> np.ndarray:
    """Centered Gram matrix E f_i f_j - E f_i E f_j: the covariance of the field."""
    params = list(params)
    q = second_moment_matrix(cls, P, params)
    m = mean_vector(cls, P, params)
    return q - np.outer(m, m)


def _require_dim(P: Distribution, dim: int):
    if P.dim != dim:
        raise DomainError(f"distribution dimension {P.dim} does not match class ({dim})")


def _holder_beta_moment(cls, P, v1, v2) -> float:
    """E f g under a beta law: adaptive quadrature split at the knots."""
    xs = cls.knots
    f1 = lambda x: np.interp(x, xs, v1)
    if v2 is None:
        g = lambda x: float(f1(x) * P.pdf(x))
    else:
        f2 = lambda x: np.interp(x, xs, v2)
        g = lambda x: float(f1(x) * f2(x) * P.pdf(x))
    per = 1e-8 / (len(xs) - 1)
    return sum(adaptive_simpson(g, xs[i], xs[i + 1], per) for i in range(len(xs) - 1))


def _member_mean(form, param, P: Distribution) -> float:
    if form == "constant":
        return param
    if form == "interval":
        _require_dim(P, 1)
        return float(P.cdf(param))
    _require_dim(P, len(param))
    if P.kind == "product-uniform" or (P.kind == "uniform" and len(param) == 1):
        return float(np.prod(param))
    if P.kind == "discrete":
        pts = P._atom_array()
        w = np.asarray(P.weights, float)
        return float(w @ np.all(pts <= np.asarray(param)[None, :], axis=1))
    raise DomainError(f"rectangle moments undefined under {P.kind}")


def _member_cross(m1, m2, P: Distribution) -> float:
    (f1, p1), (f2, p2) = m1, m2
    if f1 == "constant":
        return p1 * _member_mean(f2, p2, P)
    if f2 == "constant":
        return p2 * _member_mean(f1, p1, P)
    if f1 == "interval" and f2 == "interval":
        return float(P.cdf(min(p1, p2)))
    if f1 == "rectangle" and f2 == "rectangle":
        both = tuple(min(a, b) for a, b in zip(p1, p2))
        return _member_mean("rectangle", both, P)
    raise DomainError(f"cross moment undefined for forms {f1}/{f2}")


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
    """Select centers forming an epsilon-net of the verification mesh.

    Interval classes use a one-pass sweep over their sorted mesh (minimal for
    a 1-D totally ordered metric) that decides coverage in CDF space,
    |F(a) - F(b)| < epsilon^2. That is a strict net up to rounding only: at
    ties the distance sqrt(F(b) - F(a)) can round to just above epsilon
    (``net_radius`` is 0.10000000000000005 at epsilon 0.1 on the uniform 101-
    and 1001-point meshes). Other kinds use greedy set cover on
    ``dP_matrix < epsilon``, a strict net, with deterministic tie breaking.
    Raises a capacity error when more than ``GRID_BUDGET`` centers would be
    needed.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")
    mesh = list(cls.mesh)
    if cls.kind == "intervals":
        centers = _interval_sweep(cls, P, mesh, epsilon)
    else:
        dmat = dP_matrix(cls, P, mesh)
        centers = [mesh[i] for i in _greedy_cover(dmat < epsilon)]
    if len(centers) > GRID_BUDGET:
        raise CapacityError(
            f"grid needs {len(centers)} centers, exceeding the budget of {GRID_BUDGET}"
        )
    bound = cls.grid_bound(epsilon)
    if len(centers) > bound:
        raise DomainError(
            f"grid size {len(centers)} exceeds the declared entropy bound {bound:.3g} "
            f"at epsilon/2; declared regime constants are too small"
        )
    return Grid(float(epsilon), tuple(centers), covariance(cls, P, centers))


def _interval_sweep(cls, P, mesh, epsilon) -> list:
    # Coverage in CDF space: d(a, b) < eps iff |F(a) - F(b)| < eps^2.
    window = epsilon * epsilon
    thetas = np.asarray(mesh, dtype=float)
    F = np.asarray(P.cdf(thetas), dtype=float)
    centers = []
    i = 0
    n = len(mesh)
    while i < n:
        j = int(np.searchsorted(F, F[i] + window, side="left")) - 1
        j = max(j, i)
        centers.append(float(thetas[j]))
        i = int(np.searchsorted(F, F[j] + window, side="left"))
        i = max(i, j + 1)
    return centers


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
    cls: FunctionClass, P: Distribution, epsilon: float, distances=None
) -> CoverCertificate:
    """Minimal strict-ball cover of the class mesh, exact for meshes of at
    most ``EXACT_COVER_LIMIT`` points.

    Large meshes return a greedy upper bound and a lower bound from a
    first-fit 2*epsilon-separated subset (an open epsilon-ball contains at
    most one point of such a subset). Large interval meshes count both on
    index windows (``_window_certificate``), with the counts the distance
    matrix gives and without building it.

    ``distances`` is ``dP_matrix(cls, P, cls.mesh)`` when the caller already
    has it, as a ladder of radii over one mesh does; it is computed here
    otherwise. Only the matrix path reads it: the interval path ignores it.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")
    F = _window_cdf(cls, P)
    cert = None if F is None else _window_certificate(F, epsilon)
    if cert is not None:
        return cert
    d = dP_matrix(cls, P, list(cls.mesh)) if distances is None else distances
    ball = d < epsilon
    if len(d) <= EXACT_COVER_LIMIT:
        size = _exact_cover_size(ball)
        return CoverCertificate(size, size, True)
    upper = len(_greedy_cover(ball))
    lower = len(_first_fit_packing(d >= 2.0 * epsilon))
    return CoverCertificate(lower, upper, False)


def _window_cdf(cls: FunctionClass, P: Distribution):
    """The CDF on a large interval mesh, when index windows can count its covers.

    Returns None for other classes, for meshes of at most
    ``EXACT_COVER_LIMIT`` points, and when the mesh is not strictly
    increasing or the CDF on it is not nondecreasing (scipy's beta CDF can
    fall by one unit in the last place near 1); the matrix counts those.
    """
    if cls.kind != "intervals" or len(cls.mesh) <= EXACT_COVER_LIMIT:
        return None
    _require_dim(P, 1)
    thetas = np.asarray(cls.mesh, dtype=float)
    F = np.asarray(P.cdf(thetas), dtype=float)
    return F if np.all(np.diff(thetas) > 0) and np.all(np.diff(F) >= 0) else None


def _window_certificate(F: np.ndarray, epsilon: float):
    """The large-mesh certificate of an interval class from index windows.

    On a mesh sorted by parameter, ``dP_matrix`` gives d[i, k] for k >= i as
    sqrt(clip((F[i] + F[k]) - 2 F[i], 0)), with F the CDF on the mesh, and
    the matrix is bitwise symmetric (its q is cdf(min) and addition
    commutes). When F is nondecreasing, so is that expression in k, because
    rounded addition is monotone; the ball of radius r about i then reaches
    right up to the first k with d[i, k] >= r, and ``_right_edges`` finds it
    with the same arithmetic. By symmetry the ball reaches left over the
    points p < c with hi[p] > c, a window [searchsorted(hi, c), c) when hi is
    nondecreasing. Greedy cover and first-fit packing on these windows pick
    what ``_greedy_cover`` and ``_first_fit_packing`` pick on the matrix.
    F must be nondecreasing (see ``_window_cdf``). Returns None when the
    cover edges hi are not, which rounding can bring about; the caller then
    takes the matrix path.
    """
    hi = _right_edges(F, epsilon)
    if np.any(np.diff(hi) < 0):
        return None
    n = len(F)
    lo = np.searchsorted(hi, np.arange(n), side="right")
    uncovered = np.ones(n, dtype=bool)
    counts = np.zeros(n + 1, dtype=np.intp)
    upper = 0
    while uncovered.any():
        np.cumsum(uncovered, out=counts[1:])
        c = int(np.argmax(counts[hi] - counts[lo]))  # argmax takes the lowest index on ties
        uncovered[lo[c] : hi[c]] = False
        upper += 1
    sep = _right_edges(F, 2.0 * epsilon)
    lower, i = 1, int(sep[0])
    while i < n:  # the next point kept is the first one 2 epsilon from the last
        lower, i = lower + 1, int(sep[i])
    return CoverCertificate(lower, upper, False)


def _right_edges(F: np.ndarray, radius: float) -> np.ndarray:
    """For each i, the first k >= i with d[i, k] >= radius, or len(F).

    d[i, k] is ``dP_matrix``'s expression on the CDF values F. One bisection
    step per bit of len(F) halves every bracket [lo, hi] at once; it needs
    d[i, k] nondecreasing in k, which holds when F is nondecreasing.
    """
    n = len(F)
    twice = 2.0 * F
    lo, hi = np.arange(n), np.full(n, n)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        d2 = (F + np.take(F, mid, mode="clip")) - twice
        far = np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2) >= radius
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


def bracketing_set(cls: FunctionClass, P: Distribution, epsilon: float) -> BracketSet:
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must lie in (0, 1)")
    if cls.kind == "intervals":
        return _interval_brackets(cls, P, epsilon)
    if cls.kind == "holder":
        return _holder_brackets(cls, P, epsilon)
    raise UnsupportedOperationError(
        f"bracketing is defined for interval and holder kinds, not {cls.kind!r}"
    )


def bracketing_number(cls: FunctionClass, P: Distribution, epsilon: float) -> int:
    return bracketing_set(cls, P, epsilon).count


def _interval_brackets(cls, P, epsilon) -> BracketSet:
    # Monotone chain: brackets [1{x<=a}, 1{x<=b}] with CDF gap <= eps^2, so
    # the bracket width is d_P(l, u) = sqrt(F(b) - F(a)) <= eps.
    k = int(math.ceil(1.0 / (epsilon * epsilon)))
    qs = np.linspace(0.0, 1.0, k + 1)
    mesh = np.asarray(cls.mesh, dtype=float)
    F = np.asarray(P.cdf(mesh), dtype=float)
    # Map CDF levels back to parameter boundaries on the mesh.
    bounds = mesh[np.searchsorted(F, qs, side="left").clip(0, len(mesh) - 1)].tolist()
    bounds[0], bounds[-1] = 0.0, 1.0
    pairs = tuple((bounds[i], bounds[i + 1]) for i in range(k))
    return BracketSet(k, pairs)


def _holder_brackets(cls, P, epsilon) -> BracketSet:
    # Piecewise-constant envelopes: quantized cell values with half-width
    # covering within-cell variation (R w^s <= eps/4) plus quantization eps/8.
    s, radius = cls.holder_exponent, cls.holder_radius
    w_max = (epsilon / (4.0 * radius)) ** (1.0 / s)
    n_cells = int(math.ceil(1.0 / w_max))
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

