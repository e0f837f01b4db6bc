"""Block schedules and the sequential block-coupled path construction.

Two block-growth regimes. The polynomial ("vc") schedule uses n_0 = 1 and
n_k = floor(k^alpha), with alpha gated by the exact rational constraint
1/2 < tau1 * alpha < 1. The stretched-exponential ("br") schedule uses
cumulative times t_k = floor(exp(k^{1-kappa})) with t_0 = 1 and block sizes
n_k = t_k - t_{k-1}; a unit starter block makes the cumulative identity
t_N = sum of all block sizes exact. No block of either regime is empty: a
polynomial block is at least floor(1^alpha) = 1, and consecutive
stretched-exponential times differ by more than (1 - kappa) e > 1 before the
floor. A schedule stores only its blocks: N and the cumulative boundaries
are derived from them, so they cannot disagree. A schedule with no block, or
with an empty one, is rejected.

The sequential construction couples each block independently at its own
radius, then fills within-block Gaussian partial sums by a bridge-style
conditional interpolation pinned to the block's coupled endpoint. The path
discrepancy is the running maximum over all sample counts m of the sup norm
of (unscaled empirical partial sum) minus (Gaussian partial sum) on a common
evaluation mesh. That difference is computed directly, as one signed walk per
block whose steps are the evaluation minus the fill steps plus a per-block
drift; its end value is the gap the next block starts from.
``block_contexts`` prepares every block's coupling context, once per distinct
radius across a set of schedules; ``run_sequential`` is the block loop that
uses them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bridge import build_bridge
from .coupling import check_method, construct_joint, prepare_coupling, select_epsilon
from .distributions import Distribution
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    ScheduleInvalidError,
)
from .exponents import _as_fraction, rate_thm1, rate_thm2
from .function_classes import EntropyRegime, FunctionClass, row_blocks
from .seeds import SeedSpec

REGIMES = ("vc", "br")
_EXP_ARG_LIMIT = 700.0


@dataclass(frozen=True, eq=False)
class BlockingSchedule:
    """Block sizes n_k, k = 0..N; N and the boundaries are derived from them.

    ``cum``, their prefix sums, has length N + 2: cum[k] = n_0 + ... + n_{k-1},
    so cum[-1] is the total sample count. The native cumulative times of the
    construction are cum[k] for the polynomial regime and cum[k+1] for the
    stretched-exponential one (where they equal floor(exp(k^{1-kappa}))).
    """

    regime: str
    beta: float
    n: tuple
    params: dict

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown schedule regime {self.regime!r}")
        if not self.n:
            raise ScheduleInvalidError("a schedule needs at least one block")
        if any(size < 1 for size in self.n):
            raise ScheduleInvalidError("every block needs at least one sample")

    @property
    def N(self) -> int:
        return len(self.n) - 1

    @cached_property
    def cum(self) -> tuple:
        return tuple(itertools.accumulate(self.n, initial=0))

    @property
    def total(self) -> int:
        return self.cum[-1]

    def t_of(self, k: int) -> int:
        """The construction's native cumulative time t_k."""
        return self.cum[k] if self.regime == "vc" else self.cum[k + 1]


def _int_root(x: int, q: int) -> int:
    """floor(x^(1/q)) by integer Newton iteration."""
    if x < 0 or q < 1:
        raise DomainError("need x >= 0 and q >= 1")
    if x == 0 or q == 1:
        return x
    guess = int(round(x ** (1.0 / q))) + 1
    while guess**q > x:
        guess = ((q - 1) * guess + x // guess ** (q - 1)) // q
    while (guess + 1) ** q <= x:
        guess += 1
    return guess


def _floor_power(k: int, alpha: Fraction) -> int:
    """Exact floor(k^alpha) for rational alpha > 0."""
    return _int_root(k**alpha.numerator, alpha.denominator)


def schedule_vc(alpha, tau1, tau2, N: int) -> BlockingSchedule:
    """Polynomial block schedule gated by 1/2 < tau1 alpha < 1 exactly; its
    ``s_of_N`` window exponent is beta = alpha / (1 + alpha)."""
    alpha_f, tau1_f = _as_fraction(alpha), _as_fraction(tau1)
    tau2_f = _as_fraction(tau2)
    if N < 2:
        raise DomainError("need at least N = 2 blocks")
    product = alpha_f * tau1_f
    if not (Fraction(1, 2) < product < 1):
        raise ScheduleInvalidError(
            f"block exponent alpha = {alpha_f} requires 1/2 < tau1 alpha < 1; "
            f"got tau1 alpha = {product}"
        )
    n = [1] + [_floor_power(k, alpha_f) for k in range(1, N + 1)]
    params = {
        "alpha": float(alpha_f),
        "tau1": float(tau1_f),
        "tau2": float(tau2_f),
        "tau_alpha": float(rate_thm1(alpha_f, tau1_f)),
    }
    beta = float(alpha_f / (1 + alpha_f))
    return BlockingSchedule("vc", beta, tuple(n), params)


def schedule_br(kappa, N: int) -> BlockingSchedule:
    """Stretched-exponential block schedule with a unit starter block; its
    ``s_of_N`` window exponent is beta = 0.7."""
    kappa_f = _as_fraction(kappa)
    if not (0 < kappa_f < Fraction(1, 2)):
        raise DomainError("kappa must lie in (0, 1/2)")
    if N < 2:
        raise DomainError("need at least N = 2 blocks")
    kf = float(kappa_f)
    if N ** (1.0 - kf) > _EXP_ARG_LIMIT:  # the largest exponent, checked before any is listed
        raise CapacityError(f"schedule with N = {N} blocks overflows the time range")
    exponents = [k ** (1.0 - kf) for k in range(1, N + 1)]
    t = [1] + [int(math.floor(math.exp(e))) for e in exponents]
    n = [1] + [t[k] - t[k - 1] for k in range(1, N + 1)]
    theta, tau = rate_thm2(kappa_f)
    params = {"kappa": kf, "theta": float(theta), "tau": float(tau)}
    return BlockingSchedule("br", 0.7, tuple(n), params)


def s_of_N(schedule: BlockingSchedule, N: int | None = None) -> float:
    """The block-sum statistic s(N) over k = floor(N^beta) .. N.

    Polynomial regime: sum of n_k^{1/2 - tau1} (log n_k)^{tau2}. Exponential
    regime: sum of sqrt(n_k) / (log n_k)^{kappa}; unit blocks contribute
    nothing in either regime and are skipped where they would divide by zero.
    """
    if N is None:
        N = schedule.N
    if not (1 <= N <= schedule.N):
        raise DomainError(f"N must lie in [1, {schedule.N}]")
    lo = int(math.floor(N**schedule.beta))
    total = 0.0
    if schedule.regime == "vc":
        tau1, tau2 = schedule.params["tau1"], schedule.params["tau2"]
        for k in range(lo, N + 1):
            nk = schedule.n[k]
            if nk > 1:
                total += nk ** (0.5 - tau1) * math.log(nk) ** tau2
    else:
        kappa = schedule.params["kappa"]
        for k in range(lo, N + 1):
            nk = schedule.n[k]
            if nk > 1:
                total += math.sqrt(nk) / math.log(nk) ** kappa
    return total


def path_envelope(schedule: BlockingSchedule) -> float:
    """Theoretical growth shape of the path discrepancy at the schedule's
    final time t_N."""
    t_N = schedule.t_of(schedule.N)
    if schedule.regime == "vc":
        ta, tau2 = schedule.params["tau_alpha"], schedule.params["tau2"]
        return t_N ** (0.5 - ta) * math.log(t_N) ** tau2
    tau = schedule.params["tau"]
    return math.sqrt(t_N) / math.log(t_N) ** tau


def br_sandwich_ratio(schedule: BlockingSchedule, N: int) -> float:
    """s(N) relative to sqrt(t_N) / N^theta, bounded between constants."""
    if schedule.regime != "br":
        raise DomainError("the sandwich shape applies to the exponential regime")
    theta = schedule.params["theta"]
    return s_of_N(schedule, N) / (math.sqrt(schedule.t_of(N)) / N**theta)


def br_growth_ratio(schedule: BlockingSchedule, N: int) -> float:
    """s(N) / sqrt(n_N), which grows at least like N^{kappa^2}."""
    if schedule.regime != "br":
        raise DomainError("the growth shape applies to the exponential regime")
    return s_of_N(schedule, N) / math.sqrt(schedule.n[N])


def ms_bound(tail_estimator, t: float) -> float:
    """Maximal-inequality transfer: 9 x (full-sum tail at t/30), clamped to 1."""
    if t <= 0:
        raise DomainError("t must be positive")
    p = float(tail_estimator(t / 30.0))
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"tail estimator returned {p}, outside [0, 1]")
    return min(9.0 * p, 1.0)


@dataclass(frozen=True, eq=False)
class PathDiscrepancy:
    """Running-maximum discrepancy of the block-coupled path."""

    regime: str
    N: int
    t_N: int
    m_star: int
    max_discrepancy: float
    normalized: float
    block_running: tuple  # running max at each block boundary

    def __post_init__(self):
        pairs = zip(self.block_running[:-1], self.block_running[1:])
        if any(earlier > later + 1e-12 for earlier, later in pairs):
            raise DomainError("running maximum must be nondecreasing")


def block_contexts(
    cls: FunctionClass, P: Distribution, schedules, selection: EntropyRegime, eval_mesh
) -> list:
    """Each schedule's coupling contexts, one per block.

    Block k is coupled at the radius that ``selection`` gives a sample of
    max(n_k, 3) points. Each distinct radius is prepared once, on
    ``eval_mesh``, and its context is shared by every schedule and block.
    """
    prepared = {}
    out = []
    for schedule in schedules:
        blocks = []
        for n_k in schedule.n:
            eps = select_epsilon(selection, max(n_k, 3))
            if eps not in prepared:
                prepared[eps] = prepare_coupling(cls, P, eps, eval_mesh=eval_mesh)
            blocks.append(prepared[eps])
        out.append(tuple(blocks))
    return out


def _fill(l_eval: np.ndarray, fill: np.random.Generator, n: int) -> np.ndarray:
    """One block's Gaussian fill steps s_i = L xi_i, shape (g, n), with L the
    (g, g) mesh covariance factor and xi_i the rows of one (n, g) standard
    normal draw from ``fill``. The normals are drawn and multiplied one row
    block (``row_blocks``) at a time into the one step array: consecutive
    draws from a generator give the bits of one larger draw, and each block's
    product is its columns of L xi^T."""
    steps = np.empty((len(l_eval), n))
    blocks = row_blocks(n)
    z = np.empty((max(b - a for a, b in blocks), len(l_eval)))
    for a, b in blocks:
        fill.standard_normal(out=z[: b - a])
        np.matmul(l_eval, z[: b - a].T, out=steps[:, a:b])
    return steps


def _gap_walk(cls, eval_mesh, points, steps, total, means, gap) -> np.ndarray:
    """One block's signed path gaps, shape (g, n), computed in ``steps``.

    ``points`` are the block's n sample points, whose values v_i on
    ``eval_mesh`` the walk evaluates one row block (``row_blocks``) at a
    time, ``steps`` the (g, n) Gaussian fill steps s_i with partial sums W_m,
    ``total`` the coupled endpoint T = sqrt(n) mesh_gauss, ``means`` the mesh
    means mu and ``gap`` the signed gap c carried in from the previous block.
    Column m - 1 is

        c + sum_{i <= m} (v_i - mu) - (W_m - (m/n) W_n + (m/n) T),

    the empirical partial sum minus the bridge fill pinned to T. That equals
    c + sum_{i <= m} d_i with d_i = v_i - s_i + beta and
    beta = (W_n - T) / n - mu, so one cumulative sum along the contiguous
    axis gives every column; the last is the gap the next block carries.
    W_n is one sum over all of ``steps``; then each row block turns its
    steps into d and sums them on from the column before it, which adds in
    the order of one cumulative sum over the whole block.
    """
    beta = (steps.sum(axis=1) - total) / steps.shape[1] - means
    carry = gap
    for a, b in row_blocks(len(points)):
        block = steps[:, a:b]
        np.subtract(cls.evaluate_matrix(eval_mesh, points[a:b]).T, block, out=block)
        block += beta[:, None]
        block[:, 0] += carry
        np.cumsum(block, axis=1, out=block)
        carry = block[:, -1]
    return steps


def run_sequential(
    schedule: BlockingSchedule,
    contexts: tuple,
    seed: SeedSpec,
    m: int = 48,
    tag_offset: int = 0,
) -> PathDiscrepancy:
    """Couple each block independently and track the path discrepancy.

    ``contexts`` holds block k's coupling context (see ``block_contexts``);
    all of them share one class, law and evaluation mesh, and block k is
    coupled at its context's radius. Within a block of size n, the Gaussian
    partial sums interpolate between the running total and the block's
    coupled endpoint: a cumulative sum of i.i.d. mesh-covariance draws is
    bridged to zero and the pinned endpoint is added back linearly. Neither
    partial sum is formed: each block's gaps between them are one signed
    difference walk (``_gap_walk``) in the block's Gaussian step array
    (``_fill``), started from the signed gap that the previous block ended
    on. The fill, the mesh values and the walk run one row block at a time,
    so a block holds its (mesh, n) step array and row-block buffers, and it
    frees them before the next block is coupled. m_star is the first sample
    count at which some mesh point reaches the maximum.
    """
    for ctx in contexts:  # every block fills in between its designated points
        check_method(ctx.method, ctx.cls, points=True)
    # Block 0 is the unit starter block of either regime.
    cls, P, eval_mesh = contexts[0].cls, contexts[0].P, list(contexts[0].eval_mesh)
    g = len(eval_mesh)
    l_eval = build_bridge(cls, P, eval_mesh).L
    gap = np.zeros(g)
    block_running = []
    best = 0.0
    m_star = 0
    done = 0
    for k, ctx in enumerate(contexts):
        n_k = schedule.n[k]
        real = construct_joint(ctx, n_k, m, seed, tag=tag_offset + k)
        steps = _fill(l_eval, seed.rng("fill", tag_offset + k), n_k)
        endpoint = math.sqrt(n_k) * real.mesh_gauss
        walk = _gap_walk(cls, eval_mesh, real.points, steps, endpoint, ctx.mesh_means, gap)
        gap = walk[:, -1].copy()
        np.abs(walk, out=walk)
        # The first m at which some mesh point reaches the block maximum.
        first = np.argmax(walk, axis=1)
        peaks = walk[np.arange(g), first]
        del real, steps, walk  # gone before the next block is coupled
        top = peaks.max()
        if top > best:
            best = float(top)
            m_star = done + int(first[peaks == top].min()) + 1
        done += n_k
        block_running.append(best)
    total = schedule.total
    return PathDiscrepancy(
        schedule.regime,
        schedule.N,
        total,
        m_star,
        best,
        best / math.sqrt(total),
        tuple(block_running),
    )
