"""Block schedules and the sequential block-coupled path construction.

Two block-growth regimes. The polynomial ("vc") schedule uses n_0 = 1 and
n_k = floor(k^alpha), with alpha gated by the exact rational constraint
1/2 < tau1 * alpha < 1. The stretched-exponential ("br") schedule uses
cumulative times t_k = floor(exp(k^{1-kappa})) with t_0 = 1 and block sizes
n_k = t_k - t_{k-1}; a unit starter block makes the cumulative identity
t_N = sum of all block sizes exact. No block of either regime is empty: a
polynomial block is at least floor(1^alpha) = 1, and consecutive
stretched-exponential times differ by more than (1 - kappa) e > 1 before the
floor. A schedule with an empty block is rejected.

The sequential construction couples each block independently at its own
radius, then fills within-block Gaussian partial sums by a bridge-style
conditional interpolation pinned to the block's coupled endpoint. The path
discrepancy is the running maximum over all sample counts m of the sup norm
of (unscaled empirical partial sum) minus (Gaussian partial sum) on a common
evaluation mesh. ``block_contexts`` prepares every block's coupling context,
once per distinct radius across a set of schedules; ``run_sequential`` is the
block loop that uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bridge import factorize
from .coupling import construct_joint, prepare_coupling, select_epsilon
from .distributions import Distribution
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    ScheduleInvalidError,
)
from .exponents import _as_fraction, rate_thm1, rate_thm2
from .function_classes import EntropyRegime, FunctionClass, covariance
from .seeds import SeedSpec

REGIMES = ("vc", "br")
_EXP_ARG_LIMIT = 700.0


@dataclass(frozen=True, eq=False)
class BlockingSchedule:
    """Block sizes n_k, k = 0..N, with cumulative boundaries.

    ``cum`` has length N + 2: cum[k] = n_0 + ... + n_{k-1}, so cum[-1] is the
    total sample count. The native cumulative times of the construction are
    cum[k] for the polynomial regime and cum[k+1] for the stretched-
    exponential one (where they equal floor(exp(k^{1-kappa}))).
    """

    regime: str
    N: int
    beta: float
    n: tuple
    cum: tuple
    params: dict

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown schedule regime {self.regime!r}")
        if len(self.n) != self.N + 1 or len(self.cum) != self.N + 2:
            raise ScheduleInvalidError("block and boundary lengths are inconsistent")
        if any(size < 1 for size in self.n):
            raise ScheduleInvalidError("every block needs at least one sample")
        run = 0
        for k in range(self.N + 2):
            if self.cum[k] != run:
                raise ScheduleInvalidError("cumulative boundaries do not sum the blocks")
            if k <= self.N:
                run += self.n[k]

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


def schedule_vc(alpha, tau1, tau2, N: int, beta: float | None = None) -> BlockingSchedule:
    """Polynomial block schedule gated by 1/2 < tau1 alpha < 1 exactly."""
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
    if beta is None:
        beta = float(alpha_f / (1 + alpha_f))
    if not (0.0 < beta < 1.0):
        raise DomainError("beta must lie in (0, 1)")
    n = [1] + [_floor_power(k, alpha_f) for k in range(1, N + 1)]
    cum = [0]
    for size in n:
        cum.append(cum[-1] + size)
    params = {
        "alpha": float(alpha_f),
        "tau1": float(tau1_f),
        "tau2": float(tau2_f),
        "tau_alpha": float(rate_thm1(alpha_f, tau1_f)),
    }
    return BlockingSchedule("vc", N, float(beta), tuple(n), tuple(cum), params)


def schedule_br(kappa, N: int, beta: float = 0.7) -> BlockingSchedule:
    """Stretched-exponential block schedule with a unit starter block."""
    kappa_f = _as_fraction(kappa)
    if not (0 < kappa_f < Fraction(1, 2)):
        raise DomainError("kappa must lie in (0, 1/2)")
    if N < 2:
        raise DomainError("need at least N = 2 blocks")
    if not (0.0 < beta < 1.0):
        raise DomainError("beta must lie in (0, 1)")
    kf = float(kappa_f)
    exponents = [k ** (1.0 - kf) for k in range(1, N + 1)]
    if max(exponents) > _EXP_ARG_LIMIT:
        raise CapacityError(f"schedule with N = {N} blocks overflows the time range")
    t = [1] + [int(math.floor(math.exp(e))) for e in exponents]
    n = [1] + [t[k] - t[k - 1] for k in range(1, N + 1)]
    cum = [0]
    for size in n:
        cum.append(cum[-1] + size)
    theta, tau = rate_thm2(kappa_f)
    params = {"kappa": kf, "theta": float(theta), "tau": float(tau)}
    return BlockingSchedule("br", N, float(beta), tuple(n), tuple(cum), params)


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


def run_sequential(
    schedule: BlockingSchedule,
    contexts: tuple,
    seed: SeedSpec,
    m: int = 48,
    method: str = "exact",
    tag_offset: int = 0,
) -> PathDiscrepancy:
    """Couple each block independently and track the path discrepancy.

    ``contexts`` holds block k's coupling context (see ``block_contexts``);
    all of them share one class, law and evaluation mesh, and block k is
    coupled at its context's radius. Within a block of size n, the Gaussian
    partial sums interpolate between the running total and the block's
    coupled endpoint: a cumulative sum of i.i.d. mesh-covariance draws is
    bridged to zero and the pinned endpoint is added back linearly. The fill
    works in place on the block's evaluation matrix and Gaussian steps, with
    one buffer sized to the largest block, and gives the same bits as
    computing each partial-sum matrix afresh.
    """
    # Block 0 is the unit starter block of either regime.
    cls, P, eval_mesh = contexts[0].cls, contexts[0].P, list(contexts[0].eval_mesh)
    g = len(eval_mesh)
    l_eval = factorize(covariance(cls, P, eval_mesh)).L
    emp_prefix = np.zeros(g)
    gauss_prefix = np.zeros(g)
    frac_buffer = np.empty((max(schedule.n), g))
    block_running = []
    best = 0.0
    m_star = 0
    done = 0
    for k, ctx in enumerate(contexts):
        n_k = schedule.n[k]
        real = construct_joint(
            cls,
            P,
            n_k,
            ctx.grid.epsilon,
            m,
            seed,
            method=method,
            context=ctx,
            tag=tag_offset + k,
        )
        root = math.sqrt(n_k)
        gauss_total = root * real.mesh_gauss
        # gaps = |(emp_prefix + emp) - (gauss_prefix + gauss)|, with
        # emp = cumsum(vals - means) and gauss = walk - frac walk[-1] +
        # frac gauss_total, computed in that order in the block's own arrays.
        emp = cls.evaluate_matrix(eval_mesh, real.points)
        emp -= ctx.mesh_means
        np.cumsum(emp, axis=0, out=emp)
        gauss = seed.rng("fill", tag_offset + k).standard_normal((n_k, g)) @ l_eval.T
        np.cumsum(gauss, axis=0, out=gauss)
        frac = (np.arange(1, n_k + 1) / n_k)[:, None]
        buffer = frac_buffer[:n_k]
        np.multiply(frac, gauss[-1], out=buffer)
        gauss -= buffer
        np.multiply(frac, gauss_total, out=buffer)
        gauss += buffer
        emp += emp_prefix
        emp_prefix = emp[-1].copy()
        gauss += gauss_prefix
        emp -= gauss
        np.abs(emp, out=emp)
        # The first maximal entry lies in the first row that reaches the
        # block maximum, which is the row max(axis=1) then argmax would pick.
        flat = int(np.argmax(emp))
        if emp.flat[flat] > best:
            best = float(emp.flat[flat])
            m_star = done + flat // g + 1
        gauss_prefix = gauss_prefix + gauss_total
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
