"""Block schedules and the sequential block-coupled path construction.

Two block-growth regimes. The polynomial ("vc") schedule uses n_0 = 1 and
n_k = floor(k^alpha), with alpha gated by the exact rational constraint
1/2 < tau1 * alpha < 1. The stretched-exponential ("br") schedule uses
cumulative times t_k = floor(exp(k^{1-kappa})) with t_0 = 1 and block sizes
n_k = t_k - t_{k-1}; a unit starter block makes the cumulative identity
t_N = sum of all block sizes exact.

The sequential construction couples each block independently at its own
radius, then fills within-block Gaussian partial sums by a bridge-style
conditional interpolation pinned to the block's coupled endpoint. The path
discrepancy is the running maximum over all sample counts m of the sup norm
of (unscaled empirical partial sum) minus (Gaussian partial sum) on a common
evaluation mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bridge import covariance, factorize
from .coupling import (
    CouplingContext,
    construct_joint,
    prepare_coupling,
    select_epsilon_br,
    select_epsilon_vc,
)
from .distributions import Distribution
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    ScheduleInvalidError,
)
from .exponents import _as_fraction, rate_thm1, rate_thm2
from .function_classes import FunctionClass, mean_vector
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
    N_beta: int
    n: tuple
    cum: tuple
    s_N: float
    params: dict
    k_min: int = 0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown schedule regime {self.regime!r}")
        if len(self.n) != self.N + 1 or len(self.cum) != self.N + 2:
            raise ScheduleInvalidError("block and boundary lengths are inconsistent")
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
    sched = BlockingSchedule(
        "vc",
        N,
        float(beta),
        int(math.floor(N**beta)),
        tuple(n),
        tuple(cum),
        0.0,
        params,
    )
    object.__setattr__(sched, "s_N", s_of_N(sched))
    return sched


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
    k_min = next((k for k in range(1, N + 1) if n[k] >= 1), N + 1)
    if any(size < 1 for size in n[k_min:]):
        raise ScheduleInvalidError("zero-size block after the first nonempty block")
    cum = [0]
    for size in n:
        cum.append(cum[-1] + size)
    theta, tau = rate_thm2(kappa_f)
    params = {"kappa": kf, "theta": float(theta), "tau": float(tau)}
    sched = BlockingSchedule(
        "br",
        N,
        float(beta),
        int(math.floor(N**beta)),
        tuple(n),
        tuple(cum),
        0.0,
        params,
        k_min=k_min,
    )
    object.__setattr__(sched, "s_N", s_of_N(sched))
    return sched


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


def path_envelope(schedule: BlockingSchedule, N: int | None = None) -> float:
    """Theoretical growth shape of the path discrepancy at time t_N."""
    if N is None:
        N = schedule.N
    t_N = schedule.t_of(N)
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
    per_block: tuple
    block_running: tuple  # running max at each block boundary

    def __post_init__(self):
        pairs = zip(self.block_running[:-1], self.block_running[1:])
        if any(earlier > later + 1e-12 for earlier, later in pairs):
            raise DomainError("running maximum must be nondecreasing")


def run_sequential(
    cls: FunctionClass,
    P: Distribution,
    schedule: BlockingSchedule,
    seed: SeedSpec,
    m: int = 48,
    method: str = "exact",
    eval_mesh=None,
    budget: int = 500_000,
    selector=None,
    tag_offset: int = 0,
    contexts: dict[float, CouplingContext] | None = None,
) -> PathDiscrepancy:
    """Couple each block independently and track the path discrepancy.

    Within a block of size n, the Gaussian partial sums interpolate between
    the running total and the block's coupled endpoint: a cumulative sum of
    i.i.d. mesh-covariance draws is bridged to zero and the pinned endpoint
    is added back linearly. The fill works in place on the block's evaluation
    matrix and Gaussian steps, with one buffer sized to the largest block, and
    gives the same bits as computing each partial-sum matrix afresh.

    ``contexts`` maps block radii to coupling contexts prepared on the same
    evaluation mesh (see ``block_radii``); radii it lacks are prepared here.
    """
    total = schedule.total
    if total > budget:
        raise CapacityError(f"schedule needs {total} samples, over the budget {budget}")
    if eval_mesh is None:
        mesh = list(cls.mesh)
        step = max(1, len(mesh) // 9)
        eval_mesh = tuple(mesh[step // 2 :: step][:9])
    else:
        eval_mesh = tuple(eval_mesh)
    g = len(eval_mesh)
    k_eval = covariance(cls, P, list(eval_mesh))
    l_eval = factorize(k_eval).L
    mesh_means = mean_vector(cls, P, list(eval_mesh))
    contexts = dict(contexts or {})
    emp_prefix = np.zeros(g)
    gauss_prefix = np.zeros(g)
    frac_buffer = np.empty((max(schedule.n), g))
    per_block = []
    block_running = []
    best = 0.0
    m_star = 0
    done = 0
    if selector is None:
        selector = cls.regime
    for k in range(schedule.N + 1):
        n_k = schedule.n[k]
        if n_k < 1:
            continue
        eps = _block_epsilon(selector, n_k)
        ctx = contexts.get(eps)
        if ctx is None:
            ctx = prepare_coupling(cls, P, eps, eval_mesh=eval_mesh)
            contexts[eps] = ctx
        real = construct_joint(
            cls,
            P,
            n_k,
            eps,
            m,
            seed,
            method=method,
            context=ctx,
            tag=tag_offset + k,
        )
        per_block.append(real.sup_grid)
        root = math.sqrt(n_k)
        gauss_total = root * real.mesh_gauss
        # gaps = |(emp_prefix + emp) - (gauss_prefix + gauss)|, with
        # emp = cumsum(vals - means) and gauss = walk - frac walk[-1] +
        # frac gauss_total, computed in that order in the block's own arrays.
        emp = cls.evaluate_matrix(list(eval_mesh), real.points)
        emp -= mesh_means
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
    return PathDiscrepancy(
        schedule.regime,
        schedule.N,
        total,
        m_star,
        best,
        best / math.sqrt(total),
        tuple(per_block),
        tuple(block_running),
    )


def block_radii(schedule: BlockingSchedule, selector) -> list:
    """The distinct coupling radii of a schedule's nonempty blocks, in order."""
    radii = (_block_epsilon(selector, n_k) for n_k in schedule.n if n_k >= 1)
    return list(dict.fromkeys(radii))


def _block_epsilon(regime, n_k: int) -> float:
    n_sel = max(n_k, 3)
    if regime.kind == "vc":
        return select_epsilon_vc(n_sel, regime.nu0)
    return select_epsilon_br(n_sel, regime.b0, regime.r0).epsilon
