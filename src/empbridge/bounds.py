"""Closed-form tail and moment bounds, rate formulas, and the error budget.

Every bound is an explicit function of its inputs and a set of named
constants. Universal constants that the underlying inequalities leave
unspecified default to 1 and are always echoed in the report, so an
overridden value is visible in every output. Reports carry the right-hand
side, the event threshold where one exists, and a precondition verdict; a
failing precondition never raises, it flags the report as advisory.

Rate exponents are computed in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .bridge import dudley_integral, entropy_integral_bound
from .coupling import zaitsev_grid_tail
from .errors import ConfigError, DomainError
from .function_classes import EntropyRegime, regime_grid_bound


@dataclass(frozen=True)
class BoundConstants:
    """Named constants appearing across the inequality toolbox.

    A5 enters the budget's third term and satisfies A5 <= 1/2 in the bound's
    derivation; values above 1/2 are accepted but flagged on reports. D is
    the max-partial-sum threshold constant; the factor-of-30 reduction
    argument pins it at 30, while 1 keeps the uniform default.
    """

    A: float = 1.0
    A1: float = 1.0
    A2: float = 1.0
    A3: float = 1.0
    A4: float = 1.0
    A5: float = 0.5
    C1: float = 1.0
    C2: float = 1.0
    C: float = 1.0
    C1p: float = 1.0
    D: float = 1.0
    B: float = 1.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value <= 0:
                raise ConfigError(f"constant {name} must be positive, got {value}")


@dataclass(frozen=True)
class BoundReport:
    name: str
    inputs: dict
    constants: dict
    rhs: float
    threshold: float | None
    preconditions_ok: bool
    failing_condition: str | None
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not self.rhs >= 0:  # NaN fails too; +inf is a vacuous bound
            raise DomainError(f"{self.name} bound value must be nonnegative, got {self.rhs}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "constants": self.constants,
            "rhs": self.rhs,
            "threshold": self.threshold,
            "preconditions_ok": self.preconditions_ok,
            "failing_condition": self.failing_condition,
        }


def _report(name, inputs, used, rhs, threshold, conditions, extras=None) -> BoundReport:
    failing = next((label for label, ok in conditions if not ok), None)
    return BoundReport(
        name=name,
        inputs=inputs,
        constants=used,
        rhs=float(rhs),
        threshold=None if threshold is None else float(threshold),
        preconditions_ok=failing is None,
        failing_condition=failing,
        extras=extras or {},
    )


def talagrand_tail(
    t: float,
    n: int,
    sigma2: float,
    M: float,
    sym_moment: float,
    constants: BoundConstants = BoundConstants(),
) -> BoundReport:
    """Two-term exponential tail for the empirical process above its
    symmetrized moment: threshold A (sym_moment + t)."""
    if t <= 0 or sigma2 <= 0 or M <= 0 or n < 1:
        raise DomainError("need t > 0, sigma2 > 0, M > 0, n >= 1")
    rhs = 2.0 * math.exp(-constants.A1 * t * t / sigma2) + 2.0 * math.exp(
        -constants.A1 * t * math.sqrt(n) / M
    )
    return _report(
        "talagrand-tail",
        {"t": t, "n": n, "sigma2": sigma2, "M": M, "sym_moment": sym_moment},
        {"A": constants.A, "A1": constants.A1},
        rhs,
        constants.A * (sym_moment + t),
        [],
    )


def vc_moment_bound(
    n: int,
    sigma: float,
    beta: float,
    v: float,
    c: float,
    M_sup: float,
    constants: BoundConstants = BoundConstants(),
) -> BoundReport:
    """Symmetrized moment bound A2 sqrt(v sigma^2 log(beta v 1/sigma)) for a
    polynomial covering profile c x^{-v}, with its validity gates."""
    if n < 1 or sigma <= 0 or beta <= 0 or v <= 0 or M_sup < 0:
        raise DomainError("need n >= 1, sigma > 0, beta > 0, v > 0, M_sup >= 0")
    log_term = math.log(max(beta, 1.0 / sigma))
    rhs = constants.A2 * math.sqrt(v * sigma * sigma * max(log_term, 0.0))
    sup_cap = (
        math.sqrt(n * sigma * sigma / log_term) / (2.0 * math.sqrt(v + 1.0))
        if log_term > 0
        else 0.0
    )
    conditions = [
        ("c > 1", c > 1.0),
        ("sigma <= 1/(8 c)", sigma <= 1.0 / (8.0 * c)),
        ("log(beta OR 1/sigma) > 0", log_term > 0.0),
        ("M_sup <= sqrt(n sigma^2 / log(beta OR 1/sigma)) / (2 sqrt(v+1))", M_sup <= sup_cap),
    ]
    return _report(
        "vc-moment",
        {"n": n, "sigma": sigma, "beta": beta, "v": v, "c": c, "M_sup": M_sup},
        {"A2": constants.A2},
        rhs,
        None,
        conditions,
        extras={"sup_cap": sup_cap},
    )


def br_moment_bound(
    sigma: float,
    b0: float,
    r0: float,
    n: int,
    M: float,
    constants: BoundConstants = BoundConstants(),
) -> BoundReport:
    """Symmetrized moment bound under an exponential entropy profile:
    A3 (J(sigma) + sqrt(n) indicator), with
    J(sigma) <= sqrt(2) b0 sigma^{1-r0} / (1-r0) and the indicator firing
    when M > sqrt(n) sigma^{1+r0} / (sqrt(2) b0)."""
    if not (0.0 < r0 < 1.0):
        raise DomainError("r0 must lie in (0, 1)")
    if not (0.0 < sigma < 1.0):
        raise DomainError("sigma must lie in (0, 1)")
    if b0 <= 0 or n < 1 or M <= 0:
        raise DomainError("need b0 > 0, n >= 1, M > 0")
    j_bound = entropy_integral_bound(b0, r0, sigma)
    a_sigma = sigma ** (1.0 + r0) / (math.sqrt(2.0) * b0)
    indicator = math.sqrt(n) if M > math.sqrt(n) * a_sigma else 0.0
    rhs = constants.A3 * (j_bound + indicator)
    return _report(
        "br-moment",
        {"sigma": sigma, "b0": b0, "r0": r0, "n": n, "M": M},
        {"A3": constants.A3},
        rhs,
        None,
        [],
        extras={"J": j_bound, "a": a_sigma, "indicator_term": indicator},
    )


def borell_tail(t: float, sigmaT: float) -> float:
    """Gaussian concentration of the supremum about its mean:
    2 exp(-t^2 / (2 sigma_T^2))."""
    if t <= 0 or sigmaT <= 0:
        raise DomainError("need t > 0 and sigmaT > 0")
    return 2.0 * math.exp(-t * t / (2.0 * sigmaT * sigmaT))


def check_condition_vc_n(n: int, epsilon: float, M: float, nu0: float) -> bool:
    """Sample-size gate sqrt(n) eps / (2 sqrt(1+2 nu0) sqrt(log(M OR 1/eps))) > M."""
    if not (0.0 < epsilon < 1.0 / math.e):
        raise DomainError("epsilon must lie in (0, 1/e)")
    if n < 1 or M <= 0 or nu0 <= 0:
        raise DomainError("need n >= 1, M > 0, nu0 > 0")
    lhs = (
        math.sqrt(n)
        * epsilon
        / (2.0 * math.sqrt(1.0 + 2.0 * nu0) * math.sqrt(math.log(max(M, 1.0 / epsilon))))
    )
    return lhs > M


def vc_modulus_bounds(
    epsilon: float, M: float, nu0: float, constants: BoundConstants = BoundConstants()
) -> tuple[float, float]:
    """Closed bounds on the empirical and Gaussian close-pair moduli in the
    polynomial-entropy regime: (mu_n, mu)."""
    mu_n = constants.A2 * epsilon * math.sqrt(
        2.0 * nu0 * math.log(max(M, 1.0 / epsilon))
    )
    mu = constants.A4 * dudley_integral(("power", {"c": 1.0, "v": 2.0 * nu0}), epsilon)
    return mu_n, mu


def br_modulus_bounds(
    epsilon: float,
    M: float,
    b0: float,
    r0: float,
    n: int,
    constants: BoundConstants = BoundConstants(),
) -> tuple[float, float]:
    """Same pair in the exponential-entropy regime."""
    mu_n = br_moment_bound(epsilon, b0, r0, n, M, constants).rhs
    mu = constants.A4 * entropy_integral_bound(b0, r0, epsilon)
    return mu_n, mu


def error_budget(
    epsilon: float,
    delta: float,
    t: float,
    n: int,
    M: float,
    regime: EntropyRegime,
    constants: BoundConstants = BoundConstants(),
) -> BoundReport:
    """Three-term budget for the grid coupling plus both close-pair moduli.

    rhs = grid tail + 2 exp(-A1 sqrt(n) t / M) + 4 exp(-A5 t^2 / eps^2);
    threshold = A mu_n + mu + delta + (A+1) t. The grid count N_eps is the
    regime's covering-count bound and the moduli are its closed bounds.
    """
    if epsilon <= 0 or delta <= 0 or t <= 0 or n < 1 or M <= 0:
        raise DomainError("need epsilon, delta, t > 0, n >= 1, M > 0")
    N_eps = regime_grid_bound(regime, epsilon, M)
    N_eps = math.inf if math.isinf(N_eps) else max(1.0, math.ceil(N_eps))
    conditions = [("A5 <= 1/2", constants.A5 <= 0.5)]
    if regime.kind == "vc":
        eps_ok = 0.0 < epsilon < 1.0 / math.e
        conditions.append(("epsilon < 1/e", eps_ok))
        gate = check_condition_vc_n(n, epsilon, M, regime.nu0) if eps_ok else False
        conditions.append(
            ("sqrt(n) eps / (2 sqrt(1+2 nu0) sqrt(log(M OR 1/eps))) > M", gate)
        )
        mu_n, mu = vc_modulus_bounds(epsilon, M, regime.nu0, constants)
    else:
        mu_n, mu = br_modulus_bounds(epsilon, M, regime.b0, regime.r0, n, constants)
    if math.isinf(N_eps):
        term1 = math.inf
    else:
        term1 = zaitsev_grid_tail(n, M, N_eps, delta, constants.C1, constants.C2)
    term2 = 2.0 * math.exp(-constants.A1 * math.sqrt(n) * t / M)
    term3 = 4.0 * math.exp(-constants.A5 * t * t / (epsilon * epsilon))
    threshold = constants.A * mu_n + mu + delta + (constants.A + 1.0) * t
    return _report(
        "error-budget",
        {"epsilon": epsilon, "delta": delta, "t": t, "n": n, "M": M, "N_eps": N_eps},
        {
            "A": constants.A,
            "A1": constants.A1,
            "A5": constants.A5,
            "C1": constants.C1,
            "C2": constants.C2,
            "A2": constants.A2,
            "A3": constants.A3,
            "A4": constants.A4,
        },
        term1 + term2 + term3,
        threshold,
        conditions,
        extras={"terms": (term1, term2, term3), "mu_n": mu_n, "mu": mu},
    )


def combined_tail_empirical(
    t: float,
    n: int,
    B: float,
    sigmaF2: float,
    M: float,
    constants: BoundConstants = BoundConstants(),
) -> BoundReport:
    """Max-partial-sum tail for the scaled empirical process:
    threshold C sqrt(n)(B + t)."""
    if t <= 0 or n < 1 or sigmaF2 <= 0 or M <= 0:
        raise DomainError("need t > 0, n >= 1, sigmaF2 > 0, M > 0")
    rhs = 18.0 * math.exp(-constants.C1p * t * t / sigmaF2) + 18.0 * math.exp(
        -constants.C1p * t * math.sqrt(n) / M
    )
    return _report(
        "combined-tail-empirical",
        {"t": t, "n": n, "B": B, "sigmaF2": sigmaF2, "M": M},
        {"C": constants.C, "C1p": constants.C1p},
        rhs,
        constants.C * math.sqrt(n) * (B + t),
        [],
    )


def combined_tail_gaussian(
    t: float,
    n: int,
    B: float,
    sigmaF2: float,
    constants: BoundConstants = BoundConstants(),
) -> BoundReport:
    """Max-partial-sum tail for summed independent Gaussian fields:
    threshold D sqrt(n)(B + t), rhs 18 exp(-t^2 / (2 sigma_F^2))."""
    if t <= 0 or n < 1 or sigmaF2 <= 0:
        raise DomainError("need t > 0, n >= 1, sigmaF2 > 0")
    rhs = 18.0 * math.exp(-t * t / (2.0 * sigmaF2))
    return _report(
        "combined-tail-gaussian",
        {"t": t, "n": n, "B": B, "sigmaF2": sigmaF2},
        {"D": constants.D},
        rhs,
        constants.D * math.sqrt(n) * (B + t),
        [],
    )

