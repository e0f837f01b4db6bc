"""Inequality toolbox: frozen hand values, gates, and exact rate exponents."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empbridge import (
    BoundConstants,
    BoundReport,
    ConfigError,
    DomainError,
    EntropyRegime,
    borell_tail,
    br_modulus_bounds,
    br_moment_bound,
    check_condition_vc_n,
    combined_tail_empirical,
    combined_tail_gaussian,
    dudley_integral,
    entropy_integral_bound,
    error_budget,
    rate_br,
    rate_thm1,
    rate_thm2,
    rate_vc,
    regime_grid_bound,
    select_epsilon_vc,
    talagrand_tail,
    vc_modulus_bounds,
    vc_moment_bound,
)


# -- rate exponents -------------------------------------------------------------


def test_rate_exponents_exact_fractions():
    tau1, tau2 = rate_vc(1)
    assert (tau1, tau2) == (Fraction(1, 7), Fraction(9, 14))
    assert rate_thm1(5, tau1) == Fraction(1, 28)
    kappa = rate_br(Fraction(3, 4))
    assert kappa == Fraction(1, 6)
    theta, tau = rate_thm2(kappa)
    assert (theta, tau) == (Fraction(1, 18), Fraction(1, 15))


def test_rate_formulas_in_general():
    tau1, tau2 = rate_vc(Fraction(2))
    assert tau1 == Fraction(1, 12)
    assert tau2 == Fraction(14, 24)
    assert rate_thm1(8, Fraction(1, 12)) == (8 * Fraction(1, 12) - Fraction(1, 2)) / 9
    kappa = rate_br(Fraction(1, 2))
    assert kappa == Fraction(1, 2) * (1 - Fraction(1, 2)) / Fraction(1, 2)


def test_rate_gate_rejects_alpha_outside_window():
    tau1, _ = rate_vc(1)  # tau1 = 1/7; need 7/2 < alpha < 7
    with pytest.raises(DomainError):
        rate_thm1(2, tau1)
    with pytest.raises(DomainError):
        rate_thm1(7, tau1)
    rate_thm1(Fraction(9, 2), tau1)


def test_rate_input_validation():
    with pytest.raises(DomainError):
        rate_vc(0)
    with pytest.raises(DomainError):
        rate_br(Fraction(3, 2))
    with pytest.raises(DomainError):
        rate_thm2(Fraction(1, 2))
    with pytest.raises(ConfigError):
        rate_vc("one third-ish")


# -- single inequalities -----------------------------------------------------------


def test_talagrand_hand_value():
    rep = talagrand_tail(t=1.0, n=4, sigma2=1.0, M=1.0, sym_moment=0.5)
    want = 2.0 * math.exp(-1.0) + 2.0 * math.exp(-2.0)
    assert rep.rhs == pytest.approx(want, rel=1e-12)
    assert rep.rhs > 1.0  # just above 1 at these inputs
    assert rep.threshold == pytest.approx(1.5, rel=1e-12)
    assert rep.preconditions_ok


def test_vc_moment_hand_value():
    # sigma = 1/16, v = 2, beta = 1: rhs = sqrt(2 sigma^2 log 16).
    rep = vc_moment_bound(n=1024, sigma=1.0 / 16, beta=1.0, v=2.0, c=2.0, M_sup=0.1)
    want = math.sqrt(2.0 * (1.0 / 16) ** 2 * math.log(16.0))
    assert rep.rhs == pytest.approx(want, rel=1e-12)
    assert rep.rhs == pytest.approx(0.1471766, abs=1e-6)
    assert rep.extras["sup_cap"] == pytest.approx(
        math.sqrt(1024.0 / 256.0 / math.log(16.0)) / (2.0 * math.sqrt(3.0)), rel=1e-12
    )
    assert rep.preconditions_ok


def test_vc_moment_gates_fire_in_order():
    bad_c = vc_moment_bound(1024, 1.0 / 16, 1.0, 2.0, c=0.5, M_sup=0.1)
    assert not bad_c.preconditions_ok
    assert bad_c.failing_condition == "c > 1"
    big_sigma = vc_moment_bound(1024, 0.5, 1.0, 2.0, c=2.0, M_sup=0.1)
    assert big_sigma.failing_condition == "sigma <= 1/(8 c)"
    big_sup = vc_moment_bound(1024, 1.0 / 16, 1.0, 2.0, c=2.0, M_sup=5.0)
    assert big_sup.failing_condition and big_sup.failing_condition.startswith("M_sup <=")


def test_br_moment_indicator_switch():
    quiet = br_moment_bound(sigma=0.25, b0=1.0, r0=0.5, n=10_000, M=1.0)
    j = math.sqrt(2.0) * 0.25**0.5 / 0.5
    assert quiet.rhs == pytest.approx(j, rel=1e-12)
    assert quiet.extras["indicator_term"] == 0.0
    loud = br_moment_bound(sigma=0.25, b0=1.0, r0=0.5, n=4, M=1.0)
    assert loud.rhs == pytest.approx(j + 2.0, rel=1e-12)


def test_borell_hand_value():
    assert borell_tail(3.0, 1.0) == pytest.approx(2.0 * math.exp(-4.5), rel=1e-12)
    with pytest.raises(DomainError):
        borell_tail(0.0, 1.0)


def test_gaussian_moment_wraps_entropy_integral():
    # The Gaussian modulus bound is A4 times the entropy integral of c x^{-2 nu0}.
    model = ("power", {"c": 1.0, "v": 2.0})
    assert dudley_integral(model, 1.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
    _, mu = vc_modulus_bounds(1.0, 2.0, 1.0, BoundConstants(A4=2.0))
    assert mu == pytest.approx(2.0 * dudley_integral(model, 1.0), rel=1e-12)


def test_regime_grid_bound():
    vc = EntropyRegime("vc", c0=3.0, nu0=2.0)
    assert regime_grid_bound(vc, 0.1, 2.0) == pytest.approx(3.0 * 4.0 * 100.0, rel=1e-12)
    br = EntropyRegime("br", b0=1.0, r0=0.5)
    assert regime_grid_bound(br, 0.5, 1.0) == pytest.approx(math.exp(4.0), rel=1e-12)
    assert regime_grid_bound(br, 1e-4, 1.0) == math.inf


def test_sample_size_gate_boundary():
    # With nu0 = 1 and M = 1 the selected radius crosses 1/e between
    # n = 10112 and 10113; past that point the gate holds through 2e5.
    with pytest.raises(DomainError):
        check_condition_vc_n(10112, select_epsilon_vc(10112, 1.0), 1.0, 1.0)
    for n in (10113, 20000, 100_000, 200_000):
        assert check_condition_vc_n(n, select_epsilon_vc(n, 1.0), 1.0, 1.0)
    assert not check_condition_vc_n(64, 0.3, 1.0, 1.0)
    with pytest.raises(DomainError):
        check_condition_vc_n(100, 0.5, 1.0, 1.0)


def test_modulus_closed_forms():
    eps = 0.25
    mu_n, mu = vc_modulus_bounds(eps, 1.0, 1.0)
    assert mu_n == pytest.approx(eps * math.sqrt(2.0 * math.log(4.0)), rel=1e-12)
    assert mu == pytest.approx(dudley_integral(("power", {"c": 1.0, "v": 2.0}), eps), rel=1e-12)
    mu_n_br, mu_br = br_modulus_bounds(eps, 1.0, 1.0, 0.5, 10_000)
    assert mu_br == pytest.approx(entropy_integral_bound(1.0, 0.5, eps), rel=1e-12)
    assert mu_n_br == pytest.approx(br_moment_bound(eps, 1.0, 0.5, 10_000, 1.0).rhs, rel=1e-12)


# -- the three-term budget -----------------------------------------------------------


def test_error_budget_frozen_example():
    # eps = 1/2, delta = t = 1, n = 100, M = 1, N_eps = 2, every constant 1:
    # 4 exp(-10 / 2^{5/2}) + 2 exp(-10) + 4 exp(-4).
    consts = BoundConstants(A5=1.0)
    rep = error_budget(
        0.5,
        1.0,
        1.0,
        100,
        1.0,
        EntropyRegime("vc", c0=1.0, nu0=1.0),
        constants=consts,
        N_eps=2,
    )
    want = 4.0 * math.exp(-10.0 / 2.0**2.5) + 2.0 * math.exp(-10.0) + 4.0 * math.exp(-4.0)
    assert rep.rhs == pytest.approx(want, rel=1e-12)
    assert rep.rhs == pytest.approx(0.7562085, abs=1e-7)
    terms = rep.extras["terms"]
    assert terms[0] == pytest.approx(4.0 * math.exp(-10.0 / 2.0**2.5), rel=1e-12)
    assert terms[1] == pytest.approx(2.0 * math.exp(-10.0), rel=1e-12)
    assert terms[2] == pytest.approx(4.0 * math.exp(-4.0), rel=1e-12)
    # A5 = 1 violates the derivation's constraint; epsilon = 1/2 >= 1/e too.
    assert not rep.preconditions_ok
    assert rep.failing_condition == "A5 <= 1/2"
    assert rep.rhs <= 1.0


def test_error_budget_threshold_composition():
    regime = EntropyRegime("vc", c0=4.0, nu0=1.0)
    consts = BoundConstants(A=2.0)
    eps, delta, t = 0.3, 0.25, 0.5
    rep = error_budget(eps, delta, t, 50_000, 1.0, regime, constants=consts)
    mu_n, mu = vc_modulus_bounds(eps, 1.0, 1.0, consts)
    assert rep.threshold == pytest.approx(2.0 * mu_n + mu + delta + 3.0 * t, rel=1e-12)
    assert rep.extras["mu_n"] == pytest.approx(mu_n, rel=1e-12)
    assert rep.preconditions_ok


def test_error_budget_defaults_grid_count_from_regime():
    regime = EntropyRegime("vc", c0=4.0, nu0=1.0)
    rep = error_budget(0.3, 0.25, 0.5, 50_000, 1.0, regime)
    assert rep.inputs["N_eps"] == math.ceil(regime_grid_bound(regime, 0.3, 1.0))
    override = error_budget(0.3, 0.25, 0.5, 50_000, 1.0, regime, N_eps=7)
    assert override.inputs["N_eps"] == 7
    assert override.rhs != rep.rhs


def test_error_budget_infinite_grid_count_is_vacuous():
    regime = EntropyRegime("br", b0=1.0, r0=0.5)
    rep = error_budget(1e-4, 0.25, 0.5, 100, 1.0, regime)
    assert math.isinf(rep.rhs)
    assert rep.rhs > 1.0


def test_error_budget_accepts_measured_moduli():
    regime = EntropyRegime("vc", c0=4.0, nu0=1.0)
    rep = error_budget(0.3, 0.25, 0.5, 50_000, 1.0, regime, mu_n=0.1, mu=0.2)
    assert rep.threshold == pytest.approx(0.1 + 0.2 + 0.25 + 2.0 * 0.5, rel=1e-12)


def test_error_budget_validation():
    regime = EntropyRegime("vc", c0=4.0, nu0=1.0)
    with pytest.raises(DomainError):
        error_budget(0.0, 1.0, 1.0, 100, 1.0, regime)
    with pytest.raises(DomainError):
        error_budget(0.3, 1.0, 1.0, 0, 1.0, regime)


# -- combined tails -----------------------------------------------------------------


def test_combined_tail_formulas():
    emp = combined_tail_empirical(t=1.0, n=4, B=0.5, sigmaF2=1.0, M=1.0)
    assert emp.rhs == pytest.approx(18.0 * math.exp(-1.0) + 18.0 * math.exp(-2.0), rel=1e-12)
    assert emp.threshold == pytest.approx(2.0 * 1.5, rel=1e-12)
    gauss = combined_tail_gaussian(t=2.0, n=4, B=0.5, sigmaF2=1.0)
    assert gauss.rhs == pytest.approx(18.0 * math.exp(-2.0), rel=1e-12)
    assert gauss.threshold == pytest.approx(2.0 * 2.5, rel=1e-12)
    loud = combined_tail_gaussian(
        t=2.0, n=4, B=0.5, sigmaF2=1.0, constants=BoundConstants(D=30.0)
    )
    assert loud.threshold == pytest.approx(30.0 * 2.0 * 2.5, rel=1e-12)


# -- report plumbing -----------------------------------------------------------------


def test_report_dict_schema():
    rep = talagrand_tail(t=1.0, n=4, sigma2=1.0, M=1.0, sym_moment=0.5)
    doc = rep.as_dict()
    assert list(doc) == [
        "name",
        "inputs",
        "constants",
        "rhs",
        "threshold",
        "preconditions_ok",
        "failing_condition",
    ]
    assert isinstance(rep, BoundReport)


def test_report_rejects_a_nan_bound_and_keeps_an_infinite_one():
    rep = talagrand_tail(t=1.0, n=4, sigma2=1.0, M=1.0, sym_moment=0.5)
    with pytest.raises(DomainError, match="must be nonnegative, got nan"):
        replace(rep, rhs=float("nan"))
    with pytest.raises(DomainError):
        replace(rep, rhs=-1.0)
    assert replace(rep, rhs=math.inf).rhs == math.inf


def test_constants_validation_and_replace():
    base = BoundConstants()
    assert base.A5 == 0.5
    bumped = replace(base, A1=2.0)
    assert bumped.A1 == 2.0 and bumped.A == 1.0
    with pytest.raises(ConfigError):
        BoundConstants(A=-1.0)
    with pytest.raises(ConfigError):
        replace(base, C2=0.0)



# -- every report on positive inputs --------------------------------------------------

POSITIVE = st.floats(1e-6, 1e6)
UNIT = st.floats(1e-6, 1.0, exclude_max=True)
CONSTANTS = st.builds(
    BoundConstants, **{name: POSITIVE for name in BoundConstants.__dataclass_fields__}
)
REGIMES = st.builds(EntropyRegime, st.just("vc"), c0=POSITIVE, nu0=POSITIVE) | st.builds(
    EntropyRegime, st.just("br"), b0=POSITIVE, r0=UNIT
)


@settings(max_examples=500, deadline=None, database=None)
@given(
    t=POSITIVE,
    n=st.integers(1, 10**9),
    sigma=UNIT,
    scale=POSITIVE,
    r0=UNIT,
    regime=REGIMES,
    constants=CONSTANTS,
)
def test_every_report_builds_on_positive_inputs(t, n, sigma, scale, r0, regime, constants):
    """Each report of the bounds-audit battery builds on positive inputs in its
    domain, with rhs >= 0 and a dict that serializes as JSON."""
    reports = [
        talagrand_tail(t, n, scale, scale, scale, constants),
        vc_moment_bound(n, sigma, scale, scale, scale, scale, constants),
        br_moment_bound(sigma, scale, r0, n, scale, constants),
        error_budget(sigma, scale, t, n, scale, regime, constants),
        combined_tail_empirical(t, n, scale, scale, scale, constants),
        combined_tail_gaussian(t, n, scale, scale, constants),
    ]
    for rep in reports:
        assert rep.rhs >= 0.0, rep.name
        json.loads(json.dumps(rep.as_dict()))
