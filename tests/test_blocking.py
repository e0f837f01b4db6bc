"""Block schedules, their diagnostics, and the sequential path construction."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empbridge import (
    CapacityError,
    DomainError,
    ScheduleInvalidError,
    SeedSpec,
    br_divergence_ratio,
    br_growth_ratio,
    br_sandwich_ratio,
    ms_bound,
    path_envelope,
    rate_vc,
    run_sequential,
    s_of_N,
    schedule_br,
    schedule_vc,
)
from empbridge.blocking import _floor_power

TAU1, TAU2 = rate_vc(1)


def test_polynomial_schedule_hand_values():
    # alpha = 5: blocks 1, 1, 32, 243 so t_3 = 1 + 1 + 32 = 34.
    sched = schedule_vc(5, TAU1, TAU2, 3)
    assert sched.n == (1, 1, 32, 243)
    assert sched.t_of(3) == 34
    assert sched.total == 277
    assert sched.cum == (0, 1, 2, 34, 277)


def test_exponential_schedule_hand_values():
    # kappa = 1/6: t_k = floor(exp(k^{5/6})) = 2, 5, 12 for k = 1, 2, 3.
    sched = schedule_br(Fraction(1, 6), 3)
    assert [sched.t_of(k) for k in (1, 2, 3)] == [2, 5, 12]
    assert sched.n == (1, 1, 3, 7)
    assert sched.total == 12


def test_cumulative_reconstruction_is_exact():
    for sched in (schedule_vc(5, TAU1, TAU2, 12), schedule_br(Fraction(1, 6), 12)):
        run = 0
        for k, size in enumerate(sched.n):
            assert sched.cum[k] == run
            run += size
        assert sched.total == run == sched.cum[-1]


def test_alpha_gate_enforced_exactly():
    # tau1 = 1/7 admits exactly 7/2 < alpha < 7.
    with pytest.raises(ScheduleInvalidError):
        schedule_vc(2, TAU1, TAU2, 4)
    with pytest.raises(ScheduleInvalidError):
        schedule_vc(7, TAU1, TAU2, 4)
    with pytest.raises(ScheduleInvalidError):
        schedule_vc(Fraction(7, 2), TAU1, TAU2, 4)
    schedule_vc(Fraction(9, 2), TAU1, TAU2, 4)


def test_beta_defaults_and_window():
    sched = schedule_vc(5, TAU1, TAU2, 4)
    assert sched.beta == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert sched.N_beta == int(4**sched.beta)
    with pytest.raises(DomainError):
        schedule_vc(5, TAU1, TAU2, 4, beta=1.0)
    with pytest.raises(DomainError):
        schedule_vc(5, TAU1, TAU2, 1)


def test_floor_power_is_exact_for_rationals():
    # Spot-check against integer arithmetic: floor(k^{5/2}) = isqrt(k^5).
    for k in (1, 2, 3, 10, 97, 1024):
        assert _floor_power(k, Fraction(5, 2)) == math.isqrt(k**5)
        assert _floor_power(k, Fraction(3)) == k**3
    # A case where float powers round the wrong way: 8^(1/3) near 2.
    assert _floor_power(8, Fraction(1, 3)) == 2


@settings(max_examples=200, deadline=None, database=None)
@given(k=st.integers(1, 30), alpha=st.builds(Fraction, st.integers(1, 9), st.integers(3, 6)))
def test_floor_power_matches_integer_brute_force(k, alpha):
    # alpha <= 3 keeps the linear search below 30^3 steps.
    brute = next(r for r in itertools.count() if (r + 1) ** alpha.denominator > k**alpha.numerator)
    assert _floor_power(k, alpha) == brute


# tau1 alpha around its gate (1/2, 1) and kappa around its window (0, 1/2),
# endpoints included, so that both valid and rejected schedules are drawn.
GATE_FRACTIONS = st.builds(Fraction, st.integers(6, 18), st.just(16))
KAPPAS = st.builds(Fraction, st.integers(-1, 21), st.just(40))
NU0S = st.sampled_from([1, 2, Fraction(1, 2)])
BETAS = st.floats(0.0, 1.0)


def assert_cumulative_identity(sched):
    assert sched.cum == tuple(itertools.accumulate(sched.n, initial=0))
    assert sched.cum[-1] == sum(sched.n) == sched.total


@settings(max_examples=200, deadline=None, database=None)
@given(f=GATE_FRACTIONS, nu0=NU0S, N=st.integers(0, 10), beta=st.none() | BETAS)
def test_polynomial_schedule_cumulative_identity(f, nu0, N, beta):
    tau1, tau2 = rate_vc(nu0)
    alpha = f / tau1
    try:
        sched = schedule_vc(alpha, tau1, tau2, N, beta=beta)
    except (ScheduleInvalidError, DomainError):
        return
    assert_cumulative_identity(sched)


@settings(max_examples=200, deadline=None, database=None)
@given(kappa=KAPPAS, N=st.integers(0, 60), beta=BETAS)
def test_exponential_schedule_cumulative_identity(kappa, N, beta):
    try:
        sched = schedule_br(kappa, N, beta=beta)
    except (ScheduleInvalidError, DomainError):
        return
    assert_cumulative_identity(sched)


def test_exponential_schedule_guards():
    with pytest.raises(DomainError):
        schedule_br(Fraction(2, 3), 4)
    with pytest.raises(DomainError):
        schedule_br(Fraction(1, 6), 1)
    with pytest.raises(CapacityError):
        schedule_br(Fraction(1, 6), 3000)
    sched = schedule_br(Fraction(1, 6), 8)
    assert sched.n[0] == 1  # unit starter block
    assert sched.k_min >= 1
    assert all(size >= 1 for size in sched.n[sched.k_min :])


def test_block_sum_matches_direct_computation():
    sched = schedule_vc(5, TAU1, TAU2, 30)
    lo = int(math.floor(12**sched.beta))
    want = sum(
        sched.n[k] ** (0.5 - float(TAU1)) * math.log(sched.n[k]) ** float(TAU2)
        for k in range(lo, 13)
        if sched.n[k] > 1
    )
    assert s_of_N(sched, 12) == pytest.approx(want, rel=1e-12)
    assert sched.s_N == pytest.approx(s_of_N(sched, 30), rel=1e-12)
    with pytest.raises(DomainError):
        s_of_N(sched, 31)


def test_exponential_sandwich_window():
    # s(N) / (sqrt(t_N) / N^theta) stays inside fixed constants over a wide
    # window; live values on N in [20, 200] sit in [2.181, 2.225].
    sched = schedule_br(Fraction(1, 6), 200)
    ratios = [br_sandwich_ratio(sched, N) for N in range(20, 201)]
    assert min(ratios) > 2.0
    assert max(ratios) < 2.4


def test_exponential_growth_window():
    # s(N) / sqrt(n_N) grows at least like N^{kappa^2}; the normalized ratio
    # stays inside [2.62, 2.73] on N in [20, 200].
    sched = schedule_br(Fraction(1, 6), 200)
    kappa2 = float(Fraction(1, 6)) ** 2
    normalized = [br_growth_ratio(sched, N) / N**kappa2 for N in range(20, 201)]
    assert min(normalized) > 2.4
    assert max(normalized) < 2.9
    raw = [br_growth_ratio(sched, N) for N in (20, 80, 200)]
    assert raw[0] < raw[1] < raw[2]


def test_exponential_divergence_trend():
    sched = schedule_br(Fraction(1, 6), 200)
    vals = [br_divergence_ratio(sched, N) for N in (20, 80, 200)]
    assert vals[0] < vals[1] < vals[2]


def test_polynomial_block_sum_tracks_envelope():
    # s(N) / (t_N^{1/2 - tau(alpha)} (log t_N)^{tau2}) is nearly constant:
    # within [0.5, 0.9] and drifting by under 10% across N in [20, 200].
    sched = schedule_vc(5, TAU1, TAU2, 200)
    ratios = [s_of_N(sched, N) / path_envelope(sched, N) for N in range(20, 201)]
    assert 0.5 < min(ratios) <= max(ratios) < 0.9
    assert max(ratios) / min(ratios) < 1.1


def test_diagnostics_require_matching_regime():
    sched = schedule_vc(5, TAU1, TAU2, 10)
    with pytest.raises(DomainError):
        br_sandwich_ratio(sched, 5)
    with pytest.raises(DomainError):
        br_growth_ratio(sched, 5)
    with pytest.raises(DomainError):
        br_divergence_ratio(sched, 5)


def test_ms_bound_transfer():
    tail = lambda t: math.exp(-t)
    assert ms_bound(tail, 90.0) == pytest.approx(9.0 * math.exp(-3.0), rel=1e-12)
    assert ms_bound(tail, 0.001) == 1.0  # clamped
    with pytest.raises(DomainError):
        ms_bound(tail, 0.0)
    with pytest.raises(DomainError):
        ms_bound(lambda t: 2.0, 1.0)


def test_sequential_construction_smoke(intervals, uniform):
    sched = schedule_vc(5, TAU1, TAU2, 4)
    seed = SeedSpec(314, 0)
    disc = run_sequential(intervals, uniform, sched, seed, m=8)
    assert disc.regime == "vc"
    assert disc.N == 4
    assert disc.t_N == sched.total
    assert 1 <= disc.m_star <= sched.total
    assert disc.max_discrepancy > 0
    assert disc.normalized == pytest.approx(
        disc.max_discrepancy / math.sqrt(sched.total), rel=1e-12
    )
    assert len(disc.per_block) == sum(1 for size in sched.n if size >= 1)
    assert disc.block_running[-1] == disc.max_discrepancy
    assert all(
        a <= b + 1e-12 for a, b in zip(disc.block_running, disc.block_running[1:])
    )


def test_sequential_construction_is_deterministic(intervals, uniform):
    sched = schedule_br(Fraction(1, 6), 5)
    a = run_sequential(intervals, uniform, sched, SeedSpec(27, 0), m=6)
    b = run_sequential(intervals, uniform, sched, SeedSpec(27, 0), m=6)
    assert a.max_discrepancy == b.max_discrepancy
    assert a.per_block == b.per_block


def test_sequential_tag_offset_decouples_runs(intervals, uniform):
    sched = schedule_br(Fraction(1, 6), 5)
    seed = SeedSpec(27, 0)
    a = run_sequential(intervals, uniform, sched, seed, m=6)
    b = run_sequential(intervals, uniform, sched, seed, m=6, tag_offset=10_000)
    assert a.max_discrepancy != b.max_discrepancy


def test_sequential_budget_guard(intervals, uniform):
    sched = schedule_vc(5, TAU1, TAU2, 8)
    with pytest.raises(CapacityError):
        run_sequential(intervals, uniform, sched, SeedSpec(1, 0), budget=100)
