"""Bridge covariance, factorization, conditional extension, entropy integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empbridge import (
    Distribution,
    DivergentIntegralError,
    DomainError,
    FunctionClass,
    InconsistentCovarianceError,
    NotACovarianceError,
    SeedSpec,
    build_bridge,
    conditional_law,
    covariance,
    dudley_integral,
    dudley_integral_quadrature,
    entropy_integral_bound,
    extend_from_law,
    factorize,
    sample_bridge_batch,
)

GRID = [0.25, 0.5, 0.75]
# Bridge covariance min(s,t) - st on the quarter grid, exact in binary.
K_GRID = np.array(
    [
        [0.1875, 0.125, 0.0625],
        [0.125, 0.25, 0.125],
        [0.0625, 0.125, 0.1875],
    ]
)


def test_covariance_exact_on_quarter_grid(intervals, uniform):
    K = covariance(intervals, uniform, GRID)
    assert np.array_equal(K, K_GRID)


def test_factorize_identity():
    model = factorize(np.eye(3))
    assert np.array_equal(model.L, np.eye(3))
    assert model.repair == 0.0


def test_factorize_singular_uses_eigh():
    model = factorize(np.ones((2, 2)))
    assert model.repair == 0.0
    assert np.allclose(model.L @ model.L.T, np.ones((2, 2)), atol=1e-12)


def rank_three_gram():
    a = np.random.default_rng(7).uniform(-1.0, 1.0, (5, 3))
    return a @ a.T


@pytest.mark.parametrize(
    "K, nudge",
    [
        # theta = 1 has variance 0 under the uniform law, so K is singular.
        (covariance(FunctionClass("intervals"), Distribution("uniform"), [0.2, 0.5, 0.7, 1.0]),
         np.diag([0.0, 0.0, 0.0, 1e-14])),
        (rank_three_gram(), 1e-15 * np.eye(5)),
    ],
)
def test_factorize_is_continuous_across_a_rounding_level_nudge(K, nudge):
    # A nudge that makes a singular K positive definite moves the factor by
    # about its square root; it does not switch to another square root of K.
    assert np.abs(factorize(K).L - factorize(K + nudge).L).max() <= 1e-6


def test_factorize_rejections():
    with pytest.raises(NotACovarianceError):
        factorize(np.array([[1.0, 0.9], [0.2, 1.0]]))
    with pytest.raises(NotACovarianceError):
        factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
    with pytest.raises(NotACovarianceError):
        factorize(np.zeros((2, 3)))


EPS = np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_factorize_reproduces_gram_matrices_within_the_repair(n, k, seed):
    # A A^T with k < n is singular, up to rounding of either sign; rounding
    # is bounded by 16 n eps max(1, |K|).
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, k))
    K = a @ a.T
    model = factorize(K)
    tol = model.repair + 16 * n * EPS * max(1.0, np.abs(K).max())
    assert 0.0 <= model.repair <= 1e-9
    assert np.abs(model.L @ model.L.T - K).max() <= tol


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 8),
    clamp=st.floats(1e-11, 0.9e-9),
    seed=st.integers(0, 2**32 - 1),
)
def test_factorize_records_the_clamped_eigenvalue(n, clamp, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.concatenate([[-clamp], rng.uniform(0.1, 1.0, n - 1)])
    K = (q * w) @ q.T
    K = (K + K.T) / 2.0
    model = factorize(K)
    assert model.repair == pytest.approx(clamp, abs=16 * n * EPS)
    assert np.abs(model.L @ model.L.T - K).max() <= model.repair + 16 * n * EPS


@settings(max_examples=200, deadline=None)
@given(sizes=st.tuples(*[st.integers(1, 4)] * 3), seed=st.integers(0, 2**32 - 1))
def test_conditioning_in_one_stage_equals_two_stages(sizes, seed):
    # (A, B) given G at once, against A given G and then B given (G, A):
    # composing the two stages gives the one-stage projector and Schur
    # complement to 1e-14 cond(K) max(1, |K|).
    g, a, b = sizes
    n = g + a + b
    m = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
    K = m @ m.T + 0.1 * np.eye(n)
    G, A, B, AB, GA = slice(0, g), slice(g, g + a), slice(g + a, n), slice(g, n), slice(0, g + a)
    one = conditional_law(factorize(K[G, G]), K[AB, G], K[AB, AB])
    first = conditional_law(factorize(K[G, G]), K[A, G], K[A, A])
    second = conditional_law(factorize(K[GA, GA]), K[B, GA], K[B, B])
    on_grid, on_a = second.projector[:, :g], second.projector[:, g:]
    projector = np.vstack([first.projector, on_grid + on_a @ first.projector])
    cross = on_a @ first.schur
    schur = np.block([[first.schur, cross.T], [cross, second.schur + cross @ on_a.T]])
    tol = 1e-14 * np.linalg.cond(K) * max(1.0, np.abs(K).max())
    assert np.abs(projector - one.projector).max() <= tol
    assert np.abs(schur - one.schur).max() <= tol


def test_bridge_draws_have_target_covariance(intervals, uniform, seed):
    model = build_bridge(intervals, uniform, GRID)
    draws = sample_bridge_batch(model, seed, 30_000)
    emp = np.cov(draws.T, bias=True)
    assert np.abs(emp - K_GRID).max() < 0.01
    assert np.abs(draws.mean(axis=0)).max() < 4 * math.sqrt(0.25 / 30_000)


def test_conditional_extension_restores_joint_law(intervals, uniform, seed):
    # Pin the field on a coarse grid, extend to two new points, and check the
    # full five-point covariance against the closed form.
    full = [0.2, 0.4, 0.6, 0.8, 0.5]
    grid, new = full[:3], full[3:]
    K_full = covariance(intervals, uniform, full)
    model = build_bridge(intervals, uniform, grid)
    law = conditional_law(model, K_full[3:, :3], K_full[3:, 3:])
    assert law.repair < 1e-9
    reps = 20_000
    z = sample_bridge_batch(model, seed, reps)
    joint = np.empty((reps, 5))
    joint[:, :3] = z
    for i in range(reps):
        joint[i, 3:] = extend_from_law(law, z[i], seed, rep=i)
    emp = np.cov(joint.T, bias=True)
    assert np.abs(emp - K_full).max() < 0.015


def test_conditional_mean_is_projection(intervals, uniform, seed):
    grid = [0.25, 0.5, 0.75]
    K4 = covariance(intervals, uniform, grid + [0.6])
    model = build_bridge(intervals, uniform, grid)
    law = conditional_law(model, K4[3:, :3], K4[3:, 3:])
    z = np.array([0.3, -0.1, 0.2])
    want = law.projector @ z
    # Average many conditional draws at fixed grid values.
    draws = np.array([extend_from_law(law, z, seed, rep=i) for i in range(8000)])
    sd = math.sqrt(max(law.schur[0, 0], 1e-12) / 8000)
    assert abs(draws.mean() - want[0]) < 4 * sd


def test_conditional_law_shape_validation(intervals, uniform):
    model = build_bridge(intervals, uniform, GRID)
    with pytest.raises(DomainError):
        conditional_law(model, np.zeros((1, 2)), np.eye(1))
    with pytest.raises(DomainError):
        conditional_law(model, np.zeros((2, 3)), np.eye(1))


def test_inconsistent_joint_rejected(intervals, uniform):
    model = build_bridge(intervals, uniform, GRID)
    # Claim a new coordinate strongly correlated with the grid but with zero
    # marginal variance: the Schur complement goes negative.
    cross = np.array([[0.12, 0.2, 0.12]])
    with pytest.raises(InconsistentCovarianceError):
        conditional_law(model, cross, np.array([[0.0]]))


def test_bridge_batch_gap_has_the_bridge_law(intervals, uniform, seed):
    # Gap process B(0.25) - B(0.75) is N(0, 1/4), so E |gap| = 0.5 sqrt(2/pi).
    model = build_bridge(intervals, uniform, [0.25, 0.75])
    gaps = np.abs(np.diff(sample_bridge_batch(model, seed, 40_000), axis=1))
    want = 0.5 * math.sqrt(2.0 / math.pi)
    assert abs(gaps.mean() - want) < 4 * gaps.std(ddof=1) / math.sqrt(len(gaps))


# -- entropy integrals -----------------------------------------------------------


def test_dudley_power_closed_forms():
    # c = 1, v = 2: integral of sqrt(2 log(1/x)) from 0 to sigma.
    model = ("power", {"c": 1.0, "v": 2.0})
    assert dudley_integral(model, 1.0) == pytest.approx(
        math.sqrt(math.pi / 2.0), rel=1e-12
    )
    assert dudley_integral(model, 1.0 / math.e) == pytest.approx(
        0.7174054150075293, rel=1e-12
    )
    assert dudley_integral(model, 0.0) == 0.0


def test_dudley_exponential_closed_form():
    model = ("exp", {"b": 1.0, "r": 0.5})
    assert dudley_integral(model, 0.25) == pytest.approx(1.0, rel=1e-12)
    assert entropy_integral_bound(1.0, 0.5, 0.25) == pytest.approx(
        math.sqrt(2.0), rel=1e-12
    )
    assert entropy_integral_bound(1.0, 0.5, 0.25) >= dudley_integral(model, 0.25)


def test_dudley_quadrature_cross_check_power():
    for model, sigma in (
        (("power", {"c": 1.0, "v": 2.0}), 1.0 / math.e),
        (("power", {"c": 3.0, "v": 1.5}), 0.5),
        (("power", {"c": 1.0, "v": 2.0}), 1.0),
    ):
        closed = dudley_integral(model, sigma)
        quad = dudley_integral_quadrature(model, sigma, tol=1e-10)
        assert quad == pytest.approx(closed, rel=1e-6)


def test_dudley_quadrature_cross_check_exponential():
    # The quadrature starts at 1e-12 to dodge the singularity, so it misses
    # exactly the head integral b x^{1-r} / (1-r) evaluated there.
    for b, r, sigma in ((1.0, 0.5, 0.25), (2.0, 0.75, 0.1)):
        model = ("exp", {"b": b, "r": r})
        closed = dudley_integral(model, sigma)
        quad = dudley_integral_quadrature(model, sigma, tol=1e-10)
        head = b * 1e-12 ** (1.0 - r) / (1.0 - r)
        assert closed - quad == pytest.approx(head, rel=1e-3, abs=1e-9)


def test_dudley_divergence_and_domain():
    with pytest.raises(DivergentIntegralError):
        dudley_integral(("exp", {"b": 1.0, "r": 1.0}), 0.5)
    with pytest.raises(DivergentIntegralError):
        entropy_integral_bound(1.0, 1.2, 0.5)
    with pytest.raises(DomainError):
        dudley_integral(("power", {"c": 1.0, "v": 2.0}), 1.5)
