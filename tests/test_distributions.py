"""Sampling distributions: closed-form CDFs, draw moments, validation."""

import numpy as np
import pytest

from empbridge import ConfigError, Distribution, SeedSpec


def test_uniform_cdf_is_identity_with_clipping(uniform):
    xs = np.array([-0.5, 0.0, 0.25, 1.0, 1.7])
    assert np.array_equal(uniform.cdf(xs), np.array([0.0, 0.0, 0.25, 1.0, 1.0]))


def test_beta_2_3_cdf_closed_form():
    # F(x) = 6x^2 - 8x^3 + 3x^4 from integrating 12 x (1-x)^2.
    P = Distribution("beta", a=2.0, b=3.0)
    xs = np.array([0.1, 0.25, 0.5, 0.9])
    want = 6 * xs**2 - 8 * xs**3 + 3 * xs**4
    assert np.allclose(P.cdf(xs), want, atol=1e-12)
    assert P.cdf(0.5) == pytest.approx(0.6875, abs=1e-12)


def test_discrete_cdf_steps():
    P = Distribution("discrete", atoms=(0.2, 0.6), weights=(0.3, 0.7))
    xs = np.array([0.0, 0.2, 0.5, 0.6, 1.0])
    assert np.allclose(P.cdf(xs), [0.0, 0.3, 0.3, 1.0, 1.0], atol=1e-15)


def test_draw_shapes(uniform):
    seed = SeedSpec(11, 0)
    x = uniform.draw(50, seed.rng("sample", 0))
    assert x.shape == (50,)
    P2 = Distribution("product-uniform", dim=3)
    y = P2.draw(20, seed.rng("sample", 1))
    assert y.shape == (20, 3)
    assert np.all((y >= 0) & (y <= 1))


def test_draw_moments_match_law(uniform, seed):
    n = 200_000
    x = uniform.draw(n, seed.rng("sample", 0))
    se = np.sqrt(1.0 / 12.0 / n)
    assert abs(x.mean() - 0.5) < 4 * se
    B = Distribution("beta", a=2.0, b=3.0)
    y = B.draw(n, seed.rng("sample", 1))
    var_b = 2 * 3 / (5.0**2 * 6.0)
    assert abs(y.mean() - 0.4) < 4 * np.sqrt(var_b / n)


def test_discrete_draw_frequencies(seed):
    P = Distribution("discrete", atoms=(0.2, 0.6), weights=(0.3, 0.7))
    x = P.draw(100_000, seed.rng("sample", 2))
    frac = (x == 0.2).mean()
    assert abs(frac - 0.3) < 4 * np.sqrt(0.3 * 0.7 / 100_000)


def test_validation_rejects_bad_specs():
    with pytest.raises(ConfigError):
        Distribution("beta", a=0.0, b=1.0)
    with pytest.raises(ConfigError):
        Distribution("discrete", atoms=(0.2, 0.6), weights=(0.5, 0.6))
    with pytest.raises(ConfigError):
        Distribution("discrete", atoms=(1.2,), weights=(1.0,))
    with pytest.raises(ConfigError, match=r"atoms must lie in \[0,1\]\^d"):
        Distribution("discrete", atoms=(float("nan"), 0.5), weights=(0.5, 0.5))
    with pytest.raises(ConfigError, match=r"atoms must lie in \[0,1\]\^d"):
        Distribution("discrete", dim=2, atoms=((0.5, float("nan")),), weights=(1.0,))
    with pytest.raises(ConfigError):
        Distribution("uniform", dim=2)
    with pytest.raises(ConfigError):
        Distribution("no-such-law")
