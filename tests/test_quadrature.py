"""Adaptive Simpson quadrature against closed-form integrals."""

import math

import pytest

from empbridge import NumericError, adaptive_simpson


def test_cubic_is_integrated_exactly():
    # Simpson's rule is exact for cubics; the answer is 1/4.
    val = adaptive_simpson(lambda x: x**3, 0.0, 1.0, 1e-12)
    assert val == pytest.approx(0.25, abs=1e-14)


def test_exponential_matches_closed_form():
    val = adaptive_simpson(math.exp, 0.0, 1.0, 1e-12)
    assert val == pytest.approx(math.e - 1.0, rel=1e-11)


def test_near_singular_inverse_sqrt():
    # Integral of 1/sqrt(x) on [1e-12, 1] is 2 - 2e-6.
    val = adaptive_simpson(lambda x: x**-0.5, 1e-12, 1.0, 1e-9)
    assert val == pytest.approx(2.0 - 2e-6, abs=1e-6)


def test_empty_interval_is_zero():
    assert adaptive_simpson(math.sin, 0.7, 0.7, 1e-9) == 0.0


def test_reversed_interval_flips_sign():
    fwd = adaptive_simpson(math.exp, 0.0, 1.0, 1e-10)
    rev = adaptive_simpson(math.exp, 1.0, 0.0, 1e-10)
    assert rev == pytest.approx(-fwd, rel=1e-12)


def test_non_finite_integrand_rejected():
    with pytest.raises(NumericError):
        adaptive_simpson(lambda x: float("nan"), 0.0, 1.0, 1e-9)
    with pytest.raises(NumericError):
        adaptive_simpson(lambda x: float("inf"), 0.0, 1.0, 1e-9)


def test_piecewise_splitting_matches_single_panel():
    f = lambda x: math.cos(3.0 * x)
    whole = adaptive_simpson(f, 0.0, 2.0, 1e-12)
    knots = [0.0, 0.5, 1.3, 2.0]
    split = sum(adaptive_simpson(f, a, b, 1e-12 / 3) for a, b in zip(knots, knots[1:]))
    assert split == pytest.approx(whole, abs=1e-10)
    assert whole == pytest.approx(math.sin(6.0) / 3.0, rel=1e-10)
