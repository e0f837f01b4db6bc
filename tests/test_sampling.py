"""Empirical process values, close-pair sets, and the symmetrized modulus."""

import math

import numpy as np
import pytest

from empbridge import (
    DomainError,
    FunctionClass,
    SeedSpec,
    build_pairset,
    mu_n_estimate,
)


def test_empirical_process_hand_value(intervals, uniform, empirical_process):
    # Two of the four points lie at or below 0.25: alpha = (2 - 1) / 2.
    got = empirical_process(intervals, uniform, np.array([0.1, 0.2, 0.3, 0.9]), [0.25, 0.5])
    assert got[0] == pytest.approx((2 - 4 * 0.25) / 2.0, abs=1e-15)
    assert got[1] == pytest.approx((3 - 4 * 0.5) / 2.0, abs=1e-15)


def test_empirical_process_is_centered(intervals, uniform, seed, empirical_process):
    reps, n, theta = 2000, 64, 0.3
    samples = (uniform.draw(n, seed.rng("sample", rep)) for rep in range(reps))
    vals = np.array([empirical_process(intervals, uniform, x, [theta])[0] for x in samples])
    var = theta * (1 - theta)
    assert abs(vals.mean()) < 4 * math.sqrt(var / reps)
    assert abs(vals.var() - var) < 4 * var * math.sqrt(2.0 / reps)


def test_pairset_matches_brute_force(uniform):
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=21)
    eps = 0.32  # window eps^2 = 0.1024 over spacing 0.05: offsets 0, 1, 2
    ps = build_pairset(cls, uniform, eps)
    mesh = list(cls.mesh)
    brute = [
        (i, j)
        for i in range(len(mesh))
        for j in range(len(mesh))
        if abs(mesh[i] - mesh[j]) < eps * eps
    ]
    assert ps.count == len(brute) == 21 + 2 * 20 + 2 * 19
    assert sorted(map(tuple, ps.indices.tolist())) == sorted(brute)


def test_pairset_strict_at_zero(intervals, uniform):
    assert build_pairset(intervals, uniform, 0.0).count == 0
    with pytest.raises(DomainError):
        build_pairset(intervals, uniform, -0.1)


def constant_pair_class():
    return FunctionClass(
        "finite", envelope=2.0, members=(("constant", 0.5), ("constant", -0.5))
    )


def test_modulus_exhaustive_is_exact(uniform, seed):
    # For the pair of constants at gap 1 the modulus is E |S_n| / sqrt(n) for
    # a sum of n Rademacher signs. At n = 4 that is 1.5 / 2 = 0.75, and the
    # exhaustive path averages all 16 sign vectors, so the estimate carries
    # no Monte Carlo error at all.
    cls = constant_pair_class()
    ps = build_pairset(cls, uniform, 1.5)
    assert ps.count == 4
    est = mu_n_estimate(cls, uniform, ps, n=4, reps=3, seed=seed)
    assert est.exhaustive
    assert est.value == pytest.approx(0.75, abs=1e-15)
    assert est.stderr == pytest.approx(0.0, abs=1e-15)


def test_modulus_monte_carlo_matches_binomial(uniform, seed):
    # At n = 16: E |S_16| / 4 = 16 C(15,7) 2^-15 / 4.
    cls = constant_pair_class()
    ps = build_pairset(cls, uniform, 1.5)
    est = mu_n_estimate(cls, uniform, ps, n=16, reps=4000, seed=seed)
    want = 16 * math.comb(15, 7) / 2**15 / 4.0
    assert not est.exhaustive
    assert est.stderr > 0
    assert abs(est.value - want) < 3 * est.stderr


def test_modulus_empty_pairset_is_zero(intervals, uniform, seed):
    ps = build_pairset(intervals, uniform, 0.0)
    est = mu_n_estimate(intervals, uniform, ps, n=8, reps=5, seed=seed)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_modulus_needs_replications(intervals, uniform, seed):
    ps = build_pairset(intervals, uniform, 0.3)
    with pytest.raises(DomainError):
        mu_n_estimate(intervals, uniform, ps, n=8, reps=1, seed=seed)


def test_modulus_is_deterministic(uniform):
    cls = constant_pair_class()
    ps = build_pairset(cls, uniform, 1.5)
    a = mu_n_estimate(cls, uniform, ps, n=32, reps=50, seed=SeedSpec(5, 0))
    b = mu_n_estimate(cls, uniform, ps, n=32, reps=50, seed=SeedSpec(5, 0))
    c = mu_n_estimate(cls, uniform, ps, n=32, reps=50, seed=SeedSpec(6, 0))
    assert a.value == b.value
    assert a.value != c.value
