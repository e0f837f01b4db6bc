"""Transport plans, tail bounds, radius selections, and joint realizations."""

import math

import numpy as np
import pytest

from empbridge import (
    CapacityError,
    ConfigError,
    DomainError,
    NumericError,
    SeedSpec,
    ShapeError,
    TransportPlan,
    ZaitsevParams,
    construct_joint,
    coupling_tail,
    draw_sample,
    empirical_process,
    make_Y_sum,
    ot_couple,
    prepare_coupling,
    select_delta_t,
    select_epsilon_br,
    select_epsilon_vc,
    zaitsev_bound,
    zaitsev_grid_tail,
)
from empbridge.function_classes import build_grid


# -- exponential tail ----------------------------------------------------------


def test_zaitsev_hand_value():
    # N = 2, B = sqrt(2/100), delta = 1: 4 exp(-10 / 2^{5/2}).
    got = zaitsev_grid_tail(100, 1.0, 2, 1.0, ZaitsevParams())
    want = 4.0 * math.exp(-10.0 / 2.0**2.5)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.6828551, abs=1e-7)


def test_zaitsev_scaling_and_clamp():
    p = ZaitsevParams(C1=2.0, C2=3.0)
    got = zaitsev_bound(3, 0.5, 2.0, p)
    assert got == pytest.approx(18.0 * math.exp(-3.0 * 2.0 / (9.0 * 0.5)), rel=1e-12)
    assert zaitsev_bound(5, 1.0, 0.0, ZaitsevParams()) == 25.0
    assert zaitsev_bound(5, 1.0, 0.0, ZaitsevParams(), clamp=True) == 1.0


def test_zaitsev_validation():
    with pytest.raises(DomainError):
        zaitsev_bound(0, 1.0, 1.0, ZaitsevParams())
    with pytest.raises(DomainError):
        zaitsev_bound(2, -1.0, 1.0, ZaitsevParams())
    with pytest.raises(DomainError):
        zaitsev_bound(2, 1.0, -0.5, ZaitsevParams())
    with pytest.raises(ConfigError):
        ZaitsevParams(C1=0.0)


# -- Y sums ---------------------------------------------------------------------


def test_y_sum_equals_empirical_process_on_grid(intervals, uniform, seed):
    grid = build_grid(intervals, uniform, 0.4)
    sample = draw_sample(uniform, 50, seed)
    y = make_Y_sum(sample, intervals, uniform, grid)
    alpha = empirical_process(sample, intervals, uniform, list(grid.centers))
    assert np.allclose(y, alpha, atol=1e-12)


def test_y_sum_rejects_envelope_lie(uniform, seed):
    # Declaring envelope far below the true indicator range breaks the
    # per-summand bound |Y_i| <= M sqrt(N/n).
    from empbridge import EntropyRegime, FunctionClass

    lying = FunctionClass(
        "intervals",
        envelope=0.05,
        mesh_size=201,
        regime=EntropyRegime("vc", c0=400.0, nu0=2.0),
    )
    grid = build_grid(lying, uniform, 0.4)
    sample = draw_sample(uniform, 50, seed)
    with pytest.raises(NumericError):
        make_Y_sum(sample, lying, uniform, grid)


# -- transport plans ---------------------------------------------------------------


def test_exact_matching_equals_sorted_one_dimensional(seed):
    # In one dimension the optimal squared-cost matching is the monotone one.
    rng = seed.rng("generic")
    src = rng.standard_normal((64, 1))
    tgt = rng.standard_normal((64, 1))
    plan = ot_couple(src, tgt, method="exact")
    src_order = np.argsort(src[:, 0])
    tgt_order = np.argsort(tgt[:, 0])
    sorted_cost = float(((src[src_order, 0] - tgt[tgt_order, 0]) ** 2).mean())
    assert plan.cost == pytest.approx(sorted_cost, rel=1e-12)
    monotone = np.empty(64, dtype=int)
    monotone[src_order] = tgt_order
    assert np.array_equal(plan.assignment, monotone)


def test_coupling_tail_counts_exceedances():
    src = np.array([[0.0], [0.0], [0.0], [0.0]])
    tgt = np.array([[0.1], [0.2], [0.3], [0.4]])
    plan = ot_couple(src, tgt)
    assert coupling_tail(plan, 0.25) == 0.5
    assert coupling_tail(plan, 1.0) == 0.0
    assert coupling_tail(plan, 0.25, norm="sup") == 0.5
    with pytest.raises(ConfigError):
        coupling_tail(plan, 0.25, norm="manhattan")


def test_transport_plan_validation():
    src = np.zeros((3, 1))
    tgt = np.ones((3, 1))
    with pytest.raises(DomainError):
        TransportPlan(src, tgt, np.array([0, 0, 2]), 1.0)
    with pytest.raises(DomainError):
        TransportPlan(src, tgt, np.array([0, 1, 2]), 0.5)
    with pytest.raises(ShapeError):
        ot_couple(np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(ConfigError):
        ot_couple(src, tgt, method="sinkhorn")


def test_exact_capacity_limit():
    big = np.zeros((513, 1))
    with pytest.raises(CapacityError):
        ot_couple(big, big, method="exact")


# -- radius selections -----------------------------------------------------------


def test_epsilon_vc_frozen_value():
    assert select_epsilon_vc(1024, 1.0) == pytest.approx(0.489863489755749, rel=1e-13)
    want = (math.log(1024) / 1024) ** (1.0 / 7.0)
    assert select_epsilon_vc(1024, 1.0) == pytest.approx(want, rel=1e-15)
    with pytest.raises(DomainError):
        select_epsilon_vc(2, 1.0)
    with pytest.raises(DomainError):
        select_epsilon_vc(100, 0.0)


def test_epsilon_br_capped_and_uncapped():
    s = select_epsilon_br(10**9, 1.0, 0.5)
    assert s.capped
    assert s.epsilon == pytest.approx(1.0 / math.e, rel=1e-15)
    big = select_epsilon_br(int(1e60), 1.0, 0.75)
    assert not big.capped
    want = (10.0 * 2.0**1.5 / math.log(1e60)) ** (1.0 / 1.5)
    assert big.epsilon == pytest.approx(want, rel=1e-12)
    # Uncapped, the induced tail level collapses to n^{-1/4} exactly.
    assert big.induced == pytest.approx((1e60) ** -0.25, rel=1e-10)


def test_epsilon_br_validation():
    with pytest.raises(DomainError):
        select_epsilon_br(2, 1.0, 0.5)
    with pytest.raises(DomainError):
        select_epsilon_br(100, 1.0, 1.5)
    with pytest.raises(DomainError):
        select_epsilon_br(100, 0.0, 0.5)
    with pytest.raises(DomainError):
        select_epsilon_br(100, 1.0, 0.5, cap=1.0)


def test_delta_t_selection_formulas():
    eps = 0.25
    root = math.sqrt(math.log(4.0))
    d, t = select_delta_t(eps, "vc", 2.0, 3.0)
    assert d == pytest.approx(2.0 * eps * root, rel=1e-15)
    assert t == pytest.approx(3.0 * eps * root, rel=1e-15)
    d, t = select_delta_t(eps, "br", 1.0, 2.0, r0=0.75)
    assert d == pytest.approx(0.25**0.25, rel=1e-15)
    assert t == pytest.approx(2.0 * 0.25**0.25, rel=1e-15)
    with pytest.raises(DomainError):
        select_delta_t(eps, "br", 1.0, 1.0)
    with pytest.raises(ConfigError):
        select_delta_t(eps, "fourier", 1.0, 1.0)


# -- joint realizations --------------------------------------------------------------


def test_construct_joint_smoke(intervals, uniform, seed):
    real = construct_joint(intervals, uniform, n=128, epsilon=0.45, m=16, seed=seed)
    assert real.n == 128
    assert real.sup_grid >= 0.0
    assert real.sup_mesh >= 0.0
    assert real.transport_cost >= 0.0
    assert real.grid.size >= 2
    assert np.allclose(real.grid_gap, real.y_sum - real.z_sum)
    assert real.sup_grid == pytest.approx(np.abs(real.grid_gap).max(), rel=1e-12)
    assert real.sup_grid <= real.sup_grid_euclid + 1e-12
    assert real.sample is None and real.mesh_gauss is None


def test_construct_joint_json_schema(intervals, uniform, seed):
    real = construct_joint(intervals, uniform, n=64, epsilon=0.5, m=4, seed=seed)
    doc = real.to_json_dict()
    assert list(doc) == [
        "n",
        "epsilon",
        "grid_size",
        "sup_grid",
        "sup_mesh",
        "transport_cost",
        "seeds",
    ]
    assert doc["seeds"] == {"master": seed.master, "stream": seed.stream}
    assert doc["grid_size"] == real.grid.size


def test_construct_joint_is_deterministic(intervals, uniform):
    a = construct_joint(intervals, uniform, 64, 0.5, 8, SeedSpec(42, 1))
    b = construct_joint(intervals, uniform, 64, 0.5, 8, SeedSpec(42, 1))
    c = construct_joint(intervals, uniform, 64, 0.5, 8, SeedSpec(42, 2))
    assert a.sup_grid == b.sup_grid and a.sup_mesh == b.sup_mesh
    assert a.sup_grid != c.sup_grid


def test_construct_joint_tag_namespaces_draws(intervals, uniform, seed):
    ctx = prepare_coupling(intervals, uniform, 0.5)
    a = construct_joint(intervals, uniform, 64, 0.5, 8, seed, context=ctx, tag=0)
    b = construct_joint(intervals, uniform, 64, 0.5, 8, seed, context=ctx, tag=1)
    assert a.sup_grid != b.sup_grid


def test_construct_joint_keep_sample(intervals, uniform, seed):
    real = construct_joint(
        intervals, uniform, 64, 0.5, 4, seed, keep_sample=True, eval_mesh=[0.3, 0.7]
    )
    assert real.sample is not None and real.sample.n == 64
    assert real.mesh_gauss is not None and real.mesh_gauss.shape == (2,)
    # The reported mesh discrepancy is reproducible from the kept pieces.
    mesh_emp = empirical_process(real.sample, intervals, uniform, [0.3, 0.7])
    assert real.sup_mesh == pytest.approx(np.abs(mesh_emp - real.mesh_gauss).max(), rel=1e-12)


def test_construct_joint_validation(intervals, uniform, seed):
    with pytest.raises(DomainError):
        construct_joint(intervals, uniform, 64, 0.5, 0, seed)
    with pytest.raises(CapacityError):
        construct_joint(intervals, uniform, 8, 0.5, 600, seed)
