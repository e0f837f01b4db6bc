"""Transport plans, tail bounds, radius selections, and joint realizations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empbridge import (
    Distribution,
    FunctionClass,
    CapacityError,
    ConfigError,
    DomainError,
    NumericError,
    SeedSpec,
    ShapeError,
    TransportPlan,
    construct_joint,
    ot_couple,
    prepare_coupling,
    select_delta_t,
    select_epsilon_br,
    select_epsilon_vc,
    zaitsev_bound,
    zaitsev_grid_tail,
)
import empbridge.coupling as coupling
from empbridge.coupling import interval_cells


# -- exponential tail ----------------------------------------------------------


def test_zaitsev_hand_value():
    # N = 2, B = sqrt(2/100), delta = 1: 4 exp(-10 / 2^{5/2}).
    got = zaitsev_grid_tail(100, 1.0, 2, 1.0, 1.0, 1.0)
    want = 4.0 * math.exp(-10.0 / 2.0**2.5)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.6828551, abs=1e-7)


def test_zaitsev_scaling():
    got = zaitsev_bound(3, 0.5, 2.0, 2.0, 3.0)
    assert got == pytest.approx(18.0 * math.exp(-3.0 * 2.0 / (9.0 * 0.5)), rel=1e-12)
    assert zaitsev_bound(5, 1.0, 0.0, 1.0, 1.0) == 25.0


def test_zaitsev_validation():
    with pytest.raises(DomainError):
        zaitsev_bound(0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        zaitsev_bound(2, -1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        zaitsev_bound(2, 1.0, -0.5, 1.0, 1.0)


# -- Y sums ---------------------------------------------------------------------


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
    with pytest.raises(NumericError, match="summand norm"):
        construct_joint(lying, uniform, 50, 0.4, 8, seed)


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


@settings(max_examples=300, deadline=None, database=None)
@given(
    data=st.data(),
    m=st.integers(1, 64),
    levels=st.integers(1, 40),
)
def test_exact_matching_pairs_sorted_batches_with_ties(data, m, levels):
    """For g = 1 the exact assignment pairs the sorted source with the sorted
    target: as a multiset of pairs, whatever the ties.

    Values are multiples of 1/4 from ``levels`` levels, so ties are frequent
    and every cost is exact in floating point: a crossing pair always costs
    at least 1/8 more than its uncrossed swap, and the comparison can be
    exact.
    """
    value = st.integers(0, levels - 1).map(lambda k: k / 4.0 - levels / 8.0)
    src = np.array(data.draw(st.lists(value, min_size=m, max_size=m)))[:, None]
    tgt = np.array(data.draw(st.lists(value, min_size=m, max_size=m)))[:, None]
    plan = ot_couple(src, tgt)
    pairs = sorted(zip(src[:, 0], tgt[plan.assignment, 0]))
    assert pairs == list(zip(np.sort(src[:, 0]), np.sort(tgt[:, 0])))
    assert plan.cost == float(((np.sort(src[:, 0]) - np.sort(tgt[:, 0])) ** 2).mean())


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


def test_epsilon_br_validation():
    with pytest.raises(DomainError):
        select_epsilon_br(2, 1.0, 0.5)
    with pytest.raises(DomainError):
        select_epsilon_br(100, 1.0, 1.5)
    with pytest.raises(DomainError):
        select_epsilon_br(100, 0.0, 0.5)


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
    assert real.sup_grid == np.abs(real.y_sum - real.z_sum).max()
    assert real.points.shape == (128,)
    assert real.mesh_gauss.shape == (len(intervals.mesh),)


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


def test_construct_joint_keep_sample(intervals, uniform, seed, empirical_process):
    ctx = prepare_coupling(intervals, uniform, 0.5, eval_mesh=[0.3, 0.7])
    real = construct_joint(intervals, uniform, 64, 0.5, 4, seed, context=ctx)
    assert real.points.shape == (64,)
    assert real.mesh_gauss.shape == (2,)
    # The reported mesh discrepancy is reproducible from the kept pieces.
    mesh_emp = empirical_process(intervals, uniform, real.points, [0.3, 0.7])
    assert real.sup_mesh == pytest.approx(np.abs(mesh_emp - real.mesh_gauss).max(), rel=1e-12)


def test_construct_joint_validation(intervals, uniform, seed):
    with pytest.raises(DomainError):
        construct_joint(intervals, uniform, 64, 0.5, 0, seed)
    with pytest.raises(CapacityError):
        construct_joint(intervals, uniform, 8, 0.5, 600, seed)


# -- interval cell counts ------------------------------------------------------------

CELL_LAWS = {
    "uniform": Distribution("uniform"),
    "beta": Distribution("beta", a=2.0, b=3.0),
    "discrete": Distribution("discrete", atoms=(0.25, 0.5, 0.75), weights=(0.3, 0.5, 0.2)),
}


def own_cell_counts(centers, xs):
    """How many points fall in each cell c_(j) < x <= c_(j+1) of the sorted centers."""
    edges = np.sort(np.asarray(centers, dtype=float))
    lower = np.concatenate([[-np.inf], edges])
    upper = np.concatenate([edges, [np.inf]])
    return ((xs[:, None] > lower) & (xs[:, None] <= upper)).sum(axis=0)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@settings(max_examples=300, deadline=None, database=None)
@given(
    law=st.sampled_from(sorted(CELL_LAWS)),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_cell_counts_give_the_column_sums(law, n, seed, data):
    """Grid sums from a sample's own cell counts equal its column sums bit for bit.

    Centers mix free values, the sample's own points, the discrete law's atoms
    and the ends 0 and 1, unsorted and with repeats.
    """
    P = CELL_LAWS[law]
    xs = P.draw(n, np.random.default_rng(seed))
    center = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from(xs.tolist()),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    )
    centers = data.draw(st.lists(center, max_size=16))
    cells = interval_cells(P, centers)
    counts = own_cell_counts(centers, xs)
    assert counts.sum() == n
    assert cells.masses.shape == (len(centers) + 1,) and (cells.masses >= 0).all()
    assert math.isclose(cells.masses.sum(), 1.0, abs_tol=1e-12)
    want = bits(FunctionClass("intervals").column_sums(centers, xs))
    assert np.array_equal(bits(cells.grid_sums(counts)), want)
    assert np.array_equal(bits(cells.grid_sums(np.stack([counts, counts]))[1]), want)


@pytest.fixture()
def transport_sources(monkeypatch):
    """The Y-sum batches (designated row first) that ``construct_joint``
    hands to ``ot_couple``, in call order."""
    batches = []
    real_ot = coupling.ot_couple

    def spy(source, target, method="exact"):
        batches.append(source.copy())
        return real_ot(source, target, method)

    monkeypatch.setattr(coupling, "ot_couple", spy)
    return batches


@pytest.mark.parametrize("law", sorted(CELL_LAWS))
def test_auxiliary_y_sums_have_the_grid_law(transport_sources, intervals, law):
    """The m - 1 auxiliary Y-sums are centered with covariance K (Monte Carlo).

    Eight realizations with batch 512 give 4088 auxiliary Y-sums at n = 256.
    Each coordinate has variance at most 1/4, so the standard error is about
    0.008 for a mean and 0.006 for a covariance entry; the tolerances are 0.04
    and 0.03.
    """
    P, n = CELL_LAWS[law], 256
    ctx = prepare_coupling(intervals, P, 0.4)
    for stream in range(8):
        construct_joint(intervals, P, n, 0.4, 512, SeedSpec(97, stream), context=ctx)
    y = np.concatenate([source[1:] for source in transport_sources])
    assert y.shape == (8 * 511, ctx.grid.size)
    # The sums behind the Y-sums are counts: rebuilt cell counts are
    # nonnegative integers and every row sums to n.
    sums = y * math.sqrt(n) + n * ctx.grid_means
    assert np.allclose(sums, np.round(sums), atol=1e-8)
    ordered = np.round(sums[:, ctx.cells.order])
    zeros, full = np.zeros((len(y), 1)), np.full((len(y), 1), float(n))
    counts = np.diff(np.hstack([zeros, ordered, full]), axis=1)
    assert (counts >= 0).all() and (counts.sum(axis=1) == n).all()
    assert np.abs(y.mean(axis=0)).max() < 0.04
    assert np.abs(np.cov(y, rowvar=False) - ctx.grid.gram).max() < 0.03


def test_designated_sample_keeps_its_stream(intervals, uniform, seed, empirical_process):
    real = construct_joint(intervals, uniform, 128, 0.45, 16, seed, tag=3)
    x = uniform.draw(128, seed.rng("sample", 3, 0))
    assert np.array_equal(real.points, x)
    alpha = empirical_process(intervals, uniform, x, list(real.grid.centers))
    assert np.allclose(real.y_sum, alpha, atol=1e-12)


# -- auxiliary samples of other classes ------------------------------------------------

HOLDER = FunctionClass("holder", envelope=1.0, knot_count=5, mesh_size=24)
FINITE = FunctionClass(
    "finite",
    envelope=1.0,
    members=(("interval", 0.2), ("interval", 0.5), ("interval", 0.8), ("constant", 0.25)),
)
CHUNK_CASES = {
    "holder-uniform": (HOLDER, Distribution("uniform"), 0.3),
    "holder-beta": (HOLDER, CELL_LAWS["beta"], 0.3),
    "holder-discrete": (HOLDER, CELL_LAWS["discrete"], 0.3),
    "rectangles": (
        FunctionClass("rectangles", envelope=1.0, dim=2, mesh_size=16),
        Distribution("product-uniform", dim=2),
        0.5,
    ),
    "finite": (FINITE, Distribution("uniform"), 0.3),
}


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_auxiliary_sums_do_not_depend_on_the_chunk_size(monkeypatch, transport_sources, case):
    """The auxiliary samples are consecutive rows of one generator, so drawing
    and reducing them in chunks of 11 rows, of 3 rows (the last one short) or
    one row at a time gives the same bits, and so the same realization."""
    cls, P, eps = CHUNK_CASES[case]
    n, m = 40, 12
    ctx = prepare_coupling(cls, P, eps)
    assert ctx.grid.size >= 2
    reals = []
    for chunk in (coupling.AUX_CHUNK_POINTS, 3 * n + 1, 1):
        monkeypatch.setattr(coupling, "AUX_CHUNK_POINTS", chunk)
        reals.append(construct_joint(cls, P, n, eps, m, SeedSpec(5, 2), context=ctx))
    first = bits(transport_sources[0])
    assert all(np.array_equal(bits(source), first) for source in transport_sources[1:])
    for real in reals[1:]:
        assert (real.sup_grid, real.sup_mesh, real.transport_cost) == (
            reals[0].sup_grid,
            reals[0].sup_mesh,
            reals[0].transport_cost,
        )


def test_holder_auxiliary_y_sums_have_the_grid_second_moments(transport_sources):
    """Law check: the Hoelder auxiliary Y-sums have second moments grid.gram.

    Eight realizations with batch 512 at n = 256 give R = 4088 auxiliary rows.
    Each entry of their second-moment matrix S = y'y / R is scaled by its
    Wishart standard deviation sqrt((K_ii K_jj + K_ij^2) / R), K the gram;
    the fourth cumulant adds a term of order 1/n, which the threshold
    absorbs. The g (g + 1) / 2 z-scores must all stay below the Bonferroni
    threshold for a family-wise level of 0.001, two-sided: 4.13 for the
    g = 7 centers here, where the largest z-score is 3.2. An entry with zero
    variance (a member that is 0 on the support, when it is a center) must
    equal the gram's exactly.
    """
    from scipy.stats import norm

    cls, P, n = FunctionClass("holder", envelope=1.0, mesh_size=64), Distribution("uniform"), 256
    ctx = prepare_coupling(cls, P, 0.12)
    for stream in range(8):
        construct_joint(cls, P, n, 0.12, 512, SeedSpec(613, stream), context=ctx)
    y = np.concatenate([source[1:] for source in transport_sources])
    K, (R, g) = ctx.grid.gram, y.shape
    assert R == 8 * 511 and g >= 4
    S = y.T @ y / R
    sd = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K**2) / R)
    upper = np.triu_indices(g)
    exact = sd[upper] == 0.0
    assert np.array_equal(S[upper][exact], K[upper][exact])
    z = np.abs(S - K)[upper][~exact] / sd[upper][~exact]
    threshold = norm.isf(0.001 / (2 * len(upper[0])))
    assert z.max() < threshold, (z.max(), threshold)
