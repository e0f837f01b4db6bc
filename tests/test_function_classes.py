"""Function classes: exact moments, nets, certificates, brackets, entropy fits."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from empbridge import (
    CapacityError,
    ConfigError,
    CoverCertificate,
    DegenerateFitError,
    Distribution,
    DomainError,
    EntropyRegime,
    ExperimentConfig,
    FunctionClass,
    UnsupportedOperationError,
    adaptive_simpson,
    bracketing_set,
    build_grid,
    class_from_spec,
    covering_certificate,
    dP_matrix,
    fit_entropy_counts,
    mean_vector,
    net_radius,
    run_entropy,
    second_moment_matrix,
)
from empbridge.function_classes import (
    _exact_cover_size,
    _first_fit_packing,
    _greedy_cover,
    _knot_cells,
    _right_edges,
    _window_cdf,
    _window_certificate,
)


# -- indicators ---------------------------------------------------------------


def test_interval_indicator_evaluates_exactly(intervals):
    assert intervals.evaluate_matrix([0.5], [0.3, 0.7, 0.5]).tolist() == [[1.0], [0.0], [1.0]]


def test_interval_mean_is_cdf(intervals, uniform):
    thetas = [0.0, 0.25, 0.5, 1.0]
    assert np.array_equal(mean_vector(intervals, uniform, thetas), thetas)
    B = Distribution("beta", a=2.0, b=3.0)
    assert mean_vector(intervals, B, [0.5])[0] == pytest.approx(0.6875, abs=1e-12)


def test_interval_second_moment_is_min(intervals, uniform):
    q = second_moment_matrix(intervals, uniform, [0.25, 0.5, 0.75])
    want = [[0.25, 0.25, 0.25], [0.25, 0.5, 0.5], [0.25, 0.5, 0.75]]
    assert np.array_equal(q, want)


MOMENT_LAWS = {
    "uniform": Distribution("uniform"),
    "beta-3-27.29": Distribution("beta", a=3.0, b=27.29),
    "discrete": Distribution("discrete", atoms=(0.25, 0.5, 0.75), weights=(0.3, 0.5, 0.2)),
    "discrete-12": Distribution(
        "discrete", atoms=tuple(k / 11 for k in range(12)), weights=tuple([1 / 16] * 8 + [1 / 8] * 4)
    ),
}


@settings(max_examples=200, deadline=None, database=None)
@given(
    law=st.sampled_from(sorted(MOMENT_LAWS)),
    params=st.lists(
        st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1 / 11, 10 / 11, 0.9999, 0.99999999]),
        ),
        max_size=40,
    ),
)
def test_interval_second_moments_take_one_cdf_per_parameter(law, params):
    """The interval Gram matrix from p CDF values has the bits of the CDF of
    every pairwise minimum, ties and the beta CDF's one-ulp falls near 1
    included."""
    P = MOMENT_LAWS[law]
    t = np.asarray(params, dtype=float)
    got = second_moment_matrix(FunctionClass("intervals"), P, params)
    want = np.asarray(P.cdf(np.minimum(t[:, None], t[None, :])), dtype=float)
    assert got.shape == (len(t), len(t))
    assert np.array_equal(bits(got), bits(want))


def test_interval_distance_squared_is_cdf_gap(intervals, uniform):
    assert dP_matrix(intervals, uniform, [0.2, 0.7])[0, 1] ** 2 == pytest.approx(0.5, abs=1e-12)
    B = Distribution("beta", a=2.0, b=3.0)
    gap = float(B.cdf(0.7) - B.cdf(0.2))
    assert dP_matrix(intervals, B, [0.2, 0.7])[0, 1] ** 2 == pytest.approx(gap, rel=1e-12)


def test_evaluate_every_kind_matches_its_definition():
    rect = FunctionClass("rectangles", dim=2, mesh_size=25)
    pts = np.array([[0.25, 0.5], [0.25, 0.75]])
    assert rect.evaluate_matrix([(0.5, 0.5)], pts).tolist() == [[1.0], [0.0]]
    hol = holder_class()
    xs = np.array([0.0, 0.13, 0.2, 0.5, 0.77, 1.0])
    for theta in hol.mesh[1:4]:
        got = hol.evaluate_matrix([theta], xs)[:, 0]
        assert np.array_equal(got, np.interp(xs, hol.knots, theta))
    members = (("interval", 0.5), ("constant", 0.25), ("rectangle", (0.5,)))
    fin = FunctionClass("finite", members=members)
    got = fin.evaluate_matrix(fin.members, np.array([0.3, 0.7]))
    assert got.tolist() == [[1.0, 0.25, 1.0], [0.0, 0.25, 0.0]]


# -- column sums ---------------------------------------------------------------

COLUMN_SUM_LAWS = {
    "uniform": Distribution("uniform"),
    "beta": Distribution("beta", a=2.0, b=3.0),
    "discrete": Distribution("discrete", atoms=(0.25, 0.5, 0.75), weights=(0.3, 0.5, 0.2)),
}


def assert_column_sums_match_matrix(cls, params, xs):
    sums = cls.column_sums(params, xs)
    assert sums.dtype == np.float64 and sums.shape == (len(params),)
    assert np.array_equal(sums, cls.evaluate_matrix(params, xs).sum(axis=0))


@settings(max_examples=300, deadline=None, database=None)
@given(
    law=st.sampled_from(sorted(COLUMN_SUM_LAWS)),
    n=st.one_of(st.integers(1, 80), st.integers(256, 4096)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_interval_column_sums_equal_matrix_sums(law, n, seed, data):
    """Counting is bit-equal to summing the indicator matrix, ties included.

    Parameters mix free values, the sample's own points and the discrete law's
    atoms, in any order and with repeats, on samples of 1 to 80 and of 256 to
    4096 points.
    """
    xs = COLUMN_SUM_LAWS[law].draw(n, np.random.default_rng(seed))
    theta = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from(xs.tolist()),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    )
    params = data.draw(st.lists(theta, max_size=16))
    assert_column_sums_match_matrix(FunctionClass("intervals"), params, xs)


@pytest.mark.parametrize(
    "params, xs",
    [
        ([], [0.3, 0.7]),
        ([0.5], [0.5]),
        ([0.75, 0.25, 0.75, 0.0, 1.0, 0.25], [0.25, 0.75, 0.5, 0.25, 0.75]),
    ],
)
def test_interval_column_sums_edge_cases(params, xs):
    assert_column_sums_match_matrix(FunctionClass("intervals"), params, np.array(xs))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=300, deadline=None, database=None)
@given(
    knot_count=st.integers(2, 12),
    n=st.integers(1, 300),
    g=st.integers(0, 9),
    tie_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(knot_count=2, n=1, g=0, tie_share=1.0, seed=0)
@example(knot_count=12, n=1, g=1, tie_share=1.0, seed=1)
def test_holder_matrix_is_bit_equal_to_interp(knot_count, n, g, tie_share, seed):
    """The cell-search kernel gives np.interp's bits; its column sums agree
    with the matrix's within ``holder_sum_tolerance``.

    Points are uniform on [0, 1] or, with probability ``tie_share``, taken
    from a small pool that repeats: 0, 1, every knot, two points outside the
    unit interval and three free values. Knot values include signed zeros.
    """
    cls = FunctionClass("holder", knot_count=knot_count)
    rng = np.random.default_rng(seed)
    pool = np.concatenate([[0.0, 1.0, -0.25, 1.25], cls.knots, rng.random(3)])
    xs = np.where(rng.random(n) < tie_share, rng.choice(pool, n), rng.random(n))
    vals = rng.uniform(-1.0, 1.0, (g, knot_count))
    vals[rng.random(vals.shape) < 0.1] = -0.0
    params = [tuple(v) for v in vals]
    want = np.column_stack([np.interp(xs, cls.knots, v) for v in vals]) if g else np.zeros((n, 0))
    got = cls.evaluate_matrix(params, xs)
    assert got.shape == (n, g) and got.flags.c_contiguous
    assert np.array_equal(bits(got), bits(want))
    sums = cls.column_sums(params, xs)
    assert np.allclose(sums, want.sum(axis=0), rtol=0.0, atol=holder_sum_tolerance(n))


def holder_sum_tolerance(n: int) -> float:
    """Absolute gap allowed between Hoelder column sums from knot-cell
    statistics and from the n x g matrix: both add n terms of magnitude at
    most 1 (a few units with the slopes drawn here) in different orders.
    The gaps seen stay below 1 % of it."""
    return 1e-12 * max(1, n)


def test_column_sums_fall_back_to_matrix_sums():
    rng = np.random.default_rng(3)
    holder = FunctionClass("holder", envelope=1.0, mesh_size=6, knot_count=5)
    xs = rng.random(40)
    want = holder.evaluate_matrix(list(holder.mesh), xs).sum(axis=0)
    assert np.allclose(holder.column_sums(list(holder.mesh), xs), want, rtol=0.0, atol=holder_sum_tolerance(40))
    rect = FunctionClass("rectangles", envelope=1.0, dim=2, mesh_size=9)
    assert_column_sums_match_matrix(rect, list(rect.mesh), rng.random((40, 2)))


def knot_points(knots: np.ndarray) -> np.ndarray:
    """0, 1, every knot and its two floating-point neighbours, and points
    outside [0, 1], infinities included."""
    return np.concatenate(
        [
            [0.0, -0.0, 1.0, -0.5, 1.5, -np.inf, np.inf, 5e-324, -5e-324],
            knots,
            np.nextafter(knots, -np.inf),
            np.nextafter(knots, np.inf),
        ]
    )


@settings(max_examples=300, deadline=None, database=None)
@given(
    knot_count=st.integers(2, 12),
    n=st.integers(0, 200),
    tie_share=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_knot_cells_equal_searchsorted(knot_count, n, tie_share, seed):
    """The floor-and-correct cell index is np.searchsorted's, bit for bit.

    Points are uniform on [-0.25, 1.25] or, with probability ``tie_share``,
    taken from ``knot_points``; every such point is also checked once.
    """
    knots = FunctionClass("holder", knot_count=knot_count).knots
    rng = np.random.default_rng(seed)
    pool = knot_points(knots)
    free = rng.uniform(-0.25, 1.25, n)
    xs = np.concatenate([pool, np.where(rng.random(n) < tie_share, rng.choice(pool, n), free)])
    got = _knot_cells(knots, xs)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.searchsorted(knots, xs, side="right") - 1)


# The matrix computes inf * 0 = NaN in the rows of the infinite points of
# ``knot_points`` and then overwrites those rows with the knot value.
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
@settings(max_examples=200, deadline=None, database=None)
@given(
    knot_count=st.integers(2, 12),
    n=st.one_of(st.integers(1, 300), st.integers(1024, 16384)),
    g=st.integers(1, 16),
    law=st.sampled_from(sorted(COLUMN_SUM_LAWS)),
    tie_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_holder_column_sums_match_matrix_sums(knot_count, n, g, law, tie_share, seed):
    """Sums from per-knot-cell counts and offsets equal the matrix column
    sums within ``holder_sum_tolerance``, for admissible mesh members and for
    free knot values, on samples of every law that may contain knots, points
    outside [0, 1] and repeats."""
    cls = FunctionClass("holder", envelope=1.0, knot_count=knot_count, mesh_size=g, mesh_seed=seed)
    rng = np.random.default_rng(seed)
    xs = COLUMN_SUM_LAWS[law].draw(n, rng)
    xs = np.where(rng.random(n) < tie_share, rng.choice(knot_points(cls.knots), n), xs)
    params = list(cls.mesh) + [tuple(v) for v in rng.uniform(-1.0, 1.0, (g, knot_count))]
    sums = cls.column_sums(params, xs)
    assert sums.dtype == np.float64 and sums.shape == (len(params),)
    want = cls.evaluate_matrix(params, xs).sum(axis=0)
    assert np.allclose(sums, want, rtol=0.0, atol=holder_sum_tolerance(n))


# The rows hold the infinite points of ``knot_points``; see above.
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
@settings(max_examples=200, deadline=None, database=None)
@given(
    knot_count=st.integers(2, 12),
    rows=st.integers(1, 6),
    n=st.integers(1, 200),
    g=st.integers(1, 9),
    tie_share=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_holder_batch_rows_equal_one_row_sums(knot_count, rows, n, g, tie_share, seed):
    """Each row of the batched knot-cell kernel is bit for bit its one-row
    call, which is ``column_sums``, and agrees with the row's matrix column
    sums within ``holder_sum_tolerance``. Points are uniform on [0, 1] or,
    with probability ``tie_share``, taken from ``knot_points``."""
    cls = FunctionClass("holder", knot_count=knot_count)
    rng = np.random.default_rng(seed)
    pool = knot_points(cls.knots)
    batch = np.where(rng.random((rows, n)) < tie_share, rng.choice(pool, (rows, n)), rng.random((rows, n)))
    params = [tuple(v) for v in rng.uniform(-1.0, 1.0, (g, knot_count))]
    got = cls.batch_column_sums(params, batch)
    assert got.dtype == np.float64 and got.shape == (rows, g)
    for r in range(rows):
        assert np.array_equal(bits(got[r]), bits(cls.column_sums(params, batch[r])))
        want = cls.evaluate_matrix(params, batch[r]).sum(axis=0)
        assert np.allclose(got[r], want, rtol=0.0, atol=holder_sum_tolerance(n))


def test_batch_column_sums_of_other_classes_are_row_column_sums():
    rng = np.random.default_rng(5)
    rect = FunctionClass("rectangles", envelope=1.0, dim=2, mesh_size=9)
    batch = rng.random((3, 40, 2))
    got = rect.batch_column_sums(list(rect.mesh), batch)
    assert np.array_equal(got, np.stack([rect.column_sums(list(rect.mesh), xs) for xs in batch]))
    thetas = [0.1, 0.5, 0.9]
    batch = rng.random((4, 30))
    got = FunctionClass("intervals").batch_column_sums(thetas, batch)
    assert np.array_equal(got, np.stack([(xs[:, None] <= thetas).sum(axis=0) for xs in batch]))


# -- rectangles ----------------------------------------------------------------


def test_rectangle_moments_are_products():
    cls = FunctionClass("rectangles", envelope=1.0, dim=2, mesh_size=25)
    P = Distribution("product-uniform", dim=2)
    m = mean_vector(cls, P, [(0.5, 0.4), (1.0, 1.0)])
    assert np.allclose(m, [0.2, 1.0], atol=1e-15)
    q = second_moment_matrix(cls, P, [(0.5, 0.4), (0.3, 0.8)])
    # E f g = prod_k min(s_k, t_k)
    assert q[0, 1] == pytest.approx(0.3 * 0.4, abs=1e-15)


def test_rectangle_dimension_mismatch(uniform):
    cls = FunctionClass("rectangles", envelope=1.0, dim=2, mesh_size=25)
    with pytest.raises(DomainError):
        mean_vector(cls, uniform, [(0.5, 0.4)])


# -- holder classes --------------------------------------------------------------


def holder_class(**kw):
    args = dict(kind="holder", envelope=2.0, mesh_size=12, knot_count=6)
    args.update(kw)
    return FunctionClass(**args)


def test_holder_mesh_is_deterministic_and_admissible():
    a, b = holder_class(), holder_class()
    assert a.mesh == b.mesh
    assert a.mesh[0] == tuple([0.0] * a.knot_count)
    vals = np.asarray(a.mesh)
    assert np.abs(vals).max() <= a.envelope / 2.0 + 1e-12  # envelope
    # Pairwise smoothness |v_i - v_j| <= R |x_i - x_j|^s for every member.
    xs = a.knots
    limit = a.holder_radius * np.abs(xs[:, None] - xs[None, :]) ** a.holder_exponent
    assert np.all(np.abs(vals[:, :, None] - vals[:, None, :]) <= limit + 1e-9)


def test_holder_mean_matches_trapezoid(uniform):
    cls = holder_class()
    theta = cls.mesh[3]
    got = mean_vector(cls, uniform, [theta])[0]
    want = np.trapezoid(np.asarray(theta), cls.knots)
    assert got == pytest.approx(want, rel=1e-12)


def test_holder_second_moment_matches_quadrature(uniform):
    cls = holder_class()
    t1, t2 = cls.mesh[3], cls.mesh[5]
    got = second_moment_matrix(cls, uniform, [t1, t2])[0, 1]
    f = lambda x: float(np.interp(x, cls.knots, t1) * np.interp(x, cls.knots, t2))
    want = adaptive_simpson(f, 0.0, 1.0, 1e-12)
    assert got == pytest.approx(want, abs=1e-9)


# -- finite classes ---------------------------------------------------------------


def test_finite_member_moments(uniform):
    cls = FunctionClass(
        "finite",
        envelope=2.0,
        members=(("constant", 0.5), ("interval", 0.25), ("interval", 0.75)),
    )
    m = mean_vector(cls, uniform, cls.members)
    assert np.allclose(m, [0.5, 0.25, 0.75], atol=1e-15)
    q = second_moment_matrix(cls, uniform, cls.members)
    assert q[0, 1] == pytest.approx(0.5 * 0.25, abs=1e-15)  # constant times mean
    assert q[1, 2] == pytest.approx(0.25, abs=1e-15)  # min of thresholds


def test_finite_validation():
    with pytest.raises(ConfigError):
        FunctionClass("finite", members=())
    with pytest.raises(ConfigError):
        FunctionClass("finite", members=(("constant", 0.5), ("constant", 0.5)))
    with pytest.raises(ConfigError):
        FunctionClass("finite", envelope=1.0, members=(("constant", 0.8),))
    with pytest.raises(ConfigError):
        FunctionClass("finite", members=(("sine", 0.5),))


# -- nets -------------------------------------------------------------------------


def test_interval_net_counts_and_radius(uniform):
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=200)
    for eps, want in ((0.6, 2), (0.5, 3), (0.36, 4)):
        g = build_grid(cls, uniform, eps)
        assert g.size == want
        assert net_radius(cls, uniform, g) < eps
    g = build_grid(cls, uniform, 0.6)
    assert g.centers[-1] == 1.0
    assert g.gram.shape == (2, 2)


def test_interval_sweep_is_minimal(uniform):
    # The one-pass sweep on a sorted 1-D mesh gives a minimum-size net; it
    # must match the exact branch-and-bound certificate on a small mesh.
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=21)
    for eps in (0.6, 0.45, 0.3):
        g = build_grid(cls, uniform, eps)
        cert = covering_certificate(cls, uniform, eps)
        assert cert.exact
        assert g.size == cert.lower == cert.upper


def test_greedy_net_covers_mesh(uniform):
    cls = holder_class(mesh_size=30)
    eps = 0.4
    g = build_grid(cls, uniform, eps)
    d = dP_matrix(cls, uniform, list(g.centers) + list(cls.mesh))
    cross = d[: g.size, g.size :]
    assert float(cross.min(axis=0).max()) < eps


def test_grid_budget_capacity(uniform):
    # At eps = 0.005 the coverage window eps^2 is below the mesh spacing, so
    # each of the 5000 mesh points needs its own center: over the 4096 budget.
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=5000)
    with pytest.raises(CapacityError):
        build_grid(cls, uniform, 0.005)


def test_grid_rejects_undeclared_entropy(uniform):
    # Declared bound c0 eps^{-nu0} = 0.5 / sqrt(eps) is far below the true
    # interval covering count at eps = 0.25.
    cls = FunctionClass(
        "intervals",
        envelope=1.0,
        mesh_size=200,
        regime=EntropyRegime("vc", c0=0.5, nu0=0.5),
    )
    with pytest.raises(DomainError):
        build_grid(cls, uniform, 0.25)


def test_grid_bound_hand_value(intervals):
    # Default interval regime: c0 = 4, nu0 = 2, envelope 1.
    assert intervals.grid_bound(0.5) == pytest.approx(16.0, rel=1e-12)


def test_epsilon_domain(intervals, uniform):
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            build_grid(intervals, uniform, bad)
        with pytest.raises(DomainError):
            covering_certificate(intervals, uniform, bad)


# -- covering certificates ---------------------------------------------------------


def brute_force_min_cover(ball: np.ndarray) -> int:
    n = ball.shape[0]
    for k in range(1, n + 1):
        for picks in itertools.combinations(range(n), k):
            if np.all(np.any(ball[list(picks)], axis=0)):
                return k
    return n


def test_exact_certificate_matches_brute_force(uniform):
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=12)
    for eps in (0.55, 0.4, 0.3):
        cert = covering_certificate(cls, uniform, eps)
        ball = dP_matrix(cls, uniform, list(cls.mesh)) < eps
        want = brute_force_min_cover(ball)
        assert cert.exact
        assert cert.lower == cert.upper == want


def greedy_cover_reference(ball):
    """The cover that recomputes every gain at every pick."""
    uncovered = np.ones(ball.shape[1], dtype=bool)
    picks = []
    while uncovered.any():
        gains = (ball & uncovered[None, :]).sum(axis=1)
        c = int(np.argmax(gains))
        if gains[c] == 0:
            raise DomainError("mesh point not coverable by any candidate center")
        picks.append(c)
        uncovered &= ~ball[c]
    return picks


def first_fit_packing_reference(sep):
    """The packing that tests each point against every point kept so far."""
    kept = []
    for i in range(len(sep)):
        if all(sep[i, j] for j in kept):
            kept.append(i)
    return kept


@settings(max_examples=300, deadline=None, database=None)
@given(
    n=st.integers(1, 40),
    density=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
    distinct_rows=st.integers(1, 8),
    uncoverable=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_incremental_greedy_cover_matches_recompute_loop(
    n, density, distinct_rows, uncoverable, seed
):
    """Same picks, lowest index first on tied gains, and the same error.

    Rows are drawn from a few distinct patterns, so gains tie often. With
    ``uncoverable`` one column is cleared, which no candidate then covers.
    """
    rng = np.random.default_rng(seed)
    pool = rng.random((distinct_rows, n)) < density
    ball = pool[rng.integers(0, distinct_rows, n)] | np.eye(n, dtype=bool)
    if uncoverable:
        ball[:, rng.integers(n)] = False
    try:
        want = greedy_cover_reference(ball)
    except DomainError:
        with pytest.raises(DomainError, match="not coverable"):
            _greedy_cover(ball)
    else:
        assert _greedy_cover(ball) == want


@settings(max_examples=300, deadline=None, database=None)
@given(
    n=st.integers(0, 40),
    density=st.sampled_from([0.1, 0.5, 0.8, 0.95]),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_fit_packing_matches_pairwise_loop(n, density, seed):
    """The free-mask packing keeps the loop's points on an asymmetric relation.

    Distances from matmuls need not be bitwise symmetric, so the packing must
    read sep[k, i] (the later point first), as the loop does.
    """
    sep = np.random.default_rng(seed).random((n, n)) < density
    assert _first_fit_packing(sep) == first_fit_packing_reference(sep)


@settings(max_examples=300, deadline=None, database=None)
@given(
    mesh=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24, unique=True),
    epsilon=st.floats(0.01, 0.99),
    law=st.sampled_from(sorted(COLUMN_SUM_LAWS)),
)
def test_packing_exact_cover_and_greedy_cover_are_ordered(mesh, epsilon, law):
    """first-fit packing <= exact cover <= greedy cover on meshes of at most
    24 points: an open epsilon-ball holds at most one point of a 2 epsilon-
    separated set, and the exact search starts from the greedy cover."""
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=len(mesh))
    d = dP_matrix(cls, COLUMN_SUM_LAWS[law], sorted(mesh))
    packing = len(_first_fit_packing(d >= 2.0 * epsilon))
    exact = _exact_cover_size(d < epsilon)
    assert 1 <= packing <= exact <= len(_greedy_cover(d < epsilon))


def test_certificate_reuses_given_distances(uniform):
    cls = holder_class(mesh_size=40)
    d = dP_matrix(cls, uniform, list(cls.mesh))
    for eps in (0.3, 0.15):
        assert covering_certificate(cls, uniform, eps, distances=d) == covering_certificate(
            cls, uniform, eps
        )


def test_large_mesh_certificate_brackets_truth(uniform):
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=200)
    cert = covering_certificate(cls, uniform, 0.3)
    assert not cert.exact
    assert 1 <= cert.lower <= cert.upper
    assert isinstance(cert, CoverCertificate)


def matrix_certificate(cls, P, eps) -> CoverCertificate:
    """The large-mesh certificate that greedy cover and first-fit packing
    give on the full distance matrix."""
    d = dP_matrix(cls, P, list(cls.mesh))
    return CoverCertificate(
        len(_first_fit_packing(d >= 2.0 * eps)), len(_greedy_cover(d < eps)), False
    )


def dyadic_discrete(atoms, cuts, depth):
    """A discrete law whose weights are the gaps between sorted cut points
    in 1..2^depth - 1, over 2^depth: dyadic (a gap may be 0), and summing
    to 1 exactly."""
    edges = [0, *sorted(c % (2**depth - 1) + 1 for c in cuts), 2**depth]
    weights = [(b - a) / 2**depth for a, b in zip(edges, edges[1:])]
    return Distribution("discrete", atoms=tuple(atoms), weights=tuple(weights))


UNIFORM = Distribution("uniform")
SHAPES = st.sampled_from([0.3, 0.5, 1.0, 2.0, 3.0, 80.0]) | st.floats(0.2, 100.0)
INTERVAL_LAWS = st.one_of(
    st.just(UNIFORM),
    st.builds(lambda a, b: Distribution("beta", a=a, b=b), SHAPES, SHAPES),
    st.integers(1, 6).flatmap(
        lambda k: st.builds(
            dyadic_discrete,
            st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                min_size=k,
                max_size=k,
                unique=True,
            ),
            st.lists(st.integers(0, 2**20), min_size=k - 1, max_size=k - 1, unique=True),
            st.integers(max(1, (k - 1).bit_length()), 8),
        )
    ),
)


@settings(max_examples=60, deadline=None, database=None)
@given(
    law=INTERVAL_LAWS,
    n=st.integers(25, 1001),
    radius=st.floats(0.01, 0.99),
    edge=st.sampled_from([None, 1.0, 2.0]),
    pair=st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
)
@example(law=UNIFORM, n=101, radius=0.1, edge=None, pair=(0, 0))
@example(law=UNIFORM, n=101, radius=0.3, edge=None, pair=(0, 0))
@example(law=UNIFORM, n=101, radius=0.15, edge=None, pair=(0, 0))
@example(law=UNIFORM, n=25, radius=0.5, edge=None, pair=(0, 0))
@example(law=Distribution("beta", a=80.0, b=0.3), n=1001, radius=0.0, edge=1.0, pair=(999, 1000))
@example(law=Distribution("beta", a=0.3, b=0.3), n=257, radius=0.0, edge=2.0, pair=(3, 250))
def test_interval_certificate_equals_matrix_certificate(law, n, radius, edge, pair):
    """Index windows count what the distance matrix counts, ties included.

    With ``edge`` the radius is the distance between the two mesh points
    ``pair`` divided by ``edge``: 1 puts the pair on the edge of a cover
    ball, 2 on the edge of the packing's separation. The window path may
    decline (return None) only where the matrix path then gives the counts.
    """
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=n)
    eps = radius
    if edge:
        i, k = (min(p, n - 1) for p in pair)
        eps = float(dP_matrix(cls, law, [cls.mesh[i], cls.mesh[k]])[0, 1]) / edge
        assume(0.0 < eps < 1.0)
    want = matrix_certificate(cls, law, eps)
    F = _window_cdf(cls, law)
    windows = None if F is None else _window_certificate(F, eps)
    assert windows is None or windows == want
    assert covering_certificate(cls, law, eps) == want


@pytest.mark.parametrize(
    "law",
    [
        UNIFORM,
        Distribution("beta", a=2.0, b=3.0),
        Distribution("discrete", atoms=(0.25, 0.5, 0.75), weights=(0.3, 0.5, 0.2)),
    ],
    ids=["uniform", "beta", "discrete"],
)
@pytest.mark.parametrize("n", [101, 1000])
def test_interval_certificate_takes_the_window_path(law, n):
    F = _window_cdf(FunctionClass("intervals", mesh_size=n), law)
    assert F is not None
    for eps in (0.6, 0.5, 0.45, 0.3, 0.2, 0.15, 0.1):
        assert _window_certificate(F, eps) is not None


def cdf_table(monkeypatch, cls, F):
    """Make every law's CDF read F at the points of the class mesh."""
    mesh = np.asarray(cls.mesh)
    monkeypatch.setattr(Distribution, "cdf", lambda self, x: F[np.searchsorted(mesh, x)])


def test_interval_certificate_guard_falls_back_to_the_matrix(monkeypatch):
    """A CDF that falls somewhere, or cover edges that fall, leave the
    windows unsound; the certificate then comes from the matrix."""
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=25)
    falling = np.linspace(0.0, 1.0, 25)
    falling[[10, 11]] = falling[[11, 10]]
    # Rounding makes d[1, 2] >= r > d[0, 2] although F[0] < F[1]: the right
    # edge of point 1 lies left of that of point 0.
    tied = np.concatenate([[0.1, 0.1 + 2**-56, 0.1 + 0.2, 1 / 3], np.linspace(0.4, 1.0, 21)])
    r = math.sqrt((tied[1] + tied[2]) - 2.0 * tied[1])
    assert np.any(np.diff(_right_edges(tied, r)) < 0)
    assert _window_certificate(tied, r) is None

    with monkeypatch.context() as patch:
        cdf_table(patch, cls, falling)
        assert _window_cdf(cls, UNIFORM) is None
        assert covering_certificate(cls, UNIFORM, 0.3) == matrix_certificate(cls, UNIFORM, 0.3)
    with monkeypatch.context() as patch:
        cdf_table(patch, cls, tied)
        assert np.array_equal(_window_cdf(cls, UNIFORM), tied)
        assert covering_certificate(cls, UNIFORM, r) == matrix_certificate(cls, UNIFORM, r)


# -- bracketing ----------------------------------------------------------------------


def test_interval_bracket_count(intervals, uniform):
    bs = bracketing_set(intervals, uniform, 0.5)
    assert bs.count == 4  # ceil(1 / eps^2)
    assert bracketing_set(intervals, uniform, 0.36).count == 8


def test_interval_brackets_tile_and_bound(intervals, uniform):
    bs = bracketing_set(intervals, uniform, 0.5)
    los = [a for a, _ in bs.brackets]
    his = [b for _, b in bs.brackets]
    assert los[0] == 0.0 and his[-1] == 1.0
    assert his[:-1] == los[1:]  # consecutive brackets share endpoints
    for a, b in bs.brackets:
        width = dP_matrix(intervals, uniform, [a, b])[0, 1]
        assert width <= 0.5 + 0.1  # mesh discretization slack
    # Every mesh member sits inside some bracket, and indicators are monotone
    # in the threshold, so the bracket functions dominate pointwise.
    for theta in intervals.mesh:
        assert any(a <= theta <= b for a, b in bs.brackets)


@pytest.mark.parametrize("law", sorted(MOMENT_LAWS))
def test_interval_brackets_equal_one_search_per_level(law):
    """One vectorized search over the CDF levels gives the bounds of one
    search per level, at 200 radii (the beta(3, 27.29) CDF falls by one ulp
    near 1 on the mesh)."""
    cls, P = FunctionClass("intervals"), MOMENT_LAWS[law]
    mesh = np.asarray(cls.mesh, dtype=float)
    F = np.asarray(P.cdf(mesh), dtype=float)
    for eps in np.linspace(0.05, 0.95, 200):
        k = int(math.ceil(1.0 / (eps * eps)))
        qs = np.linspace(0.0, 1.0, k + 1)
        bounds = [float(mesh[np.searchsorted(F, q, side="left").clip(0, len(mesh) - 1)]) for q in qs]
        bounds[0], bounds[-1] = 0.0, 1.0
        got = bracketing_set(cls, P, float(eps))
        assert got.count == k
        assert got.brackets == tuple(zip(bounds[:-1], bounds[1:]))


def test_bracketing_unsupported_for_rectangles(uniform):
    cls = FunctionClass("rectangles", envelope=1.0, dim=2, mesh_size=25)
    P = Distribution("product-uniform", dim=2)
    with pytest.raises(UnsupportedOperationError):
        bracketing_set(cls, P, 0.5)


def test_holder_bracket_capacity():
    cls = holder_class()
    with pytest.raises(CapacityError):
        bracketing_set(cls, Distribution("uniform"), 1e-5)


def test_holder_brackets_count(uniform):
    bs = bracketing_set(holder_class(), uniform, 0.5)
    assert bs.count >= 1


# -- entropy fits -----------------------------------------------------------------------


def test_fit_recovers_planted_polynomial_law():
    radii = (0.5, 0.4, 0.3, 0.2)
    counts = [3.0 * e**-1.5 for e in radii]
    rep = fit_entropy_counts(radii, counts, "vc")
    assert rep.constants["c0"] == pytest.approx(3.0, rel=1e-9)
    assert rep.constants["nu0"] == pytest.approx(1.5, rel=1e-9)
    assert rep.residual < 1e-9


def test_fit_recovers_planted_exponential_law():
    b0, r0 = 1.2, 0.4
    radii = (0.5, 0.4, 0.3, 0.2)
    counts = [math.exp(b0**2 * e ** (-2 * r0)) for e in radii]
    rep = fit_entropy_counts(radii, counts, "br")
    assert rep.constants["b0"] == pytest.approx(b0, rel=1e-9)
    assert rep.constants["r0"] == pytest.approx(r0, rel=1e-9)


def test_fit_validation():
    with pytest.raises(DomainError):
        fit_entropy_counts((0.5, 0.4), (2, 3), "vc")
    with pytest.raises(DomainError):
        fit_entropy_counts((0.4, 0.5, 0.3), (2, 3, 4), "vc")
    with pytest.raises(DegenerateFitError):
        fit_entropy_counts((0.5, 0.4, 0.3), (5, 5, 5), "vc")
    with pytest.raises(ConfigError):
        fit_entropy_counts((0.5, 0.4, 0.3), (2, 3, 4), "parabolic")


def test_fit_entropy_on_interval_class(uniform):
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=200)
    config = ExperimentConfig(kind="entropy", cls=cls, entropy={"radii": (0.6, 0.45, 0.3, 0.2)})
    fit = run_entropy(config).meta["fit"]
    # Interval counts grow like 1/(2 eps^2); the fitted exponent should be
    # near 2 even on a short radius range.
    assert fit["model"] == "vc" and 1.5 < fit["constants"]["nu0"] < 3.0


# -- specs ---------------------------------------------------------------------------------


def test_class_spec_round_trip(intervals):
    for cls in (
        intervals,
        FunctionClass("rectangles", envelope=1.0, dim=2, mesh_size=25),
        holder_class(),
        holder_class(regime=EntropyRegime("br", b0=0.5, r0=0.25), holder_exponent=0.5),
        FunctionClass("finite", members=(("constant", 0.5), ("interval", 0.25))),
        FunctionClass("finite", members=(("rectangle", (0.5,)), ("interval", 0.75))),
    ):
        again = class_from_spec(cls.to_spec())
        assert again == cls
        assert again.mesh == cls.mesh


def test_class_spec_validation():
    with pytest.raises(ConfigError):
        class_from_spec({"M": 1.0})
    with pytest.raises(ConfigError):
        class_from_spec({"kind": "intervals", "regime": {"type": "sobolev"}})
    with pytest.raises(ConfigError):
        FunctionClass("splines")
