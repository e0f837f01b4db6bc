"""Function classes: exact moments, nets, certificates, brackets, entropy fits."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import empbridge.function_classes as function_classes
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
    covariance,
    covering_certificate,
    dP_matrix,
    fit_entropy_counts,
    mean_vector,
    net_radius,
    regime_grid_bound,
    run_entropy,
    second_moment_matrix,
)
from empbridge.function_classes import (
    _exact_cover_size,
    _first_fit_packing,
    _greedy_cover,
    _interval_cover,
    _right_edges,
)


# -- indicators ---------------------------------------------------------------


@pytest.mark.parametrize("size", [1, 2, 7, 1000])
def test_interval_mesh_is_linspace_as_python_floats(size):
    mesh = FunctionClass(kind="intervals", mesh_size=size).mesh
    assert all(type(t) is float for t in mesh)
    assert [t.hex() for t in mesh] == [float(t).hex() for t in np.linspace(0.0, 1.0, size)]


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


# Two points of the default mesh where scipy's beta(3, 27.29) CDF falls by
# one ulp.
FALLING_PAIR = [776 / 999, 777 / 999]


@settings(max_examples=200, deadline=None, database=None)
@given(
    law=st.sampled_from(sorted(MOMENT_LAWS)),
    params=st.lists(
        st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from(
                [0.0, 0.25, 0.5, 0.75, 1.0, 1 / 11, 10 / 11, 0.9999, 0.99999999, *FALLING_PAIR]
            ),
        ),
        max_size=40,
    ),
)
@example(law="beta-3-27.29", params=FALLING_PAIR)
def test_interval_second_moments_take_one_cdf_per_parameter(law, params):
    """The interval Gram matrix from p CDF values has, at every pair, the
    bits of the largest CDF value at a parameter no larger than the pair's
    minimum: the CDF of the minimum, raised where the beta CDF falls by one
    ulp near 1. Ties included; the means are its diagonal."""
    P = MOMENT_LAWS[law]
    t = np.asarray(params, dtype=float)
    cls = FunctionClass("intervals")
    got = second_moment_matrix(cls, P, params)
    F = np.asarray(P.cdf(t), dtype=float)
    want = np.array([[F[t <= min(s, u)].max() for u in t] for s in t]).reshape(len(t), len(t))
    assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(mean_vector(cls, P, params)), bits(np.diag(want)))


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


@pytest.mark.parametrize("dim", [2, 3])
def test_orthant_matrix_is_the_pointwise_definition(dim):
    """Indicator values are w 1{x <= t on every axis}, bit for bit against a
    per-point loop, for unit rectangles and for finite rectangles weighted by
    constants, with points on a corner, past one on a single axis, and NaN or
    infinite in some coordinates."""
    rng = np.random.default_rng(dim)
    ones = (1.0,) * dim
    corners = [tuple(c) for c in rng.random((5, dim))] + [(0.0,) * dim, ones]
    xs = rng.random((40, dim))
    xs[0] = corners[0]
    xs[1] = corners[1]
    xs[1, -1] = np.nextafter(corners[1][-1], 2.0)
    xs[2, 0] = np.nan
    xs[3, -1] = np.inf
    xs[4] = -np.inf
    xs[5, 1] = -np.inf
    xs[6] = corners[5]
    members = tuple(("rectangle", c) for c in corners) + (("constant", 0.25), ("constant", -0.4))
    unit = [1.0] * len(corners)
    rectangles = FunctionClass("rectangles", dim=dim, mesh_size=8)
    finite = FunctionClass("finite", members=members)
    for cls, params, weights, tees in (
        (rectangles, corners, unit, corners),
        (finite, members, unit + [0.25, -0.4], corners + [ones, ones]),
    ):
        want = np.array([
            [w * float(all(xi <= ti for xi, ti in zip(x, t))) for w, t in zip(weights, tees)]
            for x in xs
        ])
        got = cls.evaluate_matrix(params, xs)
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))


# -- column sums ---------------------------------------------------------------

COLUMN_SUM_LAWS = {
    "uniform": Distribution("uniform"),
    "beta": Distribution("beta", a=2.0, b=3.0),
    "discrete": Distribution("discrete", atoms=(0.25, 0.5, 0.75), weights=(0.3, 0.5, 0.2)),
}


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
    sums = cls.batch_column_sums(params, xs[None])[0]
    assert np.allclose(sums, want.sum(axis=0), rtol=0.0, atol=holder_sum_tolerance(n))


DEFAULT_ROW_BLOCK = function_classes.ROW_BLOCK


@pytest.mark.parametrize("rows", [1, 7, DEFAULT_ROW_BLOCK])
def test_holder_matrix_is_bit_equal_to_interp_across_row_blocks(rows, monkeypatch):
    # The knot values are gathered one row block at a time. The sample spans
    # three default blocks and a part, and so many blocks of any size; it
    # mixes uniform points with knots and points outside the unit interval.
    monkeypatch.setattr(function_classes, "ROW_BLOCK", rows)
    cls = FunctionClass("holder")
    rng = np.random.default_rng(rows)
    n = 3 * DEFAULT_ROW_BLOCK + 5
    pool = np.concatenate([[0.0, 1.0, -0.25, 1.25], cls.knots])
    xs = np.where(rng.random(n) < 0.2, rng.choice(pool, n), rng.random(n))
    vals = rng.uniform(-1.0, 1.0, (7, cls.knot_count))
    want = np.column_stack([np.interp(xs, cls.knots, v) for v in vals])
    got = cls.evaluate_matrix([tuple(v) for v in vals], xs)
    assert got.shape == (n, 7) and got.flags.c_contiguous
    assert np.array_equal(bits(got), bits(want))


def holder_sum_tolerance(n: int) -> float:
    """Absolute gap allowed between Hoelder column sums from knot-cell
    statistics and from the n x g matrix: both add n terms of magnitude at
    most 1 (a few units with the slopes drawn here) in different orders.
    Most gaps seen stay far below it, but they grow where the matrix sums
    many repeated values: 400 random cases of
    ``test_holder_column_sums_match_matrix_sums`` reached 15.8 % of it (a
    discrete law with every point from ``knot_points``, n = 11,230, K = 3)."""
    return 1e-12 * max(1, n)


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
    sums = cls.batch_column_sums(params, xs[None])[0]
    assert sums.dtype == np.float64 and sums.shape == (len(params),)
    want = cls.evaluate_matrix(params, xs).sum(axis=0)
    assert np.allclose(sums, want, rtol=0.0, atol=holder_sum_tolerance(n))


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
    call, and agrees with the row's matrix column sums within
    ``holder_sum_tolerance``. Points are uniform on [0, 1] or,
    with probability ``tie_share``, taken from ``knot_points``."""
    cls = FunctionClass("holder", knot_count=knot_count)
    rng = np.random.default_rng(seed)
    pool = knot_points(cls.knots)
    batch = np.where(rng.random((rows, n)) < tie_share, rng.choice(pool, (rows, n)), rng.random((rows, n)))
    params = [tuple(v) for v in rng.uniform(-1.0, 1.0, (g, knot_count))]
    got = cls.batch_column_sums(params, batch)
    assert got.dtype == np.float64 and got.shape == (rows, g)
    for r in range(rows):
        assert np.array_equal(bits(got[r]), bits(cls.batch_column_sums(params, batch[r : r + 1])[0]))
        want = cls.evaluate_matrix(params, batch[r]).sum(axis=0)
        assert np.allclose(got[r], want, rtol=0.0, atol=holder_sum_tolerance(n))


def exact_cell_sums(knots: np.ndarray, vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The column-sum kernel with the exact cells of ``np.searchsorted`` in
    place of truncation: the two must agree bit for bit when K - 1 is a power
    of two."""
    rows, K = len(xs), len(knots)
    x = np.clip(xs, knots[0], knots[-1])
    key = np.searchsorted(knots, x, side="right") - 1 + K * np.arange(rows)[:, None]
    counts = np.bincount(key.ravel(), minlength=rows * K).reshape(rows, K)
    offsets = np.bincount(key.ravel(), weights=x.ravel(), minlength=rows * K).reshape(rows, K)
    offsets -= counts * knots
    slopes = (vals[:, 1:] - vals[:, :-1]) / (knots[1:] - knots[:-1])
    out = counts[:, :1] * vals[:, 0]
    for j in range(1, K):
        out += counts[:, j : j + 1] * vals[:, j]
    for j in range(K - 1):
        out += offsets[:, j : j + 1] * slopes[:, j]
    return out


@settings(max_examples=200, deadline=None, database=None)
@given(
    knot_count=st.sampled_from([2, 3, 5, 9, 17]),
    rows=st.integers(1, 6),
    n=st.integers(1, 200),
    g=st.integers(1, 9),
    tie_share=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_holder_truncated_cells_are_exact_when_k_minus_1_is_a_power_of_two(
    knot_count, rows, n, g, tie_share, seed
):
    """With K - 1 a power of two, x (K - 1) is exact, so the truncated cells
    are those of ``np.searchsorted`` and the batch sums have the exact-cell
    kernel's bits. Every row starts with every point of ``knot_points``;
    the rest are uniform on [0, 1] or, with probability ``tie_share``,
    taken from ``knot_points``."""
    cls = FunctionClass("holder", knot_count=knot_count)
    rng = np.random.default_rng(seed)
    pool = knot_points(cls.knots)
    batch = np.where(rng.random((rows, n)) < tie_share, rng.choice(pool, (rows, n)), rng.random((rows, n)))
    batch = np.concatenate([np.resize(pool, (rows, len(pool))), batch], axis=1)
    vals = rng.uniform(-1.0, 1.0, (g, knot_count))
    got = cls.batch_column_sums([tuple(v) for v in vals], batch)
    assert np.array_equal(bits(got), bits(exact_cell_sums(cls.knots, vals, batch)))


@pytest.mark.parametrize("knot_count", range(2, 13))
def test_holder_column_sums_put_end_points_and_nan_in_the_end_entries(knot_count):
    """NaN, 1.0 and +inf count in the last entry, which no cell extends, and
    -inf at the first knot with offset 0, so a one-point sample sums to the
    end knot's value."""
    cls = FunctionClass("holder", knot_count=knot_count)
    vals = np.random.default_rng(knot_count).uniform(-1.0, 1.0, (3, knot_count))
    got = cls.batch_column_sums([tuple(v) for v in vals], [[np.nan], [1.0], [np.inf], [-np.inf]])
    assert np.array_equal(got, [vals[:, -1], vals[:, -1], vals[:, -1], vals[:, 0]])


@pytest.mark.parametrize("knot_count", range(2, 13))
def test_holder_matrix_gives_nan_the_last_knot_value(knot_count):
    """Unlike np.interp, which gives NaN, the matrix row of a NaN point holds
    the last knot's values, so the matrix sums agree with the column sums."""
    cls = FunctionClass("holder", knot_count=knot_count)
    vals = np.random.default_rng(knot_count).uniform(-1.0, 1.0, (3, knot_count))
    params = [tuple(v) for v in vals]
    xs = np.array([0.3, np.nan, 0.7, 1.0])
    got = cls.evaluate_matrix(params, xs)
    assert np.isnan(np.interp(np.nan, cls.knots, vals[0]))
    assert np.array_equal(got[1], vals[:, -1])
    sums = cls.batch_column_sums(params, xs[None])[0]
    assert np.allclose(sums, got.sum(axis=0), rtol=0.0, atol=holder_sum_tolerance(len(xs)))


@pytest.mark.parametrize("kind", ["intervals", "rectangles", "finite"])
def test_batch_column_sums_refuse_indicator_classes(class_of_kind, kind):
    """Indicator classes draw cell counts, not auxiliary samples, so only
    Hoelder classes take batch column sums."""
    cls, _ = class_of_kind[kind]
    with pytest.raises(UnsupportedOperationError, match=f"not {kind}"):
        cls.batch_column_sums(list(cls.mesh[:3]), np.zeros((2, 5)))


# -- rectangles ----------------------------------------------------------------


def test_rectangle_moments_are_products():
    cls = FunctionClass("rectangles", envelope=1.0, dim=2, mesh_size=25)
    P = Distribution("product-uniform", dim=2)
    m = mean_vector(cls, P, [(0.5, 0.4), (1.0, 1.0)])
    assert np.allclose(m, [0.2, 1.0], atol=1e-15)
    q = second_moment_matrix(cls, P, [(0.5, 0.4), (0.3, 0.8)])
    # E f g = prod_k min(s_k, t_k)
    assert q[0, 1] == pytest.approx(0.3 * 0.4, abs=1e-15)


@pytest.mark.parametrize(
    "law",
    [
        Distribution("uniform"),
        Distribution("beta", a=2.0, b=3.0),
        Distribution("discrete", atoms=(0.1, 0.5, 0.9), weights=(0.7, 0.2, 0.1)),
    ],
    ids=["uniform", "beta", "discrete"],
)
def test_one_dimensional_rectangles_have_the_interval_moments(law):
    # A rectangle of dim 1 is the indicator 1{x <= t} of an interval.
    thetas = np.linspace(0.0, 1.0, 41)
    intervals = FunctionClass("intervals", envelope=1.0, mesh_size=41)
    rectangles = FunctionClass("rectangles", envelope=1.0, dim=1, mesh_size=41)
    corners = [(t,) for t in thetas]
    assert np.array_equal(mean_vector(rectangles, law, corners), mean_vector(intervals, law, thetas))
    assert np.array_equal(
        second_moment_matrix(rectangles, law, corners),
        second_moment_matrix(intervals, law, thetas),
    )


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


def cell_quadrature(cls, P, vals):
    """Mean vector and second-moment matrix of Hoelder members under a beta
    law, by ``scipy.integrate.quad`` on each knot cell. The density's powers
    at 0 and 1 go into quad's algebraic weight on the end cells, so shapes
    below 1, whose density is unbounded there, integrate accurately."""
    a, b, knots = P.a, P.b, cls.knots

    def integral(g):
        total = 0.0
        for lo, hi in zip(knots[:-1], knots[1:]):
            wa = a - 1.0 if lo == 0.0 else 0.0
            wb = b - 1.0 if hi == 1.0 else 0.0
            f = lambda x: g(x) * x ** (a - 1.0 - wa) * (1.0 - x) ** (b - 1.0 - wb) / special.beta(a, b)
            total += integrate.quad(f, lo, hi, weight="alg", wvar=(wa, wb), epsabs=1e-15, epsrel=1e-13)[0]
        return total

    members = [lambda x, v=v: np.interp(x, knots, v) for v in vals]
    mean = np.array([integral(f) for f in members])
    second = np.array([[integral(lambda x: f(x) * h(x)) for h in members] for f in members])
    return mean, second


@pytest.mark.parametrize("a, b", [(2.0, 3.0), (0.5, 3.0), (80.0, 0.3)])
def test_holder_beta_moments_match_cell_quadrature(a, b):
    """The closed-form cell moments give every Hoelder moment under beta,
    shapes below 1 included."""
    cls, P = FunctionClass("holder"), Distribution("beta", a=a, b=b)
    vals = list(cls.mesh[:6])
    mean, second = cell_quadrature(cls, P, vals)
    assert np.allclose(mean_vector(cls, P, vals), mean, rtol=0.0, atol=1e-10)
    assert np.allclose(second_moment_matrix(cls, P, vals), second, rtol=0.0, atol=1e-10)


def test_holder_discrete_moments_match_weighted_matrix_sums():
    """Atoms on knots, at 0 and at 1 each count in their own cell."""
    cls = FunctionClass("holder")
    atoms = (0.0, 0.125, 0.3, 0.5, 0.77, 1.0)
    weights = np.array([0.125, 0.25, 0.125, 0.25, 0.125, 0.125])
    P = Distribution("discrete", atoms=atoms, weights=tuple(weights))
    vals = list(cls.mesh)
    mat = cls.evaluate_matrix(vals, np.array(atoms))
    assert np.allclose(mean_vector(cls, P, vals), weights @ mat, rtol=0.0, atol=1e-15)
    want = mat.T @ (mat * weights[:, None])
    assert np.allclose(second_moment_matrix(cls, P, vals), want, rtol=0.0, atol=1e-15)


def test_holder_beta_1_1_moments_equal_the_uniform_rules(uniform):
    cls = FunctionClass("holder")
    vals, P = list(cls.mesh), Distribution("beta", a=1.0, b=1.0)
    assert np.allclose(mean_vector(cls, P, vals), mean_vector(cls, uniform, vals), rtol=0.0, atol=1e-15)
    got, want = second_moment_matrix(cls, P, vals), second_moment_matrix(cls, uniform, vals)
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)


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


def test_finite_class_mixes_interval_and_rectangle_members():
    law = Distribution("beta", a=2.0, b=3.0)
    cls = FunctionClass("finite", envelope=1.0, members=(("rectangle", (0.5,)), ("interval", 0.25)))
    q = second_moment_matrix(cls, law, cls.members)
    assert q[0, 1] == q[1, 0] == law.cdf(0.25)
    assert q[0, 0] == law.cdf(0.5)


@pytest.mark.parametrize(
    "dim, atoms, members",
    [
        (1, (0.1, 0.5, 0.9), (("interval", 0.3), ("interval", 0.6))),
        (
            2,
            ((0.1, 0.2), (0.5, 0.5), (0.9, 0.3)),
            (("rectangle", (0.3, 0.4)), ("rectangle", (0.6, 0.6))),
        ),
    ],
    ids=["1d", "2d"],
)
def test_finite_constants_have_exact_moments(dim, atoms, members):
    # numpy sums these weights to 0.9999999999999999; the constants' moments
    # must not carry that rounding.
    law = Distribution("discrete", dim=dim, atoms=atoms, weights=(0.7, 0.2, 0.1))
    members += (("constant", 0.25), ("constant", -0.4))
    cls = FunctionClass("finite", envelope=1.0, members=members)
    m = mean_vector(cls, law, members)
    assert m[2] == 0.25 and m[3] == -0.4
    assert np.array_equal(np.diag(covariance(cls, law, members))[2:], [0.0, 0.0])
    q = second_moment_matrix(cls, law, members)
    assert np.array_equal(q[:2, 2:], np.outer(m[:2], [0.25, -0.4]))
    assert q[2, 3] == 0.25 * -0.4 and q[2, 2] == 0.25 * 0.25
    xs = law.draw(16, np.random.default_rng(0))
    assert np.array_equal(cls.evaluate_matrix(members, xs)[:, 2:], np.tile([0.25, -0.4], (16, 1)))


def test_member_objects_name_form_and_theta():
    spec = {"kind": "finite", "members": [{"form": "interval", "theta": 0.5}, ["constant", 0.25]]}
    assert class_from_spec(spec).members == (("interval", 0.5), ("constant", 0.25))


def test_finite_validation():
    with pytest.raises(ConfigError):
        FunctionClass("finite", members=())
    with pytest.raises(ConfigError):
        FunctionClass("finite", members=(("constant", 0.5), ("constant", 0.5)))
    with pytest.raises(ConfigError):
        FunctionClass("finite", envelope=1.0, members=(("constant", 0.8),))
    with pytest.raises(ConfigError):
        FunctionClass("finite", members=(("sine", 0.5),))
    with pytest.raises(ConfigError):  # NaN fails the envelope test too
        FunctionClass("finite", members=(("constant", math.nan),))


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


@pytest.mark.parametrize("n", [101, 201, 1001])
def test_interval_grid_is_a_strict_net_at_ties(uniform, n):
    """At epsilon 0.1 on these uniform meshes many pairs sit at a distance
    that rounds to about epsilon; every mesh point must still lie strictly
    inside a center's ball, in ``dP_matrix`` arithmetic."""
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=n)
    assert net_radius(cls, uniform, build_grid(cls, uniform, 0.1)) < 0.1


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
    bound = regime_grid_bound(intervals.regime, 0.5, intervals.envelope)
    assert bound == pytest.approx(16.0, rel=1e-12)


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


def brute_force_cover_size(ball: np.ndarray) -> int:
    """The fewest rows of ``ball`` whose union covers every column."""
    n = ball.shape[0]
    return next(
        k
        for k in range(1, n + 1)
        if any(ball[list(rows)].any(axis=0).all() for rows in itertools.combinations(range(n), k))
    )


def test_exact_cover_beats_greedy_on_a_five_point_path():
    # Points 0-3-2-4-1 in a path: greedy takes the middle point 2 first and
    # then needs both ends, while the balls around 3 and 4 cover everything.
    ball = np.eye(5, dtype=bool)
    for i, j in ((0, 3), (3, 2), (2, 4), (4, 1)):
        ball[i, j] = ball[j, i] = True
    assert _greedy_cover(ball) == [2, 0, 1]
    assert _exact_cover_size(ball) == brute_force_cover_size(ball) == 2


@settings(max_examples=300, deadline=None, database=None)
@given(
    n=st.integers(1, 9),
    density=st.sampled_from([0.2, 0.35, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_cover_size_is_the_brute_force_minimum(n, density, seed):
    """On symmetric reflexive ball matrices, as distances below a radius give,
    the branch and bound finds the minimum, also where greedy overshoots it."""
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
    ball = upper | upper.T | np.eye(n, dtype=bool)
    assert _exact_cover_size(ball) == brute_force_cover_size(ball)


def test_certificate_reuses_given_distances(uniform):
    cls = holder_class(mesh_size=40)
    d = dP_matrix(cls, uniform, list(cls.mesh))
    for eps in (0.3, 0.15):
        assert covering_certificate(cls, uniform, eps, distances=d) == covering_certificate(
            cls, uniform, eps
        )


def test_large_mesh_certificate_brackets_truth(uniform):
    cls = holder_class(mesh_size=40)
    cert = covering_certificate(cls, uniform, 0.3)
    assert not cert.exact
    assert 1 <= cert.lower <= cert.upper
    assert isinstance(cert, CoverCertificate)


def matrix_certificate(cls, P, eps) -> CoverCertificate:
    """The certificate that greedy cover and first-fit packing give on the
    full distance matrix of a mesh of more than 24 points."""
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
    n=st.integers(1, 24) | st.integers(25, 1001),
    radius=st.floats(0.01, 0.99),
    edge=st.sampled_from([None, 1.0, 2.0]),
    pair=st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
)
@example(law=UNIFORM, n=101, radius=0.1, edge=None, pair=(0, 0))
@example(law=UNIFORM, n=101, radius=0.3, edge=None, pair=(0, 0))
@example(law=UNIFORM, n=101, radius=0.15, edge=None, pair=(0, 0))
@example(law=UNIFORM, n=25, radius=0.5, edge=None, pair=(0, 0))
@example(law=UNIFORM, n=21, radius=0.0, edge=1.0, pair=(2, 6))
@example(law=Distribution("beta", a=80.0, b=0.3), n=1001, radius=0.0, edge=1.0, pair=(999, 1000))
@example(law=Distribution("beta", a=0.3, b=0.3), n=257, radius=0.0, edge=2.0, pair=(3, 250))
def test_interval_certificate_is_a_minimum_cover(law, n, radius, edge, pair):
    """The sweep's certificate is exact, ties included, and is the size of
    the grid, a strict net.

    With ``edge`` the radius is the distance between the two mesh points
    ``pair`` divided by ``edge``: 1 puts the pair on the edge of a cover
    ball, 2 on the edge of the packing's separation. On at most 24 points
    the count is the branch-and-bound minimum on the distance matrix; above
    that it lies between the matrix's first-fit packing and greedy cover.
    The sweep may decline (return None) only where the matrix path then
    gives the certificate.
    """
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=n)
    eps = radius
    if edge:
        i, k = (min(p, n - 1) for p in pair)
        eps = float(dP_matrix(cls, law, [cls.mesh[i], cls.mesh[k]])[0, 1]) / edge
        assume(0.0 < eps < 1.0)
    cert = covering_certificate(cls, law, eps)
    picks = _interval_cover(cls, law, eps)
    d = dP_matrix(cls, law, list(cls.mesh))
    if picks is None:
        if n <= 24:
            size = _exact_cover_size(d < eps)
            assert cert == CoverCertificate(size, size, True)
        else:
            assert cert == matrix_certificate(cls, law, eps)
        return
    assert cert == CoverCertificate(len(picks), len(picks), True)
    if n <= 24:
        assert cert.upper == _exact_cover_size(d < eps)
    else:
        assert len(_first_fit_packing(d >= 2.0 * eps)) <= cert.upper <= len(_greedy_cover(d < eps))
    grid = build_grid(cls, law, eps)
    assert grid.size == cert.upper
    assert net_radius(cls, law, grid) < eps


@pytest.mark.parametrize(
    "law",
    [
        UNIFORM,
        Distribution("beta", a=2.0, b=3.0),
        Distribution("discrete", atoms=(0.25, 0.5, 0.75), weights=(0.3, 0.5, 0.2)),
        MOMENT_LAWS["beta-3-27.29"],
    ],
    ids=["uniform", "beta", "discrete", "beta-3-27.29"],
)
@pytest.mark.parametrize("n", [101, 1000])
def test_interval_certificate_takes_the_window_path(law, n):
    """Every radius of a ladder takes the sweep, so its certificate is exact
    and its grid a strict net, also where scipy's beta(3, 27.29) CDF falls
    by one ulp near 1 (on the 1000-point mesh): the sweep reads its running
    maximum."""
    cls = FunctionClass("intervals", mesh_size=n)
    for eps in (0.6, 0.5, 0.45, 0.3, 0.2, 0.15, 0.1):
        picks = _interval_cover(cls, law, eps)
        assert picks is not None
        assert covering_certificate(cls, law, eps) == CoverCertificate(len(picks), len(picks), True)
        assert net_radius(cls, law, build_grid(cls, law, eps)) < eps


def cdf_table(monkeypatch, cls, F):
    """Make every law's CDF read F at the points of the class mesh."""
    mesh = np.asarray(cls.mesh)
    monkeypatch.setattr(Distribution, "cdf", lambda self, x: F[np.searchsorted(mesh, x)])


def test_interval_certificate_guard_falls_back_to_the_matrix(monkeypatch):
    """Cover edges that fall leave the windows unsound; the sweep then
    declines, the certificate comes from the matrix and the grid from the
    matrix's greedy cover, still a strict net. A CDF that falls somewhere no
    longer makes it decline: the sweep and the matrix both read its running
    maximum, and the sweep's cover is exact and a strict net."""
    cls = FunctionClass("intervals", envelope=1.0, mesh_size=25)
    falling = np.linspace(0.0, 1.0, 25)
    falling[[10, 11]] = falling[[11, 10]]
    # Rounding makes d[1, 2] >= r > d[0, 2] although F[0] < F[1]: the right
    # edge of point 1 lies left of that of point 0.
    tied = np.concatenate([[0.1, 0.1 + 2**-56, 0.1 + 0.2, 1 / 3], np.linspace(0.4, 1.0, 21)])
    r = math.sqrt((tied[1] + tied[2]) - 2.0 * tied[1])
    assert np.any(np.diff(_right_edges(tied, r)) < 0)

    with monkeypatch.context() as patch:
        cdf_table(patch, cls, falling)
        picks = _interval_cover(cls, UNIFORM, 0.3)
        assert picks is not None
        assert covering_certificate(cls, UNIFORM, 0.3) == CoverCertificate(len(picks), len(picks), True)
        assert len(picks) == _exact_cover_size(dP_matrix(cls, UNIFORM, list(cls.mesh)) < 0.3)
        grid = build_grid(cls, UNIFORM, 0.3)
        assert grid.size == len(picks)
        assert net_radius(cls, UNIFORM, grid) < 0.3

    with monkeypatch.context() as patch:
        cdf_table(patch, cls, tied)
        assert _interval_cover(cls, UNIFORM, r) is None
        assert covering_certificate(cls, UNIFORM, r) == matrix_certificate(cls, UNIFORM, r)
        grid = build_grid(cls, UNIFORM, r)
        assert grid.size == matrix_certificate(cls, UNIFORM, r).upper
        assert net_radius(cls, UNIFORM, grid) < r


def bisected_right_edges(F, radius):
    """Reference right edges: one bisection pass per bit of len(F) over every
    row at once, in ``dP_matrix``'s arithmetic."""
    n = len(F)
    twice = 2.0 * F
    lo, hi = np.arange(n), np.full(n, n)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        d2 = (F + np.take(F, mid, mode="clip")) - twice
        far = np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2) >= radius
        np.copyto(hi, mid, where=far)
        np.copyto(lo, mid + 1, where=~far)
        np.minimum(lo, hi, out=lo)  # a closed bracket stays closed
    return lo


def test_right_edges_match_the_bisection(monkeypatch):
    """The checked sorted search gives the bisection's edges on 2,000 random
    nondecreasing F: linspace, sorted uniforms, skewed powers and heavy ties
    on a few levels, at random radii and at radii whose square is exactly a
    CDF gap. Some rows fail the search's check and take the bisection."""
    fallbacks = []
    bisect = function_classes._bisect_edges

    def counted(F, rows, radius):
        fallbacks.append(len(rows))
        return bisect(F, rows, radius)

    monkeypatch.setattr(function_classes, "_bisect_edges", counted)
    rng = np.random.default_rng(20260815)
    for case in range(2000):
        n = int(rng.integers(1, 300))
        shape = case % 4
        if shape == 0:
            F = np.linspace(0.0, 1.0, n)
        elif shape == 1:
            F = np.sort(rng.uniform(size=n))
        elif shape == 2:
            F = np.sort(rng.uniform(size=n)) ** rng.choice([0.1, 0.3, 3.0, 8.0])
        else:
            levels = np.sort(rng.uniform(size=int(rng.integers(2, 12))))
            F = np.sort(rng.choice(np.append(np.round(levels * 16) / 16, 1.0), n))
        i, k = np.sort(rng.integers(0, n, 2))
        gap = (F[i] + F[k]) - 2.0 * F[i]
        r = math.sqrt(gap) if case % 2 and gap > 0 else float(rng.uniform(0.01, 0.99))
        assert np.array_equal(_right_edges(F, r), bisected_right_edges(F, r)), (case, r)
    assert len(fallbacks) > 0


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


def test_class_spec_validation():
    with pytest.raises(ConfigError):
        class_from_spec({"M": 1.0})
    with pytest.raises(ConfigError):
        class_from_spec({"kind": "intervals", "regime": {"type": "sobolev"}})
    with pytest.raises(ConfigError):
        FunctionClass("splines")
