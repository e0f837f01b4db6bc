"""Law checks: the quantile coupling is a coupling, and it sits near the floor.

Every test here runs on fixed seeds, so it is deterministic; each threshold
states the false-alarm rate it would have on random seeds. The checks test
the law of the designated pair, not only the size of its gap:

- the second moments of ``y_sum`` and ``z_sum`` against the grid Gram, and
  of ``z_sum`` joined with the mesh Gaussian against the bridge covariance;
- for the exact method on one class of each kind, the means and second
  moments of ``y_sum`` and ``z_sum``;
- the tree's cell counts, and the finer mesh-cell counts drawn given them,
  against their exact multinomial law at tiny n;
- the mean grid gap against the largest per-coordinate 1-Wasserstein
  distance between the two marginals, a floor that no coupling can beat.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import binom, chi2, norm

from empbridge import (
    Distribution,
    FunctionClass,
    SeedSpec,
    config_from_dict,
    construct_joint,
    fit_rate,
    prepare_coupling,
    run_gauss_approx,
    select_epsilon_vc,
)
from empbridge.coupling import IntervalCells, _tree_kernels, _tree_pair
from empbridge.function_classes import covariance

INTERVALS = FunctionClass("intervals", envelope=1.0, mesh_size=201)
MESH = (0.1, 0.35, 0.6, 0.9)
# (law, radius): seven grid cells padded to eight leaves; fourteen cells
# padded to sixteen under unequal masses; a discrete law whose first and
# last cells are massless, with a center at 1 whose coordinate has variance 0;
# and beta(0.5, 5), whose density piles up near 0, with centers at 0 and 1
# (both variance 0) and a last, massless cell past the center at 1.
LAW_CASES = {
    "uniform": (Distribution("uniform"), 0.3),
    "beta": (Distribution("beta", a=2.0, b=3.0), 0.2),
    "discrete": (Distribution("discrete", atoms=(0.25, 0.5, 0.75), weights=(0.3, 0.5, 0.2)), 0.3),
    "skewed-beta": (Distribution("beta", a=0.5, b=5.0), 0.2),
}


def test_binomial_quantile_matches_scipy_stats():
    """The private boost quantile that the tree uses is scipy.stats.binom.ppf,
    bit for bit, on a fixed grid of (u, N, q) with N up to 2^30."""
    _, binom_ppf = _tree_kernels()
    u = np.array([1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6, 1 - 1e-12])
    N = np.array([1, 2, 7, 64, 1000, 12345, 2**20, 10**7, 2**30], dtype=float)
    q = np.array([1e-9, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 1 - 1e-3])
    uu, NN, qq = (a.ravel() for a in np.meshgrid(u, N, q, indexing="ij"))
    assert np.array_equal(binom_ppf(uu, NN, qq), binom.ppf(uu, NN, qq))


def quantile_realizations(P, eps, R=2000, n=64):
    """R quantile realizations at n on ``MESH``, streams 0..R-1, from a
    context prepared for the quantile method."""
    ctx = prepare_coupling(INTERVALS, P, eps, eval_mesh=MESH, method="quantile")
    reals = [construct_joint(ctx, n, 1, SeedSpec(4099, r)) for r in range(R)]
    return ctx, reals


def assert_second_moments(samples: dict, K, tests: int) -> None:
    """Each named (R, d) sample has second moments K, by Wishart z-scores.

    Each entry of S = v'v / R is scaled by its Wishart standard deviation
    sqrt((K_ii K_jj + K_ij^2) / R). All z-scores must stay below the
    two-sided Bonferroni threshold for a family-wise false-alarm rate of
    0.001 over the upper triangles of ``tests`` matrices. An entry with zero
    variance must match K up to the rounding of the Gaussian sums.
    """
    R = len(next(iter(samples.values())))
    sd = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K**2) / R)
    upper = np.triu_indices(len(K))
    exact = sd[upper] == 0.0
    threshold = norm.isf(0.001 / (2 * tests * len(upper[0])))
    for side, v in samples.items():
        S = v.T @ v / R
        assert np.allclose(S[upper][exact], K[upper][exact], rtol=0.0, atol=1e-20), side
        z = np.abs(S - K)[upper][~exact] / sd[upper][~exact]
        assert z.max() < threshold, (side, z.max(), threshold)


@pytest.mark.parametrize("law", sorted(LAW_CASES))
def test_quantile_grid_pair_has_the_gram_second_moments(law):
    """E y y' and E z z' equal the grid Gram K under the quantile method.

    R = 2000 realizations at n = 64; the empirical side's fourth cumulant
    adds a term of order 1/n to its Wishart spread, which the threshold
    absorbs. A center with P(X <= c) = 1 has zero variance.
    """
    ctx, reals = quantile_realizations(*LAW_CASES[law])
    sides = {side: np.array([getattr(r, side) for r in reals]) for side in ("y_sum", "z_sum")}
    assert_second_moments(sides, ctx.grid.gram, tests=2)


@pytest.mark.parametrize("law", sorted(LAW_CASES))
def test_quantile_mesh_gaussian_has_the_bridge_second_moments(law):
    """(z_sum, mesh_gauss) has the bridge covariance on the centers and the
    mesh, so the cell-by-cell refinement is the conditional law given z_sum.

    R = 2000 realizations at n = 64 from a context prepared for the quantile
    method, which holds no dense law. Under the discrete law the mesh points
    0.1 and 0.9 have zero variance.
    """
    P, eps = LAW_CASES[law]
    ctx, reals = quantile_realizations(P, eps)
    assert type(ctx.state) is IntervalCells
    joint = np.array([np.concatenate([r.z_sum, r.mesh_gauss]) for r in reals])
    K = covariance(INTERVALS, P, list(ctx.grid.centers) + list(MESH))
    assert_second_moments({"joint": joint}, K, tests=1)


# (class, law, radius) of the exact pair's law check: an interval class and
# a Hoelder class under the uniform law, a 2-D rectangles class under
# product-uniform, and a finite class with a constant member under
# beta(2, 3). Each grid holds one coordinate of variance 0: the interval up
# to 1, the Hoelder member that is 0 everywhere, the full rectangle, or the
# constant member. The Hoelder grid's Gram, on 13 coordinates, is singular.
EXACT_CASES = {
    "intervals": (INTERVALS, Distribution("uniform"), 0.35),
    "holder": (FunctionClass("holder", envelope=1.0), Distribution("uniform"), 0.1),
    "rectangles": (
        FunctionClass("rectangles", envelope=1.0, dim=2, mesh_size=25),
        Distribution("product-uniform", dim=2),
        0.45,
    ),
    "finite": (
        FunctionClass(
            "finite",
            envelope=1.0,
            members=(("interval", 0.2), ("interval", 0.5), ("interval", 0.8), ("constant", 0.25)),
        ),
        Distribution("beta", a=2.0, b=3.0),
        0.3,
    ),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_grid_pair_has_mean_zero_and_the_gram_second_moments(case):
    """E y0 = E z0 = 0 and E y0 y0' = E z0 z0' = K, the grid Gram, for the
    designated pair of the exact method.

    R = 3000 realizations at n = 32 with batch m = 8. Each mean's z-score,
    its absolute value over sqrt(K_jj / R), must stay below the two-sided
    Bonferroni threshold for a family-wise false-alarm rate of 0.001 over
    both sides' coordinates; a coordinate with variance 0 must be 0 to
    rounding. The second moments are checked as in the quantile tests.
    """
    cls, P, eps = EXACT_CASES[case]
    ctx = prepare_coupling(cls, P, eps, eval_mesh=cls.mesh[:2])
    R, K = 3000, ctx.grid.gram
    reals = [construct_joint(ctx, 32, 8, SeedSpec(4111, r)) for r in range(R)]
    sides = {side: np.array([getattr(r, side) for r in reals]) for side in ("y_sum", "z_sum")}
    sd = np.sqrt(np.diag(K) / R)
    threshold = norm.isf(0.001 / (2 * 2 * len(K)))
    for side, v in sides.items():
        mean = v.mean(axis=0)
        assert np.abs(mean[sd == 0.0]).max(initial=0.0) < 1e-12, side
        assert (np.abs(mean[sd > 0]) / sd[sd > 0]).max() < threshold, (side, mean, threshold)
    assert_second_moments(sides, K, tests=2)


def _compositions(n: int, k: int):
    """Every vector of k nonnegative integers that sums to n."""
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        edges = (-1,) + bars + (n + k - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


# The laws of the cell-count test: the unequal ones of LAW_CASES. At radius
# 0.45 the four grid cells of beta(0.5, 5) have masses from 0.011 to 0.41,
# and the mesh cuts only the last two.
COUNT_LAWS = {law: LAW_CASES[law][0] for law in ("beta", "discrete", "skewed-beta")}


@pytest.mark.parametrize("law", sorted(COUNT_LAWS))
def test_tree_and_mesh_cell_counts_have_the_multinomial_law(law):
    """At n = 4 the counts of the finer cells that grid centers and mesh
    points cut out together are Multinomial(n, their masses).

    The grid counts come from the tree and the mesh counts from the
    multinomial given them; both are read back as cumulative counts at every
    cut. R = 4000 realizations; outcomes whose expected count is below 5 are
    pooled into one bin. The chi-square p-value must exceed 0.001, the
    false-alarm rate. A massless cell must stay empty.
    """
    P = COUNT_LAWS[law]
    n, R, eps, mesh = 4, 4000, 0.45, (0.1, 0.6)
    ctx = prepare_coupling(INTERVALS, P, eps, eval_mesh=mesh, method="quantile")
    cuts = np.concatenate([ctx.grid.centers, mesh])
    order = np.argsort(cuts, kind="stable")
    masses = np.diff(np.concatenate([[0.0], P.cdf(cuts[order]), [1.0]]))
    seen = Counter()
    for r in range(R):
        _, y0, _, _, mesh_sums, _ = _tree_pair(ctx, n, 1, SeedSpec(8191, r), 0)
        grid_sums = y0 * math.sqrt(n) + n * ctx.grid_means
        cumulative = np.round(np.concatenate([grid_sums, mesh_sums])[order])
        seen[tuple(np.diff(np.concatenate([[0.0], cumulative, [n]])).astype(int))] += 1
    live = masses > 0
    assert all(np.all(np.array(c)[~live] == 0) for c in seen)
    outcomes = list(_compositions(n, int(live.sum())))
    pmf = np.array(
        [
            math.factorial(n) / math.prod(math.factorial(k) for k in c) * np.prod(masses[live] ** c)
            for c in outcomes
        ]
    )
    assert math.isclose(pmf.sum(), 1.0, rel_tol=1e-12)
    by_live = Counter()
    for c, count in seen.items():
        by_live[tuple(np.array(c)[live])] += count
    observed = np.array([by_live[o] for o in outcomes])
    assert observed.sum() == R
    expected = R * pmf
    small = expected < 5
    obs, exp = observed[~small], expected[~small]
    if small.any():
        obs, exp = np.append(obs, observed[small].sum()), np.append(exp, expected[small].sum())
    stat = float(((obs - exp) ** 2 / exp).sum())
    p_value = chi2.sf(stat, len(obs) - 1)
    assert p_value > 0.001, (stat, len(obs) - 1, p_value)


# -- the 1-Wasserstein floor ---------------------------------------------------------


def _gaussian_cdf_integral(x, s):
    """The integral of Phi(t / s) dt from -inf to x: s (z Phi(z) + phi(z))."""
    z = np.asarray(x, dtype=float) / s
    return s * (z * norm.cdf(z) + norm.pdf(z))


def lattice_w1(n: int, F: float) -> float:
    """Exact W1 between (Bin(n, F) - n F) / sqrt(n) and N(0, F (1 - F)).

    W1 is the integral of |F_Y - F_Z| over the line. F_Y is a step function
    on the lattice x_k = (k - n F) / sqrt(n), constant at P(K <= k) on
    [x_k, x_{k+1}); each gap splits where Phi(x / s) crosses that level, and
    both pieces integrate in closed form. The two tails are the Gaussian mass
    integrals below x_0 and above x_n.
    """
    s = math.sqrt(F * (1.0 - F))
    if s == 0.0:
        return 0.0
    k = np.arange(n + 1)
    x = (k - n * F) / math.sqrt(n)
    c = binom.cdf(k[:-1], n, F)
    a, b = x[:-1], x[1:]
    cross = np.clip(s * norm.ppf(c), a, b)
    A = lambda t: _gaussian_cdf_integral(t, s)  # noqa: E731
    gaps = c * (cross - a) - (A(cross) - A(a)) + (A(b) - A(cross)) - c * (b - cross)
    upper_tail = s * (norm.pdf(x[-1] / s) - x[-1] / s * norm.sf(x[-1] / s))
    return float(A(x[0]) + gaps.sum() + upper_tail)


def test_lattice_w1_matches_dense_quadrature():
    for n, F in ((16, 0.3), (40, 0.75), (9, 0.5)):
        s = math.sqrt(F * (1.0 - F))
        t = np.linspace(-12.0, 12.0, 2_400_001)
        F_Y = binom.cdf(np.floor(n * F + t * math.sqrt(n)), n, F)
        dense = np.trapezoid(np.abs(F_Y - norm.cdf(t / s)), t)
        assert lattice_w1(n, F) == pytest.approx(dense, rel=1e-4)


# Criterion 4's config (vc radius, nu0 = 1, its transport batches, 200
# replications) under the quantile method, in one process.
CRITERION_4_QUANTILE = {
    "kind": "gauss-approx",
    "n_grid": [256, 1024, 4096, 16384],
    "reps": 200,
    "ot_batch": [64, 128, 256, 512],
    "seed": 20260815,
    "selection": {"type": "vc", "c0": 1.0, "nu0": 1.0},
    "method": "quantile",
}


@pytest.fixture(scope="module")
def criterion_4_quantile():
    return run_gauss_approx(config_from_dict(CRITERION_4_QUANTILE))


def test_quantile_mean_grid_gap_sits_near_the_w1_floor(criterion_4_quantile):
    """E sup_grid |y - z| >= max over centers of W1(law y_c, law z_c) for any
    coupling. The quantile method's mean must reach that floor within three
    standard errors (a mean below it means a wrong marginal) and stay within
    three times it."""
    table = criterion_4_quantile
    cls, P = FunctionClass("intervals"), Distribution("uniform")
    ns, sups = np.array(table.column("n")), np.array(table.column("sup_grid"))
    for n in CRITERION_4_QUANTILE["n_grid"]:
        ctx = prepare_coupling(cls, P, select_epsilon_vc(n, 1.0))
        floor = max(lattice_w1(n, float(F)) for F in ctx.grid_means)
        sup = sups[ns == n]
        mean, se = sup.mean(), sup.std(ddof=1) / math.sqrt(len(sup))
        assert floor - 3.0 * se <= mean <= 3.0 * floor, (n, mean, se, floor)


def test_quantile_method_passes_the_criterion_4_decay(criterion_4_quantile):
    assert fit_rate(criterion_4_quantile, "power").slope <= -0.07
