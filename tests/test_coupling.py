"""Transport plans, tail bounds, radius selections, and joint realizations."""

import math
import subprocess
import sys
import time

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
from empbridge.coupling import OrthantCells, orthant_cells
from empbridge.function_classes import KINDS, _orthant


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
    ctx = prepare_coupling(lying, uniform, 0.4)
    with pytest.raises(NumericError, match="summand norm"):
        construct_joint(ctx, 50, 8, seed)


# -- transport plans ---------------------------------------------------------------


def test_exact_matching_equals_sorted_one_dimensional(seed):
    # In one dimension the optimal squared-cost matching is the monotone one.
    rng = seed.rng("generic")
    src = rng.standard_normal((64, 1))
    tgt = rng.standard_normal((64, 1))
    plan = ot_couple(src, tgt)
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


def test_exact_capacity_limit():
    big = np.zeros((513, 1))
    with pytest.raises(CapacityError):
        ot_couple(big, big)


def _fresh(child_env, *lines) -> list:
    """The words printed by a fresh interpreter that runs ``lines``."""
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        capture_output=True, text=True, check=True, env=child_env,
    )
    return proc.stdout.split()


KERNELS = ("scipy.optimize._lsap", "scipy.spatial._distance_pybind")
# A fresh interpreter's report of which of the watched modules it holds.
LOADED = "\n".join([
    f"watched = {('scipy.optimize', 'scipy.spatial', 'scipy.stats') + KERNELS!r}",
    "def loaded():",
    "    return ','.join(m for m in watched if m in sys.modules) or '-'",
])


@pytest.mark.parametrize("m", [1, 48, 512])
def test_ot_couple_is_scipys_public_assignment_bit_for_bit(m):
    # ot_couple calls scipy's compiled kernels directly; the public route is
    # the reference. Interval Y-sums at small n sit on a lattice, so batches
    # hold duplicate rows and the solver's choice among tied assignments
    # follows the last bit of the costs. The Gaussian batch is a transposed
    # view, as z_batch is.
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(m)
    g, n = 5, 4
    cdf = np.arange(1, g + 1) / (g + 1)
    counts = rng.multinomial(n, np.full(g + 1, 1.0 / (g + 1)), size=m)
    lattice = (np.cumsum(counts[:, :g], axis=1) - n * cdf) / math.sqrt(n)
    gauss = (rng.standard_normal((g, g)) @ rng.standard_normal((g, m))).T
    for tgt in (gauss, np.ascontiguousarray(gauss), lattice[rng.permutation(m)]):
        costs = cdist(lattice, tgt, "sqeuclidean")
        _, cols = linear_sum_assignment(costs)
        plan = ot_couple(lattice, tgt)
        assert plan.assignment.tolist() == cols.tolist()
        assert plan.cost.hex() == float(costs[np.arange(m), cols].mean()).hex()


def test_a_direct_ot_couple_loads_its_solvers_itself(child_env):
    # No context is prepared first: ot_couple loads scipy's two compiled
    # transport kernels itself, and neither package around them.
    rng = np.random.default_rng(5)
    src, tgt = rng.standard_normal((2, 40, 3))
    out = _fresh(
        child_env,
        "import sys, numpy as np",
        "from empbridge import ot_couple",
        LOADED,
        "print(loaded())",
        "src, tgt = np.random.default_rng(5).standard_normal((2, 40, 3))",
        "print(*ot_couple(src, tgt).assignment)",
        "print(loaded())",
    )
    assert out[0] == "-"
    assert out[-1] == ",".join(KERNELS)
    assert [int(a) for a in out[1:-1]] == ot_couple(src, tgt).assignment.tolist()


def test_pool_workers_inherit_the_solvers_from_the_parent(child_env, tmp_path):
    # The exact contexts are prepared before the pool forks, so the parent
    # loads the two kernels once and each worker finds them at its first
    # ot_couple; were they loaded only in ot_couple, it would not. No process
    # of the run imports scipy.optimize, scipy.spatial or scipy.stats.
    log = tmp_path / "calls"
    out = _fresh(
        child_env,
        "import os, sys",
        "import empbridge.coupling as c",
        "from empbridge import ExperimentConfig, run_strong_approx",
        LOADED,
        f"log = {str(log)!r}",
        "def ot_couple(source, target, inner=c.ot_couple):",
        "    before = loaded()",
        "    plan = inner(source, target)",
        "    with open(log, 'a') as f:",
        "        print(os.getpid(), before, loaded(), file=f)",
        "    return plan",
        "c.ot_couple = ot_couple",
        "print(os.getpid(), loaded())",
        "cfg = ExperimentConfig(kind='strong-approx', reps=2, workers=2,",
        "    schedule={'N_grid': [3, 4], 'm': 4, 'eval_mesh_size': 5})",
        "assert run_strong_approx(cfg).meta['failures'] == 0",
        "print(loaded())",
    )
    parent, kernels = out[0], ",".join(KERNELS)
    assert out[1:] == ["-", kernels]
    calls = [line.split() for line in log.read_text().splitlines()]
    assert calls and all(pid != parent for pid, _, _ in calls)
    assert {(before, after) for _, before, after in calls} == {(kernels, kernels)}


@pytest.mark.parametrize(
    "spec",
    [
        "method='quantile'",
        "ot_batch=8, dist=Distribution('beta', a=2.0, b=3.0)",
    ],
    ids=["quantile", "beta-exact"],
)
def test_pool_workers_inherit_scipy_special_from_the_parent(child_env, tmp_path, spec):
    # The quantile prepare step loads the tree's special functions, and a
    # beta law's CDF loads them while the grid and covariance are built, both
    # before the pool forks: every worker finds scipy.special's compiled
    # ufuncs at its first realization and none loads them. Were they loaded
    # only in the tree, each worker would. No process imports the
    # scipy.special package.
    log = tmp_path / "calls"
    out = _fresh(
        child_env,
        "import os, sys",
        "import empbridge.experiments as e",
        "from empbridge import Distribution, ExperimentConfig, run_gauss_approx",
        "def loaded():",
        "    return 'scipy.special._ufuncs' in sys.modules",
        "def package():",
        "    return 'scipy.special' in sys.modules",
        f"log = {str(log)!r}",
        "def construct_joint(*args, inner=e.construct_joint):",
        "    before = loaded()",
        "    real = inner(*args)",
        "    with open(log, 'a') as f:",
        "        print(os.getpid(), before, loaded(), package(), file=f)",
        "    return real",
        "e.construct_joint = construct_joint",
        "print(os.getpid(), loaded())",
        f"cfg = ExperimentConfig(kind='gauss-approx', n_grid=(64, 256), reps=4, workers=2, {spec})",
        "assert run_gauss_approx(cfg).meta['failures'] == 0",
        "print(loaded(), package())",
    )
    calls = [line.split() for line in log.read_text().splitlines()]
    assert len(calls) == 8 and all(pid != out[0] for pid, _, _, _ in calls)
    assert {(before, after) for _, before, after, _ in calls} == {("True", "True")}
    assert {package for _, _, _, package in calls} == {"False"}
    assert out[1:] == ["False", "True", "False"]


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
    real = construct_joint(prepare_coupling(intervals, uniform, 0.45), n=128, m=16, seed=seed)
    assert real.n == 128
    assert real.sup_grid >= 0.0
    assert real.sup_mesh >= 0.0
    assert real.transport_cost >= 0.0
    assert real.grid.size >= 2
    assert real.sup_grid == np.abs(real.y_sum - real.z_sum).max()
    assert real.points.shape == (128,)
    assert real.mesh_gauss.shape == (len(intervals.mesh),)


def test_construct_joint_json_schema(intervals, uniform, seed):
    real = construct_joint(prepare_coupling(intervals, uniform, 0.5), n=64, m=4, seed=seed)
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
    ctx = prepare_coupling(intervals, uniform, 0.5)
    a = construct_joint(ctx, 64, 8, SeedSpec(42, 1))
    b = construct_joint(ctx, 64, 8, SeedSpec(42, 1))
    c = construct_joint(ctx, 64, 8, SeedSpec(42, 2))
    assert a.sup_grid == b.sup_grid and a.sup_mesh == b.sup_mesh
    assert a.sup_grid != c.sup_grid


def test_construct_joint_tag_namespaces_draws(intervals, uniform, seed):
    ctx = prepare_coupling(intervals, uniform, 0.5)
    a = construct_joint(ctx, 64, 8, seed, tag=0)
    b = construct_joint(ctx, 64, 8, seed, tag=1)
    assert a.sup_grid != b.sup_grid


def test_construct_joint_keep_sample(intervals, uniform, seed, empirical_process):
    ctx = prepare_coupling(intervals, uniform, 0.5, eval_mesh=[0.3, 0.7])
    real = construct_joint(ctx, 64, 4, seed)
    assert real.points.shape == (64,)
    assert real.mesh_gauss.shape == (2,)
    # The reported mesh discrepancy is reproducible from the kept pieces.
    mesh_emp = empirical_process(intervals, uniform, real.points, [0.3, 0.7])
    assert real.sup_mesh == pytest.approx(np.abs(mesh_emp - real.mesh_gauss).max(), rel=1e-12)


def test_construct_joint_validation(intervals, uniform, seed):
    ctx = prepare_coupling(intervals, uniform, 0.5)
    with pytest.raises(DomainError, match="batch size"):
        construct_joint(ctx, 64, 0, seed)
    with pytest.raises(CapacityError):
        construct_joint(ctx, 8, 600, seed)
    for method in ("exact", "quantile"):
        with pytest.raises(DomainError, match="sample size"):
            construct_joint(prepare_coupling(intervals, uniform, 0.5, method=method), 0, 1, seed)


# -- cell counts of orthant classes -----------------------------------------------------

CELL_LAWS = {
    "uniform": Distribution("uniform"),
    "beta": Distribution("beta", a=2.0, b=3.0),
    "discrete": Distribution("discrete", atoms=(0.25, 0.5, 0.75), weights=(0.3, 0.5, 0.2)),
}


# The cell tests' cases: every indicator kind under every law that takes it,
# rectangles and finite classes in one, two and three dimensions, finite
# classes with constant members beside their indicators.
PLANE = Distribution("product-uniform", dim=2)
PLANE_ATOMS = Distribution(
    "discrete",
    dim=2,
    atoms=((0.2, 0.3), (0.5, 0.9), (0.8, 0.4), (0.4, 0.6)),
    weights=(0.1, 0.2, 0.3, 0.4),
)
SPACE_LAWS = {
    "uniform-3d": Distribution("product-uniform", dim=3),
    "discrete-3d": Distribution(
        "discrete",
        dim=3,
        atoms=((0.2, 0.3, 0.7), (0.5, 0.9, 0.1), (0.8, 0.4, 0.4), (0.4, 0.6, 1.0)),
        weights=(0.1, 0.2, 0.3, 0.4),
    ),
}
CELL_CASES = {
    f"{kind}-{law}": (P, form)
    for law, P in {**CELL_LAWS, "uniform-2d": PLANE, "discrete-2d": PLANE_ATOMS, **SPACE_LAWS}.items()
    for kind, form in (("intervals", "interval"), ("rectangles", "rectangle"), ("finite", "finite"))
    if P.dim == 1 or kind != "intervals"
}


def own_cell_counts(cuts, xs):
    """How many points fall in each product cell of the sorted cuts along
    each axis: along an axis with cuts c_(1) <= ... <= c_(k), cell j holds
    c_(j) < x <= c_(j+1), so a point's cell is the number of cuts below it."""
    pts = xs.reshape(len(xs), len(cuts))
    index = tuple((pts[:, [a]] > np.asarray(c)[None]).sum(axis=1) for a, c in enumerate(cuts))
    shape = tuple(len(c) + 1 for c in cuts)
    return np.bincount(np.ravel_multi_index(index, shape), minlength=math.prod(shape))


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def cell_class(P, form, xs, data):
    """A class of the form's kind and its parameters, drawn for the cell
    tests. Corner coordinates mix free values, the sample's own coordinates,
    the discrete laws' atoms and the ends 0 and 1, unsorted and with repeats.
    Interval and rectangle classes take the corners as parameters; a finite
    class takes them as interval or rectangle members beside one to three
    constants, which are not dyadic as a rule."""
    coordinate = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from(xs.ravel().tolist()),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    )
    corner = coordinate if P.dim == 1 else st.tuples(*[coordinate] * P.dim)
    centers = data.draw(st.lists(corner, max_size=16))
    if form == "interval":
        return FunctionClass("intervals"), centers
    if form == "rectangle":
        return FunctionClass("rectangles", dim=P.dim), centers
    constants = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    indicator = "interval" if P.dim == 1 else "rectangle"
    members = {(indicator, c) for c in centers} | {("constant", c) for c in constants}
    cls = FunctionClass("finite", members=tuple(sorted(members)))
    return cls, list(cls.members)


def assert_sums_match(got, want, w):
    """Bit for bit for members of weight 1; within 1e-12 relative for
    weighted constants, a count times w against n copies of w added in
    turn."""
    unit = np.ones(len(want), dtype=bool) if w is None else w == 1.0
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(bits(got[unit]), bits(want[unit]))
    assert np.allclose(got[~unit], want[~unit], rtol=1e-12, atol=1e-12)


@settings(max_examples=300, deadline=None, database=None)
@given(
    case=st.sampled_from(sorted(CELL_CASES)),
    n=st.one_of(st.integers(1, 80), st.integers(256, 4096)),
    seed=st.integers(0, 2**32 - 1),
    share=st.sampled_from([0.0, 0.2, 1.0]),
    data=st.data(),
)
def test_cell_sample_sums_equal_matrix_sums(case, n, seed, share, data):
    """A sample's sums through the cells equal the column sums of its
    evaluation matrix (``assert_sums_match``). With probability ``share`` a
    coordinate is replaced by a corner coordinate, so the point lies on a
    cut, or by -0.5, 1.5, -inf, +inf or NaN."""
    P, form = CELL_CASES[case]
    rng = np.random.default_rng(seed)
    xs = P.draw(n, rng)
    cls, params = cell_class(P, form, xs, data)
    w, t = _orthant(cls, params, P.dim)
    odd = np.concatenate([t.ravel(), [-0.5, 1.5, -np.inf, np.inf, np.nan]])
    xs = np.where(rng.random(xs.shape) < share, rng.choice(odd, xs.shape), xs)
    want = cls.evaluate_matrix(params, xs).sum(axis=0)
    assert_sums_match(orthant_cells(P, t, weights=w).sample_sums(xs), want, w)


@settings(max_examples=300, deadline=None, database=None)
@given(
    case=st.sampled_from(sorted(CELL_CASES)),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_cell_counts_give_the_column_sums(case, n, seed, data):
    """Grid sums from a sample's own cell counts equal the column sums of
    its evaluation matrix (``assert_sums_match``). In one dimension the g
    centers cut out g + 1 cells, repeats included; in more each axis is cut
    at its distinct coordinates.
    """
    P, form = CELL_CASES[case]
    xs = P.draw(n, np.random.default_rng(seed))
    cls, params = cell_class(P, form, xs, data)
    w, t = _orthant(cls, params, P.dim)
    cells = orthant_cells(P, t, weights=w)
    cuts = [np.sort(c) if P.dim == 1 else np.unique(c) for c in t.T]
    counts = own_cell_counts(cuts, xs)
    assert counts.sum() == n
    size = math.prod(len(c) + 1 for c in cuts)
    assert cells.masses.shape == (size,) and (cells.masses >= 0).all()
    assert P.dim > 1 or size == len(params) + 1
    assert math.isclose(cells.masses.sum(), 1.0, abs_tol=1e-12)
    want = cls.evaluate_matrix(params, xs).sum(axis=0)
    assert_sums_match(cells.grid_sums(counts).astype(float), want, w)
    assert_sums_match(cells.grid_sums(np.stack([counts, counts]))[1].astype(float), want, w)


@settings(max_examples=200, deadline=None, database=None)
@given(
    law=st.sampled_from(sorted(CELL_LAWS)),
    centers=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0]), min_size=1, max_size=8),
    mesh=st.lists(st.sampled_from([0.0, 0.2, 0.25, 0.5, 0.6, 0.75, 1.0]), max_size=8),
)
def test_mesh_cells_refine_the_grid_cells(law, centers, mesh):
    """The finer cells are listed left to right (``cell`` never decreases),
    their masses given their grid cell sum to 1 in every grid cell that has
    mass (to 0 in a massless one), and the cumulative masses of all finer
    cells read at ``mesh_at`` are the CDF at the mesh points, ties between
    centers and mesh points included."""
    P = CELL_LAWS[law]
    cells = orthant_cells(P, centers, mesh)
    assert cells.within.ndim == cells.cell.ndim == cells.mesh_at.ndim == 1
    assert (cells.within >= 0).all() and (np.diff(cells.cell) >= 0).all()
    per_cell = np.bincount(cells.cell, cells.within)
    assert np.allclose(per_cell, cells.masses > 0, rtol=0.0, atol=1e-12)
    assert len(per_cell) == len(centers) + 1
    cumulative = np.cumsum(cells.within * cells.masses[cells.cell])
    assert np.allclose(cumulative[cells.mesh_at], P.cdf(np.asarray(mesh, float)), rtol=0.0, atol=1e-12)


def test_refinement_holds_one_entry_per_finer_cell():
    """At the vc radius for n = 2^30, beta(0.5, 5) on a 20,000-point interval
    mesh gives 82 grid cells, the widest of which holds over 9,000 of the
    mesh's finer cells. The refinement stores each finer cell once, with no
    grid cell padded to the widest."""
    cls = FunctionClass("intervals", mesh_size=20_000)
    P = Distribution("beta", a=0.5, b=5.0)
    ctx = prepare_coupling(cls, P, select_epsilon_vc(2**30, 1.0), method="quantile")
    size = ctx.grid.size + len(ctx.eval_mesh) + 1
    assert ctx.state.within.shape == (size,)
    assert ctx.state.cell.shape == (size,) and ctx.state.mesh_at.shape == (len(ctx.eval_mesh),)


def test_no_mass_past_one():
    """The cells read the monotone CDF, which is exactly 1 from t = 1 on,
    although these weights sum to one ulp less."""
    P = Distribution("discrete", atoms=(0.2, 0.5, 1.0), weights=(0.7, 0.2, 0.1))
    for mesh in ((), (0.2, 0.7, 1.0)):
        cells = orthant_cells(P, [0.5, 1.0], mesh)
        assert cells.masses[-1] == 0.0


@pytest.mark.parametrize("method", ["exact", "quantile"])
def test_cells_of_weights_summing_above_one(intervals, seed, method):
    """Weights may sum to 1 + 5e-13; the CDF stays capped at 1, so no cell
    mass is negative and the mesh multinomial accepts every row. The exact
    state's cells carry no mesh refinement, and their masses and order are
    the quantile state's, bit for bit."""
    P = Distribution("discrete", atoms=(0.2, 0.5, 0.7), weights=(0.5, 0.25, 0.25 + 5e-13))
    mesh = (0.3, 0.75, 0.9)
    ctx = prepare_coupling(intervals, P, 0.4, eval_mesh=mesh, method=method)
    quantile = prepare_coupling(intervals, P, 0.4, eval_mesh=mesh, method="quantile").state
    cells = ctx.state[2] if method == "exact" else ctx.state
    if method == "exact":
        assert cells.mesh_at.shape == (0,) and cells.within.shape == (ctx.grid.size + 1,)
    assert cells.masses.tobytes() == quantile.masses.tobytes()
    assert cells.order.tobytes() == quantile.order.tobytes()
    assert (cells.masses >= 0).all() and (cells.within >= 0).all()
    assert np.isfinite(construct_joint(ctx, 100, 8, seed).sup_mesh)


def test_quantile_realization_is_count_only(intervals, uniform, seed):
    ctx = prepare_coupling(intervals, uniform, 0.3, eval_mesh=[0.2, 0.5], method="quantile")
    real = construct_joint(ctx, 4096, 1, seed)
    assert real.points is None and real.mesh_gauss.shape == (2,)
    assert real.sup_grid == np.abs(real.y_sum - real.z_sum).max()
    assert real.transport_cost == ((real.y_sum - real.z_sum) ** 2).sum()
    # The grid sums are counts, and every stream is its own: another tag, another pair.
    sums = real.y_sum * 64.0 + 4096 * ctx.grid_means
    assert np.allclose(sums, np.round(sums), rtol=0.0, atol=1e-9)
    again = construct_joint(ctx, 4096, 512, seed)
    assert (again.sup_grid, again.sup_mesh) == (real.sup_grid, real.sup_mesh)
    other = construct_joint(ctx, 4096, 1, seed, tag=1)
    assert other.sup_grid != real.sup_grid


@pytest.mark.parametrize("law", sorted(CELL_LAWS))
@pytest.mark.parametrize("n", [1, 7, 4096])
def test_quantile_mesh_is_pinned_at_the_grid_centers(law, n):
    """On a mesh that holds every grid center, and points between them, the
    mesh Gaussian at a center is z_sum's value there to rounding, and the
    mesh counts there are the grid counts exactly."""
    P, cls, eps = CELL_LAWS[law], FunctionClass("intervals", mesh_size=201), 0.25
    centers = list(prepare_coupling(cls, P, eps, method="quantile").grid.centers)
    mesh = sorted(centers + [0.05, 0.3, 0.55, 0.8, 1.0])
    ctx = prepare_coupling(cls, P, eps, eval_mesh=mesh, method="quantile")
    at = [mesh.index(c) for c in centers]
    for stream in range(5):
        _, y0, z0, _, mesh_sums, mesh_gauss = coupling._tree_pair(ctx, n, 1, SeedSpec(31, stream), 0)
        assert np.allclose(mesh_gauss[at], z0, rtol=0.0, atol=1e-12)
        grid_counts = np.round(y0 * math.sqrt(n) + n * ctx.grid_means)
        assert np.array_equal(mesh_sums[at], grid_counts)


def test_quantile_context_holds_no_dense_law(intervals, uniform, seed):
    """Prepared for the quantile method at the n = 2^30 radius on a
    4,000-point mesh, a context's state is its interval cells alone, with no
    factor and no conditional law, and set-up plus one realization stay far
    inside a second; the dense law needs seconds and a gigabyte there."""
    eps, mesh = select_epsilon_vc(2**30, 1.0), np.linspace(0.0, 1.0, 4000)
    start = time.perf_counter()
    ctx = prepare_coupling(intervals, uniform, eps, eval_mesh=mesh, method="quantile")
    real = construct_joint(ctx, 2**30, 1, seed)
    assert time.perf_counter() - start < 1.0
    assert type(ctx.state) is OrthantCells
    assert real.mesh_gauss.shape == (4000,) and np.isfinite(real.sup_mesh)


@pytest.mark.parametrize("master", [1, 2, 3])
def test_quantile_tree_is_exact_at_its_largest_n(uniform, master, monkeypatch):
    """At n = 2^51 the tree's binomial quantile raises no RuntimeWarning
    (an error under this suite's filter) and its counts sum to n exactly."""
    cls, n = FunctionClass("intervals", mesh_size=9), 2**51
    eps = select_epsilon_vc(n, 1.0)
    trees = []
    tree = coupling._binomial_tree

    def spy(*args):
        trees.append(tree(*args))
        return trees[-1]

    monkeypatch.setattr(coupling, "_binomial_tree", spy)
    ctx = prepare_coupling(cls, uniform, eps, method="quantile")
    real = construct_joint(ctx, n, 1, SeedSpec(master))
    counts = trees[0][0]
    assert counts.sum() == n and (counts >= 0).all() and np.array_equal(counts, np.round(counts))
    assert np.isfinite(real.sup_mesh)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("method", sorted(coupling._METHODS))
def test_quantile_method_takes_interval_classes_only(class_of_kind, method, kind):
    """Each method prepares a context for the class kinds of its row and
    refuses the others by name, as it refuses a name outside the table."""
    cls, P = class_of_kind[kind]
    kinds = coupling._METHODS[method][0]
    if kind in kinds:
        assert prepare_coupling(cls, P, 0.5, eval_mesh=cls.mesh[:9], method=method).method == method
    else:
        needle = f"the {method} method couples {', '.join(kinds)} classes only, not {kind}"
        with pytest.raises(ConfigError, match=needle):
            prepare_coupling(cls, P, 0.5, method=method)
    with pytest.raises(ConfigError, match="unknown coupling method 'sinkhorn'"):
        prepare_coupling(cls, P, 0.5, method="sinkhorn")


@pytest.mark.parametrize("method", ["exact", "quantile"])
def test_summand_check_refuses_an_envelope_lie(uniform, seed, method):
    # With M = 0.1 every point's centered summand breaks the bound
    # M sqrt(g / n), and the quantile method sees it in the occupied cells
    # alone. The regime's constants are large enough that the grid is built.
    from empbridge import EntropyRegime

    lie = FunctionClass(
        "intervals", envelope=0.1, mesh_size=201, regime=EntropyRegime("vc", c0=400.0, nu0=2.0)
    )
    ctx = prepare_coupling(lie, uniform, 0.5, method=method)
    with pytest.raises(NumericError, match="summand norm"):
        construct_joint(ctx, 64, 8, seed)


@pytest.fixture()
def transport_sources(monkeypatch):
    """The Y-sum batches (designated row first) that ``construct_joint``
    hands to ``ot_couple``, in call order."""
    batches = []
    real_ot = coupling.ot_couple

    def spy(source, target):
        batches.append(source.copy())
        return real_ot(source, target)

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
        construct_joint(ctx, n, 512, SeedSpec(97, stream))
    y = np.concatenate([source[1:] for source in transport_sources])
    assert y.shape == (8 * 511, ctx.grid.size)
    # The sums behind the Y-sums are counts: rebuilt cell counts are
    # nonnegative integers and every row sums to n.
    sums = y * math.sqrt(n) + n * ctx.grid_means
    assert np.allclose(sums, np.round(sums), atol=1e-8)
    ordered = np.round(sums[:, ctx.state[2].order])
    zeros, full = np.zeros((len(y), 1)), np.full((len(y), 1), float(n))
    counts = np.diff(np.hstack([zeros, ordered, full]), axis=1)
    assert (counts >= 0).all() and (counts.sum(axis=1) == n).all()
    assert np.abs(y.mean(axis=0)).max() < 0.04
    assert np.abs(np.cov(y, rowvar=False) - ctx.grid.gram).max() < 0.03


def test_designated_sample_keeps_its_stream(intervals, uniform, seed, empirical_process):
    real = construct_joint(prepare_coupling(intervals, uniform, 0.45), 128, 16, seed, tag=3)
    x = uniform.draw(128, seed.rng("sample", 3, 0))
    assert np.array_equal(real.points, x)
    alpha = empirical_process(intervals, uniform, x, list(real.grid.centers))
    assert np.allclose(real.y_sum, alpha, atol=1e-12)


# -- auxiliary rows in chunks ------------------------------------------------------------

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


@pytest.fixture()
def auxiliary_chunks(monkeypatch):
    """``auxiliary_chunks(ctx)`` is a list of the chunks of auxiliary rows
    that ``construct_joint`` reduces on ``ctx``: one (reduction, rows) entry
    per call of a grid sum of cell counts on its grid cells or of a Hoelder
    batch sum over its grid centers. The designated sample's mesh sums, which
    the same two reductions take on the mesh, are left out."""
    chunks = []

    def watch(ctx):
        grid_cells, centers = ctx.state[2], list(ctx.grid.centers)
        grid_sums, batch_sums = coupling.OrthantCells.grid_sums, FunctionClass.batch_column_sums

        def spy_cells(cells, counts):
            if cells is grid_cells:
                chunks.append(("grid_sums", len(counts)))
            return grid_sums(cells, counts)

        def spy_batch(cls, params, batch):
            if list(params) == centers:
                chunks.append(("batch_column_sums", len(batch)))
            return batch_sums(cls, params, batch)

        monkeypatch.setattr(coupling.OrthantCells, "grid_sums", spy_cells)
        monkeypatch.setattr(FunctionClass, "batch_column_sums", spy_batch)
        return chunks

    return watch


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_auxiliary_sums_do_not_depend_on_the_chunk_size(
    monkeypatch, transport_sources, auxiliary_chunks, case
):
    """The auxiliary rows (Hoelder samples, or cell counts of every other
    class) are consecutive rows of one generator, so drawing and reducing
    them all at once, in chunks of 3 Hoelder rows (the last one short) and
    of 121 // (cell count) count rows, or one row at a time gives the same
    bits, and so the same realization. One row at a time takes m - 1 chunks."""
    cls, P, eps = CHUNK_CASES[case]
    n, m = 40, 12
    ctx = prepare_coupling(cls, P, eps)
    assert ctx.grid.size >= 2
    chunks = auxiliary_chunks(ctx)
    reals, calls = [], []
    for chunk in (coupling.AUX_CHUNK_POINTS, 3 * n + 1, 1):
        monkeypatch.setattr(coupling, "AUX_CHUNK_POINTS", chunk)
        reals.append(construct_joint(ctx, n, m, SeedSpec(5, 2)))
        calls.append(len(chunks))
        chunks.clear()
    assert calls[0] == 1 and calls[2] == m - 1
    first = bits(transport_sources[0])
    assert all(np.array_equal(bits(source), first) for source in transport_sources[1:])
    for real in reals[1:]:
        assert (real.sup_grid, real.sup_mesh, real.transport_cost) == (
            reals[0].sup_grid,
            reals[0].sup_mesh,
            reals[0].transport_cost,
        )


@pytest.mark.parametrize("case", ["rectangles", "finite"])
def test_indicator_classes_draw_only_the_designated_sample(monkeypatch, auxiliary_chunks, case):
    """An exact realization of a rectangles or finite class draws points once,
    for the designated sample, and reduces no Hoelder batch: its m - 1
    auxiliary rows are cell counts."""
    cls, P, eps = CHUNK_CASES[case]
    ctx = prepare_coupling(cls, P, eps)
    chunks = auxiliary_chunks(ctx)
    draws, draw = [], Distribution.draw

    def spy(self, n, rng):
        draws.append(n)
        return draw(self, n, rng)

    monkeypatch.setattr(Distribution, "draw", spy)
    real = construct_joint(ctx, 40, 12, SeedSpec(5, 2))
    assert draws == [40]
    assert np.array_equal(real.points, draw(P, 40, SeedSpec(5, 2).rng("sample", 0, 0)))
    assert chunks == [("grid_sums", 11)]
    assert type(ctx.state[2]) is OrthantCells


CELL_METHODS = [(kind, method) for method, row in sorted(coupling._METHODS.items()) for kind in row[0]]


@pytest.mark.parametrize("kind, method", CELL_METHODS)
def test_construct_joint_builds_no_cells(monkeypatch, class_of_kind, kind, method):
    """Cells are built by the prepare step, once per radius: the exact
    method's grid and mesh cells (none for Hoelder), the quantile method's
    refined grid cells. A realization builds none."""
    cls, P = class_of_kind[kind]
    built, init = [], OrthantCells.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OrthantCells, "__init__", spy)
    ctx = prepare_coupling(cls, P, 0.5, eval_mesh=cls.mesh[:9], method=method)
    assert len(built) == (0 if kind == "holder" else 2 if method == "exact" else 1)
    built.clear()
    construct_joint(ctx, 64, 8, SeedSpec(5, 2))
    assert built == []


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
        construct_joint(ctx, n, 512, SeedSpec(613, stream))
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
