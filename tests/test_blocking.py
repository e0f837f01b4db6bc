"""Block schedules, their diagnostics, and the sequential path construction."""

import itertools
import math
import tracemalloc
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from empbridge import (
    BlockingSchedule,
    CapacityError,
    ConfigError,
    Distribution,
    DomainError,
    EntropyRegime,
    FunctionClass,
    ScheduleInvalidError,
    SeedSpec,
    block_contexts,
    br_growth_ratio,
    br_sandwich_ratio,
    ms_bound,
    path_envelope,
    rate_vc,
    run_sequential,
    s_of_N,
    schedule_br,
    schedule_vc,
)
import empbridge.blocking as blocking
import empbridge.coupling as coupling
import empbridge.function_classes as function_classes
from empbridge.blocking import _floor_power
from empbridge.bridge import covariance, factorize
from empbridge.coupling import construct_joint, prepare_coupling, select_epsilon
from empbridge.function_classes import KINDS, mean_vector

TAU1, TAU2 = rate_vc(1)


def test_polynomial_schedule_hand_values():
    # alpha = 5: blocks 1, 1, 32, 243 so t_3 = 1 + 1 + 32 = 34.
    sched = schedule_vc(5, TAU1, TAU2, 3)
    assert sched.n == (1, 1, 32, 243)
    assert sched.t_of(3) == 34
    assert sched.total == 277
    assert sched.cum == (0, 1, 2, 34, 277)


def test_exponential_schedule_hand_values():
    # kappa = 1/6: t_k = floor(exp(k^{5/6})) = 2, 5, 12 for k = 1, 2, 3.
    sched = schedule_br(Fraction(1, 6), 3)
    assert [sched.t_of(k) for k in (1, 2, 3)] == [2, 5, 12]
    assert sched.n == (1, 1, 3, 7)
    assert sched.total == 12


def test_cumulative_reconstruction_is_exact():
    for sched in (schedule_vc(5, TAU1, TAU2, 12), schedule_br(Fraction(1, 6), 12)):
        run = 0
        for k, size in enumerate(sched.n):
            assert sched.cum[k] == run
            run += size
        assert sched.total == run == sched.cum[-1]


def test_alpha_gate_enforced_exactly():
    # tau1 = 1/7 admits exactly 7/2 < alpha < 7.
    with pytest.raises(ScheduleInvalidError):
        schedule_vc(2, TAU1, TAU2, 4)
    with pytest.raises(ScheduleInvalidError):
        schedule_vc(7, TAU1, TAU2, 4)
    with pytest.raises(ScheduleInvalidError):
        schedule_vc(Fraction(7, 2), TAU1, TAU2, 4)
    schedule_vc(Fraction(9, 2), TAU1, TAU2, 4)


def test_beta_defaults_and_window():
    # beta, the exponent of s_of_N's window floor(N^beta) .. N, is fixed by the regime.
    assert schedule_vc(5, TAU1, TAU2, 4).beta == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert schedule_br(Fraction(1, 6), 4).beta == 0.7
    with pytest.raises(DomainError):
        schedule_vc(5, TAU1, TAU2, 1)


def test_floor_power_is_exact_for_rationals():
    # Spot-check against integer arithmetic: floor(k^{5/2}) = isqrt(k^5).
    for k in (1, 2, 3, 10, 97, 1024):
        assert _floor_power(k, Fraction(5, 2)) == math.isqrt(k**5)
        assert _floor_power(k, Fraction(3)) == k**3
    # A case where float powers round the wrong way: 8^(1/3) near 2.
    assert _floor_power(8, Fraction(1, 3)) == 2


@settings(max_examples=200, deadline=None, database=None)
@given(k=st.integers(1, 30), alpha=st.builds(Fraction, st.integers(1, 9), st.integers(3, 6)))
def test_floor_power_matches_integer_brute_force(k, alpha):
    # alpha <= 3 keeps the linear search below 30^3 steps.
    brute = next(r for r in itertools.count() if (r + 1) ** alpha.denominator > k**alpha.numerator)
    assert _floor_power(k, alpha) == brute


# tau1 alpha around its gate (1/2, 1) and kappa around its window (0, 1/2),
# endpoints included, so that both valid and rejected schedules are drawn.
GATE_FRACTIONS = st.builds(Fraction, st.integers(6, 18), st.just(16))
KAPPAS = st.builds(Fraction, st.integers(-1, 21), st.just(40))
NU0S = st.sampled_from([1, 2, Fraction(1, 2)])


def assert_cumulative_identity(sched):
    assert sched.cum == tuple(itertools.accumulate(sched.n, initial=0))
    assert sched.cum[-1] == sum(sched.n) == sched.total


@settings(max_examples=200, deadline=None, database=None)
@given(f=GATE_FRACTIONS, nu0=NU0S, N=st.integers(0, 10))
def test_polynomial_schedule_cumulative_identity(f, nu0, N):
    tau1, tau2 = rate_vc(nu0)
    alpha = f / tau1
    try:
        sched = schedule_vc(alpha, tau1, tau2, N)
    except (ScheduleInvalidError, DomainError):
        return
    assert_cumulative_identity(sched)


@settings(max_examples=200, deadline=None, database=None)
@given(kappa=KAPPAS, N=st.integers(0, 60))
def test_exponential_schedule_cumulative_identity(kappa, N):
    try:
        sched = schedule_br(kappa, N)
    except (ScheduleInvalidError, DomainError):
        return
    assert_cumulative_identity(sched)


def test_exponential_schedule_guards():
    with pytest.raises(DomainError):
        schedule_br(Fraction(2, 3), 4)
    with pytest.raises(DomainError):
        schedule_br(Fraction(1, 6), 1)
    with pytest.raises(CapacityError):
        schedule_br(Fraction(1, 6), 3000)
    sched = schedule_br(Fraction(1, 6), 8)
    assert sched.n[0] == 1  # unit starter block
    assert min(sched.n) >= 1


def test_block_sum_matches_direct_computation():
    sched = schedule_vc(5, TAU1, TAU2, 30)
    lo = int(math.floor(12**sched.beta))
    want = sum(
        sched.n[k] ** (0.5 - float(TAU1)) * math.log(sched.n[k]) ** float(TAU2)
        for k in range(lo, 13)
        if sched.n[k] > 1
    )
    assert s_of_N(sched, 12) == pytest.approx(want, rel=1e-12)
    assert s_of_N(sched) == s_of_N(sched, 30)
    with pytest.raises(DomainError):
        s_of_N(sched, 31)


def test_exponential_sandwich_window():
    # s(N) / (sqrt(t_N) / N^theta) stays inside fixed constants over a wide
    # window; live values on N in [20, 200] sit in [2.181, 2.225].
    sched = schedule_br(Fraction(1, 6), 200)
    ratios = [br_sandwich_ratio(sched, N) for N in range(20, 201)]
    assert min(ratios) > 2.0
    assert max(ratios) < 2.4


def test_exponential_growth_window():
    # s(N) / sqrt(n_N) grows at least like N^{kappa^2}; the normalized ratio
    # stays inside [2.62, 2.73] on N in [20, 200].
    sched = schedule_br(Fraction(1, 6), 200)
    kappa2 = float(Fraction(1, 6)) ** 2
    normalized = [br_growth_ratio(sched, N) / N**kappa2 for N in range(20, 201)]
    assert min(normalized) > 2.4
    assert max(normalized) < 2.9
    raw = [br_growth_ratio(sched, N) for N in (20, 80, 200)]
    assert raw[0] < raw[1] < raw[2]


def test_polynomial_block_sum_tracks_envelope():
    # s(N) / (t_N^{1/2 - tau(alpha)} (log t_N)^{tau2}) is nearly constant:
    # within [0.5, 0.9] and drifting by under 10% across N in [20, 200].
    ratios = []
    for N in range(20, 201):
        sched = schedule_vc(5, TAU1, TAU2, N)
        ratios.append(s_of_N(sched) / path_envelope(sched))
    assert 0.5 < min(ratios) <= max(ratios) < 0.9
    assert max(ratios) / min(ratios) < 1.1


def test_diagnostics_require_matching_regime():
    sched = schedule_vc(5, TAU1, TAU2, 10)
    with pytest.raises(DomainError):
        br_sandwich_ratio(sched, 5)
    with pytest.raises(DomainError):
        br_growth_ratio(sched, 5)


def test_ms_bound_transfer():
    tail = lambda t: math.exp(-t)
    assert ms_bound(tail, 90.0) == pytest.approx(9.0 * math.exp(-3.0), rel=1e-12)
    assert ms_bound(tail, 0.001) == 1.0  # clamped
    with pytest.raises(DomainError):
        ms_bound(tail, 0.0)
    with pytest.raises(DomainError):
        ms_bound(lambda t: 2.0, 1.0)


def test_schedule_rejects_an_empty_block():
    # Hand-built, with block 1 empty; neither regime's formula makes one.
    with pytest.raises(ScheduleInvalidError, match="at least one sample"):
        BlockingSchedule("vc", 0.5, (1, 0, 2, 30), {})
    with pytest.raises(ScheduleInvalidError, match="at least one block"):
        BlockingSchedule("vc", 0.5, (), {})


def contexts_of(cls, P, *schedules):
    """Each schedule's block contexts under the class's own regime, on nine
    evenly spread mesh points."""
    mesh = tuple(cls.mesh)
    return block_contexts(cls, P, schedules, cls.regime, mesh[len(mesh) // 18 :: len(mesh) // 9])


def test_block_contexts_prepare_each_radius_once(intervals, uniform, monkeypatch):
    import empbridge.blocking as blocking

    prepared = []

    def counted(cls, P, epsilon, **kw):
        prepared.append(epsilon)
        return prepare_coupling(cls, P, epsilon, **kw)

    monkeypatch.setattr(blocking, "prepare_coupling", counted)
    schedules = (
        schedule_br(Fraction(1, 6), 6),
        schedule_br(Fraction(1, 6), 8),
        schedule_vc(5, TAU1, TAU2, 3),
    )
    contexts = contexts_of(intervals, uniform, *schedules)
    assert len(prepared) == len(set(prepared)) >= 2
    for sched, blocks in zip(schedules, contexts):
        assert len(blocks) == sched.N + 1
        for n_k, ctx in zip(sched.n, blocks):
            assert ctx.grid.epsilon == select_epsilon(intervals.regime, max(n_k, 3))
            assert len(ctx.eval_mesh) == 9
    # The longer schedule reuses the shorter one's contexts block for block.
    assert all(a is b for a, b in zip(contexts[0], contexts[1]))


def test_sequential_construction_smoke(intervals, uniform):
    sched = schedule_vc(5, TAU1, TAU2, 4)
    seed = SeedSpec(314, 0)
    (contexts,) = contexts_of(intervals, uniform, sched)
    disc = run_sequential(sched, contexts, seed, m=8)
    assert disc.regime == "vc"
    assert disc.N == 4
    assert disc.t_N == sched.total
    assert 1 <= disc.m_star <= sched.total
    assert disc.max_discrepancy > 0
    assert disc.normalized == pytest.approx(
        disc.max_discrepancy / math.sqrt(sched.total), rel=1e-12
    )
    assert len(disc.block_running) == sum(1 for size in sched.n if size >= 1)
    assert disc.block_running[-1] == disc.max_discrepancy
    assert all(
        a <= b + 1e-12 for a, b in zip(disc.block_running, disc.block_running[1:])
    )


def test_sequential_construction_is_deterministic(intervals, uniform):
    sched = schedule_br(Fraction(1, 6), 5)
    (contexts,) = contexts_of(intervals, uniform, sched)
    a = run_sequential(sched, contexts, SeedSpec(27, 0), m=6)
    b = run_sequential(sched, contexts, SeedSpec(27, 0), m=6)
    assert a.max_discrepancy == b.max_discrepancy
    assert a.block_running == b.block_running


def test_sequential_tag_offset_decouples_runs(intervals, uniform):
    sched = schedule_br(Fraction(1, 6), 5)
    seed = SeedSpec(27, 0)
    (contexts,) = contexts_of(intervals, uniform, sched)
    a = run_sequential(sched, contexts, seed, m=6)
    b = run_sequential(sched, contexts, seed, m=6, tag_offset=10_000)
    assert a.max_discrepancy != b.max_discrepancy


def _reference_fill(cls, P, schedule, seed, m, eval_mesh, selector):
    """run_sequential's per-block loop as two partial sums, empirical and
    Gaussian, whose difference is the gap.

    Kept verbatim as the reference that the difference walk must match to
    rounding. Also returns the signed gap emp_prefix - gauss_prefix at each
    block end.
    """
    k_eval = covariance(cls, P, list(eval_mesh))
    l_eval = factorize(k_eval).L
    mesh_means = mean_vector(cls, P, list(eval_mesh))
    contexts = {}
    emp_prefix = np.zeros(len(eval_mesh))
    gauss_prefix = np.zeros(len(eval_mesh))
    per_block = []
    ends = []
    block_running = []
    best = 0.0
    m_star = 0
    done = 0
    tag_offset = 0
    for k in range(schedule.N + 1):
        n_k = schedule.n[k]
        if n_k < 1:
            continue
        eps = select_epsilon(selector, max(n_k, 3))
        ctx = contexts.get(eps)
        if ctx is None:
            ctx = prepare_coupling(cls, P, eps, eval_mesh=eval_mesh)
            contexts[eps] = ctx
        real = construct_joint(ctx, n_k, m, seed, tag=tag_offset + k)
        per_block.append(real.sup_grid)
        root = math.sqrt(n_k)
        gauss_total = root * real.mesh_gauss
        vals = cls.evaluate_matrix(list(eval_mesh), real.points)
        emp_partials = np.cumsum(vals - mesh_means[None, :], axis=0)
        steps = seed.rng("fill", tag_offset + k).standard_normal((n_k, len(eval_mesh))) @ l_eval.T
        walk = np.cumsum(steps, axis=0)
        frac = (np.arange(1, n_k + 1) / n_k)[:, None]
        gauss_partials = walk - frac * walk[-1] + frac * gauss_total[None, :]
        gaps = np.abs(
            (emp_prefix[None, :] + emp_partials)
            - (gauss_prefix[None, :] + gauss_partials)
        ).max(axis=1)
        k_best = int(np.argmax(gaps))
        if gaps[k_best] > best:
            best = float(gaps[k_best])
            m_star = done + k_best + 1
        emp_prefix = emp_prefix + emp_partials[-1]
        gauss_prefix = gauss_prefix + gauss_total
        ends.append(emp_prefix - gauss_prefix)
        done += n_k
        block_running.append(best)
    return best, m_star, tuple(per_block), tuple(block_running), ends


FILL_LAWS = {
    "uniform": Distribution("uniform"),
    "beta": Distribution("beta", a=2.0, b=3.0),
    "discrete": Distribution("discrete", atoms=(0.1, 0.35, 0.6, 0.9), weights=(0.2, 0.3, 0.4, 0.1)),
}
FILL_CLASSES = {
    "intervals": FunctionClass("intervals", envelope=1.0, mesh_size=101),
    "holder": FunctionClass("holder", mesh_size=16),
}


def fill_case(kind, law, regime, N, mesh_size, master):
    """A class, law, schedule, block contexts and seed for one fill case."""
    cls, P = FILL_CLASSES[kind], FILL_LAWS[law]
    if regime == "vc":
        sched, selector = schedule_vc(5, TAU1, TAU2, N), EntropyRegime("vc", c0=1.0, nu0=1.0)
    else:
        sched, selector = schedule_br(Fraction(1, 6), N + 2), EntropyRegime("br", b0=0.2, r0=0.75)
    mesh = list(cls.mesh)
    eval_mesh = tuple(mesh[i] for i in np.linspace(0, len(mesh) - 1, mesh_size).astype(int))
    (contexts,) = block_contexts(cls, P, [sched], selector, eval_mesh)
    return cls, P, sched, selector, eval_mesh, contexts, SeedSpec(master, 0)


FILL_CASES = dict(
    kind=st.sampled_from(sorted(FILL_CLASSES)),
    law=st.sampled_from(sorted(FILL_LAWS)),
    regime=st.sampled_from(["vc", "br"]),
    N=st.integers(2, 4),
    mesh_size=st.integers(1, 12),
    master=st.integers(0, 2**32 - 1),
)


def within_rounding(got, want):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


# The fill tests skip shrinking and the example database: each shrink
# candidate reruns run_sequential and the reference loop, so a broken fill
# shrank for minutes before it was reported. Generation is unchanged, and a
# failure reports the first failing example found.
NO_SHRINK = dict(deadline=None, database=None, phases=[Phase.explicit, Phase.generate])


@settings(max_examples=30, **NO_SHRINK)
@given(**FILL_CASES)
def test_difference_walk_matches_the_two_walk_reference(kind, law, regime, N, mesh_size, master):
    cls, P, sched, selector, eval_mesh, contexts, seed = fill_case(
        kind, law, regime, N, mesh_size, master
    )
    got = run_sequential(sched, contexts, seed, m=4)
    best, m_star, _, block_running, _ = _reference_fill(cls, P, sched, seed, 4, eval_mesh, selector)
    assert got.m_star == m_star
    assert within_rounding(got.max_discrepancy, best)
    assert len(got.block_running) == len(block_running)
    assert all(within_rounding(a, b) for a, b in zip(got.block_running, block_running))


@settings(max_examples=20, **NO_SHRINK)
@given(**FILL_CASES)
def test_carried_gap_is_the_reference_prefix_difference(kind, law, regime, N, mesh_size, master):
    import empbridge.blocking as blocking

    cls, P, sched, selector, eval_mesh, contexts, seed = fill_case(
        kind, law, regime, N, mesh_size, master
    )
    carried = []
    gap_walk = blocking._gap_walk

    def recorded(*args):
        walk = gap_walk(*args)
        carried.append(walk[:, -1].copy())
        return walk

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocking, "_gap_walk", recorded)
        run_sequential(sched, contexts, seed, m=4)
    ends = _reference_fill(cls, P, sched, seed, 4, eval_mesh, selector)[4]
    assert len(carried) == len(ends) == sched.N + 1
    for got, want in zip(carried, ends):
        assert all(within_rounding(a, b) for a, b in zip(got, want))


def test_each_block_draws_one_fill_generator(intervals, uniform, monkeypatch):
    sched = schedule_vc(5, TAU1, TAU2, 3)
    (contexts,) = contexts_of(intervals, uniform, sched)
    opened = []  # [tag, normals drawn] per fill generator, in the order opened
    rng = SeedSpec.rng

    class Recorded:
        def __init__(self, gen, tag):
            self.gen, self.record = gen, [tag, 0]
            opened.append(self.record)

        def standard_normal(self, size=None, out=None):
            drawn = self.gen.standard_normal(size, out=out)
            self.record[1] += np.size(drawn)
            return drawn

    def spy(self, phase="generic", *indices):
        gen = rng(self, phase, *indices)
        return Recorded(gen, indices) if phase == "fill" else gen

    monkeypatch.setattr(SeedSpec, "rng", spy)
    run_sequential(sched, contexts, SeedSpec(5, 0), m=4, tag_offset=7)
    assert opened == [[(7 + k,), n_k * 9] for k, n_k in enumerate(sched.n)]


DEFAULT_ROW_BLOCK = function_classes.ROW_BLOCK


def path_bits(sched, contexts, rows, monkeypatch) -> str:
    """Every field of one path run in row blocks of ``rows`` points, as a repr
    that tells any two floats with different bits apart."""
    monkeypatch.setattr(function_classes, "ROW_BLOCK", rows)
    return repr(astuple(run_sequential(sched, contexts, SeedSpec(11, 0), m=4)))


@pytest.mark.parametrize("rows", [1, 7, DEFAULT_ROW_BLOCK])
@pytest.mark.parametrize("kind", KINDS)
def test_paths_do_not_depend_on_the_row_block(class_of_kind, kind, rows, monkeypatch):
    # The fill, the mesh values and the walk run one row block at a time; a
    # row block as large as the path makes every block one row block, the
    # unblocked computation. The largest block, 16,807 points, spans four
    # default row blocks and ends off a multiple of 8. On nine mesh points or
    # fewer the fill's BLAS product rounds a column alike at every width of
    # two or more (see ``test_fill_is_the_whole_block_product`` for wider
    # meshes).
    cls, P = class_of_kind[kind]
    sched = schedule_vc(5, TAU1, TAU2, 7)
    mesh = tuple(cls.mesh)  # nine spread points, or every point of a smaller mesh
    (contexts,) = block_contexts(cls, P, [sched], cls.regime, mesh[:: max(1, len(mesh) // 9)][:9])
    whole = path_bits(sched, contexts, sched.total, monkeypatch)
    assert path_bits(sched, contexts, rows, monkeypatch) == whole


@pytest.mark.parametrize("law", sorted(FILL_LAWS))
@pytest.mark.parametrize("kind", sorted(FILL_CLASSES))
def test_fill_case_paths_do_not_depend_on_the_row_block(kind, law, monkeypatch):
    # Nine mesh points, for the reason given in the test above.
    for regime, N in (("vc", 4), ("br", 4)):
        _, _, sched, _, _, contexts, _ = fill_case(kind, law, regime, N, 9, 0)
        whole = path_bits(sched, contexts, sched.total, monkeypatch)
        for rows in (1, 7, DEFAULT_ROW_BLOCK):
            assert path_bits(sched, contexts, rows, monkeypatch) == whole


@pytest.mark.parametrize("g", [9, 12, 40])
def test_fill_is_the_whole_block_product(g):
    # A BLAS product may round a column by a kernel that depends on the width
    # of the call: one column is a matrix-vector product, and OpenBLAS takes
    # the last (width mod 8) columns of a wide call by another kernel once
    # the mesh has 12 or more points. Default row blocks start at multiples
    # of 8 and the last one, at least a row block wide, ends the block, so
    # every column keeps the bits of the whole block's product, also in
    # blocks that end a few points past a row block.
    rng = np.random.default_rng(g)
    l_eval = np.tril(rng.standard_normal((g, g)))
    R = DEFAULT_ROW_BLOCK
    for n in (1, 2, 7, R - 1, R, 2 * R + 1, 3 * R + 100, 4 * R + 423, 8 * R + 7):
        want = l_eval @ np.random.default_rng(n).standard_normal((n, g)).T
        got = blocking._fill(l_eval, np.random.default_rng(n), n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


def test_a_path_holds_one_step_array_at_a_time(intervals, uniform):
    # The largest block, 32,768 points on a nine-point mesh, has a (9, 32768)
    # float step array. The fill's normals and the mesh values take row
    # blocks, the summand check squares its matrix in place, and the previous
    # block's walk is gone before the next block is coupled, so the traced
    # peak of a whole path stays within 1.6 such arrays (a full-size normal
    # draw next to the step array reaches 2.1).
    sched = schedule_vc(5, TAU1, TAU2, 8)
    (contexts,) = contexts_of(intervals, uniform, sched)
    g, n_max = len(contexts[0].eval_mesh), max(sched.n)
    assert (g, n_max) == (9, 32768)
    run_sequential(sched, contexts, SeedSpec(5, 0), m=8)  # first-use loads and caches
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run_sequential(sched, contexts, SeedSpec(5, 0), m=8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1.6 * 8 * g * n_max


class BlockStarted(Exception):
    """Raised in place of a block's coupling."""


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("method", sorted(coupling._METHODS))
def test_run_sequential_refuses_the_quantile_method(class_of_kind, method, kind, monkeypatch):
    # A path fills in between the designated points, which the count-only
    # quantile method never draws. A block context whose method carries no
    # points, or does not couple its class, is refused before any block runs;
    # any other passes and block 0 starts.
    cls, P = class_of_kind[kind]
    kinds, _, _, points = coupling._METHODS[method]
    exact = prepare_coupling(cls, P, 0.5, eval_mesh=cls.mesh[:9])
    if kind in kinds:
        ctx = prepare_coupling(cls, P, 0.5, eval_mesh=cls.mesh[:9], method=method)
    else:
        ctx = replace(exact, method=method)
    schedule = schedule_vc(5, TAU1, TAU2, 2)

    def started(*args, **kwargs):
        raise BlockStarted

    monkeypatch.setattr(blocking, "construct_joint", started)
    if kind in kinds and points:
        with pytest.raises(BlockStarted):
            run_sequential(schedule, (exact, exact, ctx), SeedSpec(1))
        return
    refusal = "draws no sample points" if kind in kinds else f"couples .* classes only, not {kind}"
    with pytest.raises(ConfigError, match=f"the {method} method {refusal}"):
        run_sequential(schedule, (exact, exact, ctx), SeedSpec(1))
