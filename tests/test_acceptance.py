"""Acceptance gate: one test per primary criterion, one printed verdict each.

Every test prints a single line `criterion K (<label>): pass|FAIL [detail]`
before asserting, so failures carry their measurements. Monte Carlo protocols
pin master seed 20260815, their replication counts, and their documented test
grids; tolerance allowances are stated next to each assertion.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.special import erfc
from scipy.stats import binom

from empbridge.blocking import (
    br_growth_ratio,
    br_sandwich_ratio,
    ms_bound,
    schedule_br,
    schedule_vc,
)
from empbridge.bounds import BoundConstants, borell_tail, combined_tail_gaussian, error_budget
from empbridge.bridge import build_bridge, dudley_integral, dudley_integral_quadrature, sample_bridge_batch
from empbridge.coupling import construct_joint, ot_couple, prepare_coupling, select_delta_t
from empbridge.distributions import Distribution
from empbridge.errors import ScheduleInvalidError
from empbridge.experiments import config_from_dict, fit_rate, run_gauss_approx, run_strong_approx
from empbridge.function_classes import EntropyRegime, FunctionClass, covering_certificate, dP_matrix
from empbridge.sampling import build_pairset, mu_n_estimate
from empbridge.seeds import SeedSpec

MASTER = 20260815
GRID = (0.25, 0.5, 0.75)
K_EXACT = np.array(
    [
        [0.1875, 0.1250, 0.0625],
        [0.1250, 0.2500, 0.1250],
        [0.0625, 0.1250, 0.1875],
    ]
)


def verdict(number, label, ok, detail):
    status = "pass" if ok else "FAIL"
    line = f"criterion {number} ({label}): {status} [{detail}]"
    print(line)
    assert ok, line


def interval_class(mesh_size=201):
    return FunctionClass("intervals", envelope=1.0, mesh_size=mesh_size)


def test_criterion_1_exact_rate_fractions(child_env):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "empbridge.cli", "rates"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    elapsed = time.perf_counter() - start
    expected = [
        "tau1 = 1/7",
        "tau2 = 9/14",
        "tau(alpha) = 1/28",
        "kappa = 1/6",
        "theta = 1/18",
        "tau = 1/15",
    ]
    ok = proc.returncode == 0 and proc.stdout.strip().split("\n") == expected and elapsed < 1.0
    verdict(1, "exact rate fractions", ok, f"elapsed {elapsed:.2f} s, rc {proc.returncode}")


def test_criterion_2_bridge_covariance_fidelity():
    start = time.perf_counter()
    model = build_bridge(interval_class(), Distribution("uniform"), GRID)
    draws = sample_bridge_batch(model, SeedSpec(MASTER, 2), 100_000)
    emp = draws.T @ draws / draws.shape[0]
    deviation = float(np.abs(emp - K_EXACT).max())
    elapsed = time.perf_counter() - start
    ok = draws.shape == (100_000, 3) and deviation <= 0.02 and elapsed < 30.0
    verdict(
        2,
        "bridge covariance fidelity",
        ok,
        f"max entrywise deviation {deviation:.4f} at 1e5 draws, elapsed {elapsed:.1f} s",
    )


def test_criterion_3_inequality_validity():
    R = 100_000
    model = build_bridge(interval_class(), Distribution("uniform"), GRID)
    violations = []
    margins = []

    # Supremum concentration about the mean: centering estimated on one half
    # of the draws, exceedances counted on the holdout half.
    sups = np.abs(sample_bridge_batch(model, SeedSpec(MASTER, 31), R)).max(axis=1)
    mean_hat = float(sups[: R // 2].mean())
    hold = sups[R // 2 :]
    for t in (0.5, 1.0, 1.5, 2.0):
        p = float((hold > mean_hat + t).mean())
        se = math.sqrt(p * (1.0 - p) / hold.size)
        bound = borell_tail(t, 0.5)
        margins.append(p / bound if bound > 0 else 0.0)
        if p - 3.0 * se > bound:
            violations.append(f"concentration t={t}: p={p:.5f} > {bound:.5f}")

    # Maximal-inequality transfer, constants (9, 30), signed sums of length 32.
    # The exact full-sum tail feeds the transfer; at this scale the bound
    # clamps at 1 on the whole feasible grid and must simply never be beaten.
    signs = SeedSpec(MASTER, 32).rng("rademacher").integers(0, 2, size=(R, 32)) * 2 - 1
    max_abs = np.abs(signs.cumsum(axis=1)).max(axis=1)

    def full_sum_tail(u):
        return min(1.0, 2.0 * float(binom.sf((u + 32.0) / 2.0, 32, 0.5)))

    for t in (4.0, 8.0, 16.0, 24.0, 31.0):
        p = float((max_abs > t).mean())
        se = math.sqrt(p * (1.0 - p) / R)
        bound = ms_bound(full_sum_tail, t)
        margins.append(p / bound)
        if p - 3.0 * se > bound:
            violations.append(f"transfer t={t}: p={p:.5f} > {bound:.5f}")

    # Max partial sum of 30 independent Gaussian fields on the grid: threshold
    # sqrt(30)(B + t) with B the mean supremum (estimated on the independent
    # concentration draws), variance proxy 0.25 exact.
    B_hat = float(sups.mean())
    rng = SeedSpec(MASTER, 33).rng("gauss")
    max_path = np.empty(R)
    chunk = 25_000
    for lo in range(0, R, chunk):
        z = rng.standard_normal((chunk, 30, 3)) @ model.L.T
        max_path[lo : lo + chunk] = np.abs(z.cumsum(axis=1)).max(axis=(1, 2))
    for t in (1.5, 2.0, 2.5, 3.0):
        report = combined_tail_gaussian(t, 30, B_hat, 0.25)
        p = float((max_path > report.threshold).mean())
        se = math.sqrt(p * (1.0 - p) / R)
        margins.append(p / report.rhs if report.rhs > 0 else 0.0)
        if p - 3.0 * se > report.rhs:
            violations.append(f"partial-sum t={t}: p={p:.5f} > {report.rhs:.5f}")

    ok = not violations
    verdict(
        3,
        "explicit-constant inequality validity",
        ok,
        f"13 grid points, worst p/bound {max(margins):.3f}, violations {violations or 'none'}",
    )


def test_criterion_4_vc_coupling_decay():
    # Radius select_epsilon_vc with nu0 = 1; transport batches grow with n up
    # to the exact-assignment capacity so coupling fidelity is the best the
    # construction offers at every n.
    start = time.perf_counter()
    cfg = config_from_dict(
        {
            "kind": "gauss-approx",
            "n_grid": [256, 1024, 4096, 16384],
            "reps": 200,
            "ot_batch": [64, 128, 256, 512],
            "workers": 4,
            "seed": MASTER,
            "selection": {"type": "vc", "c0": 1.0, "nu0": 1.0},
        }
    )
    table = run_gauss_approx(cfg)
    elapsed = time.perf_counter() - start
    ns = np.array(table.column("n"))
    sup = np.array(table.column("sup_grid"))
    medians = {int(n): float(np.median(sup[ns == n])) for n in cfg.n_grid}
    fit = fit_rate(table, "power")
    ok = fit.slope <= -0.07 and table.meta["failures"] == 0 and elapsed < 600.0
    verdict(
        4,
        "vc coupling decay",
        ok,
        f"slope {fit.slope:.3f} (need <= -0.07), medians {medians}, elapsed {elapsed:.0f} s",
    )


def test_criterion_5_error_budget_dominance():
    cls = interval_class()
    P = Distribution("uniform")
    epsilon = 0.36
    regime = EntropyRegime("vc", c0=4.0, nu0=1.0)
    constants = BoundConstants()
    delta, t0 = select_delta_t(epsilon, "vc", 1.0, 1.0)
    ctx = prepare_coupling(cls, P, epsilon, None)
    reps = 300
    sups = {}
    for n in (100, 1000, 10_000):
        sups[n] = np.array(
            [
                construct_joint(ctx, n, 128, SeedSpec(MASTER, 500 + rep), tag=n).sup_grid
                for rep in range(reps)
            ]
        )
    fitted = {}
    for n in sups:
        report = error_budget(epsilon, delta, t0, n, 1.0, regime, constants)
        assert report.preconditions_ok
        fitted[n] = float(np.quantile(sups[n], 0.9)) / report.threshold
    stability = max(fitted.values()) / min(fitted.values())
    c_hat = max(fitted.values())
    failures = []
    for n in sups:
        for mult in (1.0, 1.5, 2.0):
            report = error_budget(epsilon, delta, t0 * mult, n, 1.0, regime, constants)
            p = float((sups[n] > c_hat * report.threshold).mean())
            se = math.sqrt(max(p * (1.0 - p), 1e-12) / reps)
            if p - 3.0 * se > min(1.0, report.rhs):
                failures.append(f"n={n} t={t0 * mult:.3f}: p={p:.4f}")
    ok = stability <= 3.0 and not failures
    verdict(
        5,
        "error-budget dominance",
        ok,
        f"fitted constants {dict((n, round(c, 4)) for n, c in fitted.items())}, "
        f"stability {stability:.3f} (need <= 3), dominance failures {failures or 'none'}",
    )


def _brute_force_cover_size(ball):
    m = ball.shape[0]
    masks = [int(sum(1 << j for j in range(m) if ball[i, j])) for i in range(m)]
    target = (1 << m) - 1
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(m), size):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if acc == target:
                return size
    raise AssertionError("mesh cannot cover itself")


def test_criterion_6_oracle_equivalences():
    P = Distribution("uniform")
    details = []

    cls24 = interval_class(mesh_size=24)
    d = dP_matrix(cls24, P, list(cls24.mesh))
    for eps in (0.55, 0.45, 0.35):
        cert = covering_certificate(cls24, P, eps)
        brute = _brute_force_cover_size(d < eps)
        assert cert.exact and cert.lower == cert.upper == brute, (eps, cert, brute)
    details.append("set cover exact on 24-point mesh")

    rng = np.random.default_rng(MASTER)
    y = rng.normal(size=(64, 1))
    z = rng.normal(size=(64, 1))
    plan = ot_couple(y, z)
    sorted_cost = float(((np.sort(y[:, 0]) - np.sort(z[:, 0])) ** 2).mean())
    sorted_assignment = np.empty(64, dtype=int)
    sorted_assignment[np.argsort(y[:, 0])] = np.argsort(z[:, 0])
    assert np.array_equal(plan.assignment, sorted_assignment)
    assert math.isclose(plan.cost, sorted_cost, rel_tol=1e-12)
    details.append("1-D transport equals sorted matching")

    pair_class = FunctionClass(
        "finite", envelope=2.0, members=(("constant", 0.5), ("constant", -0.5))
    )
    pairs = build_pairset(pair_class, P, 1.5)
    est = mu_n_estimate(pair_class, P, pairs, 12, 40, SeedSpec(MASTER, 61))
    closed = (11088.0 / 4096.0) / math.sqrt(12.0)  # E|S_12| / sqrt(12), binomial sum
    assert math.isclose(est.value, closed, rel_tol=1e-12) and est.stderr == 0.0
    sign_draws = np.random.default_rng(MASTER + 1).integers(0, 2, size=(4000, 12)) * 2 - 1
    mc = np.abs(sign_draws.sum(axis=1)) / math.sqrt(12.0)
    assert abs(est.value - mc.mean()) <= 3.0 * mc.std(ddof=1) / math.sqrt(len(mc))
    details.append("modulus enumeration vs sign Monte Carlo")

    worst = 0.0
    for sigma in (1.0, 1.0 / math.e, 0.6):
        s0 = math.sqrt(2.0 * math.log(1.0 / sigma))
        closed = s0 * math.exp(-s0 * s0 / 2.0) + math.sqrt(math.pi / 2.0) * erfc(s0 / math.sqrt(2.0))
        for value in (
            dudley_integral(("power", {"c": 1.0, "v": 2.0}), sigma),
            dudley_integral_quadrature(("power", {"c": 1.0, "v": 2.0}), sigma),
        ):
            worst = max(worst, abs(value - closed) / closed)
    assert worst <= 1e-6
    details.append(f"entropy integral vs erfc closed form, rel {worst:.1e}")

    verdict(6, "oracle equivalences", True, "; ".join(details))


def test_criterion_7_schedule_integrity():
    polynomial = schedule_vc(5, Fraction(1, 7), Fraction(9, 14), 3)
    exponential = schedule_br(Fraction(1, 6), 3)
    checks = {
        "t3 = 34": polynomial.t_of(3) == 34,
        "block sizes": polynomial.n == (1, 1, 32, 243),
        "t1,t2,t3 = 2,5,12": tuple(exponential.t_of(k) for k in (1, 2, 3)) == (2, 5, 12),
        "reconstruction": all(
            s.cum[k] == sum(s.n[:k]) and s.total == sum(s.n)
            for s in (polynomial, exponential)
            for k in range(len(s.cum))
        )
        and polynomial.total == 277,
    }
    try:
        schedule_vc(2, Fraction(1, 7), Fraction(9, 14), 3)
        checks["alpha gate"] = False
    except ScheduleInvalidError:
        checks["alpha gate"] = True
    wide = schedule_br(Fraction(1, 6), 200)
    kappa2 = float(Fraction(1, 6) ** 2)
    sandwich = [br_sandwich_ratio(wide, N) for N in range(20, 201)]
    growth = [br_growth_ratio(wide, N) / N**kappa2 for N in range(20, 201)]
    checks["sandwich window"] = 2.0 < min(sandwich) and max(sandwich) < 2.4
    checks["growth window"] = 2.4 < min(growth) and max(growth) < 2.9
    bad = [name for name, passed in checks.items() if not passed]
    verdict(
        7,
        "schedule integrity",
        not bad,
        f"failed {bad or 'none'}; sandwich [{min(sandwich):.3f}, {max(sandwich):.3f}], "
        f"growth [{min(growth):.3f}, {max(growth):.3f}]",
    )


def test_criterion_8_strong_approximation_trend():
    cfg = config_from_dict(
        {
            "kind": "strong-approx",
            "reps": 48,
            "workers": 4,
            "seed": MASTER,
            "schedule": {"N_grid": [4, 6, 8]},
        }
    )
    table = run_strong_approx(cfg)
    Ns = np.array(table.column("N"))
    t_Ns = np.array(table.column("t_N"))
    normalized = np.array(table.column("normalized"))
    raw = np.array(table.column("max_discrepancy"))
    medians = {}
    ratios = {}
    for N in (4, 6, 8):
        medians[N] = float(np.median(normalized[Ns == N]))
        ratios[N] = float(np.median(raw[Ns == N])) / table.meta["envelope"][str(N)]
    decades = math.log10(float(t_Ns.max()) / float(t_Ns.min()))
    drift = max(ratios.values()) / min(ratios.values())
    ok = (
        decades >= 1.5
        and len(normalized) >= 100
        and medians[4] > medians[6] > medians[8]
        and drift < 5.0
        and table.meta["failures"] == 0
    )
    verdict(
        8,
        "strong-approximation trend",
        ok,
        f"{len(normalized)} replications over {decades:.2f} decades, medians "
        f"{dict((N, round(v, 4)) for N, v in medians.items())}, envelope drift {drift:.2f}",
    )


def test_criterion_9_worker_determinism():
    gauss_spec = {
        "kind": "gauss-approx",
        "n_grid": [64, 128, 256],
        "reps": 9,
        "ot_batch": 16,
        "seed": 777,
    }
    gauss_base = config_from_dict(gauss_spec)
    gauss_out = {
        w: run_gauss_approx(replace(gauss_base, workers=w)) for w in (1, 2, 3)
    }
    csv_texts = {w: t.to_csv_text() for w, t in gauss_out.items()}
    json_texts = {w: t.to_json_text() for w, t in gauss_out.items()}
    strong_base = config_from_dict(
        {
            "kind": "strong-approx",
            "reps": 6,
            "seed": 901,
            "schedule": {"N_grid": [3, 4], "m": 4, "eval_mesh_size": 5},
        }
    )
    strong_texts = {
        w: run_strong_approx(replace(strong_base, workers=w)).to_csv_text() for w in (1, 3)
    }
    ok = (
        len(set(csv_texts.values())) == 1
        and len(set(json_texts.values())) == 1
        and len(set(strong_texts.values())) == 1
    )
    verdict(
        9,
        "worker-count determinism",
        ok,
        f"gauss csv {len(csv_texts[1])} bytes identical at workers 1/2/3, "
        f"strong csv {len(strong_texts[1])} bytes identical at workers 1/3",
    )
