"""Experiment orchestration: configs, tables, rate fits, and runners."""

import json
import math

import numpy as np
import pytest

from empbridge import (
    ConfigError,
    DegenerateFitError,
    Distribution,
    DomainError,
    EntropyRegime,
    ExperimentConfig,
    FunctionClass,
    NumericError,
    ResultTable,
    config_from_dict,
    emit,
    fit_rate,
    load_config,
    run_bounds_audit,
    run_couple,
    run_entropy,
    run_gauss_approx,
    run_strong_approx,
    select_delta_t,
    select_epsilon_vc,
)
from empbridge.experiments import COUPLE_HEADER, _eval_mesh, build_schedule


def small_config(**kw):
    args = dict(
        kind="gauss-approx",
        n_grid=(64, 128, 256),
        reps=6,
        seed=424242,
        ot_batch=16,
        eval_mesh_size=33,
    )
    args.update(kw)
    return ExperimentConfig(**args)


# -- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="fourier")
    with pytest.raises(ConfigError):
        ExperimentConfig(reps=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_grid=(256, 256))
    with pytest.raises(ConfigError):
        ExperimentConfig(format="yaml")
    with pytest.raises(ConfigError):
        ExperimentConfig(workers=0)


def test_config_from_dict_round_trip():
    spec = {
        "kind": "couple",
        "class": {"kind": "intervals", "M": 1.0, "mesh_size": 101},
        "distribution": {"kind": "beta", "a": 2.0, "b": 3.0},
        "selection": {"type": "br", "b0": 1.5, "r0": 0.75},
        "n_grid": [128, 512],
        "reps": 3,
        "seed": 99,
        "constants": {"A1": 2.0},
        "gamma1": 0.5,
        "workers": 2,
        "format": "json",
        "labels": {"lambda": 0.1},
    }
    cfg = config_from_dict(spec)
    assert cfg.kind == "couple"
    assert cfg.cls.envelope == 1.0 and cfg.cls.mesh_size == 101
    assert cfg.dist.kind == "beta"
    assert cfg.selection.kind == "br" and cfg.selection.r0 == 0.75
    assert cfg.n_grid == (128, 512)
    assert cfg.constants.A1 == 2.0 and cfg.constants.A == 1.0
    assert cfg.gamma1 == 0.5
    assert cfg.labels == {"lambda": 0.1}


def test_config_from_dict_rejects_unknowns():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "couple", "spice": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"selection": {"type": "gaussian"}})
    with pytest.raises(ConfigError):
        config_from_dict({"constants": {"A9": 1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"labels": 7})
    with pytest.raises(ConfigError):
        config_from_dict(["not", "an", "object"])


def test_load_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"kind": "entropy", "seed": 7}')
    cfg = load_config(str(path))
    assert cfg.kind == "entropy" and cfg.seed == 7
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(str(bad))


# -- tables and persistence ------------------------------------------------------


def test_table_csv_text_format():
    table = ResultTable(("a", "b", "c"), ((1, 0.5, True), (2, 1.0 / 3.0, False)))
    text = table.to_csv_text()
    lines = text.split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.5,true"
    assert lines[2] == f"2,{1.0 / 3.0!r},false"
    assert text.endswith("\n")
    assert table.column("b") == [0.5, 1.0 / 3.0]


def test_emit_round_trip(tmp_path):
    table = ResultTable(("x", "y"), ((1, 2.5), (2, 3.5)), meta={"note": "ok"})
    csv_path = tmp_path / "deep" / "rows.csv"
    emit(table, str(csv_path), "csv")
    assert csv_path.read_text() == table.to_csv_text()
    json_path = tmp_path / "rows.json"
    emit(table, str(json_path), "json")
    doc = json.loads(json_path.read_text())
    assert doc["header"] == ["x", "y"]
    assert doc["rows"] == [[1, 2.5], [2, 3.5]]
    assert doc["meta"] == {"note": "ok"}
    emit({"k": 1}, str(tmp_path / "doc.json"), "json")
    with pytest.raises(ConfigError):
        emit({"k": 1}, str(tmp_path / "doc.csv"), "csv")


def test_emit_is_byte_stable(tmp_path):
    table = ResultTable(("x",), ((0.1,), (0.2,), (0.30000000000000004,)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(table, str(p1), "csv")
    emit(table, str(p2), "csv")
    assert p1.read_bytes() == p2.read_bytes()
    # repr round-trips floats exactly
    assert "0.30000000000000004" in p1.read_text()


# -- rate fits ----------------------------------------------------------------------


def planted_table(model):
    rows = []
    for n in (100, 1000, 10_000, 100_000):
        y = n ** (-1.0 / 7.0) if model == "power" else math.log(n) ** (-1.0 / 6.0)
        for factor in (1.0, 2.0, 0.5):  # median of each group is exactly y
            rows.append((n, 0, y * factor))
    return ResultTable(("n", "rep", "sup_grid"), tuple(rows))


def test_fit_rate_recovers_power_slope():
    fit = fit_rate(planted_table("power"), model="power")
    assert fit.slope == pytest.approx(-1.0 / 7.0, abs=1e-9)
    assert fit.residual < 1e-9
    assert fit.model == "power"


def test_fit_rate_recovers_logpower_slope():
    fit = fit_rate(planted_table("logpower"), model="logpower")
    assert fit.slope == pytest.approx(-1.0 / 6.0, abs=1e-9)


def test_fit_rate_constant_data_gives_zero_slope():
    rows = tuple((n, 0, 0.7) for n in (10, 100, 1000))
    fit = fit_rate(ResultTable(("n", "rep", "sup_grid"), rows))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_validation():
    with pytest.raises(DomainError):
        fit_rate(ResultTable(("n", "sup_grid"), ((10, 1.0), (20, 2.0))))
    rows = tuple((n, -1.0) for n in (10, 100, 1000))
    with pytest.raises(DegenerateFitError):
        fit_rate(ResultTable(("n", "sup_grid"), rows))
    ones = tuple((1, 0.5) for _ in range(3)) + ((2, 0.5), (3, 0.5))
    with pytest.raises(DegenerateFitError):
        fit_rate(ResultTable(("n", "sup_grid"), ones), model="logpower")
    with pytest.raises(ConfigError):
        fit_rate(planted_table("power"), model="spline")


# -- runners ------------------------------------------------------------------------


def test_gauss_approx_table_shape():
    cfg = small_config()
    table = run_gauss_approx(cfg)
    assert table.header == COUPLE_HEADER
    assert len(table.rows) == len(cfg.n_grid) * cfg.reps
    assert sorted(set(table.column("n"))) == [64, 128, 256]
    assert set(table.column("rep")) == set(range(6))
    assert set(table.column("seed")) == {424242}
    eps64 = select_epsilon_vc(64, 1.0)
    d64, t64 = select_delta_t(eps64, "vc", 1.0, 1.0)
    first = table.rows[0]
    assert first[3] == pytest.approx(eps64, rel=1e-15)
    assert first[4] == pytest.approx(d64, rel=1e-15)
    assert first[5] == pytest.approx(t64, rel=1e-15)
    assert table.meta["failures"] == 0
    assert all(v >= 0 for v in table.column("sup_grid"))


def test_gauss_approx_label_note():
    cfg = small_config(n_grid=(64,), reps=2, labels={"lambda": 0.05, "H": 1.0})
    table = run_gauss_approx(cfg)
    assert table.meta["labels"] == {"lambda": 0.05, "H": 1.0}
    assert "target tail labels" in table.meta["label_note"]


def test_gauss_approx_workers_change_nothing():
    serial = run_gauss_approx(small_config(n_grid=(64, 128), reps=8, workers=1))
    pooled = run_gauss_approx(small_config(n_grid=(64, 128), reps=8, workers=3))
    assert serial.to_csv_text() == pooled.to_csv_text()


def test_gauss_approx_isolates_rare_failures(monkeypatch):
    import empbridge.experiments as exp

    real = exp.construct_joint

    def flaky(cls, dist, n, eps, m, seed, **kw):
        if seed.stream == 37:
            raise ValueError("planted failure")
        return real(cls, dist, n, eps, m, seed, **kw)

    monkeypatch.setattr(exp, "construct_joint", flaky)
    cfg = small_config(n_grid=(64,), reps=120, ot_batch=8)
    table = run_gauss_approx(cfg)  # 1 failure in 120 is under one percent
    assert table.meta["failures"] == 1
    assert len(table.rows) == 119
    assert "planted failure" in table.meta["failure_messages"][0]
    reps_seen = table.column("rep")
    assert 37 not in reps_seen and 38 in reps_seen


def test_gauss_approx_aborts_on_widespread_failure(monkeypatch):
    import empbridge.experiments as exp

    def broken(*args, **kw):
        raise ValueError("planted failure")

    monkeypatch.setattr(exp, "construct_joint", broken)
    with pytest.raises(NumericError):
        run_gauss_approx(small_config(n_grid=(64,), reps=8))


def test_strong_approx_table():
    cfg = ExperimentConfig(
        kind="strong-approx",
        reps=2,
        seed=11,
        schedule={"N_grid": [3, 4], "m": 4, "eval_mesh_size": 5},
    )
    table = run_strong_approx(cfg)
    assert table.header == (
        "run_id",
        "regime",
        "N",
        "t_N",
        "m_star",
        "max_discrepancy",
        "normalized",
    )
    assert len(table.rows) == 4
    assert table.column("run_id") == [0, 1, 2, 3]
    assert set(table.column("N")) == {3, 4}
    for row in table.rows:
        assert row[6] == pytest.approx(row[5] / math.sqrt(row[3]), rel=1e-12)
    assert set(table.meta["envelope"]) == {"3", "4"}


def test_strong_approx_prepares_each_radius_once(monkeypatch):
    import empbridge.blocking as blocking
    import empbridge.experiments as exp

    radii = []
    prepare = exp.prepare_coupling

    def counted(cls, P, epsilon, **kw):
        radii.append(epsilon)
        return prepare(cls, P, epsilon, **kw)

    def unexpected(*args, **kw):
        raise AssertionError("a block radius was not prepared up front")

    monkeypatch.setattr(exp, "prepare_coupling", counted)
    monkeypatch.setattr(blocking, "prepare_coupling", unexpected)
    cfg = ExperimentConfig(
        kind="strong-approx",
        reps=3,
        seed=11,
        schedule={"N_grid": [3, 4], "m": 4, "eval_mesh_size": 5},
    )
    table = run_strong_approx(cfg)
    assert len(table.rows) == 6 and table.meta["failures"] == 0
    assert len(radii) == len(set(radii)) >= 2


def test_strong_schedule_batch_is_checked_at_config_time():
    with pytest.raises(ConfigError, match="schedule m must be >= 1"):
        ExperimentConfig(kind="strong-approx", schedule={"m": 0})
    with pytest.raises(ConfigError, match="schedule m must be <= 512"):
        ExperimentConfig(kind="strong-approx", schedule={"m": 513})
    with pytest.raises(ConfigError, match="unknown coupling method 'greedy'"):
        ExperimentConfig(kind="strong-approx", method="greedy", schedule={"m": 600})
    ExperimentConfig(kind="gauss-approx", schedule={"m": 600})


def test_build_schedule_defaults():
    vc = build_schedule(ExperimentConfig(kind="strong-approx"), 4)
    assert vc.regime == "vc" and vc.params["alpha"] == 5.0
    br_cfg = ExperimentConfig(
        kind="strong-approx", selection=EntropyRegime("br", b0=1.0, r0=0.75)
    )
    br = build_schedule(br_cfg, 4)
    assert br.regime == "br"
    assert br.params["kappa"] == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_entropy_table(uniform):
    cfg = ExperimentConfig(
        kind="entropy", cls=FunctionClass("intervals", envelope=1.0, mesh_size=101)
    )
    table = run_entropy(cfg)
    assert table.header == ("epsilon", "cover_lower", "cover_upper", "exact", "bracketing")
    radii = table.column("epsilon")
    assert all(b < a for a, b in zip(radii, radii[1:]))
    uppers = table.column("cover_upper")
    assert all(b >= a for a, b in zip(uppers, uppers[1:]))
    for lo, up in zip(table.column("cover_lower"), uppers):
        assert lo <= up
    assert all(isinstance(b, int) for b in table.column("bracketing"))
    assert "constants" in table.meta["fit"]
    with pytest.raises(ConfigError):
        run_entropy(ExperimentConfig(kind="entropy", entropy={"radii": [0.3, 0.4]}))


def test_entropy_bracketing_absorbs_only_its_own_errors(monkeypatch):
    import empbridge.experiments as exp

    rect = ExperimentConfig(
        kind="entropy",
        cls=FunctionClass("rectangles", envelope=1.0, dim=2, mesh_size=16),
        dist=Distribution("product-uniform", dim=2),
    )
    assert set(run_entropy(rect).column("bracketing")) == {""}

    def broken(*args):
        raise TypeError("bug inside the bracketing code")

    monkeypatch.setattr(exp, "bracketing_number", broken)
    with pytest.raises(TypeError, match="bug inside"):
        run_entropy(ExperimentConfig(kind="entropy"))


def test_couple_document():
    cfg = ExperimentConfig(kind="couple", n_grid=(64, 256), seed=5, ot_batch=8)
    doc = run_couple(cfg)
    assert list(doc) == [
        "n",
        "epsilon",
        "grid_size",
        "sup_grid",
        "sup_mesh",
        "transport_cost",
        "seeds",
        "delta",
        "t",
    ]
    assert doc["n"] == 64
    assert doc["seeds"] == {"master": 5, "stream": 0}
    assert doc["transport_cost"] >= 0


def test_bounds_audit_battery():
    reports = run_bounds_audit(ExperimentConfig(kind="bounds-audit"))
    assert len(reports) == 14
    names = [r["name"] for r in reports]
    assert names.count("talagrand-tail") == 3
    assert names.count("vc-moment") == 1
    assert names.count("br-moment") == 1
    assert names.count("error-budget") == 3
    assert names.count("combined-tail-empirical") == 3
    assert names.count("combined-tail-gaussian") == 3
    for rep in reports:
        assert list(rep) == [
            "name",
            "inputs",
            "constants",
            "rhs",
            "threshold",
            "preconditions_ok",
            "failing_condition",
        ]
        assert rep["preconditions_ok"], rep["name"]


def test_bounds_audit_honest_on_bad_inputs():
    cfg = ExperimentConfig(kind="bounds-audit", audit={"M_sup": 5.0})
    reports = run_bounds_audit(cfg)
    vc = next(r for r in reports if r["name"] == "vc-moment")
    assert not vc["preconditions_ok"]
    assert vc["failing_condition"].startswith("M_sup")


def test_eval_mesh_subsampling(intervals):
    full = _eval_mesh(intervals, 1000)
    assert full == intervals.mesh
    sub = _eval_mesh(intervals, 33)
    assert len(sub) <= 33
    assert set(sub) <= set(intervals.mesh)
    assert sub[0] == intervals.mesh[0] and sub[-1] == intervals.mesh[-1]


def test_eval_mesh_in_run_is_deterministic():
    a = run_couple(ExperimentConfig(kind="couple", n_grid=(64,), seed=3, ot_batch=4))
    b = run_couple(ExperimentConfig(kind="couple", n_grid=(64,), seed=3, ot_batch=4))
    assert a == b
