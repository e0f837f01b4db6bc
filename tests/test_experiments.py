"""Experiment orchestration: configs, tables, rate fits, and runners."""

import ast
import importlib.util
import json
import math
import multiprocessing
import re
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empbridge import (
    ConfigError,
    DegenerateFitError,
    Distribution,
    DomainError,
    EntropyRegime,
    ExperimentConfig,
    FunctionClass,
    NumericError,
    PathDiscrepancy,
    ResultTable,
    class_from_spec,
    config_from_dict,
    distribution_from_spec,
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
from empbridge import cli, experiments
from empbridge.cli import _COMMANDS
from empbridge.experiments import (
    _BLOCKS,
    _CLASSES,
    _DISTRIBUTIONS,
    _READ_BY,
    _REGIMES,
    _RUN_SETTINGS,
    COUPLE_HEADER,
    KINDS,
    _eval_mesh,
    _replicate,
    _spec,
    build_schedule,
    regime_from_spec,
)


ROOT = Path(__file__).resolve().parents[1]


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
        "kind": "gauss-approx",
        "class": {"kind": "intervals", "M": 1.0, "mesh_size": 101},
        "distribution": {"kind": "beta", "a": 2.0, "b": 3.0},
        "selection": {"type": "br", "b0": 1.5, "r0": 0.75},
        "n_grid": [128, 512],
        "reps": 3,
        "seed": 99,
        "gamma1": 0.5,
        "workers": 2,
        "format": "json",
        "labels": {"lambda": 0.1},
    }
    cfg = config_from_dict(spec)
    assert cfg.kind == "gauss-approx"
    assert cfg.cls.envelope == 1.0 and cfg.cls.mesh_size == 101
    assert cfg.dist.kind == "beta"
    assert cfg.selection.kind == "br" and cfg.selection.r0 == 0.75
    assert cfg.n_grid == (128, 512) and cfg.reps == 3
    assert cfg.gamma1 == 0.5
    assert cfg.labels == {"lambda": 0.1}
    cfg = config_from_dict({"kind": "bounds-audit", "constants": {"A1": 2.0}})
    assert cfg.constants.A1 == 2.0 and cfg.constants.A == 1.0


def test_spec_round_trip():
    # _spec is the inverse of the class, law and regime parsers, through JSON.
    # Every key here is off its default, and the parsers refuse a key that the
    # kind's table does not list.
    vc, br = EntropyRegime("vc", c0=3.0, nu0=1.5), EntropyRegime("br", b0=0.5, r0=0.25)
    classes = (
        FunctionClass("intervals", envelope=1.0, mesh_size=101, regime=br),
        FunctionClass("rectangles", envelope=1.0, dim=3, mesh_size=27, regime=vc),
        FunctionClass(
            "holder", regime=vc, mesh_size=12, holder_exponent=0.5, holder_radius=2.0,
            knot_count=6, mesh_seed=7,
        ),
        FunctionClass("finite", members=(("constant", 0.5), ("interval", 0.25))),
        FunctionClass(
            "finite", envelope=1.0, members=(("rectangle", (0.5, 0.25)), ("constant", -0.4))
        ),
    )
    laws = (
        Distribution("uniform"),
        Distribution("product-uniform", dim=2),
        Distribution("beta", a=2.0, b=3.0),
        Distribution("discrete", atoms=(0.25, 0.75), weights=(0.5, 0.5)),
        Distribution("discrete", dim=2, atoms=((0.25, 0.5), (0.75, 1.0)), weights=(0.5, 0.5)),
    )
    cases = [(r, partial(regime_from_spec, field="selection")) for r in (vc, br)]
    cases += [(c, class_from_spec) for c in classes] + [(P, distribution_from_spec) for P in laws]
    for value, parse in cases:
        again = parse(json.loads(json.dumps(_spec(value))))
        assert again == value
    for cls in classes:
        assert class_from_spec(_spec(cls)).mesh == cls.mesh


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


CONFIG_KEYS = (
    "kind", "class", "distribution", "selection", "n_grid", "reps", "seed", "constants",
    "gamma1", "gamma2", "ot_batch", "method", "eval_mesh_size", "workers", "out", "format",
    "labels", "schedule", "entropy", "audit",
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)




def tagged_objects(tag, tables, values):
    """Config objects with a known ``tag`` value and any subset of its keys."""
    return st.sampled_from(sorted(tables)).flatmap(
        lambda name: st.fixed_dictionaries(
            {tag: st.just(name)}, optional=dict.fromkeys(tables[name], values)
        )
    )


REGIME_OBJECTS = tagged_objects("type", _REGIMES, JSON_VALUES)
NESTED_OBJECTS = {
    "class": tagged_objects("kind", _CLASSES, JSON_VALUES | REGIME_OBJECTS),
    "distribution": tagged_objects("kind", _DISTRIBUTIONS, JSON_VALUES),
    "selection": REGIME_OBJECTS,
    **{
        block: st.fixed_dictionaries({}, optional=dict.fromkeys(table, JSON_VALUES))
        for block, table in _BLOCKS.items()
    },
}
TOP_VALUES = {
    key: JSON_VALUES | st.sampled_from(KINDS) | NESTED_OBJECTS.get(key, st.nothing())
    for key in CONFIG_KEYS
}


@settings(max_examples=300, deadline=None, database=None)
@given(spec=st.fixed_dictionaries({}, optional=TOP_VALUES))
def test_config_from_dict_raises_only_config_errors(spec):
    """Any JSON value under any known key, nested keys included, gives a
    config or a ConfigError."""
    try:
        config = config_from_dict(spec)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)


def test_blocks_are_filled_with_their_defaults():
    for kind in KINDS:
        assert ExperimentConfig(kind=kind) == config_from_dict({"kind": kind})
        assert replace(ExperimentConfig(kind=kind), seed=7, workers=2).seed == 7  # CLI flags
    br = ExperimentConfig(kind="strong-approx", selection=EntropyRegime("br", r0=0.75))
    assert "alpha" not in br.schedule and replace(br, seed=7).schedule == br.schedule
    cfg = ExperimentConfig(kind="strong-approx", schedule={"m": 4.0})
    assert cfg.schedule["m"] == 4 and cfg.schedule["N_grid"] == (4, 6, 8)
    assert cfg.audit is None and cfg.entropy is None  # blocks that strong runs do not read
    assert ExperimentConfig(kind="bounds-audit").audit["sigma"] is None
    assert ExperimentConfig(kind="entropy").entropy["radii"][0] == 0.6


def test_sym_moment_is_kept_as_given():
    for value in (1, 0.75):
        cfg = config_from_dict({"kind": "bounds-audit", "audit": {"sym_moment": value}})
        assert type(cfg.audit["sym_moment"]) is type(value)
        report = run_bounds_audit(cfg)[0]
        assert type(report["inputs"]["sym_moment"]) is type(value)
    for value in ([1], "1", True, None):
        with pytest.raises(ConfigError, match="'audit.sym_moment'"):
            config_from_dict({"kind": "bounds-audit", "audit": {"sym_moment": value}})


def test_readme_config_block_is_the_defaults():
    """The README's commented config block, cut to each kind's keys and the
    run settings, parses to ExperimentConfig(kind=...); the README's per-kind
    key table is the parser's."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    spec = json.loads(re.sub(r"//.*", "", block))
    assert set(spec) == set(_RUN_SETTINGS).union(*_READ_BY.values())
    for kind, keys in _READ_BY.items():
        cut = {key: spec[key] for key in (*_RUN_SETTINGS, *keys)}
        assert config_from_dict(dict(cut, kind=kind)) == ExperimentConfig(kind=kind), kind
    rows = re.findall(r"^\| `([a-z-]+)` \| (`.*`) \|$", readme, flags=re.MULTILINE)
    assert {kind: tuple(re.findall(r"`(\w+)`", keys)) for kind, keys in rows} == _READ_BY


@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, keys in _READ_BY.items() for key in keys]
)
def test_every_key_a_kind_reads_parses_under_it(kind, key):
    value = {
        "class": {"kind": "intervals", "mesh_size": 51},
        "distribution": {"kind": "beta", "a": 2.0},
        "selection": {"type": "vc", "nu0": 2.0},
        "n_grid": [64, 128],
        "ot_batch": 8,
        "method": "exact" if kind == "couple" else "quantile",  # not the default
        "eval_mesh_size": 9,
        "gamma1": 0.5,
        "gamma2": 2.0,
        "reps": 2,
        "labels": {"lambda": 0.1},
        "schedule": {"m": 8},
        "entropy": {"radii": [0.5, 0.25]},
        "constants": {"A1": 2.0},
        "audit": {"n": 512},
    }[key]
    assert config_from_dict({"kind": kind, key: value}) != ExperimentConfig(kind=kind)


def _acceptance_specs() -> list:
    """Every config literal in test_acceptance.py: a dict whose "kind" is an experiment kind."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    names = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
    }
    specs = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        kinds = [
            v.value
            for k, v in zip(node.keys, node.values)
            if isinstance(k, ast.Constant) and k.value == "kind" and isinstance(v, ast.Constant)
        ]
        if kinds and kinds[0] in KINDS:
            specs.append(eval(compile(ast.Expression(node), "test_acceptance.py", "eval"), names))
    return specs


def _perfbench(name: str):
    """The benchmark script ``perfbench/<name>.py``, loaded by path."""
    loader = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def _benchmark_specs() -> list:
    """The configs of every benchmark workload: timed, accuracy and couple files."""
    bench, run = ROOT / "perfbench", _perfbench("run")
    specs = [json.loads((bench / name).read_text()) for name in ("couple.json", "couple-accuracy.json")]
    for work in run.WORKLOADS.values():
        if "spec" in work:
            spec = work["spec"](20260815)
            specs += [spec, *work["accuracy"](spec)]
    return specs


def _golden_specs() -> list:
    """The config of every golden case, with the kind of the command that runs it."""
    loader = importlib.util.spec_from_file_location("golden", ROOT / "tests" / "test_golden.py")
    golden = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(golden)
    cases = golden.CASES.values()
    return [dict(spec, kind=_COMMANDS[command][0]) for command, spec, *_ in cases]


def test_acceptance_and_benchmark_configs_parse():
    acceptance, benchmark, golden = _acceptance_specs(), _benchmark_specs(), _golden_specs()
    assert len(acceptance) >= 4 and len(benchmark) >= 5 and len(golden) >= 14
    kinds = {config_from_dict(spec).kind for spec in acceptance + benchmark + golden}
    assert {"gauss-approx", "strong-approx", "couple", "entropy", "bounds-audit"} <= kinds


def test_benchmark_tracer_sees_every_required_layer():
    """Each benchmark workload, run once under the layer tracer, calls every
    layer that its traced run requires, and construct_joint as often as its
    config implies; a call site moved away from the tracer's names fails
    here rather than only in a traced benchmark run."""
    run, tracer = _perfbench("run"), _perfbench("tracer").Tracer()
    for name, work in run.WORKLOADS.items():
        tracer.reset()
        tracer.install()
        try:
            if work["kind"] == "cli":
                codes = [cli.main(run.cli_argv(cmd, 20260815, 0)) for cmd in run.CLI_COMMANDS]
                assert codes == [0] * len(run.CLI_COMMANDS), name
                joint_calls = 1
            else:
                spec = dict(work["spec"](20260815), workers=1)
                runner = {"approx": experiments.run_gauss_approx, "strong": experiments.run_strong_approx}
                runner[work["kind"]](config_from_dict(spec))
                joint_calls = run.expected_joint_calls(work["kind"], spec)
        finally:
            tracer.uninstall()
        counts = tracer.counts()
        assert [layer for layer in work["layers"] if counts[layer]["calls"] == 0] == [], name
        assert counts["coupling.construct_joint"]["calls"] == joint_calls, name


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
    bad.write_bytes(b"\xff\xfe\x00")  # not UTF-8: refused as JSON is
    with pytest.raises(ConfigError, match="not valid JSON: 'utf-8' codec can't decode byte 0xff"):
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


def _tagged(label, failing, rep):
    if rep in failing:
        raise NumericError(f"planted at {label}")
    return label, rep


def test_replicate_returns_task_order_for_heaviest_first_dispatch():
    # Sizes out of task order, so the pool runs task b first and task a last.
    tasks = [
        ("n=a", 10, partial(_tagged, "a", ())),
        ("n=b", 1000, partial(_tagged, "b", (3,))),
        ("n=c", 100, partial(_tagged, "c", ())),
    ]
    runs = {w: _replicate(ExperimentConfig(reps=40, workers=w), tasks) for w in (1, 2)}
    done, meta = runs[2]
    labels = "abc"
    assert [(i, rep) for i, rep, _ in done] == [
        (i, rep) for i in range(3) for rep in range(40) if (i, rep) != (1, 3)
    ]
    assert all(value == (labels[i], rep) for i, rep, value in done)
    assert meta["failure_messages"] == ["n=b rep=3: NumericError: planted at b"]
    assert runs[1] == runs[2]
    texts = {
        w: ResultTable(("task", "rep"), tuple((i, rep) for i, rep, _ in d), m).to_json_text()
        for w, (d, m) in runs.items()
    }
    assert texts[1] == texts[2]
    # Past one percent the run aborts, naming the first failure in task order,
    # which the pool reaches last.
    tasks = [("n=a", 10, partial(_tagged, "a", (5, 6))), ("n=b", 1000, partial(_tagged, "b", (0, 1)))]
    messages = []
    for workers in (1, 2):
        with pytest.raises(NumericError) as info:
            _replicate(ExperimentConfig(reps=40, workers=workers), tasks)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[1].endswith("first: n=a rep=5: NumericError: planted at a")


class _Unpicklable:
    """A task that refuses pickling, as a task holding a large context should
    never need it: the pool hands the task list to each worker once."""

    def __init__(self, label):
        self.label = label

    def __call__(self, rep):
        return self.label, rep

    def __reduce__(self):
        raise TypeError("tasks are not pickled per job")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit the tasks without pickling only under fork",
)
def test_replicate_sends_tasks_to_each_worker_once():
    tasks = [(f"n={c}", size, _Unpicklable(c)) for c, size in (("a", 10), ("b", 1000))]
    done, meta = _replicate(ExperimentConfig(reps=12, workers=2), tasks)
    assert done == [(i, rep, ("ab"[i], rep)) for i in range(2) for rep in range(12)]
    assert meta["failures"] == 0


def test_gauss_approx_isolates_rare_failures(monkeypatch):
    import empbridge.experiments as exp

    real = exp.construct_joint

    def flaky(context, n, m, seed):
        if seed.stream == 37:
            raise NumericError("planted failure")
        return real(context, n, m, seed)

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
        raise NumericError("planted failure")

    monkeypatch.setattr(exp, "construct_joint", broken)
    with pytest.raises(NumericError, match="8 of 8 replications failed"):
        run_gauss_approx(small_config(n_grid=(64,), reps=8))


def planted_bug(*args, **kw):
    raise TypeError("planted bug")


def test_gauss_approx_replications_do_not_absorb_bugs(monkeypatch):
    import empbridge.experiments as exp

    monkeypatch.setattr(exp, "construct_joint", planted_bug)
    with pytest.raises(TypeError, match="planted bug"):
        run_gauss_approx(small_config(n_grid=(64,), reps=8))


def test_strong_approx_replications_do_not_absorb_bugs(monkeypatch):
    import empbridge.experiments as exp

    monkeypatch.setattr(exp, "run_sequential", planted_bug)
    cfg = ExperimentConfig(kind="strong-approx", reps=2, schedule={"N_grid": [3], "m": 4})
    with pytest.raises(TypeError, match="planted bug"):
        run_strong_approx(cfg)


def test_strong_approx_passes_the_configured_budget(monkeypatch):
    import empbridge.experiments as exp

    totals = []

    def stub(schedule, contexts, seed, **kw):
        totals.append(schedule.total)
        return PathDiscrepancy(schedule.regime, schedule.N, schedule.total, 1, 1.0, 1.0, (1.0,))

    monkeypatch.setattr(exp, "run_sequential", stub)
    # N = 12 needs 630,709 samples under the default alpha = 5.
    spec = {"N_grid": [12], "m": 4}
    with pytest.raises(NumericError, match="schedule at N = 12 needs 630709 samples"):
        run_strong_approx(ExperimentConfig(kind="strong-approx", schedule=spec))
    spec["budget"] = 700_000
    run_strong_approx(ExperimentConfig(kind="strong-approx", reps=2, schedule=spec))
    assert totals == [630_709, 630_709]


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

    radii = []
    prepare = blocking.prepare_coupling

    def counted(cls, P, epsilon, **kw):
        radii.append(epsilon)
        return prepare(cls, P, epsilon, **kw)

    monkeypatch.setattr(blocking, "prepare_coupling", counted)
    cfg = ExperimentConfig(
        kind="strong-approx",
        reps=3,
        seed=11,
        schedule={"N_grid": [3, 4], "m": 4, "eval_mesh_size": 5},
    )
    table = run_strong_approx(cfg)
    assert len(table.rows) == 6 and table.meta["failures"] == 0
    assert len(radii) == len(set(radii)) >= 2


def test_unset_method_resolves_per_run_kind_and_class_kind():
    assert ExperimentConfig(kind="couple").method == "quantile"
    assert config_from_dict({"kind": "couple", "method": None}).method == "quantile"
    assert ExperimentConfig(kind="couple", cls=FunctionClass("holder")).method == "exact"
    assert ExperimentConfig(kind="gauss-approx").method == "exact"
    for kind in ("strong-approx", "entropy", "bounds-audit"):  # kinds that read no method
        assert ExperimentConfig(kind=kind).method is None
    assert ExperimentConfig(kind="gauss-approx", method="quantile").method == "quantile"
    assert ExperimentConfig(kind="couple", method="exact").method == "exact"


def test_strong_schedule_batch_is_checked_at_config_time():
    with pytest.raises(ConfigError, match="schedule m must be >= 1"):
        ExperimentConfig(kind="strong-approx", schedule={"m": 0})
    with pytest.raises(ConfigError, match="schedule m must be <= 512"):
        ExperimentConfig(kind="strong-approx", schedule={"m": 513})
    with pytest.raises(ConfigError, match="'method' is read only under a gauss-approx or couple"):
        ExperimentConfig(kind="strong-approx", method="greedy", schedule={"m": 4})
    with pytest.raises(ConfigError, match="'schedule' is read only under a strong-approx kind"):
        ExperimentConfig(kind="gauss-approx", schedule={"m": 600})


def test_eval_mesh_sizes_are_checked_at_config_time():
    with pytest.raises(ConfigError, match="eval_mesh_size must be >= 1, got 0"):
        ExperimentConfig(eval_mesh_size=0)
    with pytest.raises(ConfigError, match="schedule eval_mesh_size must be >= 1, got 0"):
        ExperimentConfig(kind="strong-approx", schedule={"eval_mesh_size": 0})
    # Only strong runs read the schedule block.
    with pytest.raises(ConfigError, match="'schedule' is read only under a strong-approx kind"):
        ExperimentConfig(kind="gauss-approx", schedule={"eval_mesh_size": 0})


def test_eval_mesh_is_the_distinct_rounded_linspace_points():
    # np.unique of the rounded indices is the reference.
    for cls in (FunctionClass("intervals", mesh_size=201), FunctionClass("holder")):
        mesh = list(cls.mesh)
        for size in range(1, len(mesh) + 2):
            idx = np.unique(np.linspace(0, len(mesh) - 1, size).round().astype(int))
            want = tuple(mesh) if size >= len(mesh) else tuple(mesh[i] for i in idx)
            assert experiments._eval_mesh(cls, size) == want


def test_gammas_must_be_positive():
    for gammas in ({"gamma1": -1.0}, {"gamma2": 0.0}, {"gamma1": math.nan}, {"gamma2": -math.inf}):
        with pytest.raises(ConfigError, match="gamma1 and gamma2 must be > 0"):
            ExperimentConfig(kind="couple", **gammas)
    ExperimentConfig(kind="couple", gamma1=1e-9, gamma2=math.inf)


def test_build_schedule_takes_the_exact_rates_of_the_selection():
    for nu0, alpha in ((1.5, 6), (0.3333, 3), (1e-3, Fraction(3, 2))):
        selection = EntropyRegime("vc", nu0=nu0)
        cfg = ExperimentConfig(kind="strong-approx", selection=selection, schedule={"alpha": alpha})
        nu = Fraction(str(nu0))
        params = build_schedule(cfg, 4).params
        assert params["tau1"] == float(1 / (2 + 5 * nu))
        assert params["tau2"] == float((4 + 5 * nu) / (4 + 10 * nu))
    for r0 in (0.75, 0.6, 0.999):
        cfg = ExperimentConfig(kind="strong-approx", selection=EntropyRegime("br", r0=r0))
        r = Fraction(str(r0))
        assert build_schedule(cfg, 4).params["kappa"] == float((1 - r) / (2 * r))


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

    monkeypatch.setattr(exp, "bracketing_set", broken)
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


def test_an_eval_mesh_size_past_the_class_mesh_is_capped_to_it():
    cls = FunctionClass("intervals")
    assert len(cls.mesh) == 1000
    assert _eval_mesh(cls, 2000) == cls.mesh
    capped = run_couple(ExperimentConfig(kind="couple", n_grid=(64,), eval_mesh_size=2000))
    assert capped == run_couple(ExperimentConfig(kind="couple", n_grid=(64,), eval_mesh_size=1000))


def test_eval_mesh_in_run_is_deterministic():
    a = run_couple(ExperimentConfig(kind="couple", n_grid=(64,), seed=3, ot_batch=4))
    b = run_couple(ExperimentConfig(kind="couple", n_grid=(64,), seed=3, ot_batch=4))
    assert a == b
