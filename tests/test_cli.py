"""Command-line interface: subcommands, flags, exit codes, and --check."""

import json
import math
import re
import resource
import subprocess
import sys

import pytest

import empbridge

from empbridge import cli, errors
from empbridge.bounds import BoundConstants
from empbridge.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from empbridge.distributions import Distribution
from empbridge.errors import CapacityError, ConfigError, DomainError, NumericError
from empbridge.experiments import KINDS, ExperimentConfig
from empbridge.function_classes import EntropyRegime, FunctionClass


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


# -- rates -------------------------------------------------------------------


def test_rates_default_prints_all_exponents(capsys):
    code, out, _ = run_cli(capsys, "rates")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines == [
        "tau1 = 1/7",
        "tau2 = 9/14",
        "tau(alpha) = 1/28",
        "kappa = 1/6",
        "theta = 1/18",
        "tau = 1/15",
    ]


def test_rates_loads_neither_numpy_nor_scipy(child_env):
    probe = (
        "import sys, empbridge.cli as c; c.main(['rates']); "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=child_env
    )
    assert proc.stdout.strip().split("\n")[-1] == "[]"


def test_every_exported_name_resolves():
    for name in empbridge.__all__:
        assert getattr(empbridge, name) is not None
    with pytest.raises(AttributeError):
        empbridge.conditional_extend


def test_rates_polynomial_only(capsys):
    code, out, _ = run_cli(capsys, "rates", "--nu0", "1")
    assert code == EXIT_OK
    assert out.strip().split("\n") == ["tau1 = 1/7", "tau2 = 9/14"]
    code, out, _ = run_cli(capsys, "rates", "--nu0", "1", "--alpha", "5")
    assert "tau(alpha) = 1/28" in out


def test_rates_exponential_only(capsys):
    code, out, _ = run_cli(capsys, "rates", "--r0", "3/4")
    assert code == EXIT_OK
    assert out.strip().split("\n") == ["kappa = 1/6", "theta = 1/18", "tau = 1/15"]


def test_rates_json_format(capsys):
    code, out, _ = run_cli(capsys, "rates", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["tau1"] == "1/7"
    assert doc["tau(alpha)"] == "1/28"
    assert doc["tau"] == "1/15"


def test_rates_alpha_requires_nu0(capsys):
    code, _, err = run_cli(capsys, "rates", "--alpha", "5", "--r0", "3/4")
    assert code == EXIT_CONFIG
    assert "--alpha requires --nu0" in err


def test_rates_alpha_window_enforced(capsys):
    code, _, err = run_cli(capsys, "rates", "--nu0", "1", "--alpha", "2")
    assert code == EXIT_CONFIG
    assert "1/2 < tau1 alpha < 1" in err


def test_rates_rejects_bad_rational(capsys):
    code, _, err = run_cli(capsys, "rates", "--nu0", "0")
    assert code == EXIT_CONFIG
    code, _, err = run_cli(capsys, "rates", "--nu0", "three sevenths")
    assert code == EXIT_CONFIG
    assert "--nu0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--nu0", "1/0"),
        ("--nu0", "1", "--alpha", "1/0"),
        ("--r0", "1/0"),
    ],
    ids=["nu0", "alpha", "r0"],
)
def test_rates_names_a_zero_denominator(capsys, argv):
    code, out, err = run_cli(capsys, "rates", *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"error: {argv[-2]}: '1/0' has a zero denominator\n"


def test_rates_check(capsys):
    code, out, _ = run_cli(capsys, "rates", "--check")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert all(line.startswith("check rates") and line.endswith("pass") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ("--nu0", "2"),
        ("--alpha", "5"),
        ("--r0", "1/2"),
        ("--format", "json"),
        ("--nu0", "2", "--format", "json"),
    ],
    ids=["nu0", "alpha", "r0", "format", "nu0-format"],
)
def test_rates_check_refuses_the_index_and_format_flags(capsys, argv):
    # The known values are at the default indices; a check elsewhere would
    # pass without checking what was asked.
    code, out, err = run_cli(capsys, "rates", "--check", *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    drop = ", ".join(argv[::2])
    assert err == f"error: rates --check checks the default indices only; drop {drop}\n"


@pytest.mark.parametrize(
    "argv",
    [["--config", "c.json"], ["--out", "results"], ["--seed", "5"], ["--workers", "3"]],
    ids=["config", "out", "seed", "workers"],
)
def test_rates_refuses_the_run_flags(capsys, argv):
    # rates reads no config and writes no file; a run flag on it is a mistake.
    with pytest.raises(SystemExit) as exc:
        main(["rates", *argv])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


# -- exit codes ----------------------------------------------------------------


def test_missing_config_is_config_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "couple", "--config", str(tmp_path / "nope.json"))
    assert code == EXIT_CONFIG
    assert "not found" in err


def test_invalid_json_is_config_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "entropy", "--config", str(path))
    assert code == EXIT_CONFIG


def test_unknown_config_field_is_config_error(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json", {"kind": "couple", "wibble": 3})
    code, _, err = run_cli(capsys, "couple", "--config", cfg)
    assert code == EXIT_CONFIG
    assert "wibble" in err


ERROR_CLASSES = [
    obj for obj in vars(errors).values()
    if isinstance(obj, type) and obj.__module__ == errors.__name__
]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda error: error.__name__)
def test_every_error_class_has_one_root_and_its_exit_code(capsys, monkeypatch, error):
    # DomainError roots every input error (exit 2); CapacityError and
    # NumericError are the two failures of a valid input (exit 3).
    roots = [root for root in (DomainError, NumericError, CapacityError) if issubclass(error, root)]
    assert len(roots) == 1

    def fail(config):
        raise error("probe")

    monkeypatch.setattr("empbridge.experiments.run", fail)
    code = EXIT_CONFIG if roots == [DomainError] else EXIT_NUMERIC
    assert run_cli(capsys, "couple") == (code, "", "error: probe\n")


def test_capacity_overflow_is_numeric_error(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        "strong.json",
        {"kind": "strong-approx", "schedule": {"N_grid": [8], "budget": 10, "m": 2}},
    )
    code, _, err = run_cli(capsys, "strong", "--config", cfg)
    assert code == EXIT_NUMERIC
    assert "needs" in err


def test_nan_bound_is_a_config_error(capsys, tmp_path):
    # A sigma that underflows makes the vc-moment bound NaN, which JSON cannot
    # hold; an infinite bound is vacuous and prints as Infinity.
    cfg = write_config(tmp_path, "nan.json", {"audit": {"sigma": 5e-324}})
    code, out, err = run_cli(capsys, "bounds-audit", "--config", cfg)
    assert code == EXIT_CONFIG and out == ""
    assert err == "error: vc-moment bound value must be nonnegative, got nan\n"
    cfg = write_config(tmp_path, "inf.json", {"selection": {"type": "vc", "nu0": 300}})
    code, out, _ = run_cli(capsys, "bounds-audit", "--config", cfg)
    assert code == EXIT_OK and '"rhs": Infinity' in out


def test_failed_check_exits_4(capsys, tmp_path):
    cfg = write_config(
        tmp_path, "audit.json", {"kind": "bounds-audit", "audit": {"M_sup": 5.0}}
    )
    code, out, _ = run_cli(capsys, "bounds-audit", "--config", cfg, "--check")
    assert code == EXIT_CHECK
    assert "check bounds vc-moment preconditions: fail" in out


# -- passing checks ---------------------------------------------------------------


def test_bounds_audit_check_passes_on_defaults(capsys):
    code, out, _ = run_cli(capsys, "bounds-audit", "--check")
    assert code == EXIT_OK
    lines = [line for line in out.strip().split("\n") if line.startswith("check ")]
    assert len(lines) == 15  # 14 reports plus the exact Gaussian tail
    assert all(line.endswith("pass") for line in lines)


def test_entropy_check_passes(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        "entropy.json",
        {"kind": "entropy", "class": {"kind": "intervals", "M": 1.0, "mesh_size": 101}},
    )
    code, out, _ = run_cli(capsys, "entropy", "--config", cfg, "--check")
    assert code == EXIT_OK
    assert "check entropy counts grow as radius shrinks: pass" in out
    assert "check entropy exact certificates tight: pass" in out


def test_entropy_check_passes_when_the_fit_has_nothing_to_fit(capsys, tmp_path):
    # One member: every radius counts 1, the fit records its error in the
    # table meta, and the checks, which read the counts alone, pass.
    spec = {"kind": "entropy", "class": {"kind": "finite", "members": [["interval", 0.5]]}}
    cfg = write_config(tmp_path, "entropy.json", spec)
    code, out, _ = run_cli(capsys, "entropy", "--config", cfg, "--format", "json", "--check")
    assert code == EXIT_OK
    text, checks = out.split("\ncheck ", 1)
    doc = json.loads(text)
    assert doc["meta"]["fit"] == {"error": "all counts equal; nothing to fit"}
    assert [row[2] for row in doc["rows"]] == [1] * 5
    assert checks.count(": pass") == 3 and "fail" not in checks


def test_couple_check_passes(capsys, tmp_path):
    cfg = write_config(
        tmp_path, "couple.json", {"kind": "couple", "n_grid": [64], "ot_batch": 8}
    )
    code, out, _ = run_cli(capsys, "couple", "--config", cfg, "--check")
    assert code == EXIT_OK
    assert "check couple values finite: pass" in out


# Fixed-seed approx and strong runs whose --check passes and fails, each with
# the pattern of its last line: the vc selection checks the log-log slope, the
# br one the slope against log log n.
BR = {"type": "br", "r0": 0.75}
APPROX_CHECKS = {
    "vc-pass": (
        {"n_grid": [256, 1024, 4096, 16384], "reps": 4, "method": "quantile", "eval_mesh_size": 9},
        EXIT_OK, r"pass",
    ),
    "vc-fail": (
        {"n_grid": [64, 256, 1024], "reps": 4, "ot_batch": 4, "eval_mesh_size": 9},
        EXIT_CHECK, r"fail \(slope 0\.\d+, need <= -0\.07, theory -0\.1429\)",
    ),
    "br-pass": (
        {"n_grid": [256, 4096, 65536], "reps": 4, "method": "quantile", "eval_mesh_size": 9,
         "selection": BR},
        EXIT_OK, r"pass",
    ),
    "br-fail": (
        # Batch OT's error floor, pinned, is what fails the decay check.
        {"n_grid": [64, 256, 1024], "reps": 4, "ot_batch": 8, "method": "exact",
         "eval_mesh_size": 9, "selection": BR},
        EXIT_CHECK, r"fail \(slope 0\.\d+ vs log log n, need < 0\)",
    ),
    "two-n": (
        # Too few sample sizes to fit is a failed check, not a config error.
        {"n_grid": [64, 128], "ot_batch": 8, "eval_mesh_size": 9},
        EXIT_CHECK, r"fail \(need at least 3 sample sizes\)",
    ),
}


@pytest.mark.parametrize("case", sorted(APPROX_CHECKS))
def test_approx_check(capsys, tmp_path, case):
    spec, want, verdict = APPROX_CHECKS[case]
    cfg = write_config(tmp_path, "approx.json", spec)
    code, out, _ = run_cli(capsys, "approx", "--config", cfg, "--check")
    assert code == want
    assert re.fullmatch(f"check approx decay rate: {verdict}", out.strip().split("\n")[-1])


STRONG_CHECKS = {
    "pass": ({"seed": 1, "schedule": {"N_grid": [3, 6]}}, EXIT_OK, r"pass"),
    "fail": (
        {"seed": 3, "schedule": {"N_grid": [3, 6]}},
        EXIT_CHECK, r"fail \(normalized medians \['0\.\d+', '1\.\d+'\]\)",
    ),
    "one-block-count": (
        {"seed": 1, "schedule": {"N_grid": [3]}}, EXIT_CHECK, r"fail \(need at least 2 block counts\)"
    ),
}


@pytest.mark.parametrize("case", sorted(STRONG_CHECKS))
def test_strong_check(capsys, tmp_path, case):
    spec, want, verdict = STRONG_CHECKS[case]
    spec = dict(spec, reps=3, schedule=dict(spec["schedule"], m=4, eval_mesh_size=5))
    cfg = write_config(tmp_path, "strong.json", spec)
    code, out, _ = run_cli(capsys, "strong", "--config", cfg, "--check")
    assert code == want
    assert re.fullmatch(f"check strong normalized trend: {verdict}", out.strip().split("\n")[-1])


# -- output plumbing -----------------------------------------------------------------


def test_couple_stdout_document(capsys, tmp_path):
    cfg = write_config(
        tmp_path, "couple.json", {"kind": "couple", "n_grid": [64], "ot_batch": 8}
    )
    code, out, _ = run_cli(capsys, "couple", "--config", cfg)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {
        "n",
        "epsilon",
        "grid_size",
        "sup_grid",
        "sup_mesh",
        "transport_cost",
        "seeds",
        "delta",
        "t",
    }
    assert doc["n"] == 64


def test_out_directory_receives_files(capsys, tmp_path):
    out_dir = tmp_path / "results"
    cfg = write_config(
        tmp_path, "couple.json", {"kind": "couple", "n_grid": [64], "ot_batch": 8}
    )
    code, out, _ = run_cli(capsys, "couple", "--config", cfg, "--out", str(out_dir))
    assert code == EXIT_OK
    path = out.strip()
    assert path.endswith("couple.json")
    doc = json.loads(open(path).read())
    assert doc["n"] == 64


def test_approx_csv_header(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        "approx.json",
        {"kind": "gauss-approx", "n_grid": [64, 128], "reps": 2, "ot_batch": 8},
    )
    code, out, _ = run_cli(capsys, "approx", "--config", cfg)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "n,rep,seed,epsilon,delta,t,sup_grid,sup_mesh,transport_cost"
    assert len(lines) == 1 + 4


def test_seed_flag_overrides_config(capsys, tmp_path):
    cfg = write_config(
        tmp_path, "couple.json", {"kind": "couple", "n_grid": [64], "ot_batch": 8, "seed": 1}
    )
    _, out_a, _ = run_cli(capsys, "couple", "--config", cfg)
    _, out_b, _ = run_cli(capsys, "couple", "--config", cfg, "--seed", "2")
    _, out_c, _ = run_cli(capsys, "couple", "--config", cfg, "--seed", "2")
    assert out_a != out_b
    assert out_b == out_c
    assert json.loads(out_b)["seeds"]["master"] == 2


def test_worker_flag_does_not_change_output(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        "approx.json",
        {"kind": "gauss-approx", "n_grid": [64, 128], "reps": 6, "ot_batch": 8},
    )
    _, serial, _ = run_cli(capsys, "approx", "--config", cfg, "--workers", "1")
    _, pooled, _ = run_cli(capsys, "approx", "--config", cfg, "--workers", "3")
    assert serial == pooled


def test_pool_never_starts_more_processes_than_jobs(capsys, tmp_path, monkeypatch):
    # 3 sizes times 2 reps are 6 jobs. A pool of 2**63 processes would fail
    # in multiprocessing's semaphore; the run starts 6 and prints what one
    # worker prints.
    import concurrent.futures

    started = []
    pool = concurrent.futures.ProcessPoolExecutor

    def counted(max_workers, **kw):
        started.append(max_workers)
        return pool(max_workers, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    spec = {"n_grid": [64, 128, 256], "ot_batch": 4, "eval_mesh_size": 9, "reps": 2}
    cfg = write_config(tmp_path, "approx.json", spec)
    serial = run_cli(capsys, "approx", "--config", cfg, "--workers", "1")
    assert serial[0] == EXIT_OK and started == []
    huge = write_config(tmp_path, "huge.json", {**spec, "workers": 2**63})
    assert run_cli(capsys, "approx", "--config", huge) == serial
    assert run_cli(capsys, "approx", "--config", cfg, "--workers", str(2**63)) == serial
    assert started == [6, 6]


def test_format_json_table(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        "approx.json",
        {"kind": "gauss-approx", "n_grid": [64], "reps": 1, "ot_batch": 8},
    )
    code, out, _ = run_cli(capsys, "approx", "--config", cfg, "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["header"][0] == "n"
    assert len(doc["rows"]) == 1


def test_seed_flag_rejects_oversized_values(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["couple", "--seed", str(2**64)])
    assert exc.value.code == 2


# -- one parser per process ------------------------------------------------------


def test_every_kind_has_one_command_and_its_checks():
    # A kind that the config reader accepts but no command runs, or that runs
    # without self-checks, fails here.
    kinds = [kind for kind, _ in cli._COMMANDS.values()]
    assert sorted(kinds) == sorted(KINDS)
    assert sorted(cli._CHECKS) == sorted(KINDS)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_rejected_flags_leave_the_shared_parser_intact(capsys):
    code, before, _ = run_cli(capsys, "couple", "--seed", "5")
    assert code == EXIT_OK
    for argv in (["couple", "--seed", str(2**64)], ["couple", "--workers", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: empbridge couple")
    code, after, _ = run_cli(capsys, "couple", "--seed", "5")
    assert code == EXIT_OK
    assert after == before


def test_no_flag_leaks_between_calls(capsys):
    _, partial, _ = run_cli(capsys, "rates", "--nu0", "1")
    assert [line.split(" = ")[0] for line in partial.strip().split("\n")] == ["tau1", "tau2"]
    _, full, _ = run_cli(capsys, "rates")
    names = [line.split(" = ")[0] for line in full.strip().split("\n")]
    assert names == ["tau1", "tau2", "tau(alpha)", "kappa", "theta", "tau"]


# -- malformed configs are rejected before any replication runs ---------------------


def assert_config_error(capsys, tmp_path, command, spec, needle):
    cfg = write_config(tmp_path, "bad.json", spec)
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("command", ["couple", "approx"])
def test_empty_n_grid_is_a_config_error(capsys, tmp_path, command):
    spec = {"kind": "gauss-approx", "n_grid": [], "ot_batch": 8}
    assert_config_error(capsys, tmp_path, command, spec, "n grid must be nonempty")


NAN = float("nan")


@pytest.mark.parametrize(
    "command, spec, needle",
    [
        ("entropy", {"class": {"kind": "intervals", "M": NAN}}, "bound M must be positive"),
        ("couple", {"class": {"kind": "holder", "R": NAN}}, "radius R must be positive"),
        ("couple", {"selection": {"type": "vc", "c0": NAN}}, "vc regime needs c0 > 0"),
        ("couple", {"selection": {"type": "vc", "nu0": NAN}}, "vc regime needs c0 > 0 and nu0 > 0"),
        ("couple", {"distribution": {"kind": "beta", "a": NAN}}, "beta shapes a and b must"),
        ("couple", {"distribution": {"kind": "beta", "b": NAN}}, "beta shapes a and b must"),
        (
            "couple",
            {"distribution": {"kind": "discrete", "atoms": [0.25, 0.75], "weights": [0.5, NAN]}},
            "weights must be nonnegative",
        ),
        (
            "couple",
            {"distribution": {"kind": "discrete", "atoms": [NAN, 0.5], "weights": [0.5, 0.5]}},
            "atoms must lie in [0,1]^d",
        ),
        ("bounds-audit", {"constants": {"A": NAN}}, "constant A must be positive, got nan"),
        ("strong", {"schedule": {"N_grid": []}}, "'schedule.N_grid' must be a nonempty list"),
        ("entropy", {"entropy": {"radii": []}}, "'entropy.radii' must be a nonempty list"),
        ("entropy", {"entropy": {"radii": [0.5, NAN, 0.2]}}, "'entropy.radii' must decrease"),
        ("bounds-audit", {"audit": {"t_grid": [NAN]}}, "'audit.t_grid' must hold values > 0"),
        ("approx", {"ot_batch": 0}, "ot_batch entries must be >= 1"),
        (
            "approx",
            {"n_grid": [256, 1024], "ot_batch": [8]},
            "per-n ot_batch needs one entry per n_grid value",
        ),
        (
            "strong",
            {"class": {"kind": "intervals", "mesh_size": 2**63}},
            "class mesh_size must be below 2**53, got 9223372036854775808",
        ),
        (
            "couple",
            {"class": {"kind": "holder", "knots": 2**63}},
            "class knots must be below 2**53, got 9223372036854775808",
        ),
    ],
    ids=[
        "M", "R", "c0", "nu0", "a", "b", "weights", "atoms", "A", "N_grid", "radii", "radii-nan",
        "t_grid-nan", "ot_batch-zero", "ot_batch-length", "mesh_size-huge", "knots-huge",
    ],
)
def test_nan_and_empty_list_fields_are_config_errors(capsys, tmp_path, command, spec, needle):
    # Rejected when the config is read: a check written as x <= 0 would let
    # NaN through to a run that exits 0 or fails later inside numpy. A batch
    # below 1, a per-n batch list of the wrong length, and a mesh or knot
    # count of 2**53 or more (past the integers a JSON number holds exactly;
    # from 2**63 numpy's linspace fails with an IndexError) are refused there
    # too.
    assert_config_error(capsys, tmp_path, command, spec, needle)


@pytest.mark.parametrize("kind", ["holder", "intervals"])
def test_infinite_envelope_is_a_config_error(capsys, tmp_path, kind):
    # A Hoelder mesh would draw knot values from (-inf, inf); an interval run
    # would report a vacuous bound.
    spec = {"class": {"kind": kind, "M": math.inf}}
    assert_config_error(capsys, tmp_path, "couple", spec, "bound M must be positive and finite")


def test_out_of_memory_is_a_numeric_error_without_traceback(tmp_path, child_env):
    # One million knots ask for a 7.28 TiB knot-gap matrix, which fails at
    # once; the address-space cap makes it fail whatever the overcommit policy.
    cfg = write_config(tmp_path, "huge.json", {"class": {"kind": "holder", "knots": 1_000_000}})
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**33, 2**33))
    proc = subprocess.run(
        [sys.executable, "-m", "empbridge.cli", "couple", "--config", cfg],
        capture_output=True, text=True, env=child_env, preexec_fn=cap,
    )
    assert proc.returncode == EXIT_NUMERIC
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_a_memory_error_without_a_message_names_the_failure(capsys, monkeypatch):
    # The interpreter's own MemoryError carries no message.
    def exhausted(config):
        raise MemoryError()

    monkeypatch.setattr("empbridge.experiments.run_couple", exhausted)
    assert run_cli(capsys, "couple") == (EXIT_NUMERIC, "", "error: out of memory\n")


def test_a_foreign_value_error_inside_a_run_propagates(capsys, monkeypatch):
    # Exit 2 means the input: a ValueError that is not a DomainError is a bug
    # (a numpy shape mistake, say) and must not pass for a config error.
    def bug(config):
        raise ValueError("bug")

    monkeypatch.setattr("empbridge.experiments.run_couple", bug)
    with pytest.raises(ValueError, match="^bug$"):
        main(["couple"])


# -- inputs that only numpy or the OS refused have their own checks ---------------

CONSTANTS = {"kind": "finite", "members": [["constant", 0.5], ["constant", 0.25]]}


@pytest.mark.parametrize(
    "command, spec, needle",
    [
        # os.makedirs: "embedded null byte"
        ("approx", {"out": "a\u0000b", "n_grid": [64], "ot_batch": 4},
         "config field 'out' holds a NUL character: 'a\\x00b'"),
        # Distribution.draw: "array is too big"
        (
            "approx",
            {"n_grid": [64, 2**60], "ot_batch": 4, "method": "exact", "eval_mesh_size": 9},
            "the exact method takes n up to 2^51 = 2251799813685248, got n = 1152921504606846976",
        ),
        # orthant_cells: np.meshgrid's "maximum supported dimension" at 65, and
        # np.broadcast's RuntimeError (a traceback) from 33 to 64
        (
            "couple",
            {"class": CONSTANTS, "distribution": {"kind": "product-uniform", "dim": 65}},
            "distribution dim must lie in [1, 32], got 65",
        ),
        (
            "couple",
            {"class": CONSTANTS, "distribution": {"kind": "product-uniform", "dim": 33}},
            "distribution dim must lie in [1, 32], got 33",
        ),
        # _orthant's np.ones: "Maximum allowed dimension exceeded"
        (
            "entropy",
            {"class": CONSTANTS, "distribution": {"kind": "product-uniform", "dim": 1e308}},
            "distribution dim must lie in [1, 32], got 1000000000000000010979",
        ),
        # A mesh of at least 2^dim points, built until memory runs out
        (
            "entropy",
            {"class": {"kind": "rectangles", "dim": 65, "mesh_size": 1},
             "distribution": {"kind": "product-uniform", "dim": 65}},
            "rectangles need dim in [1, 32], got 65",
        ),
        (
            "entropy",
            {"class": {"kind": "rectangles", "dim": 2, "mesh_size": 2**53 - 1},
             "distribution": {"kind": "product-uniform", "dim": 2}},
            "a rectangles mesh of 94906266^2 points must number below 2**53",
        ),
        # np.linspace over ceil(1 / r^2) bracket levels: "Maximum allowed size exceeded"
        ("entropy", {"entropy": {"radii": [0.5, 1e-10]}},
         "'entropy.radii' must decrease strictly within [2^-26, 1), got (0.5, 1e-10)"),
        # A job list, or a list of block sizes, built until memory runs out
        ("approx", {"reps": 2**64, "n_grid": [64], "ot_batch": 4},
         "replication count must be below 2**53, got 18446744073709551616"),
        ("strong", {"schedule": {"N_grid": [4, 2**53]}},
         "schedule N_grid entries must be below 2**53, got 9007199254740992"),
        # A RuntimeWarning from numpy's sum, then "weights sum to inf"
        ("couple", {"distribution": {"kind": "discrete", "atoms": [0.25, 0.75],
                                     "weights": [1e308, 1e308]}},
         "weights must be at most 1, got (1e+308, 1e+308)"),
    ],
    ids=[
        "out-nul", "exact-n", "dim-65", "dim-33", "dim-1e308", "rectangles-dim",
        "rectangles-mesh", "radii-tiny", "reps-huge", "N_grid-huge", "weights-huge",
    ],
)
def test_inputs_that_only_numpy_refused_are_config_errors(capsys, tmp_path, command, spec, needle):
    # Each is refused from its integers before any array exists, so a dim of
    # 1e308 costs nothing.
    assert_config_error(capsys, tmp_path, command, spec, needle)


def test_a_config_path_holding_a_nul_is_a_config_error(capsys):
    # open() refuses it with "embedded null byte".
    err = "error: config path 'a\\x00b' holds a NUL character\n"
    assert run_cli(capsys, "couple", "--config", "a\0b") == (EXIT_CONFIG, "", err)


# case -> (command, config, --check?, exit code, the last stdout line or the
# error line). Each ended in a traceback, or exited 2 on a valid input, before.
EXTREMES = {
    # ZeroDivisionError: epsilon^2 underflows in the error budget's third term
    "audit-epsilon-subnormal": (
        "bounds-audit", {"audit": {"epsilon": 5e-324}}, False, EXIT_OK, "]",
    ),
    # ZeroDivisionError: the vc-moment gate sigma <= 1/(8 c) at c = 0
    "audit-c-zero": ("bounds-audit", {"audit": {"c": 0}}, False, EXIT_OK, "]"),
    # OverflowError: b0^2 in the br covering-count bound
    "regime-b0-huge": (
        "couple",
        {"class": {"kind": "finite", "members": [["interval", 0.5]],
                   "regime": {"type": "br", "b0": 1e308, "r0": 0.5}}, "method": "exact"},
        False, EXIT_OK, "}",
    ),
    # RuntimeWarning, then exit 2 as an inconsistent joint covariance: a grid
    # member of mass about 1e-309 has a variance whose inverse overflows
    "subnormal-mass": (
        "couple",
        {"class": {"kind": "finite",
                   "members": [["rectangle", [0.19, 2.225073858507203e-309, 0.89]]]},
         "distribution": {"kind": "product-uniform", "dim": 3}},
        False, EXIT_NUMERIC,
        "error: the grid covariance's pseudo-inverse overflows: overflow encountered in divide",
    ),
    # ZeroDivisionError: a Hoelder bracket cell width that underflows to 0
    "holder-s-subnormal": (
        "entropy", {"class": {"kind": "holder", "mesh_size": 3, "s": 5e-324}},
        False, EXIT_OK, "0.15,3,3,true,",
    ),
    # RuntimeWarning from the Hoelder mesh's rescaling ratio
    "holder-R-huge": (
        "couple", {"class": {"kind": "holder", "mesh_size": 16, "R": 1e308}}, False, EXIT_OK, "}",
    ),
    # A list of 2^40 block exponents built before their largest was checked
    "br-blocks-huge": (
        "strong", {"selection": {"type": "br", "r0": 0.75}, "schedule": {"N_grid": [2**40]}},
        False, EXIT_NUMERIC,
        "error: schedule with N = 1099511627776 blocks overflows the time range",
    ),
    # Exit 2 after the table: a one-point mesh gives sup gaps of 0, whose log
    # fit has nothing to fit, which is a failed check
    "approx-check-zero-gaps": (
        "approx",
        {"class": {"kind": "intervals", "mesh_size": 1}, "n_grid": [64, 128, 256], "ot_batch": 4,
         "eval_mesh_size": 9},
        True, EXIT_CHECK, "check approx decay rate: fail (medians must be positive for a log fit)",
    ),
}


@pytest.mark.parametrize("case", sorted(EXTREMES))
def test_extreme_valid_inputs_exit_with_their_code(capsys, tmp_path, case):
    command, spec, check, code, last = EXTREMES[case]
    cfg = write_config(tmp_path, "extreme.json", spec)
    got, out, err = run_cli(capsys, command, "--config", cfg, *(["--check"] if check else []))
    assert got == code
    assert (out if code in (EXIT_OK, EXIT_CHECK) else err).splitlines()[-1] == last
    assert err == "" or err.count("\n") == 1


@pytest.mark.parametrize(
    "field, extra",
    [
        ("selection", {"selection": "vc"}),
        ("class.regime", {"class": {"kind": "intervals", "regime": "vc"}}),
    ],
)
def test_non_object_regime_is_a_config_error(capsys, tmp_path, field, extra):
    spec = dict({"kind": "gauss-approx", "n_grid": [64], "ot_batch": 8}, **extra)
    assert_config_error(capsys, tmp_path, "approx", spec, f"{field!r} must be an object")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_config_seed_is_a_config_error(capsys, tmp_path, seed):
    spec = {"kind": "gauss-approx", "n_grid": [64], "ot_batch": 8, "seed": seed}
    assert_config_error(capsys, tmp_path, "approx", spec, "unsigned 64-bit")


def test_unknown_method_is_a_config_error(capsys, tmp_path):
    spec = {"kind": "gauss-approx", "n_grid": [64], "ot_batch": 8, "method": "sinkhorn"}
    assert_config_error(capsys, tmp_path, "approx", spec, "unknown coupling method")


@pytest.mark.parametrize("batch", [513, [64, 1024]])
def test_oversized_exact_batch_is_a_config_error(capsys, tmp_path, batch):
    spec = {"kind": "gauss-approx", "n_grid": [64, 128], "ot_batch": batch, "method": "exact"}
    assert_config_error(capsys, tmp_path, "approx", spec, "ot_batch entries must be <= 512")


NON_INTERVAL_CLASSES = {
    "holder": {"kind": "holder"},
    "rectangles": {"kind": "rectangles", "mesh_size": 25},
    "finite": {"kind": "finite", "members": [["interval", 0.5], ["constant", 0.25]]},
}


@pytest.mark.parametrize("command", ["couple", "approx"])
@pytest.mark.parametrize("kind", sorted(NON_INTERVAL_CLASSES))
def test_quantile_method_on_a_non_interval_class_is_a_config_error(
    capsys, tmp_path, kind, command
):
    spec = {"class": NON_INTERVAL_CLASSES[kind], "method": "quantile"}
    if kind == "rectangles":
        spec["distribution"] = {"kind": "product-uniform", "dim": 2}
    needle = f"the quantile method couples intervals classes only, not {kind}"
    assert_config_error(capsys, tmp_path, command, spec, needle)


def test_quantile_method_under_strong_is_a_config_error(capsys, tmp_path):
    # Strong runs always couple by exact, so they read no method.
    spec = {"method": "quantile", "schedule": {"N_grid": [4], "m": 8}}
    needle = "config field 'method' is read only under a gauss-approx or couple kind, not strong-approx"
    assert_config_error(capsys, tmp_path, "strong", spec, needle)


@pytest.mark.parametrize(
    "command, spec",
    [
        ("couple", {"kind": "couple", "n_grid": [2**53]}),
        ("approx", {"n_grid": [64, 2**53], "reps": 2, "method": "quantile", "eval_mesh_size": 9}),
    ],
    ids=["couple", "approx"],
)
def test_quantile_method_refuses_n_past_its_exact_range(capsys, tmp_path, command, spec):
    # The tree's binomial quantile is exact up to n = 2^51; past it the refusal
    # is one error line, with no RuntimeWarning from the quantile.
    needle = "the quantile method takes n up to 2^51 = 2251799813685248, got n = 9007199254740992"
    assert_config_error(capsys, tmp_path, command, spec, needle)


@pytest.mark.parametrize("command", ["couple", "approx"])
def test_quantile_method_accepts_and_ignores_ot_batch(capsys, tmp_path, command):
    # Past the exact method's limit of 512 too: the tree pairs no batch.
    outputs = []
    for batch in (None, 8, 1024, [4, 2048]):
        spec = {"n_grid": [64, 256], "reps": 2, "method": "quantile", "eval_mesh_size": 9}
        if command == "couple":
            spec.pop("reps")
        if batch is not None:
            spec["ot_batch"] = batch
        cfg = write_config(tmp_path, "q.json", spec)
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == EXIT_OK, err
        outputs.append(out)
    assert len(set(outputs)) == 1


def test_only_exact_runs_load_the_transport_kernels(tmp_path, child_env):
    # Quantile couplings, covers and bounds load no transport kernel. An
    # exact context loads scipy's two compiled transport kernels when it is
    # prepared, before any pool forks, and no run imports scipy.optimize,
    # scipy.spatial or scipy.stats, which would cost about 21 MB (the first
    # two) and 19 MB of resident memory per process.
    quantile = write_config(
        tmp_path, "q.json", {"n_grid": [64, 256], "reps": 2, "method": "quantile"}
    )
    couple = write_config(tmp_path, "c.json", {"n_grid": [64], "ot_batch": 8, "method": "exact"})
    approx = write_config(tmp_path, "a.json", {"n_grid": [64, 256], "ot_batch": 8, "reps": 2})
    strong = write_config(
        tmp_path, "s.json", {"schedule": {"N_grid": [3, 4], "m": 4, "eval_mesh_size": 5}, "reps": 2}
    )
    probe = "\n".join([
        "import sys, empbridge.cli as c",
        "watched = ('scipy.optimize', 'scipy.spatial', 'scipy.stats',",
        "           'scipy.optimize._lsap', 'scipy.spatial._distance_pybind')",
        "out, quantile, couple, approx, strong = sys.argv[1:]",
        "for argv in (['couple'], ['approx', '--config', quantile], ['entropy'], ['bounds-audit'],",
        "             ['couple', '--config', couple], ['approx', '--config', approx],",
        "             ['strong', '--config', strong, '--workers', '2']):",
        "    assert c.main(argv + ['--out', out]) == 0, argv",
        "    print('loaded', argv[0], [m for m in watched if m in sys.modules])",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path), quantile, couple, approx, strong],
        capture_output=True, text=True, check=True, env=child_env,
    )
    # Each run also prints the path it wrote.
    loaded = [line for line in proc.stdout.split("\n") if line.startswith("loaded ")]
    kernels = "['scipy.optimize._lsap', 'scipy.spatial._distance_pybind']"
    assert loaded == [
        "loaded couple []",
        "loaded approx []",
        "loaded entropy []",
        "loaded bounds-audit []",
        f"loaded couple {kernels}",
        f"loaded approx {kernels}",
        f"loaded strong {kernels}",
    ]


def test_only_special_functions_load_scipy_special(tmp_path, child_env):
    # scipy.special's compiled ufuncs (about 4 MB and 10 ms in a fresh
    # interpreter) load where a special function is evaluated: the quantile
    # tree's binomial quantile, the beta CDF and the bounds' entropy
    # integral. Exact runs under the uniform law and the entropy
    # certificates evaluate none, pool workers included. No run imports the
    # scipy.special package (about 24 MB more). Each loading run starts from
    # the state those runs leave, in a forked copy of the interpreter.
    strong = write_config(
        tmp_path, "s.json", {"schedule": {"N_grid": [3, 4], "m": 4, "eval_mesh_size": 5}, "reps": 2}
    )
    beta = write_config(
        tmp_path,
        "b.json",
        {"n_grid": [64], "ot_batch": 8, "reps": 2, "distribution": {"kind": "beta", "a": 2.0}},
    )
    exact = write_config(tmp_path, "e.json", {"method": "exact"})
    probe = "\n".join([
        "import os, sys, empbridge.cli as c",
        "out, strong, beta, exact = sys.argv[1:]",
        "def run(argv):",
        "    assert c.main(argv + ['--out', out]) == 0, argv",
        "    ufuncs, package = 'scipy.special._ufuncs' in sys.modules, 'scipy.special' in sys.modules",
        "    print('loaded', argv[0], ufuncs, package, flush=True)",
        "for argv in (['approx', '--config', exact], ['strong', '--config', strong, '--workers', '2'],",
        "             ['entropy']):",
        "    run(argv)",
        "for argv in (['couple'], ['bounds-audit'], ['approx', '--config', beta]):",
        "    pid = os.fork()",
        "    if pid == 0:",
        "        try:",
        "            run(argv)",
        "        finally:",
        "            os._exit(0)",
        "    os.waitpid(pid, 0)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path), strong, beta, exact],
        capture_output=True, text=True, check=True, env=child_env,
    )
    # Each run also prints the path it wrote.
    loaded = [line for line in proc.stdout.split("\n") if line.startswith("loaded ")]
    assert loaded == [
        "loaded approx False False",
        "loaded strong False False",
        "loaded entropy False False",
        "loaded couple True False",
        "loaded bounds-audit True False",
        "loaded approx True False",
    ]


def test_single_process_runs_load_neither_numpy_ma_nor_multiprocessing(tmp_path, child_env):
    # np.unique loads numpy.ma (about 1.2 MB) and the process pool loads
    # multiprocessing (about 1.9 MB); a run with one worker needs neither. The
    # 2-D rectangles couple takes per-axis cuts of its corners.
    strong = write_config(
        tmp_path, "s.json", {"schedule": {"N_grid": [3, 4], "m": 4, "eval_mesh_size": 5}, "reps": 2}
    )
    rectangles = write_config(
        tmp_path,
        "r.json",
        {
            "class": {"kind": "rectangles", "dim": 2, "mesh_size": 100},
            "distribution": {"kind": "product-uniform", "dim": 2},
            "n_grid": [1024],
            "ot_batch": 16,
        },
    )
    probe = "\n".join([
        "import sys, empbridge.cli as c",
        "out, strong, rectangles = sys.argv[1:]",
        "for argv in (['approx'], ['strong', '--config', strong], ['couple'],",
        "             ['couple', '--config', rectangles]):",
        "    assert c.main(argv + ['--out', out]) == 0, argv",
        "    print('loaded', argv[0], [m for m in ('numpy.ma', 'multiprocessing') if m in sys.modules])",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path), strong, rectangles],
        capture_output=True, text=True, check=True, env=child_env,
    )
    # Each run also prints the path it wrote.
    loaded = [line for line in proc.stdout.split("\n") if line.startswith("loaded ")]
    assert loaded == ["loaded approx []", "loaded strong []", "loaded couple []", "loaded couple []"]


STRONG = {"kind": "strong-approx", "class": {"kind": "intervals", "mesh_size": 201}, "reps": 2}


def test_nonpositive_strong_batch_is_a_config_error(capsys, tmp_path):
    spec = dict(STRONG, schedule={"N_grid": [4], "m": 0})
    assert_config_error(capsys, tmp_path, "strong", spec, "schedule m must be >= 1")


def test_oversized_exact_strong_batch_is_a_config_error(capsys, tmp_path):
    spec = dict(STRONG, schedule={"N_grid": [4], "m": 600})
    assert_config_error(capsys, tmp_path, "strong", spec, "schedule m must be <= 512")


def test_greedy_method_is_a_config_error(capsys, tmp_path):
    # The greedy assignment was removed; exact and quantile are the transport methods.
    spec = dict(COUPLE, method="greedy")
    assert_config_error(capsys, tmp_path, "couple", spec, "unknown coupling method 'greedy'")


@pytest.mark.parametrize("size", [0, -4])
def test_nonpositive_eval_mesh_size_is_a_config_error(capsys, tmp_path, size):
    spec = {"kind": "gauss-approx", "n_grid": [64], "ot_batch": 8, "eval_mesh_size": size}
    assert_config_error(capsys, tmp_path, "approx", spec, "eval_mesh_size must be >= 1")


@pytest.mark.parametrize("size", [0, -4])
def test_nonpositive_strong_eval_mesh_size_is_a_config_error(capsys, tmp_path, size):
    spec = dict(STRONG, schedule={"N_grid": [4], "m": 8, "eval_mesh_size": size})
    assert_config_error(capsys, tmp_path, "strong", spec, "schedule eval_mesh_size must be >= 1")


# A value of the wrong type under each key: one "error:" line that names it.
MISTYPED = {
    "schedule.N_grid": ("strong", dict(STRONG, schedule={"N_grid": 4})),
    "entropy.radii": ("entropy", {"kind": "entropy", "entropy": {"radii": 0.3}}),
    "audit.t_grid": ("bounds-audit", {"kind": "bounds-audit", "audit": {"t_grid": 1.0}}),
    "audit.budget_n_grid": ("bounds-audit", {"audit": {"budget_n_grid": 1024}}),
    "reps": ("approx", {"reps": [1]}),
    "n_grid": ("approx", {"n_grid": 5}),
    "ot_batch": ("approx", {"ot_batch": {"a": 1}}),
    "out": ("approx", {"out": 5}),
    "schedule.alpha": ("strong", dict(STRONG, schedule={"N_grid": [4], "alpha": "abc"})),
}


@pytest.mark.parametrize("key", sorted(MISTYPED))
def test_mistyped_value_is_a_config_error_naming_its_key(capsys, tmp_path, key):
    command, spec = MISTYPED[key]
    assert_config_error(capsys, tmp_path, command, spec, f"config field {key!r}")


# A misspelt key, or a mistyped audit.sym_moment, in each config object and
# kind: exit 2 with one "error:" line that names the dotted key. Each spec
# runs if the probe key is taken out.
COUPLE = {"kind": "couple", "n_grid": [64], "ot_batch": 8, "eval_mesh_size": 9}
FINITE = {"kind": "finite", "members": [["interval", 0.25], ["interval", 0.75]]}
CLASS_PROBES = {
    "intervals": ({"kind": "intervals", "mesh_size": 51}, {}),
    "rectangles": (
        {"kind": "rectangles", "mesh_size": 25},
        {"distribution": {"kind": "product-uniform", "dim": 2}},
    ),
    "holder": ({"kind": "holder", "mesh_size": 16}, {"selection": {"type": "br", "b0": 0.1}}),
    "finite": (FINITE, {}),
}
PROBES = [
    *(
        pytest.param(
            "distribution.alpha",
            "couple",
            dict(COUPLE, distribution={"kind": kind, "alpha": 2}),
            id=f"distribution.alpha-{kind}",
        )
        for kind in ("uniform", "product-uniform", "beta")
    ),
    pytest.param(
        "distribution.wieghts",
        "couple",
        dict(
            COUPLE,
            distribution={
                "kind": "discrete", "atoms": [0.25, 0.75], "weights": [0.5, 0.5], "wieghts": [1, 0]
            },
        ),
        id="distribution.wieghts-discrete",
    ),
    *(
        pytest.param(
            "class.knot",
            "couple",
            dict(COUPLE, **{"class": dict(cls, knot=5)}, **extra),
            id=f"class.knot-{kind}",
        )
        for kind, (cls, extra) in CLASS_PROBES.items()
    ),
    *(
        pytest.param(
            "selection.nu",
            "couple",
            dict(COUPLE, selection={"type": kind, "nu": 2}),
            id=f"selection.nu-{kind}",
        )
        for kind in ("vc", "br")
    ),
    *(
        pytest.param(
            "class.regime.b",
            "couple",
            dict(COUPLE, **{"class": {"kind": "intervals", "regime": {"type": kind, "b": 1}}}),
            id=f"class.regime.b-{kind}",
        )
        for kind in ("vc", "br")
    ),
    pytest.param(
        "schedule.Ngrid",
        "strong",
        dict(STRONG, schedule={"Ngrid": [3], "m": 4}),
        id="schedule.Ngrid",
    ),
    pytest.param(
        "audit.tgrid",
        "bounds-audit",
        {"kind": "bounds-audit", "audit": {"tgrid": [1.0]}},
        id="audit.tgrid",
    ),
    pytest.param(
        "entropy.radius",
        "entropy",
        {"kind": "entropy", "entropy": {"radius": [0.3]}},
        id="entropy.radius",
    ),
    pytest.param(
        "audit.sym_moment",
        "bounds-audit",
        {"kind": "bounds-audit", "audit": {"sym_moment": [1]}},
        id="audit.sym_moment",
    ),
]


@pytest.mark.parametrize("key, command, spec", PROBES)
def test_nested_key_probe_is_a_config_error_naming_its_key(capsys, tmp_path, key, command, spec):
    assert_config_error(capsys, tmp_path, command, spec, repr(key))


@pytest.mark.parametrize(
    "member, needle",
    [
        ({"form": "interval", "value": 0.5}, "unknown config fields: ['class.members.value']"),
        ({"form": "interval"}, "missing config fields: ['class.members.theta']"),
        (5, "config field 'class.members': a member must be [form, theta], got 5"),
        (
            ["interval", 0.5, 3],
            "config field 'class.members': a member must be [form, theta], got ['interval', 0.5, 3]",
        ),
    ],
    ids=["value", "no-theta", "scalar", "triple"],
)
def test_member_object_takes_exactly_form_and_theta(capsys, tmp_path, member, needle):
    spec = dict(COUPLE, **{"class": {"kind": "finite", "members": [member, ["interval", 0.75]]}})
    assert_config_error(capsys, tmp_path, "couple", spec, needle)


@pytest.mark.parametrize(
    "key, selection, reader",
    [
        ("alpha", {"type": "br", "b0": 0.2, "r0": 0.75}, "vc"),
        ("kappa", {"type": "vc", "c0": 1.0, "nu0": 1.0}, "br"),
    ],
)
def test_schedule_key_the_selection_ignores_is_a_config_error(
    capsys, tmp_path, key, selection, reader
):
    spec = dict(STRONG, selection=selection, schedule={"N_grid": [3], "m": 4, key: 3})
    needle = f"'schedule.{key}' is read only under a {reader} selection, not {selection['type']}"
    assert_config_error(capsys, tmp_path, "strong", spec, needle)


@pytest.mark.parametrize("r0", [0.5, 0.25])
def test_br_selection_whose_default_kappa_leaves_its_window_is_a_config_error(
    capsys, tmp_path, r0
):
    # kappa = (1 - r0) / (2 r0) is at least 1/2 for every r0 <= 1/2.
    selection = {"type": "br", "b0": 0.2, "r0": r0}
    spec = dict(STRONG, selection=selection, schedule={"N_grid": [3], "m": 4})
    needle = f"selection.r0 = {r0} gives the default schedule.kappa"
    assert_config_error(capsys, tmp_path, "strong", spec, needle)


@pytest.mark.parametrize("file_kind", [None, "strong-approx", "gauss-approx"])
@pytest.mark.parametrize(
    "key, value", [("n_grid", [7, 9, 11]), ("ot_batch", 3), ("eval_mesh_size", 2)]
)
def test_top_level_key_a_strong_run_ignores_is_a_config_error(
    capsys, tmp_path, key, value, file_kind
):
    # Checked against the kind that runs: the command's, not the file's.
    spec = {key: value, "schedule": {"N_grid": [3], "m": 4}}
    if file_kind:
        spec["kind"] = file_kind
    needle = (
        f"config field {key!r} is read only under a gauss-approx or couple kind, not strong-approx"
    )
    assert_config_error(capsys, tmp_path, "strong", spec, needle)


@pytest.mark.parametrize("command", ["entropy", "bounds-audit"])
def test_method_under_a_run_without_transport_is_a_config_error(capsys, tmp_path, command):
    # These commands run the kind of the same name, which couples nothing.
    needle = f"config field 'method' is read only under a gauss-approx or couple kind, not {command}"
    assert_config_error(capsys, tmp_path, command, {"method": "exact"}, needle)


@pytest.mark.parametrize("key", ["gamma1", "gamma2"])
@pytest.mark.parametrize("command", ["strong", "entropy"])
def test_gamma_under_a_run_without_delta_t_selection_is_a_config_error(
    capsys, tmp_path, command, key
):
    # Only approx, couple and bounds-audit runs select delta and t.
    spec = {key: 0.5}
    if command == "strong":
        spec["schedule"] = {"N_grid": [3], "m": 4}
    kind = {"strong": "strong-approx", "entropy": "entropy"}[command]
    needle = (
        f"config field {key!r} is read only under a gauss-approx or couple or bounds-audit "
        f"kind, not {kind}"
    )
    assert_config_error(capsys, tmp_path, command, spec, needle)


@pytest.mark.parametrize(
    "key, command, spec",
    [
        ("n_grid", "approx", {"n_grid": [256.5, 1024]}),
        ("ot_batch", "approx", {"n_grid": [64, 128], "ot_batch": [8, 16.5]}),
        ("reps", "approx", {"reps": True}),
        ("seed", "couple", {"seed": 1.5}),
        ("class.mesh_size", "entropy", {"class": {"kind": "intervals", "mesh_size": 100.5}}),
        ("schedule.m", "strong", {"schedule": {"N_grid": [3], "m": 4.5}}),
        ("schedule.N_grid", "strong", {"schedule": {"N_grid": [3, False]}}),
        ("audit.n", "bounds-audit", {"audit": {"n": 1024.25}}),
    ],
)
def test_non_integral_integer_field_is_a_config_error(capsys, tmp_path, key, command, spec):
    needle = f"config field {key!r}: must be an integer"
    assert_config_error(capsys, tmp_path, command, spec, needle)


@pytest.mark.parametrize("spec", [{"gamma1": -1}, {"gamma2": 0}, {"gamma1": float("nan")}])
def test_nonpositive_gamma_is_a_config_error(capsys, tmp_path, spec):
    spec = dict(COUPLE, **spec)
    assert_config_error(capsys, tmp_path, "couple", spec, "gamma1 and gamma2 must be > 0")


# The settings that a kind's run never read, each given a value that parses:
# exit 2 with one "error:" line that names the key and the kinds that read it.
UNREAD = {
    "gauss-approx": ("constants", "schedule", "entropy", "audit"),
    "couple": ("reps", "constants", "labels", "schedule", "entropy", "audit"),
    "strong-approx": ("method", "constants", "entropy", "audit"),
    "entropy": ("selection", "reps", "constants", "labels", "schedule", "audit"),
    "bounds-audit": ("class", "distribution", "reps", "labels", "schedule", "entropy"),
}
UNREAD_VALUES = {
    "class": {"kind": "intervals", "mesh_size": 51},
    "distribution": {"kind": "beta", "a": 2.0},
    "selection": {"type": "vc", "nu0": 2.0},
    "method": "exact",
    "reps": 50,
    "labels": {"lambda": 0.1},
    "constants": {"A1": 2.0},
    "schedule": {"m": 8},
    "entropy": {"radii": [0.5, 0.25]},
    "audit": {"n": 512},
}
UNREAD_READERS = {
    "class": "gauss-approx or couple or strong-approx or entropy",
    "distribution": "gauss-approx or couple or strong-approx or entropy",
    "selection": "gauss-approx or couple or strong-approx or bounds-audit",
    "method": "gauss-approx or couple",
    "reps": "gauss-approx or strong-approx",
    "labels": "gauss-approx or strong-approx",
    "constants": "bounds-audit",
    "schedule": "strong-approx",
    "entropy": "entropy",
    "audit": "bounds-audit",
}
COMMAND_BY_KIND = {kind: command for command, (kind, _) in cli._COMMANDS.items()}


@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, keys in UNREAD.items() for key in keys]
)
def test_setting_a_kind_never_reads_is_a_config_error(capsys, tmp_path, kind, key):
    needle = f"config field {key!r} is read only under a {UNREAD_READERS[key]} kind, not {kind}"
    spec = {"kind": kind, key: UNREAD_VALUES[key]}
    assert_config_error(capsys, tmp_path, COMMAND_BY_KIND[kind], spec, needle)


# UNREAD_VALUES as a Python caller passes them to ExperimentConfig.
UNREAD_ARGUMENTS = {
    "class": {"cls": FunctionClass("intervals", mesh_size=51)},
    "distribution": {"dist": Distribution("beta", a=2.0)},
    "selection": {"selection": EntropyRegime("vc", nu0=2.0)},
    "method": {"method": "exact"},
    "reps": {"reps": 50},
    "labels": {"labels": {"lambda": 0.1}},
    "constants": {"constants": BoundConstants(A1=2.0)},
    "schedule": {"schedule": {"m": 8}},
    "entropy": {"entropy": {"radii": [0.5, 0.25]}},
    "audit": {"audit": {"n": 512}},
}
# Every (kind, key) of UNREAD, then the schedule keys that the other selection
# type reads: the arguments and the message of the file route.
DIRECT_UNREAD = {
    **{
        f"{kind}-{key}": (
            dict(kind=kind, **UNREAD_ARGUMENTS[key]),
            f"config field {key!r} is read only under a {UNREAD_READERS[key]} kind, not {kind}",
        )
        for kind, keys in UNREAD.items()
        for key in keys
    },
    "br-schedule.alpha": (
        dict(kind="strong-approx", selection=EntropyRegime("br", b0=0.2, r0=0.75),
             schedule={"alpha": 3}),
        "config field 'schedule.alpha' is read only under a vc selection, not br",
    ),
    "vc-schedule.kappa": (
        dict(kind="strong-approx", selection=EntropyRegime("vc"), schedule={"kappa": 3}),
        "config field 'schedule.kappa' is read only under a br selection, not vc",
    ),
}


@pytest.mark.parametrize("case", sorted(DIRECT_UNREAD))
def test_constructing_a_config_with_a_field_its_kind_never_reads_is_a_config_error(case):
    arguments, message = DIRECT_UNREAD[case]
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(**arguments)
    assert str(exc.value) == message


def test_schedule_beta_is_an_unknown_config_field(capsys, tmp_path):
    # No run reads the schedule's beta, which only s_of_N uses.
    spec = dict(STRONG, schedule={"N_grid": [4], "beta": 0.5})
    assert_config_error(capsys, tmp_path, "strong", spec, "unknown config fields: ['schedule.beta']")
