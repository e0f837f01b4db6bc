"""Command-line interface: subcommands, flags, exit codes, and --check."""

import json
import subprocess
import sys

import pytest

import empbridge

from empbridge.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main


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


def test_rates_loads_neither_numpy_nor_scipy():
    probe = (
        "import sys, empbridge.cli as c; c.main(['rates']); "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
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


def test_rates_check(capsys):
    code, out, _ = run_cli(capsys, "rates", "--check")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert all(line.startswith("check rates") and line.endswith("pass") for line in lines)


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


def test_capacity_overflow_is_numeric_error(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        "strong.json",
        {"kind": "strong-approx", "schedule": {"N_grid": [8], "budget": 10, "m": 2}},
    )
    code, _, err = run_cli(capsys, "strong", "--config", cfg)
    assert code == EXIT_NUMERIC
    assert "needs" in err


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
    assert len(lines) == 15  # 14 reports plus the Monte Carlo probe
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


def test_couple_check_passes(capsys, tmp_path):
    cfg = write_config(
        tmp_path, "couple.json", {"kind": "couple", "n_grid": [64], "ot_batch": 8}
    )
    code, out, _ = run_cli(capsys, "couple", "--config", cfg, "--check")
    assert code == EXIT_OK
    assert "check couple values finite: pass" in out


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


@pytest.mark.parametrize(
    "field, extra",
    [
        ("selection", {"selection": "vc"}),
        ("regime", {"class": {"kind": "intervals", "regime": "vc"}}),
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


STRONG = {"kind": "strong-approx", "class": {"kind": "intervals", "mesh_size": 201}, "reps": 2}


def test_nonpositive_strong_batch_is_a_config_error(capsys, tmp_path):
    spec = dict(STRONG, schedule={"N_grid": [4], "m": 0})
    assert_config_error(capsys, tmp_path, "strong", spec, "schedule m must be >= 1")


def test_oversized_exact_strong_batch_is_a_config_error(capsys, tmp_path):
    spec = dict(STRONG, method="exact", schedule={"N_grid": [4], "m": 600})
    assert_config_error(capsys, tmp_path, "strong", spec, "schedule m must be <= 512")


def test_greedy_method_is_a_config_error(capsys, tmp_path):
    # The greedy assignment was removed; exact is the only transport method.
    spec = dict(STRONG, method="greedy", schedule={"N_grid": [4], "m": 600})
    assert_config_error(capsys, tmp_path, "strong", spec, "unknown coupling method 'greedy'")
