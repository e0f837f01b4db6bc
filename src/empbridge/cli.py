"""Command-line interface.

Six subcommands. ``rates`` prints exact rate exponents and reads no config.
The other five, listed once in ``_COMMANDS``, take one path: each names an
experiment kind, builds its config from a JSON file (or built-in defaults)
and the run-setting flags, runs it through ``experiments.run``, and writes
the result to ``--out`` or stdout. Every subcommand accepts ``--check``,
which appends one pass/fail line per self-check and exits 4 on any failure;
a config command's checks are the entries that its kind's ``_CHECKS``
function reads off the result.

Exit codes: 0 success, 2 configuration or domain error, 3 numeric, capacity
or out-of-memory error, 4 failed check.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction

from .errors import CapacityError, ConfigError, NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

# Config-reading command -> (the experiment kind it runs, its help), in help order.
_COMMANDS = {
    "entropy": ("entropy", "covering/bracketing counts and fits"),
    "couple": ("couple", "one coupling realization as JSON"),
    "approx": ("gauss-approx", "replicated couplings across an n grid"),
    "strong": ("strong-approx", "sequential block constructions"),
    "bounds-audit": ("bounds-audit", "evaluate the inequality battery"),
}


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after.

    Reuse is safe: ``parse_args`` returns a fresh namespace on every call,
    usage and errors go to the ``sys.stdout``/``sys.stderr`` of the moment,
    and a rejected flag leaves the parser as it was.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), help="table output format")
    common.add_argument(
        "--check", action="store_true", help="run self-checks; exit 4 on failure"
    )
    run = argparse.ArgumentParser(add_help=False, parents=[common])
    run.add_argument("--config", metavar="PATH", help="JSON experiment config")
    run.add_argument("--seed", type=_u64, metavar="U64", help="master seed override")
    run.add_argument("--out", metavar="DIR", help="output directory (default: stdout)")
    run.add_argument("--workers", type=_positive, metavar="N", help="process pool size")

    parser = argparse.ArgumentParser(
        prog="empbridge",
        description="Gaussian coupling laboratory for empirical processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rates = sub.add_parser(
        "rates", parents=[common], help="print exact rate exponents as fractions"
    )
    rates.add_argument("--nu0", metavar="Q", help="polynomial entropy index (rational)")
    rates.add_argument("--alpha", metavar="Q", help="block growth exponent (rational)")
    rates.add_argument("--r0", metavar="Q", help="exponential entropy index (rational)")

    for command, (_, summary) in _COMMANDS.items():
        sub.add_parser(command, parents=[run], help=summary)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (NumericError, CapacityError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _dispatch(args) -> int:
    if args.command == "rates":
        return _cmd_rates(args)
    from .experiments import _RUN_SETTINGS, ExperimentConfig, load_config, run

    kind = _COMMANDS[args.command][0]
    config = load_config(args.config, kind) if args.config else ExperimentConfig(kind=kind)
    flags = {name: getattr(args, name) for name in _RUN_SETTINGS if name != "kind"}
    config = replace(config, **{name: v for name, v in flags.items() if v is not None})
    result = run(config)
    _write_or_print(config, result, kind)
    return _report_checks(_CHECKS[kind](config, result)) if args.check else EXIT_OK


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ConfigError(f"{flag}: {text!r} has a zero denominator") from None
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _rates(nu0, alpha, r0) -> dict:
    """The exponents that ``rates`` prints, by name, from the flags' texts:
    the polynomial ones at ``nu0`` (with ``alpha``, the block growth one),
    the exponential ones at ``r0``. With neither index given, nu0 = 1 and
    r0 = 3/4, and alpha = 5 unless given."""
    from .exponents import rate_br, rate_thm1, rate_thm2, rate_vc

    if nu0 is None and r0 is None:
        nu0, r0 = "1", "3/4"
        alpha = "5" if alpha is None else alpha
    values: dict[str, Fraction] = {}
    if nu0 is not None:
        values["tau1"], values["tau2"] = rate_vc(_parse_fraction(nu0, "--nu0"))
        if alpha is not None:
            values["tau(alpha)"] = rate_thm1(_parse_fraction(alpha, "--alpha"), values["tau1"])
    elif alpha is not None:
        raise ConfigError("--alpha requires --nu0")
    if r0 is not None:
        values["kappa"] = rate_br(_parse_fraction(r0, "--r0"))
        values["theta"], values["tau"] = rate_thm2(values["kappa"])
    return values


# The exponents at the default indices that ``rates --check`` knows:
# (name, the indices it is taken at, its value).
_KNOWN_RATES = (
    ("tau1", "nu0=1", Fraction(1, 7)),
    ("tau2", "nu0=1", Fraction(9, 14)),
    ("tau(alpha)", "nu0=1 alpha=5", Fraction(1, 28)),
    ("kappa", "r0=3/4", Fraction(1, 6)),
    ("theta", "r0=3/4", Fraction(1, 18)),
    ("tau", "r0=3/4", Fraction(1, 15)),
)


def _cmd_rates(args) -> int:
    if args.check:
        got = _rates(None, None, None)
        return _report_checks(
            (f"rates {name} at {at}", got[name] == want, f"got {got[name]}, want {want}")
            for name, at, want in _KNOWN_RATES
        )
    values = _rates(args.nu0, args.alpha, args.r0)
    if args.format == "json":
        print(json.dumps({k: str(v) for k, v in values.items()}, indent=2))
    else:
        for name, value in values.items():
            print(f"{name} = {value}")
    return EXIT_OK


def _report_checks(checks) -> int:
    failed = 0
    for name, ok, detail in checks:
        if ok:
            print(f"check {name}: pass")
        else:
            print(f"check {name}: fail ({detail})")
            failed += 1
    return EXIT_CHECK if failed else EXIT_OK


def _write_or_print(config, obj, stem: str) -> None:
    from .experiments import ResultTable, emit, render

    fmt = config.format if isinstance(obj, ResultTable) else "json"
    if config.out:
        path = os.path.join(config.out, f"{stem}.{fmt}")
        emit(obj, path, fmt)
        print(path)
    else:
        sys.stdout.write(render(obj, fmt))


# -- self-checks: (config, result) -> [(name, ok, detail), ...] ------------------


def _check_approx(config, table) -> list:
    from .experiments import fit_rate
    from .exponents import rate_vc

    if config.selection.kind == "vc":
        tau1 = float(rate_vc(config.selection.nu0)[0])
        fit = fit_rate(table, "power")
        ok = fit.slope <= -0.07
        detail = f"slope {fit.slope:.4f}, need <= -0.07, theory {-tau1:.4f}"
    else:
        fit = fit_rate(table, "logpower")
        ok = fit.slope < 0
        detail = f"slope {fit.slope:.4f} vs log log n, need < 0"
    return [("approx decay rate", ok, detail)]


def _check_strong(config, table) -> list:
    import numpy as np

    groups: dict[int, list[float]] = {}
    for n_val, norm in zip(table.column("N"), table.column("normalized")):
        groups.setdefault(n_val, []).append(norm)
    medians = [float(np.median(groups[k])) for k in sorted(groups)]
    if len(medians) < 2:
        return [("strong normalized trend", False, "need at least 2 block counts")]
    detail = f"normalized medians {['%.4g' % v for v in medians]}"
    return [("strong normalized trend", medians[-1] < medians[0], detail)]


def _check_entropy(config, table) -> list:
    uppers = table.column("cover_upper")
    ok_mono = all(b >= a for a, b in zip(uppers, uppers[1:]))
    ordered = all(lo <= up for _, lo, up, _, _ in table.rows)
    tight = all(not exact or lo == up for _, lo, up, exact, _ in table.rows)
    return [
        ("entropy counts grow as radius shrinks", ok_mono, f"upper counts {uppers}"),
        ("entropy lower bounds below upper", ordered, str(table.rows)),
        ("entropy exact certificates tight", tight, str(table.rows)),
    ]


def _check_couple(config, doc) -> list:
    finite = all(
        math.isfinite(doc[key]) for key in ("sup_grid", "sup_mesh", "transport_cost")
    )
    return [
        ("couple values finite", finite, str(doc)),
        ("couple cost nonnegative", doc["transport_cost"] >= 0.0, str(doc["transport_cost"])),
        ("couple grid nonempty", doc["grid_size"] >= 1, str(doc["grid_size"])),
    ]


def _check_bounds_audit(config, reports) -> list:
    checks = [
        (f"bounds {r['name']} preconditions", r["preconditions_ok"], str(r["failing_condition"]))
        for r in reports
    ]
    return checks + [_gaussian_tail_check()]


def _gaussian_tail_check():
    """The Borell tail of |Z|, Z ~ N(0, 1), about its median m = Phi^-1(3/4)
    against the exact tail P(|Z| > m + t) = erfc((m + t) / sqrt(2))."""
    from .bounds import borell_tail

    median = 0.6744897501960817
    fails = []
    for t in (0.5, 1.0, 2.0):
        exact, bound = math.erfc((median + t) / math.sqrt(2.0)), borell_tail(t, 1.0)
        if exact > bound:
            fails.append(f"t={t}: exact {exact:.5f} > bound {bound:.5f}")
    return ("bounds gaussian tail exact", not fails, "; ".join(fails))


# Experiment kind -> its self-checks.
_CHECKS = {
    "gauss-approx": _check_approx,
    "strong-approx": _check_strong,
    "entropy": _check_entropy,
    "couple": _check_couple,
    "bounds-audit": _check_bounds_audit,
}


if __name__ == "__main__":
    sys.exit(main())
