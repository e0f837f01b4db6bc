"""Command-line interface.

Six subcommands: ``rates`` prints exact rate exponents and reads no config;
``entropy``, ``couple``, ``approx``, ``strong``, and ``bounds-audit`` each run
one experiment kind from a JSON config (or built-in defaults), writing tables
to ``--out`` or stdout. Every subcommand accepts ``--check``, which appends
one pass/fail line per self-check and exits 4 on any failure.

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

_KIND_BY_COMMAND = {
    "approx": "gauss-approx",
    "strong": "strong-approx",
    "entropy": "entropy",
    "couple": "couple",
    "bounds-audit": "bounds-audit",
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

    sub.add_parser("entropy", parents=[run], help="covering/bracketing counts and fits")
    sub.add_parser("couple", parents=[run], help="one coupling realization as JSON")
    sub.add_parser("approx", parents=[run], help="replicated couplings across an n grid")
    sub.add_parser("strong", parents=[run], help="sequential block constructions")
    sub.add_parser("bounds-audit", parents=[run], help="evaluate the inequality battery")
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
    from .experiments import _RUN_SETTINGS, ExperimentConfig, load_config

    kind = _KIND_BY_COMMAND[args.command]
    config = load_config(args.config, kind) if args.config else ExperimentConfig(kind=kind)
    flags = {name: getattr(args, name) for name in _RUN_SETTINGS if name != "kind"}
    config = replace(config, **{name: v for name, v in flags.items() if v is not None})
    handler = {
        "gauss-approx": _cmd_approx,
        "strong-approx": _cmd_strong,
        "entropy": _cmd_entropy,
        "couple": _cmd_couple,
        "bounds-audit": _cmd_bounds_audit,
    }[kind]
    return handler(config, args.check)


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ConfigError(f"{flag}: {text!r} has a zero denominator") from None
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _cmd_rates(args) -> int:
    from .exponents import rate_br, rate_thm1, rate_thm2, rate_vc

    if args.check:
        return _check_rates()
    nu0, alpha, r0 = args.nu0, args.alpha, args.r0
    if nu0 is None and r0 is None:
        nu0, r0 = "1", "3/4"
        alpha = "5" if alpha is None else alpha
    values: dict[str, Fraction] = {}
    if nu0 is not None:
        tau1, tau2 = rate_vc(_parse_fraction(nu0, "--nu0"))
        values["tau1"] = tau1
        values["tau2"] = tau2
        if alpha is not None:
            values["tau(alpha)"] = rate_thm1(_parse_fraction(alpha, "--alpha"), tau1)
    elif alpha is not None:
        print("error: --alpha requires --nu0", file=sys.stderr)
        return EXIT_CONFIG
    if r0 is not None:
        kappa = rate_br(_parse_fraction(r0, "--r0"))
        theta, tau = rate_thm2(kappa)
        values["kappa"] = kappa
        values["theta"] = theta
        values["tau"] = tau
    if args.format == "json":
        print(json.dumps({k: str(v) for k, v in values.items()}, indent=2))
    else:
        for name, value in values.items():
            print(f"{name} = {value}")
    return EXIT_OK


def _check_rates() -> int:
    from .exponents import rate_br, rate_thm1, rate_thm2, rate_vc

    tau1, tau2 = rate_vc(1)
    kappa = rate_br(Fraction(3, 4))
    theta, tau = rate_thm2(kappa)
    checks = [
        ("rates tau1 at nu0=1", tau1, Fraction(1, 7)),
        ("rates tau2 at nu0=1", tau2, Fraction(9, 14)),
        ("rates tau(alpha) at nu0=1 alpha=5", rate_thm1(5, tau1), Fraction(1, 28)),
        ("rates kappa at r0=3/4", kappa, Fraction(1, 6)),
        ("rates theta at r0=3/4", theta, Fraction(1, 18)),
        ("rates tau at r0=3/4", tau, Fraction(1, 15)),
    ]
    return _report_checks(
        (name, got == want, f"got {got}, want {want}") for name, got, want in checks
    )


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


def _cmd_approx(config, check: bool) -> int:
    from .experiments import fit_rate, run_gauss_approx
    from .exponents import rate_vc

    table = run_gauss_approx(config)
    _write_or_print(config, table, "gauss-approx")
    if not check:
        return EXIT_OK
    if config.selection.kind == "vc":
        tau1 = float(rate_vc(config.selection.nu0)[0])
        fit = fit_rate(table, "power")
        ok = fit.slope <= -0.07
        detail = f"slope {fit.slope:.4f}, need <= -0.07, theory {-tau1:.4f}"
    else:
        fit = fit_rate(table, "logpower")
        ok = fit.slope < 0
        detail = f"slope {fit.slope:.4f} vs log log n, need < 0"
    return _report_checks([("approx decay rate", ok, detail)])


def _cmd_strong(config, check: bool) -> int:
    from .experiments import run_strong_approx
    import numpy as np

    table = run_strong_approx(config)
    _write_or_print(config, table, "strong-approx")
    if not check:
        return EXIT_OK
    groups: dict[int, list[float]] = {}
    for n_val, norm in zip(table.column("N"), table.column("normalized")):
        groups.setdefault(n_val, []).append(norm)
    medians = [float(np.median(groups[k])) for k in sorted(groups)]
    if len(medians) < 2:
        return _report_checks(
            [("strong normalized trend", False, "need at least 2 block counts")]
        )
    ok = medians[-1] < medians[0]
    detail = f"normalized medians {['%.4g' % v for v in medians]}"
    return _report_checks([("strong normalized trend", ok, detail)])


def _cmd_entropy(config, check: bool) -> int:
    from .experiments import run_entropy

    table = run_entropy(config)
    _write_or_print(config, table, "entropy")
    if not check:
        return EXIT_OK
    checks = []
    uppers = table.column("cover_upper")
    ok_mono = all(b >= a for a, b in zip(uppers, uppers[1:]))
    checks.append(
        ("entropy counts grow as radius shrinks", ok_mono, f"upper counts {uppers}")
    )
    ordered = True
    tight = True
    for eps, lo, up, exact, _ in table.rows:
        ordered = ordered and lo <= up
        tight = tight and (not exact or lo == up)
    checks.append(("entropy lower bounds below upper", ordered, str(table.rows)))
    checks.append(("entropy exact certificates tight", tight, str(table.rows)))
    return _report_checks(checks)


def _cmd_couple(config, check: bool) -> int:
    from .experiments import run_couple

    doc = run_couple(config)
    _write_or_print(config, doc, "couple")
    if not check:
        return EXIT_OK
    finite = all(
        math.isfinite(doc[key]) for key in ("sup_grid", "sup_mesh", "transport_cost")
    )
    checks = [
        ("couple values finite", finite, str(doc)),
        ("couple cost nonnegative", doc["transport_cost"] >= 0.0, str(doc["transport_cost"])),
        ("couple grid nonempty", doc["grid_size"] >= 1, str(doc["grid_size"])),
    ]
    return _report_checks(checks)


def _cmd_bounds_audit(config, check: bool) -> int:
    from .experiments import run_bounds_audit

    reports = run_bounds_audit(config)
    _write_or_print(config, reports, "bounds-audit")
    if not check:
        return EXIT_OK
    checks = []
    for rep in reports:
        if rep["preconditions_ok"]:
            checks.append((f"bounds {rep['name']} preconditions", True, ""))
        else:
            checks.append(
                (
                    f"bounds {rep['name']} preconditions",
                    False,
                    str(rep["failing_condition"]),
                )
            )
    checks.append(_gaussian_tail_check())
    return _report_checks(checks)


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


if __name__ == "__main__":
    sys.exit(main())
