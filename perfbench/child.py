"""One fresh interpreter of the benchmark: ``python3 child.py <mode> <job-json>``.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS threads pinned to 1, and reads the JSON object it prints as
its last line. Each mode imports ``empbridge`` itself, timing the import.
Modes:

- ``import``: CPU time of ``import empbridge``; report library versions.
- ``setup``: run a batch workload up to each replication and stop there;
  report the process's CPU time at that point.
- ``timed``: a reference run of a batch workload, then short timed repeats
  for the job's seconds, interleaved with the chunks of its accuracy run;
  tracing off.
- ``commands``: rounds of the one-shot commands in this process for the
  job's seconds, interleaved with chunks of accuracy couplings; tracing off.
- ``traced``: alternate untraced and traced repeats of a workload in this one
  process, so that the tracer sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import sys
import time


def _import_empbridge() -> float:
    start = time.perf_counter()
    import empbridge  # noqa: F401  (the import is what is timed)

    return time.perf_counter() - start


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


# -- batch workloads ----------------------------------------------------------


def _runner(kind: str):
    from empbridge import experiments

    return experiments.run_gauss_approx if kind == "approx" else experiments.run_strong_approx


def _summarize(kind: str, table) -> dict:
    """Checks and accuracy figures of one result table (or abort message).

    ``top_errors`` are the sup-norm coupling errors at the largest size:
    ``sup_grid`` at the largest n, or ``normalized`` at the largest N.
    """
    import numpy as np

    if isinstance(table, str):
        return {"aborted": table}
    cols = ("sup_grid", "sup_mesh", "transport_cost") if kind == "approx" else ("max_discrepancy", "normalized")
    sizes = np.array(table.column("n" if kind == "approx" else "N"))
    out = {
        "digest": hashlib.sha256(table.to_csv_text().encode()).hexdigest(),
        "rows": len(table.rows),
        "failures": int(table.meta["failures"]),
        "finite": all(math.isfinite(v) for c in cols for v in table.column(c)),
    }
    if not len(sizes):
        return out
    err = np.array(table.column("sup_grid" if kind == "approx" else "normalized"))
    out["top_errors"] = err[sizes == sizes.max()].tolist()
    if kind == "approx":
        ns = sorted(set(sizes.tolist()))
        medians = [float(np.median(err[sizes == n])) for n in ns]
        out["sup_grid_medians"] = dict(zip(map(str, ns), medians))
        if len(ns) >= 2 and min(medians) > 0:
            out["decay_slope"] = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    return out


def _run_once(kind: str, spec: dict) -> tuple:
    """(wall seconds, result table or the abort message) of one run."""
    from empbridge import experiments
    from empbridge.errors import NumericError

    config = experiments.config_from_dict(spec)
    start = time.perf_counter()
    try:
        table = _runner(kind)(config)
    except NumericError as exc:  # the run aborted under the one-percent rule
        return time.perf_counter() - start, str(exc)
    return time.perf_counter() - start, table


def mode_setup(job: dict) -> dict:
    """Everything a batch run does before its first replication, per n.

    The replication call, looked up where the runner looks it up, is replaced
    by one that fails at once. Failures are isolated per replication, so the
    runner still visits every n (or block count) and prepares it, then aborts
    under the one-percent rule, which ends the probe. The result is the CPU
    time of this process from its start, interpreter start-up included.
    """
    _import_empbridge()
    from empbridge import experiments
    from empbridge.errors import NumericError

    name = "construct_joint" if job["kind"] == "approx" else "run_sequential"
    if not callable(getattr(experiments, name, None)):
        raise SystemExit(f"setup probe: experiments.{name} not found")
    stubbed = []

    def replication(*args, **kwargs):
        stubbed.append(1)
        raise NumericError("setup probe stops here")

    setattr(experiments, name, replication)
    try:
        _runner(job["kind"])(experiments.config_from_dict(job["spec"]))
    except NumericError:
        pass
    cpu_s = time.process_time()
    if len(stubbed) != job["units"]:
        raise SystemExit(f"setup probe saw {len(stubbed)} replications, expected {job['units']}")
    return {"cpu_s": cpu_s}


def _interleave(repeat, chunks: list, seconds: float) -> tuple:
    """Timed repeats alternating with untimed accuracy chunks.

    Spread over the whole run rather than one window, the timed repeats pass
    over the machine's slow spells instead of landing in one. Repeats go on
    until every chunk has run, there are at least three, and their wall
    times sum to ``seconds``. Returns (walls, repeat results, chunk results).
    """
    walls, results, done = [], [], []
    pending = list(chunks)
    while pending or len(walls) < 3 or sum(walls) < seconds:
        wall, result = repeat(len(walls))
        walls.append(wall)
        results.append(result)
        if pending:
            done.append(pending.pop(0)())
    return walls, results, done


def _summarized_run(kind: str, spec: dict) -> tuple:
    wall, table = _run_once(kind, spec)
    return wall, _summarize(kind, table)


def mode_timed(job: dict) -> dict:
    """A reference run, then timed repeats interleaved with accuracy chunks.

    The reference run is the timed config with the other worker count; every
    timed repeat must reproduce its CSV byte for byte. The accuracy chunks are
    fixed configs at the largest size only; together they give the accuracy
    guard, which does not depend on how fast the program is.
    """
    _import_empbridge()
    kind = job["kind"]
    reference = _summarized_run(kind, job["reference"])[1]
    chunks = [functools.partial(_summarized_run, kind, spec) for spec in job["accuracy"]]
    walls, repeats, accuracy = _interleave(
        lambda _: _summarized_run(kind, job["spec"]), chunks, job["seconds"]
    )
    return {
        "versions": _versions(),
        "reference": reference,
        "accuracy": [summary for _, summary in accuracy],
        "repeats": [dict(summary, wall_s=wall) for wall, summary in zip(walls, repeats)],
    }


# -- one-shot commands and traced runs ----------------------------------------


def _command(argv: list) -> tuple:
    """Run one CLI command in this process: (exit code, standard output)."""
    from empbridge import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _prologue() -> dict:
    """Import time and whether the ``rates`` command loads scipy."""
    import_s = _import_empbridge()
    rc = _command(["rates"])[0]
    if rc != 0:
        raise SystemExit(f"rates exited {rc}")
    return {"import.empbridge.s": import_s, "import.rates_loads_scipy": int("scipy" in sys.modules)}


def _cli_round(seed: int, round_: int) -> tuple:
    """Run each one-shot command in this process: (wall seconds, summary)."""
    from run import CLI_COMMANDS, cli_argv

    codes = []
    start = time.perf_counter()
    for cmd in CLI_COMMANDS:
        codes.append(_command(cli_argv(cmd, seed, round_))[0])
    return time.perf_counter() - start, {"codes": codes}


def _repeat(job: dict, round_: int) -> tuple:
    if job["kind"] == "cli":
        return _cli_round(job["seed"], round_)
    wall, result = _run_once(job["kind"], job["spec"])
    return wall, _summarize(job["kind"], result)


def _accuracy_couples(seed: int, indices: range) -> list:
    """``couple`` once per seed of the accuracy guard's fixed list."""
    from run import accuracy_couple_argv

    out = []
    for i in indices:
        code, text = _command(accuracy_couple_argv(seed, i))
        out.append({"code": code, "couple": json.JSONDecoder().raw_decode(text)[0] if code == 0 else None})
    return out


def mode_commands(job: dict) -> dict:
    """Rounds of the one-shot commands interleaved with accuracy couplings.

    Round r uses master seed seed + r. The accuracy couplings come in fixed
    chunks of a fixed seed list, so the guard is the same whatever the speed.
    """
    _import_empbridge()
    seed, size = job["seed"], job["chunk"]
    _cli_round(seed, 0)  # warm-up, untimed
    chunks = [
        functools.partial(_accuracy_couples, seed, range(i, i + size))
        for i in range(0, job["accuracy_couples"], size)
    ]
    walls, summaries, couples = _interleave(lambda r: _cli_round(seed, r), chunks, job["seconds"])
    return {"couples": [c for chunk in couples for c in chunk], "walls": walls, "summaries": summaries}


def mode_traced(job: dict) -> dict:
    from tracer import Tracer

    prologue = _prologue()
    tracer = Tracer()
    plain_walls, traced_walls, snaps, counts = [], [], [], []
    # One untimed repeat first, so that neither side of the first pair pays
    # the process's warm-up (first large allocations, lazy imports).
    summaries = [_repeat(job, 0)[1]]
    begin = time.perf_counter()
    while not snaps or time.perf_counter() - begin < job["seconds"]:
        wall, summary = _repeat(job, len(snaps))
        plain_walls.append(wall)
        summaries.append(summary)
        tracer.reset()
        tracer.install()
        try:
            wall, summary = _repeat(job, len(snaps))
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        summaries.append(summary)
        snaps.append(tracer.snapshot())
        counts.append(tracer.counts())
    return {
        "versions": _versions(),
        "prologue": prologue,
        "plain_walls": plain_walls,
        "traced_walls": traced_walls,
        "snapshots": snaps,
        "counts": counts,
        "summaries": summaries,
    }


def mode_import(job: dict) -> dict:
    start = time.process_time()
    _import_empbridge()
    return {"import_cpu_s": time.process_time() - start, "versions": _versions()}


MODES = {
    "import": mode_import,
    "setup": mode_setup,
    "timed": mode_timed,
    "commands": mode_commands,
    "traced": mode_traced,
}

if __name__ == "__main__":
    mode, job = sys.argv[1], json.loads(sys.argv[2])
    result = MODES[mode](job)
    print(json.dumps(result))
