"""The empbridge benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload approx-intervals [--seed 20260815]
                             [--seconds 8] [--trace 0|1]

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it runs the workload in one traced process and reports the
per-layer metrics. Every run checks the program's outputs; README.md names
the workloads, the metrics and which layer metric should move which
end-to-end metric. The program is imported from ``src`` of the checkout and
runs in child processes with BLAS threads pinned to 1. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. When a correctness check fails, ``correct`` is false and the exit
code is 1; when the benchmark cannot run, it exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0  # a run must end within 180 s, children included
SETUP_PROBES = 2  # before and again after the timed process
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
N_GRID = [256, 1024, 4096, 16384]
VC = {"type": "vc", "c0": 1.0, "nu0": 1.0}
CLI_COMMANDS = ("rates", "entropy", "couple", "bounds-audit")
# Fresh-interpreter launches of each run; rates, the command criterion 1
# bounds, twice.
CLI_COLD_ROUND = ("rates", "entropy", "couple", "rates", "bounds-audit")
# couple runs of the one-shot workload's accuracy guard, one per seed, in
# chunks between the timed rounds.
ACCURACY_COUPLES, ACCURACY_CHUNK = 320, 40


class BenchError(RuntimeError):
    """The benchmark itself cannot run or cannot see what it measures."""


# -- workloads ------------------------------------------------------------------


def approx_spec(seed: int, cls: dict, selection: dict, ot_batch, reps: int) -> dict:
    return {
        "kind": "gauss-approx",
        "class": cls,
        "distribution": {"kind": "uniform"},
        "selection": selection,
        "n_grid": N_GRID,
        "ot_batch": ot_batch,
        "reps": reps,
        "workers": 1,
        "seed": seed,
    }


def strong_spec(seed: int) -> dict:
    return {
        "kind": "strong-approx",
        "class": {"kind": "intervals"},
        "distribution": {"kind": "uniform"},
        "selection": VC,
        "schedule": {"N_grid": [4, 6, 8], "m": 48},
        "reps": 8,
        "workers": 2,
        "seed": seed,
    }


def derived_seed(seed: int, label: str) -> int:
    """Master seed of one part of a run, unrelated to those of nearby seeds."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{label}".encode()).digest()[:8], "little")


def seed_chunks(spec: dict, chunks: int) -> list:
    """``chunks`` copies of ``spec``, each with its own derived master seed."""
    return [dict(spec, seed=derived_seed(spec["seed"], f"accuracy/{j}")) for j in range(chunks)]


def largest_n(chunks: int, reps: int):
    """Accuracy chunks: the timed config at its largest n only, ``reps`` each.

    Replication r draws from stream r whatever the n grid, so each chunk's
    rows are the rows the full grid would give at that n.
    """

    def accuracy(spec: dict) -> list:
        batch = spec["ot_batch"][-1] if isinstance(spec["ot_batch"], list) else spec["ot_batch"]
        top = dict(spec, n_grid=spec["n_grid"][-1:], ot_batch=batch, reps=reps, workers=2)
        return seed_chunks(top, chunks)

    return accuracy


# Layers each workload exercises; a traced run that records no call of one of
# them fails.
BATCH_LAYERS = (
    "seeds.rng",
    "distributions.draw",
    "function_classes.evaluate_matrix",
    "coupling.construct_joint",
    "coupling.ot_couple",
    "coupling.prepare_coupling",
    "function_classes.build_grid",
    "bridge.factorize",
    "bridge.conditional_law",
    "bridge.extend_from_law",
    "experiments.orchestration",
)

# ``spec`` is the config that timed and traced repeats run, short enough that
# a run holds many of them. ``accuracy`` maps it to the chunks of the run that
# gives the accuracy guard: enough replications at the largest size that their
# median is steady from seed to seed (96, 20 and 40 replications).
WORKLOADS = {
    "approx-intervals": {
        "kind": "approx",
        "spec": lambda seed: approx_spec(seed, {"kind": "intervals"}, VC, [64, 128, 256, 512], 3),
        "accuracy": largest_n(4, 24),
        "layers": BATCH_LAYERS,
    },
    "approx-holder": {
        "kind": "approx",
        "spec": lambda seed: approx_spec(seed, {"kind": "holder"}, {"type": "br", "b0": 0.1, "r0": 0.75}, 256, 1),
        "accuracy": largest_n(2, 10),
        "layers": BATCH_LAYERS,
    },
    "strong-intervals": {
        "kind": "strong",
        "spec": strong_spec,
        "accuracy": lambda spec: seed_chunks(spec, 5),
        "layers": BATCH_LAYERS + ("blocking.run_sequential",),
    },
    "cli-oneshot": {
        "kind": "cli",
        "layers": (
            "function_classes.covering_certificate",
            "bounds.audit",
            "coupling.construct_joint",
            "experiments.orchestration",
        ),
    },
}


def replications(kind: str, spec: dict) -> int:
    """Rows an approx run yields, or paths a strong run yields."""
    sizes = spec["n_grid"] if kind == "approx" else spec["schedule"]["N_grid"]
    return len(sizes) * spec["reps"]


def expected_joint_calls(kind: str, spec: dict) -> int:
    """construct_joint calls one run makes, derived from the config alone.

    A polynomial schedule with N blocks has blocks k = 0..N of sizes 1 and
    floor(k^alpha) >= 1, and every nonempty block is coupled once.
    """
    if kind == "approx":
        return replications(kind, spec)
    return spec["reps"] * sum(N + 1 for N in spec["schedule"]["N_grid"])


def cli_argv(cmd: str, seed: int, round_: int) -> list:
    """Arguments of one command run; each round uses its own master seed.

    ``couple`` reads perfbench/couple.json: one realization at n = 16384 with
    a transport batch of 512, whose cost is steady enough to guard accuracy.
    """
    argv = [cmd, "--check"]
    if cmd == "couple":
        argv += ["--config", os.path.join(HERE, "couple.json")]
    if cmd != "rates":  # rates draws nothing
        argv += ["--seed", str((seed + round_) % 2**64)]
    return argv


def accuracy_couple_argv(seed: int, i: int) -> list:
    """The i-th ``couple`` run of the one-shot workload's accuracy guard.

    perfbench/couple-accuracy.json asks for n = 1024 with a batch of 128: one
    realization costs about 15 ms, so a run affords hundreds of seeds.
    """
    config = os.path.join(HERE, "couple-accuracy.json")
    return ["couple", "--check", "--config", config, "--seed", str(derived_seed(seed, f"couple/{i}"))]


# -- processes ------------------------------------------------------------------


class Runner:
    """Starts the child processes of one run and keeps its deadline."""

    def __init__(self, root: str):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **BLAS_ENV)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.root = root

    def launch(self, argv: list) -> tuple:
        """Run one child to completion: (exit code, stdout, stderr, wall seconds)."""
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(argv[1:3])} ran past the deadline") from None
        finally:
            if proc.poll() is None:  # kill the whole group: pool workers too
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        return proc.returncode, out, err, time.perf_counter() - started

    def child(self, mode: str, job: dict) -> dict:
        argv = [sys.executable, os.path.join(HERE, "child.py"), mode, json.dumps(job)]
        code, out, err, _ = self.launch(argv)
        if code != 0:
            raise BenchError(f"child {mode} exited {code}: {err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def setup_probe(self, job: dict) -> float:
        """CPU seconds a fresh interpreter spends up to the end of its set-up.

        CPU time rather than wall time, so that other load on the machine
        moves it less.
        """
        return self.child("setup", job)["cpu_s"]


# -- measurements ---------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "?"


def machine(versions: dict) -> dict:
    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        "?",
    )
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = {
        f"L{_read(os.path.join(base, i, 'level'))}-{_read(os.path.join(base, i, 'type'))}": _read(
            os.path.join(base, i, "size")
        )
        for i in (sorted(os.listdir(base)) if os.path.isdir(base) else ())
        if i.startswith("index")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "platform": platform.platform(),
        **versions,
        "blas_threads": BLAS_ENV,
    }


def peak_rss_mb() -> float:
    """Largest peak resident set of any process of this run that has ended."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def batch_e2e(run: Runner, name: str, seed: int, seconds: float) -> tuple:
    work = WORKLOADS[name]
    kind, spec = work["kind"], work["spec"](seed)
    accuracy_specs = work["accuracy"](spec)
    other_workers = 2 if spec["workers"] == 1 else 1
    reference_spec = dict(spec, workers=other_workers)
    probe = {"kind": kind, "spec": dict(spec, workers=1), "units": replications(kind, spec)}
    setups = [run.setup_probe(probe) for _ in range(SETUP_PROBES)]
    timed = run.child(
        "timed",
        {"kind": kind, "spec": spec, "reference": reference_spec, "accuracy": accuracy_specs, "seconds": seconds},
    )
    setups += [run.setup_probe(probe) for _ in range(SETUP_PROBES)]
    reference, accuracy, repeats = timed["reference"], timed["accuracy"], timed["repeats"]
    runs = [(reference, replications(kind, spec))]
    runs += [(a, replications(kind, a_spec)) for a, a_spec in zip(accuracy, accuracy_specs)]
    runs += [(r, replications(kind, spec)) for r in repeats]
    attempted = sum(units for _, units in runs)
    failed = sum(units if "aborted" in r else r["failures"] for r, units in runs)
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} replications failed")
    if not all(r.get("finite") for r, _ in runs):
        problems.append("non-finite discrepancy or cost values")
    if {r.get("digest") for r in repeats} != {reference.get("digest")}:
        problems.append(
            f"result CSV differs between repeats (workers={spec['workers']}) "
            f"or from the reference run (workers={other_workers})"
        )
    errors = [e for a in accuracy for e in a.get("top_errors", [])]
    done = [r for r in repeats if "aborted" not in r]
    metrics = {
        "setup_s": statistics.median(setups),
        "reps_per_s": sum(r["rows"] for r in done) / sum(r["wall_s"] for r in done) if done else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": (attempted - failed) / attempted,
        "coupling_sup_p50": statistics.median(errors) if errors else 0.0,
    }
    report = {
        "config": spec,
        "accuracy_configs": accuracy_specs,
        "versions": timed["versions"],
        "digest": reference.get("digest"),
        "accuracy_digests": [a.get("digest") for a in accuracy],
        "setup_cpu_samples_s": setups,
        "repeat_walls_s": [r["wall_s"] for r in repeats],
        **{k: reference[k] for k in ("sup_grid_medians", "decay_slope") if k in reference},
    }
    return metrics, report, attempted, failed, problems


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def cli_e2e(run: Runner, seed: int, seconds: float) -> tuple:
    """Cold launches, import probes around them, then in-process commands."""
    imports = [run.child("import", {})["import_cpu_s"] for _ in range(SETUP_PROBES)]
    cold: dict = {}
    codes, problems = [], []
    for cmd in CLI_COLD_ROUND:
        argv = cli_argv(cmd, seed, 0)
        code, _, err, wall = run.launch([sys.executable, "-m", "empbridge.cli"] + argv)
        cold.setdefault(cmd, []).append(wall)
        codes.append(code)
        if code != 0:
            problems.append(f"{' '.join(argv)} exited {code}: {err.strip()[-300:]}")
    job = {"seed": seed, "seconds": seconds, "accuracy_couples": ACCURACY_COUPLES, "chunk": ACCURACY_CHUNK}
    warm = run.child("commands", job)
    imports += [run.child("import", {})["import_cpu_s"] for _ in range(SETUP_PROBES)]
    warm_codes = [c["code"] for c in warm["couples"]] + [c for s in warm["summaries"] for c in s["codes"]]
    codes += warm_codes
    if any(c != 0 for c in warm_codes):
        problems.append(f"{sum(1 for c in warm_codes if c != 0)} in-process commands exited non-zero")
    docs = [c["couple"] for c in warm["couples"] if c["couple"] is not None]
    if not all(_finite(d[k]) for d in docs for k in ("sup_grid", "sup_mesh", "transport_cost")):
        problems.append("couple values not finite")
    launches = [w for ws in cold.values() for w in ws]
    failed = sum(1 for c in codes if c != 0)
    metrics = {
        "setup_s": statistics.median(imports),
        "reps_per_s": len(CLI_COMMANDS) * len(warm["walls"]) / sum(warm["walls"]),
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": (len(codes) - failed) / len(codes),
        "coupling_sup_p50": statistics.median(d["sup_grid"] for d in docs) if docs else 0.0,
    }
    report = {
        "commands": [" ".join(cli_argv(cmd, seed, 0)) for cmd in CLI_COMMANDS],
        "accuracy_command": " ".join(accuracy_couple_argv(seed, 0)),
        "rounds": len(warm["walls"]),
        "import_cpu_samples_s": imports,
        "cold_launch_s": cold,
        "rates_cold_s.p50": statistics.median(cold["rates"]),
        "cmd_cold_s.p50": statistics.median(launches),
    }
    return metrics, report, len(codes), failed, problems


def traced(run: Runner, name: str, seed: int, seconds: float) -> tuple:
    """Per-layer metrics of one traced process, with the coverage guard."""
    work = WORKLOADS[name]
    kind = work["kind"]
    if kind == "cli":
        job = {"kind": kind, "seed": seed, "seconds": seconds}
        joint_calls = 1
    else:
        # One process: a pool would hide calls from the tracer, and the output
        # does not depend on the worker count.
        spec = dict(work["spec"](seed), workers=1)
        job = {"kind": kind, "spec": spec, "seconds": seconds}
        joint_calls = expected_joint_calls(kind, spec)
    result = run.child("traced", job)
    snaps, counts, summaries = result["snapshots"], result["counts"], result["summaries"]
    if any(c != counts[0] for c in counts):
        raise BenchError("layer counts differ between traced repeats of one config")
    idle = [layer for layer in work["layers"] if counts[0][layer]["calls"] == 0]
    if idle:
        raise BenchError(f"traced run recorded no call of {idle}")
    if counts[0]["coupling.construct_joint"]["calls"] != joint_calls:
        raise BenchError(
            f"construct_joint called {counts[0]['coupling.construct_joint']['calls']} times, "
            f"the config implies {joint_calls}"
        )
    problems = []
    if kind == "cli":
        attempted = sum(len(s["codes"]) for s in summaries)
        failed = sum(1 for s in summaries for c in s["codes"] if c != 0)
        if failed:
            problems.append(f"{failed} in-process commands exited non-zero")
    else:
        units = replications(kind, spec)
        attempted = units * len(summaries)
        failed = sum(units if "aborted" in s else s["failures"] for s in summaries)
        if failed:
            problems.append(f"{failed} of {attempted} replications failed")
        if len({s.get("digest") for s in summaries}) != 1:
            problems.append("result CSV differs between traced and untraced runs")
        if not all(s.get("finite") for s in summaries):
            problems.append("non-finite discrepancy or cost values")
    metrics = {k: statistics.median_low(s[k] for s in snaps) for k in snaps[0]}
    metrics.update(result["prologue"])
    metrics["trace.overhead_ratio"] = statistics.median(result["traced_walls"]) / statistics.median(
        result["plain_walls"]
    )
    report = {
        "job": job,
        "versions": result["versions"],
        "traced_repeats": len(snaps),
        "plain_walls_s": result["plain_walls"],
        "traced_walls_s": result["traced_walls"],
        "digest": sorted({s["digest"] for s in summaries if "digest" in s}),
    }
    return metrics, report, attempted, failed, problems


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20260815)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "empbridge", "__init__.py")):
        print("error: run from the root of an empbridge checkout (src/empbridge missing)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    run = Runner(root)
    try:
        warm = run.child("import", {})  # also writes the byte code before timing
        if args.trace:
            measured = traced(run, args.workload, args.seed, args.seconds)
        elif args.workload == "cli-oneshot":
            measured = cli_e2e(run, args.seed, args.seconds)
        else:
            measured = batch_e2e(run, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics, report, attempted, failed, problems = measured
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    report.update(workload=args.workload, seed=args.seed, trace=args.trace, problems=problems)
    report["machine"] = machine(warm["versions"])
    print(json.dumps({"report": report}, sort_keys=True))
    for m in wanted:
        print(f"{m['name']:45s} {metrics[m['name']]:.6g} {m['unit']}")
    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
