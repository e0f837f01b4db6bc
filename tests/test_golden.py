"""Golden output bytes: small fixed-seed runs must reproduce pinned digests.

Refactors and speed-ups must keep the output bytes of an unchanged config and
seed. Each case runs one CLI command in a child interpreter with one BLAS
thread, writes its table (or JSON document) to a temporary directory, and
compares the SHA-256 of the file, or of the listed CSV columns, with the
digest recorded before the change. Output bytes depend on the BLAS thread
count (a multithreaded eigendecomposition can round differently), so every
case pins it, whatever the suite itself was launched with. A change that is
meant to alter the random streams must add a new seed phase and re-record
these digests, saying so in CHANGES.md.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from empbridge.cli import EXIT_OK

BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SEED = 20260815
INTERVALS = {"kind": "intervals", "M": 1.0, "mesh_size": 201}
APPROX = {"kind": "gauss-approx", "n_grid": [64, 256], "reps": 3, "ot_batch": 16, "seed": SEED}
APPROX_HOLDER = {
    "kind": "gauss-approx",
    "class": {"kind": "holder", "M": 1.0, "s": 1.0, "R": 1.0, "knots": 5, "mesh_size": 24},
    "distribution": {"kind": "uniform"},
    "selection": {"type": "br", "b0": 0.2, "r0": 0.5},
    "n_grid": [64, 256],
    "reps": 2,
    "ot_batch": 8,
    "eval_mesh_size": 24,
    "seed": SEED,
}
# Large enough (n up to 4096, a 64-member mesh) that the Hoelder kernel's
# cell search and column sums are exercised at benchmark-like sizes.
APPROX_HOLDER_BR = {
    "kind": "gauss-approx",
    "class": {"kind": "holder"},
    "distribution": {"kind": "uniform"},
    "selection": {"type": "br", "b0": 0.1, "r0": 0.75},
    "n_grid": [1024, 4096],
    "reps": 2,
    "ot_batch": 16,
    "seed": SEED,
}
# The gauss-approx columns that the order of a column sum's additions leaves
# alone: sup_grid takes the designated sample's matrix sum, and the auxiliary
# batch sums only choose the transport assignment.
GRID_COLUMNS = ("n", "rep", "seed", "epsilon", "delta", "t", "sup_grid")

CASES = {
    "approx-intervals-uniform": (
        "approx",
        dict(APPROX, **{"class": INTERVALS, "distribution": {"kind": "uniform"}}),
        "gauss-approx.csv",
    ),
    "approx-intervals-beta": (
        "approx",
        dict(APPROX, **{"class": INTERVALS, "distribution": {"kind": "beta", "a": 2.0, "b": 3.0}}),
        "gauss-approx.csv",
    ),
    "approx-intervals-discrete": (
        "approx",
        dict(
            APPROX,
            **{
                "class": INTERVALS,
                "distribution": {
                    "kind": "discrete",
                    "atoms": [0.25, 0.5, 0.75],
                    "weights": [0.3, 0.5, 0.2],
                },
            },
        ),
        "gauss-approx.csv",
    ),
    "approx-holder": ("approx", APPROX_HOLDER, "gauss-approx.csv"),
    "approx-holder-br": ("approx", APPROX_HOLDER_BR, "gauss-approx.csv"),
    "approx-holder-sup-grid": ("approx", APPROX_HOLDER, "gauss-approx.csv", GRID_COLUMNS),
    "approx-holder-br-sup-grid": ("approx", APPROX_HOLDER_BR, "gauss-approx.csv", GRID_COLUMNS),
    "strong-intervals": (
        "strong",
        {
            "kind": "strong-approx",
            "class": INTERVALS,
            "distribution": {"kind": "uniform"},
            "reps": 2,
            "seed": SEED,
            "schedule": {"N_grid": [4], "m": 8},
        },
        "strong-approx.csv",
    ),
    # JSON tables pin the meta block: failure accounting and label note for
    # approx, the per-N path envelope for strong.
    "approx-intervals-json-labels": (
        "approx",
        dict(
            APPROX,
            **{
                "class": INTERVALS,
                "distribution": {"kind": "uniform"},
                "format": "json",
                "labels": {"lambda": 0.05, "gamma": 0.1, "H": 1.0},
            },
        ),
        "gauss-approx.json",
    ),
    "strong-intervals-json": (
        "strong",
        {
            "kind": "strong-approx",
            "class": INTERVALS,
            "distribution": {"kind": "uniform"},
            "reps": 2,
            "seed": SEED,
            "format": "json",
            "schedule": {"N_grid": [3, 4], "m": 8},
        },
        "strong-approx.json",
    ),
    "bounds-audit-default": ("bounds-audit", {"kind": "bounds-audit"}, "bounds-audit.json"),
    "couple-intervals": (
        "couple",
        {
            "kind": "couple",
            "class": INTERVALS,
            "distribution": {"kind": "uniform"},
            "n_grid": [512],
            "ot_batch": 32,
            "seed": SEED,
        },
        "couple.json",
    ),
    # The default ladder on the 1000-point interval mesh: greedy cover and
    # first-fit packing at every radius, bracketing by the monotone chain.
    "entropy-intervals": (
        "entropy",
        {"kind": "entropy", "seed": SEED},
        "entropy.csv",
    ),
    # 101 uniform mesh points 0.01 apart: at these radii many pairs sit
    # exactly on a cover ball's edge or on the packing's separation edge.
    "entropy-intervals-ties": (
        "entropy",
        {
            "kind": "entropy",
            "class": {"kind": "intervals", "M": 1.0, "mesh_size": 101},
            "distribution": {"kind": "uniform"},
            "entropy": {"radii": [0.5, 0.3, 0.15, 0.1]},
            "seed": SEED,
        },
        "entropy.csv",
    ),
    # 64 Hoelder members: greedy cover and packing on a Gram matrix built by
    # matmuls, which need not be bitwise symmetric.
    "entropy-holder": (
        "entropy",
        {"kind": "entropy", "class": {"kind": "holder", "R": 2.0}, "seed": SEED},
        "entropy.csv",
    ),
}


# The two "entropy-*" cases were recorded before the shared distance matrix,
# the incremental greedy cover and the per-parameter interval counts;
# "entropy-intervals-ties" was recorded before interval certificates moved
# from the distance matrix to index windows, and still holds after it. The five
# interval coupling cases were re-recorded when interval classes began to draw
# their auxiliary transport batches as multinomial cell counts from the
# "cells" seed phase, id 9 (same law, new streams). "approx-intervals-uniform"
# and "approx-intervals-beta" were re-recorded again when the cases were pinned
# to one BLAS thread: one sup_mesh each differs in its last digit between one
# and two threads. The four "approx-holder*" digests were re-recorded when the
# m - 1 auxiliary Hoelder samples moved from one "sample" generator each to
# consecutive rows of one generator of that phase, renamed "auxiliary": the
# same law from a new stream, so the transport assignments, and with them
# sup_grid, sup_mesh and transport_cost, change as under a new seed. The
# "approx-intervals-json-labels", "strong-intervals-json" and
# "bounds-audit-default" digests were recorded before the replication runner
# and the config parser were rewritten, as the byte guard for that refactor.
DIGESTS = {
    "approx-holder": "b6b30409fc540c958db9fc0d6478382a02fb348a1a4a27ed95a96a57467d2f6f",
    "approx-holder-br": "9fa9b90cc9f486e667cea1280adcf2088930b6de0823f487f77d871ee1643a2e",
    "approx-holder-br-sup-grid": "7dbd138f83983e39edb69d352badca9686261b49f0078513cf55e8d41fd483c7",
    "approx-holder-sup-grid": "9e35e5b40638b18d381347d3b481288706dcad36bcdccfd6cabbe22ad6dc840a",
    "approx-intervals-json-labels": "bdf2ecdb1cf1af43be738dd1d7c909f2a92c39ce4272a091b842b109d6c20767",
    "approx-intervals-beta": "75575fbc946d88a2fedfd59c467d039b49db2bc9e39c0d6e323580a662361d99",
    "approx-intervals-discrete": "1f2358f67539b64dba6454b4080d055e883999a5972fa8d9ef8824e97af2288c",
    "approx-intervals-uniform": "3497b6bf90fba196f499a01b1f45560edef9eb3eafbf898fd3c90688959b4b16",
    "bounds-audit-default": "41dd82168859e23b41faaa853ff0253cac02bdc0cf6ed74b19aa60468ef5ed70",
    "couple-intervals": "67693798318462d4163765e281bad7e3da75cd39a32dc4c4f21525c03e478d36",
    "entropy-holder": "df3a00f71216242dc1a95ee565791ee73e54b4bc4befa35c9adf0e09efaa74e5",
    "entropy-intervals": "c1795eb471d064e3fc3a7acac3c383f7f47d6aedf035113b24ce2ae6adc13e82",
    "entropy-intervals-ties": "d7e4d6d1ff5e23fe301c1cdb5af31464efa7e8259fb6cdca2c13e56791cccd99",
    "strong-intervals": "d1c114a2c34fb549a4430e232c09361f913b7b11a25f44714714f671a537e0b0",
    "strong-intervals-json": "7a57e8b0e5fb67f6ab58fe37e7fb2b2bb529b96ca55dcfef4658705f49d69f20",
}


def select_columns(table: bytes, columns) -> bytes:
    """The named columns of a CSV table, in the given order."""
    rows = [line.split(",") for line in table.decode().splitlines()]
    keep = [rows[0].index(c) for c in columns]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows).encode()


def output_digest(tmp_path, env, command: str, spec: dict, filename: str, columns=None) -> str:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(spec))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "empbridge.cli", command, "--config", str(config), "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(env, **BLAS_ONE_THREAD),
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    table = (out / filename).read_bytes()
    return hashlib.sha256(table if columns is None else select_columns(table, columns)).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden_digest(tmp_path, child_env, name):
    assert output_digest(tmp_path, child_env, *CASES[name]) == DIGESTS[name]
