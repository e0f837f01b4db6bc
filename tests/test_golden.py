"""Golden output bytes: small fixed-seed runs must reproduce pinned digests.

Refactors and speed-ups must keep the output bytes of an unchanged config and
seed. Each case runs one CLI command in-process, writes its table (or JSON
document) to a temporary directory, and compares the SHA-256 of the file with
the digest recorded before the change. A change that is meant to alter the
random streams must add a new seed phase and re-record these digests, saying
so in CHANGES.md.
"""

import hashlib
import json

import pytest

from empbridge.cli import EXIT_OK, main

SEED = 20260815
INTERVALS = {"kind": "intervals", "M": 1.0, "mesh_size": 201}
APPROX = {"kind": "gauss-approx", "n_grid": [64, 256], "reps": 3, "ot_batch": 16, "seed": SEED}

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
    "approx-holder": (
        "approx",
        {
            "kind": "gauss-approx",
            "class": {"kind": "holder", "M": 1.0, "s": 1.0, "R": 1.0, "knots": 5, "mesh_size": 24},
            "distribution": {"kind": "uniform"},
            "selection": {"type": "br", "b0": 0.2, "r0": 0.5},
            "n_grid": [64, 256],
            "reps": 2,
            "ot_batch": 8,
            "eval_mesh_size": 24,
            "seed": SEED,
        },
        "gauss-approx.csv",
    ),
    # Large enough (n up to 4096, a 64-member mesh) that the Hoelder kernel's
    # cell search and column sums are exercised at benchmark-like sizes.
    "approx-holder-br": (
        "approx",
        {
            "kind": "gauss-approx",
            "class": {"kind": "holder"},
            "distribution": {"kind": "uniform"},
            "selection": {"type": "br", "b0": 0.1, "r0": 0.75},
            "n_grid": [1024, 4096],
            "reps": 2,
            "ot_batch": 16,
            "seed": SEED,
        },
        "gauss-approx.csv",
    ),
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
    # 64 Hoelder members: greedy cover and packing on a Gram matrix built by
    # matmuls, which need not be bitwise symmetric.
    "entropy-holder": (
        "entropy",
        {"kind": "entropy", "class": {"kind": "holder", "R": 2.0}, "seed": SEED},
        "entropy.csv",
    ),
}


# "approx-holder" was recorded on the commit before the column-sum kernel,
# which kept every byte; "approx-holder-br" before the Hoelder cell-search
# kernel; the two "entropy-*" cases before the shared distance matrix, the
# incremental greedy cover and the per-parameter interval counts. The five
# interval coupling cases were re-recorded when interval classes began to draw
# their auxiliary transport batches as multinomial cell counts from the
# "cells" seed phase (same law, new streams).
DIGESTS = {
    "approx-holder": "55f3cd0e9c4da6afdb0849ed3032267e470a4bac9b24715bd158a3722f94fb5a",
    "approx-holder-br": "1c979d3ee344f104e63b7d19690bf414d4d9b82ec98e31afa93526cf8467a9f5",
    "approx-intervals-beta": "04bb3fce7ab669a538aa731b646a1d1369ab36e9d8a59005cd152b1bb4520288",
    "approx-intervals-discrete": "1f2358f67539b64dba6454b4080d055e883999a5972fa8d9ef8824e97af2288c",
    "approx-intervals-uniform": "b4145d0f97d05bc81c37ef197314f0bd2f7b59aef62095a07c76a34c7e269cc0",
    "couple-intervals": "67693798318462d4163765e281bad7e3da75cd39a32dc4c4f21525c03e478d36",
    "entropy-holder": "df3a00f71216242dc1a95ee565791ee73e54b4bc4befa35c9adf0e09efaa74e5",
    "entropy-intervals": "c1795eb471d064e3fc3a7acac3c383f7f47d6aedf035113b24ce2ae6adc13e82",
    "strong-intervals": "d1c114a2c34fb549a4430e232c09361f913b7b11a25f44714714f671a537e0b0",
}


def output_digest(tmp_path, command: str, spec: dict, filename: str) -> str:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(spec))
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out)])
    assert code == EXIT_OK
    return hashlib.sha256((out / filename).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden_digest(tmp_path, capsys, name):
    command, spec, filename = CASES[name]
    assert output_digest(tmp_path, command, spec, filename) == DIGESTS[name]
