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
}


# Recorded on the commit before the column-sum kernel, which kept every byte;
# "approx-holder-br" was recorded before the Hoelder cell-search kernel.
DIGESTS = {
    "approx-holder": "55f3cd0e9c4da6afdb0849ed3032267e470a4bac9b24715bd158a3722f94fb5a",
    "approx-holder-br": "1c979d3ee344f104e63b7d19690bf414d4d9b82ec98e31afa93526cf8467a9f5",
    "approx-intervals-beta": "5a6e0965f495bf42ed870880f38da6059919ef0cfefd6d0751061d58022707d8",
    "approx-intervals-discrete": "ce6f30340ba112eaf8bc967c655b3583b7573d0b0d1bdd4df73e25d34b448bdc",
    "approx-intervals-uniform": "a57c61270cb0b6300a6bbadff84f5141db408185096a3498093d6b58859094a9",
    "couple-intervals": "87f15f9452208d1bb53d6d6685f1dff70c83f40dac4e8b59fa008b205b12c6f8",
    "strong-intervals": "57b0dd62fac04adb5762d59f1b01eeee7f2649271e5859931a584e72fccd74fa",
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
