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
# Batch OT, pinned rather than left to the unset method's resolution.
APPROX = {
    "kind": "gauss-approx", "n_grid": [64, 256], "reps": 3, "ot_batch": 16, "method": "exact",
    "seed": SEED,
}
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
RECTANGLES = {"kind": "rectangles", "M": 1.0, "mesh_size": 25}
APPROX_SMALL = {"kind": "gauss-approx", "n_grid": [64, 256], "reps": 2, "ot_batch": 8, "seed": SEED}
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
STRONG_INTERVALS = {
    "kind": "strong-approx",
    "class": INTERVALS,
    "distribution": {"kind": "uniform"},
    "reps": 2,
    "seed": SEED,
    "schedule": {"N_grid": [4], "m": 8},
}
# The strong-approx columns that rounding in the within-block fill leaves
# alone: the path's length and the sample count m_star of its maximum.
PATH_COLUMNS = ("run_id", "regime", "N", "t_N", "m_star")

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
    "strong-intervals": ("strong", STRONG_INTERVALS, "strong-approx.csv"),
    "strong-intervals-path": ("strong", STRONG_INTERVALS, "strong-approx.csv", PATH_COLUMNS),
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
    # A br selection: the br path envelope and block schedule.
    "strong-intervals-br-json": (
        "strong",
        {
            "kind": "strong-approx",
            "class": {"kind": "intervals", "mesh_size": 201},
            "selection": {"type": "br", "b0": 0.2, "r0": 0.75},
            "reps": 2,
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
            "method": "exact",
            "seed": SEED,
        },
        "couple.json",
    ),
    # The dyadic quantile tree: the couple default for interval classes, and
    # opt-in under approx, here under a beta law whose cells are unequal.
    "couple-intervals-quantile": (
        "couple",
        {
            "kind": "couple",
            "class": INTERVALS,
            "distribution": {"kind": "uniform"},
            "n_grid": [512],
            "seed": SEED,
        },
        "couple.json",
    ),
    "approx-intervals-quantile": (
        "approx",
        dict(
            APPROX,
            **{
                "class": INTERVALS,
                "distribution": {"kind": "beta", "a": 2.0, "b": 3.0},
                "method": "quantile",
            },
        ),
        "gauss-approx.csv",
    ),
    # The default ladder on the 1000-point interval mesh: the exact sweep
    # cover at every radius, bracketing by the monotone chain.
    "entropy-intervals": (
        "entropy",
        {"kind": "entropy", "seed": SEED},
        "entropy.csv",
    ),
    # The same ladder under beta(0.5, 5), whose CDF gaps on the mesh are the
    # most uneven: 0.078 at the first mesh point, 1.2e-5 or less over the
    # last 300, down to one ulp.
    "entropy-intervals-skewed": (
        "entropy",
        {"kind": "entropy", "distribution": {"kind": "beta", "a": 0.5, "b": 5.0}, "seed": SEED},
        "entropy.csv",
    ),
    # 101 uniform mesh points 0.01 apart: at these radii many pairs sit
    # exactly on a cover ball's edge.
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
    # The same ladder under beta(2, 3): pins the Hoelder cell moments under a
    # non-uniform law through the integer cover counts.
    "entropy-holder-beta": (
        "entropy",
        {
            "kind": "entropy",
            "class": {"kind": "holder", "R": 2.0},
            "distribution": {"kind": "beta", "a": 2.0, "b": 3.0},
            "seed": SEED,
        },
        "entropy.csv",
    ),
    # Rectangle and finite classes: the lower-orthant moment path.
    "couple-rectangles": (
        "couple",
        {
            "kind": "couple",
            "class": RECTANGLES,
            "distribution": {"kind": "product-uniform", "dim": 2},
            "n_grid": [256],
            "ot_batch": 16,
            "eval_mesh_size": 25,
            "seed": SEED,
        },
        "couple.json",
    ),
    "approx-rectangles-discrete": (
        "approx",
        dict(
            APPROX_SMALL,
            **{
                "class": RECTANGLES,
                "distribution": {
                    "kind": "discrete",
                    "atoms": [[0.2, 0.3], [0.5, 0.9], [0.8, 0.4], [0.4, 0.6]],
                    "weights": [0.1, 0.2, 0.3, 0.4],
                },
            },
        ),
        "gauss-approx.csv",
    ),
    "approx-finite-beta": (
        "approx",
        dict(
            APPROX_SMALL,
            **{
                "class": {
                    "kind": "finite",
                    "M": 1.0,
                    "members": [
                        ["interval", 0.2], ["interval", 0.5], ["interval", 0.8], ["constant", 0.25],
                    ],
                },
                "distribution": {"kind": "beta", "a": 2.0, "b": 3.0},
            },
        ),
        "gauss-approx.csv",
    ),
    # Weights whose numpy sum is 0.9999999999999999: constants must still
    # have mean c and variance 0.
    "approx-finite-discrete": (
        "approx",
        dict(
            APPROX_SMALL,
            **{
                "class": {
                    "kind": "finite",
                    "M": 1.0,
                    "members": [
                        ["interval", 0.3], ["interval", 0.6], ["constant", 0.25], ["constant", -0.4],
                    ],
                },
                "distribution": {
                    "kind": "discrete", "atoms": [0.1, 0.5, 0.9], "weights": [0.7, 0.2, 0.1],
                },
            },
        ),
        "gauss-approx.csv",
    ),
    # Larger samples, where the designated mesh sums count points in the
    # product cells of a 3-D mesh, and where a count times a non-dyadic
    # constant need not equal the sum of that many copies of it.
    "approx-rectangles-3d": (
        "approx",
        dict(
            APPROX_SMALL,
            **{
                "class": {"kind": "rectangles", "M": 1.0, "dim": 3, "mesh_size": 125},
                "distribution": {"kind": "product-uniform", "dim": 3},
                "n_grid": [1024, 4096],
            },
        ),
        "gauss-approx.csv",
    ),
    "approx-finite-2d": (
        "approx",
        dict(
            APPROX_SMALL,
            **{
                "class": {
                    "kind": "finite",
                    "M": 2.0,
                    "members": [
                        ["rectangle", [0.3, 0.6]], ["rectangle", [0.7, 0.2]], ["rectangle", [0.5, 0.9]],
                        ["constant", 0.3], ["constant", -0.7],
                    ],
                },
                "distribution": {"kind": "product-uniform", "dim": 2},
                "n_grid": [3000, 30000],
            },
        ),
        "gauss-approx.csv",
    ),
    "entropy-rectangles": (
        "entropy",
        {
            "kind": "entropy",
            "class": {"kind": "rectangles", "M": 1.0, "mesh_size": 100},
            "distribution": {"kind": "product-uniform", "dim": 2},
            "seed": SEED,
        },
        "entropy.csv",
    ),
}


# "entropy-holder-beta" was recorded when Hoelder moments under beta laws
# moved from adaptive quadrature per member pair to closed-form cell moments:
# the digest is that of the quadrature's output, which the new moments
# reproduce byte for byte.
# "entropy-holder" was recorded before the shared distance matrix, the
# incremental greedy cover and the per-parameter interval counts.
# "entropy-intervals-skewed" was recorded before the right edges of the
# interval sweep moved from bisection to a checked sorted search, as the byte
# guard for that change. Its bytes equal those of "entropy-intervals": the
# bracket count is ceil(1 / epsilon^2) under any law, and the minimum covers
# have the same sizes on this ladder.
# "entropy-intervals" and "entropy-intervals-ties" were re-recorded when
# interval certificates became the exact minimum cover of one index-window
# sweep, in place of a greedy upper and a packing lower bound: every row is
# now exact, each lower count rises to its upper count, and the upper counts
# hold (2, 3, 6, 13, 23 on the default ladder) except at epsilon 0.3 of the
# ties case, where the bounds 3..8 become exactly 6. The five
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
# "approx-intervals-json-labels" and "bounds-audit-default" digests were
# recorded before the replication runner and the config parser were rewritten,
# as the byte guard for that refactor. "strong-intervals" and
# "strong-intervals-json" were re-recorded when the within-block fill became
# one signed difference walk per block: the same fill stream, but
# max_discrepancy and normalized move in their last digits.
# "strong-intervals-path" was recorded before that change and holds after it:
# it pins every strong column that the rounding leaves alone.
# "strong-intervals-br-json" was recorded before ExperimentConfig became the
# one config gate, as the byte guard for that change; it is the only case that
# runs a strong path under a br selection.
# The four "approx-holder*" digests, "approx-intervals-uniform",
# "approx-intervals-json-labels" and "couple-intervals" were re-recorded when
# bridge.factorize dropped its Cholesky branch for the one clamped
# eigendecomposition: the same law and the same normals, but a new map from
# normals to draws wherever Cholesky used to succeed on the grid Gram. The
# other digests held: their Grams already took eigh, or they factor none.
# "couple-rectangles", "approx-rectangles-discrete", "approx-finite-beta",
# "approx-finite-discrete" and "entropy-rectangles" were recorded before
# rectangle and finite members moved onto the one lower-orthant moment path,
# as the byte guard for that change. The four coupling cases among them
# ("entropy-rectangles" draws nothing) were re-recorded when rectangle and
# finite classes began to draw their auxiliary transport rows as multinomial
# counts of the cells that the grid corners cut out, as interval classes do:
# the same law from the same "auxiliary" phase, which now feeds one
# multinomial row per auxiliary sum in place of n points, so the transport
# assignments, and with them sup_grid, sup_mesh and transport_cost, change as
# under a new seed.
# "couple-intervals" gained "method": "exact" when the quantile tree became
# the couple default for interval classes, and kept its digest.
# "couple-intervals-quantile" and "approx-intervals-quantile" were recorded
# when the quantile method was added, and re-recorded when its mesh Gaussian
# moved from the dense conditional law to the cell-by-cell refinement of the
# grid cells' Gaussian masses: the same "extend" phase and the same law given
# z_sum, but a new map from normals to draws, so only sup_mesh moves. Both
# were re-recorded again when the refinement moved from a zero-padded
# grid-cell by widest-cell array to one flat list of finer cells: the same
# "refine" and "extend" phases and the same law, but a new map from draws to
# finer cells (one multinomial per grid cell, one normal per finer cell and
# none for padding), so again only sup_mesh moves.
# "approx-rectangles-3d" and "approx-finite-2d" were recorded before the
# designated sample's mesh sums moved from the n x p indicator matrix to its
# counts in the mesh's product cells, as the byte guard for that change.
DIGESTS = {
    "approx-finite-2d": "2dc2c9fdd87d1968cc60d76027e4d2d7fc146ae57911e529d8b1ce5a676063c8",
    "approx-finite-beta": "53f4904a0d566961c7ea4577534df86fa1efc5d76db4c4adab3a04f37652aa4a",
    "approx-finite-discrete": "787a4d9f495cf4cb6a246482d689593c66445641efa6f207ac827b9945441705",
    "approx-holder": "03e528c9702156e783dd5082a4ce305155a0fd8215b00f71216638bebc125986",
    "approx-holder-br": "9463470c22e2e275a602a74abbc769963f5fba9e894de0fa91a1b97aea7e9b8f",
    "approx-holder-br-sup-grid": "20da586244123c31736fa7fe71f886c94bfbc88871e82f7e7893d843491cdaa8",
    "approx-holder-sup-grid": "53936a7439fc363d3072577b6e6b12969179da1a17cbb22118f327c8eae94770",
    "approx-intervals-beta": "75575fbc946d88a2fedfd59c467d039b49db2bc9e39c0d6e323580a662361d99",
    "approx-intervals-discrete": "1f2358f67539b64dba6454b4080d055e883999a5972fa8d9ef8824e97af2288c",
    "approx-intervals-json-labels": "0a4055b915e382b9f66d5d9fd7903d869078c58d60a8c98facd16fa52280519e",
    "approx-intervals-quantile": "65f4184b56695bfc5b32713fadaa5e51f0774cc7b95789dd9f3af87f4885f245",
    "approx-intervals-uniform": "e51c41b7bba341fb1752dd5e6241081acc25553e33b747a151c30c66d18a1890",
    "approx-rectangles-3d": "085068a624243e78f2e2307cae2ec4b76c32c3e4fd0a90d3fd887168c4d0e766",
    "approx-rectangles-discrete": "34752912b328ac18f70ba8d66dad0c913156c1ad721d32842b938be2d9da3d42",
    "bounds-audit-default": "41dd82168859e23b41faaa853ff0253cac02bdc0cf6ed74b19aa60468ef5ed70",
    "couple-intervals": "d4a7a00c4401a0b55124c5e17e34d5c209697cccf4647ca767a62df80ac40a1b",
    "couple-intervals-quantile": "d937fbdb891c2d7bfbcd7b9f113fbcee3eed2c13ea6cf6ce2162018880834e75",
    "couple-rectangles": "762a79697e320655ffdc9f20c95aeb7a8a4d800f7b5ec5f842b1319a750ddba7",
    "entropy-holder": "df3a00f71216242dc1a95ee565791ee73e54b4bc4befa35c9adf0e09efaa74e5",
    "entropy-holder-beta": "ad6697a747db59936be3c7ec3036d12ea3a809492d103d7072b1177526b73ce3",
    "entropy-intervals": "1f8f70352e31db3c19e744c4e3906a8ecf988e44cfc38a60c064131856f4d917",
    "entropy-intervals-skewed": "1f8f70352e31db3c19e744c4e3906a8ecf988e44cfc38a60c064131856f4d917",
    "entropy-intervals-ties": "eff94c5166d9d8bbbbc10deff057ca3b4f890fbcacd8cf67e5a91fc2eeb87d6a",
    "entropy-rectangles": "292cd14682be446021a829fada5082d43323f180c7710b10ccdba38c80db163b",
    "strong-intervals": "44558f78a5488e96a8435f3a882aedeadd179548d96de6a389353937e84f9430",
    "strong-intervals-br-json": "ca728c1768ea047a93ad908ceb33cdb15398a397659262679cb8697f4007f9e2",
    "strong-intervals-json": "fef2ac0fd45d1df4317131d27fc3c536fda4506fc5c4c26bf32dee228f5e44d5",
    "strong-intervals-path": "2b56cf13d1d7dababf3050da8d7803844f57c978a43154b27eb1af1cf784f09a",
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
