"""Deterministic random-stream derivation.

A seed specification is a 64-bit master seed plus a 32-bit stream index
(both printed as decimals in configs and CSV output). Replications use their
replication index as the stream. Named phases inside one replication extend
the PCG64 spawn key, so every consumer of randomness owns an independent
generator and results never depend on draw order, phase interleaving, or
worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

MASTER_MAX = 2**64 - 1
STREAM_MAX = 2**32 - 1

# Registry of named sub-streams. Values are folded into the spawn key, so the
# mapping must never be reordered once results are published; a new phase is
# appended with a new id. A name may change, its id may not.
PHASES = {
    "generic": 0,
    "sample": 1,
    "rademacher": 2,
    "gauss": 3,
    "target": 4,
    "extend": 5,
    "fill": 6,
    "mesh": 7,  # a Hoelder class's admissible mesh, keyed by the class's mesh_seed alone
    "holdout": 8,  # no consumer; reserved
    "auxiliary": 9,  # the m - 1 auxiliary transport rows of a coupling: cell counts or points
    "tree": 10,  # the node normals of a quantile coupling's dyadic tree
    "refine": 11,  # quantile finer-cell counts: one multinomial per grid cell, in cell order
}


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus stream index; the unit of reproducibility."""

    master: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.master) <= MASTER_MAX):
            raise DomainError(f"master seed {self.master} outside [0, 2^64)")
        if not (0 <= int(self.stream) <= STREAM_MAX):
            raise DomainError(f"stream index {self.stream} outside [0, 2^32)")

    def rng(self, phase: str = "generic", *indices: int) -> np.random.Generator:
        """Generator for a named phase, optionally sub-indexed.

        The spawn key (stream, phase id, *indices) is injective, so distinct
        (replication, phase, index) triples can never collide.
        """
        if phase not in PHASES:
            raise DomainError(f"unknown phase {phase!r}; registered: {sorted(PHASES)}")
        key = (int(self.stream), PHASES[phase]) + tuple(int(i) for i in indices)
        ss = np.random.SeedSequence(entropy=int(self.master), spawn_key=key)
        return np.random.Generator(np.random.PCG64(ss))


def replication_seed(master: int, rep: int) -> SeedSpec:
    """Seed-spec for one replication: the stream index is the rep index."""
    return SeedSpec(int(master), int(rep))
