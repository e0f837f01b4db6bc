"""Seed-spec validation, phase separation, and replication streams."""

import numpy as np
import pytest

from empbridge import DomainError, SeedSpec, replication_seed


def test_master_seed_must_fit_64_bits():
    SeedSpec(2**64 - 1, 0)
    with pytest.raises(DomainError):
        SeedSpec(2**64, 0)
    with pytest.raises(DomainError):
        SeedSpec(-1, 0)


def test_stream_must_fit_32_bits():
    SeedSpec(0, 2**32 - 1)
    with pytest.raises(DomainError):
        SeedSpec(0, 2**32)
    with pytest.raises(DomainError):
        SeedSpec(0, -1)


def test_same_phase_and_index_reproduces_exactly(seed):
    a = seed.rng("sample", 3).random(16)
    b = seed.rng("sample", 3).random(16)
    assert np.array_equal(a, b)


def test_phases_produce_distinct_streams(seed):
    draws = {
        phase: seed.rng(phase, 0).random(8).tobytes()
        for phase in ("sample", "rademacher", "gauss", "target", "extend", "fill", "cells")
    }
    assert len(set(draws.values())) == len(draws)


def test_indices_produce_distinct_streams(seed):
    a = seed.rng("sample", 0).random(8)
    b = seed.rng("sample", 1).random(8)
    assert not np.array_equal(a, b)


def test_streams_produce_distinct_draws():
    a = SeedSpec(7, 0).rng("sample", 0).random(8)
    b = SeedSpec(7, 1).rng("sample", 0).random(8)
    assert not np.array_equal(a, b)


def test_unknown_phase_rejected(seed):
    with pytest.raises(DomainError):
        seed.rng("no-such-phase")


def test_replication_seed_sets_stream():
    spec = replication_seed(991, 5)
    assert spec.master == 991
    assert spec.stream == 5


def test_draw_order_does_not_leak_between_phases(seed):
    # Drawing from one phase must not advance another phase's stream.
    before = seed.rng("gauss", 0).standard_normal(4)
    seed.rng("sample", 0).random(1000)
    after = seed.rng("gauss", 0).standard_normal(4)
    assert np.array_equal(before, after)
