"""Shared fixtures: a uniform law, a small interval class, one small class of
each kind, a fixed seed, the empirical process, and the environment for child
interpreters."""

import math
import os
from pathlib import Path

import pytest

import empbridge
from empbridge import Distribution, FunctionClass, SeedSpec, mean_vector

MASTER_SEED = 20260815

# The directory that holds the imported empbridge package (``src`` in a
# checkout). pytest's ``pythonpath`` setting reaches only the pytest process,
# so child interpreters get it on their PYTHONPATH.
PACKAGE_ROOT = str(Path(empbridge.__file__).resolve().parent.parent)


@pytest.fixture(scope="session")
def child_env():
    """os.environ with the package root first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def uniform():
    return Distribution("uniform")


@pytest.fixture(scope="session")
def intervals():
    return FunctionClass("intervals", envelope=1.0, mesh_size=201)


@pytest.fixture(scope="session")
def class_of_kind():
    """One small class of each kind, with a law it can be coupled under."""
    return {
        "intervals": (FunctionClass("intervals", mesh_size=201), Distribution("uniform")),
        "rectangles": (
            FunctionClass("rectangles", dim=2, mesh_size=25),
            Distribution("product-uniform", dim=2),
        ),
        "holder": (FunctionClass("holder"), Distribution("uniform")),
        "finite": (
            FunctionClass("finite", members=(("interval", 0.5), ("constant", 0.25))),
            Distribution("uniform"),
        ),
    }


@pytest.fixture()
def seed():
    return SeedSpec(MASTER_SEED, 0)


@pytest.fixture(scope="session")
def empirical_process():
    """alpha_n(f) = n^{-1/2} sum_i (f(X_i) - E f(X)) for each parameter,
    from the column sums of the evaluation matrix and exact means: the
    reference for the sums that ``construct_joint`` takes without the
    matrix."""

    def alpha(cls, P, points, params):
        n = len(points)
        sums = cls.evaluate_matrix(params, points).sum(axis=0)
        return (sums - n * mean_vector(cls, P, params)) / math.sqrt(n)

    return alpha
