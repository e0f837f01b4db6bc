"""Law transport: an exact oracle for interval classes.

For a continuous law F on [0, 1], 1{x <= t} = 1{F(x) <= F(t)}, and F(X) is
uniform. So an interval class under F at parameters t is the interval class
under the uniform law at F(t): its cells, cell masses and cell counts must
be the uniform ones at the transported parameters, bit for bit, because the
package reads F only through the CDF values of the cut points. One wrong bit
fails these tests, where the law tests in ``test_laws.py`` hold at a chosen
false-alarm rate.

A discrete law has atoms, so its F is not continuous, F(X) is not uniform,
and this relation does not hold; no discrete law is tested here.
"""

import json

import numpy as np
import pytest

from empbridge import Distribution
from empbridge.cli import EXIT_OK, main
from empbridge.coupling import _binomial_tree, orthant_cells
from empbridge.function_classes import _monotone_cdf

UNIFORM = Distribution("uniform")
# beta(0.5, 5) piles its mass up near 0; the others are skewed right, both
# ways unbounded, and bell-shaped.
BETAS = [(0.5, 5.0), (5.0, 0.5), (0.3, 0.3), (2.0, 3.0)]
THETA = np.linspace(0.0, 1.0, 1000)
CENTERS = np.array([0.0, 0.05, 0.2, 0.5, 1.0])
FIELDS = ("masses", "within", "cell", "mesh_at", "corner")


def transported_cells(a, b):
    law = Distribution("beta", a=a, b=b)
    cells = orthant_cells(law, CENTERS, THETA)
    uniform = orthant_cells(UNIFORM, _monotone_cdf(law, CENTERS), _monotone_cdf(law, THETA))
    return cells, uniform


@pytest.mark.parametrize("a, b", BETAS)
def test_interval_cells_under_a_beta_law_are_the_uniform_cells_at_the_transported_parameters(
    a, b
):
    cells, uniform = transported_cells(a, b)
    for name in FIELDS:
        got, want = getattr(cells, name), getattr(uniform, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("n", [1, 2**10, 2**20, 2**40])
@pytest.mark.parametrize("a, b", BETAS)
def test_the_quantile_tree_under_a_beta_law_is_the_uniform_tree(a, b, n):
    cells, uniform = transported_cells(a, b)
    counts, gauss = _binomial_tree(cells.masses, n, np.random.default_rng(n))
    want_counts, want_gauss = _binomial_tree(uniform.masses, n, np.random.default_rng(n))
    assert np.array_equal(counts, want_counts) and counts.sum() == n
    assert np.array_equal(gauss, want_gauss)


def entropy_bytes(capsys, tmp_path, law):
    path = tmp_path / "entropy.json"
    path.write_text(json.dumps({"distribution": law}))
    assert main(["entropy", "--config", str(path), "--format", "json"]) == EXIT_OK
    return capsys.readouterr().out


def test_interval_entropy_prints_the_same_bytes_under_a_beta_law_as_under_the_uniform(
    capsys, tmp_path
):
    # Interval covers and brackets read the law only through the CDF at the
    # class mesh, and the counts at each radius depend only on those values'
    # spacing in d_P = sqrt(|F(s) - F(t)|).
    want = entropy_bytes(capsys, tmp_path, {"kind": "uniform"})
    assert entropy_bytes(capsys, tmp_path, {"kind": "beta", "a": 0.5, "b": 5.0}) == want
