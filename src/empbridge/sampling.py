"""Close-pair sets and the symmetrized modulus estimate.

Close-pair sets collect the parameter pairs of a verification mesh whose
intrinsic distance is below a radius; the symmetrized modulus mu_n is the
expected supremum over such a set of |n^{-1/2} sum_i e_i (f - f')(X_i)| for
Rademacher signs e_i drawn independently of the sample. The empirical process
alpha_n(f) = n^{-1/2} sum_i (f(X_i) - E f(X)) itself is formed where it is
used, from the sample's sums (indicator cell counts, ``OrthantCells``, or
Hoelder knot-cell sums) and ``mean_vector`` (see ``coupling.construct_joint``).

All randomness flows through seed specs with disjoint phases, so the sign
vectors are independent of the sample points by construction and every result
is regenerable bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import DomainError
from .function_classes import FunctionClass, dP_matrix
from .seeds import SeedSpec


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo mean with its standard error."""

    value: float
    stderr: float
    reps: int
    exhaustive: bool = False


@dataclass(frozen=True, eq=False)
class PairSet:
    """Ordered parameter pairs of a mesh at strict distance below epsilon."""

    epsilon: float
    params: tuple
    indices: np.ndarray  # shape (k, 2), rows (i, j) into params

    @property
    def count(self) -> int:
        return len(self.indices)


def build_pairset(cls: FunctionClass, P: Distribution, epsilon: float) -> PairSet:
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    mesh = list(cls.mesh)
    d = dP_matrix(cls, P, mesh)
    idx = np.argwhere(d < epsilon)
    return PairSet(float(epsilon), tuple(mesh), idx)


def mu_n_estimate(
    cls: FunctionClass,
    P: Distribution,
    pairset: PairSet,
    n: int,
    reps: int,
    seed: SeedSpec,
) -> MomentEstimate:
    """Monte Carlo estimate of the symmetrized close-pair modulus.

    For each replication a fresh sample and a fresh sign vector are drawn.
    When n <= 12 and the pair set holds at most 8 pairs, the average over sign
    vectors is taken exactly by enumerating all 2^n of them, leaving only the
    sample-side Monte Carlo error.
    """
    if reps < 2:
        raise DomainError("need at least 2 replications")
    if pairset.count == 0:
        return MomentEstimate(0.0, 0.0, reps)
    exhaustive = n <= 12 and pairset.count <= 8
    i_idx = pairset.indices[:, 0]
    j_idx = pairset.indices[:, 1]
    root_n = math.sqrt(n)
    sups = np.empty(reps)
    signs_all = None
    if exhaustive:
        grid = np.arange(1 << n)
        bits = (grid[:, None] >> np.arange(n)[None, :]) & 1
        signs_all = 2.0 * bits - 1.0  # (2^n, n)
    for r in range(reps):
        x = P.draw(n, seed.rng("sample", r))
        vals = cls.evaluate_matrix(list(pairset.params), x)  # (n, p)
        if exhaustive:
            sums = signs_all @ vals  # (2^n, p)
            per_sign = np.abs(sums[:, i_idx] - sums[:, j_idx]).max(axis=1)
            sups[r] = per_sign.mean() / root_n
        else:
            eps_signs = seed.rng("rademacher", r).integers(0, 2, size=n) * 2.0 - 1.0
            sums = eps_signs @ vals
            sups[r] = np.abs(sums[i_idx] - sums[j_idx]).max() / root_n
    value = float(sups.mean())
    stderr = float(sups.std(ddof=1) / math.sqrt(reps))
    return MomentEstimate(value, stderr, reps, exhaustive)
