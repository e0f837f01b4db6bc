"""The limiting Gaussian field on finite function sets.

The field G has mean zero and covariance
cov(G(f), G(h)) = E f(X) h(X) - E f(X) E h(X). A bridge model holds that
covariance K on a chosen parameter set with the factor L = V sqrt(max(w, 0))
of its eigendecomposition K = V diag(w) V^T (``repair`` records the clamp of
rounding-level negative eigenvalues; there is no Cholesky path), so sampling
is L times a standard normal vector. New coordinates are adjoined by explicit
Gaussian conditioning (mean through the pseudo-inverse of K, covariance the
Schur complement, factored the same way), which realizes the same joint law
whether coordinates are added in one stage or several.

Also here: the entropy integral of a power-law or exponential-law covering
model, with closed forms, used by the moment bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import (
    ConfigError,
    DivergentIntegralError,
    DomainError,
    InconsistentCovarianceError,
    NotACovarianceError,
)
from .function_classes import FunctionClass, covariance
from .quadrature import adaptive_simpson
from .seeds import SeedSpec

_SYM_TOL = 1e-10
_EIG_FLOOR = -1e-9
_SCHUR_FLOOR = -1e-7
_PINV_CUT = 1e-10


@dataclass(frozen=True, eq=False)
class BridgeModel:
    K: np.ndarray
    L: np.ndarray
    repair: float  # magnitude of the eigenvalue clamp applied to K

    @property
    def size(self) -> int:
        return self.K.shape[0]


def _clamped_factor(S: np.ndarray) -> tuple[np.ndarray, float]:
    """V sqrt(max(w, 0)) and min(w, 0) for the eigenpairs (w, V) of (S + S^T) / 2."""
    w, v = np.linalg.eigh((S + S.T) / 2.0)
    return v * np.sqrt(np.clip(w, 0.0, None))[None, :], float(w.min(initial=0.0))


def factorize(K: np.ndarray) -> BridgeModel:
    """Factor a covariance matrix, repairing tiny negative eigenvalues.

    Eigenvalues in [-1e-9, 0) are clamped to zero and the clamp magnitude is
    recorded; anything more negative is rejected as not a covariance.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise NotACovarianceError(f"covariance must be square, got shape {K.shape}")
    if np.abs(K - K.T).max(initial=0.0) > _SYM_TOL:
        raise NotACovarianceError("covariance matrix is not symmetric")
    L, w_min = _clamped_factor(K)
    if w_min < _EIG_FLOOR:
        raise NotACovarianceError(f"eigenvalue {w_min:.3e} below the repair floor {_EIG_FLOOR:.0e}")
    return BridgeModel(K, L, max(0.0, -w_min))


def build_bridge(cls: FunctionClass, P: Distribution, params) -> BridgeModel:
    return factorize(covariance(cls, P, list(params)))


def sample_bridge_batch(model: BridgeModel, seed: SeedSpec, reps: int) -> np.ndarray:
    """Matrix of realizations, shape (reps, size), from one stream."""
    g = seed.rng("gauss").standard_normal((model.size, reps))
    return (model.L @ g).T


@dataclass(frozen=True, eq=False)
class ConditionalLaw:
    """Gaussian law of new coordinates given the grid coordinates.

    mean = projector @ grid_values; covariance = schur (factored in L).
    """

    projector: np.ndarray
    schur: np.ndarray
    L: np.ndarray
    repair: float


def conditional_law(model: BridgeModel, cross: np.ndarray, marginal: np.ndarray) -> ConditionalLaw:
    cross = np.atleast_2d(np.asarray(cross, dtype=float))
    marginal = np.atleast_2d(np.asarray(marginal, dtype=float))
    m_new = cross.shape[0]
    if cross.shape[1] != model.size:
        raise DomainError(
            f"cross covariance has {cross.shape[1]} grid columns, model has {model.size}"
        )
    if marginal.shape != (m_new, m_new):
        raise DomainError("marginal covariance shape does not match cross covariance")
    k_pinv = np.linalg.pinv(model.K, rcond=_PINV_CUT, hermitian=True)
    projector = cross @ k_pinv
    schur = marginal - projector @ cross.T
    schur = (schur + schur.T) / 2.0
    L, w_min = _clamped_factor(schur)
    if w_min < _SCHUR_FLOOR:
        raise InconsistentCovarianceError(
            f"conditional covariance has eigenvalue {w_min:.3e}; the joint "
            f"block matrix is not consistent"
        )
    return ConditionalLaw(projector, schur, L, max(0.0, -w_min))


def extend_from_law(law: ConditionalLaw, grid_values, seed: SeedSpec, rep: int = 0):
    grid_values = np.asarray(grid_values, dtype=float)
    g = seed.rng("extend", rep).standard_normal(law.L.shape[1])
    return law.projector @ grid_values + law.L @ g


def dudley_integral(entropy_model, sigma: float) -> float:
    """Entropy integral int_0^sigma sqrt(log N(x)) dx.

    ``entropy_model`` is ("power", {"c": c, "v": v}) for N(x) = c x^{-v} or
    ("exp", {"b": b, "r": r}) for log N(x) = b^2 x^{-2r}. Both admit closed
    forms; regions where the power-law count drops below 1 contribute zero.
    """
    form, consts = entropy_model
    if not 0.0 <= sigma <= 1.0:
        raise DomainError("sigma must lie in [0, 1]")
    if sigma == 0.0:
        return 0.0
    if form == "power":
        from scipy import special

        c, v = float(consts["c"]), float(consts["v"])
        if c <= 0 or v <= 0:
            raise ConfigError("power-law entropy needs c > 0 and v > 0")
        scale = c ** (1.0 / v)
        upper = min(sigma, scale)
        w0 = math.log(scale / upper)
        tail = math.sqrt(w0) * math.exp(-w0) + (math.sqrt(math.pi) / 2.0) * special.erfc(
            math.sqrt(w0)
        )
        return scale * math.sqrt(v) * tail
    if form == "exp":
        b, r = float(consts["b"]), float(consts["r"])
        if b <= 0:
            raise ConfigError("exponential-law entropy needs b > 0")
        if r >= 1.0:
            raise DivergentIntegralError(
                f"exponent r = {r} makes the entropy integral diverge at 0"
            )
        if r <= 0:
            raise ConfigError("exponential-law entropy needs r > 0")
        return b * sigma ** (1.0 - r) / (1.0 - r)
    raise ConfigError(f"unknown entropy model form {form!r}")


def dudley_integral_quadrature(entropy_model, sigma: float, tol: float = 1e-9) -> float:
    """Same integral by adaptive quadrature, for cross-checking."""
    form, consts = entropy_model
    if sigma == 0.0:
        return 0.0
    if form == "power":
        c, v = float(consts["c"]), float(consts["v"])
        f = lambda x: math.sqrt(max(math.log(c) + v * math.log(1.0 / x), 0.0))
    else:
        b, r = float(consts["b"]), float(consts["r"])
        if r >= 1.0:
            raise DivergentIntegralError(f"exponent r = {r} diverges")
        f = lambda x: b * x ** (-r)
    # The integrand is singular only at 0; start just above it and refine.
    lo = min(1e-12, sigma / 2.0)
    return adaptive_simpson(f, lo, sigma, tol)


def entropy_integral_bound(b: float, r: float, sigma: float) -> float:
    """Closed upper bound sqrt(2) b sigma^{1-r} / (1-r) for exponential entropy."""
    if r >= 1.0:
        raise DivergentIntegralError(f"exponent r = {r} diverges")
    return math.sqrt(2.0) * b * sigma ** (1.0 - r) / (1.0 - r)
