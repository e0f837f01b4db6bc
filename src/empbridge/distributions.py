"""Sampling distributions on [0,1]^d.

Four kinds: uniform on [0,1], product-uniform on [0,1]^d, beta(a,b) on [0,1],
and discrete with explicit atoms and weights. Each knows how to draw i.i.d.
samples from a supplied generator and how to evaluate its 1-D CDF (used by
closed-form indicator moments). Hoelder moments need no density:
``function_classes._cell_moments`` takes them from the incomplete beta
function or from the atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

KINDS = ("uniform", "product-uniform", "beta", "discrete")


@dataclass(frozen=True)
class Distribution:
    kind: str
    dim: int = 1
    a: float = 1.0
    b: float = 1.0
    atoms: tuple = field(default=())
    weights: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if self.dim < 1:
            raise ConfigError("dimension must be >= 1")
        if self.kind in ("uniform", "beta") and self.dim != 1:
            raise ConfigError(f"{self.kind} distribution is one-dimensional")
        if self.kind == "beta" and not (self.a > 0 and self.b > 0):  # NaN fails too
            raise ConfigError(f"beta shapes a and b must be positive, got {self.a}, {self.b}")
        if self.kind == "discrete":
            if not self.atoms:
                raise ConfigError("discrete distribution needs atoms")
            if len(self.atoms) != len(self.weights):
                raise ConfigError("atoms and weights must have equal length")
            w = np.asarray(self.weights, dtype=float)
            if not np.all(w >= 0):  # NaN fails too
                raise ConfigError(f"weights must be nonnegative, got {self.weights}")
            if not abs(float(w.sum()) - 1.0) <= 1e-12:
                raise ConfigError(f"weights sum to {w.sum()}, not 1 within 1e-12")
            pts = self._atom_array()
            if pts.ndim != 2 or pts.shape[1] != self.dim:
                raise ConfigError("atom dimension does not match dim")
            if not np.all((pts >= 0.0) & (pts <= 1.0)):  # NaN fails too
                raise ConfigError("atoms must lie in [0,1]^d")

    def _atom_array(self) -> np.ndarray:
        pts = np.asarray(self.atoms, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        return pts

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. points; shape (n,) when dim == 1, else (n, dim)."""
        if n < 1:
            raise DomainError("sample size must be >= 1")
        if self.kind == "uniform":
            return rng.random(n)
        if self.kind == "product-uniform":
            out = rng.random((n, self.dim))
            return out[:, 0] if self.dim == 1 else out
        if self.kind == "beta":
            return rng.beta(self.a, self.b, size=n)
        pts = self._atom_array()
        idx = rng.choice(len(self.atoms), size=n, p=np.asarray(self.weights, float))
        out = pts[idx]
        return out[:, 0] if self.dim == 1 else out

    def cdf(self, x) -> np.ndarray | float:
        """CDF at x for one-dimensional kinds."""
        if self.dim != 1:
            raise DomainError("cdf is defined for one-dimensional distributions")
        xs = np.asarray(x, dtype=float)
        if self.kind == "uniform" or self.kind == "product-uniform":
            out = np.clip(xs, 0.0, 1.0)
        elif self.kind == "beta":
            from scipy import special

            out = special.betainc(self.a, self.b, np.clip(xs, 0.0, 1.0))
        else:
            pts = self._atom_array()[:, 0]
            w = np.asarray(self.weights, float)
            out = (w[None, :] * (pts[None, :] <= xs.reshape(-1, 1))).sum(axis=1)
            out = out.reshape(xs.shape)
        return float(out) if np.isscalar(x) or xs.ndim == 0 else out

    def to_spec(self) -> dict:
        spec = {"kind": self.kind}
        if self.kind == "product-uniform":
            spec["dim"] = self.dim
        if self.kind == "beta":
            spec["a"] = self.a
            spec["b"] = self.b
        if self.kind == "discrete":
            spec["atoms"] = [list(a) if hasattr(a, "__len__") else a for a in self.atoms]
            spec["weights"] = list(self.weights)
        return spec
