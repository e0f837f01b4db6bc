"""Deterministic adaptive Simpson quadrature.

Used for moments without closed forms. Seedless and deterministic by
construction; error control is the classic Richardson estimate |S2 - S1|/15.
"""

from __future__ import annotations

import math

from .errors import NumericError

_MAX_DEPTH = 48


def _simpson(f, a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, m, fa, flm, fm)
    right = _simpson(f, m, b, fm, frm, fb)
    err = left + right - whole
    if not math.isfinite(err):
        raise NumericError(f"non-finite integrand near [{a}, {b}]")
    if depth >= _MAX_DEPTH or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _adaptive(f, a, m, fa, flm, fm, left, half, depth + 1) + _adaptive(
        f, m, b, fm, frm, fb, right, half, depth + 1
    )


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-8) -> float:
    """Integrate f over [a, b] to absolute tolerance tol."""
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    if not (math.isfinite(fa) and math.isfinite(fm) and math.isfinite(fb)):
        raise NumericError(f"non-finite integrand on [{a}, {b}]")
    whole = _simpson(f, a, b, fa, fm, fb)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, 0)

