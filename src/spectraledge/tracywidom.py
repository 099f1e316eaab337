"""Type-1 Tracy-Widom law evaluated from first principles via a Fredholm determinant."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import airy as _scipy_airy

from .errors import DomainError

AIRY_RANGE = (-20.0, 40.0)
DEFAULT_NODES = 64


def airy_ai(x):
    """Airy function Ai on [-20, 40], relative error well below 1e-10."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < AIRY_RANGE[0]) or np.any(arr > AIRY_RANGE[1]):
        raise DomainError(f"airy_ai is specified on [{AIRY_RANGE[0]}, {AIRY_RANGE[1]}]")
    value = _scipy_airy(arr)[0]
    return float(value) if np.isscalar(x) or arr.ndim == 0 else value


@lru_cache(maxsize=8)
def _nystrom_nodes(n: int):
    """Gauss-Legendre rule on (0,1) pushed through the map x = -2 log u."""
    xi, wg = leggauss(n)
    u = 0.5 * (xi + 1.0)
    w = 0.5 * wg
    x = -2.0 * np.log(u)
    weights = w * 2.0 / u
    return x, weights


@lru_cache(maxsize=8)
def _upper_pairs(n: int):
    """Index pairs i <= j of the upper triangle and the node sums x_i + x_j on them."""
    x, _ = _nystrom_nodes(n)
    rows, cols = np.triu_indices(n)
    return rows, cols, x[rows] + x[cols]


def _kernel_matrices(s: float, n: int):
    """Symmetrized kernel sqrt(w_i w_j) Ai(x_i + x_j + s) and its s-derivative.

    Airy is evaluated on the upper triangle only and mirrored; x_i + x_j is
    exactly x_j + x_i, so both matrices equal the full-grid evaluation bit for bit.
    """
    _, w = _nystrom_nodes(n)
    rows, cols, pair_sums = _upper_pairs(n)
    ai_upper, aip_upper, _, _ = _scipy_airy(pair_sums + s)
    ai = np.empty((n, n))
    aip = np.empty((n, n))
    ai[rows, cols] = ai[cols, rows] = ai_upper
    aip[rows, cols] = aip[cols, rows] = aip_upper
    sw = np.sqrt(w)
    scale = sw[:, None] * sw[None, :]
    return scale * ai, scale * aip


def f1_cdf(s: float, n: int = DEFAULT_NODES) -> float:
    """F1(s) as the Fredholm determinant det(I - A_s) of the Airy-shift kernel on (0, inf)."""
    K, _ = _kernel_matrices(float(s), n)
    det = float(np.linalg.det(np.eye(n) - K))
    return min(1.0, max(0.0, det))


def f1_pdf(s: float, n: int = DEFAULT_NODES) -> float:
    """Density of F1 by differentiating the determinant:
    F1'(s) = -det(I - A_s) tr((I - A_s)^{-1} dA_s/ds).
    """
    K, Kp = _kernel_matrices(float(s), n)
    eye = np.eye(n)
    det = float(np.linalg.det(eye - K))
    trace = float(np.trace(np.linalg.solve(eye - K, Kp)))
    return max(0.0, -det * trace)


def tw_table(start: float, stop: float, step: float, n: int = DEFAULT_NODES):
    """Rows (s, F1(s), f1(s)) on the closed grid start, start+step, ..., stop."""
    if step <= 0:
        raise DomainError("step must be positive")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    rows = []
    for k in range(count):
        s = start + k * step
        rows.append((s, f1_cdf(s, n), f1_pdf(s, n)))
    return rows
