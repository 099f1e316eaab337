"""Type-1 Tracy-Widom law evaluated from first principles via a Fredholm determinant.

Two paths give F1.  The direct path (`f1_cdf`, `f1_pdf`, `tw_table`) computes
one Nystrom determinant per point (Bornemann 2010).  The tabulated path
(`f1_cdf_tabulated`) reads a degree-79 Chebyshev interpolant of the direct
F1 on [-10, 12], built once per process on first use, at about 1e-14 of the
direct values; the KS step of `run_ensemble` uses it.

The determinant runs on an n-point Gauss-Legendre rule on [0, L(s)] with
L(s) = max(X_CAP - s, 4) / 2, so every kernel argument x + y + s lies in
[s, X_CAP] (in [s, s + 4] for s > X_CAP - 4); Ai(X_CAP) = Ai(20) is about
1.7e-27.  DEFAULT_NODES = 26 is the smallest n whose F1 and f1 stay within
2e-14 of a 128-node Gauss-Legendre rule mapped onto the half line by
x = -2 log u: measured 7.8e-15 (F1) and 1.1e-14 (f1) on [-14, 14] in steps
of 0.05, and within 1.2e-14 of 52 nodes on [-10, 12]; 25 nodes give 6.5e-14.
Both paths return exact zeros for F1 and f1 at and left of LEFT_CUT = -10,
where the true values are below 1e-21 but the determinant's rounding is not:
without the cut F1(-30) reads 0.43 on the 64-node half-line rule.

Both paths take Ai and Ai' from one evaluator, `_airy_pair`: scipy's cephes
branch for x <= 10 and the decaying expansion of DLMF 9.7.5-9.7.6 for x > 10,
where scipy would switch to its complex AMOS routines at several times the
cost.  Against 40-digit mpmath on (10, 45] the expansion's relative error is
at most 0.98 zeta eps (zeta = 2/3 x^{3/2}, eps = 2^-52), the conditioning of
e^{-zeta}; AMOS reaches 1.27 zeta eps at the same points.

scipy.special is imported on the first Airy evaluation (`_scipy_airy`), never
at import: it costs about a quarter second of start-up on a 2-vCPU host, and
the commands that need only the deterministic edge data never evaluate Airy.
"""

from __future__ import annotations

import logging
import time
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev, chebpts2
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, NumericError
from .spectrum import grid

AIRY_RANGE = (-20.0, 40.0)
# Above _SERIES_FROM scipy's airy leaves cephes for the complex AMOS routines,
# which cost 1.5-3 us a point; the decaying expansion is cheaper there.
_SERIES_FROM = 10.0
# the term k = 20 is the first below 2**-53 at x = 10 (zeta = 21.08), for Ai and Ai'
_SERIES_TERMS = 21
# the Nystrom rule covers [0, L(s)], L(s) = max(X_CAP - s, 4) / 2: kernel arguments end at X_CAP
X_CAP = 20.0
DEFAULT_NODES = 26
# F1 and f1 are exact zeros at and left of LEFT_CUT on both paths: F1(-9) ~ 8e-17,
# F1(-10) ~ 4e-22.  1 - F1(12) ~ 2e-14.
LEFT_CUT = -10.0
TABLE_RANGE = (LEFT_CUT, 12.0)
TABLE_NODES = 80
# the table is refused when a coefficient among its last _TAIL_COEFFS exceeds _TAIL_TOL
_TAIL_COEFFS = 8
_TAIL_TOL = 1e-12

log = logging.getLogger("spectraledge")


def _asymptotic_coefficients(terms: int):
    """(-1)^k u_k and (-1)^k v_k for k < terms, by the recurrence of DLMF 9.7.2,
    stacked as a (terms, 2, 1) array so one Horner loop sums both series."""
    u = [1.0]
    v = [1.0]
    for k in range(1, terms):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k))
        v.append(-(6 * k + 1) / (6 * k - 1) * u[-1])
    signs = (-1.0) ** np.arange(terms)
    return np.stack([signs * u, signs * v], axis=1)[:, :, None]


_ASYMPTOTIC = _asymptotic_coefficients(_SERIES_TERMS)


@lru_cache(maxsize=1)
def _scipy_airy():
    """scipy.special.airy, imported on the first call and logged with its import time."""
    started = time.perf_counter()
    from scipy.special import airy

    log.debug("tracywidom: scipy.special loaded for the cephes Airy branch in %.3f s",
              time.perf_counter() - started)
    return airy


def _airy_pair(x):
    """(Ai(x), Ai'(x)) for a float array x of any shape.

    scipy's cephes branch for x <= 10; above, the decaying expansions of
    DLMF 9.7.5-9.7.6 with zeta = 2/3 x^{3/2}, summed by Horner's rule in 1/zeta:
    Ai = e^{-zeta} / (2 sqrt(pi) x^{1/4}) sum (-1)^k u_k zeta^{-k},
    Ai' = -x^{1/4} e^{-zeta} / (2 sqrt(pi)) sum (-1)^k v_k zeta^{-k}.
    """
    x = np.asarray(x, dtype=float)
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    low = x <= _SERIES_FROM
    ai[low], aip[low], _, _ = _scipy_airy()(x[low])
    high = ~low
    xh = x[high]
    zeta = (2.0 / 3.0) * xh**1.5
    t = 1.0 / zeta
    sums = _ASYMPTOTIC[-1]
    for coef in _ASYMPTOTIC[-2::-1]:
        sums = sums * t + coef
    scale = np.exp(-zeta) * (0.5 / np.sqrt(np.pi))
    quarter = xh**0.25
    ai[high] = scale * sums[0] / quarter
    aip[high] = -scale * quarter * sums[1]
    return ai, aip


def airy_ai(x):
    """Airy function Ai on [-20, 40], relative error well below 1e-10.

    scipy's cephes branch up to x = 10, the DLMF 9.7.5 expansion above it:
    there the relative error against 40-digit mpmath is at most 0.98 zeta eps,
    zeta = 2/3 x^{3/2} (about 3.7e-14 at x = 40).  The first call in a process
    imports scipy.special; importing this module does not.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < AIRY_RANGE[0]) or np.any(arr > AIRY_RANGE[1]):
        raise DomainError(f"airy_ai is specified on [{AIRY_RANGE[0]}, {AIRY_RANGE[1]}]")
    value = _airy_pair(arr)[0]
    return float(value) if np.isscalar(x) or arr.ndim == 0 else value


@lru_cache(maxsize=8)
def _unit_rule(n: int):
    """Gauss-Legendre nodes u on (0, 1) and the weight products sqrt(w_i w_j)."""
    xi, wg = leggauss(n)
    sw = np.sqrt(0.5 * wg)
    return 0.5 * (xi + 1.0), sw[:, None] * sw[None, :]


@lru_cache(maxsize=8)
def _upper_pairs(n: int):
    """Index pairs i <= j of the upper triangle and the unit node sums u_i + u_j on them."""
    u, _ = _unit_rule(n)
    rows, cols = np.triu_indices(n)
    return rows, cols, u[rows] + u[cols]


def _half_length(s: float) -> float:
    """L(s) = max(X_CAP - s, 4) / 2: the rule's interval [0, L] keeps x + y + s <= max(X_CAP, s + 4)."""
    return 0.5 * max(X_CAP - s, 4.0)


def _kernel_matrices(s: float, n: int):
    """Symmetrized kernel L sqrt(w_i w_j) Ai(L (u_i + u_j) + s) and its s-derivative.

    The n-point Gauss-Legendre rule on [0, L(s)] has nodes L u_i and weights
    L w_i.  It truncates the half line at L(s), where every kernel argument
    x + y + s on [0, L]^2 is at most 2L + s = max(X_CAP, s + 4); the
    accuracy this buys is measured against a half-line rule (module docstring).
    Airy is evaluated on the upper triangle only and mirrored; u_i + u_j is
    exactly u_j + u_i, so both matrices equal the full-grid evaluation bit for bit.
    """
    _, unit_scale = _unit_rule(n)
    rows, cols, pair_sums = _upper_pairs(n)
    length = _half_length(s)
    ai_upper, aip_upper = _airy_pair(length * pair_sums + s)
    ai = np.empty((n, n))
    aip = np.empty((n, n))
    ai[rows, cols] = ai[cols, rows] = ai_upper
    aip[rows, cols] = aip[cols, rows] = aip_upper
    scale = length * unit_scale
    return scale * ai, scale * aip


def f1_cdf(s: float, n: int = DEFAULT_NODES) -> float:
    """F1(s) as the Fredholm determinant det(I - A_s) of the Airy-shift kernel on (0, inf).

    Direct path: one Nystrom determinant per call, on the n-point
    Gauss-Legendre rule of [0, L(s)] (see `_kernel_matrices`); at 26 nodes
    within 7.8e-15 of a 128-node half-line rule on [-14, 14].  Exactly 0 at
    and left of LEFT_CUT = -10, where F1 < 1e-21.
    """
    return _f1_pair(s, n)[0]


def _f1_pair(s: float, n: int):
    """(F1(s), f1(s)) from one kernel evaluation; f1 differentiates the determinant:
    F1'(s) = -det(I - A_s) tr((I - A_s)^{-1} dA_s/ds).  Both are 0 at and left of LEFT_CUT.
    """
    s = float(s)
    if s <= LEFT_CUT:
        return 0.0, 0.0
    K, Kp = _kernel_matrices(s, n)
    eye = np.eye(n)
    det = float(np.linalg.det(eye - K))
    trace = float(np.trace(np.linalg.solve(eye - K, Kp)))
    return min(1.0, max(0.0, det)), max(0.0, -det * trace)


def f1_pdf(s: float, n: int = DEFAULT_NODES) -> float:
    """Density of F1 by differentiating the determinant (direct path)."""
    return _f1_pair(s, n)[1]


def tw_table(start: float, stop: float, step: float, n: int = DEFAULT_NODES):
    """Rows (s, F1(s), f1(s)) on the closed grid start, start+step, ..., stop (direct path).

    The grid is `spectrum.grid`'s: finite bounds, step > 0 and stop >= start,
    else DomainError.  Logs one debug line per call with the rule and the time.
    """
    started = time.perf_counter()
    rows = [(s, *_f1_pair(s, n)) for s in grid(start, stop, step, "twtable").tolist()]
    log.debug("tw_table: %d rows on a %d-node rule to X_CAP = %g in %.3f s",
              len(rows), n, X_CAP, time.perf_counter() - started)
    return rows


def _chebyshev_f1(nodes: int, lo: float, hi: float) -> Chebyshev:
    """Interpolant of the direct F1 at the `nodes` Chebyshev extrema of [lo, hi].

    Raises NumericError when the tail of the Chebyshev series has not decayed
    to _TAIL_TOL, since the interpolant would then be wrong by about as much.
    """
    started = time.perf_counter()
    xs = lo + (chebpts2(nodes) + 1.0) * (0.5 * (hi - lo))
    values = np.array([f1_cdf(float(x)) for x in xs])
    table = Chebyshev.fit(xs, values, nodes - 1, domain=[lo, hi])
    tail = float(np.max(np.abs(table.coef[-_TAIL_COEFFS:])))
    seconds = time.perf_counter() - started
    log.debug("F1 table: %d Chebyshev nodes on [%g, %g] of a %d-node determinant, "
              "largest tail coefficient %.2e, built in %.3f s", nodes, lo, hi, DEFAULT_NODES, tail, seconds)
    if not tail <= _TAIL_TOL:
        raise NumericError(f"F1 Chebyshev table on [{lo}, {hi}] with {nodes} nodes: "
                           f"tail coefficient {tail:.2e} exceeds {_TAIL_TOL}")
    return table


@lru_cache(maxsize=1)
def _f1_table() -> Chebyshev:
    """The process-wide F1 interpolant, built on first use."""
    return _chebyshev_f1(TABLE_NODES, *TABLE_RANGE)


def f1_cdf_tabulated(s):
    """F1(s) read from the Chebyshev table (tabulated path), within about 1e-14 of `f1_cdf`.

    Takes a scalar or an array (one series evaluation for all points) and
    returns the same.  0 at and left of LEFT_CUT, as the direct F1, and 1
    above TABLE_RANGE, where the direct F1 rounds to 1.
    """
    arr = np.asarray(s, dtype=float)
    lo, hi = TABLE_RANGE
    F = np.clip(_f1_table()(np.clip(arr, lo, hi)), 0.0, 1.0)
    F = np.where(arr <= LEFT_CUT, 0.0, np.where(arr > hi, 1.0, F))
    return float(F) if F.ndim == 0 else F
