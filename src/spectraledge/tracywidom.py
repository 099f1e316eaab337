"""Type-1 Tracy-Widom law evaluated from first principles via a Fredholm determinant.

Two paths give F1.  The direct path (`f1_cdf`, `f1_pdf`, `tw_table`) computes
a Nystrom determinant per point (Bornemann 2010), for a whole grid at once in
`_f1_pairs`.  The tabulated path (`f1_cdf_tabulated`) reads a degree-79
Chebyshev interpolant of the direct F1 on [-10, 12], built once per process on
first use, at about 1e-14 of the direct values; the KS step of `run_ensemble`
uses it.

The determinant runs on an n-point Gauss-Legendre rule on [0, L(s)] with
L(s) = max(X_CAP - s, 4) / 2, so every kernel argument x + y + s lies in
[s, X_CAP] (in [s, s + 4] for s > X_CAP - 4); Ai(X_CAP) = Ai(20) is about
1.7e-27.  DEFAULT_NODES = 26 is the smallest n whose F1 and f1 stay within
2e-14 of a 128-node Gauss-Legendre rule mapped onto the half line by
x = -2 log u: measured 7.8e-15 (F1) and 1.1e-14 (f1) on [-14, 14] in steps
of 0.05, and within 1.2e-14 of 52 nodes on [-10, 12]; 25 nodes give 6.5e-14.
Both paths return exact zeros for F1 and f1 at and left of LEFT_CUT = -10,
where the true values are below 1e-21 but the determinant's rounding is not:
without the cut F1(-30) reads 0.43 on the 64-node half-line rule.  Points at
or left of the cut never reach the Airy evaluator.

Both paths take Ai and Ai' from one evaluator, `_airy_pair`, built on numpy
alone.  For -20 <= x <= 10 it sums a 22-term Taylor series about the nearest
anchor -20 + k/2, whose coefficients follow from Ai(x_k) and Ai'(x_k) by the
ODE Ai'' = x Ai; the anchor values are correctly rounded 40-digit mpmath
values.  Against 40-digit mpmath on 3062 points of [-20, 10] its absolute error
is 9.4e-17 for Ai and 3.1e-16 for Ai' (scipy's cephes: 6.9e-15 and 1.6e-14).
For x > 10 it sums the decaying expansion of DLMF 9.7.5-9.7.6, whose relative
error against 40-digit mpmath on (10, 45] is at most 0.98 zeta eps
(zeta = 2/3 x^{3/2}, eps = 2^-52), the conditioning of e^{-zeta}; scipy's
AMOS reaches 1.27 zeta eps at the same points.  The coefficient table is
built on the first Airy evaluation, never at import.
"""

from __future__ import annotations

import logging
import time
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev, chebpts2
from numpy.polynomial.legendre import leggauss

from .errors import InvalidArgumentError, NumericError
from .spectrum import grid

# Ai and Ai' are evaluated for x >= AIRY_MIN: a Taylor series about the anchors
# AIRY_MIN + k _TAYLOR_STEP up to _SERIES_FROM, the decaying expansion above it
AIRY_MIN = -20.0
_SERIES_FROM = 10.0
# the term k = 20 is the first below 2**-53 at x = 10 (zeta = 21.08), for Ai and Ai'
_SERIES_TERMS = 21
_TAYLOR_STEP = 0.5
# at |t| <= _TAYLOR_STEP / 2 the first omitted terms are below 1.9e-21 (Ai) and
# 1.3e-20 (Ai'), largest at x = -20; 20 terms would leave 7.2e-19 and 5.0e-18
_TAYLOR_TERMS = 22
# Ai and Ai' are 0.0 and -0.0 from x ~ 108 on, where e^{-zeta} underflows; x is capped here
_UNDERFLOW = 200.0
# (Ai(x_k), Ai'(x_k)) at x_k = -20 + k/2, k = 0..60: 40-digit mpmath rounded to nearest
_ANCHORS = (
    (-0.1764061270779847, 0.8928628567364713),
    (0.26780027210258395, 0.08774108834375714),
    (-0.14166127688042265, -1.0049611250051396),
    (-0.11208853977554048, 1.0646439622797084),
    (0.2712045408044142, -0.15903891520496802),
    (-0.17266059066222628, -0.9024049204808416),
    (-0.10526230029095239, 1.05868457664466),
    (0.27886848056055086, -0.09462257996353214),
    (-0.1430579316690997, -0.9747644416212727),
    (-0.16644795409041976, 0.9049379354302122),
    (0.2782174908708289, 0.272374204308642),
    (-0.030597418939551424, -1.0953212728805393),
    (-0.2659834827840778, 0.44302487700284365),
    (0.1909812432962203, 0.8264327514252542),
    (0.17151043937053703, -0.8715196778799533),
    (-0.27627456138116024, -0.41933133041950515),
    (-0.06655517505437313, 1.0231104533679707),
    (0.30542297004359265, 0.08772415432178444),
    (-0.008759589255702381, -1.0273278736645794),
    (-0.3119260350510506, 0.09095748739068167),
    (0.04024123848644319, 0.99626504413279),
    (0.3191032477191282, -0.10809531881187123),
    (-0.022133721547341403, -0.9756639809263316),
    (-0.33029023763020887, -0.03231334828463914),
    (-0.0527050503563862, 0.9355609381983065),
    (0.3217757163806479, 0.3188095066985546),
    (0.18428083525050565, -0.7710081684101265),
    (-0.2380203019971158, -0.6749524925132022),
    (-0.3291451736298231, 0.3459354872813429),
    (0.017781541276574976, 0.8641972177713984),
    (0.35076100902411433, 0.32719281855444315),
    (0.2921527810559595, -0.5233625323157477),
    (-0.07026553294928951, -0.7906285753685813),
    (-0.37553382314043193, -0.34344343345404815),
    (-0.37881429367765806, 0.3145837692165988),
    (-0.11232506769296609, 0.6788527342647943),
    (0.22740742820168558, 0.618259020741691),
    (0.4642565777488694, 0.3091869672024104),
    (0.5355608832923521, -0.01016056711664521),
    (0.4757280916105396, -0.20408167033954738),
    (0.3550280538878172, -0.2588194037928068),
    (0.23169360648083348, -0.2249105326646839),
    (0.13529241631288141, -0.1591474412967932),
    (0.07174949700810541, -0.09738201284230132),
    (0.03492413042327438, -0.05309038443365363),
    (0.01572592338047049, -0.026250881035903232),
    (0.006591139357460719, -0.011912976705951319),
    (0.002584098786989635, -0.005004413967952583),
    (0.0009515638512048018, -0.001958640950204179),
    (0.00033025032351430896, -0.0007178665675575089),
    (0.00010834442813607442, -0.0002474138908684625),
    (3.368531190859981e-05, -8.046339130556515e-05),
    (9.947694360252889e-06, -2.4765200397034955e-05),
    (2.7958823432049136e-06, -7.231931466601793e-06),
    (7.492128863997167e-07, -2.008150894738792e-06),
    (1.9172560675134309e-07, -5.312713959720545e-07),
    (4.6922076160992316e-08, -1.3414392979067865e-07),
    (1.0997009755195506e-08, -3.237725440447602e-08),
    (2.47116843087249e-09, -7.480641389658946e-09),
    (5.330263704617492e-10, -1.6566394593740667e-09),
    (1.1047532552898686e-10, -3.5206336767389237e-10),
)
# the Nystrom rule covers [0, L(s)], L(s) = max(X_CAP - s, 4) / 2: kernel arguments end at X_CAP
X_CAP = 20.0
DEFAULT_NODES = 26
# _f1_pairs holds at most _BATCH kernels at once: a few (128, 26, 26) arrays of 0.7 MB
_BATCH = 128
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
def _taylor_table():
    """Taylor coefficients about each anchor x_k, as a (terms, 2, anchors) array of the
    Ai row a_j and the Ai' row (j + 1) a_{j+1}, built on the first call and logged.

    a_0 = Ai(x_k) and a_1 = Ai'(x_k) come from _ANCHORS; the ODE Ai'' = x Ai gives
    a_2 = x_k a_0 / 2 and a_{j+2} = (x_k a_j + a_{j-1}) / ((j + 1)(j + 2)).
    """
    started = time.perf_counter()
    ai, aip = np.array(_ANCHORS).T
    xk = AIRY_MIN + _TAYLOR_STEP * np.arange(len(ai))
    a = [ai, aip, 0.5 * xk * ai]
    for j in range(1, _TAYLOR_TERMS - 1):
        a.append((xk * a[j] + a[j - 1]) / ((j + 1) * (j + 2)))
    table = np.array([(a[j], (j + 1) * a[j + 1]) for j in range(_TAYLOR_TERMS)])
    log.debug("tracywidom: Airy Taylor table of %d anchors, h = %g, %d terms, built in %.6f s",
              len(ai), _TAYLOR_STEP, _TAYLOR_TERMS, time.perf_counter() - started)
    return table


def _airy_pair(x):
    """(Ai(x), Ai'(x)) for a float array x of any shape with every x >= -20.

    For x <= 10, Horner's rule in t = x - x_k on the Taylor table of the nearest
    anchor x_k, |t| <= 1/4; above, the decaying expansions of DLMF 9.7.5-9.7.6
    with zeta = 2/3 x^{3/2}, summed by Horner's rule in 1/zeta:
    Ai = e^{-zeta} / (2 sqrt(pi) x^{1/4}) sum (-1)^k u_k zeta^{-k},
    Ai' = -x^{1/4} e^{-zeta} / (2 sqrt(pi)) sum (-1)^k v_k zeta^{-k}.
    InvalidArgumentError for x < -20 or NaN, which the anchor index would
    otherwise wrap.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= AIRY_MIN):
        raise InvalidArgumentError(f"Airy evaluation needs x >= {AIRY_MIN}, got {np.min(x)}")
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    low = x <= _SERIES_FROM
    xl = x[low]
    k = np.rint((xl - AIRY_MIN) / _TAYLOR_STEP).astype(np.intp)
    t = xl - (AIRY_MIN + _TAYLOR_STEP * k)
    table = _taylor_table()
    sums = np.take(table[-1], k, axis=1)
    for coef in table[-2::-1]:
        sums *= t
        sums += np.take(coef, k, axis=1)
    ai[low], aip[low] = sums
    high = ~low
    # capped, so that Ai'(inf) is -0.0 rather than -0 * inf = NaN
    xh = np.minimum(x[high], _UNDERFLOW)
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


def _half_length(s):
    """L(s) = max(X_CAP - s, 4) / 2: the rule's interval [0, L] keeps x + y + s <= max(X_CAP, s + 4)."""
    return 0.5 * np.maximum(X_CAP - s, 4.0)


def _kernel_stack(s, n: int):
    """Symmetrized kernels L sqrt(w_i w_j) Ai(L (u_i + u_j) + s) and their s-derivatives,
    stacked as two (len(s), n, n) arrays for a float array s.

    The n-point Gauss-Legendre rule on [0, L(s)] has nodes L u_i and weights
    L w_i.  It truncates the half line at L(s), where every kernel argument
    x + y + s on [0, L]^2 is at most 2L + s = max(X_CAP, s + 4); the
    accuracy this buys is measured against a half-line rule (module docstring).
    Airy is evaluated once, on the upper triangles of every point, and mirrored;
    u_i + u_j is exactly u_j + u_i, so each matrix equals the full-grid
    evaluation bit for bit.
    """
    _, unit_scale = _unit_rule(n)
    rows, cols, pair_sums = _upper_pairs(n)
    length = _half_length(s)
    ai_upper, aip_upper = _airy_pair(length[:, None] * pair_sums + s[:, None])
    K = np.empty((len(s), n, n))
    Kp = np.empty((len(s), n, n))
    K[:, rows, cols] = K[:, cols, rows] = ai_upper
    Kp[:, rows, cols] = Kp[:, cols, rows] = aip_upper
    scale = length[:, None, None] * unit_scale
    K *= scale
    Kp *= scale
    return K, Kp


def _f1_pairs(s, n: int):
    """(F1, f1) at every point of the 1-D float array s, as two arrays.

    One Airy evaluation and one stacked det and solve per batch of _BATCH
    points; f1 differentiates the determinant:
    F1'(s) = -det(I - A_s) tr((I - A_s)^{-1} dA_s/ds).  Points at and left of
    LEFT_CUT are 0 and never reach Airy; a NaN point does and is refused there.
    """
    F = np.zeros(len(s))
    f = np.zeros(len(s))
    live = np.flatnonzero(~(s <= LEFT_CUT))
    eye = np.eye(n)
    for start in range(0, len(live), _BATCH):
        points = live[start:start + _BATCH]
        K, Kp = _kernel_stack(s[points], n)
        i_minus_k = eye - K
        det = np.linalg.det(i_minus_k)
        trace = np.trace(np.linalg.solve(i_minus_k, Kp), axis1=1, axis2=2)
        # fmax, not maximum: far right the kernel underflows, -det * trace is -0.0 and f1 is +0.0
        F[points] = np.fmin(1.0, np.fmax(0.0, det))
        f[points] = np.fmax(0.0, -det * trace)
    return F, f


def _f1_shaped(s, which: int):
    """F1 (which = 0) or f1 (which = 1) at a scalar or an array s, in the shape of s."""
    arr = np.asarray(s, dtype=float)
    value = _f1_pairs(arr.ravel(), DEFAULT_NODES)[which].reshape(arr.shape)
    return float(value) if value.ndim == 0 else value


def f1_cdf(s):
    """F1(s) as the Fredholm determinant det(I - A_s) of the Airy-shift kernel on (0, inf).

    Direct path: one Nystrom determinant per point, on the Gauss-Legendre
    rule of DEFAULT_NODES = 26 nodes on [0, L(s)] (see `_kernel_stack`),
    within 7.8e-15 of a 128-node half-line rule on [-14, 14].  Exactly 0 at
    and left of LEFT_CUT = -10, where F1 < 1e-21.  A scalar s gives a float,
    an array one of its shape; NaN raises InvalidArgumentError.
    """
    return _f1_shaped(s, 0)


def f1_pdf(s):
    """Density of F1 by differentiating the determinant (direct path, f1_cdf's rule).

    Within 1.1e-14 of a 128-node half-line rule on [-14, 14]; 0 at and left
    of LEFT_CUT; scalar or array, as f1_cdf.
    """
    return _f1_shaped(s, 1)


def tw_table(start: float, stop: float, step: float):
    """Rows (s, F1(s), f1(s)) on the closed grid start, start+step, ..., stop (direct path).

    The grid is `spectrum.grid`'s: finite bounds, step > 0 and stop >= start,
    else InvalidArgumentError.  The rule is f1_cdf's, of DEFAULT_NODES
    nodes, and every row equals the `f1_cdf` and `f1_pdf` calls at its point
    bit for bit.  Logs one debug line per call with the rule and the time.
    """
    started = time.perf_counter()
    s = grid(start, stop, step, "twtable")
    F, f = _f1_pairs(s, DEFAULT_NODES)
    rows = list(zip(s.tolist(), F.tolist(), f.tolist()))
    log.debug("tw_table: %d rows on a %d-node rule to X_CAP = %g in %.3f s",
              len(rows), DEFAULT_NODES, X_CAP, time.perf_counter() - started)
    return rows


def _chebyshev_f1(nodes: int, lo: float, hi: float) -> Chebyshev:
    """Interpolant of the direct F1 at the `nodes` Chebyshev extrema of [lo, hi].

    Raises NumericError when the tail of the Chebyshev series has not decayed
    to _TAIL_TOL, since the interpolant would then be wrong by about as much.
    """
    started = time.perf_counter()
    xs = lo + (chebpts2(nodes) + 1.0) * (0.5 * (hi - lo))
    values = _f1_pairs(xs, DEFAULT_NODES)[0]
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
