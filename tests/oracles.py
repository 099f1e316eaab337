"""Independent reference computations used only by the test suite.

Everything here is deliberately built on different machinery than the package:
Painleve II integration for the Tracy-Widom law, power series / asymptotic
expansions for Airy, Fredholm determinants on the package's rule whose Airy
kernel is scipy's alone or 25-digit mpmath's, one on a half-line rule of its own,
closed forms for the pure-noise (Marchenko-Pastur) model, the cubic
characteristic equation for constant spectra, dense LU solves of the
(M+N) x (M+N) linearization and its minors for the local-law resolvent,
scipy's f2py LAPACK wrappers for the largest eigenvalue, and 50-digit mpmath
root finding for the edge's critical point.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dsyevr
from scipy.special import airy as scipy_airy

from spectraledge.tracywidom import DEFAULT_NODES, _airy_pair, _half_length, _unit_rule


# ---------------------------------------------------------------------------
# Tracy-Widom F1 via the Hastings-McLeod solution of Painleve II
# ---------------------------------------------------------------------------

class PainleveF1:
    """F1(s) = exp(-1/2 int_s^inf [q + (x-s) q^2] dx) with q'' = s q + 2 q^3.

    Integrates backward from s0 where q matches Ai, carrying the three tail
    integrals as extra state so no post-hoc quadrature of q is needed.
    """

    def __init__(self, s0=8.0, s1=-12.5, rtol=1e-12, atol=1e-14):
        ai0, aip0, _, _ = scipy_airy(s0)
        i1 = quad(lambda x: scipy_airy(x)[0], s0, np.inf)[0]
        i3 = quad(lambda x: scipy_airy(x)[0] ** 2, s0, np.inf)[0]
        i2 = quad(lambda x: (x - s0) * scipy_airy(x)[0] ** 2, s0, np.inf)[0]

        def rhs(s, y):
            q, qp, _, int_q2, _ = y
            return [qp, s * q + 2.0 * q**3, -q, -q * q, -int_q2]

        self._sol = solve_ivp(
            rhs, [s0, s1], [ai0, aip0, i1, i3, i2],
            method="DOP853", rtol=rtol, atol=atol, dense_output=True,
        )
        assert self._sol.success
        self.s0 = s0
        self.s1 = s1

    def cdf(self, s):
        if s >= self.s0:
            return 1.0
        if s <= self.s1:
            return 0.0
        _, _, i1, _, i2 = self._sol.sol(s)
        return float(np.exp(-0.5 * (i1 + i2)))

    def pdf(self, s, step=1e-5):
        return (self.cdf(s + step) - self.cdf(s - step)) / (2 * step)

    def moments(self, lo=-10.0, hi=8.0, n=3601):
        xs = np.linspace(lo, hi, n)
        F = np.array([self.cdf(x) for x in xs])
        pdf = np.gradient(F, xs)
        mass = np.trapezoid(pdf, xs)
        mean = np.trapezoid(xs * pdf, xs) / mass
        var = np.trapezoid((xs - mean) ** 2 * pdf, xs) / mass
        return mean, var


# ---------------------------------------------------------------------------
# Airy Ai by Maclaurin series and by asymptotic expansions
# ---------------------------------------------------------------------------

_AI_C1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AI_C2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)


def airy_maclaurin(x, nmax=200):
    """Power-series Ai; accurate in doubles for |x| up to roughly 5 (positive side)."""
    x = np.asarray(x, dtype=float)
    f = np.ones_like(x)
    g = x.copy()
    tf = np.ones_like(x)
    tg = x.copy()
    for k in range(1, nmax):
        tf = tf * x**3 / ((3 * k) * (3 * k - 1))
        tg = tg * x**3 / ((3 * k + 1) * (3 * k))
        f = f + tf
        g = g + tg
    return _AI_C1 * f - _AI_C2 * g


def _u_coefficients(kmax):
    u = [1.0]
    for k in range(kmax):
        u.append(u[-1] * (6 * k + 1) * (6 * k + 3) * (6 * k + 5) / (216.0 * (k + 1) * (2 * k + 1)))
    return np.array(u)


def airy_asymptotic_pos(x, kmax=25):
    """Decaying expansion for large positive x, truncated at the smallest term."""
    x = float(x)
    zeta = (2.0 / 3.0) * x**1.5
    u = _u_coefficients(kmax)
    terms = (-1.0) ** np.arange(kmax + 1) * u / zeta ** np.arange(kmax + 1)
    stop = np.argmin(np.abs(terms))
    acc = np.sum(terms[: stop + 1])
    return math.exp(-zeta) / (2.0 * math.sqrt(math.pi) * x**0.25) * acc


def airy_asymptotic_neg(x, kmax=25):
    """Oscillatory expansion for large negative x, truncated at the smallest terms."""
    y = -float(x)
    zeta = (2.0 / 3.0) * y**1.5
    u = _u_coefficients(2 * kmax + 2)
    even = (-1.0) ** np.arange(kmax + 1) * u[0 : 2 * kmax + 2 : 2] / zeta ** (2 * np.arange(kmax + 1))
    odd = (-1.0) ** np.arange(kmax + 1) * u[1 : 2 * kmax + 3 : 2] / zeta ** (2 * np.arange(kmax + 1) + 1)
    se = np.sum(even[: np.argmin(np.abs(even)) + 1])
    so = np.sum(odd[: np.argmin(np.abs(odd)) + 1])
    phase = zeta - math.pi / 4.0
    return (math.cos(phase) * se + math.sin(phase) * so) / (math.sqrt(math.pi) * y**0.25)


def _nystrom_f1_pair(K, Kp):
    """(det(I - K), -det(I - K) tr((I - K)^{-1} Kp)), the package's arithmetic for F1 and f1."""
    eye = np.eye(len(K))
    det = float(np.linalg.det(eye - K))
    trace = float(np.trace(np.linalg.solve(eye - K, Kp)))
    return det, -det * trace


def scipy_f1_pair(s, n=DEFAULT_NODES):
    """(F1(s), f1(s)) from the package's Nystrom rule with every kernel entry from
    scipy's airy (cephes up to x = 10, complex AMOS above) on the full n x n grid,
    in the package's arithmetic otherwise, so only the Airy values differ."""
    u, unit_scale = _unit_rule(n)
    length = _half_length(s)
    ai, aip, _, _ = scipy_airy(length * (u[:, None] + u[None, :]) + s)
    scale = length * unit_scale
    return _nystrom_f1_pair(scale * ai, scale * aip)


def mpmath_f1_pair(s, n=DEFAULT_NODES):
    """(F1(s), f1(s)) from the package's Nystrom rule with every kernel entry from
    25-digit mpmath rounded to double, on the upper triangle and mirrored, in the
    package's arithmetic otherwise.  About 0.8 s a point."""
    u, unit_scale = _unit_rule(n)
    length = _half_length(s)
    rows, cols = np.triu_indices(n)
    ai = np.empty((n, n))
    aip = np.empty((n, n))
    with mpmath.workdps(25):
        for i, j in zip(rows, cols):
            x = mpmath.mpf(float(length * (u[i] + u[j]) + s))
            ai[i, j] = ai[j, i] = float(mpmath.airyai(x))
            aip[i, j] = aip[j, i] = float(mpmath.airyai(x, derivative=1))
    scale = length * unit_scale
    return _nystrom_f1_pair(scale * ai, scale * aip)


@lru_cache(maxsize=2)
def _halfline_rule(n):
    """Nodes x = -2 log u, square-root weights and upper-triangle indices of the half-line rule."""
    xi, wg = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (xi + 1.0)
    return (-2.0 * np.log(u), np.sqrt(wg / u), *np.triu_indices(n))


def halfline_f1_pair(s, n=128):
    """(F1(s), f1(s)) from the Gauss-Legendre rule on (0, 1) pushed onto the half line
    by x = -2 log u (Bornemann 2010), on the full n x n grid.

    Independent of the package's rule: other nodes, no truncation at X_CAP and
    no left cut, so left of about -10 it returns the determinant's rounding.
    Airy comes from the package's `_airy_pair`, which the Airy oracles above
    check on their own, on the upper triangle; scipy's AMOS branch would cost
    25 ms a point here.
    """
    x, sw, rows, cols = _halfline_rule(n)
    ai = np.empty((n, n))
    aip = np.empty((n, n))
    ai[rows, cols], aip[rows, cols] = _airy_pair(x[rows] + x[cols] + s)
    ai[cols, rows], aip[cols, rows] = ai[rows, cols], aip[rows, cols]
    scale = sw[:, None] * sw[None, :]
    return _nystrom_f1_pair(scale * ai, scale * aip)


# ---------------------------------------------------------------------------
# Pure-noise (zero signal) closed forms
# ---------------------------------------------------------------------------

def mp_stieltjes(z, c):
    """Upper-half-plane branch of c z s^2 + (z - (1-c)) s + 1 = 0."""
    z = complex(z)
    disc = np.sqrt((z - (1.0 - c)) ** 2 - 4.0 * c * z)
    roots = [(-(z - (1.0 - c)) + disc) / (2 * c * z), (-(z - (1.0 - c)) - disc) / (2 * c * z)]
    return max(roots, key=lambda s: s.imag)


def mp_density(E, c):
    lo = (1.0 - math.sqrt(c)) ** 2
    hi = (1.0 + math.sqrt(c)) ** 2
    if E <= lo or E >= hi:
        return 0.0
    return math.sqrt((hi - E) * (E - lo)) / (2.0 * math.pi * c * E)


def mp_edges(c):
    return (1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2


# ---------------------------------------------------------------------------
# Constant-spectrum edge: critical points solve an explicit cubic
# ---------------------------------------------------------------------------

def constant_spectrum_critical_points(d, c):
    """Real roots of -w^3 + 3d^2 w^2 - (3d^4 - 2cd^2 - c) w + d^6 - 2cd^4 + (2c^2 - c) d^2."""
    coeffs = [
        -1.0,
        3.0 * d**2,
        -(3.0 * d**4 - 2.0 * c * d**2 - c),
        d**6 - 2.0 * c * d**4 + (2.0 * c**2 - c) * d**2,
    ]
    roots = np.roots(coeffs)
    return sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)


def mp_constant_spectrum_xi_r(d, c, dps=50, bracket=None):
    """Largest critical point of phi right of d^2 for a constant spectrum, to dps digits.

    phi'(w) = u^2 - 2 c w u f' - c (1-c) f' with f = 1/(d^2-w), f' = f^2 and
    u = 1 - c f, solved by mpmath.findroot from the cubic oracle's root, or by
    the bracketing Anderson-Bjork solver on the offsets bracket = (lo, hi)
    from d^2 where the double-precision cubic cannot resolve the root.
    d and c are taken as the exact binary values of the given floats.
    """
    start = None if bracket else max(w for w in constant_spectrum_critical_points(d, c) if w > d**2)
    with mpmath.workdps(dps):
        dsq = mpmath.mpf(d) ** 2
        cc = mpmath.mpf(c)

        def phip(w):
            f = 1 / (dsq - w)
            u = 1 - cc * f
            return u * u - 2 * cc * w * u * f * f - cc * (1 - cc) * f * f

        if bracket:
            return mpmath.findroot(phip, tuple(dsq + mpmath.mpf(x) for x in bracket), solver="anderson")
        return mpmath.findroot(phip, mpmath.mpf(start))


# ---------------------------------------------------------------------------
# Symmetric 3x3 eigenvalues without LAPACK: characteristic cubic in closed form
# ---------------------------------------------------------------------------

def sym3_eigenvalues(A):
    """Eigenvalues of a symmetric 3x3 matrix by the trigonometric cubic formula."""
    A = np.asarray(A, dtype=float)
    p1 = A[0, 1] ** 2 + A[0, 2] ** 2 + A[1, 2] ** 2
    q = np.trace(A) / 3.0
    p2 = (A[0, 0] - q) ** 2 + (A[1, 1] - q) ** 2 + (A[2, 2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    if p == 0.0:
        return np.array([q, q, q])
    B = (A - q * np.eye(3)) / p
    det_b = (
        B[0, 0] * (B[1, 1] * B[2, 2] - B[1, 2] * B[2, 1])
        - B[0, 1] * (B[1, 0] * B[2, 2] - B[1, 2] * B[2, 0])
        + B[0, 2] * (B[1, 0] * B[2, 1] - B[1, 1] * B[2, 0])
    )
    r = det_b / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    return np.sort(np.array([lam1, lam2, lam3]))


# ---------------------------------------------------------------------------
# Largest eigenvalue through scipy's f2py wrappers (GIL held, copies as f2py makes them)
# ---------------------------------------------------------------------------

def f2py_largest_eigenvalue(Y):
    """Top eigenvalue of Y Y^T by f2py `dsyrk` (lower triangle) and `dsyevr` (index M only)."""
    Y = np.asarray(Y, dtype=float)
    M = Y.shape[0]
    G = dsyrk(1.0, Y.T, trans=1, lower=1)
    w, _, m, _, info = dsyevr(G, compute_v=0, range="I", il=M, iu=M, lower=1, overwrite_a=1)
    if info != 0 or m != 1:
        raise np.linalg.LinAlgError(f"dsyevr info={info}, {m} eigenvalues found")
    return float(w[0])


# ---------------------------------------------------------------------------
# Local law: the resolvent by a dense solve of the full linearization
# ---------------------------------------------------------------------------

def whole_factor_resolvent_reduce(Y, z):
    """`locallaw._resolvent_reduce` as it was before its column blocks: the whole right factor at once.

    R = D [W | U^T] is held whole, and each chunk of CHUNK_ROWS rows of U, then
    of W^T, is one GEMM against R's columns below offset + r1, where offset is
    N for U's rows and 0 for W^T's.  Returns (diag G11, diag G12, diag G22,
    off-diagonal max).
    """
    from spectraledge.locallaw import CHUNK_ROWS

    M, N = Y.shape
    lam, U = np.linalg.eigh(Y @ Y.T)
    W = U.T @ Y
    D = (1.0 / (lam - z))[:, None]
    R = np.empty((M, N + M), dtype=complex)
    np.multiply(D, W, out=R[:, :N])
    np.multiply(D, U.T, out=R[:, N:])
    Rf = R.view(float)
    g11, g12, g22 = np.empty(M, dtype=complex), np.empty(M, dtype=complex), np.empty(N, dtype=complex)
    off_max = 0.0
    for left, offset in ((U, N), (W.T, 0)):
        for r0 in range(0, left.shape[0], CHUNK_ROWS):
            r1 = min(r0 + CHUNK_ROWS, left.shape[0])
            k = np.arange(r1 - r0)
            G = (left[r0:r1] @ Rf[:, : 2 * (offset + r1)]).view(complex)
            if offset:
                g12[r0:r1], g11[r0:r1] = G[k, r0 + k], G[k, N + r0 + k]
                G[k, r0 + k] = G[k, N + r0 + k] = 0.0
            else:
                g22[r0:r1] = G[k, r0 + k]
                G[k, r0 + k] = 0.0
            off_max = max(off_max, float(np.abs(G).max()))
    return g11, g12, g22 - 1.0, off_max


def dense_locallaw_report(model, Y, z):
    """Every LocalLawReport field, with G = H(z)^{-1} from np.linalg.solve against I.

    H(z) = [[-z I, Y], [Y^T, -I]] is built in full and the entry classes are
    read through index masks on G; the deterministic profiles are the
    package's Stieltjes solution, so only the resolvent path differs.
    """
    from spectraledge import build_linearization, solve_stieltjes

    z = complex(z)
    M, N = model.M, model.N
    sv = solve_stieltjes(model, z)
    b = sv.b
    tb = z * b - (1.0 - model.c_N)
    denom = model.d_sq - sv.w

    H = build_linearization(Y, z)
    G = np.linalg.solve(H, np.eye(M + N, dtype=complex))
    idx = np.arange(M)
    mu = np.arange(2 * M, M + N)
    mask = np.ones_like(G, dtype=bool)
    np.fill_diagonal(mask, False)
    mask[idx, M + idx] = False
    mask[M + idx, idx] = False
    classes = {
        "ii": np.abs(G[idx, idx] - b / denom),
        "barbar": np.abs(G[M + idx, M + idx] - tb / denom),
        "cross": np.abs(G[idx, M + idx] - model.d / denom),
        "mumu": np.abs(G[mu, mu] + 1.0 / b) if N > M else np.zeros(1),
        "offdiag": np.abs(G[mask]),
    }
    dev_avg = abs(complex(np.mean(G[idx, idx])) - sv.s)
    eta = z.imag
    psi = math.sqrt(max(sv.s.imag, 0.0) / (N * eta)) + 1.0 / (N * eta)
    maxima = {k: float(v.max()) for k, v in classes.items()}
    maxima["avg"] = dev_avg
    return {
        "z": z,
        "deviations": maxima,
        "psi": psi,
        "ratios": {**{k: maxima[k] / psi for k in classes}, "avg": dev_avg * N * eta},
    }


def _invert(H):
    """H^{-1} by a dense LU solve against the identity."""
    return np.linalg.solve(H, np.eye(H.shape[0], dtype=complex))


def minor_noise_resolvent(Y, z, index):
    """Lower-right N x N block of G^(i), the inverse of H(z) with row and column `index` removed."""
    from spectraledge import build_linearization

    M, N = Y.shape
    keep = np.delete(np.arange(M + N), index)
    return _invert(build_linearization(Y, z)[np.ix_(keep, keep)])[M - 1:, M - 1:]


def resolvent_identity_residual(Y, z, index):
    """Residual of G_ii = 1/(-z - (Y G^(i) Y*)_ii), G and the minor both by dense solves."""
    from spectraledge import build_linearization

    Y = np.asarray(Y, dtype=float)
    G_ii = _invert(build_linearization(Y, z))[index, index]
    row = Y[index]
    return float(abs(G_ii - 1.0 / (-z - row @ minor_noise_resolvent(Y, z, index) @ row)))
