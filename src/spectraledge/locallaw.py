"""Linearized resolvent of sampled instances vs the deterministic entry profiles.

The resolvent G = H(z)^{-1} of the (M+N) x (M+N) linearization is reduced
chunk by chunk from one eigendecomposition of Y Y^T: each row chunk is one real
GEMM, its diagonal entries are kept and its off-diagonal moduli fold into a
running max and sum, so no block of G is held whole.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .montecarlo import run_ensemble
from .spectrum import SpectrumModel, with_size
from .stieltjes import solve_stieltjes

log = logging.getLogger("spectraledge")

DEVIATION_CLASSES = ("ii", "barbar", "cross", "mumu", "offdiag", "avg")


@dataclass(frozen=True)
class LocalLawReport:
    """Deviations of resolvent entries from their deterministic profiles, per entry class.

    dev_* fields are maxima over the class; mean_deviations carries the
    class averages, whose size-N constants are far tamer than the maxima
    (the maxima are dominated by chi-square tails of the few eigenvalues
    within eta of the edge).
    """

    z: complex
    dev_ii: float
    dev_barbar: float
    dev_cross: float
    dev_mumu: float
    dev_offdiag: float
    dev_avg: float
    psi: float
    ratios: dict
    mean_deviations: dict
    mean_ratios: dict

    def deviations(self) -> dict:
        return {
            "ii": self.dev_ii,
            "barbar": self.dev_barbar,
            "cross": self.dev_cross,
            "mumu": self.dev_mumu,
            "offdiag": self.dev_offdiag,
            "avg": self.dev_avg,
        }


def build_linearization(Y: np.ndarray, z: complex) -> np.ndarray:
    """(M+N) x (M+N) block matrix [[-z I, Y], [Y*, -I]]."""
    Y = np.asarray(Y, dtype=float)
    M, N = Y.shape
    H = np.zeros((M + N, M + N), dtype=complex)
    H[:M, :M] = -z * np.eye(M)
    H[:M, M:] = Y
    H[M:, :M] = Y.T
    H[M:, M:] = -np.eye(N)
    return H


def _invert(H: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(H, np.eye(H.shape[0], dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"linearization is numerically singular: {exc}") from exc


# rows of G per GEMM in the reducer; 128 and 256 time the same on 2 vCPU, 512 is slower
CHUNK_ROWS = 128


def _resolvent_reduce(Y: np.ndarray, z: complex):
    """Diagonals of G = H(z)^{-1} and the max and sum of its off-diagonal moduli.

    By the Schur complement of H's lower-right -I, with Y Y^T = U diag(lam) U^T,
    W = U^T Y and D = diag(1/(lam - z)):  G11 = U D U^T, G12 = U D W = G21^T and
    G22 = W^T D W - I.  One right factor R = D [W | U^T] serves all three: a chunk
    of rows is one real GEMM of a slice of U or W^T against R viewed as
    interleaved re/im.  G11 and G22 are complex symmetric, so only their lower
    block triangle is formed; the strict-lower part counts twice in the sum.
    No block is ever held whole.  The partner pairs (i, M+i), the diagonal of
    G12, are left out of the off-diagonal statistics.

    Returns (diag G11, diag G12, diag G22, off-diagonal max, off-diagonal sum).
    """
    M, N = Y.shape
    try:
        lam, U = np.linalg.eigh(Y @ Y.T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of Y Y^T failed: {exc}") from exc
    W = U.T @ Y
    D = (1.0 / (lam - z))[:, None]
    R = np.empty((M, N + M), dtype=complex)
    np.multiply(D, W, out=R[:, :N])
    np.multiply(D, U.T, out=R[:, N:])
    Rf = R.view(float)

    g11, g12, g22 = np.empty(M, dtype=complex), np.empty(M, dtype=complex), np.empty(N, dtype=complex)
    off_max, off_sum = 0.0, 0.0
    # rows of [G12 | lower G11] from U, then rows of lower W^T D W from W^T; the
    # chunk's own diagonal block starts at column offset + r0 and counts once
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
            a = np.abs(G)
            off_max = max(off_max, float(a.max()))
            off_sum += 2.0 * float(a[:, : offset + r0].sum()) + float(a[:, offset + r0:].sum())
    g22 -= 1.0
    return g11, g12, g22, off_max, off_sum


def check_z(z) -> complex:
    """z as a complex number; InvalidArgumentError unless z is finite with Im z > 0.

    The local law's domain, checked by `locallaw_deviation` and by the CLI
    before it draws any sample.
    """
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag > 0):
        raise InvalidArgumentError(f"locallaw requires a finite z with Im z > 0, got {z}")
    return z


def locallaw_deviation(
    model: SpectrumModel,
    Y: np.ndarray,
    z: complex,
    rescaled: bool = False,
    gamma0: float | None = None,
) -> LocalLawReport:
    """Measure the entrywise deviations of G = H(z)^{-1} from the limit profiles.

    z must be finite with Im z > 0.  G is never formed: one eigendecomposition
    of Y Y^T feeds a reducer that builds G in row chunks of CHUNK_ROWS, keeps
    the diagonals and folds the off-diagonal moduli into a running max and sum
    (see _resolvent_reduce), so memory stays O((M + N) * (M + CHUNK_ROWS))
    rather than one complex N x N block.  Classes: diagonal signal rows (ii), their
    partners (barbar), the signal cross entries (cross), pure-noise diagonal
    (mumu), off-diagonal maximum excluding partner pairs (offdiag), and the
    averaged trace vs s(z) (avg).
    With rescaled=True the profiles take their hat forms for sqrt(gamma0)-scaled data.
    """
    z = check_z(z)
    M, N = model.M, model.N
    d = model.d
    dsq = model.d_sq

    if rescaled:
        if gamma0 is None:
            raise InvalidArgumentError("rescaled profiles need the scaling constant gamma0")
        # the hat profiles at z are the plain ones at z / g, with w and tb scaled by g
        g = gamma0
        sv = solve_stieltjes(model, z / g)
        b, w, tb, s_avg = sv.b, g * sv.w, g * sv.tb, sv.s / g
        denom = g * dsq - w
        cross_profile = math.sqrt(g) * d / denom
    else:
        sv = solve_stieltjes(model, z)
        b, w, s_avg = sv.b, sv.w, sv.s
        tb = z * b - (1.0 - model.c_N)
        denom = dsq - w
        cross_profile = d / denom

    g11, g12, g22, off_max, off_sum = _resolvent_reduce(np.asarray(Y, dtype=float), z)

    class_devs = {
        "ii": np.abs(g11 - b / denom),
        "barbar": np.abs(g22[:M] - tb / denom),
        "cross": np.abs(g12 - cross_profile),
        "mumu": np.abs(g22[M:] + 1.0 / b) if N > M else np.zeros(1),
    }
    maxima = {cls: float(v.max()) for cls, v in class_devs.items()}
    means = {cls: float(v.mean()) for cls, v in class_devs.items()}
    # the mean runs over every off-diagonal entry of G but the partner pairs
    # (i, M+i) and (M+i, i)
    maxima["offdiag"] = off_max
    means["offdiag"] = off_sum / (M * M - M + N * N - N + 2 * (M * N - M))

    dev_avg = float(abs(complex(np.mean(g11)) - s_avg))

    eta = z.imag
    psi = math.sqrt(max(sv.s.imag, 0.0) / (N * eta)) + 1.0 / (N * eta)
    means["avg"] = dev_avg
    ratios = {cls: maxima[cls] / psi for cls in maxima}
    ratios["avg"] = dev_avg * (N * eta)
    mean_ratios = {cls: means[cls] / psi for cls in maxima}
    mean_ratios["avg"] = dev_avg * (N * eta)
    return LocalLawReport(
        z=z, dev_ii=maxima["ii"], dev_barbar=maxima["barbar"], dev_cross=maxima["cross"],
        dev_mumu=maxima["mumu"], dev_offdiag=maxima["offdiag"], dev_avg=dev_avg,
        psi=psi, ratios=ratios, mean_deviations=means, mean_ratios=mean_ratios,
    )


def resolvent_identity_residual(Y: np.ndarray, z: complex, index: int, G: np.ndarray | None = None) -> float:
    """Residual of G_ii = 1/(-z - (Y G^(i) Y*)_ii) with the minor recomputed from scratch."""
    Y = np.asarray(Y, dtype=float)
    M, N = Y.shape
    if not 0 <= index < M:
        raise InvalidArgumentError("index must address a signal row")
    H = build_linearization(Y, z)
    if G is None:
        G = _invert(H)
    keep = np.delete(np.arange(M + N), index)
    G_minor = _invert(H[np.ix_(keep, keep)])
    block = G_minor[M - 1:, M - 1:]
    row = Y[index, :]
    value = 1.0 / (-z - row @ block @ row)
    return float(abs(G[index, index] - value))


def rigidity_scan(model: SpectrumModel, Ns, trials: int, seed: int = 0) -> float:
    """Least-squares slope of log median |mu1 - lambda_r| against log N.

    The model is regenerated at each size with the same aspect ratio and
    spectral shape; per size, one Gaussian `run_ensemble` keyed by seed + N
    gives mu1 per trial and the deterministic edge lambda_r.
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be positive")
    if trials == 1:
        log.warning("rigidity_scan with a single trial per size; slope is low-confidence")
    medians = []
    for N in Ns:
        if N < 50:
            raise InvalidArgumentError("rigidity scan sizes must be at least 50")
        r = run_ensemble(with_size(model, N), trials, "gaussian", seed + N)
        medians.append(np.median(np.abs(r.mu1s - r.lambda_r)))
    slope = float(np.polyfit(np.log(np.asarray(Ns, dtype=float)), np.log(medians), 1)[0])
    return slope
