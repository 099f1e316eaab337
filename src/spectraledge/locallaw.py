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

    Each dict is keyed by DEVIATION_CLASSES, in that order.  deviations holds
    the maxima over each class and ratios those maxima over psi;
    mean_deviations and mean_ratios hold the class averages, whose size-N
    constants are far tamer than the maxima (the maxima are dominated by
    chi-square tails of the few eigenvalues within eta of the edge).  The
    avg class is a single number, the same in both, with ratio
    deviation * N eta.  A class with no entries reads 0.0.
    """

    z: complex
    psi: float
    deviations: dict
    ratios: dict
    mean_deviations: dict
    mean_ratios: dict


def build_linearization(Y: np.ndarray, z: complex) -> np.ndarray:
    """(M+N) x (M+N) block matrix [[-z I, Y], [Y*, -I]].

    locallaw_deviation never forms H.  It stays public because perfbench/tracer.py
    wraps it by name and the dense oracle of the tests builds H from it.
    """
    Y = np.asarray(Y, dtype=float)
    M, N = Y.shape
    H = np.zeros((M + N, M + N), dtype=complex)
    H[:M, :M] = -z * np.eye(M)
    H[:M, M:] = Y
    H[M:, :M] = Y.T
    H[M:, M:] = -np.eye(N)
    return H


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
    # (i, M+i) and (M+i, i); at M = N = 1 there is none
    off_count = M * M - M + N * N - N + 2 * (M * N - M)
    maxima["offdiag"] = off_max
    means["offdiag"] = off_sum / off_count if off_count else 0.0

    dev_avg = float(abs(complex(np.mean(g11)) - s_avg))

    eta = z.imag
    psi = math.sqrt(max(sv.s.imag, 0.0) / (N * eta)) + 1.0 / (N * eta)
    maxima["avg"] = means["avg"] = dev_avg
    ratios = {cls: maxima[cls] / psi for cls in maxima}
    mean_ratios = {cls: means[cls] / psi for cls in means}
    ratios["avg"] = mean_ratios["avg"] = dev_avg * (N * eta)
    return LocalLawReport(z=z, psi=psi, deviations=maxima, ratios=ratios,
                          mean_deviations=means, mean_ratios=mean_ratios)


def rigidity_scan(model: SpectrumModel, Ns, trials: int, seed: int = 0) -> float:
    """Least-squares slope of log median |mu1 - lambda_r| against log N.

    The model is regenerated at each size with the same aspect ratio and
    spectral shape; per size, one Gaussian `run_ensemble` keyed by seed + N
    gives mu1 per trial and the deterministic edge lambda_r.  A slope needs
    at least two distinct sizes, each at least 50; the sizes are checked
    before anything is sampled.
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be positive")
    if len(set(Ns)) < 2:
        raise InvalidArgumentError(f"rigidity scan needs at least two distinct sizes, got {list(Ns)}")
    if min(Ns) < 50:
        raise InvalidArgumentError("rigidity scan sizes must be at least 50")
    if trials == 1:
        log.warning("rigidity_scan with a single trial per size; slope is low-confidence")
    medians = []
    for N in Ns:
        r = run_ensemble(with_size(model, N), trials, "gaussian", seed + N)
        medians.append(np.median(np.abs(r.mu1s - r.lambda_r)))
    slope = float(np.polyfit(np.log(np.asarray(Ns, dtype=float)), np.log(medians), 1)[0])
    return slope
