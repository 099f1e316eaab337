"""Linearized resolvent of sampled instances vs the deterministic entry profiles.

The resolvent G = H(z)^{-1} of the (M+N) x (M+N) linearization is reduced
from one eigendecomposition of Y Y^T.  Its right factor is built one column
block at a time; each row chunk that meets a block is one real GEMM, whose
diagonal entries are kept and whose off-diagonal moduli fold into a running
max, so neither a block of G nor the whole right factor is ever held.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .montecarlo import _require_real, run_ensemble
from .spectrum import SpectrumModel, with_size
from .stieltjes import solve_stieltjes

log = logging.getLogger("spectraledge")

DEVIATION_CLASSES = ("ii", "barbar", "cross", "mumu", "offdiag", "avg")


@dataclass(frozen=True)
class LocalLawReport:
    """Deviations of resolvent entries from their deterministic profiles, per entry class.

    Each dict is keyed by DEVIATION_CLASSES, in that order.  deviations holds
    the maxima over each class and ratios those maxima over psi; the avg
    class is a single number, with ratio deviation * N eta.  A class with no
    entries reads 0.0.
    """

    z: complex
    psi: float
    deviations: dict
    ratios: dict


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


# rows of G per GEMM, and columns of the right factor per block, in the reducer.  On 2 vCPU,
# 128 and 256 rows time the same and 512 is slower; at 500 x 1000, blocks of 128, 256 or 512
# columns time the same and 64 is about 10% slower.
CHUNK_ROWS = 128


def _resolvent_reduce(Y: np.ndarray, z: complex):
    """Diagonals of G = H(z)^{-1} and the max of its off-diagonal moduli.

    By the Schur complement of H's lower-right -I, with Y Y^T = U diag(lam) U^T,
    W = U^T Y and D = diag(1/(lam - z)):  G11 = U D U^T, G12 = U D W = G21^T and
    G22 = W^T D W - I.  One right factor R = D [W | U^T] serves all three.  It is
    built one block of CHUNK_ROWS columns at a time, each block once, and each
    chunk of rows of U or W^T that needs a block is one real GEMM against it,
    viewed as interleaved re/im.  A chunk forms the same entries as one product
    of its rows with the whole of R would: the columns below offset + r1, where
    offset is N for U's rows and 0 for W^T's.  So G11 and G22, which are
    complex symmetric, are formed in their lower block triangle only.  Neither
    R nor any block of G is held whole.  The partner pairs (i, M+i), the
    diagonal of G12, are left out of the off-diagonal maximum.

    Returns (diag G11, diag G12, diag G22, off-diagonal max).
    """
    M, N = Y.shape
    try:
        lam, U = np.linalg.eigh(Y @ Y.T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of Y Y^T failed: {exc}") from exc
    W = U.T @ Y
    D = (1.0 / (lam - z))[:, None]

    g11, g12, g22 = np.empty(M, dtype=complex), np.empty(M, dtype=complex), np.empty(N, dtype=complex)
    off_max = 0.0
    # a block of D W meets every row of U (G12) and the rows of W^T from s0 on (lower G22);
    # a block of D U^T meets the rows of U from s0 on (lower G11)
    for source, targets in ((W, ((U, g12, False), (W.T, g22, True))), (U.T, ((U, g11, True),))):
        for s0 in range(0, source.shape[1], CHUNK_ROWS):
            Rf = np.multiply(D, source[:, s0:s0 + CHUNK_ROWS], order="C").view(float)
            for left, diag, lower in targets:
                for r0 in range(s0 if lower else 0, left.shape[0], CHUNK_ROWS):
                    r1 = min(r0 + CHUNK_ROWS, left.shape[0])
                    # a lower chunk forms only its columns below r1: its block triangle
                    G = (left[r0:r1] @ (Rf[:, : 2 * (r1 - s0)] if lower else Rf)).view(complex)
                    i = np.arange(max(r0, s0), min(r1, s0 + G.shape[1]))
                    diag[i] = G[i - r0, i - s0]
                    G[i - r0, i - s0] = 0.0
                    off_max = max(off_max, float(np.abs(G).max()))
    g22 -= 1.0
    return g11, g12, g22, off_max


def check_z(z) -> complex:
    """z as a complex number; InvalidArgumentError unless z is finite with Im z > 0.

    The local law's domain, checked by `locallaw_deviation` and by the CLI
    before it draws any sample.
    """
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag > 0):
        raise InvalidArgumentError(f"locallaw requires a finite z with Im z > 0, got {z}")
    return z


def locallaw_deviation(model: SpectrumModel, Y: np.ndarray, z: complex) -> LocalLawReport:
    """Measure the entrywise deviations of G = H(z)^{-1} from the limit profiles.

    z must be finite with Im z > 0 and Y real of shape (M, N); otherwise
    InvalidArgumentError, before any solve.  G is never formed: one
    eigendecomposition of Y Y^T feeds a reducer that builds G in blocks of
    CHUNK_ROWS rows by CHUNK_ROWS columns, keeps the diagonals and folds the
    off-diagonal moduli into a running max (see _resolvent_reduce).  It holds
    U, W = U^T Y and one column block of the right factor, so memory stays
    O(M (M + N) + CHUNK_ROWS (M + CHUNK_ROWS)) rather than one complex N x N
    block.
    Classes: diagonal signal rows (ii), their partners (barbar), the signal
    cross entries (cross), pure-noise diagonal (mumu), off-diagonal maximum
    excluding partner pairs (offdiag), and the averaged trace vs s(z) (avg).
    The paper's hat profiles of sqrt(gamma0)-scaled data at z are these at
    z / gamma0 up to powers of gamma0, so only this form is kept.
    """
    z = check_z(z)
    M, N = model.M, model.N
    _require_real(Y)
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (M, N):
        raise InvalidArgumentError(f"Y has shape {Y.shape}, the model needs ({M}, {N})")
    sv = solve_stieltjes(model, z)
    b = sv.b
    tb = z * b - (1.0 - model.c_N)
    denom = model.d_sq - sv.w

    g11, g12, g22, off_max = _resolvent_reduce(Y, z)

    class_devs = {
        "ii": np.abs(g11 - b / denom),
        "barbar": np.abs(g22[:M] - tb / denom),
        "cross": np.abs(g12 - model.d / denom),
        "mumu": np.abs(g22[M:] + 1.0 / b) if N > M else np.zeros(1),
    }
    maxima = {cls: float(v.max()) for cls, v in class_devs.items()}
    maxima["offdiag"] = off_max
    dev_avg = float(abs(complex(np.mean(g11)) - sv.s))

    eta = z.imag
    psi = math.sqrt(max(sv.s.imag, 0.0) / (N * eta)) + 1.0 / (N * eta)
    maxima["avg"] = dev_avg
    ratios = {cls: maxima[cls] / psi for cls in maxima}
    ratios["avg"] = dev_avg * (N * eta)
    return LocalLawReport(z=z, psi=psi, deviations=maxima, ratios=ratios)


def rigidity_scan(model: SpectrumModel, Ns, trials: int, seed: int = 0) -> float:
    """Least-squares slope of log median |mu1 - lambda_r| against log N.

    The model is regenerated at each size with the same aspect ratio and
    spectral shape; per size, one Gaussian `run_ensemble` keyed by seed + N
    gives mu1 per trial and the deterministic edge lambda_r.  A slope needs
    at least two distinct sizes, each at least 50; the sizes are checked
    before anything is sampled, and `run_ensemble` refuses trials < 1.
    """
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
