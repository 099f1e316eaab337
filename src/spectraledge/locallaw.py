"""Linearized resolvent of sampled instances vs the deterministic entry profiles."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .edge import solve_edge
from .errors import InvalidArgumentError, NumericError
from .montecarlo import largest_eigenvalue, sample_matrix
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


def _resolvent_blocks(Y: np.ndarray, z: complex):
    """Blocks G11, G12, G22 of H(z)^{-1} by the Schur complement of H's lower-right -I.

    G11 = (Y Y^T - z)^{-1}, G12 = G11 Y and G22 = -I + Y^T G11 Y; G21 = G12^T
    because H is complex symmetric.  With Y Y^T = U diag(lam) U^T, W = U^T Y and
    D = diag(1/(lam - z)) these are U D U^T, U D W and W^T D W - I: one eigh
    and two real GEMMs per block, never an (M+N)^2 matrix.
    """
    try:
        lam, U = np.linalg.eigh(Y @ Y.T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of Y Y^T failed: {exc}") from exc
    W = U.T @ Y
    D = 1.0 / (lam - z)

    def sandwich(left, right):
        out = np.empty((left.shape[0], right.shape[1]), dtype=complex)
        out.real = (left * D.real) @ right
        out.imag = (left * D.imag) @ right
        return out

    G22 = sandwich(W.T, W)
    G22[np.diag_indices_from(G22)] -= 1.0
    return sandwich(U, U.T), sandwich(U, W), G22


def locallaw_deviation(
    model: SpectrumModel,
    Y: np.ndarray,
    z: complex,
    rescaled: bool = False,
    gamma0: float | None = None,
) -> LocalLawReport:
    """Resolve H(z) blockwise and measure entrywise deviations from the limit profiles.

    The resolvent G = H(z)^{-1} comes from one eigendecomposition of Y Y^T
    (see _resolvent_blocks).  Classes: diagonal signal rows (ii), their
    partners (barbar), the signal cross entries (cross), pure-noise diagonal
    (mumu), off-diagonal maximum excluding partner pairs (offdiag), and the
    averaged trace vs s(z) (avg).
    With rescaled=True the profiles take their hat forms for sqrt(gamma0)-scaled data.
    """
    z = complex(z)
    if z.imag <= 0:
        raise InvalidArgumentError("locallaw_deviation requires Im z > 0")
    M, N = model.M, model.N
    d = model.d
    dsq = model.d_sq

    if rescaled:
        if gamma0 is None:
            raise InvalidArgumentError("rescaled profiles need the scaling constant gamma0")
        g = gamma0
        sv = solve_stieltjes(model, z / g)
        m_z = sv.s / g
        s_for_psi = g * m_z
        b = 1.0 + model.c_N * g * m_z
        w = z * b**2 - g * (1.0 - model.c_N) * b
        tb = z * b - g * (1.0 - model.c_N)
        denom = g * dsq - w
        cross_profile = math.sqrt(g) * d / denom
        s_avg = m_z
    else:
        sv = solve_stieltjes(model, z)
        b, w = sv.b, sv.w
        tb = z * b - (1.0 - model.c_N)
        denom = dsq - w
        cross_profile = d / denom
        s_for_psi = sv.s
        s_avg = sv.s

    G11, G12, G22 = _resolvent_blocks(np.asarray(Y, dtype=float), z)
    g11, g12, g22 = G11.diagonal(), G12.diagonal(), G22.diagonal()

    class_devs = {
        "ii": np.abs(g11 - b / denom),
        "barbar": np.abs(g22[:M] - tb / denom),
        "cross": np.abs(g12 - cross_profile),
        "mumu": np.abs(g22[M:] + 1.0 / b) if N > M else np.zeros(1),
    }
    maxima = {cls: float(v.max()) for cls, v in class_devs.items()}
    means = {cls: float(v.mean()) for cls, v in class_devs.items()}

    # off-diagonal entries without the partner pairs (i, M+i) and (M+i, i);
    # G21 = G12^T holds the same moduli as G12, so G12 counts twice in the mean
    off_max, off_sum = 0.0, 0.0
    for block, weight in ((G11, 1), (G22, 1), (G12, 2)):
        a = np.abs(block)
        np.fill_diagonal(a, 0.0)
        off_max = max(off_max, float(a.max()))
        off_sum += weight * float(a.sum())
    maxima["offdiag"] = off_max
    means["offdiag"] = off_sum / (M * M - M + N * N - N + 2 * (M * N - M))

    dev_avg = float(abs(complex(np.mean(g11)) - s_avg))

    eta = z.imag
    psi = math.sqrt(max(s_for_psi.imag, 0.0) / (N * eta)) + 1.0 / (N * eta)
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
    spectral shape; the deterministic edge is recomputed per size.
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be positive")
    if trials == 1:
        log.warning("rigidity_scan with a single trial per size; slope is low-confidence")
    medians = []
    for N in Ns:
        if N < 50:
            raise InvalidArgumentError("rigidity scan sizes must be at least 50")
        m = with_size(model, N)
        lam = solve_edge(m).lambda_r
        devs = []
        for trial in range(trials):
            Y = sample_matrix(m, "gaussian", seed + N, trial)
            devs.append(abs(largest_eigenvalue(Y) - lam))
        medians.append(np.median(devs))
    slope = float(np.polyfit(np.log(np.asarray(Ns, dtype=float)), np.log(medians), 1)[0])
    return slope
