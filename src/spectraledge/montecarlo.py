"""Monte Carlo sampling of signal-plus-noise ensembles and the rescaled edge statistic.

mu1 comes from LAPACK: `dsyrk` forms the lower triangle of Y Y^T and `dsyevr`
returns its top eigenvalue alone (range='I', il = iu = M), both on scipy's
bundled OpenBLAS at its own thread count.  Nothing here changes that count,
per call or per pool: the last bits of mu1 depend on it, so a count tied to
`threads` would let the worker count move the results.  scipy.linalg is
loaded on the first call, never at import.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .edge import EdgeSolution, solve_edge
from .errors import InvalidArgumentError, InvalidConfigError, NumericError
from .spectrum import SpectrumModel
from .tracywidom import f1_cdf_tabulated

NOISE_DISTS = ("gaussian", "rademacher", "uniform")

log = logging.getLogger("spectraledge")


@dataclass(frozen=True)
class EnsembleResult:
    """Rescaled largest-eigenvalue statistics theta_k = gamma0 N^{2/3} (mu1_k - lambda_r)."""

    thetas: np.ndarray
    mu1s: np.ndarray
    n_trials: int
    mean: float
    variance: float
    ks_distance: float
    seed: int
    noise_dist: str
    lambda_r: float
    gamma0: float


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, trial): reproducible and order-independent."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


def sample_matrix(model: SpectrumModel, dist: str, seed: int, trial: int) -> np.ndarray:
    """Draw Y = R + X with iid mean-0 variance-1/N noise entries from dist."""
    if dist not in NOISE_DISTS:
        raise InvalidConfigError(f"unknown noise distribution {dist!r}; expected one of {NOISE_DISTS}")
    rng = _trial_rng(seed, trial)
    M, N = model.M, model.N
    root_n = math.sqrt(N)
    if dist == "gaussian":
        X = rng.standard_normal((M, N))
    elif dist == "rademacher":
        X = 2.0 * rng.integers(0, 2, size=(M, N))
        X -= 1.0
    else:
        X = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(M, N))
    X /= root_n
    X[np.arange(M), np.arange(M)] += model.d
    return X


@lru_cache(maxsize=1)
def _lapack():
    """(dsyrk, dsyevr) for `largest_eigenvalue`, loaded on its first call."""
    from scipy.linalg.blas import dsyrk
    from scipy.linalg.lapack import dsyevr

    log.debug("largest_eigenvalue: dsyrk Gram, dsyevr top index; scipy's OpenBLAS at its own thread count")
    return dsyrk, dsyevr


def largest_eigenvalue(Y: np.ndarray) -> float:
    """mu1, the squared largest singular value of Y: the top eigenvalue of Y Y^T.

    LAPACK path: `dsyrk` forms the lower triangle of Y Y^T and `dsyevr` takes
    its top eigenvalue alone (index M), on scipy's bundled OpenBLAS at the
    library's own thread count.  Non-finite input or any LAPACK failure
    raises NumericError.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.size == 0:
        raise InvalidArgumentError("Y must be a nonempty matrix")
    M = Y.shape[0]
    dsyrk, dsyevr = _lapack()
    # Y.T of a C-ordered Y is Fortran-ordered: trans=1 forms (Y.T)^T Y.T without a copy
    G = dsyrk(1.0, Y.T, trans=1, lower=1)
    w, _, m, _, info = dsyevr(G, compute_v=0, range="I", il=M, iu=M, lower=1, overwrite_a=1)
    if info != 0 or m != 1:
        raise NumericError(f"eigenvalue extraction failed: dsyevr info={info}, {m} eigenvalues found")
    return float(w[0])


def pmap(fn, items, threads: int) -> list:
    """[fn(item) for item in items], on a pool of the given number of threads when above 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def ks_distance(samples, cdf) -> float:
    """Sup-distance between the empirical CDF of samples and a continuous CDF.

    `cdf` is called once per sample.  `run_ensemble` passes the tabulated F1
    (`f1_cdf_tabulated`); pass `f1_cdf` for the direct determinant per sample.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n == 0:
        raise InvalidArgumentError("ks_distance requires at least one sample")
    F = np.array([cdf(x) for x in samples])
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(grid - F, F - (grid - 1.0 / n))))


def run_ensemble(
    model: SpectrumModel,
    n_trials: int,
    dist: str = "gaussian",
    seed: int = 0,
    rescale: bool = False,
    edge: EdgeSolution | None = None,
    threads: int = 1,
) -> EnsembleResult:
    """Sample the ensemble and form theta = gamma0 N^{2/3} (mu1 - lambda_r) per trial.

    With rescale=True the matrix itself is multiplied by sqrt(gamma0) and the
    statistic is formed as N^{2/3} (mu1_hat - E_plus); both conventions agree
    identically.  Trials are independent (seed, trial)-keyed streams, so the
    result is invariant to the worker count.  The KS distance is taken
    against the tabulated F1, within about 1e-14 of the direct determinant.
    """
    if n_trials < 0:
        raise InvalidArgumentError("n_trials must be nonnegative")
    if dist not in NOISE_DISTS:
        raise InvalidConfigError(f"unknown noise distribution {dist!r}; expected one of {NOISE_DISTS}")
    sol = edge if edge is not None and edge.gamma0 is not None else solve_edge(model)
    lam, g = sol.lambda_r, sol.gamma0
    N23 = model.N ** (2.0 / 3.0)
    sqrt_g = math.sqrt(g)

    def one_trial(trial: int):
        Y = sample_matrix(model, dist, seed, trial)
        if rescale:
            mu_hat = largest_eigenvalue(sqrt_g * Y)
            return mu_hat / g, N23 * (mu_hat - sol.E_plus)
        mu1 = largest_eigenvalue(Y)
        return mu1, g * N23 * (mu1 - lam)

    pairs = pmap(one_trial, range(n_trials), threads)
    mu1s = np.array([p[0] for p in pairs], dtype=float)
    thetas = np.array([p[1] for p in pairs], dtype=float)

    if n_trials:
        mean = float(np.mean(thetas))
        variance = float(np.var(thetas))
        ks = ks_distance(thetas, f1_cdf_tabulated)
    else:
        mean = variance = ks = math.nan
    mu1s.flags.writeable = False
    thetas.flags.writeable = False
    return EnsembleResult(
        thetas=thetas, mu1s=mu1s, n_trials=n_trials,
        mean=mean, variance=variance, ks_distance=ks,
        seed=seed, noise_dist=dist, lambda_r=lam, gamma0=g,
    )
