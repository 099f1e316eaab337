"""Monte Carlo sampling of signal-plus-noise ensembles and the rescaled edge statistic.

mu1 comes from LAPACK: `dsyrk` forms the lower triangle of Y Y^T and `dsyevr`
returns its top eigenvalue alone (range='I', il = iu = M).  Both are called by
ctypes through the C pointers scipy exports in `cython_blas` and
`cython_lapack`, which releases the GIL for the call, so worker threads run
eigen steps at once.  Their first load pins scipy's bundled OpenBLAS to one
thread for the whole process: the last bits of mu1 depend on the BLAS thread
count, and at one BLAS thread per call neither that count nor the worker count
can move them.  numpy's own OpenBLAS is a separate library and keeps its count.
The two capsule modules are loaded from their extension files on the first
call, never at import, and the scipy.linalg package itself is never imported.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import logging
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .edge import solve_edge
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
    lambda_r: float
    gamma0: float


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, trial): reproducible and order-independent."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


def sample_matrix(model: SpectrumModel, dist: str, seed: int, trial: int) -> np.ndarray:
    """Draw Y = R + X with iid mean-0 variance-1/N noise entries from dist.

    seed and trial, Python or numpy integers, key the stream (`_trial_rng`);
    a negative one raises InvalidArgumentError.
    """
    if dist not in NOISE_DISTS:
        raise InvalidConfigError(f"unknown noise distribution {dist!r}; expected one of {NOISE_DISTS}")
    if seed < 0 or trial < 0:
        raise InvalidArgumentError(f"seed and trial must be nonnegative, got seed={seed}, trial={trial}")
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


# argument kinds of the two routines, in order (c: char *, i: int *, d: double *)
_ARG_KINDS = {
    "dsyrk": "cciiddiddi",              # uplo trans n k alpha a lda beta c ldc
    "dsyevr": "cccididdiididdiidiiii",  # jobz range uplo n a lda vl vu il iu abstol
}                                       # m w z ldz isuppz work lwork iwork liwork info

# read-only arguments shared by every call, by address: the flags 'L', 'T', 'N', 'I' and the doubles 1.0, 0.0
_FLAGS = np.frombuffer(b"LTNI", dtype=np.uint8)
_ONE_ZERO = np.array([1.0, 0.0])
_ONE_ZERO.flags.writeable = False
_L, _T, _N, _I = (_FLAGS.ctypes.data + k for k in range(4))
_ONE, _ZERO = _ONE_ZERO.ctypes.data, _ONE_ZERO.ctypes.data + 8
# head of the per-call int32 block: M, N, ldz = 1, lwork, liwork, m out, info out
_HEAD = 7


def _capsule_signature(module: str, kinds: str) -> str:
    """The name Cython gives the capsule of a scipy.linalg.<module> routine with these argument kinds."""
    double = f"__pyx_t_5scipy_6linalg_{len(module)}{module}_d *"
    return "void (" + ", ".join({"c": "char *", "i": "int *"}.get(k, double) for k in kinds) + ")"


# one capsule-module load at a time: two threads must not initialise one extension module at once
_LOAD_LOCK = threading.Lock()


def _capsule_module(module: str):
    """scipy.linalg.<module>, loaded from its own extension file so that scipy.linalg's __init__ never runs.

    An entry already in sys.modules is reused.  A module loaded here is taken
    back out of sys.modules, where its own init put it: a later import of it
    then takes the normal path, which gets this same module back from the
    extension and binds it as an attribute of scipy.linalg.  No extension file
    raises NumericError naming the module.
    """
    name = f"scipy.linalg.{module}"
    with _LOAD_LOCK:
        if name in sys.modules:
            return sys.modules[name]
        import scipy

        directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise NumericError(f"{name} has no extension file in {directory}")
        loaded = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(loaded)
        finally:
            sys.modules.pop(name, None)
        return loaded


def _capsule_routine(module: str, name: str):
    """A ctypes foreign function over the C pointer scipy.linalg.<module> exports for `name`.

    The module comes from `_capsule_module`.  The capsule's name is its C
    signature; a name other than the expected one raises NumericError rather
    than calling through a wrong prototype.  Calls through the CFUNCTYPE
    release the GIL.
    """
    capsule = _capsule_module(module).__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    kinds = _ARG_KINDS[name]
    found, expected = get_name(capsule), _capsule_signature(module, kinds)
    if found is None or found.decode() != expected:
        raise NumericError(f"scipy.linalg.{module}.{name} has signature {found!r}, expected {expected!r}")
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(kinds))(get_pointer(capsule, found))


def _pin_scipy_openblas() -> str:
    """Set scipy's bundled OpenBLAS to one thread for the process; says how it went.

    numpy's own OpenBLAS is a separate library and keeps its count.  A missing
    library or symbol, or a count that does not read back as 1, logs one
    warning, and the routines run unpinned.
    """
    import scipy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)),
                                  "scipy.libs", "libscipy_openblas*.so"))
    if len(libs) != 1:
        reason = f"{len(libs)} libscipy_openblas*.so files in scipy.libs, expected 1"
    else:
        name = os.path.basename(libs[0])
        lib = ctypes.CDLL(libs[0])
        try:
            set_count, get_count = lib.scipy_openblas_set_num_threads, lib.scipy_openblas_get_num_threads
        except AttributeError as exc:
            reason = f"{name}: {exc}"
        else:
            set_count.argtypes, set_count.restype = [ctypes.c_int], None
            get_count.argtypes, get_count.restype = [], ctypes.c_int
            set_count(1)
            count = get_count()
            if count == 1:
                return f"scipy's OpenBLAS {name} pinned to 1 thread"
            reason = f"{name} reads {count} threads after being set to 1"
    log.warning("scipy's OpenBLAS is not pinned to one thread (%s); mu1 may depend on its thread count",
                reason)
    return f"scipy's OpenBLAS not pinned: {reason}"


@lru_cache(maxsize=1)
def _lapack():
    """(dsyrk, dsyevr) for `largest_eigenvalue`, loaded on its first call with the BLAS pin.

    Only the cython_blas and cython_lapack extension modules are loaded, not
    the scipy.linalg package; a failed load leaves the cache empty.
    """
    routines = _capsule_routine("cython_blas", "dsyrk"), _capsule_routine("cython_lapack", "dsyevr")
    log.debug("largest_eigenvalue: dsyrk Gram, dsyevr top index, called through the cython_blas and "
              "cython_lapack capsules with the GIL released; %s", _pin_scipy_openblas())
    return routines


def largest_eigenvalue(Y: np.ndarray) -> float:
    """mu1, the squared largest singular value of Y: the top eigenvalue of Y Y^T.

    `dsyrk` forms the lower triangle of Y Y^T and `dsyevr` takes its top
    eigenvalue alone (index M), both through scipy's C pointers with the GIL
    released and on scipy's OpenBLAS pinned to one thread.  Every call has its
    own work arrays, so calls from several threads run at once.  A complex,
    empty or non-matrix Y raises InvalidArgumentError; non-finite input or
    any LAPACK failure raises NumericError.
    """
    if np.iscomplexobj(Y):
        raise InvalidArgumentError("Y must be real, got complex entries")
    Y = np.ascontiguousarray(Y, dtype=float)
    if Y.ndim != 2 or Y.size == 0:
        raise InvalidArgumentError("Y must be a nonempty matrix")
    M, N = Y.shape
    dsyrk, dsyevr = _lapack()
    # f2py's workspace sizes: lwork = 26 M, liwork = 10 M; isuppz (2 M) and iwork follow the head
    ints = np.empty(_HEAD + 12 * M, dtype=np.int32)
    ints[:_HEAD] = (M, N, 1, 26 * M, 10 * M, 0, 0)
    # G (M x M, lower triangle), w (M), z (1), work (26 M)
    doubles = np.zeros(M * M + 27 * M + 1)
    i, d = ints.ctypes.data, doubles.ctypes.data
    m_, n_, ldz, lwork, liwork, m_found, info = (i + 4 * k for k in range(_HEAD))
    w = d + 8 * M * M
    # a C-ordered Y is Y^T in Fortran order with lda = N: trans='T' forms (Y^T)^T Y^T without a copy
    dsyrk(_L, _T, m_, n_, _ONE, Y.ctypes.data, n_, _ZERO, d, m_)
    dsyevr(_N, _I, _L, m_, d, m_, _ZERO, _ZERO, m_, m_, _ZERO, m_found, w, w + 8 * M, ldz,
           i + 4 * _HEAD, w + 8 * (M + 1), lwork, i + 4 * (_HEAD + 2 * M), liwork, info)
    found, status = ints[5:_HEAD].tolist()
    if status != 0 or found != 1:
        raise NumericError(f"eigenvalue extraction failed: dsyevr info={status}, {found} eigenvalues found")
    return float(doubles[M * M])


def _require_count(name: str, value: int) -> None:
    """The one rule for trial and thread counts: at least 1, else InvalidArgumentError."""
    if value < 1:
        raise InvalidArgumentError(f"{name} must be >= 1, got {value}")


def pmap(fn, items, threads: int) -> list:
    """[fn(item) for item in items], on a pool of `threads` threads when above 1; below 1 it raises."""
    _require_count("threads", threads)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def ks_distance(samples, cdf) -> float:
    """Sup-distance between the empirical CDF of samples and a continuous CDF.

    `cdf` is called once, on the sorted samples as a 1-D array, and returns
    their CDF values as an array of that shape (a scalar broadcasts).
    `run_ensemble` passes the tabulated F1 (`f1_cdf_tabulated`); the direct
    `f1_cdf` takes arrays too.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n == 0:
        raise InvalidArgumentError("ks_distance requires at least one sample")
    F = np.asarray(cdf(samples), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(grid - F, F - (grid - 1.0 / n))))


def run_ensemble(
    model: SpectrumModel,
    n_trials: int,
    dist: str = "gaussian",
    seed: int = 0,
    threads: int = 1,
) -> EnsembleResult:
    """Sample the ensemble and form theta = gamma0 N^{2/3} (mu1 - lambda_r) per trial.

    This is the paper's statistic N^{2/3} (mu1_hat - E_plus) of the
    sqrt(gamma0)-scaled matrix, up to rounding: mu1_hat = gamma0 mu1 and
    E_plus = gamma0 lambda_r.  Trials are independent (seed, trial)-keyed
    streams, so the result is invariant to the worker count.  The KS distance
    is taken against the tabulated F1, within about 1e-14 of the direct
    determinant.  n_trials < 1 or threads < 1 raises InvalidArgumentError
    before the edge is solved.
    """
    _require_count("n_trials", n_trials)
    _require_count("threads", threads)
    if dist not in NOISE_DISTS:
        raise InvalidConfigError(f"unknown noise distribution {dist!r}; expected one of {NOISE_DISTS}")
    sol = solve_edge(model)
    lam, g = sol.lambda_r, sol.gamma0
    N23 = model.N ** (2.0 / 3.0)

    def one_trial(trial: int) -> float:
        return largest_eigenvalue(sample_matrix(model, dist, seed, trial))

    _lapack()  # load and pin here, once, before any worker thread calls LAPACK
    mu1s = np.array(pmap(one_trial, range(n_trials), threads), dtype=float)
    thetas = g * N23 * (mu1s - lam)

    mu1s.flags.writeable = False
    thetas.flags.writeable = False
    return EnsembleResult(
        thetas=thetas, mu1s=mu1s, n_trials=n_trials,
        mean=float(np.mean(thetas)), variance=float(np.var(thetas)),
        ks_distance=ks_distance(thetas, f1_cdf_tabulated),
        lambda_r=lam, gamma0=g,
    )
