import ctypes
import glob
import logging
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy
from hypothesis import given, strategies as st

import spectraledge
from spectraledge import (
    InvalidArgumentError,
    InvalidConfigError,
    NumericError,
    f1_cdf,
    ks_distance,
    largest_eigenvalue,
    load_spectrum,
    run_ensemble,
    sample_matrix,
    solve_edge,
)

from spectraledge import montecarlo
from spectraledge.montecarlo import _lapack, _trial_rng
from spectraledge.tracywidom import TABLE_RANGE, _f1_table

from oracles import f2py_largest_eigenvalue, sym3_eigenvalues


def constant_model(M, N, d=1):
    return load_spectrum({"type": "constant", "d": d, "M": M, "N": N})


def zero_model(M, N):
    return load_spectrum({"type": "explicit", "d": [0.0] * M, "M": M, "N": N})


def test_sampling_is_deterministic_per_seed_and_trial():
    model = constant_model(20, 40)
    a = sample_matrix(model, "gaussian", seed=7, trial=3)
    b = sample_matrix(model, "gaussian", seed=7, trial=3)
    c = sample_matrix(model, "gaussian", seed=7, trial=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rademacher_entries_are_signs():
    model = zero_model(15, 30)
    Y = sample_matrix(model, "rademacher", seed=1, trial=0)
    root_n = math.sqrt(model.N)
    assert np.all(np.isin(np.round(Y * root_n, 12), (-1.0, 1.0)))


def test_signal_sits_on_leading_diagonal():
    model = constant_model(5, 10, d=3)
    Y = sample_matrix(model, "gaussian", seed=0, trial=0)
    X = sample_matrix(zero_model(5, 10), "gaussian", seed=0, trial=0)
    assert np.allclose(Y - X, np.hstack([np.diag([3.0] * 5), np.zeros((5, 5))]))


def test_noise_mean_within_clt_bound():
    model = zero_model(1000, 1000)
    Y = sample_matrix(model, "gaussian", seed=11, trial=0)
    assert abs(Y.mean()) <= 5e-3 / math.sqrt(model.N)


@pytest.mark.parametrize("dist", ["gaussian", "rademacher", "uniform"])
def test_noise_variance_is_one_over_n(dist):
    model = zero_model(500, 1000)
    Y = sample_matrix(model, dist, seed=2, trial=0)
    assert Y.var() == pytest.approx(1.0 / model.N, rel=0.01)


def test_unknown_distribution_rejected():
    with pytest.raises(InvalidConfigError):
        sample_matrix(constant_model(4, 4), "cauchy", seed=0, trial=0)


# not integers, each refused as a seed, a trial or a count: operator.index refuses the
# first three and the bools are refused by name
_NOT_INTEGERS = [2.0, "3", np.float64(1.0), True, np.True_]


@pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (np.int64(-3), 0)]
                         + [(value, 0) for value in _NOT_INTEGERS] + [(0, value) for value in _NOT_INTEGERS])
def test_negative_seed_or_trial_is_refused(seed, trial):
    # the stream key must be a nonnegative integer; numpy's SeedSequence would raise a bare
    # ValueError or TypeError, and '<' a bare TypeError on a string
    if any(seed is value for value in _NOT_INTEGERS):
        match = re.escape(f"seed must be an integer, got {seed!r}")
    elif any(trial is value for value in _NOT_INTEGERS):
        match = re.escape(f"trial must be an integer, got {trial!r}")
    else:
        match = "nonnegative"
    with pytest.raises(InvalidArgumentError, match=match):
        sample_matrix(constant_model(4, 4), "gaussian", seed=seed, trial=trial)


def test_negative_seed_is_refused_before_the_edge_is_solved(monkeypatch):
    solved = []
    monkeypatch.setattr(montecarlo, "solve_edge", solved.append)
    with pytest.raises(InvalidArgumentError, match=re.escape("nonnegative, got seed=-1, trial=0")):
        run_ensemble(constant_model(4, 4), 3, seed=-1)
    for seed in _NOT_INTEGERS:
        with pytest.raises(InvalidArgumentError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            run_ensemble(constant_model(4, 4), 3, seed=seed)
    assert solved == []


def test_largest_eigenvalue_deterministic_inputs():
    model = constant_model(6, 9)
    R = np.hstack([np.eye(6), np.zeros((6, 3))])
    assert largest_eigenvalue(R) == pytest.approx(1.0, abs=1e-13)
    assert largest_eigenvalue(np.zeros((4, 7))) == pytest.approx(0.0, abs=1e-15)


def test_largest_eigenvalue_against_cubic_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        Y = rng.normal(size=(3, 5))
        expected = sym3_eigenvalues(Y @ Y.T)[-1]
        assert largest_eigenvalue(Y) == pytest.approx(expected, abs=1e-10)


def test_largest_eigenvalue_matches_svd():
    rng = np.random.default_rng(8)
    Y = rng.normal(size=(420, 500)) / math.sqrt(500)
    sv = np.linalg.svd(Y, compute_uv=False)[0] ** 2
    assert largest_eigenvalue(Y) == pytest.approx(sv, rel=1e-12)


def _rank_deficient():
    rng = np.random.default_rng(12)
    return rng.normal(size=(8, 3)) @ rng.normal(size=(3, 20))


def _strided():
    # a non-contiguous view: every other column
    return np.random.default_rng(13).normal(size=(10, 40))[:, ::2]


_MATRICES = [
    lambda: np.random.default_rng(9).normal(size=(1, 30)),
    lambda: np.random.default_rng(10).normal(size=(25, 25)),
    lambda: np.random.default_rng(11).normal(size=(30, 70)) / math.sqrt(70),
    lambda: np.zeros((6, 11)),
    _rank_deficient,
    _strided,
]
_MATRIX_IDS = ["single_row", "square", "wide", "zero", "rank_deficient", "strided"]


@pytest.mark.parametrize("make", _MATRICES, ids=_MATRIX_IDS)
def test_largest_eigenvalue_matches_full_spectrum(make):
    Y = make()
    expected = np.linalg.eigvalsh(Y @ Y.T)[-1]
    assert abs(largest_eigenvalue(Y) - expected) <= 1e-12 * max(abs(expected), 1e-300)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_largest_eigenvalue_nonfinite_input_is_numeric_error(bad):
    Y = np.random.default_rng(14).normal(size=(6, 9))
    Y[2, 3] = bad
    with pytest.raises(NumericError):
        largest_eigenvalue(Y)


@pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
def test_largest_eigenvalue_empty_matrix_rejected(shape):
    with pytest.raises(InvalidArgumentError):
        largest_eigenvalue(np.zeros(shape))


def test_largest_eigenvalue_refuses_a_complex_matrix():
    # mu1 of Re Y is not mu1 of Y: a float cast would return the first quietly
    rng = np.random.default_rng(21)
    Y = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    assert largest_eigenvalue(Y.real) < np.linalg.svd(Y, compute_uv=False)[0] ** 2
    with pytest.raises(InvalidArgumentError, match="Y must be real"):
        largest_eigenvalue(Y)
    with pytest.raises(InvalidArgumentError, match="Y must be real"):
        largest_eigenvalue(Y.tolist())


def test_first_eigenvalue_call_logs_its_path(caplog):
    _lapack.cache_clear()
    Y = np.random.default_rng(17).normal(size=(5, 9))
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        largest_eigenvalue(Y)
        largest_eigenvalue(Y)
    [record] = [r for r in caplog.records if r.message.startswith("largest_eigenvalue")]
    assert record.name == "spectraledge"
    assert record.message.startswith("largest_eigenvalue: dsyrk Gram, dsyevr top index, called through "
                                      "the cython_blas and cython_lapack capsules with the GIL released; ")
    assert re.search(r"scipy's OpenBLAS libscipy_openblas\S*\.so pinned to 1 thread$", record.message)


def _run_python(code):
    """stdout of `code` in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(spectraledge.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [src, tests, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    return out.stdout.split()


def test_import_loads_no_lapack(tmp_path):
    # neither the import nor mu1 nor a whole simulate run imports the scipy.linalg package
    spectrum = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "uniform_sq_30x60.json")
    argv = ["simulate", "--spectrum", spectrum, "--trials", "3", "--out", str(tmp_path / "thetas.csv")]
    code = ("import sys, spectraledge, spectraledge.cli\n"
            "from spectraledge.montecarlo import _lapack\n"
            "print('scipy.linalg' in sys.modules, _lapack.cache_info().currsize)\n"
            "_lapack()\n"
            "print('scipy.linalg' in sys.modules, _lapack.cache_info().currsize)\n"
            f"print(spectraledge.cli.run_command({argv!r}), 'scipy.linalg' in sys.modules)")
    assert _run_python(code) == ["False", "0", "False", "1", "0", "False"]


def test_concurrent_first_calls_agree():
    # four threads make the process's first mu1 calls at once, so they race to load the capsules
    code = ("import threading\nimport numpy as np\nfrom spectraledge import largest_eigenvalue\n"
            "Y = np.random.default_rng(24).normal(size=(40, 90))\n"
            "start, values = threading.Barrier(4, timeout=60), []\n"
            "def first_call():\n"
            "    start.wait()\n"
            "    values.append(largest_eigenvalue(Y))\n"
            "threads = [threading.Thread(target=first_call) for _ in range(4)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
            "print(len(values), len(set(values)), values[0] == largest_eigenvalue(Y))")
    assert _run_python(code) == ["4", "1", "True"]


# the capsule modules loaded first and scipy.linalg imported after, then the reverse
_LOAD_ORDERS = {
    "capsules_first": "largest_eigenvalue(np.ones((2, 3)))\nimport scipy.linalg.lapack\n",
    "scipy_linalg_first": "import scipy.linalg.lapack\nlargest_eigenvalue(np.ones((2, 3)))\n",
}


@pytest.mark.parametrize("order", sorted(_LOAD_ORDERS))
def test_capsule_modules_and_scipy_linalg_load_in_either_order(order):
    code = ("import sys\nimport numpy as np\nfrom spectraledge import largest_eigenvalue\n"
            + _LOAD_ORDERS[order] +
            "import scipy.linalg.cython_blas\nfrom scipy.linalg import cython_lapack\n"
            "from oracles import f2py_largest_eigenvalue\n"
            "from spectraledge.montecarlo import _capsule_module\n"
            "print(scipy.linalg.cython_blas is _capsule_module('cython_blas'),"
            " cython_lapack is sys.modules['scipy.linalg.cython_lapack'] is _capsule_module('cython_lapack'))\n"
            "rng = np.random.default_rng(23)\n"
            "Ys = [rng.normal(size=(7, 11)), rng.normal(size=(120, 240)), np.ones((3, 4))]\n"
            "print(all(largest_eigenvalue(Y) == f2py_largest_eigenvalue(Y) for Y in Ys))")
    assert _run_python(code) == ["True", "True", "True"]


# ---------------------------------------------------------------------------
# LAPACK through scipy's capsules, on one pinned OpenBLAS thread
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", _MATRICES + [lambda: np.random.default_rng(18).normal(size=(300, 600))],
                         ids=_MATRIX_IDS + ["ensemble_size"])
def test_largest_eigenvalue_equals_f2py_reference(make):
    Y = make()
    assert largest_eigenvalue(Y) == f2py_largest_eigenvalue(Y)


def _scipy_openblas():
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)),
                                  "scipy.libs", "libscipy_openblas*.so"))
    if len(libs) != 1:
        pytest.skip("this scipy build bundles no single libscipy_openblas*.so")
    return ctypes.CDLL(libs[0])


def test_first_load_pins_scipy_openblas_to_one_thread():
    lib = _scipy_openblas()
    lib.scipy_openblas_set_num_threads(2)
    _lapack.cache_clear()
    largest_eigenvalue(np.ones((3, 4)))
    assert lib.scipy_openblas_get_num_threads() == 1


def test_missing_openblas_warns_once_and_runs_unpinned(monkeypatch, caplog):
    monkeypatch.setattr(montecarlo.glob, "glob", lambda pattern: [])
    _lapack.cache_clear()
    Y = np.random.default_rng(22).normal(size=(5, 9))
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        value = largest_eigenvalue(Y)
        largest_eigenvalue(Y)
    _lapack.cache_clear()
    assert value == f2py_largest_eigenvalue(Y)
    [warning] = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert warning.message.startswith("scipy's OpenBLAS is not pinned to one thread (0 libscipy_openblas")
    [record] = [r for r in caplog.records if r.message.startswith("largest_eigenvalue")]
    assert record.message.endswith("scipy's OpenBLAS not pinned: 0 libscipy_openblas*.so files in "
                                   "scipy.libs, expected 1")


class _StubLib:
    """Stands in for scipy's OpenBLAS library: the given symbols and no others."""

    def __init__(self, **symbols):
        self.__dict__.update(symbols)


def _pin_with(monkeypatch, caplog, lib):
    # one stub library file, opened as `lib`: the real library is never touched
    monkeypatch.setattr(montecarlo.glob, "glob", lambda pattern: ["scipy.libs/libscipy_openblas-stub.so"])
    monkeypatch.setattr(montecarlo.ctypes, "CDLL", lambda path: lib)
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        line = montecarlo._pin_scipy_openblas()
    [warning] = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert warning.message.startswith("scipy's OpenBLAS is not pinned to one thread (libscipy_openblas-stub.so")
    return line


def test_openblas_without_the_thread_symbols_warns_and_runs_unpinned(monkeypatch, caplog):
    line = _pin_with(monkeypatch, caplog, _StubLib())
    assert line == ("scipy's OpenBLAS not pinned: libscipy_openblas-stub.so: "
                    "'_StubLib' object has no attribute 'scipy_openblas_set_num_threads'")


def test_openblas_whose_count_does_not_read_back_warns_and_runs_unpinned(monkeypatch, caplog):
    counts = []

    def set_count(n):
        counts.append(n)

    lib = _StubLib(scipy_openblas_set_num_threads=set_count, scipy_openblas_get_num_threads=lambda: 4)
    line = _pin_with(monkeypatch, caplog, lib)
    assert counts == [1]
    assert line == "scipy's OpenBLAS not pinned: libscipy_openblas-stub.so reads 4 threads after being set to 1"


def test_capsule_with_unexpected_signature_is_numeric_error(monkeypatch):
    # one argument short of dsyevr's prototype: the loader must refuse, not call
    monkeypatch.setitem(montecarlo._ARG_KINDS, "dsyevr", montecarlo._ARG_KINDS["dsyevr"][:-1])
    _lapack.cache_clear()
    with pytest.raises(NumericError, match="cython_lapack.dsyevr has signature"):
        largest_eigenvalue(np.ones((3, 4)))
    assert _lapack.cache_info().currsize == 0


@pytest.mark.parametrize("module", ["cython_blas", "cython_lapack"])
def test_missing_capsule_module_is_numeric_error(monkeypatch, module):
    # the finder sees no extension file for this one module: the loader must name it and cache nothing
    class Finder(montecarlo.FileFinder):
        def find_spec(self, fullname, target=None):
            return None if fullname == f"scipy.linalg.{module}" else super().find_spec(fullname, target)

    monkeypatch.delitem(sys.modules, f"scipy.linalg.{module}", raising=False)
    monkeypatch.setattr(montecarlo, "FileFinder", Finder)
    _lapack.cache_clear()
    with pytest.raises(NumericError, match=rf"scipy\.linalg\.{module} has no extension file in "):
        largest_eigenvalue(np.ones((3, 4)))
    assert _lapack.cache_info().currsize == 0


def test_largest_eigenvalue_overflow_is_numeric_error():
    # finite input whose Gram overflows: dsyevr reports info != 0 and a quiet w[0]
    Y = np.random.default_rng(19).normal(size=(6, 9))
    Y[1, 4] = 1e200
    with pytest.raises(NumericError, match="info="):
        largest_eigenvalue(Y)


def test_concurrent_calls_equal_serial_calls():
    # four threads inside LAPACK at once, on matrices of different sizes, must
    # give the serial values: every call has its own work arrays
    rng = np.random.default_rng(20)
    mats = [rng.normal(size=(120 + 30 * k, 400)) for k in range(8)]
    serial = [largest_eigenvalue(Y) for Y in mats]
    for _ in range(3):
        start = threading.Barrier(4, timeout=60)

        def two_calls(k):
            start.wait()
            return [largest_eigenvalue(mats[k]), largest_eigenvalue(mats[k + 4])]

        with ThreadPoolExecutor(max_workers=4) as pool:
            pairs = list(pool.map(two_calls, range(4)))
        assert [pair[0] for pair in pairs] + [pair[1] for pair in pairs] == serial


@pytest.mark.parametrize("threads", [1, 2])
def test_rescaled_ensemble_equals_scaled_copy(threads):
    # the paper's statistic of the sqrt(gamma0)-scaled matrix,
    # N^{2/3} (mu1_hat - E_plus), is theta = gamma0 N^{2/3} (mu1 - lambda_r)
    # up to rounding; mu1s are the raw top eigenvalues of the samples
    model = load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2.0, "M": 30, "N": 60})
    edge = solve_edge(model)
    result = run_ensemble(model, 12, seed=8, threads=threads)
    assert np.array_equal(result.mu1s, [largest_eigenvalue(sample_matrix(model, "gaussian", 8, k))
                                        for k in range(12)])
    g, N23 = edge.gamma0, model.N ** (2.0 / 3.0)
    mu_hat = np.array([largest_eigenvalue(math.sqrt(g) * sample_matrix(model, "gaussian", 8, k))
                       for k in range(12)])
    hat_thetas = N23 * (mu_hat - edge.E_plus)
    assert np.max(np.abs(result.thetas - hat_thetas)) <= 1e-10 * np.max(np.abs(hat_thetas))


def test_ensemble_ks_equals_per_sample_table_reads():
    # the KS step reads the F1 table once for the whole sorted sample; it must
    # equal one scalar read per sample, bit for bit
    model = load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2.0, "M": 60, "N": 120})
    result = run_ensemble(model, 1000, dist="rademacher", seed=3, threads=2)
    lo, hi = TABLE_RANGE

    def one_read(s):
        return 0.0 if s < lo else 1.0 if s > hi else min(1.0, max(0.0, float(_f1_table()(s))))

    thetas = np.sort(result.thetas)
    F = np.array([one_read(x) for x in thetas])
    grid = np.arange(1, thetas.size + 1) / thetas.size
    expected = float(np.max(np.maximum(grid - F, F - (grid - 1.0 / thetas.size))))
    assert result.ks_distance == expected


@pytest.mark.parametrize("dist", ["gaussian", "rademacher", "uniform"])
def test_sample_matrix_streams_are_pinned(dist):
    # the draws rebuilt from the (seed, trial) stream, each as one whole draw: a
    # faster sample_matrix may not move them.  130 and 65 rows span several of
    # the row blocks in which Rademacher signs are drawn.
    for M, N in ((7, 40), (65, 129), (130, 131)):
        model = load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2.0, "M": M, "N": N})
        rng = _trial_rng(21, 4)
        root_n = math.sqrt(N)
        if dist == "gaussian":
            X = rng.standard_normal((M, N)) / root_n
        elif dist == "rademacher":
            X = (2.0 * rng.integers(0, 2, size=(M, N)) - 1.0) / root_n
        else:
            X = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(M, N)) / root_n
        X[np.arange(M), np.arange(M)] += model.d
        assert np.array_equal(sample_matrix(model, dist, 21, 4), X)
        # numpy integers key the same stream as Python integers
        assert np.array_equal(sample_matrix(model, dist, np.int64(21), np.int64(4)), X)


# ---------------------------------------------------------------------------
# caller-owned buffers: the draw's out= and mu1's work=
# ---------------------------------------------------------------------------

def _buffer_model():
    return load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2.0, "M": 7, "N": 40})


@pytest.mark.parametrize("dist", ["gaussian", "rademacher", "uniform"])
def test_draw_into_out_equals_a_fresh_draw(dist):
    # out's old contents, NaN here, must never reach the draw
    model = _buffer_model()
    buf = np.full((7, 40), np.nan)
    assert sample_matrix(model, dist, 21, 4, out=buf) is buf
    assert np.array_equal(buf, sample_matrix(model, dist, 21, 4))


@pytest.mark.parametrize("make", _MATRICES + [lambda: np.random.default_rng(18).normal(size=(300, 600))],
                         ids=_MATRIX_IDS + ["ensemble_size"])
def test_largest_eigenvalue_in_a_dirty_workspace_equals_a_fresh_call(make):
    # neither NaN nor a larger matrix's leftovers in work may reach mu1
    Y = make()
    M = Y.shape[0]
    work = np.full(M * M + 27 * M + 1, np.nan)
    assert largest_eigenvalue(Y, work=work) == largest_eigenvalue(Y)
    big = np.random.default_rng(25).normal(size=(M + 3, 2 * M + 6))
    spare = np.empty((M + 3) ** 2 + 27 * (M + 3) + 1)
    largest_eigenvalue(big, work=spare)
    assert largest_eigenvalue(Y, work=spare) == largest_eigenvalue(Y)


def _read_only(shape):
    array = np.zeros(shape)
    array.flags.writeable = False
    return array


_BAD_OUTS = {
    "shape": lambda: np.zeros((40, 7)),
    "too_big": lambda: np.zeros((7, 41)),
    "float32": lambda: np.zeros((7, 40), dtype=np.float32),
    "int": lambda: np.zeros((7, 40), dtype=np.int64),
    "big_endian": lambda: np.zeros((7, 40), dtype=">f8"),
    "fortran_order": lambda: np.zeros((7, 40), order="F"),
    "strided": lambda: np.zeros((7, 80))[:, ::2],
    "read_only": lambda: _read_only((7, 40)),
    "list": lambda: [[0.0] * 40] * 7,
}


@pytest.mark.parametrize("kind", sorted(_BAD_OUTS))
def test_wrong_out_is_refused_before_the_draw(monkeypatch, kind):
    def no_stream(seed, trial):
        raise AssertionError("a stream was opened for a refused out")

    monkeypatch.setattr(montecarlo, "_trial_rng", no_stream)
    out = _BAD_OUTS[kind]()
    with pytest.raises(InvalidArgumentError, match=r"out must be a writeable C-contiguous float64 array "
                                                   r"of shape \(7, 40\), got "):
        sample_matrix(_buffer_model(), "gaussian", 0, 0, out=out)
    assert not np.any(out)


_BAD_WORKS = {
    "too_small": lambda: np.zeros(6 * 6 + 27 * 6),
    "two_d": lambda: np.zeros((6, 400)),
    "float32": lambda: np.zeros(400, dtype=np.float32),
    "strided": lambda: np.zeros(800)[::2],
    "read_only": lambda: _read_only(400),
    "list": lambda: [0.0] * 400,
}


@pytest.mark.parametrize("kind", sorted(_BAD_WORKS) + ["shares_memory_with_Y"])
def test_wrong_workspace_is_refused_before_lapack(monkeypatch, kind):
    def no_lapack():
        raise AssertionError("LAPACK was reached with a refused workspace")

    monkeypatch.setattr(montecarlo, "_lapack", no_lapack)
    if kind == "shares_memory_with_Y":
        # a workspace of the right size whose tail holds Y: dsyrk would overwrite Y as it reads it
        block = np.ones(400 + 6 * 9)
        work, Y = block, block[400:].reshape(6, 9)
        match = "work must not share memory with Y"
    else:
        Y = np.ones((6, 9))
        work = _BAD_WORKS[kind]()
        match = r"work must be a writeable C-contiguous float64 array with one axis of 199 or more entries, got "
    with pytest.raises(InvalidArgumentError, match=match):
        largest_eigenvalue(Y, work=work)


@pytest.mark.parametrize("n_trials", [3, 9])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_ensemble_trials_borrow_one_buffer_pair_per_worker(monkeypatch, threads, n_trials):
    # every trial draws into a caller's (Y, work) pair by the traced names; no
    # pair serves two trials at once, and there are no more pairs than workers
    model = constant_model(12, 30)
    draw, top = montecarlo.sample_matrix, montecarlo.largest_eigenvalue
    lock, busy, outs, works, trials = threading.Lock(), set(), set(), set(), []

    def spy_draw(model, dist, seed, trial, *, out):
        with lock:
            assert out.ctypes.data not in busy, "two trials drew into one buffer at once"
            busy.add(out.ctypes.data)
            outs.add(out.ctypes.data)
            trials.append(trial)
        time.sleep(0.002)  # hold the buffer so that pooled trials overlap
        return draw(model, dist, seed, trial, out=out)

    def spy_top(Y, *, work):
        try:
            return top(Y, work=work)
        finally:
            with lock:
                works.add(work.ctypes.data)
                busy.remove(Y.ctypes.data)

    monkeypatch.setattr(montecarlo, "sample_matrix", spy_draw)
    monkeypatch.setattr(montecarlo, "largest_eigenvalue", spy_top)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that a lost hand-back would show
    try:
        result = run_ensemble(model, n_trials, seed=5, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(trials) == list(range(n_trials)) and busy == set()
    assert 1 <= len(outs) <= min(threads, n_trials) and len(works) == len(outs)
    assert np.array_equal(result.mu1s, [top(draw(model, "gaussian", 5, k)) for k in range(n_trials)])


def test_empty_ensemble_is_flagged(monkeypatch):
    # a count below 1 is refused at entry, before the edge is solved
    solves = []
    monkeypatch.setattr(montecarlo, "solve_edge", lambda model: solves.append(model))
    model = constant_model(10, 10)
    with pytest.raises(InvalidArgumentError, match="n_trials must be >= 1, got 0"):
        run_ensemble(model, 0)
    for threads in (0, -1):
        with pytest.raises(InvalidArgumentError, match=f"threads must be >= 1, got {threads}"):
            run_ensemble(model, 4, threads=threads)
    for value in _NOT_INTEGERS + [2.5]:
        with pytest.raises(InvalidArgumentError, match=re.escape(f"n_trials must be an integer, got {value!r}")):
            run_ensemble(model, value)
        with pytest.raises(InvalidArgumentError, match=re.escape(f"threads must be an integer, got {value!r}")):
            run_ensemble(model, 3, threads=value)
    assert solves == []


def test_unknown_noise_law_is_refused_before_the_edge_solve(monkeypatch):
    def no_solve(model):
        raise AssertionError("the edge was solved before the noise law was checked")

    monkeypatch.setattr(montecarlo, "solve_edge", no_solve)
    with pytest.raises(InvalidConfigError, match="unknown noise distribution 'cauchy'"):
        run_ensemble(constant_model(10, 10), 4, dist="cauchy")


def test_pmap_refuses_a_thread_count_below_one():
    calls = []
    with pytest.raises(InvalidArgumentError, match="threads must be >= 1, got 0"):
        montecarlo.pmap(calls.append, range(3), 0)
    for threads in (2.5, True):
        with pytest.raises(InvalidArgumentError, match=re.escape(f"threads must be an integer, got {threads!r}")):
            montecarlo.pmap(calls.append, range(3), threads)
    assert calls == []


def test_ensemble_statistics_recomputable():
    result = run_ensemble(constant_model(30, 30), 50, seed=9)
    assert len(result.thetas) == 50
    assert result.mean == pytest.approx(float(np.mean(result.thetas)), abs=1e-15)
    assert result.variance == pytest.approx(float(np.var(result.thetas)), abs=1e-15)


def test_thread_count_does_not_change_results():
    model = constant_model(30, 30)
    serial = run_ensemble(model, 24, seed=4, threads=1)
    pooled = run_ensemble(model, 24, seed=4, threads=4)
    assert np.array_equal(serial.thetas, pooled.thetas)
    assert np.array_equal(serial.mu1s, pooled.mu1s)
    assert serial.ks_distance == pooled.ks_distance


def test_thread_count_does_not_change_results_where_blas_threads_do():
    # at 700x1400 the last bits of dsyrk and dsyevr depend on the OpenBLAS
    # thread count, so a pool that changed that count would move mu1
    model = constant_model(700, 1400)
    serial = run_ensemble(model, 4, seed=6, threads=1)
    pooled = run_ensemble(model, 4, seed=6, threads=2)
    assert np.array_equal(serial.mu1s, pooled.mu1s)


def test_ensemble_ks_matches_direct_f1():
    # run_ensemble reads the tabulated F1; the direct determinant per sample
    # must give the same distance
    model = constant_model(20, 40)
    serial = run_ensemble(model, 240, seed=5, threads=1)
    pooled = run_ensemble(model, 240, seed=5, threads=2)
    assert abs(serial.ks_distance - ks_distance(serial.thetas, f1_cdf)) <= 1e-12
    assert serial.ks_distance == pooled.ks_distance


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance
# ---------------------------------------------------------------------------

def test_ks_single_sample_at_median():
    assert ks_distance([0.0], lambda x: 0.5) == pytest.approx(0.5)


@given(st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=1, max_value=40))
def test_ks_identical_samples(p, n):
    # all samples equal against a continuous cdf taking value p there
    assert ks_distance([1.0] * n, lambda x: p) == pytest.approx(max(p, 1.0 - p))


def test_ks_exact_samples_small():
    # empirical cdf of uniform samples from the quantile level stays at the
    # Kolmogorov n=1e4 99% bound
    rng = np.random.default_rng(123)
    samples = rng.uniform(size=10_000)
    assert ks_distance(samples, lambda x: np.clip(x, 0.0, 1.0)) <= 0.02


def test_ks_empty_rejected():
    with pytest.raises(InvalidArgumentError):
        ks_distance([], lambda x: x)
