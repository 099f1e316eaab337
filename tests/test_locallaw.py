import math
import tracemalloc

import numpy as np
import pytest

from spectraledge import (
    InvalidArgumentError,
    NumericError,
    build_linearization,
    load_spectrum,
    locallaw_deviation,
    rigidity_scan,
    sample_matrix,
    solve_edge,
)

import spectraledge.locallaw as locallaw_module
from spectraledge.locallaw import DEVIATION_CLASSES, _resolvent_reduce

from oracles import (dense_locallaw_report, minor_noise_resolvent, resolvent_identity_residual,
                     whole_factor_resolvent_reduce)


def constant_model(M, N):
    return load_spectrum({"type": "constant", "d": 1, "M": M, "N": N})


def test_linearization_shape_and_blocks():
    Y = np.ones((3, 5))
    z = 1.0 + 0.5j
    H = build_linearization(Y, z)
    assert H.shape == (8, 8)
    assert np.allclose(H[:3, :3], -z * np.eye(3))
    assert np.allclose(H[3:, 3:], -np.eye(5))
    assert np.allclose(H[:3, 3:], Y)


def test_zero_matrix_resolvent():
    z = 0.8 + 0.3j
    G = np.linalg.inv(build_linearization(np.zeros((4, 6)), z))
    assert np.allclose(np.diag(G)[:4], -1.0 / z)
    assert np.allclose(np.diag(G)[4:], -1.0)


def test_pure_signal_resolvent_pair_blocks():
    # with Y = R the linearization decouples into 2x2 blocks per index pair
    model = load_spectrum({"type": "explicit", "d": [2.0, 1.0], "M": 2, "N": 2})
    z = 0.4 + 0.2j
    R = np.diag(model.d)
    G = np.linalg.inv(build_linearization(R, z))
    for i, d in enumerate(model.d):
        assert G[i, i] == pytest.approx(1.0 / (d**2 - z), abs=1e-13)
        assert G[i, 2 + i] == pytest.approx(d / (d**2 - z), abs=1e-13)


def test_deviation_report_structure():
    model = constant_model(40, 80)
    sol = solve_edge(model)
    Y = sample_matrix(model, "gaussian", seed=0, trial=0)
    z = complex(sol.lambda_r, model.N ** -0.5)
    report = locallaw_deviation(model, Y, z)
    devs = report.deviations
    assert set(devs) == {"ii", "barbar", "cross", "mumu", "offdiag", "avg"}
    assert all(np.isfinite(v) and v >= 0 for v in devs.values())
    assert report.psi > 0
    assert set(report.ratios) == set(devs)


def test_deviation_requires_upper_half_plane():
    model = constant_model(6, 6)
    Y = sample_matrix(model, "gaussian", seed=0, trial=0)
    with pytest.raises(InvalidArgumentError):
        locallaw_deviation(model, Y, 6.75)


@pytest.mark.parametrize("z", [complex(float("nan"), 0.1), complex(6.75, float("nan")),
                               complex(6.75, float("inf")), complex(float("inf"), 0.1)])
def test_deviation_rejects_non_finite_z(z):
    model = constant_model(6, 12)
    Y = sample_matrix(model, "gaussian", seed=0, trial=0)
    with pytest.raises(InvalidArgumentError):
        locallaw_deviation(model, Y, z)


def test_deviation_refuses_y_of_another_shape(monkeypatch):
    # refused before the Stieltjes solve, which is patched out
    model = constant_model(30, 60)
    Y = sample_matrix(model, "gaussian", seed=0, trial=0)
    monkeypatch.setattr(locallaw_module, "solve_stieltjes", None)
    for bad in (np.zeros((30, 80)), Y.T, Y[:20], Y[0]):
        with pytest.raises(InvalidArgumentError, match=r"shape .* needs \(30, 60\)"):
            locallaw_deviation(model, bad, 2.0 + 0.1j)


def test_mumu_class_empty_for_square_model():
    model = constant_model(30, 30)
    sol = solve_edge(model)
    Y = sample_matrix(model, "gaussian", seed=1, trial=0)
    report = locallaw_deviation(model, Y, complex(sol.lambda_r, 0.2))
    assert report.deviations["mumu"] == 0.0


def test_one_by_one_model_reports_empty_classes_as_zero():
    # M = N = 1 leaves no pure-noise diagonal and no off-diagonal entry
    # besides the partner pair
    model = constant_model(1, 1)
    Y = sample_matrix(model, "gaussian", seed=0, trial=0)
    report = locallaw_deviation(model, Y, complex(solve_edge(model).lambda_r, 0.5))
    for stats in (report.deviations, report.ratios):
        assert list(stats) == list(DEVIATION_CLASSES)
        assert stats["mumu"] == stats["offdiag"] == 0.0
        assert all(math.isfinite(v) for v in stats.values())


def test_deterministic_instance_reports_finite_n_gap():
    # X = 0: the deviation is the distance between the exact resolvent of R
    # and the N -> infinity profile; reported, not asserted small
    model = constant_model(25, 25)
    sol = solve_edge(model)
    R = np.diag(model.d)
    report = locallaw_deviation(model, R, complex(sol.lambda_r, 0.3))
    assert report.deviations["ii"] > 1e-3
    assert np.isfinite(report.deviations["avg"])


def test_large_eta_average_law():
    model = constant_model(100, 100)
    Y = sample_matrix(model, "gaussian", seed=2, trial=0)
    eta = 100.0
    report = locallaw_deviation(model, Y, complex(6.75, eta))
    assert report.deviations["avg"] <= 10.0 / (model.N * eta)


def test_ward_identity_exact():
    # Im G_ii / eta = sum_{j in the z-weighted block} |G_ij|^2 for the
    # linearization, because only the upper-left block carries z
    model = constant_model(30, 60)
    Y = sample_matrix(model, "gaussian", seed=3, trial=0)
    z = 2.0 + 0.05j
    G = np.linalg.inv(build_linearization(Y, z))
    M = model.M
    lhs = np.imag(np.diag(G)[:M]) / z.imag
    rhs = np.sum(np.abs(G[:M, :M]) ** 2, axis=1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8
    assert abs(np.mean(lhs) - np.mean(rhs)) <= 1e-8


def test_resolvent_identity_spot_checks():
    model = constant_model(40, 80)
    sol = solve_edge(model)
    Y = sample_matrix(model, "gaussian", seed=4, trial=0)
    z = complex(sol.lambda_r, 0.1)
    rng = np.random.default_rng(0)
    for index in rng.choice(model.M, size=5, replace=False):
        assert resolvent_identity_residual(Y, z, int(index)) <= 1e-8


@pytest.mark.parametrize("M, N", [(40, 80), (150, 300), (130, 130)])
def test_reducer_diagonal_obeys_schur_identity(M, N):
    # G_ii of the chunked reducer against 1/(-z - y_i^T G^(i)_22 y_i), the
    # minor's resolvent by a dense solve; at 150 x 300 both of the reducer's
    # loops run past one chunk of CHUNK_ROWS = 128 rows
    model = constant_model(M, N)
    Y = sample_matrix(model, "gaussian", seed=4, trial=0)
    z = complex(solve_edge(model).lambda_r, 0.1)
    g11 = _resolvent_reduce(Y, z)[0]
    for i in (0, M // 2, M - 1):
        expected = 1.0 / (-z - Y[i] @ minor_noise_resolvent(Y, z, i) @ Y[i])
        assert abs(g11[i] - expected) <= 1e-12 * abs(expected)


def test_deviations_decrease_with_n():
    # at fixed spectral resolution the entrywise error improves like 1/sqrt(N);
    # with eta shrinking as N^{-1/2} the statistics at the edge are dominated
    # by the chi-square tails of near-edge eigenvector weights and are not yet
    # monotone at desk sizes
    medians = {}
    for N in (100, 400):
        model = constant_model(N, N)
        lam = solve_edge(model).lambda_r
        devs = []
        for seed in range(10):
            Y = sample_matrix(model, "gaussian", seed=seed, trial=0)
            devs.append(locallaw_deviation(model, Y, complex(lam, 0.3)).deviations["ii"])
        medians[N] = np.median(devs)
    assert medians[400] < medians[100]


def test_rigidity_scan_smoke():
    model = constant_model(64, 64)
    slope = rigidity_scan(model, [100, 200], trials=30, seed=1)
    assert -1.2 < slope < -0.25


def test_rigidity_scan_slope_is_pinned():
    # the (seed + N, trial) streams, mu1 and lambda_r fix the slope to the bit
    model = constant_model(64, 64)
    assert rigidity_scan(model, [50, 150, 300], trials=7, seed=4) == -0.03492985241445844


def test_rigidity_scan_takes_an_array_of_sizes():
    model = constant_model(64, 64)
    sizes = [50, 100]
    assert rigidity_scan(model, np.array(sizes), trials=3, seed=2) == rigidity_scan(model, sizes, trials=3, seed=2)


def test_rigidity_scan_single_trial_warns(caplog):
    model = constant_model(64, 64)
    with caplog.at_level("WARNING", logger="spectraledge"):
        slope = rigidity_scan(model, [100, 200], trials=1, seed=0)
    assert np.isfinite(slope)
    assert any("low-confidence" in rec.message for rec in caplog.records)


def test_rigidity_scan_validates_sizes():
    model = constant_model(64, 64)
    with pytest.raises(InvalidArgumentError):
        rigidity_scan(model, [20, 100], trials=2, seed=0)
    with pytest.raises(InvalidArgumentError):
        rigidity_scan(model, [100], trials=0, seed=0)
    # a slope needs two distinct sizes: one size, or one size twice, is refused
    # before anything is sampled
    for sizes in ([100], [100, 100], np.array([100, 100])):
        with pytest.raises(InvalidArgumentError, match="two distinct sizes"):
            rigidity_scan(model, sizes, trials=2, seed=0)


def _assert_matches_dense(model, Y, z):
    # every report field against the dense (M+N)^2 solve, 1e-10 relative to its scale
    report = locallaw_deviation(model, Y, z)
    ref = dense_locallaw_report(model, Y, z)
    assert report.z == ref["z"]
    assert report.psi == pytest.approx(ref["psi"], rel=1e-10)
    for field in ("deviations", "ratios"):
        ours = getattr(report, field)
        assert list(ours) == list(ref[field])
        assert ours == pytest.approx(ref[field], rel=1e-10, abs=1e-10)
    return report


def test_blockwise_resolvent_matches_dense_rectangular():
    model = load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2, "M": 40, "N": 80})
    lam = solve_edge(model).lambda_r
    Y = sample_matrix(model, "gaussian", seed=5, trial=0)
    for z in (complex(lam, model.N ** -0.5), complex(lam - 1.0, 0.05), complex(0.3, 2.0)):
        _assert_matches_dense(model, Y, z)


def test_blockwise_resolvent_matches_dense_square():
    model = constant_model(30, 30)
    lam = solve_edge(model).lambda_r
    Y = sample_matrix(model, "rademacher", seed=6, trial=0)
    report = _assert_matches_dense(model, Y, complex(lam, 0.2))
    assert report.deviations["mumu"] == 0.0


def test_blockwise_resolvent_matches_dense_without_noise():
    model = load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2, "M": 20, "N": 35})
    R = np.zeros((model.M, model.N))
    R[np.arange(model.M), np.arange(model.M)] = model.d
    _assert_matches_dense(model, R, complex(solve_edge(model).lambda_r, 0.1))


@pytest.mark.parametrize("spectrum, M, N", [("uniform_sq", 30, 60), ("uniform_sq", 60, 120),
                                             ("uniform_sq", 500, 1000), ("constant", 300, 300)])
def test_blocked_reducer_keeps_the_bits_of_the_whole_factor(spectrum, M, N):
    # at the golden's, the benchmark's and the CLI tests' shapes every output is bit-identical to
    # the reducer that holds the whole right factor.  At some other shapes (150 x 300, for one)
    # a short last row chunk or a GEMM tail takes another BLAS kernel and moves the last bits.
    config = {"uniform_sq": {"v_min": 0.5, "v_max": 2}, "constant": {"d": 1}}[spectrum]
    model = load_spectrum({"type": spectrum, **config, "M": M, "N": N})
    Y = sample_matrix(model, "gaussian", seed=1, trial=0)
    z = complex(solve_edge(model).lambda_r, N ** -0.5)
    *diagonals, off_max = _resolvent_reduce(Y, z)
    *expected, expected_max = whole_factor_resolvent_reduce(Y, z)
    for got, want in zip(diagonals, expected):
        assert np.array_equal(got.view(float), want.view(float))
    assert off_max == expected_max


# the shapes below span several row chunks and end mid-chunk


def test_blockwise_resolvent_matches_dense_across_chunks():
    model = load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2, "M": 300, "N": 700})
    lam = solve_edge(model).lambda_r
    Y = sample_matrix(model, "gaussian", seed=8, trial=0)
    for z in (complex(lam, model.N ** -0.5), complex(0.3, 2.0)):
        _assert_matches_dense(model, Y, z)


def test_blockwise_resolvent_matches_dense_square_across_chunks():
    model = constant_model(260, 260)
    Y = sample_matrix(model, "rademacher", seed=9, trial=0)
    report = _assert_matches_dense(model, Y, complex(solve_edge(model).lambda_r, 0.1))
    assert report.deviations["mumu"] == 0.0


def test_deviation_peak_memory_below_one_full_block():
    # one complex N x N block (G22) is N^2 * 16 bytes; the reducer never holds one, nor the whole
    # M x (N + M) right factor, 12 MB at the benchmark's 500 x 1000
    for M, N in ((200, 1000), (500, 1000)):
        model = constant_model(M, N)
        Y = sample_matrix(model, "gaussian", seed=0, trial=0)
        z = complex(solve_edge(model).lambda_r, model.N ** -0.5)
        tracemalloc.start()
        try:
            locallaw_deviation(model, Y, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.N ** 2 * 16, (M, N, peak)


def test_eigensolver_failure_is_numeric_error(monkeypatch):
    model = constant_model(6, 12)
    Y = sample_matrix(model, "gaussian", seed=0, trial=0)

    def failing(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericError):
        locallaw_deviation(model, Y, complex(6.75, 0.2))
