import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spectraledge import (
    InvalidArgumentError,
    InvalidConfigError,
    f1_cdf,
    ks_distance,
    largest_eigenvalue,
    load_spectrum,
    run_ensemble,
    sample_matrix,
    solve_edge,
)

from oracles import sym3_eigenvalues


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


def test_largest_eigenvalue_svd_path_matches_eigh():
    rng = np.random.default_rng(8)
    Y = rng.normal(size=(420, 500)) / math.sqrt(500)
    sv = np.linalg.svd(Y, compute_uv=False)[0] ** 2
    assert largest_eigenvalue(Y) == pytest.approx(sv, rel=1e-12)


def test_rescaling_conventions_agree_per_trial():
    model = constant_model(40, 40)
    edge = solve_edge(model)
    plain = run_ensemble(model, 20, dist="gaussian", seed=3, rescale=False, edge=edge)
    scaled = run_ensemble(model, 20, dist="gaussian", seed=3, rescale=True, edge=edge)
    assert np.max(np.abs(plain.thetas - scaled.thetas)) <= 1e-10


def test_empty_ensemble_is_flagged():
    result = run_ensemble(constant_model(10, 10), 0, seed=0)
    assert result.n_trials == 0
    assert result.thetas.size == 0
    assert math.isnan(result.mean) and math.isnan(result.variance) and math.isnan(result.ks_distance)


def test_ensemble_statistics_recomputable():
    result = run_ensemble(constant_model(30, 30), 50, seed=9)
    assert result.n_trials == len(result.thetas) == 50
    assert result.mean == pytest.approx(float(np.mean(result.thetas)), abs=1e-15)
    assert result.variance == pytest.approx(float(np.var(result.thetas)), abs=1e-15)


def test_thread_count_does_not_change_results():
    model = constant_model(30, 30)
    serial = run_ensemble(model, 24, seed=4, threads=1)
    pooled = run_ensemble(model, 24, seed=4, threads=4)
    assert np.array_equal(serial.thetas, pooled.thetas)
    assert np.array_equal(serial.mu1s, pooled.mu1s)
    assert serial.ks_distance == pooled.ks_distance


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
    assert ks_distance(samples, lambda x: min(1.0, max(0.0, x))) <= 0.02


def test_ks_empty_rejected():
    with pytest.raises(InvalidArgumentError):
        ks_distance([], lambda x: x)
