import numpy as np
import pytest

from spectraledge import (
    InvalidArgumentError,
    InvalidConfigError,
    SpectrumModel,
    load_spectrum,
    solve_edge,
    with_size,
)
import spectraledge.spectrum as spectrum_module
from spectraledge.spectrum import MAX_GRID_POINTS, grid


def test_constant_spectrum():
    model = load_spectrum({"type": "constant", "d": 1, "M": 500, "N": 500})
    assert model.M == 500 and model.N == 500
    assert model.c_N == 1.0
    assert np.all(model.d == 1.0)


def test_explicit_zero_spectrum():
    model = load_spectrum({"type": "explicit", "d": [0, 0, 0], "M": 3, "N": 6})
    assert np.all(model.d == 0.0)
    assert model.c_N == 0.5


def test_uniform_sq_grid_matches_endpoints():
    model = load_spectrum({"type": "uniform_sq", "v_min": 1, "v_max": 2, "M": 11, "N": 11})
    dsq = model.d_sq
    assert dsq[0] == pytest.approx(2.0)
    assert dsq[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(dsq), -0.1)


def test_uniform_sq_single_atom():
    model = load_spectrum({"type": "uniform_sq", "v_min": 1, "v_max": 2, "M": 1, "N": 4})
    assert model.d_sq[0] == pytest.approx(2.0)


def test_entries_sorted_non_increasing():
    model = load_spectrum({"type": "explicit", "d": [0.5, 2.0, 1.0], "M": 3, "N": 3})
    assert np.all(np.diff(model.d) <= 0)
    assert model.d[0] == 2.0


def test_ties_are_allowed():
    model = load_spectrum({"type": "explicit", "d": [1.0, 1.0, 0.5], "M": 3, "N": 5})
    assert model.d[0] == model.d[1] == 1.0


@pytest.mark.parametrize(
    "config",
    [
        {"type": "explicit", "d": [1.0, -0.1], "M": 2, "N": 4},
        {"type": "constant", "d": 1.0, "M": 6, "N": 3},
        {"type": "explicit", "d": [], "M": 0, "N": 3},
        {"type": "explicit", "d": [1.0], "M": 2, "N": 4},
        {"type": "mystery", "d": [1.0], "M": 1, "N": 1},
        {"type": "uniform_sq", "v_min": -1, "v_max": 2, "M": 4, "N": 4},
        {"type": "constant", "d": "one", "M": 3, "N": 3},
        {"type": "constant", "d": 1.0, "M": 3.5, "N": 4},
        # explicit entries follow the number rule of the constant form's "d"
        {"type": "explicit", "d": ["abc"], "M": 1, "N": 2},
        {"type": "explicit", "d": ["2"], "M": 1, "N": 2},
        {"type": "explicit", "d": [True, 1], "M": 2, "N": 2},
        {"type": "explicit", "d": [[1.0]], "M": 1, "N": 2},
        {"type": "explicit", "d": [1.0, 10**400], "M": 2, "N": 2},
        {"type": "uniform_sq", "v_min": 0, "v_max": 10**400, "M": 2, "N": 2},
        # not an object, and an empty explicit list with a valid M
        [{"type": "constant", "d": 1.0, "M": 2, "N": 4}],
        None,
        {"type": "explicit", "d": [], "M": 1, "N": 3},
    ],
)
def test_invalid_configs_rejected(config):
    with pytest.raises(InvalidConfigError):
        load_spectrum(config)


@pytest.mark.parametrize("d, M, N, message", [
    ([[1.0, 2.0]], 2, 4, "non-empty 1-d array"),
    (np.ones((2, 2)), 2, 4, "non-empty 1-d array"),
    ([1.0, np.nan], 2, 4, "non-finite"),
    ([np.inf], 1, 4, "non-finite"),
    ([1.0], 0, 4, "does not match M=0"),
    ([1.0], -1, 4, "does not match M=-1"),
    ([1.0], 1, 0, "M=1 exceeds N=0"),
    ([1.0], 1, -2, "M=1 exceeds N=-2"),
])
def test_model_refusals_name_their_cause(d, M, N, message):
    with pytest.raises(InvalidConfigError, match=message):
        SpectrumModel(d=d, M=M, N=N)


def _margin(model):
    # the Assumption 3 margin xi_r - d_1^2, as the CLI's edge payload reports it
    return float(solve_edge(model).xi_r - model.d_sq[0])


def test_assumption3_margin_constant_spectrum():
    model = load_spectrum({"type": "constant", "d": 1, "M": 100, "N": 100})
    margin = _margin(model)
    assert margin == pytest.approx(2.0, abs=1e-10)


def test_assumption3_margin_zero_signal():
    model = load_spectrum({"type": "explicit", "d": [0.0] * 10, "M": 10, "N": 10})
    margin = _margin(model)
    assert margin == pytest.approx(1.0, abs=1e-10)


def test_assumption3_margin_uniform_example():
    model = load_spectrum({"type": "uniform_sq", "v_min": 1, "v_max": 2, "M": 500, "N": 500})
    margin = _margin(model)
    assert margin == pytest.approx(1.89, abs=0.01)


def test_with_size_regenerates_shape():
    model = load_spectrum({"type": "constant", "d": 1, "M": 50, "N": 100})
    resized = with_size(model, 300)
    assert resized.N == 300 and resized.M == 150
    assert resized.c_N == pytest.approx(model.c_N)


@pytest.mark.parametrize("M, N, new_N", [(50, 100, 101), (50, 100, 1), (1, 100, 99), (2, 3, 4)])
def test_with_size_rejects_a_size_that_changes_c_n(M, N, new_N):
    # c_N * new_N is not a positive integer: rounding M would change c_N or reach M = 0
    model = load_spectrum({"type": "constant", "d": 1, "M": M, "N": N})
    with pytest.raises(InvalidArgumentError, match=rf"N={new_N}\b.*c_N"):
        with_size(model, new_N)


def test_with_size_keeps_integral_sizes():
    model = load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2.0, "M": 3, "N": 10})
    for new_N in (20, 100, 1000):
        resized = with_size(model, new_N)
        assert (resized.M, resized.N) == (3 * new_N // 10, new_N)
    square = load_spectrum({"type": "constant", "d": 1, "M": 30, "N": 30})
    assert [with_size(square, n).M for n in (60, 100, 200, 300)] == [60, 100, 200, 300]


def test_with_size_takes_numpy_integers():
    model = load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2.0, "M": 64, "N": 64})
    resized, plain = with_size(model, np.int64(128)), with_size(model, 128)
    assert (resized.M, resized.N) == (plain.M, plain.N) == (128, 128)
    assert np.array_equal(resized.d, plain.d)
    assert resized.config == plain.config and type(resized.config["N"]) is int


@pytest.mark.parametrize("N", [True, 128.0, "128", np.float64(128.0)])
def test_with_size_refuses_a_non_integer_size(N):
    model = load_spectrum({"type": "constant", "d": 1, "M": 64, "N": 64})
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        with_size(model, N)


def test_with_size_rejects_explicit():
    model = load_spectrum({"type": "explicit", "d": [1.0, 0.5], "M": 2, "N": 4})
    with pytest.raises(InvalidConfigError, match="cannot resize an explicit spectrum"):
        with_size(model, 8)


@pytest.mark.parametrize("model", [SpectrumModel(d=np.ones(3), M=3, N=6)], ids=["built_directly"])
def test_with_size_names_a_missing_config(model):
    # the model is not explicit: the refusal names the absent config instead
    with pytest.raises(InvalidConfigError, match="load_spectrum did not build: it has no config"):
        with_size(model, 12)


def test_model_is_immutable():
    model = load_spectrum({"type": "constant", "d": 1, "M": 4, "N": 4})
    with pytest.raises(ValueError):
        model.d[0] = 7.0


@pytest.mark.parametrize("stop, step", [(1e12, 1e-3), (1e300, 1e-300)])
def test_grid_refuses_a_huge_or_overflowing_point_count(stop, step):
    with pytest.raises(InvalidArgumentError, match=f"test grid would have more than {MAX_GRID_POINTS} points"):
        grid(0.0, stop, step, "test")


def test_grid_cap_admits_exactly_max_points(monkeypatch):
    monkeypatch.setattr(spectrum_module, "MAX_GRID_POINTS", 10)
    assert len(grid(0.0, 0.9, 0.1, "test")) == 10
    with pytest.raises(InvalidArgumentError, match="more than 10 points"):
        grid(0.0, 1.0, 0.1, "test")
