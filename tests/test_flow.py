import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from spectraledge import (
    InvalidArgumentError,
    SpectrumModel,
    analytic_derivatives,
    find_edge,
    flow_derivative_check,
    flow_derivative_checks,
    flow_state,
    load_spectrum,
)
import spectraledge.flow as flow_module
from spectraledge.flow import DERIVATIVE_KEYS, stationary_state


def constant_model(M, N):
    return load_spectrum({"type": "constant", "d": 1, "M": M, "N": N})


def random_model(rng, c):
    M = int(rng.integers(25, 50))
    N = int(round(M / c))
    return SpectrumModel(d=np.sqrt(rng.uniform(0.0, 1.0, M)), M=M, N=N)


def test_state_at_zero_matches_base_edge():
    model = constant_model(100, 100)
    state = flow_state(model, 0.0)
    assert state.gamma == pytest.approx((729.0 / 16.0) ** (-1.0 / 3.0), abs=1e-12)
    assert state.edge_t.lambda_r == pytest.approx(6.75, abs=1e-11)
    assert np.array_equal(state.model_t.d, model.d)


def test_signal_decays_monotonically():
    model = constant_model(20, 20)
    values = [flow_state(model, t).model_t.d[0] for t in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[1] == pytest.approx(math.exp(-0.25), abs=1e-15)


def test_infinite_time_limit_is_pure_noise():
    state = stationary_state(constant_model(60, 60))
    assert state.edge_t.lambda_r == pytest.approx(4.0, abs=1e-10)
    assert state.gamma == pytest.approx(2.0 ** (-4.0 / 3.0), abs=1e-10)
    assert state.edge_t.xi_r == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("N", [100, 500])
def test_long_time_state_near_stationary(N):
    model = constant_model(N, N)
    t0 = 2.0 * math.log(N)
    state = flow_state(model, t0)
    limit = stationary_state(model)
    assert abs(state.gamma - limit.gamma) <= 10.0 / N**2
    assert abs(state.edge_t.lambda_r - limit.edge_t.lambda_r) <= 10.0 / N**2


def test_negative_time_rejected():
    with pytest.raises(InvalidArgumentError):
        flow_state(constant_model(4, 4), -0.1)


def test_nonpositive_step_rejected():
    with pytest.raises(InvalidArgumentError):
        flow_derivative_check(constant_model(4, 4), 0.5, step=0.0)


def test_nan_time_rejected():
    with pytest.raises(InvalidArgumentError):
        flow_state(constant_model(4, 4), math.nan)


def test_derivatives_match_finite_differences_constant_spectrum():
    model = constant_model(50, 50)
    res = flow_derivative_check(model, 0.5, step=1e-4)
    assert set(res) == set(DERIVATIVE_KEYS)
    assert all(v <= 1e-6 for v in res.values())


def test_derivatives_match_over_flow_randomized():
    rng = np.random.default_rng(42)
    for k in range(10):
        model = random_model(rng, (0.25, 0.5, 1.0)[k % 3])
        for t in np.arange(0.0, 3.01, 0.75):
            res = flow_derivative_check(model, float(t), step=1e-4)
            assert max(res.values()) <= 1e-6


def _recorded_brackets(monkeypatch, near_degenerate=None):
    seen = []
    real = flow_module.solve_edge

    def recording(model, *, bracket=None):
        seen.append(bracket)
        edge = real(model, bracket=bracket)
        return edge if near_degenerate is None else replace(edge, near_degenerate=near_degenerate)

    monkeypatch.setattr(flow_module, "solve_edge", recording)
    return seen


def test_shifted_models_start_from_centre_bracket(monkeypatch):
    model = constant_model(50, 50)
    centre = flow_state(model, 0.5).edge_t
    seen = _recorded_brackets(monkeypatch)
    flow_derivative_check(model, 0.5, step=1e-4)
    assert seen == [None, centre.bracket, centre.bracket]
    assert centre.bracket[0] < centre.xi_r < centre.bracket[1]


def test_near_degenerate_centre_makes_every_model_scan(monkeypatch):
    seen = _recorded_brackets(monkeypatch, near_degenerate=True)
    flow_derivative_check(constant_model(50, 50), 0.5, step=1e-4)
    assert seen == [None, None, None]


def test_central_difference_is_second_order():
    # measure the halving ratio where truncation dominates the root-solver noise
    model = constant_model(50, 50)
    coarse = flow_derivative_check(model, 0.5, step=4e-3)
    fine = flow_derivative_check(model, 0.5, step=2e-3)
    for key in DERIVATIVE_KEYS:
        assert coarse[key] / fine[key] == pytest.approx(4.0, abs=1.0)


def test_stationary_point_balances_b_derivative():
    # at the pure-noise fixed point gamma^2 E_plus = -b(b-1) exactly
    state = stationary_state(constant_model(80, 80))
    derivs = analytic_derivatives(state)
    assert derivs["b"] == pytest.approx(0.0, abs=1e-10)
    assert state.gamma**2 * state.E_plus == pytest.approx(-state.b * (state.b - 1.0), abs=1e-10)


def test_flow_uses_base_aspect_ratio():
    model = load_spectrum({"type": "constant", "d": 1, "M": 30, "N": 120})
    state = flow_state(model, 1.0)
    assert state.c == pytest.approx(0.25)
    rc = math.sqrt(0.25)
    limit = stationary_state(model)
    assert limit.edge_t.lambda_r == pytest.approx((1 + rc) ** 2, abs=1e-10)


def test_loop_matches_the_analytic_derivatives_randomized():
    rng = np.random.default_rng(43)
    times = np.arange(0.0, 3.01, 0.25)
    for k in range(6):
        model = random_model(rng, (0.25, 0.5, 1.0)[k % 3])
        rows = flow_derivative_checks(model, times, step=1e-4)
        assert len(rows) == len(times)
        assert all(set(res) == set(DERIVATIVE_KEYS) and max(res.values()) <= 1e-6 for res in rows)


def test_loop_rejects_bad_times_and_steps():
    model = constant_model(4, 4)
    with pytest.raises(InvalidArgumentError):
        flow_derivative_checks(model, [0.0, -0.1])
    with pytest.raises(InvalidArgumentError):
        flow_derivative_checks(model, [0.0, 0.5], step=-1e-4)
    # e^{-t/2} at t - step = -2000 overflows a float
    with pytest.raises(InvalidArgumentError):
        flow_derivative_checks(model, [0.0], step=2000.0)


def test_later_times_start_from_a_ladder_around_the_last_edge(monkeypatch):
    model = constant_model(50, 50)
    seen = _recorded_brackets(monkeypatch)
    flow_derivative_checks(model, [0.0, 0.25, 0.5], step=1e-4)
    assert len(seen) == 9 and seen[0] is None
    for k in (0, 3, 6):
        ladder = seen[k]
        if k:
            assert isinstance(ladder, np.ndarray) and ladder.size == flow_module._LADDER_RATIOS.size
            assert np.all(np.diff(ladder) > 0.0)
        assert seen[k + 1] == seen[k + 2] and len(seen[k + 1]) == 2


def test_near_degenerate_edge_makes_the_next_time_scan(monkeypatch):
    seen = _recorded_brackets(monkeypatch, near_degenerate=True)
    flow_derivative_checks(constant_model(50, 50), [0.0, 0.25, 0.5], step=1e-4)
    assert seen == [None] * 9


def test_flow_check_scans_once_and_matches_per_time_scans(monkeypatch, caplog):
    # the 500 x 1000 uniform_sq spectrum at flow times 0, 0.1, ..., 3
    model = load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2.0, "M": 500, "N": 1000})
    times = np.arange(0.0, 3.0 + 1e-12, 0.1)
    solved = []
    real = flow_module.solve_edge

    def recording(model_t, *, bracket=None):
        edge = real(model_t, bracket=bracket)
        solved.append((model_t, edge))
        return edge

    monkeypatch.setattr(flow_module, "solve_edge", recording)
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        rows = flow_derivative_checks(model, times, step=1e-4)
    paths = [r.getMessage().split(",")[0] for r in caplog.records if r.getMessage().startswith("find_edge")]
    assert paths == ["find_edge: scan path"] + ["find_edge: bracket path"] * (3 * len(times) - 1)
    assert len(solved) == 3 * len(times)
    for model_t, edge in solved:
        assert abs(edge.xi_r - find_edge(model_t).xi_r) <= 4 * np.spacing(edge.xi_r)
    assert all(max(res.values()) <= 1e-6 for res in rows)


def test_flow_models_are_scaled_without_revalidation(monkeypatch):
    model = constant_model(40, 80)
    validated = []
    post_init = SpectrumModel.__post_init__
    monkeypatch.setattr(SpectrumModel, "__post_init__", lambda self: (validated.append(self), post_init(self)))
    results = flow_derivative_checks(model, [0.0, 0.5, 1.0])
    assert validated == [] and len(results) == 3
    state = flow_state(model, 0.5)
    assert validated == []
    assert state.model_t.d.tobytes() == (model.d * math.exp(-0.25)).tobytes()
    assert not state.model_t.d.flags.writeable
