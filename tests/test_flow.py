import logging
import math
import re

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
import spectraledge.edge as edge_module
import spectraledge.flow as flow_module
from spectraledge.flow import DERIVATIVE_KEYS


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
    state = flow_state(constant_model(60, 60), math.inf)
    assert state.edge_t.lambda_r == pytest.approx(4.0, abs=1e-10)
    assert state.gamma == pytest.approx(2.0 ** (-4.0 / 3.0), abs=1e-10)
    assert state.edge_t.xi_r == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("N", [100, 500])
def test_long_time_state_near_stationary(N):
    model = constant_model(N, N)
    t0 = 2.0 * math.log(N)
    state = flow_state(model, t0)
    limit = flow_state(model, math.inf)
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


def _recorded_brackets(monkeypatch):
    # the brackets of each call of the stacked root stage, one list per call
    seen = []
    real = flow_module._find_roots

    def recording(dsq, c, brackets):
        seen.append(list(brackets))
        return real(dsq, c, brackets)

    monkeypatch.setattr(flow_module, "_find_roots", recording)
    return seen


def test_shifted_models_start_from_centre_bracket(monkeypatch):
    model = constant_model(50, 50)
    centre = flow_state(model, 0.5).edge_t
    seen = _recorded_brackets(monkeypatch)
    flow_derivative_check(model, 0.5, step=1e-4)
    assert seen == [[None], [centre.bracket, centre.bracket]]
    assert centre.bracket[0] < centre.xi_r < centre.bracket[1]


def test_central_difference_is_second_order():
    # measure the halving ratio where truncation dominates the root-solver noise
    model = constant_model(50, 50)
    coarse = flow_derivative_check(model, 0.5, step=4e-3)
    fine = flow_derivative_check(model, 0.5, step=2e-3)
    for key in DERIVATIVE_KEYS:
        assert coarse[key] / fine[key] == pytest.approx(4.0, abs=1.0)


def test_stationary_point_balances_b_derivative():
    # at the pure-noise fixed point gamma^2 E_plus = -b(b-1) exactly
    state = flow_state(constant_model(80, 80), math.inf)
    derivs = analytic_derivatives(state)
    assert derivs["b"] == pytest.approx(0.0, abs=1e-10)
    assert state.gamma**2 * state.E_plus == pytest.approx(-state.b * (state.b - 1.0), abs=1e-10)


def test_flow_uses_base_aspect_ratio():
    model = load_spectrum({"type": "constant", "d": 1, "M": 30, "N": 120})
    state = flow_state(model, 1.0)
    assert state.c == pytest.approx(0.25)
    rc = math.sqrt(0.25)
    limit = flow_state(model, math.inf)
    assert limit.edge_t.lambda_r == pytest.approx((1 + rc) ** 2, abs=1e-10)


def test_loop_matches_the_analytic_derivatives_randomized():
    rng = np.random.default_rng(43)
    times = np.arange(0.0, 3.01, 0.25)
    for k in range(6):
        model = random_model(rng, (0.25, 0.5, 1.0)[k % 3])
        rows = flow_derivative_checks(model, times, step=1e-4)
        assert len(rows) == len(times)
        assert all(set(res) == set(DERIVATIVE_KEYS) and max(res.values()) <= 1e-6 for res in rows)


@pytest.mark.parametrize("t", [-1.0, math.nan])
def test_both_flow_entries_refuse_a_time_with_one_message(t):
    model = constant_model(4, 4)
    message = f"flow time must be nonnegative, got {t!r}"
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        flow_state(model, t)
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        flow_derivative_checks(model, [0.0, t])


def test_loop_rejects_bad_times_and_steps():
    model = constant_model(4, 4)
    with pytest.raises(InvalidArgumentError):
        flow_derivative_checks(model, [0.0, -0.1])
    with pytest.raises(InvalidArgumentError):
        flow_derivative_checks(model, [0.0, 0.5], step=-1e-4)
    # e^{-t/2} at t - step = -2000 overflows a float
    with pytest.raises(InvalidArgumentError):
        flow_derivative_checks(model, [0.0], step=2000.0)
    # no times, no rows and nothing to solve
    assert flow_derivative_checks(model, []) == []


def test_later_times_start_from_a_ladder_around_the_last_edge(monkeypatch):
    # the times one by one, then every row at t + step and then at t - step in
    # one stack, each pair from its own time's bracket
    model = constant_model(50, 50)
    seen = _recorded_brackets(monkeypatch)
    flow_derivative_checks(model, [0.0, 0.25, 0.5], step=1e-4)
    assert [len(call) for call in seen] == [1, 1, 1, 6] and seen[0] == [None]
    for (ladder,) in seen[1:3]:
        assert isinstance(ladder, np.ndarray) and ladder.size == flow_module._LADDER_RATIOS.size
        assert np.all(np.diff(ladder) > 0.0)
    shifted = seen[3]
    assert shifted[:3] == shifted[3:] and all(len(bracket) == 2 for bracket in shifted)
    assert len(set(shifted)) == 3


def _uniform_sq_500x1000():
    return load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2.0, "M": 500, "N": 1000})


def test_scan_sees_one_sign_change_on_the_500x1000_spectrum(caplog):
    # the scan's debug line counts the sign changes of phi' on its grid; a second
    # critical point right of d_1^2 would show here as 3
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        find_edge(_uniform_sq_500x1000())
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("find_edge")]
    assert line.startswith("find_edge: scan path, ")
    assert line.endswith(", 1 sign change(s) of phi' on the grid")


def test_flow_check_scans_once_and_matches_per_time_scans(monkeypatch, caplog):
    # the 500 x 1000 uniform_sq spectrum at flow times 0, 0.1, ..., 3
    model = _uniform_sq_500x1000()
    times = np.arange(0.0, 3.0 + 1e-12, 0.1)
    solved = []
    real = flow_module._find_roots

    def recording(dsq, c, brackets):
        found = real(dsq, c, brackets)
        solved.extend((row[None], c, root) for row, root in zip(dsq, found))
        return found

    monkeypatch.setattr(flow_module, "_find_roots", recording)
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        rows = flow_derivative_checks(model, times, step=1e-4)
    paths = [r.getMessage().split(",")[0] for r in caplog.records if r.getMessage().startswith("find_edge")]
    assert paths == ["find_edge: scan path"] + ["find_edge: bracket path"] * (3 * len(times) - 1)
    assert len(solved) == 3 * len(times)
    for dsq, c, found in solved:
        # each row's scan, as find_edge runs it
        (scan,) = edge_module._find_roots(dsq, c, [None])
        assert abs(found.xi_r - scan.xi_r) <= 4 * np.spacing(found.xi_r)
    assert all(max(res.values()) <= 1e-6 for res in rows)


def test_flow_check_forms_d_squared_minus_w_at_most_200_times(monkeypatch):
    # one d^2 - w block per evaluation: one per centre step, one per step of
    # each stack of t +- step models, one for the completion of all of them
    calls = []
    real = edge_module._reciprocals

    def counting(dsq, w):
        calls.append(w.shape)
        return real(dsq, w)

    monkeypatch.setattr(edge_module, "_reciprocals", counting)
    flow_derivative_checks(_uniform_sq_500x1000(), np.arange(0.0, 3.0 + 1e-12, 0.1), step=1e-4)
    assert len(calls) <= 200
    # no block is larger than the scan's _GRID_POINTS points
    assert max(math.prod(shape) for shape in calls) <= edge_module._GRID_POINTS


def test_ladder_ratios_are_the_sorted_union():
    old = np.union1d(2.0 ** (np.arange(-8, 9) / 4.0), 2.0 ** (np.arange(-4, 5) / 64.0))
    assert flow_module._LADDER_RATIOS.tobytes() == old.tobytes()


def test_flow_check_validates_exactly_one_model_per_time(monkeypatch):
    # the rows at t +- step are squared signal values only; the model at each
    # time, which its FlowState holds, goes through the one constructor
    model = constant_model(40, 80)
    validated = []
    post_init = SpectrumModel.__post_init__
    monkeypatch.setattr(SpectrumModel, "__post_init__", lambda self: (validated.append(self), post_init(self)))
    results = flow_derivative_checks(model, [0.0, 0.5, 1.0])
    assert len(validated) == 3 and len(results) == 3
    assert [m.d.tobytes() for m in validated] == [(model.d * math.exp(-t / 2.0)).tobytes() for t in (0.0, 0.5, 1.0)]
    validated.clear()
    state = flow_state(model, 0.5)
    assert validated == [state.model_t]
    assert state.model_t.d.tobytes() == (model.d * math.exp(-0.25)).tobytes()
    assert not state.model_t.d.flags.writeable


@pytest.mark.parametrize("d, step", [(1e300, 50.0), (1.0, math.inf)])
def test_flow_check_refuses_a_step_whose_signal_overflows(d, step):
    # e^{25} d_1 at t - step = -50 overflows; an infinite step scales d by inf,
    # without the OverflowError of a finite exponent
    model = load_spectrum({"type": "constant", "d": d, "M": 3, "N": 4})
    with pytest.raises(InvalidArgumentError, match=re.escape(f"at t={0.0 - step!r}")):
        flow_derivative_checks(model, [0.0], step=step)
