import math
from dataclasses import replace

import numpy as np
import pytest

from spectraledge import (
    FlowState,
    PoleError,
    SpectrumModel,
    edge_functionals,
    flow_state,
    identity_residuals,
    load_spectrum,
)
from spectraledge.identities import theta4_closed_form

IDENTITY_KEYS = {"varphi2", "psi2", "varphi3", "varpi2", "Phi1", "Phi2", "theta4", "imcancel"}


def constant_state(t=0.0, M=100):
    model = load_spectrum({"type": "constant", "d": 1, "M": M, "N": M})
    return flow_state(model, t)


def random_states(count, seed=7, times=(0.0,)):
    rng = np.random.default_rng(seed)
    for k in range(count):
        M = int(rng.integers(20, 50))
        c = (0.25, 0.5, 1.0)[k % 3]
        N = int(round(M / c))
        model = SpectrumModel(d=np.sqrt(rng.uniform(0.0, 1.0, M)), M=M, N=N)
        for t in times:
            yield flow_state(model, t)


def test_varphi2_closed_form_constant_spectrum():
    state = constant_state()
    fn = edge_functionals(state)
    g, b, h = state.edge_t.gamma0, state.edge_t.b, state.edge_t.h_resc
    assert g == pytest.approx((16.0 / 729.0) ** (1.0 / 3.0), abs=1e-12)
    assert b == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert fn.varphi2 == pytest.approx(1.0 / (g * b**2 * h), abs=1e-12)


def test_varphi1_zero_signal():
    state = flow_state(load_spectrum({"type": "constant", "d": 1, "M": 60, "N": 60}), math.inf)
    fn = edge_functionals(state)
    assert fn.varphi1 == pytest.approx((state.edge_t.b - 1.0) / (state.edge_t.gamma0 * state.edge_t.b), abs=1e-10)


def test_even_odd_sign_pattern():
    for state in random_states(5, seed=3):
        fn = edge_functionals(state)
        assert fn.varphi2 > 0
        assert fn.varphi3 < 0
        assert fn.varphi4 > 0


def test_identity_residual_keys():
    res = identity_residuals(constant_state())
    assert set(res) == IDENTITY_KEYS


def test_identities_randomized_spectra_at_t0():
    for state in random_states(20, seed=1):
        res = identity_residuals(state)
        for key in ("varphi2", "psi2", "varphi3", "varpi2", "Phi1", "Phi2"):
            assert res[key] <= 1e-9, (key, res[key])


def test_cancellation_constant_spectrum():
    res = identity_residuals(constant_state())
    assert res["imcancel"] <= 1e-8


def test_varpi2_zero_signal_reduces_exactly():
    state = flow_state(load_spectrum({"type": "constant", "d": 1, "M": 50, "N": 100}), math.inf)
    res = identity_residuals(state)
    assert res["varpi2"] <= 1e-12


def test_theta4_definition_matches_reduced_form():
    for state in random_states(9, seed=13):
        fn = edge_functionals(state)
        assert abs(fn.theta4 - theta4_closed_form(state, fn)) <= 1e-9


def test_identities_hold_along_whole_flow():
    # strongest cross-module check: couples the edge solve, the scaling
    # constant and the flow at every time
    for state in random_states(4, seed=21, times=np.arange(0.0, 3.01, 0.25)):
        res = identity_residuals(state)
        assert max(res[k] for k in IDENTITY_KEYS - {"imcancel"}) <= 1e-9
        assert res["imcancel"] <= 1e-8


def test_psi_fields_are_direct_sums():
    state = constant_state(t=0.4, M=30)
    fn = edge_functionals(state)
    u = state.edge_t.gamma0 * state.model_t.d_sq
    diff = u - state.edge_t.xi
    assert fn.psi2 == pytest.approx(float(np.sum(u / diff**2) / state.model_t.N), abs=1e-15)


def test_edge_functionals_refuse_a_state_whose_xi_is_on_a_pole():
    # a hand-built state whose rescaled xi equals gamma d_a^2 for the second value
    state = flow_state(SpectrumModel(d=np.array([1.0, 0.5]), M=2, N=4), 0.0)
    on_pole = replace(state.edge_t, xi=state.edge_t.gamma0 * state.model_t.d_sq.item(1))
    with pytest.raises(PoleError, match="xi coincides"):
        edge_functionals(FlowState(t=0.0, model_t=state.model_t, edge_t=on_pole))
