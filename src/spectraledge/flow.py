"""Interpolating flow d_i(t) = e^{-t/2} d_i and its exact derivative identities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edge import EdgeSolution, solve_edge
from .errors import InvalidArgumentError
from .spectrum import SpectrumModel

DEFAULT_STEP = 1e-4
DERIVATIVE_KEYS = ("b", "gamma", "E_plus", "xi", "h")
# 1.1% apart within 4.4% of the predicted distance to the pole, 19% apart out to 4x
_LADDER_RATIOS = np.union1d(2.0 ** (np.arange(-8, 9) / 4.0), 2.0 ** (np.arange(-4, 5) / 64.0))


@dataclass(frozen=True)
class FlowState:
    """Edge and scaling data of the interpolated model at time t.

    The rescaled quantities (gamma, E_plus, xi, tb, h) drive the derivative
    identities; tb and h here are the rescaled companions, h = E_plus b + tb.
    """

    t: float
    model_t: SpectrumModel
    edge_t: EdgeSolution

    @property
    def b(self) -> float:
        return self.edge_t.b

    @property
    def gamma(self) -> float:
        return self.edge_t.gamma0

    @property
    def E_plus(self) -> float:
        return self.edge_t.E_plus

    @property
    def xi(self) -> float:
        return self.edge_t.xi

    @property
    def tb(self) -> float:
        return self.edge_t.tb_resc

    @property
    def h(self) -> float:
        return self.edge_t.h_resc

    @property
    def c(self) -> float:
        return self.model_t.c_N


def _model_at(model: SpectrumModel, t: float) -> SpectrumModel:
    """The model scaled by e^{-t/2}: 0 at t = inf, InvalidArgumentError where the scale overflows."""
    try:
        scale = math.exp(-t / 2.0)
    except OverflowError:
        raise InvalidArgumentError(f"flow scale e^(-t/2) overflows at t={t!r}") from None
    return model.scaled(scale)


def _state(model: SpectrumModel, t: float, bracket=None) -> FlowState:
    model_t = _model_at(model, t)
    return FlowState(t=t, model_t=model_t, edge_t=solve_edge(model_t, bracket=bracket))


def _ladder(model_t: SpectrumModel, t: float, history: list) -> np.ndarray:
    """Points around the xi_r that the last one or two (time, xi_r) pairs predict for time t.

    One pair predicts its own xi_r, two extrapolate linearly in t.  The
    points sit at _LADDER_RATIOS times the prediction's distance from the
    time-t pole d_1(t)^2.
    """
    t1, xi1 = history[-1]
    guess = xi1
    if len(history) > 1 and history[-2][0] != t1:
        t0, xi0 = history[-2]
        guess = xi1 + (xi1 - xi0) * (t - t1) / (t1 - t0)
    d1sq = float(model_t.d_sq[0])
    return d1sq + (guess - d1sq) * _LADDER_RATIOS


def flow_state(model: SpectrumModel, t: float) -> FlowState:
    """Recompute all edge quantities for the time-t model (no ODE integration)."""
    if not t >= 0:
        raise InvalidArgumentError(f"flow time must be nonnegative, got {t!r}")
    return _state(model, t)


def _varphi4(state: FlowState) -> float:
    rdiff = state.gamma * state.model_t.d_sq - state.xi
    rdiff2 = rdiff * rdiff
    return float(np.sum(1.0 / (rdiff2 * rdiff2)) / state.model_t.N)


def gamma_time_derivative(state: FlowState) -> float:
    """Analytic d(gamma)/dt along the flow."""
    g, b, E, tb, h = state.gamma, state.b, state.E_plus, state.tb, state.h
    p4 = _varphi4(state)
    return g**6 * h**4 * E * p4 - g**4 * h**3 * (
        4.0 * E**2 / (g * h**4)
        + 2.0 * g * E**3 / (b**2 * h**4)
        + 2.0 * g * E**2 / (b**3 * h**3)
        - 2.0 * b * tb / (g**3 * h**4)
        + g * E / (h**2 * b**4)
        + 1.0 / (g**3 * h**3)
    )


def analytic_derivatives(state: FlowState) -> dict:
    """Closed-form time derivatives of (b, gamma, E_plus, xi, h) at the state."""
    g, b, E, tb, h = state.gamma, state.b, state.E_plus, state.tb, state.h
    gd = gamma_time_derivative(state)
    bd = g**2 * E + b * (b - 1.0)
    Ed = -(E * b + tb) + E + (E / g) * gd
    xid = (b * tb / g) * gd + h * bd + E * b**2 - h * b**2
    hd = 2.0 * E * b - 2.0 * h * b + 2.0 * E * bd + (h / g) * gd
    return {"b": bd, "gamma": gd, "E_plus": Ed, "xi": xid, "h": hd}


def flow_derivative_checks(model: SpectrumModel, times, step: float = DEFAULT_STEP) -> list[dict]:
    """Central finite differences along the flow vs the analytic derivative formulas, at each time.

    Returns one dict of absolute differences keyed by quantity per time, in
    the order given.  The flow extends smoothly to slightly negative times,
    so t = 0 is checked with a genuine central difference.  Only the first
    time scans for its edge.  Each later time hands find_edge a ladder of
    points around the xi_r extrapolated from the previous one or two times
    (_ladder); find_edge solves the rightmost -/+ sign change of phi' on it
    once a certificate proves that no root lies further right, and scans
    otherwise.  At every time the models at t +- step start from the
    centre's bracket under the same certificate.  A near-degenerate edge at
    t makes the models at t +- step scan, and the next time too.
    """
    if not step > 0:
        raise InvalidArgumentError("finite-difference step must be positive")
    times = [float(t) for t in times]
    if not all(t >= 0 for t in times):
        raise InvalidArgumentError("flow time must be nonnegative")
    out = []
    history = []  # (t, xi_r) of the last two times, emptied by a near-degenerate edge
    for t in times:
        model_t = _model_at(model, t)
        ladder = _ladder(model_t, t, history) if history else None
        state = FlowState(t=t, model_t=model_t, edge_t=solve_edge(model_t, bracket=ladder))
        bracket = None if state.edge_t.near_degenerate else state.edge_t.bracket
        plus = _state(model, t + step, bracket)
        minus = _state(model, t - step, bracket)
        analytic = analytic_derivatives(state)
        fd = {key: (getattr(plus, key) - getattr(minus, key)) / (2 * step) for key in DERIVATIVE_KEYS}
        out.append({key: abs(fd[key] - analytic[key]) for key in DERIVATIVE_KEYS})
        history = [] if state.edge_t.near_degenerate else history[-1:] + [(t, state.edge_t.xi_r)]
    return out


def flow_derivative_check(model: SpectrumModel, t: float, step: float = DEFAULT_STEP) -> dict:
    """Central finite differences vs the analytic derivatives at one time t (flow_derivative_checks).

    The model at t scans for its edge; the models at t +- step start from
    its bracket, which find_edge takes only once its certificate proves
    that phi' has no root right of the bracket, and scans otherwise.  Over
    many times, flow_derivative_checks also carries each edge to the next
    time instead of scanning again.
    """
    return flow_derivative_checks(model, [t], step)[0]


def stationary_state(model: SpectrumModel) -> FlowState:
    """The t = infinity endpoint: a pure noise model with the same dimensions."""
    return _state(model, math.inf)
