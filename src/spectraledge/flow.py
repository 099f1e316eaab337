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


def _state(model: SpectrumModel, t: float, bracket: tuple | None = None) -> FlowState:
    scale = math.exp(-t / 2.0) if math.isfinite(t) else 0.0
    model_t = SpectrumModel(d=model.d * scale, M=model.M, N=model.N)
    return FlowState(t=t, model_t=model_t, edge_t=solve_edge(model_t, bracket=bracket))


def flow_state(model: SpectrumModel, t: float) -> FlowState:
    """Recompute all edge quantities for the time-t model (no ODE integration)."""
    if t < 0:
        raise InvalidArgumentError("flow time must be nonnegative")
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


def flow_derivative_check(model: SpectrumModel, t: float, step: float = DEFAULT_STEP) -> dict:
    """Central finite differences along the flow vs the analytic derivative formulas.

    Returns absolute differences keyed by quantity.  The flow extends smoothly
    to slightly negative times, so t = 0 is checked with a genuine central
    difference.  Only the model at t scans for its edge: the models at
    t +- step start from its rightmost scan bracket, and find_edge falls back
    to a scan for either of them when phi' does not change sign across that
    bracket.  A near-degenerate edge at t makes all three models scan.
    """
    if step <= 0:
        raise InvalidArgumentError("finite-difference step must be positive")
    if t < 0:
        raise InvalidArgumentError("flow time must be nonnegative")
    state = _state(model, t)
    bracket = None if state.edge_t.near_degenerate else state.edge_t.bracket
    plus = _state(model, t + step, bracket)
    minus = _state(model, t - step, bracket)
    analytic = analytic_derivatives(state)
    fd = {
        "b": (plus.b - minus.b) / (2 * step),
        "gamma": (plus.gamma - minus.gamma) / (2 * step),
        "E_plus": (plus.E_plus - minus.E_plus) / (2 * step),
        "xi": (plus.xi - minus.xi) / (2 * step),
        "h": (plus.h - minus.h) / (2 * step),
    }
    return {key: abs(fd[key] - analytic[key]) for key in DERIVATIVE_KEYS}


def stationary_state(model: SpectrumModel) -> FlowState:
    """The t = infinity endpoint: a pure noise model with the same dimensions."""
    return _state(model, math.inf)
