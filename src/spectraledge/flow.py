"""Interpolating flow d_i(t) = e^{-t/2} d_i and its exact derivative identities.

flow_derivative_checks compares central differences of the edge data with
the analytic derivatives at many times, in three phases, on one array of
squared signal values e^{-s} d_i^2, a row for each s among the times, then
the times + step, then the times - step.  The edges at the times are found
one after another, each carried from the last (_ladder).  The rows at
t +- step then start from their time's bracket, all in one stack, and all
the rows are completed (f and phi at xi_r, the scaling constant) together.
The stacks are edge's one root-and-completion core, which solves one cell
per row, the one that holds its rightmost root, and gives each row the bits
of its own solve.  Only the model at each time is built as a SpectrumModel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edge import EdgeSolution, _complete, _find_roots, _scaled, solve_edge
from .errors import InvalidArgumentError
from .spectrum import SpectrumModel

DEFAULT_STEP = 1e-4
DERIVATIVE_KEYS = ("b", "gamma", "E_plus", "xi", "h")
# the EdgeSolution field behind each key, as FlowState reads it
_EDGE_FIELDS = dict(zip(DERIVATIVE_KEYS, ("b", "gamma0", "E_plus", "xi", "h_resc")))
# 1.1% apart within 4.4% of the predicted distance to the pole, 19% apart out to 4x
_LADDER_RATIOS = np.sort(np.concatenate((2.0 ** (np.arange(-8, 9) / 4.0), 2.0 ** (np.arange(-4, 5) / 64.0))))
# drop the repeated 1 by hand: np.union1d would load numpy.ma at import
_LADDER_RATIOS = _LADDER_RATIOS[np.concatenate(([True], _LADDER_RATIOS[1:] != _LADDER_RATIOS[:-1]))]


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


def _scale(model: SpectrumModel, t: float) -> float:
    """e^{-t/2}, 0 at t = inf; InvalidArgumentError naming t where it or e^{-t/2} d_1 is not finite."""
    try:
        scale = math.exp(-t / 2.0)
    except OverflowError:
        raise InvalidArgumentError(f"flow scale e^(-t/2) overflows at t={t!r}") from None
    if not math.isfinite(scale * float(model.d[0])):
        raise InvalidArgumentError(f"flow signal e^(-t/2) d_1 is not finite at t={t!r}")
    return scale


def _ladder(d1sq: float, t: float, history: list) -> np.ndarray:
    """Points around the xi_r that the last one or two (time, xi_r) pairs predict for time t.

    One pair predicts its own xi_r, two extrapolate linearly in t.  The
    points sit at _LADDER_RATIOS times the prediction's distance from the
    time-t pole d1sq = d_1(t)^2.
    """
    t1, xi1 = history[-1]
    guess = xi1
    if len(history) > 1 and history[-2][0] != t1:
        t0, xi0 = history[-2]
        guess = xi1 + (xi1 - xi0) * (t - t1) / (t1 - t0)
    return d1sq + (guess - d1sq) * _LADDER_RATIOS


def _require_time(t: float) -> None:
    """The one rule for a flow time: t >= 0, NaN refused, else InvalidArgumentError naming t."""
    if not t >= 0:
        raise InvalidArgumentError(f"flow time must be nonnegative, got {t!r}")


def flow_state(model: SpectrumModel, t: float) -> FlowState:
    """Recompute all edge quantities for the time-t model (no ODE integration)."""
    _require_time(t)
    model_t = SpectrumModel(d=model.d * _scale(model, t), M=model.M, N=model.N)
    return FlowState(t=t, model_t=model_t, edge_t=solve_edge(model_t))


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
    so t = 0 is checked with a genuine central difference.  Every scale
    (t and t +- step at each time) is taken first, so a step whose scale or
    scaled d_1 overflows is refused before any solve.  Then three phases:

    1. The edge roots at the times, in order.  Only the first time scans.
       Each later time hands the root stage a ladder of points around the
       xi_r extrapolated from the previous one or two times (_ladder); it
       solves the ladder's cell, which starts at the last point where
       phi' <= 0, once a certificate proves that no root lies further
       right, and scans otherwise.
    2. The roots of every row at t +- step, in one stack, each started
       from its time's bracket under the same rule and certificate.
    3. The completion of all the rows together: f and phi at xi_r, then
       the scaling constant.
    """
    if not step > 0:
        raise InvalidArgumentError("finite-difference step must be positive")
    times = [float(t) for t in times]
    for t in times:
        _require_time(t)
    if not times:
        return []
    T = len(times)
    scales = [_scale(model, s) for s in times + [t + step for t in times] + [t - step for t in times]]
    # rows e^{-s/2} d for s in [times | times + step | times - step], squared in place
    # once the model at each time has copied its row
    dsq = np.multiply.outer(scales, model.d)
    models = [SpectrumModel(d=row, M=model.M, N=model.N) for row in dsq[:T]]
    np.square(dsq, out=dsq)
    c = model.c_N
    centres = []
    history = []  # (t, xi_r) of the last two times
    for k, t in enumerate(times):
        ladder = _ladder(float(dsq[k, 0]), t, history) if history else None
        (centre,) = _find_roots(dsq[k:k + 1], c, [ladder])
        centres.append(centre)
        history = history[-1:] + [(t, centre.xi_r)]
    # the rows at t + step and at t - step start from the bracket of t
    shifted = _find_roots(dsq[T:], c, [centre.bracket for centre in centres] * 2)
    edges = _scaled(dsq, c, model.N, _complete(dsq, c, centres + shifted))
    out = []
    for k, t in enumerate(times):
        analytic = analytic_derivatives(FlowState(t=t, model_t=models[k], edge_t=edges[k]))
        plus, minus = edges[T + k], edges[2 * T + k]
        fd = {key: (getattr(plus, name) - getattr(minus, name)) / (2 * step) for key, name in _EDGE_FIELDS.items()}
        out.append({key: abs(fd[key] - analytic[key]) for key in DERIVATIVE_KEYS})
    return out


def flow_derivative_check(model: SpectrumModel, t: float, step: float = DEFAULT_STEP) -> dict:
    """Central finite differences vs the analytic derivatives at one time t (flow_derivative_checks).

    The row at t scans for its edge; the rows at t +- step start from its
    bracket, whose cell the root stage solves only once its certificate
    proves that phi' has no root right of the cell, and scans otherwise.
    Over many times, flow_derivative_checks also carries each edge to the
    next time instead of scanning again.
    """
    return flow_derivative_checks(model, [t], step)[0]
