"""Deterministic edge functionals and the exact identities they satisfy.

Each function takes a FlowState (t, model_t, edge_t) and reads the rescaled
edge under the paper's symbols: g = edge_t.gamma0, b = edge_t.b,
E = edge_t.E_plus, tb = edge_t.tb_resc and h = edge_t.h_resc, with
c = model_t.c_N and the squared signal values model_t.d_sq.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .flow import FlowState, gamma_time_derivative

_POLE_EPS = 1e-120


@dataclass(frozen=True)
class EdgeFunctionals:
    """Resolvent-type sums of the rescaled model at one flow state.

    varphi_k = (1/N) sum 1/(g d_a^2 - xi)^k for k = 1..4 and
    psi2 = (1/N) sum g d_a^2/(g d_a^2 - xi)^2; varpi2, Phi1, Phi2 and theta4
    are the composite sums entering the optical cancellations.
    """

    varphi1: float
    varphi2: float
    varphi3: float
    varphi4: float
    psi2: float
    varpi2: float
    Phi1: float
    Phi2: float
    theta4: float


def edge_functionals(state: FlowState) -> EdgeFunctionals:
    """Evaluate all functionals by direct summation at the given flow state."""
    e = state.edge_t
    g, b, E, tb, h, c = e.gamma0, e.b, e.E_plus, e.tb_resc, e.h_resc, state.model_t.c_N
    dsq = state.model_t.d_sq
    N = state.model_t.N
    u = g * dsq
    diff = u - e.xi
    if np.any(np.abs(diff) < _POLE_EPS):
        raise PoleError("xi coincides with a rescaled squared signal value")

    # products, not the much slower array power diff**k
    diff2 = diff * diff
    diff3 = diff2 * diff
    diff4 = diff2 * diff2
    varphi1, varphi2, varphi3, varphi4 = (
        float(np.sum(1.0 / power) / N) for power in (diff, diff2, diff3, diff4)
    )
    psi2 = float(np.sum(u / diff2) / N)
    varpi2 = float(np.sum(tb**2 / diff2) / N + (1.0 - c) / b**2)
    Phi1 = float(
        np.sum((g**3 * dsq * tb + 2.0 * g**3 * dsq * b * E + g**2 * b**3 * E**2) / diff3) / N
    )
    Phi2 = float(
        np.sum((g**3 * dsq * b * E**2 + 2.0 * g**3 * dsq * tb * E + g**2 * tb**3) / diff3) / N
        - g**2 * (1.0 - c) / b**3
    )
    # the (1-c)/b^4 piece enters theta4 once, not averaged against the spectrum
    theta4 = float(
        np.sum(
            (
                g**3 * E**2 * (u + E * b**2) ** 2
                + 2.0 * g**4 * dsq * E * h**2
                + g**3 * (E * u + tb**2) ** 2
            )
            / diff4
        )
        / N
        + g**3 * (1.0 - c) / b**4
    )

    return EdgeFunctionals(
        varphi1=varphi1, varphi2=varphi2, varphi3=varphi3, varphi4=varphi4, psi2=psi2,
        varpi2=varpi2, Phi1=Phi1, Phi2=Phi2, theta4=theta4,
    )


def theta4_closed_form(state: FlowState, functionals: EdgeFunctionals) -> float:
    """theta4 reduced through the varphi identities:
    g^3 h^4 varphi4 - 4E/h - 4 g^2 E / b^3 - 2 g^2 E^2 / (b^2 h) + g^3 (1-c)/b^4.
    """
    e = state.edge_t
    g, b, E, h, c = e.gamma0, e.b, e.E_plus, e.h_resc, state.model_t.c_N
    return (
        g**3 * h**4 * functionals.varphi4
        - 4.0 * E / h
        - 4.0 * g**2 * E / b**3
        - 2.0 * g**2 * E**2 / (b**2 * h)
        + g**3 * (1.0 - c) / b**4
    )


def identity_residuals(state: FlowState) -> dict:
    """Absolute residuals of the exact functional identities at the state.

    Keys: varphi2, psi2, varphi3, varpi2, Phi1, Phi2 (the closed forms of the
    sums), theta4 (definitional sum vs reduced form), and imcancel (the
    vanishing combination of the Green-function-derivative coefficients C1
    and C3, formed here from one evaluation of gamma's time derivative).
    """
    e = state.edge_t
    g, b, E, tb, h, c = e.gamma0, e.b, e.E_plus, e.tb_resc, e.h_resc, state.model_t.c_N
    fn = edge_functionals(state)
    gd = gamma_time_derivative(state)
    cm = (b - 1.0) / g

    residuals = {
        "varphi2": abs(fn.varphi2 - 1.0 / (g * b**2 * h)),
        "psi2": abs(fn.psi2 - (1.0 / g - E * b**2 * fn.varphi2)),
        "varphi3": abs(
            fn.varphi3
            + (1.0 / (g**3 * h**3) + 1.0 / (g * b**3 * h**2) + E / (g * b**2 * h**3))
        ),
        "varpi2": abs(fn.varpi2 - E**2 * b**2 * fn.varphi2),
        "Phi1": abs(fn.Phi1 + b**3 * fn.varphi2),
        "Phi2": abs(fn.Phi2 + tb * b**2 * fn.varphi2),
        "theta4": abs(fn.theta4 - theta4_closed_form(state, fn)),
    }
    # C1 and C3 are the Green-function-derivative coefficients; the coefficient of
    # the fourth-order terms after eliminating the third-order ones must match the
    # coefficient of the averaged-resolvent terms
    C1 = 2.0 * tb * b / (g * E) - 2.0 * g * E - 2.0 * tb * gd / (g**2 * E)
    C3 = (
        g**3 * h**4 * tb * fn.varphi4 / E
        - 3.0 * tb / h
        - 3.0 * g**2 * tb / b**3
        - 3.0 * g**2 * E * tb / (b**2 * h)
        - (E * b**2 + g**2 * E**2) / (b * h)
        + h * g**3 * (1.0 - c) / (E * b**4)
        - g**3 * (1.0 - c) / b**4
    ) * (b - gd / g) + gd * g**3 * cm * (1.0 - c) / b**4
    P = (
        -g * cm
        - g**3 * (1.0 - c) / b**3
        + (2.0 * b * E / (g * h)) * gd
        + (g**2 * (1.0 - c) / b**3) * gd
    )
    Q = C3 - 0.5 * C1 * g * fn.theta4
    residuals["imcancel"] = abs(Q - P)
    return residuals
