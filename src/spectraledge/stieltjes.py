"""Stieltjes transform of the limiting spectral law, through the subordination map phi.

With b = 1 + c s and w = z b^2 - (1-c) b, the self-consistent equation

    s = mean_i 1/( d_i^2/b - z b + (1-c) )

reads s = b f(w) with f(w) = mean_i 1/(d_i^2 - w).  Hence b = 1/(1 - c f(w)),
s = f(w)/(1 - c f(w)), and z = phi(w) = w (1 - c f)^2 + (1-c)(1 - c f): the
map of edge.phi_family, whose critical point is the spectral edge.  This is
the subordination form of the information-plus-noise law (Dozier &
Silverstein 2007).  The transform is found by solving phi(w) = z for w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edge import phi_family
from .errors import InvalidArgumentError, SolverFailureError
from .spectrum import SpectrumModel

ETA_FLOOR = 1e-9
TOL = 1e-12
_ETA_STEP = 0.03
_STEPS_PER_LEVEL = 50
# |phi(w) - z| below this multiple of eps |z| is rounding: no Newton step can
# shrink it, and w is then as accurate as the conditioning of phi allows.
_ROUNDOFF = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class StieltjesValue:
    """Stieltjes transform and derived transforms at a spectral point or an array of them.

    s = f(w)/(1 - c f(w)) where w solves phi(w) = z on the branch with
    Im s >= 0; the companions are algebraic functions of (z, s, c).  z, s,
    s_tilde, b, tb and w are complex for a scalar z and arrays of its shape
    otherwise.  residual is the largest fixed-point residual |T(s) - s| over
    the points, iterations the total number of Newton steps.
    """

    z: complex
    s: complex
    s_tilde: complex
    b: complex
    tb: complex
    w: complex
    residual: float
    iterations: int


def _newton(model: SpectrumModel, z: np.ndarray, w: np.ndarray):
    """Newton's method for phi(w) = z from w, pointwise; returns (w, steps taken)."""
    w = w.copy()
    active = np.arange(z.size)
    steps = 0
    for _ in range(_STEPS_PER_LEVEL):
        _, _, phi, phip = phi_family(model, w[active])
        r = phi - z[active]
        dw = r / phip
        w[active] -= dw
        steps += active.size
        moving = (np.abs(dw) > TOL * np.maximum(1.0, np.abs(w[active]))) & (
            np.abs(r) > _ROUNDOFF * np.maximum(1.0, np.abs(z[active]))
        )
        active = active[moving]
        if not active.size:
            break
    return w, steps


def solve_stieltjes(model: SpectrumModel, z) -> StieltjesValue:
    """Solve the self-consistent equation at z (Im z > 0, or real E != 0 as a boundary value).

    z is a scalar or an array.  Domain: every z finite, Im z >= 0 and z != 0,
    else InvalidArgumentError; a real E is taken at E + i ETA_FLOOR.  Each
    point solves phi(w) = z by Newton's method, continued in the imaginary
    part: it starts at eta = max(10, 2|z|) from w = z - (1+c), the large-|z|
    limit of the branch, and shrinks eta by _ETA_STEP per level down to its
    target, each level starting from the w of the level before; points leave
    the iteration once a step is below TOL max(1, |w|) or |phi(w) - z| is
    rounding.  Raises SolverFailureError if a point ends with a fixed-point
    residual above 10 TOL max(1, |s|) or off the branch Im s >= 0,
    Im(z s) >= 0.  TOL is the module constant, read at call time.
    """
    z_in = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z_in)):
        raise InvalidArgumentError("stieltjes transform requires a finite z")
    if np.any(z_in == 0):
        raise InvalidArgumentError("stieltjes transform is not defined at z = 0")
    if np.any(z_in.imag < 0):
        raise InvalidArgumentError("spectral parameter must satisfy Im z >= 0")
    flat = z_in.ravel()
    E = flat.real
    eta_target = np.where(flat.imag > 0, flat.imag, ETA_FLOOR)
    eta = np.maximum(10.0, 2.0 * np.abs(flat))
    c = model.c_N
    w = E + 1j * eta - (1.0 + c)
    todo = np.ones(E.shape, dtype=bool)
    iterations = 0
    while todo.any():
        w[todo], steps = _newton(model, E[todo] + 1j * eta[todo], w[todo])
        iterations += steps
        todo = eta > eta_target
        eta = np.maximum(eta * _ETA_STEP, eta_target)

    zt = E + 1j * eta_target
    f = phi_family(model, w)[0]
    s = f / (1.0 - c * f)
    b = 1.0 + c * s
    w = zt * b**2 - (1.0 - c) * b
    # T(s) = mean 1/(d^2/b - z b + 1 - c) = b f(w) at the w that z and b give
    residuals = np.abs(b * phi_family(model, w)[0] - s)
    # rounding in T(s) grows like eps |s|^2, so the gate is relative once |s| > 1
    bound = 10 * TOL * np.maximum(1.0, np.abs(s))
    failed = ~(residuals <= bound) | (s.imag < -1e-12) | ((zt * s).imag < -1e-8)
    if failed.any():
        k = int(np.argmax(failed))
        raise SolverFailureError(
            f"stieltjes solver failed at z={zt[k]}: s={s[k]}, fixed-point residual "
            f"{residuals[k]:.3e}; a solution needs a residual <= {bound[k]:.3e}, "
            "Im s >= 0 and Im(z s) >= 0",
            residual=float(residuals[k]),
        )

    def shaped(x):
        return complex(x[0]) if z_in.ndim == 0 else x.reshape(z_in.shape)

    return StieltjesValue(
        z=shaped(zt), s=shaped(s), s_tilde=shaped(-(1.0 - c) / zt + c * s), b=shaped(b),
        tb=shaped(zt * b - (1.0 - c)), w=shaped(w),
        residual=float(residuals.max(initial=0.0)), iterations=iterations,
    )


def density(model: SpectrumModel, E):
    """Density of the limiting law at E != 0: (1/pi) Im s(E), clipped at 0; E scalar or array."""
    rho = np.maximum(0.0, solve_stieltjes(model, E).s.imag / np.pi)
    return float(rho) if np.ndim(E) == 0 else rho
