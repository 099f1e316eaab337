"""Rightmost spectral edge, its critical point, and the Tracy-Widom scaling constant."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateScalingError, EdgeNotFoundError, NumericError, PoleError
from .spectrum import SpectrumModel

log = logging.getLogger("spectraledge")

_GRID_POINTS = 512
_NEWTON_ULPS = 4
_NEWTON_MAX_STEPS = 200
_DEGENERATE_REL = 1e-6
_EDGE_EPS = 1e-8
# certificate grid: hi, then 24 offsets growing geometrically from the first cell to the last point
_CERT_FRACTIONS = np.linspace(0.0, 1.0, 24)
# relative margin of every certificate comparison; the rounding of g^2 and Q
# is a few tens of eps even for a million signal values
_CERT_MARGIN = 1e-12


@dataclass(frozen=True)
class EdgeSolution:
    """Edge location and scaling data.

    xi_r is the largest critical point of the edge functional, lambda_r the
    rightmost support edge, b the boundary value 1 + c s(lambda_r).  tb and h
    are the unrescaled companions tb = lambda_r b - (1-c), h = lambda_r b + tb.
    After scaling completes: gamma0, E_plus = gamma0 lambda_r, xi = gamma0 xi_r
    and tb_resc = E_plus b - gamma0 (1-c).  bracket is the interval (lo, hi)
    that held xi_r, and iterations counts the phi' evaluations of the Newton
    solves, after the scan or the bracket check and before the final
    evaluation at xi_r.
    """

    xi_r: float
    lambda_r: float
    b: float
    tb: float
    h: float
    gamma0: float | None = None
    E_plus: float | None = None
    xi: float | None = None
    tb_resc: float | None = None
    roots: tuple = ()
    near_degenerate: bool = False
    bracket: tuple = ()
    iterations: int = 0

    @property
    def h_resc(self) -> float:
        """Rescaled h = E_plus b + tb_resc, the combination used along the flow."""
        return self.E_plus * self.b + self.tb_resc


def _reciprocals(model: SpectrumModel, w: np.ndarray) -> np.ndarray:
    """1/(d_i^2 - w) over a last axis of length M; d^2 - w is the only len(w) x M temporary."""
    diff = model.d_sq - w[..., None]
    if not diff.all():
        bad = w if w.ndim == 0 else w[(diff == 0.0).any(axis=-1)]
        raise PoleError(f"w={bad} coincides with a squared signal value")
    return np.reciprocal(diff, out=diff)


def phi_family(model: SpectrumModel, w):
    """Evaluate (f, f', phi, phi') at w away from the squared signal values.

    f(w) = mean_i 1/(d_i^2 - w) and phi(w) = w (1 - c f)^2 + (1-c)(1 - c f).
    w is a real or complex scalar, giving scalars, or an array, giving
    arrays of its shape.  Each mean is np.add.reduce(., axis=-1) / M: the
    bits of .mean(axis=-1) without its Python wrapper, which cost as much as
    the arithmetic at these sizes.
    """
    c = model.c_N
    w = np.asarray(w)
    inv = _reciprocals(model, w)
    m = inv.shape[-1]
    f = np.add.reduce(inv, axis=-1) / m
    fp = np.add.reduce(np.square(inv, out=inv), axis=-1) / m
    one = 1.0 - c * f
    phi = w * one**2 + (1.0 - c) * one
    phip = one**2 - 2.0 * c * w * one * fp - c * (1.0 - c) * fp
    if w.ndim == 0:
        return f.item(), fp.item(), phi.item(), phip.item()
    return f, fp, phi, phip


def _phi_newton(model: SpectrumModel, w: float) -> tuple[float, float]:
    """phi'(w) and phi''(w) at the real scalar w, from one d^2 - w and f'' = 2 mean 1/(d^2-w)^3.

    Scalar arithmetic in Python floats: the same operations as phi_family,
    so phi' has the same bits, without numpy's cost per 0-d operation.
    """
    c = model.c_N
    w = float(w)
    inv = _reciprocals(model, np.asarray(w))
    m = inv.size
    sq = inv * inv
    f = float(np.add.reduce(inv)) / m
    fp = float(np.add.reduce(sq)) / m
    fpp = 2.0 * (float(np.add.reduce(sq * inv)) / m)
    one = 1.0 - c * f
    phip = one * one - 2.0 * c * w * one * fp - c * (1.0 - c) * fp
    phipp = -4.0 * c * one * fp + 2.0 * c * c * w * fp * fp - c * (2.0 * w * one + 1.0 - c) * fpp
    return phip, phipp


def _newton_root(model, lo, hi, phip_lo, phip_hi, counts):
    """Root of phi' in [lo, hi], given phi' at the ends with opposite signs.

    Newton steps from the secant point, safeguarded by the bracket (rtsafe):
    a step that would leave the bracket, or be longer than half the step
    before last, becomes a bisection.  Stops when phi' is exactly 0 or the
    step is at most _NEWTON_ULPS ulp of w.  counts = [evaluations, Newton
    steps, bisections] is updated in place.
    """
    if phip_lo == 0.0:
        return lo
    if phip_hi == 0.0:
        return hi
    w = lo - phip_lo * (hi - lo) / (phip_hi - phip_lo)  # secant start
    if phip_lo > 0.0:
        lo, hi = hi, lo  # phi'(lo) < 0 < phi'(hi) from here on
    step = step_old = abs(hi - lo)
    for _ in range(_NEWTON_MAX_STEPS):
        g, gp = _phi_newton(model, w)
        counts[0] += 1
        if g == 0.0:
            return w
        if g < 0.0:
            lo = w
        else:
            hi = w
        trial = w - g / gp if gp != 0.0 else w
        if min(lo, hi) <= trial <= max(lo, hi) and abs(2.0 * g) <= abs(step_old * gp):
            step_old, step = step, w - trial
            counts[1] += 1
        else:
            step_old, step = step, 0.5 * (hi - lo)
            trial = lo + step
            counts[2] += 1
        if abs(step) <= _NEWTON_ULPS * np.spacing(w):
            return trial
        w = trial
    raise NumericError(f"Newton on phi' did not settle in [{min(lo, hi)!r}, {max(lo, hi)!r}]")


def _no_root_right_of(model: SpectrumModel, hi: float, f_hi: float, fp_hi: float) -> bool:
    """Prove that phi' > 0 on [hi, inf), given f and f' at hi > d_1^2; False if the proof fails.

    With g = 1 - c f and Q = c f' (2 w g + 1 - c), phi' = g^2 - Q.  Right of
    d_1^2, term by term, g - 1, f' and w f' are positive, decreasing and
    convex (d(w/(w-a)^2)/dw = -(w+a)/(w-a)^3, d^2/dw^2 = (2w+4a)/(w-a)^4), so
    g^2 and Q are too.  On a cell [a, b], g^2 lies above its tangent at b and
    Q below its chord, so phi' is at least the line through
    g(b)^2 + 2 c g(b) f'(b) (b - a) - Q(a) at a and phi'(b) at b; both
    positive prove phi' > 0 on the cell.  This holds whenever the cruder
    g(b)^2 > Q(a) does.  Since f < 0 there, g > 1, and Q(last) < 1 covers
    [last, inf).  One phi_family call evaluates a grid that starts at hi
    with a first cell short enough for phi'(hi) to pay for the fall of g^2
    across it, grows geometrically, and ends where Q < 1 whatever the
    spectrum (w - d_1^2 >= max(4, 2 d_1^2)).  Q is raised and the tangent
    term lowered by the relative margin _CERT_MARGIN, far above their
    rounding; the logged margin is the smallest of the lines' end values.
    """
    c = model.c_N
    d1sq = float(model.d_sq[0])
    g = 1.0 - c * f_hi
    q = c * fp_hi * (2.0 * hi * g + 1.0 - c)
    cells, margin = 0, g * g - q * (1.0 + _CERT_MARGIN)
    if margin > 0.0:
        last = d1sq + max(4.0, 2.0 * d1sq, 2.0 * (hi - d1sq))
        # g^2 falls at rate 2 c g f' at hi, so across this first cell by at most phi'(hi)/2
        slope = 4.0 * c * g * fp_hi
        first = last - hi if g * g - q >= slope * (last - hi) else (g * g - q) / slope
        grid = np.empty(_CERT_FRACTIONS.size + 1)
        grid[0] = hi
        grid[1:] = hi + first * ((last - hi) / first) ** _CERT_FRACTIONS
        f, fp = phi_family(model, grid)[:2]
        g = 1.0 - c * f
        sq = g * g
        q = c * fp * (2.0 * grid * g + 1.0 - c) * (1.0 + _CERT_MARGIN)
        tangent = 2.0 * c * g[1:] * fp[1:] * (grid[1:] - grid[:-1]) * (1.0 - _CERT_MARGIN)
        margin = min((sq[1:] + tangent - q[:-1]).min(), (sq[1:] - q[1:]).min(), 1.0 - q[-1])
        cells = grid.size - 1
    ok = bool(margin > 0.0)
    log.debug("edge certificate: %d cells right of %r, smallest margin %.3e, %s",
              cells, hi, margin, "accepted" if ok else "fell back to the scan")
    return ok


def _bracket_cell(model: SpectrumModel, points, lo: float) -> list:
    """[(a, b, phi'(a), phi'(b))] for the rightmost -/+ sign change of phi' over points, or [].

    points must increase strictly from lo or beyond, phi' must be positive at
    every point right of the cell, and _no_root_right_of must prove it
    positive on [b, inf); otherwise the result is empty.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or points.size < 2 or not lo <= points[0] or not (points[1:] > points[:-1]).all():
        return []
    f, fp, _, phip = phi_family(model, points)
    neg = np.flatnonzero(phip < 0.0)
    if not neg.size or neg[-1] == points.size - 1:
        return []
    i = int(neg[-1])
    if not (phip[i + 1:] > 0.0).all() or not _no_root_right_of(model, points[i + 1], f[i + 1], fp[i + 1]):
        return []
    return [(points[i], points[i + 1], phip[i], phip[i + 1])]


def find_edge(model: SpectrumModel, *, bracket=None) -> EdgeSolution:
    """Locate the rightmost critical point xi_r and the edge lambda_r = phi(xi_r).

    lambda_r is where the real branch of z = phi(w) that solve_stieltjes
    follows turns back, so phi'(xi_r) = 0.  phi' tends to -inf just right of
    d_1^2 and to a positive limit at +inf, so a sign change exists whenever
    the edge separates from the spectrum.  The scan evaluates phi' on a
    log-spaced grid in one call; every cell where phi' changes sign is solved
    by Newton's method safeguarded inside the cell (_newton_root), and the
    largest root is xi_r.

    bracket = (lo, hi), typically the bracket of a nearby model's edge, or a
    longer increasing ladder of points, such as one around a nearby model's
    xi_r, skips the scan.  One call evaluates phi' at every point; the cell
    is the rightmost -/+ sign change, phi' must be positive at every point
    right of it, and a certificate (_no_root_right_of: one more call on
    about 25 points) must prove phi' > 0 from the cell's right end to
    infinity, so the root found is the rightmost one.  The solution then
    lists only that root and near_degenerate is False.  Otherwise the scan
    runs as if no bracket were given.
    """
    c = model.c_N
    d1sq = float(model.d_sq[0])
    lo = d1sq + _EDGE_EPS * max(1.0, d1sq)

    cells = [] if bracket is None else _bracket_cell(model, bracket, lo)
    path = "bracket" if cells else "scan"
    if not cells:
        # w_max - d_1^2 exceeds max(4, 2 d_1^2), where _no_root_right_of's bound
        # gives phi' > 0 onwards, so a wider grid would add no sign change
        w_max = 4.0 * (d1sq + 1.0) * (1.0 + np.sqrt(c)) ** 2
        grid = np.geomspace(lo, w_max, _GRID_POINTS)
        phip = phi_family(model, grid)[3]
        cells = [(grid[i], grid[i + 1], phip[i], phip[i + 1])
                 for i in np.nonzero(np.diff(np.sign(phip)) != 0)[0]]
    if not cells:
        raise EdgeNotFoundError(
            "no sign change of phi' found; the spectrum may violate the edge-separation assumption"
        )

    counts = [0, 0, 0]
    roots = [_newton_root(model, *cell, counts) for cell in cells]
    log.debug("find_edge: %s path, %d bracket(s), %d Newton steps, %d bisection fallbacks",
              path, len(cells), counts[1], counts[2])
    near_degenerate = any(
        abs(roots[i + 1] - roots[i]) <= _DEGENERATE_REL * abs(roots[i + 1])
        for i in range(len(roots) - 1)
    )
    xi_r = roots[-1]
    f, _, phi, _ = phi_family(model, xi_r)
    b = 1.0 / (1.0 - c * f)
    lambda_r = phi
    tb = lambda_r * b - (1.0 - c)
    h = lambda_r * b + tb
    return EdgeSolution(
        xi_r=xi_r, lambda_r=lambda_r, b=b, tb=tb, h=h,
        roots=tuple(roots), near_degenerate=near_degenerate,
        bracket=tuple(float(x) for x in cells[-1][:2]), iterations=counts[0],
    )


def scaling_sums(model: SpectrumModel, edge: EdgeSolution) -> tuple[float, float]:
    """Both sides (A, B) of the cubic scaling equation gamma0^{-3} A = B."""
    dsq = model.d_sq
    N = model.N
    c = model.c_N
    xi_r, lam, b = edge.xi_r, edge.lambda_r, edge.b
    diff = dsq - xi_r
    diff2 = diff * diff  # products, not the much slower array power diff**3
    A = float(np.sum(b**2 / diff2) / N)
    B = float(
        -1.0 / b**3
        - np.sum((2.0 * lam * b - (1.0 - c)) ** 2 / (diff2 * diff)) / N
        - np.sum(lam / diff2) / N
    )
    return A, B


def gamma0(model: SpectrumModel, edge: EdgeSolution) -> EdgeSolution:
    """Complete the edge solution with the scaling constant gamma0 = (A/B)^(1/3).

    A = (1/N) sum b^2/(d_i^2-xi_r)^2 and B is the right side of the cubic
    scaling equation; B <= 0 means no real positive scaling exists.
    """
    c = model.c_N
    xi_r, lam, b = edge.xi_r, edge.lambda_r, edge.b
    A, B = scaling_sums(model, edge)
    if B <= 0.0 or A <= 0.0:
        raise DegenerateScalingError(
            f"no real positive scaling constant (A={A:.6e}, B={B:.6e})", A=A, B=B
        )
    g = (A / B) ** (1.0 / 3.0)
    E_plus = g * lam
    xi = g * xi_r
    tb_resc = E_plus * b - g * (1.0 - c)
    return replace(edge, gamma0=g, E_plus=E_plus, xi=xi, tb_resc=tb_resc)


def solve_edge(model: SpectrumModel, *, bracket=None) -> EdgeSolution:
    """find_edge (with an optional bracket, see there) followed by gamma0."""
    return gamma0(model, find_edge(model, bracket=bracket))


def edge_residuals(model: SpectrumModel, edge: EdgeSolution) -> dict:
    """Absolute residuals of the defining edge relations (all should vanish).

    first_order: (1/N) sum b (lambda_r b^2 + xi_r)/(d_i^2-xi_r)^2 = 1
    xi_relation: xi_r = lambda_r b^2 - (1-c) b
    b_relation:  1 - c f(xi_r) = 1/b
    R1, R2:      the rescaled forms of the first-order and scaling equations.
    """
    dsq = model.d_sq
    N = model.N
    c = model.c_N
    xi_r, lam, b = edge.xi_r, edge.lambda_r, edge.b
    diff = dsq - xi_r
    f = float(np.mean(1.0 / diff))
    out = {
        "first_order": abs(np.sum(b * (lam * b**2 + xi_r) / diff**2) / N - 1.0),
        "xi_relation": abs(xi_r - (lam * b**2 - (1.0 - c) * b)),
        "b_relation": abs(1.0 - c * f - 1.0 / b),
    }
    if edge.gamma0 is not None:
        g, E, xi = edge.gamma0, edge.E_plus, edge.xi
        rdiff = g * dsq - xi
        out["R1"] = abs(np.sum(g * b * (E * b**2 + xi) / rdiff**2) / N - 1.0)
        out["R2"] = abs(
            np.sum(b**2 / rdiff**2) / N / g**2
            + 1.0 / (g * b**3)
            + np.sum((2.0 * E * b - g * (1.0 - c)) ** 2 / rdiff**3) / N
            + np.sum(E / rdiff**2) / N
        )
        out["E_plus_relation"] = abs(E - g * lam)
        out["xi_btb"] = abs(xi - b * edge.tb_resc)
    return out
