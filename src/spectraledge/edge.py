"""Rightmost spectral edge, its critical point, and the Tracy-Widom scaling constant.

The edge data depend on the signal only through d_i^2, c = M/N and N, so
the private core (_find_roots, _complete, scaling_sums, _scaled) takes
those as numbers: dsq, a (rows, M) array of squared signal values, each
row in decreasing order, with one c and one N for every row.  Each row is
solved to the bits it gets alone.  The public functions take a validated
SpectrumModel and pass its one row model.d_sq[None], model.c_N and model.N.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateScalingError, EdgeNotFoundError, NumericError, PoleError
from .spectrum import SpectrumModel

log = logging.getLogger("spectraledge")

_GRID_POINTS = 512
_NEWTON_ULPS = 4
_NEWTON_MAX_STEPS = 200
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
    and tb_resc = E_plus b - gamma0 (1-c).  bracket is the cell (lo, hi) that
    held xi_r, the scan's or the ladder's (see find_edge), and iterations
    counts the phi' evaluations of its Newton solve, after the scan or the
    bracket check and before the final evaluation at xi_r.
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
    bracket: tuple = ()
    iterations: int = 0

    @property
    def h_resc(self) -> float:
        """Rescaled h = E_plus b + tb_resc, the combination used along the flow."""
        return self.E_plus * self.b + self.tb_resc


class _Roots(NamedTuple):
    """The root stage of one row's edge: what find_edge knows before it evaluates f and phi at xi_r."""

    xi_r: float
    bracket: tuple
    iterations: int


def _rows(dsq: np.ndarray, rows: list) -> np.ndarray:
    """Rows of the stack dsq in the order given; a lone row is returned whole, to broadcast."""
    if len(dsq) == 1 or rows == list(range(len(dsq))):
        return dsq
    return dsq[rows]


def _blocks(rows: list, width: int) -> list:
    """rows in consecutive runs of _GRID_POINTS // width (at least one), so that a run with width
    points per row forms no temporary larger than the scan's _GRID_POINTS x M block."""
    size = max(1, _GRID_POINTS // width)
    if len(rows) <= size:
        return [rows]
    return [rows[i:i + size] for i in range(0, len(rows), size)]


def _reciprocals(dsq: np.ndarray, w: np.ndarray) -> np.ndarray:
    """1/(d_i^2 - w) over a last axis of length M; d^2 - w is the only temporary.

    dsq is one row of d^2, or a stack of rows shaped to broadcast against
    w[..., None]; each row is then its own spectrum's M values.
    """
    diff = dsq - w[..., None]
    if not diff.all():
        bad = w if w.ndim == 0 else w[(diff == 0.0).any(axis=-1)]
        raise PoleError(f"w={bad} coincides with a squared signal value")
    return np.reciprocal(diff, out=diff)


def _family(dsq: np.ndarray, c: float, w: np.ndarray):
    """(f, f', phi, phi') at the array w, with dsq as in _reciprocals (see phi_family)."""
    inv = _reciprocals(dsq, w)
    m = inv.shape[-1]
    f = np.add.reduce(inv, axis=-1) / m
    fp = np.add.reduce(np.square(inv, out=inv), axis=-1) / m
    one = 1.0 - c * f
    sq = one * one  # not one**2, which squares a numpy scalar through libm's pow
    phi = w * sq + (1.0 - c) * one
    phip = sq - 2.0 * c * w * one * fp - c * (1.0 - c) * fp
    return f, fp, phi, phip


def phi_family(model: SpectrumModel, w):
    """Evaluate (f, f', phi, phi') at w away from the squared signal values.

    f(w) = mean_i 1/(d_i^2 - w) and phi(w) = w (1 - c f)^2 + (1-c)(1 - c f).
    w is a real or complex scalar, giving scalars, or an array, giving
    arrays of its shape.  Each mean is np.add.reduce(., axis=-1) / M: the
    bits of .mean(axis=-1) without its Python wrapper, which cost as much as
    the arithmetic at these sizes.
    """
    w = np.asarray(w)
    f, fp, phi, phip = _family(model.d_sq, model.c_N, w)
    if w.ndim == 0:
        return f.item(), fp.item(), phi.item(), phip.item()
    return f, fp, phi, phip


def _phi_newton(dsq: np.ndarray, c: float, w) -> list:
    """[(phi'(w_k), phi''(w_k))] at the real scalars w_k, row k of dsq holding their d^2.

    One d^2 - w block for every row, with f'' = 2 mean 1/(d^2-w)^3; then
    scalar arithmetic in Python floats: the same operations as phi_family,
    so phi' has the same bits, without numpy's cost per 0-d operation.  A
    row's sums are the bits of its own 1-d sums.
    """
    w = [float(x) for x in w]
    inv = _reciprocals(dsq, np.array(w))
    m = inv.shape[-1]
    sq = inv * inv
    sums = zip(np.add.reduce(inv, axis=-1).tolist(), np.add.reduce(sq, axis=-1).tolist(),
               np.add.reduce(sq * inv, axis=-1).tolist())
    out = []
    for wk, (s0, s1, s2) in zip(w, sums):
        f = s0 / m
        fp = s1 / m
        fpp = 2.0 * (s2 / m)
        one = 1.0 - c * f
        phip = one * one - 2.0 * c * wk * one * fp - c * (1.0 - c) * fp
        phipp = -4.0 * c * one * fp + 2.0 * c * c * wk * fp * fp - c * (2.0 * wk * one + 1.0 - c) * fpp
        out.append((phip, phipp))
    return out


def _newton_roots(dsq: np.ndarray, c: float, cells: list) -> tuple[list, list]:
    """Root of phi' in each cell (row, lo, hi, phi'(lo), phi'(hi)), lo < hi and phi'(lo) <= 0 < phi'(hi).

    _cells gives every cell that order; _find_roots passes one cell per row
    of dsq.  Newton steps from the secant point, safeguarded by the cell
    (rtsafe): a step that would leave the cell, or be longer than half the
    step before last, becomes a bisection.  A cell stops when phi' is
    exactly 0 or its step is at most _NEWTON_ULPS ulp of w.  Each pass
    evaluates every unfinished cell in one _phi_newton call; each cell's
    steps are those it would take alone.  Returns the roots and, per cell,
    [evaluations, Newton steps, bisections].
    """
    roots = [None] * len(cells)
    counts = [[0, 0, 0] for _ in cells]
    state = {}  # unsolved cell -> [w, lo, hi, step, step before]
    for j, (_, lo, hi, phip_lo, phip_hi) in enumerate(cells):
        if phip_lo == 0.0:
            roots[j] = lo
        else:
            w = lo - phip_lo * (hi - lo) / (phip_hi - phip_lo)  # secant start
            state[j] = [w, lo, hi, hi - lo, hi - lo]
    for _ in range(_NEWTON_MAX_STEPS):
        if not state:
            return roots, counts
        for block in _blocks(list(state), 1):
            values = _phi_newton(_rows(dsq, [cells[j][0] for j in block]), c, [state[j][0] for j in block])
            for j, (g, gp) in zip(block, values):
                cell = state[j]
                w, lo, hi, step, step_old = cell
                work = counts[j]
                work[0] += 1
                if g == 0.0:
                    roots[j] = w
                    del state[j]
                    continue
                if g < 0.0:
                    lo = w
                else:
                    hi = w
                trial = w - g / gp if gp != 0.0 else w
                if lo <= trial <= hi and abs(2.0 * g) <= abs(step_old * gp):
                    step_old, step = step, w - trial
                    work[1] += 1
                else:
                    step_old, step = step, 0.5 * (hi - lo)
                    trial = lo + step
                    work[2] += 1
                if abs(step) <= _NEWTON_ULPS * np.spacing(w):
                    roots[j] = trial
                    del state[j]
                else:
                    cell[:] = trial, lo, hi, step, step_old
    if not state:
        return roots, counts
    _, lo, hi, _, _ = next(iter(state.values()))
    raise NumericError(f"Newton on phi' did not settle in [{lo!r}, {hi!r}]")


def _no_root_right_of(dsq: np.ndarray, c: float, hi, f_hi, fp_hi) -> list:
    """Prove that phi' > 0 on [hi_k, inf), given f and f' at hi_k > d_1^2, for each row k of dsq.

    With g = 1 - c f and Q = c f' (2 w g + 1 - c), phi' = g^2 - Q.  Right of
    d_1^2, term by term, g - 1, f' and w f' are positive, decreasing and
    convex (d(w/(w-a)^2)/dw = -(w+a)/(w-a)^3, d^2/dw^2 = (2w+4a)/(w-a)^4), so
    g^2 and Q are too.  On a cell [a, b], g^2 lies above its tangent at b and
    Q below its chord, so phi' is at least the line through
    g(b)^2 + 2 c g(b) f'(b) (b - a) - Q(a) at a and phi'(b) at b; both
    positive prove phi' > 0 on the cell.  This holds whenever the cruder
    g(b)^2 > Q(a) does.  Since f < 0 there, g > 1, and Q(last) < 1 covers
    [last, inf).  Each row's grid starts at hi with a first cell short
    enough for phi'(hi) to pay for the fall of g^2 across it, grows
    geometrically, and ends where Q < 1 whatever the spectrum
    (w - d_1^2 >= max(4, 2 d_1^2)); one evaluation covers the grids of up
    to _GRID_POINTS // 25 rows.  Q is raised and the tangent term lowered
    by the relative margin _CERT_MARGIN, far above their rounding; the
    logged margin is the smallest of the lines' end values.  Returns one
    bool per row, False where the proof fails.
    """
    margins, cells, pending = [], [0] * len(hi), []
    grid = np.empty((len(hi), _CERT_FRACTIONS.size + 1))
    for k, (h, f, fp) in enumerate(zip(hi, f_hi, fp_hi)):
        d1sq = float(dsq[k, 0])
        g = 1.0 - c * f
        q = c * fp * (2.0 * h * g + 1.0 - c)
        margins.append(g * g - q * (1.0 + _CERT_MARGIN))
        if margins[k] > 0.0:
            last = d1sq + max(4.0, 2.0 * d1sq, 2.0 * (h - d1sq))
            # g^2 falls at rate 2 c g f' at hi, so across this first cell by at most phi'(hi)/2
            slope = 4.0 * c * g * fp
            first = last - h if g * g - q >= slope * (last - h) else (g * g - q) / slope
            grid[k, 0] = h
            grid[k, 1:] = h + first * ((last - h) / first) ** _CERT_FRACTIONS
            pending.append(k)
    for block in _blocks(pending, grid.shape[1]):
        w = _rows(grid, block)
        f, fp = _family(_rows(dsq, block)[:, None, :], c, w)[:2]
        g = 1.0 - c * f
        sq = g * g
        q = c * fp * (2.0 * w * g + 1.0 - c) * (1.0 + _CERT_MARGIN)
        tangent = 2.0 * c * g[:, 1:] * fp[:, 1:] * (w[:, 1:] - w[:, :-1]) * (1.0 - _CERT_MARGIN)
        inner = (sq[:, 1:] + tangent - q[:, :-1]).min(axis=-1)
        tail = (sq[:, 1:] - q[:, 1:]).min(axis=-1)
        for j, k in enumerate(block):
            margins[k] = min(inner[j], tail[j], 1.0 - q[j, -1])
            cells[k] = w.shape[1] - 1
    ok = []
    for k, margin in enumerate(margins):
        ok.append(bool(margin > 0.0))
        log.debug("edge certificate: %d cells right of %r, smallest margin %.3e, %s",
                  cells[k], hi[k], margin, "accepted" if ok[k] else "fell back to the scan")
    return ok


def _pole_offset(d1sq: float, c: float, M: int) -> float:
    """Half of a proven lower bound on xi_r - d_1^2, or inf where the bound says nothing.

    At w = d_1^2 + delta every a_i = 1/(w - d_i^2) lies in (0, 1/delta], so
    g = 1 - c f = 1 + c mean(a) <= 1 + c/delta, f' = mean(a^2) >= 1/(M delta^2)
    and 2 w g + 1 - c >= 2 d_1^2 + 1 - c.  Hence phi' = g^2 - c f' (2 w g + 1 - c)
    <= (1 + c/delta)^2 - A/delta^2 with A = c (2 d_1^2 + 1 - c)/M, which is
    negative for delta < sqrt(A) - c: no root of phi' lies that close to the
    pole.  Near the pole the root sits at about sqrt(A), so for tiny c_N / M
    the bound falls below the scan's offset _EDGE_EPS d_1^2 and replaces it.
    """
    bound = float(np.sqrt(c * (2.0 * d1sq + 1.0 - c) / M)) - c
    return 0.5 * bound if bound > 0.0 else np.inf


def _cells(dsq: np.ndarray, c: float, ladders: dict) -> dict:
    """{row: (cell, f and f' at its right end, phi' > 0 at each point)} for each row's ladder in {row: points}.

    The one cell rule of the scan and of a bracket: a ladder's cell
    (a, b, phi'(a), phi'(b)) starts at its last point a where phi' <= 0 (or
    is NaN), so phi' is positive at every point right of a, and a ladder
    yields a cell only when a is not its last point.  A row without a cell
    is left out.  The ladders share one length (the scan's grids, the
    2-point brackets or flow's ladders) and are evaluated together, in runs
    within the scan's block.
    """
    out = {}
    if not ladders:
        return out
    size = next(iter(ladders.values())).size
    for block in _blocks(list(ladders), size):
        points = np.array([ladders[k] for k in block])
        f, fp, _, phip = _family(_rows(dsq, block)[:, None, :], c, points)
        positive = phip > 0.0
        # the last point where phi' <= 0, or size - 1 where phi' > 0 at every point
        last = size - 1 - positive[:, ::-1].argmin(axis=-1)
        for j, (k, i) in enumerate(zip(block, last.tolist())):
            if i < size - 1:
                cell = (points[j, i], points[j, i + 1], phip[j, i], phip[j, i + 1])
                out[k] = (cell, f[j, i + 1], fp[j, i + 1], positive[j])
    return out


def _find_roots(dsq: np.ndarray, c: float, brackets: list) -> list:
    """The root stage of find_edge for each row of dsq, one bracket (or None) per row.

    dsq and c are as in the module docstring.  A bracket must be None or
    points that increase strictly from the row's lo (d_1^2 plus the scan's
    offset) or beyond, every bracket of one length.  The rows go through
    each stage together: one evaluation per run of brackets, one
    certificate evaluation per run of grids, then one Newton pass per step
    over the one cell of every unsolved row.  A row
    whose bracket yields no certified cell scans alone.  Each row logs its
    own certificate and find_edge lines; its root, cell and counts are the
    bits of its own solve.
    """
    los, ladders = [], {}
    for k, points in enumerate(brackets):
        d1sq = float(dsq[k, 0])
        los.append(d1sq + min(_EDGE_EPS * max(1.0, d1sq), _pole_offset(d1sq, c, dsq.shape[1])))
        if points is not None:
            points = np.asarray(points, dtype=float)
            if points.ndim == 1 and points.size >= 2 and los[k] <= points[0] and (points[1:] > points[:-1]).all():
                ladders[k] = points
    found = _cells(dsq, c, ladders)
    cells = {}
    if found:
        rows = list(found)
        cands, f_hi, fp_hi, _ = zip(*found.values())
        proved = _no_root_right_of(_rows(dsq, rows), c, [cell[1] for cell in cands], f_hi, fp_hi)
        cells = {k: cell for k, cell, ok in zip(rows, cands, proved) if ok}
    grids = {}
    for k in range(len(dsq)):
        if k not in cells:
            # w_max - d_1^2 exceeds max(4, 2 d_1^2), where _no_root_right_of's bound
            # gives phi' > 0 onwards, so the grid's cell needs no certificate
            w_max = 4.0 * (float(dsq[k, 0]) + 1.0) * (1.0 + np.sqrt(c)) ** 2
            grids[k] = np.geomspace(los[k], w_max, _GRID_POINTS)
    scanned = _cells(dsq, c, grids)
    for k in grids:
        if k not in scanned:
            raise EdgeNotFoundError(
                "no sign change of phi' found; the spectrum may violate the edge-separation assumption"
            )
        cells[k] = scanned[k][0]
    roots, counts = _newton_roots(dsq, c, [(k, *cells[k]) for k in range(len(dsq))])
    out = []
    for k, (root, (evaluations, newton, bisections)) in enumerate(zip(roots, counts)):
        if k in scanned:
            positive = scanned[k][3]
            log.debug("find_edge: scan path, %d Newton steps, %d bisection fallbacks, "
                      "%d sign change(s) of phi' on the grid", newton, bisections,
                      np.count_nonzero(positive[1:] != positive[:-1]))
        else:
            log.debug("find_edge: bracket path, %d Newton steps, %d bisection fallbacks", newton, bisections)
        out.append(_Roots(root, tuple(float(x) for x in cells[k][:2]), evaluations))
    return out


def _complete(dsq: np.ndarray, c: float, found: list) -> list:
    """EdgeSolution of each row of dsq from its root stage: f and phi at xi_r, from one _family block."""
    out = []
    for block in _blocks(list(range(len(dsq))), 1):
        xi = [found[k].xi_r for k in block]
        f, _, phi, _ = _family(_rows(dsq, block), c, np.array(xi))
        for j, k in enumerate(block):
            b = 1.0 / (1.0 - c * float(f[j]))
            lambda_r = float(phi[j])
            tb = lambda_r * b - (1.0 - c)
            h = lambda_r * b + tb
            out.append(EdgeSolution(
                xi_r=xi[j], lambda_r=lambda_r, b=b, tb=tb, h=h,
                bracket=found[k].bracket, iterations=found[k].iterations,
            ))
    return out


def find_edge(model: SpectrumModel) -> EdgeSolution:
    """Locate the rightmost critical point xi_r and the edge lambda_r = phi(xi_r).

    lambda_r is where the real branch of z = phi(w) that solve_stieltjes
    follows turns back, so phi'(xi_r) = 0.  phi' tends to -inf just right of
    d_1^2 and to a positive limit at +inf, so a sign change exists whenever
    the edge separates from the spectrum.  The scan evaluates phi' on a
    log-spaced grid in one call and takes its one cell (_cells): the cell
    that starts at the last grid point where phi' <= 0.  The grid ends
    where _no_root_right_of's bound gives phi' > 0 onwards, so that cell
    holds the largest root; Newton's method safeguarded inside the cell
    (_newton_roots) solves it, and the root is xi_r.  The debug line counts
    the sign changes of phi' on the grid, which show a second critical
    point right of d_1^2 where there is one.

    This is the one-row case of the stacked solve (_find_roots, then
    _complete) that flow_derivative_checks runs on many rows of d^2 at
    once; there a row may start from a bracket, a ladder of points around a
    nearby row's xi_r, whose cell is taken by the same rule and solved only
    once a certificate (_no_root_right_of) proves phi' > 0 from the cell's
    right end to infinity.  A row gets the same bits either way.
    """
    dsq = model.d_sq[None]
    return _complete(dsq, model.c_N, _find_roots(dsq, model.c_N, [None]))[0]


def scaling_sums(dsq: np.ndarray, c: float, N: int, edges: list) -> tuple[list, list]:
    """Both sides (A, B) of the cubic scaling equation gamma0^{-3} A = B, one pair per row of dsq.

    dsq is as in _find_roots, N the noise dimension; one d^2 - xi_r block
    serves every row, and each row's sums are the bits of its own 1-d sums.
    """
    A, B = [], []
    for block in _blocks(list(range(len(dsq))), 1):
        edges_b = [edges[k] for k in block]
        diff = _rows(dsq, block) - np.array([e.xi_r for e in edges_b])[:, None]
        diff2 = diff * diff  # products, not the much slower array power diff**3
        bsq = np.array([e.b**2 for e in edges_b])[:, None]
        lift = np.array([(2.0 * e.lambda_r * e.b - (1.0 - c)) ** 2 for e in edges_b])[:, None]
        lam = np.array([e.lambda_r for e in edges_b])[:, None]
        A += (np.add.reduce(bsq / diff2, axis=-1) / N).tolist()
        cubic = np.add.reduce(lift / (diff2 * diff), axis=-1) / N
        square = np.add.reduce(lam / diff2, axis=-1) / N
        B += [float(-1.0 / e.b**3 - cubic[j] - square[j]) for j, e in enumerate(edges_b)]
    return A, B


def _scaled(dsq: np.ndarray, c: float, N: int, edges: list) -> list:
    """Each row's edge completed with its scaling constant (see gamma0), dsq and N as in scaling_sums."""
    out = []
    for edge, A, B in zip(edges, *scaling_sums(dsq, c, N, edges)):
        if B <= 0.0 or A <= 0.0:
            raise DegenerateScalingError(
                f"no real positive scaling constant (A={A:.6e}, B={B:.6e})", A=A, B=B
            )
        g = (A / B) ** (1.0 / 3.0)
        E_plus = g * edge.lambda_r
        xi = g * edge.xi_r
        tb_resc = E_plus * edge.b - g * (1.0 - c)
        out.append(replace(edge, gamma0=g, E_plus=E_plus, xi=xi, tb_resc=tb_resc))
    return out


def gamma0(model: SpectrumModel, edge: EdgeSolution) -> EdgeSolution:
    """Complete the edge solution with the scaling constant gamma0 = (A/B)^(1/3).

    A = (1/N) sum b^2/(d_i^2-xi_r)^2 and B is the right side of the cubic
    scaling equation; B <= 0 means no real positive scaling exists.
    """
    return _scaled(model.d_sq[None], model.c_N, model.N, [edge])[0]


def solve_edge(model: SpectrumModel) -> EdgeSolution:
    """find_edge followed by gamma0."""
    return gamma0(model, find_edge(model))


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
        out["xi_btb"] = abs(xi - b * edge.tb_resc)
    return out
