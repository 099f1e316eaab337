import contextlib
import logging
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from spectraledge import (
    DegenerateScalingError,
    NumericError,
    PoleError,
    SpectrumModel,
    edge_residuals,
    find_edge,
    gamma0,
    load_spectrum,
    phi_family,
    solve_edge,
)
import spectraledge.edge as edge_module
from spectraledge.edge import (
    EdgeSolution, _complete, _find_roots, _no_root_right_of, _phi_newton, _scaled, scaling_sums,
)

from oracles import constant_spectrum_critical_points, mp_constant_spectrum_xi_r


def constant_model(d, M, N):
    return load_spectrum({"type": "constant", "d": d, "M": M, "N": N})


def zero_model(M, N):
    return load_spectrum({"type": "explicit", "d": [0.0] * M, "M": M, "N": N})


def random_models(count, seed=0):
    rng = np.random.default_rng(seed)
    models = []
    for k in range(count):
        M = int(rng.integers(20, 60))
        c = (0.25, 0.5, 1.0)[k % 3]
        N = int(round(M / c))
        d = np.sqrt(rng.uniform(0.0, 1.0, M))
        models.append(SpectrumModel(d=d, M=M, N=N))
    return models


def test_phi_family_constant_spectrum_at_critical_point():
    model = constant_model(1, 100, 100)
    f, fp, phi, phip = phi_family(model, 3.0)
    assert f == pytest.approx(-0.5, abs=1e-14)
    assert phi == pytest.approx(27.0 / 4.0, abs=1e-12)
    assert phip == pytest.approx(0.0, abs=1e-12)


def test_phi_family_zero_signal():
    model = zero_model(10, 10)
    f, fp, phi, phip = phi_family(model, 1.0)
    assert f == pytest.approx(-1.0, abs=1e-14)
    assert phi == pytest.approx(4.0, abs=1e-13)
    assert phip == pytest.approx(0.0, abs=1e-13)


def test_phi_prime_constant_spectrum_closed_form():
    model = constant_model(1, 64, 64)
    # for the constant unit spectrum phi'(w) = w^2 (w - 3)/(w - 1)^3
    _, _, _, phip = phi_family(model, 2.0)
    assert phip == pytest.approx(-4.0, abs=1e-12)
    for w in (1.5, 2.5, 4.0, 6.0):
        _, _, _, value = phi_family(model, w)
        assert value == pytest.approx(w**2 * (w - 3.0) / (w - 1.0) ** 3, abs=1e-11)
    # one array call, complex points included, equals the scalar calls
    ws = np.array([1.5, 2.5, 4.0, 6.0, 2.0 + 1.0j, 0.5 - 0.25j])
    batch = phi_family(model, ws)
    assert all(part.shape == ws.shape for part in batch)
    for k, w in enumerate(ws):
        assert tuple(part[k] for part in batch) == phi_family(model, w)
        assert batch[3][k] == pytest.approx(w**2 * (w - 3.0) / (w - 1.0) ** 3, abs=1e-11)


def _mean_phi_family(model, w):
    # phi_family as written with ndarray.mean, before it summed with np.add.reduce
    c = model.c_N
    w = np.asarray(w)
    inv = np.reciprocal(model.d_sq - w[..., None])
    f = inv.mean(axis=-1)
    fp = np.square(inv).mean(axis=-1)
    one = 1.0 - c * f
    return f, fp, w * one**2 + (1.0 - c) * one, one**2 - 2.0 * c * w * one * fp - c * (1.0 - c) * fp


@pytest.mark.parametrize(
    "w",
    [3.7, np.linspace(1.5, 40.0, 33), np.array([[2.0 + 1.0j, 0.5 - 0.25j], [7.0 + 1e-9j, -3.0 + 2.0j]])],
    ids=["real-scalar", "real-vector", "complex-array"],
)
def test_phi_family_bitwise_equal_to_mean_expressions(w):
    model = SpectrumModel(d=np.sqrt(np.linspace(0.2, 1.3, 257)), M=257, N=600)
    for new, old in zip(phi_family(model, w), _mean_phi_family(model, w)):
        assert np.array_equal(new, old)
        assert np.ndim(new) == np.ndim(w)
    if np.ndim(w) == 0:
        # the Newton evaluator forms d^2 - w once and still gives the same phi',
        # and phi'' from f'' = 2 mean 1/(d^2 - w)^3; in a stack of d^2 rows
        # that share c, each row gets the bits of its own model
        models = [SpectrumModel(d=model.d * s, M=model.M, N=model.N) for s in (1.0, 0.9, 1.1)]
        expected = []
        for m, x in zip(models, (w, 1.1 * w, 0.8 * w)):
            f, fp, _, phip = _mean_phi_family(m, x)
            c = m.c_N
            inv = np.reciprocal(m.d_sq - x)
            fpp = 2.0 * float(np.mean(inv * inv * inv))
            one = 1.0 - c * f
            phipp = -4.0 * c * one * fp + 2.0 * c * c * x * fp * fp - c * (2.0 * x * one + 1.0 - c) * fpp
            expected.append((phip, phipp))
        assert _phi_newton(model.d_sq[None], model.c_N, [w]) == expected[:1]
        dsq = np.array([m.d_sq for m in models])
        assert _phi_newton(dsq, model.c_N, [w, 1.1 * w, 0.8 * w]) == expected


def test_phi_family_pole_rejected():
    model = constant_model(1, 8, 8)
    with pytest.raises(PoleError):
        phi_family(model, 1.0)


def test_find_edge_constant_unit_spectrum():
    sol = find_edge(constant_model(1, 500, 500))
    assert sol.xi_r == pytest.approx(3.0, abs=1e-11)
    assert sol.lambda_r == pytest.approx(6.75, abs=1e-11)
    assert sol.b == pytest.approx(2.0 / 3.0, abs=1e-11)


def test_find_edge_uniform_example():
    model = load_spectrum({"type": "uniform_sq", "v_min": 1, "v_max": 2, "M": 1000, "N": 1000})
    sol = find_edge(model)
    assert sol.xi_r == pytest.approx(3.89, abs=0.01)


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
def test_find_edge_zero_signal_closed_forms(c):
    M = int(100 * c)
    sol = find_edge(zero_model(M, 100))
    rc = np.sqrt(c)
    assert sol.xi_r == pytest.approx(rc, abs=1e-10)
    assert sol.lambda_r == pytest.approx((1 + rc) ** 2, abs=1e-10)
    assert sol.b == pytest.approx(1.0 / (1.0 + rc), abs=1e-10)


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("c", [0.5, 1.0])
def test_find_edge_matches_cubic_oracle(d, c):
    M = int(80 * c)
    model = constant_model(d, M, 80)
    sol = find_edge(model)
    candidates = [w for w in constant_spectrum_critical_points(d, c) if w > d**2]
    assert candidates, "oracle found no admissible critical point"
    assert sol.xi_r == pytest.approx(max(candidates), abs=1e-9)


def test_noise_scale_covariance():
    # the physical model (d, noise sigma) equals sigma^2 x (d/sigma, unit noise);
    # the edge of the scaled family must track the cubic oracle at every sigma
    c = 1.0
    for sigma in (0.5, 1.0, 2.0):
        model = constant_model(1.0 / sigma, 60, 60)
        sol = find_edge(model)
        oracle = max(w for w in constant_spectrum_critical_points(1.0 / sigma, c) if w > 1.0 / sigma**2)
        assert sigma**2 * sol.xi_r == pytest.approx(sigma**2 * oracle, abs=1e-9)
        f, _, phi, _ = phi_family(model, sol.xi_r)
        assert sigma**2 * sol.lambda_r == pytest.approx(sigma**2 * phi, abs=1e-12)


@pytest.mark.parametrize("d, N", [([492.3869213432313, 158.7485301105504, 74.73021303480475], 34),
                                  ([1.0] * 5, 10), ([3.0, 2.0, 0.0], 3)])
def test_edge_takes_f_and_phi_at_xi_r_from_one_array_evaluation(d, N):
    model = SpectrumModel(d=d, M=len(d), N=N)
    sol = find_edge(model)
    f, _, phi, _ = phi_family(model, np.array([sol.xi_r]))
    assert sol.lambda_r == phi[0]
    assert sol.b == 1.0 / (1.0 - model.c_N * f[0])


def test_phi_family_gives_a_scalar_w_the_bits_of_an_array():
    # phi_family squares 1 - c f as one * one: a numpy scalar's one**2 goes
    # through libm's pow, and here it moved phi by 2 ulp and phi' by more
    d = [float.fromhex(x) for x in ("0x1.ec630d46f34d8p+8", "0x1.3d7f3f56b1c54p+7", "0x1.2aebbcf73e65bp+6")]
    model = SpectrumModel(d=d, M=3, N=34)
    w = float.fromhex("0x1.d9c228839b91ap+17")
    assert phi_family(model, w) == tuple(part[0] for part in phi_family(model, np.array([w])))


def test_gamma0_constant_unit_spectrum():
    model = constant_model(1, 500, 500)
    sol = solve_edge(model)
    assert sol.gamma0 == pytest.approx((729.0 / 16.0) ** (-1.0 / 3.0), abs=1e-12)
    (A,), (B,) = scaling_sums(model.d_sq[None], model.c_N, model.N, [sol])
    assert A == pytest.approx(1.0 / 9.0, abs=1e-13)
    assert B == pytest.approx(81.0 / 16.0, abs=1e-12)


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
def test_gamma0_zero_signal_closed_form(c):
    M = int(200 * c)
    sol = solve_edge(zero_model(M, 200))
    rc = np.sqrt(c)
    assert sol.gamma0 == pytest.approx((1 + rc) ** (-4.0 / 3.0) * c ** (1.0 / 6.0), abs=1e-10)


def test_gamma0_degenerate_scaling_guard():
    model = constant_model(1, 10, 10)
    fake = EdgeSolution(xi_r=0.5, lambda_r=1.0, b=0.5, tb=-0.5, h=0.0)
    with pytest.raises(DegenerateScalingError):
        gamma0(model, fake)


def test_rescaled_relations_exact():
    for model in random_models(6, seed=11):
        sol = solve_edge(model)
        assert sol.E_plus == pytest.approx(sol.gamma0 * sol.lambda_r, abs=1e-12)
        assert sol.xi == pytest.approx(sol.b * sol.tb_resc, abs=1e-12)


def test_edge_residuals_randomized_spectra():
    for model in random_models(20, seed=5):
        sol = solve_edge(model)
        res = edge_residuals(model, sol)
        assert res["first_order"] <= 1e-10
        assert res["xi_relation"] <= 1e-10
        assert res["b_relation"] <= 1e-10
        assert res["R1"] <= 1e-10
        assert res["R2"] <= 1e-10


def test_unrescaled_companions():
    model = constant_model(1, 50, 100)
    sol = solve_edge(model)
    c = model.c_N
    assert sol.tb == pytest.approx(sol.lambda_r * sol.b - (1 - c), abs=1e-12)
    assert sol.h == pytest.approx(sol.lambda_r * sol.b + sol.tb, abs=1e-12)
    assert sol.tb_resc == pytest.approx(sol.E_plus * sol.b - sol.gamma0 * (1 - c), abs=1e-12)
    assert sol.h_resc == pytest.approx(sol.gamma0 * sol.h, abs=1e-12)


def _counted_find_edge(model, monkeypatch):
    # every evaluation of the phi family forms d^2 - w in _reciprocals: the
    # scan, each Newton pass and the final evaluation at xi_r
    calls = []
    real = edge_module._reciprocals

    def counting(dsq, w):
        calls.append(w)
        return real(dsq, w)

    monkeypatch.setattr(edge_module, "_reciprocals", counting)
    return edge_module.find_edge(model), len(calls)


@pytest.mark.parametrize("d", [30.0, 1e3, 1e4])
def test_bisection_stops_at_rounding_level_for_large_edges(d, monkeypatch):
    # once xi_r exceeds about 500 one ulp is wider than 1e-13; the root solve
    # must stop on a step relative to w, not on an absolute width
    sol, calls = _counted_find_edge(constant_model(d, 50, 100), monkeypatch)
    assert calls <= 60
    assert sol.xi_r > d**2


def test_find_edge_unit_spectrum_newton_call_bound(monkeypatch):
    # one scan, the safeguarded Newton steps, one final evaluation at xi_r
    sol, calls = _counted_find_edge(constant_model(1, 50, 100), monkeypatch)
    assert calls <= 10
    assert calls == sol.iterations + 2


@pytest.mark.parametrize(
    "d, c",
    [(d, c) for d in (0.5, 1.0, 2.0, 5.0) for c in (0.25, 0.5, 1.0)]
    # xi_r near sqrt(c) < 1, where a stop rule absolute in w would be loose
    + [(d, c) for d in (0.0, 1e-3) for c in (1e-4, 1e-2)],
)
def test_xi_r_within_four_ulp_of_50_digit_root(d, c):
    model = constant_model(d, 20, round(20 / c))
    sol = find_edge(model)
    root = mp_constant_spectrum_xi_r(d, model.c_N)
    with mpmath.workdps(50):
        err = float(abs(mpmath.mpf(sol.xi_r) - root))
    assert err <= 4 * np.spacing(sol.xi_r)


def _from_bracket(model, bracket):
    # find_edge started from a bracket: the one-row stack of the root stage,
    # the path flow-check takes for a row near one already solved
    dsq = model.d_sq[None]
    return _complete(dsq, model.c_N, _find_roots(dsq, model.c_N, [bracket]))[0]


def _solved_from_bracket(model, bracket):
    # solve_edge started from a bracket
    return _scaled(model.d_sq[None], model.c_N, model.N, [_from_bracket(model, bracket)])[0]


def _flowed(model, t):
    # the flow's time-t model d_i(t) = e^{-t/2} d_i, also for t slightly below 0
    return SpectrumModel(d=model.d * math.exp(-t / 2.0), M=model.M, N=model.N)


@given(
    d=st.lists(st.floats(min_value=0.0, max_value=1e2), min_size=1, max_size=30),
    c=st.floats(min_value=1e-6, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=3.0),
    step=st.floats(min_value=1e-6, max_value=1e-2),
)
def test_bracket_of_flow_centre_agrees_with_scan(d, c, t, step):
    M = len(d)
    model = SpectrumModel(d=np.array(d), M=M, N=max(M, round(M / c)))
    centre = solve_edge(_flowed(model, t))
    for side in (t + step, t - step):
        flowed = _flowed(model, side)
        scan = solve_edge(flowed)
        fast = _solved_from_bracket(flowed, centre.bracket)
        assert abs(fast.xi_r - scan.xi_r) <= 4 * np.spacing(scan.xi_r)
        for key in ("lambda_r", "b", "gamma0"):
            assert getattr(fast, key) == pytest.approx(getattr(scan, key), rel=1e-13, abs=0.0)
    # a bracket without a sign change of phi' falls back to the same scan
    right = (centre.xi_r * (1.0 + 1e-3), centre.xi_r * (1.0 + 2e-3))
    flowed = _flowed(model, t)
    for bad in (right, right[::-1], (centre.xi_r, centre.xi_r)):
        assert _solved_from_bracket(flowed, bad) == centre


def test_bracket_across_the_pole_falls_back_to_scan():
    model = constant_model(2.0, 40, 80)
    ref = find_edge(model)
    assert _from_bracket(model, (1.0, 4.5)) == ref  # d^2 = 4 inside
    assert _from_bracket(model, ref.bracket) == ref


def test_bracket_too_wide_to_settle_raises():
    # phi' changes sign across (1.5, 1e300), but halving that width down to a
    # few ulp of the root takes about 1000 steps, more than the solve allows
    with pytest.raises(NumericError):
        _from_bracket(constant_model(1, 50, 100), (1.5, 1e300))


def test_find_edge_logs_path_and_steps(caplog):
    model = constant_model(1, 50, 100)
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        sol = find_edge(model)
        again = _from_bracket(model, sol.bracket)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("find_edge")]
    assert [line.split(",")[0] for line in lines] == ["find_edge: scan path", "find_edge: bracket path"]
    scan = re.fullmatch(r"find_edge: scan path, (\d+) Newton steps, (\d+) bisection fallbacks, "
                        r"(\d+) sign change\(s\) of phi' on the grid", lines[0])
    bracket = re.fullmatch(r"find_edge: bracket path, (\d+) Newton steps, (\d+) bisection fallbacks", lines[1])
    assert scan and bracket
    for match, result in zip((scan, bracket), (sol, again)):
        newton, bisections = map(int, match.groups()[:2])
        assert newton + bisections == result.iterations
    assert int(scan.group(3)) == 1
    assert again.xi_r == sol.xi_r and again.bracket == sol.bracket


def test_solve_edge_huge_constant_spectrum():
    # the step off the pole must scale with d_1^2, or it rounds back onto it
    model = constant_model(1e5, 50, 100)
    sol = solve_edge(model)
    assert sol.xi_r > model.d_sq[0]
    res = edge_residuals(model, sol)
    assert res["first_order"] <= 1e-9 * max(1.0, sol.lambda_r)


def _certified(model, hi):
    # the certificate of the one-model stack, from f and f' at hi
    return _no_root_right_of(model.d_sq[None], model.c_N, [hi], *([x] for x in phi_family(model, hi)[:2]))[0]


def _distance_ladder(model, xi, ratios):
    d1sq = float(model.d_sq[0])
    return d1sq + (xi - d1sq) * np.asarray(ratios)


@given(
    d=st.lists(st.floats(min_value=0.0, max_value=1e2), min_size=1, max_size=30),
    c=st.floats(min_value=1e-6, max_value=1.0),
    offset=st.floats(min_value=1e-9, max_value=10.0),
)
def test_certificate_accepts_only_what_holds(d, c, offset):
    # started right of xi_r it may accept, and then phi' > 0 on a dense grid far
    # beyond the scan's range; started left of xi_r it must reject
    M = len(d)
    model = SpectrumModel(d=np.array(d), M=M, N=max(M, round(M / c)))
    sol = find_edge(model)
    d1sq = float(model.d_sq[0])
    right, left = _distance_ladder(model, sol.xi_r, [1.0 + offset, 1.0 - min(offset, 0.5)])
    if _certified(model, right):
        w_max = 4.0 * (d1sq + 1.0) * (1.0 + math.sqrt(model.c_N)) ** 2
        assert np.all(phi_family(model, np.geomspace(right, 1e3 * w_max, 20_000))[3] > 0.0)
    assert not _certified(model, left)


@given(
    d=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60),
    c=st.floats(min_value=1e-9, max_value=1.0),
)
def test_scan_grid_reaches_past_every_root(d, c):
    # the scan's one grid ends at w_max where phi' > 0, and xi_r lies left of
    # d_1^2 + max(4, 2 d_1^2), beyond which _no_root_right_of's bound Q < 1 < g^2
    # holds; so a wider grid could add no sign change
    M = len(d)
    model = SpectrumModel(d=np.array(d), M=M, N=max(M, round(M / c)))
    d1sq = float(model.d_sq[0])
    w_max = 4.0 * (d1sq + 1.0) * (1.0 + math.sqrt(model.c_N)) ** 2
    assert phi_family(model, w_max)[3] > 0.0
    xi_r = find_edge(model).xi_r
    assert xi_r < d1sq + max(4.0, 2.0 * d1sq)


@pytest.mark.parametrize("d, N", [(4473.0, 10**9), (1e6, 10**12), (3.0, 10**16)])
def test_edge_found_when_the_root_hugs_the_pole(d, N):
    # c_N / M so small that xi_r - d_1^2 lies below the offset 1e-8 d_1^2
    # (0.20004 against 0.20008 for d = 4473, N = 1e9)
    model = SpectrumModel(d=np.array([d]), M=1, N=N)
    sol = find_edge(model)
    root = math.sqrt(model.c_N * (2.0 * d * d + 1.0 - model.c_N))
    expected = mp_constant_spectrum_xi_r(d, model.c_N, bracket=(0.5 * root, 2.0 * root))
    assert sol.xi_r - d * d < 1e-8 * d * d
    assert abs(sol.xi_r - float(expected)) <= 4 * np.spacing(sol.xi_r)


@given(
    log_d=st.floats(min_value=-3.0, max_value=6.0),
    M=st.integers(min_value=1, max_value=40),
    log_ratio=st.floats(min_value=0.0, max_value=3.0),
)
def test_constant_spectrum_edge_matches_mpmath_at_extreme_d(log_d, M, log_ratio):
    # d from 1e-3 to 1e6 and N from M to 1000 M, against a 50-digit root of
    # phi' bracketed around the solver's offset u = xi_r - d^2.  Over 43 000
    # random draws the worst errors were 11.7 ulp in xi_r (d ~ 5e-3, c_N near
    # 1) and 3.2 eps relative in lambda_r.  u and gamma0 lose digits to the
    # cancellation in d^2 - xi_r at large d, and are not bounded here.
    d = 10.0**log_d
    model = constant_model(d, M, max(M, round(M * 10.0**log_ratio)))
    sol = find_edge(model)
    u = sol.xi_r - float(model.d_sq[0])
    with mpmath.workdps(50):
        xi = mp_constant_spectrum_xi_r(d, model.c_N, bracket=(u / 4.0, 4.0 * u))
        c = mpmath.mpf(model.c_N)
        one = 1 + c / (xi - mpmath.mpf(d) ** 2)
        lam = xi * one**2 + (1 - c) * one
        assert abs(mpmath.mpf(sol.xi_r) - xi) <= 16 * np.spacing(sol.xi_r)
        assert abs(mpmath.mpf(sol.lambda_r) / lam - 1) <= 5 * np.finfo(float).eps


def test_certificate_accepts_close_to_the_edge():
    for model in random_models(12, seed=3):
        sol = find_edge(model)
        for offset in (1e-9, 1e-6, 1e-3, 1.0):
            hi = _distance_ladder(model, sol.xi_r, 1.0 + offset)
            assert _certified(model, hi)


@pytest.mark.parametrize("fractions", [[0.0], [0.0, 1.0]], ids=["short-of-the-tail", "one-wide-cell"])
def test_certificate_rejects_what_a_coarse_grid_cannot_prove(fractions, monkeypatch, caplog):
    # Marchenko-Pastur at c = 1: xi_r = 1 and phi' > 0 right of it.  A grid that
    # stops where Q is still about 4, or one cell from near the edge to w = 4,
    # proves nothing, although phi' is positive at every grid point.
    model = zero_model(40, 40)
    hi = 1.001
    assert _certified(model, hi)
    monkeypatch.setattr(edge_module, "_CERT_FRACTIONS", np.array(fractions))
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        assert not _certified(model, hi)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("edge certificate")]
    assert len(lines) == 1 and lines[0].endswith("fell back to the scan")
    assert int(re.match(r"edge certificate: (\d+) cells", lines[0]).group(1)) == len(fractions)


def test_ladder_bracket_solves_its_rightmost_cell():
    model = constant_model(1, 50, 100)
    scan = find_edge(model)
    ladder = _distance_ladder(model, scan.xi_r, 2.0 ** ((np.arange(-8, 8) + 0.5) / 4.0))
    fast = _from_bracket(model, ladder)
    k = int(np.searchsorted(ladder, scan.xi_r))
    assert fast.bracket == (ladder[k - 1], ladder[k])
    assert abs(fast.xi_r - scan.xi_r) <= 4 * np.spacing(scan.xi_r)
    # a ladder that ends left of the edge, or is not increasing, falls back to the scan
    assert _from_bracket(model, ladder[:k]) == scan
    assert _from_bracket(model, ladder[::-1]) == scan


def test_forced_certificate_rejection_returns_the_scan(monkeypatch):
    model = constant_model(1, 50, 100)
    scan = find_edge(model)
    ladder = _distance_ladder(model, scan.xi_r, 2.0 ** (np.arange(-8, 9) / 4.0))
    assert _from_bracket(model, ladder).bracket != scan.bracket
    monkeypatch.setattr(edge_module, "_no_root_right_of", lambda dsq, c, hi, *sums: [False] * len(hi))
    assert _from_bracket(model, ladder) == scan
    assert _from_bracket(model, scan.bracket) == scan


def test_every_bracket_solve_logs_one_certificate(caplog):
    model = constant_model(1, 50, 100)
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        sol = find_edge(model)
        _from_bracket(model, sol.bracket)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("edge certificate")]
    assert len(lines) == 1
    cells, margin = re.match(r"edge certificate: (\d+) cells right of .*, smallest margin (\S+), accepted$",
                             lines[0]).groups()
    assert int(cells) == edge_module._CERT_FRACTIONS.size and float(margin) > 0.0


@given(
    u=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
    scale=st.floats(min_value=-4.0, max_value=6.0),
    c=st.floats(min_value=1e-6, max_value=1.0),
    step=st.floats(min_value=1e-6, max_value=1e-2),
)
def test_stack_gives_each_model_the_bits_of_its_own_solve(u, scale, c, step):
    # the d^2 rows of flowed models share c and N and so stack: the rows at
    # t +- step from the bracket of the centre at t, as flow-check solves
    # them, and two rows that must scan inside the stack: one without a
    # bracket and one whose certificate is forced to fail
    M = len(u)
    model = SpectrumModel(d=10.0**scale * np.sqrt(np.array(u)), M=M, N=max(M, round(M / c)))
    models, brackets = [], []
    for t in (0.0, 0.5, 1.0, 1.5):
        centre = solve_edge(_flowed(model, t))
        models += [_flowed(model, t + step), _flowed(model, t - step)]
        brackets += [centre.bracket] * 2
    unbracketed, refused = (_flowed(model, t) for t in (0.25, 0.75))
    models += [unbracketed, refused]
    brackets += [None, solve_edge(refused).bracket]
    refused_d1sq = float(refused.d_sq[0])
    real_certificate = edge_module._no_root_right_of

    def certificate(dsq, c, hi, f_hi, fp_hi):
        ok = real_certificate(dsq, c, hi, f_hi, fp_hi)
        return [proved and float(row[0]) != refused_d1sq for proved, row in zip(ok, dsq)]

    with pytest.MonkeyPatch.context() as patch, _debug_lines() as lines:
        patch.setattr(edge_module, "_no_root_right_of", certificate)
        dsq, c_N = np.array([m.d_sq for m in models]), model.c_N
        stack = _scaled(dsq, c_N, model.N, _complete(dsq, c_N, _find_roots(dsq, c_N, brackets)))
        stack_lines = lines[:]
        alone = [_solved_from_bracket(m, b) for m, b in zip(models, brackets)]
        alone_lines = lines[len(stack_lines):]
        scans = [solve_edge(m) for m in models[-2:]]
    assert stack == alone
    assert stack[-2:] == scans
    # each model logs its own find_edge and certificate lines, in stack order
    assert sorted(stack_lines) == sorted(alone_lines)
    assert sum(line.startswith("find_edge") for line in stack_lines) == len(models)


@contextlib.contextmanager
def _debug_lines():
    # the package's debug log lines, without a fixture (Hypothesis tests take none)
    lines = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: lines.append(record.getMessage())
    logger = logging.getLogger("spectraledge")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


@st.composite
def _edge_spectra(draw):
    # one or two spikes over a bulk, two clusters, or a constant block padded
    # with zeros; d scale 1e-3 to 1e6 and c_N log-uniform over [1e-8, 1]
    kind = draw(st.sampled_from(("spikes", "clusters", "block")))
    if kind == "spikes":
        bulk = np.sqrt(draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30)))
        spikes = draw(st.lists(st.floats(min_value=1.0, max_value=10.0), min_size=1, max_size=2))
        d = np.concatenate((bulk, spikes))
    elif kind == "clusters":
        jitter = st.lists(st.floats(min_value=-1e-3, max_value=1e-3), min_size=1, max_size=15)
        d = np.concatenate([draw(st.floats(min_value=0.0, max_value=1.0)) * (1.0 + np.array(draw(jitter)))
                            for _ in range(2)])
    else:
        d = np.concatenate((np.ones(draw(st.integers(1, 20))), np.zeros(draw(st.integers(0, 20)))))
    d *= 10.0 ** draw(st.floats(min_value=-3.0, max_value=6.0))
    c = 10.0 ** draw(st.floats(min_value=-8.0, max_value=0.0))
    return SpectrumModel(d=d, M=d.size, N=max(d.size, round(d.size / c)))


@given(model=_edge_spectra())
def test_no_critical_point_right_of_the_solved_cell(model):
    # the scan solves one cell, the one that starts at the last grid point where
    # phi' <= 0: phi' must then be positive everywhere right of it, here on a
    # dense log grid out to the scan's w_max, beyond which the certificate's
    # bound holds.  The edge relations hold to rounding: first_order is
    # |phi'(xi_r)| / g^2, which moves by xi_r / (xi_r - d_1^2) relative per
    # relative rounding of xi_r, and 1/b is 1 - c f to within a few ulp.  R1
    # and R2, the rescaled first-order and scaling equations, carry the same
    # factor; R2 sums four cancelling terms, so its unit also takes the sum of
    # their moduli.  xi_relation, a difference of three terms, holds to a few
    # ulp of the largest.  xi_btb is the same difference times gamma0, formed
    # from the scaled xi, E_plus and tb_resc, so its unit is the largest of
    # those three terms and its bound takes xi_relation's again for the
    # roundings of the scaling.  Over 3000 draws the peaks in these units
    # were 5.0 (R1), 3.9 (R2) and 2.0 (xi_relation), against the bounds 32,
    # 32 and 8; over 8000 draws xi_btb peaked at 2.7, against 16.
    sol = solve_edge(model)
    d1sq = float(model.d_sq[0])
    w_max = 4.0 * (d1sq + 1.0) * (1.0 + math.sqrt(model.c_N)) ** 2
    assert np.all(phi_family(model, np.geomspace(sol.bracket[1], w_max, 20_000))[3] > 0.0)
    res = edge_residuals(model, sol)
    eps = np.finfo(float).eps
    unit = eps * sol.xi_r / (sol.xi_r - d1sq)
    assert res["first_order"] <= 32 * unit
    assert res["b_relation"] <= 4 * eps / sol.b
    assert res["R1"] <= 32 * unit
    g, E, b, c, N = sol.gamma0, sol.E_plus, sol.b, model.c_N, model.N
    rdiff = g * model.d_sq - sol.xi
    r2_terms = (np.sum(b**2 / rdiff**2) / N / g**2, 1.0 / (g * b**3),
                np.sum((2.0 * E * b - g * (1.0 - c)) ** 2 / rdiff**3) / N, np.sum(E / rdiff**2) / N)
    assert res["R2"] <= 32 * unit * sum(abs(t) for t in r2_terms)
    assert res["xi_relation"] <= 8 * eps * max(sol.xi_r, abs(sol.lambda_r * b**2), abs((1.0 - c) * b))
    assert res["xi_btb"] <= 16 * eps * max(sol.xi, abs(E * b**2), abs(g * (1.0 - c) * b))
