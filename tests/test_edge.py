import logging
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from spectraledge import (
    DegenerateScalingError,
    EdgeNotFoundError,
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
from spectraledge.edge import EdgeSolution, _no_root_right_of, _phi_newton, scaling_sums

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
        # and phi'' from f'' = 2 mean 1/(d^2 - w)^3
        f, fp, _, phip = _mean_phi_family(model, w)
        c = model.c_N
        inv = np.reciprocal(model.d_sq - w)
        fpp = 2.0 * float(np.mean(inv * inv * inv))
        one = 1.0 - c * f
        phipp = -4.0 * c * one * fp + 2.0 * c * c * w * fp * fp - c * (2.0 * w * one + 1.0 - c) * fpp
        assert _phi_newton(model, w) == (phip, phipp)


def test_phi_family_pole_rejected():
    model = constant_model(1, 8, 8)
    with pytest.raises(PoleError):
        phi_family(model, 1.0)


def test_find_edge_constant_unit_spectrum():
    sol = find_edge(constant_model(1, 500, 500))
    assert sol.xi_r == pytest.approx(3.0, abs=1e-11)
    assert sol.lambda_r == pytest.approx(6.75, abs=1e-11)
    assert sol.b == pytest.approx(2.0 / 3.0, abs=1e-11)
    assert not sol.near_degenerate


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


def test_gamma0_constant_unit_spectrum():
    model = constant_model(1, 500, 500)
    sol = solve_edge(model)
    assert sol.gamma0 == pytest.approx((729.0 / 16.0) ** (-1.0 / 3.0), abs=1e-12)
    A, B = scaling_sums(model, sol)
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


def test_roots_reported_sorted():
    sol = find_edge(constant_model(1, 30, 30))
    assert sol.roots == tuple(sorted(sol.roots))
    assert sol.roots[-1] == sol.xi_r


def _counted_find_edge(model, monkeypatch):
    # every evaluation of the phi family: phi_family calls and the Newton
    # steps' _phi_newton calls, which form d^2 - w themselves
    import spectraledge.edge as edge_module

    calls = []
    for name in ("phi_family", "_phi_newton"):
        real = getattr(edge_module, name)

        def counting(model, w, real=real):
            calls.append(w)
            return real(model, w)

        monkeypatch.setattr(edge_module, name, counting)
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
    assume(not centre.near_degenerate)
    for side in (t + step, t - step):
        flowed = _flowed(model, side)
        scan = solve_edge(flowed)
        fast = solve_edge(flowed, bracket=centre.bracket)
        assert abs(fast.xi_r - scan.xi_r) <= 4 * np.spacing(scan.xi_r)
        for key in ("lambda_r", "b", "gamma0"):
            assert getattr(fast, key) == pytest.approx(getattr(scan, key), rel=1e-13, abs=0.0)
    # a bracket without a sign change of phi' falls back to the same scan
    right = (centre.xi_r * (1.0 + 1e-3), centre.xi_r * (1.0 + 2e-3))
    flowed = _flowed(model, t)
    for bad in (right, right[::-1], (centre.xi_r, centre.xi_r)):
        assert solve_edge(flowed, bracket=bad) == centre


def test_bracket_across_the_pole_falls_back_to_scan():
    model = constant_model(2.0, 40, 80)
    ref = find_edge(model)
    assert find_edge(model, bracket=(1.0, 4.5)) == ref  # d^2 = 4 inside
    assert find_edge(model, bracket=ref.bracket) == ref


def test_bracket_too_wide_to_settle_raises():
    # phi' changes sign across (1.5, 1e300), but halving that width down to a
    # few ulp of the root takes about 1000 steps, more than the solve allows
    with pytest.raises(NumericError):
        find_edge(constant_model(1, 50, 100), bracket=(1.5, 1e300))


def test_find_edge_logs_path_and_steps(caplog):
    model = constant_model(1, 50, 100)
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        sol = find_edge(model)
        again = find_edge(model, bracket=sol.bracket)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("find_edge")]
    assert [line.split(",")[0] for line in lines] == ["find_edge: scan path", "find_edge: bracket path"]
    for line, result in zip(lines, (sol, again)):
        brackets, newton, bisections = map(int, re.findall(r"(\d+) ", line))
        assert brackets == 1
        assert newton + bisections == result.iterations
    assert again.xi_r == sol.xi_r and again.bracket == sol.bracket


def test_solve_edge_huge_constant_spectrum():
    # the step off the pole must scale with d_1^2, or it rounds back onto it
    model = constant_model(1e5, 50, 100)
    sol = solve_edge(model)
    assert sol.xi_r > model.d_sq[0]
    res = edge_residuals(model, sol)
    assert res["first_order"] <= 1e-9 * max(1.0, sol.lambda_r)


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
    if _no_root_right_of(model, right, *phi_family(model, right)[:2]):
        w_max = 4.0 * (d1sq + 1.0) * (1.0 + math.sqrt(model.c_N)) ** 2
        assert np.all(phi_family(model, np.geomspace(right, 1e3 * w_max, 20_000))[3] > 0.0)
    assert not _no_root_right_of(model, left, *phi_family(model, left)[:2])


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
    try:
        xi_r = find_edge(model).xi_r
    except EdgeNotFoundError:
        # at tiny c_N / M, xi_r - d_1^2 falls below the grid's first offset
        # 1e-8 d_1^2: the scan misses the root on its left end, never its right
        lo = d1sq + 1e-8 * max(1.0, d1sq)
        assert (phi_family(model, d1sq + (lo - d1sq) * 2.0 ** -np.arange(1, 21))[3] < 0.0).any()
        return
    assert xi_r < d1sq + max(4.0, 2.0 * d1sq)


def test_certificate_accepts_close_to_the_edge():
    for model in random_models(12, seed=3):
        sol = find_edge(model)
        for offset in (1e-9, 1e-6, 1e-3, 1.0):
            hi = _distance_ladder(model, sol.xi_r, 1.0 + offset)
            assert _no_root_right_of(model, hi, *phi_family(model, hi)[:2])


@pytest.mark.parametrize("fractions", [[0.0], [0.0, 1.0]], ids=["short-of-the-tail", "one-wide-cell"])
def test_certificate_rejects_what_a_coarse_grid_cannot_prove(fractions, monkeypatch, caplog):
    # Marchenko-Pastur at c = 1: xi_r = 1 and phi' > 0 right of it.  A grid that
    # stops where Q is still about 4, or one cell from near the edge to w = 4,
    # proves nothing, although phi' is positive at every grid point.
    model = zero_model(40, 40)
    hi = 1.001
    f, fp, _, _ = phi_family(model, hi)
    assert _no_root_right_of(model, hi, f, fp)
    monkeypatch.setattr(edge_module, "_CERT_FRACTIONS", np.array(fractions))
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        assert not _no_root_right_of(model, hi, f, fp)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("edge certificate")]
    assert len(lines) == 1 and lines[0].endswith("fell back to the scan")
    assert int(re.match(r"edge certificate: (\d+) cells", lines[0]).group(1)) == len(fractions)


def test_ladder_bracket_solves_its_rightmost_cell():
    model = constant_model(1, 50, 100)
    scan = find_edge(model)
    ladder = _distance_ladder(model, scan.xi_r, 2.0 ** ((np.arange(-8, 8) + 0.5) / 4.0))
    fast = find_edge(model, bracket=ladder)
    k = int(np.searchsorted(ladder, scan.xi_r))
    assert fast.bracket == (ladder[k - 1], ladder[k])
    assert abs(fast.xi_r - scan.xi_r) <= 4 * np.spacing(scan.xi_r)
    assert fast.roots == (fast.xi_r,) and not fast.near_degenerate
    # a ladder that ends left of the edge, or is not increasing, falls back to the scan
    assert find_edge(model, bracket=ladder[:k]) == scan
    assert find_edge(model, bracket=ladder[::-1]) == scan


def test_forced_certificate_rejection_returns_the_scan(monkeypatch):
    model = constant_model(1, 50, 100)
    scan = find_edge(model)
    ladder = _distance_ladder(model, scan.xi_r, 2.0 ** (np.arange(-8, 9) / 4.0))
    assert find_edge(model, bracket=ladder).bracket != scan.bracket
    monkeypatch.setattr(edge_module, "_no_root_right_of", lambda *args: False)
    assert find_edge(model, bracket=ladder) == scan
    assert find_edge(model, bracket=scan.bracket) == scan


def test_every_bracket_solve_logs_one_certificate(caplog):
    model = constant_model(1, 50, 100)
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        sol = find_edge(model)
        find_edge(model, bracket=sol.bracket)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("edge certificate")]
    assert len(lines) == 1
    cells, margin = re.match(r"edge certificate: (\d+) cells right of .*, smallest margin (\S+), accepted$",
                             lines[0]).groups()
    assert int(cells) == edge_module._CERT_FRACTIONS.size and float(margin) > 0.0
