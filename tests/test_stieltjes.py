from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spectraledge import (
    InvalidArgumentError,
    SolverFailureError,
    SpectrumModel,
    density,
    load_spectrum,
    solve_edge,
    solve_stieltjes,
)
from spectraledge import stieltjes

from oracles import mp_density, mp_edges, mp_stieltjes


def zero_model(M, N):
    return load_spectrum({"type": "explicit", "d": [0.0] * M, "M": M, "N": N})


def test_mp_value_on_real_axis_outside_support():
    model = zero_model(50, 50)
    sv = solve_stieltjes(model, 5.0)
    expected = (-5.0 + np.sqrt(5.0)) / 10.0
    assert sv.s.real == pytest.approx(expected, abs=1e-6)
    assert abs(sv.s.imag) < 1e-6


def test_mp_value_matches_closed_form_upper_half_plane():
    model = zero_model(40, 80)
    zs = np.array([2.0 + 0.5j, 0.3 + 0.05j, -1.0 + 1.0j, 4.0 + 2.0j])
    batch = solve_stieltjes(model, zs)
    assert batch.s.shape == zs.shape
    for k, z in enumerate(zs):
        sv = solve_stieltjes(model, z)
        assert sv.s == pytest.approx(mp_stieltjes(z, 0.5), abs=1e-10)
        assert batch.s[k] == pytest.approx(mp_stieltjes(z, 0.5), abs=1e-10)


def test_array_solve_equals_pointwise_solves():
    # every point runs the same Newton iterates alone or in a batch, so the
    # batch must reproduce the scalar calls exactly, across real boundary
    # values inside, outside and at the edge and points off the axis
    model = load_spectrum({"type": "uniform_sq", "v_min": 1, "v_max": 2, "M": 100, "N": 200})
    lam = solve_edge(model).lambda_r
    zs = np.array([0.5, 2.0, lam - 1e-4, lam, lam + 1e-4, lam + 3.0, 1.0 + 0.3j, lam + 1e-3j, -2.0 + 0.5j])
    batch = solve_stieltjes(model, zs)
    singles = [solve_stieltjes(model, z) for z in zs]
    for field in ("z", "s", "s_tilde", "b", "tb", "w"):
        assert getattr(batch, field).shape == zs.shape
        assert np.array_equal(getattr(batch, field), [getattr(sv, field) for sv in singles])
    assert isinstance(batch.residual, float) and isinstance(batch.iterations, int)
    assert batch.residual == max(sv.residual for sv in singles) <= 1e-10
    assert batch.iterations == sum(sv.iterations for sv in singles)


def test_unreachable_tolerance_is_solver_failure(monkeypatch):
    # the solver reads TOL at call time
    monkeypatch.setattr(stieltjes, "TOL", 1e-30)
    model = zero_model(40, 80)
    with pytest.raises(SolverFailureError):
        solve_stieltjes(model, np.array([2.0 + 0.5j, 1.0]))


@pytest.mark.parametrize("E", [1e-5, 4e-6, 1e-6, 1e-8])
def test_square_pure_noise_near_zero_matches_closed_form(E):
    # at c = 1 the density blows up like 1/sqrt(E); the fixed-point residual
    # rounds like eps |s|^2, so only a gate relative to |s| accepts these answers
    model = load_spectrum({"type": "constant", "d": 0.0, "M": 150, "N": 150})
    sv = solve_stieltjes(model, E)
    ref = mp_stieltjes(sv.z, 1.0)
    assert abs(sv.s - ref) <= 1e-12 * abs(ref)
    assert density(model, E) == pytest.approx(ref.imag / np.pi, rel=1e-12)


@given(
    shape=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    scale=st.floats(min_value=1e-4, max_value=1e6),
    c=st.floats(min_value=1e-6, max_value=1.0),
    below=st.floats(min_value=1e-12, max_value=1e-6),
    above=st.floats(min_value=1e-12, max_value=1e-6),
    inside=st.floats(min_value=0.01, max_value=0.99),
    off_axis=st.floats(min_value=0.01, max_value=2.0),
    eta_exp=st.floats(min_value=-9.0, max_value=0.0),
)
def test_continuation_lands_on_the_branch_of_a_fine_ladder(
        shape, scale, c, below, above, inside, off_axis, eta_exp):
    # a branch flip is an O(1) change in s; ill-conditioning at eta = 1e-9 and
    # d^2 ~ 1e11 moves s between the two ladders by about 1e-7 relative, rarely 1e-6
    M = len(shape)
    model = SpectrumModel(d=scale * np.array(shape), M=M, N=max(M, round(M / c)))
    lam = solve_edge(model).lambda_r
    z = np.array([lam * (1.0 - below), lam * (1.0 + above), lam * inside,
                  lam * complex(off_axis, 10.0**eta_exp)])
    sv = solve_stieltjes(model, z)
    assert np.all(sv.s.imag >= 0.0) and np.all((sv.z * sv.s).imag >= 0.0)
    with mock.patch.object(stieltjes, "_ETA_STEP", 0.7):
        fine = solve_stieltjes(model, z)
    assert np.all(np.abs(sv.s - fine.s) <= 1e-6 * np.abs(fine.s))


def test_resolvent_decay_at_large_eta():
    model = load_spectrum({"type": "constant", "d": 1, "M": 60, "N": 60})
    z = 200j
    sv = solve_stieltjes(model, z)
    assert abs(sv.s * z + 1.0) < 0.02


def test_boundary_value_at_the_edge_matches_b():
    model = load_spectrum({"type": "constant", "d": 1, "M": 200, "N": 200})
    sv = solve_stieltjes(model, 27.0 / 4.0)
    # 1 + c s(lambda_r) = b = 2/3; the eta floor perturbs by O(sqrt(eta))
    assert sv.s.real == pytest.approx(-1.0 / 3.0, abs=1e-4)
    assert sv.b == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_companion_transforms_are_consistent():
    model = load_spectrum({"type": "explicit", "d": [1.5, 1.0, 0.5, 0.0], "M": 4, "N": 8})
    z = 3.0 + 0.7j
    sv = solve_stieltjes(model, z)
    c = model.c_N
    assert sv.s_tilde == pytest.approx(-(1 - c) / sv.z + c * sv.s, abs=0)
    assert sv.b == pytest.approx(1 + c * sv.s, abs=0)
    assert sv.tb == pytest.approx(sv.z * sv.b - (1 - c), abs=0)
    assert sv.w == pytest.approx(sv.z * sv.b**2 - (1 - c) * sv.b, abs=0)


def test_companion_fixed_point_residual():
    # rewrite the self-consistent equation in terms of s_tilde and check the
    # returned point solves that form too
    model = load_spectrum({"type": "explicit", "d": [1.2, 0.8, 0.3], "M": 3, "N": 9})
    c = model.c_N
    z = 1.7 + 0.2j
    sv = solve_stieltjes(model, z)
    b = 1.0 + sv.s_tilde + (1.0 - c) / z
    mapped = -(1.0 - c) / z + c * np.mean(1.0 / (model.d_sq / b - z * b + (1.0 - c)))
    assert abs(mapped - sv.s_tilde) <= 1e-11


def test_branch_conditions_hold():
    model = load_spectrum({"type": "constant", "d": 2, "M": 30, "N": 90})
    for z in (1.0 + 0.01j, 6.0 + 0.5j, 0.5 + 2.0j):
        sv = solve_stieltjes(model, z)
        assert sv.s.imag >= 0
        assert (sv.z * sv.s).imag >= -1e-12
        assert sv.residual < 1e-10


def test_z_zero_rejected():
    model = zero_model(4, 4)
    with pytest.raises(InvalidArgumentError):
        solve_stieltjes(model, 0.0)


@pytest.mark.parametrize("z", [complex(np.inf, 0.1), complex(-np.inf, 0.1),
                               complex(np.nan, 0.1), complex(0.5, np.inf)])
def test_non_finite_z_rejected(z):
    # an infinite start level eta = max(10, 2|z|) would never reach its target
    model = zero_model(4, 8)
    with pytest.raises(InvalidArgumentError, match="finite z"):
        solve_stieltjes(model, z)
    with pytest.raises(InvalidArgumentError, match="finite z"):
        solve_stieltjes(model, np.array([1.0 + 0.1j, z]))


@pytest.mark.parametrize("z", [0.5 - 1e-3j, np.array([1.0 + 0.1j, 2.0 - 0.1j])])
def test_negative_imaginary_part_rejected(z):
    with pytest.raises(InvalidArgumentError, match="Im z >= 0"):
        solve_stieltjes(zero_model(4, 8), z)


def test_density_at_infinity_rejected():
    with pytest.raises(InvalidArgumentError):
        density(zero_model(4, 8), np.inf)


def test_density_matches_mp_inside_support():
    model = zero_model(80, 80)
    assert density(model, 2.0) == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-6)
    c_half = zero_model(40, 80)
    Es = np.array([0.5, 1.0, 2.0])
    for E, rho in zip(Es, density(c_half, Es)):
        assert density(c_half, E) == pytest.approx(mp_density(E, 0.5), abs=1e-6)
        assert rho == pytest.approx(mp_density(E, 0.5), abs=1e-6)


def test_density_vanishes_outside_support():
    model = load_spectrum({"type": "constant", "d": 1, "M": 50, "N": 50})
    lam = solve_edge(model).lambda_r
    assert density(model, lam + 1.5) < 1e-7


def test_density_normalization_c_half():
    # integral of the density over the support is 1; cluster quadrature points
    # at both square-root edges with a sin^2 substitution
    model = zero_model(30, 60)
    lo, hi = mp_edges(0.5)
    lo, hi = lo - 0.02, hi + 0.02
    u = np.linspace(0.0, np.pi / 2.0, 500)
    E = lo + (hi - lo) * np.sin(u) ** 2
    jac = (hi - lo) * 2.0 * np.sin(u) * np.cos(u)
    assert np.all(E > 0)
    vals = density(model, E)
    total = np.trapezoid(vals * jac, u)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_square_root_edge_scaling():
    model = load_spectrum({"type": "constant", "d": 1, "M": 100, "N": 100})
    lam = solve_edge(model).lambda_r
    kappas = np.geomspace(1e-4, 1e-2, 7)
    ratios = np.array([density(model, lam - k) / np.sqrt(k) for k in kappas])
    spread = ratios.max() / ratios.min() - 1.0
    assert spread < 0.20


def test_imaginary_part_decays_in_E():
    model = load_spectrum({"type": "constant", "d": 1, "M": 40, "N": 40})
    eta = 0.1
    lam = solve_edge(model).lambda_r
    Es = np.linspace(lam + 1.0, lam + 30.0, 12)
    ims = [solve_stieltjes(model, complex(E, eta)).s.imag for E in Es]
    assert all(a > b for a, b in zip(ims, ims[1:]))
    assert ims[-1] < ims[0] / 10


def test_density_grid_into_the_edge_newton_step_bound():
    # the density grid from 0.01 to lambda_r + 1, step 0.25, on the 500 x 1000
    # uniform_sq spectrum (28 points, one 0.0055 below the edge) takes 819 Newton
    # steps with eta shrinking by 0.03 per level; by 0.1 it takes 1107, by 0.7 5621
    model = load_spectrum({"type": "uniform_sq", "v_min": 0.5, "v_max": 2.0, "M": 500, "N": 1000})
    stop = solve_edge(model).lambda_r + 1.0
    E = 0.01 + 0.25 * np.arange(np.floor((stop - 0.01) / 0.25 + 1e-9) + 1)
    value = solve_stieltjes(model, E)
    assert E.size == 28
    assert value.iterations <= 850
    assert value.residual <= 1e-12
