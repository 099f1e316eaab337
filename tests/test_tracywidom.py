import logging
import math
import os
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.chebyshev import Chebyshev, chebpts2
from scipy.special import airy as scipy_airy

import spectraledge
from spectraledge import InvalidArgumentError, NumericError, f1_cdf, f1_pdf, tw_table
from spectraledge import tracywidom
from spectraledge.tracywidom import (
    _ANCHORS, _ASYMPTOTIC, _SERIES_FROM, _TAYLOR_STEP, _TAYLOR_TERMS, AIRY_MIN, DEFAULT_NODES, LEFT_CUT,
    TABLE_NODES, TABLE_RANGE, _airy_pair, _chebyshev_f1, _f1_pairs, _f1_table, _half_length, _kernel_stack,
    _taylor_table, _unit_rule, f1_cdf_tabulated,
)

from oracles import (
    PainleveF1, airy_asymptotic_neg, airy_asymptotic_pos, airy_maclaurin, halfline_f1_pair, mpmath_f1_pair,
    scipy_f1_pair,
)


@pytest.fixture(scope="module")
def painleve():
    return PainleveF1()


# ---------------------------------------------------------------------------
# Airy function
# ---------------------------------------------------------------------------

def _ai(x):
    # Ai alone from the package's one Airy evaluator
    return _airy_pair(x)[0]


def test_airy_at_zero_closed_form():
    expected = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert _ai(0.0) == pytest.approx(expected, rel=1e-12)


def test_airy_at_ten_matches_asymptotic_oracle():
    value = _ai(10.0)
    assert value == pytest.approx(1.1047532552898685e-10, rel=1e-10)
    leading = math.exp(-(2.0 / 3.0) * 10.0**1.5) / (2.0 * math.sqrt(math.pi) * 10.0**0.25)
    assert value == pytest.approx(leading, rel=5e-3)
    assert value == pytest.approx(airy_asymptotic_pos(10.0), rel=1e-11)


def test_airy_monotone_decay_right_of_one():
    xs = np.linspace(1.0, 40.0, 200)
    values = _ai(xs)
    assert np.all(np.diff(values) < 0)
    assert values[-1] < 1e-20


def test_airy_against_maclaurin_oracle():
    # the series oracle keeps full accuracy to x ~ 4 on the right (cancellation
    # grows like e^{2 zeta}) and much further on the oscillatory side
    xs = np.linspace(-7.5, 4.0, 96)
    ours = _ai(xs)
    oracle = airy_maclaurin(xs)
    # absolute floor covers grid points sitting next to zeros of Ai
    assert np.all(np.abs(ours - oracle) <= 1e-11 * np.abs(oracle) + 5e-12)


def test_airy_against_asymptotic_oracles():
    for x in np.linspace(6.5, 40.0, 30):
        assert _ai(float(x)) == pytest.approx(airy_asymptotic_pos(x), rel=1e-11)
    for x in np.linspace(-20.0, -8.0, 25):
        assert _ai(float(x)) == pytest.approx(airy_asymptotic_neg(x), rel=1e-9)


def test_airy_against_mpmath_reference():
    mpmath.mp.dps = 30
    xs = np.linspace(-20.0, 40.0, 121)
    for x in xs:
        ref = float(mpmath.airyai(float(x)))
        assert _ai(float(x)) == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_airy_pair_up_to_ten_within_a_bound_cephes_fails():
    # the Taylor branch against 40-digit mpmath on a grid, the anchor midpoints
    # (|t| = h/2, the longest step) and the branch end: measured 9.3e-17 (Ai) and
    # 2.1e-16 (Ai').  scipy's cephes, which the branch replaced, misses the same
    # absolute bound by far: 4.1e-15 and 1.3e-14 on these points
    eps = np.finfo(float).eps
    h = _TAYLOR_STEP
    xs = np.concatenate([np.linspace(-20.0, 10.0, 601), np.arange(-20.0 + h / 2, 10.0, h),
                         [np.nextafter(10.0, 0.0), 10.0]])
    assert len(xs) == 663
    ai, aip = _airy_pair(xs)
    cephes_ai, cephes_aip, _, _ = scipy_airy(xs)
    errors = np.zeros((2, 2))
    with mpmath.workdps(40):
        for k, x in enumerate(xs):
            ref = (mpmath.airyai(mpmath.mpf(float(x))), mpmath.airyai(mpmath.mpf(float(x)), derivative=1))
            for row, values in enumerate(((ai[k], aip[k]), (cephes_ai[k], cephes_aip[k]))):
                for col in range(2):
                    error = float(abs(mpmath.mpf(float(values[col])) - ref[col]))
                    errors[row, col] = max(errors[row, col], error)
    bound = np.array([eps, 2.0 * eps])
    assert np.all(errors[0] <= bound), errors[0]
    assert np.all(errors[1] > bound), errors[1]


def test_airy_anchors_are_mpmath_rounded_to_nearest():
    # the literals regenerate bit for bit from 40-digit mpmath
    assert len(_ANCHORS) == round((_SERIES_FROM - AIRY_MIN) / _TAYLOR_STEP) + 1
    with mpmath.workdps(40):
        for k, (ai, aip) in enumerate(_ANCHORS):
            x = mpmath.mpf(AIRY_MIN) + k * mpmath.mpf(_TAYLOR_STEP)
            assert ai == float(mpmath.airyai(x)) and aip == float(mpmath.airyai(x, derivative=1)), k


def test_airy_pair_is_exact_at_the_anchors():
    # t = 0 leaves a_0 and a_1 themselves
    xs = AIRY_MIN + _TAYLOR_STEP * np.arange(len(_ANCHORS))
    ai, aip = _airy_pair(xs)
    assert np.array_equal(np.stack([ai, aip], axis=1), np.array(_ANCHORS))


@pytest.mark.parametrize("x", [np.nextafter(-20.0, -np.inf), -20.3, -25.0, np.nan])
def test_airy_pair_refuses_arguments_below_the_table(x):
    # an anchor index below 0 would wrap to the far end of the table, silently
    with pytest.raises(InvalidArgumentError, match="x >= -20"):
        _airy_pair(np.array([[0.0, 1.0], [x, 12.0]]))


def test_airy_pair_above_ten_within_conditioning_of_mpmath():
    # e^{-zeta} turns a rounding of zeta into a relative error of about zeta eps,
    # so the band grows with zeta; scipy's AMOS branch is held to the same band
    eps = np.finfo(float).eps
    rng = np.random.default_rng(8)
    xs = np.concatenate([
        [10.0 - 1e-9, 10.0, np.nextafter(10.0, 11.0), 10.0 + 1e-12, 10.0 + 1e-9],
        np.linspace(10.0, 45.0, 36), rng.uniform(10.0, 45.0, 40),
    ])
    ai, aip = _airy_pair(xs)
    amos_ai, amos_aip, _, _ = scipy_airy(xs)
    with mpmath.workdps(40):
        for k, x in enumerate(xs):
            band = (2.0 * (2.0 / 3.0) * x**1.5 + 8.0) * eps
            ref_ai = mpmath.airyai(mpmath.mpf(float(x)))
            ref_aip = mpmath.airyai(mpmath.mpf(float(x)), derivative=1)
            for value, ref in ((ai[k], ref_ai), (aip[k], ref_aip), (amos_ai[k], ref_ai), (amos_aip[k], ref_aip)):
                assert abs((mpmath.mpf(float(value)) - ref) / ref) <= band, x


def test_asymptotic_series_ends_at_first_term_below_half_ulp_at_ten():
    zeta = (2.0 / 3.0) * _SERIES_FROM**1.5
    terms = np.abs(_ASYMPTOTIC[:, :, 0]) / zeta ** np.arange(len(_ASYMPTOTIC))[:, None]
    assert np.all(terms[-1] < 2.0**-53)
    assert np.any(terms[-2] >= 2.0**-53)


# ---------------------------------------------------------------------------
# F1 distribution function
# ---------------------------------------------------------------------------

def test_f1_right_tail():
    assert 1.0 - f1_cdf(8.0) <= 1e-8


def test_f1_left_tail():
    assert f1_cdf(-12.0) <= 1e-6


@pytest.mark.parametrize("s", [-60.0, -30.0, -25.0, -20.0, -17.5, -12.0, LEFT_CUT])
def test_f1_is_exactly_zero_left_of_the_cut(s):
    # the true F1 and f1 are below 1e-21 there; the determinant's rounding is not
    assert f1_cdf(s) == 0.0 and f1_pdf(s) == 0.0
    assert f1_cdf_tabulated(s) == 0.0
    assert tw_table(s, s, 1.0) == [(s, 0.0, 0.0)]


def test_f1_monotone_and_limits():
    values = np.array([F for _, F, _ in tw_table(-60.0, 40.0, 0.05)])
    assert np.all(np.diff(values) >= 0.0)
    assert values[0] == 0.0 and values[-1] == 1.0


def test_tw_table_keeps_cut_points_away_from_airy(monkeypatch):
    arguments = []

    def recording_airy_pair(x):
        arguments.append(np.min(x))
        return _airy_pair(x)

    monkeypatch.setattr(tracywidom, "_airy_pair", recording_airy_pair)
    rows = tw_table(-60.0, 4.0, 0.5)
    assert len(rows) == 129
    assert all(F == 0.0 and f == 0.0 for s, F, f in rows if s <= LEFT_CUT)
    assert all(F > 0.0 and f > 0.0 for s, F, f in rows if s > LEFT_CUT)
    assert len(arguments) == 1 and arguments[0] > LEFT_CUT


def test_f1_pairs_batches_equal_single_points():
    # 300 points take three batches; each value is the one-point determinant's
    s = np.linspace(-12.0, 14.0, 300)
    F, f = _f1_pairs(s, DEFAULT_NODES)
    assert np.array_equal(F, [f1_cdf(x) for x in s])
    assert np.array_equal(f, [f1_pdf(x) for x in s])


def test_f1_at_nan_is_refused_and_at_infinity_is_exact():
    with pytest.raises(InvalidArgumentError):
        f1_cdf(math.nan)
    assert f1_cdf(math.inf) == 1.0 and f1_pdf(math.inf) == 0.0
    assert f1_cdf(-math.inf) == 0.0 and f1_pdf(-math.inf) == 0.0


def test_f1_takes_scalars_and_arrays():
    # an array gives its own shape, a scalar a float; each value is the scalar call's
    s = np.array([[-11.0, -2.5, 0.0], [1.5, 30.0, math.inf]])
    F, f = f1_cdf(s), f1_pdf(s)
    assert F.shape == f.shape == s.shape
    assert np.array_equal(F, [[f1_cdf(x) for x in row] for row in s.tolist()])
    assert np.array_equal(f, [[f1_pdf(x) for x in row] for row in s.tolist()])
    assert type(f1_cdf(np.float64(0.5))) is float and type(f1_pdf(np.array(0.5))) is float
    assert f1_cdf(np.empty(0)).shape == (0,)
    with pytest.raises(InvalidArgumentError):
        f1_pdf(np.array([0.0, math.nan]))


def test_airy_pair_at_infinity_is_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ai, aip = _airy_pair(np.array([np.inf, 200.0, 1e300]))
    assert np.array_equal(ai, [0.0, 0.0, 0.0]) and np.array_equal(aip, [0.0, 0.0, 0.0])


def test_tw_table_refuses_an_empty_or_stalled_grid():
    with pytest.raises(InvalidArgumentError):
        tw_table(5.0, 4.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        tw_table(-1.0, 1.0, 0.0)
    assert [row[0] for row in tw_table(4.0, 4.0, 1.0)] == [4.0]


@pytest.mark.parametrize("grid", [(math.nan, 1.0, 0.5), (0.0, math.inf, 0.1), (0.0, 1.0, math.nan)])
def test_tw_table_refuses_a_non_finite_grid(grid):
    with pytest.raises(InvalidArgumentError, match="grid requires finite bounds"):
        tw_table(*grid)


def test_tw_table_rows_sit_on_the_indexed_grid():
    rows = tw_table(-1.0, 0.0, 0.1)
    assert [row[0] for row in rows] == [-1.0 + k * 0.1 for k in range(11)]
    assert all(type(row[0]) is float for row in rows)


def test_two_method_agreement(painleve):
    for s in np.arange(-5.0, 2.01, 0.5):
        assert abs(f1_cdf(float(s)) - painleve.cdf(float(s))) <= 1e-6


def test_f1_value_near_the_mean(painleve):
    s = -1.2065
    assert abs(f1_cdf(s) - painleve.cdf(s)) <= 1e-6


def test_quadrature_convergence():
    # doubling the node count moves F1 and f1 by no more than the stated accuracy
    coarse = np.array(tw_table(-10.0, 12.0, 0.05))
    fine = np.stack(_f1_pairs(coarse[:, 0], 2 * DEFAULT_NODES), axis=1)
    assert np.max(np.abs(coarse[:, 1:] - fine)) <= 2e-14


def test_direct_f1_matches_halfline_oracle():
    # a 128-node rule on the whole half line, with no truncation and no left cut
    for s, F, f in tw_table(-14.0, 14.0, 0.05):
        ref_F, ref_f = halfline_f1_pair(s)
        assert abs(F - ref_F) <= 2e-14 and abs(f - ref_f) <= 2e-14, s


def test_triangle_kernel_equals_full_grid_exactly():
    # Airy runs on the upper triangles only; each mirrored matrix of the stack
    # must equal the full n x n evaluation bit for bit
    n = DEFAULT_NODES
    u, unit_scale = _unit_rule(n)
    points = np.array([-9.5, -6.0, -1.2065, 0.0, 3.7, 18.0])
    K, Kp = _kernel_stack(points, n)
    assert K.shape == Kp.shape == (len(points), n, n)
    for k, s in enumerate(points):
        length = _half_length(s)
        ai, aip = _airy_pair(length * (u[:, None] + u[None, :]) + s)
        scale = length * unit_scale
        assert np.array_equal(K[k], scale * ai)
        assert np.array_equal(Kp[k], scale * aip)


def test_pdf_normalization_and_tail():
    xs = np.arange(-12.0, 8.0001, 0.02)
    pdf = f1_pdf(xs)
    assert np.trapezoid(pdf, xs) == pytest.approx(1.0, abs=1e-5)
    assert f1_pdf(-10.0) <= 1e-5


def test_pdf_matches_cdf_derivative():
    for s in (-2.0, -1.0, 0.0):
        fd = (f1_cdf(s + 1e-4) - f1_cdf(s - 1e-4)) / 2e-4
        assert f1_pdf(s) == pytest.approx(fd, abs=1e-6)


def _argmax_quadratic(xs, ys):
    k = int(np.argmax(ys))
    a, b, c = ys[k - 1], ys[k], ys[k + 1]
    return xs[k] + 0.5 * (a - c) / (a - 2 * b + c) * (xs[1] - xs[0])


def test_density_mode_matches_oracle(painleve):
    xs = np.arange(-2.5, -0.5, 0.005)
    ours = _argmax_quadratic(xs, f1_pdf(xs))
    oracle = _argmax_quadratic(xs, np.array([painleve.pdf(float(x)) for x in xs]))
    assert ours == pytest.approx(oracle, abs=1e-3)


def test_density_moments(painleve):
    xs = np.arange(-12.0, 8.0001, 0.01)
    pdf = f1_pdf(xs)
    mass = np.trapezoid(pdf, xs)
    mean = np.trapezoid(xs * pdf, xs) / mass
    var = np.trapezoid((xs - mean) ** 2 * pdf, xs) / mass
    omean, ovar = painleve.moments()
    assert mean == pytest.approx(omean, abs=1e-3)
    assert var == pytest.approx(ovar, abs=1e-3)
    assert mean == pytest.approx(-1.2065, abs=1e-3)
    assert var == pytest.approx(1.6078, abs=1e-3)


def test_direct_f1_matches_scipy_kernel_reference():
    # the package's Airy (Taylor table to x = 10, the series above) moves F1 and
    # f1 by less than 1e-15 from a kernel taken wholly from scipy's airy
    for s, F, f in tw_table(-12.0, 12.0, 0.05):
        ref_F, ref_f = scipy_f1_pair(s)
        assert abs(F - ref_F) <= 1e-15 and abs(f - ref_f) <= 1e-15, s


def test_table_rows_equal_direct_calls_exactly():
    # tw_table shares one kernel evaluation between F1 and f1 per point
    for s, F, f in tw_table(-6.0, 4.0, 0.1):
        assert F == f1_cdf(s)
        assert f == f1_pdf(s)


# ---------------------------------------------------------------------------
# Tabulated F1
# ---------------------------------------------------------------------------

def test_tabulated_f1_matches_direct_determinant():
    # 2001 points over [-14, 14] cover both clamp regions outside [-10, 12]
    xs = np.linspace(-14.0, 14.0, 2001)
    assert xs[0] < TABLE_RANGE[0] and xs[-1] > TABLE_RANGE[1]
    table = np.array([f1_cdf_tabulated(float(x)) for x in xs])
    direct = f1_cdf(xs)
    assert np.max(np.abs(table - direct)) <= 1e-12


def test_tabulated_f1_matches_painleve(painleve):
    for s in np.arange(-5.0, 2.01, 0.5):
        assert abs(f1_cdf_tabulated(float(s)) - painleve.cdf(float(s))) <= 1e-6


def test_tabulated_f1_is_a_probability():
    xs = np.concatenate([[-1e3, -30.0], np.linspace(-12.0, 14.0, 5201), [30.0, 1e3]])
    values = np.array([f1_cdf_tabulated(float(x)) for x in xs])
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert values[0] == 0.0 and values[-1] == 1.0


def test_f1_table_matches_kernel_references():
    # The Airy source moves the table by less than 1e-15.  Its coefficients are
    # compared with a table fitted on F1 from a kernel wholly from scipy's airy.
    # The F1 values it is fitted from are compared, at three of its nodes, with F1
    # from a 25-digit mpmath kernel.  The two tables' values are not compared:
    # least-squares fits of data 1.7e-16 apart differ by 1.4e-15 on [-10, 12]
    # (where F1 ~ 2e-9), the fits' own rounding, not the data's.
    table = _chebyshev_f1(TABLE_NODES, *TABLE_RANGE)
    lo, hi = TABLE_RANGE
    nodes = lo + (chebpts2(TABLE_NODES) + 1.0) * (0.5 * (hi - lo))
    reference = Chebyshev.fit(nodes, [scipy_f1_pair(float(x))[0] for x in nodes], TABLE_NODES - 1,
                              domain=[lo, hi])
    assert np.max(np.abs(table.coef - reference.coef)) <= 1e-15
    few = nodes[20:50:10]
    values = _f1_pairs(few, DEFAULT_NODES)[0]
    for x, value in zip(few, values):
        assert abs(value - mpmath_f1_pair(float(x))[0]) <= 1e-15, x


def test_table_with_too_few_nodes_is_refused():
    # 48 nodes leave tail coefficients near 1e-7, far above the gate
    with pytest.raises(NumericError, match="tail coefficient"):
        _chebyshev_f1(48, *TABLE_RANGE)


def test_table_build_logs_its_accuracy(caplog):
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        table = _chebyshev_f1(TABLE_NODES, *TABLE_RANGE)
    assert len(table.coef) == TABLE_NODES
    [record] = [r for r in caplog.records if r.message.startswith("F1 table")]
    match = re.fullmatch(rf"F1 table: {TABLE_NODES} Chebyshev nodes on \[-10, 12\] of a {DEFAULT_NODES}-node "
                         r"determinant, largest tail coefficient (\d\.\d\de-\d+), built in \d+\.\d+ s",
                         record.message)
    assert match and float(match.group(1)) <= 1e-12


def test_tw_table_logs_one_line_per_call(caplog):
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        tw_table(-1.0, 1.0, 0.5)
        tw_table(-12.0, -11.0, 1.0)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("tw_table")]
    assert len(lines) == 2
    assert re.fullmatch(rf"tw_table: 5 rows on a {DEFAULT_NODES}-node rule to X_CAP = 20 in \d+\.\d{{3}} s",
                        lines[0])
    assert re.fullmatch(rf"tw_table: 2 rows on a {DEFAULT_NODES}-node rule to X_CAP = 20 in \d+\.\d{{3}} s",
                        lines[1])


def test_import_does_not_build_the_table():
    # the Airy coefficient table, the F1 table and the CLI's argument parser
    # all load on first use, and numpy.ma (10-15 ms of import, which
    # np.union1d pulls in) not at all
    src = os.path.dirname(os.path.dirname(spectraledge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, spectraledge, spectraledge.cli as cli\n"
            "from spectraledge.tracywidom import _f1_table, _taylor_table\n"
            "print('scipy.special' in sys.modules, _taylor_table.cache_info().currsize,"
            " _f1_table.cache_info().currsize, 'numpy.ma' in sys.modules,"
            " cli._build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["False", "0", "0", "False", "0"]
    _f1_table()
    assert _f1_table.cache_info().currsize == 1


def test_f1_commands_never_load_scipy_special(tmp_path):
    # twtable and simulate (the F1 table in its KS step) evaluate Airy on numpy alone
    src = os.path.dirname(os.path.dirname(spectraledge.__file__))
    spectrum = os.path.join(os.path.dirname(__file__), "golden", "uniform_sq_30x60.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "from spectraledge.cli import run_command\n"
            f"assert run_command(['twtable', '--from', '-6', '--to', '4', '--step', '0.1',"
            f" '--out', {str(tmp_path / 'tw.csv')!r}]) == 0\n"
            f"assert run_command(['simulate', '--spectrum', {spectrum!r}, '--trials', '20', '--threads', '1',"
            f" '--out', {str(tmp_path / 'sim.csv')!r}]) == 0\n"
            "from spectraledge.tracywidom import _f1_table, _taylor_table\n"
            "print('scipy.special' in sys.modules, _taylor_table.cache_info().currsize,"
            " _f1_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["False", "1", "1"]


def test_first_airy_evaluation_logs_the_table_build(caplog):
    _taylor_table.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="spectraledge"):
        _ai(0.5)
        _ai(np.array([-3.0, 1.0, 20.0]))
        f1_cdf(-2.0)
    [record] = [r for r in caplog.records if "Taylor table" in r.getMessage()]
    assert record.name == "spectraledge"
    assert re.fullmatch(rf"tracywidom: Airy Taylor table of {len(_ANCHORS)} anchors, h = 0\.5, "
                        rf"{_TAYLOR_TERMS} terms, built in \d+\.\d{{6}} s", record.getMessage())
    assert _taylor_table().shape == (_TAYLOR_TERMS, 2, len(_ANCHORS))


def test_tabulated_f1_takes_arrays():
    # one series evaluation for an array must equal the scalar reads bit for bit,
    # clamp regions and range ends included
    xs = np.concatenate([[-1e3, TABLE_RANGE[0], TABLE_RANGE[1], 1e3], np.linspace(-14.0, 14.0, 5001)])
    values = f1_cdf_tabulated(xs)
    assert values.shape == xs.shape
    assert np.array_equal(values, [f1_cdf_tabulated(float(x)) for x in xs])
    assert isinstance(f1_cdf_tabulated(0.5), float)
