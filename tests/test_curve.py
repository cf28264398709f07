"""Curve interpolation, polynomial segment fitting, derivatives and shocks."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvehedge import (
    DegenerateSpanError,
    ExtrapolationError,
    FitError,
    PolynomialSegment,
    ShockSpec,
    SynthConfig,
    YieldCurve,
    apply_shock,
    curvature,
    delta_y,
    derivatives,
    fit_segment,
    generate_history,
    spot,
)
from curvehedge.curve import _condition_number, _curves
from curvehedge.synth import _trading_dates

D = dt.date(2024, 1, 2)


def poly_curve(coeffs, tenors) -> YieldCurve:
    a0, a1, a2, a3 = coeffs
    return YieldCurve(D, tuple(tenors), tuple(
        a0 + t * (a1 + t * (a2 + t * a3)) for t in tenors
    ))


# ---------------------------------------------------------------------------
# YieldCurve construction and interpolation
# ---------------------------------------------------------------------------

def test_curve_validation():
    with pytest.raises(ValueError, match="2 knots"):
        YieldCurve(D, (1.0,), (0.03,))
    with pytest.raises(ValueError, match="increasing"):
        YieldCurve(D, (1.0, 1.0), (0.03, 0.04))
    with pytest.raises(ValueError, match="positive"):
        YieldCurve(D, (0.0, 1.0), (0.03, 0.04))
    with pytest.raises(ValueError, match="finite"):
        YieldCurve(D, (1.0, 2.0), (0.03, float("nan")))
    with pytest.raises(ValueError, match="-100%"):
        YieldCurve(D, (1.0, 2.0), (0.03, -1.0))
    with pytest.raises(ValueError, match="equal length"):
        YieldCurve(D, (1.0, 2.0), (0.03,))
    with pytest.raises(ValueError, match="tenors must be finite"):
        YieldCurve(D, (float("nan"), 1.0), (0.03, 0.04))
    with pytest.raises(ValueError, match="tenors must be finite"):
        YieldCurve(D, (0.5, 5.0, float("inf")), (0.03, 0.031, 0.032))


def test_spot_linear_midpoint():
    c = YieldCurve(D, (1.0, 2.0), (0.03, 0.05))
    assert spot(c, 1.5) == pytest.approx(0.04)


def test_spot_exact_at_knots():
    c = YieldCurve(D, (1.0, 2.0), (0.03, 0.05))
    assert spot(c, 2.0) == 0.05
    assert spot(c, 1.0) == 0.03


def test_spot_refuses_extrapolation():
    c = YieldCurve(D, (0.5, 2.0), (0.03, 0.05))
    assert c.min_tenor == 0.5 and c.max_tenor == 2.0
    with pytest.raises(ExtrapolationError):
        spot(c, 0.25)
    with pytest.raises(ExtrapolationError):
        spot(c, 2.5)
    with pytest.raises(ExtrapolationError, match=r"maturity nan outside curve range"):
        spot(c, float("nan"))


def test_spot_continuous_at_interior_knots(curve):
    eps = 1e-9
    for t in curve.tenors[1:-1]:
        assert abs(spot(curve, t - eps) - spot(curve, t + eps)) < 1e-10


# ---------------------------------------------------------------------------
# segment fitting
# ---------------------------------------------------------------------------

def test_fit_reproduces_line():
    c = poly_curve((0.01, 0.002, 0.0, 0.0), (1, 2, 3, 4, 5))
    seg = fit_segment(c, 1.0, 5.0, 2)
    assert seg.coefficients == pytest.approx((0.01, 0.002, 0.0, 0.0), abs=1e-12)


def test_fit_interpolates_cubic_through_four_knots():
    coeffs = (0.02, 0.001, 0.0005, -0.00002)
    c = poly_curve(coeffs, (1, 3, 6, 9))
    seg = fit_segment(c, 1.0, 9.0, 3)
    assert seg.fit_kind == "interpolating"
    assert seg.coefficients == pytest.approx(coeffs, abs=1e-10)


def test_fit_least_squares_tag():
    c = poly_curve((0.02, 0.001, 0.0005, -0.00002), (1, 2, 3, 4, 5, 6))
    assert fit_segment(c, 1.0, 6.0, 3).fit_kind == "least_squares"


def test_fit_least_squares_is_locally_optimal():
    """RSS at the fitted coefficients beats every +-1e-6 perturbation."""
    rng = np.random.default_rng(7)
    t = np.array([1.0, 2.0, 4.0, 5.5, 7.0, 9.0])
    r = 0.02 + 0.002 * t - 1e-4 * t**2 + rng.normal(0.0, 2e-4, t.size)
    c = YieldCurve(D, tuple(t), tuple(r))
    seg = fit_segment(c, 1.0, 9.0, 2)
    coef = np.array(seg.coefficients[:3])

    def rss(cf):
        fit = cf[0] + cf[1] * t + cf[2] * t**2
        return float(np.sum((r - fit) ** 2))

    best = rss(coef)
    for i in range(3):
        for sign in (-1.0, 1.0):
            bumped = coef.copy()
            bumped[i] += sign * 1e-6
            assert best <= rss(bumped)


def test_fit_needs_enough_knots():
    c = poly_curve((0.02, 0.001, 0.0, 0.0), (1, 2, 3, 4, 5))
    with pytest.raises(FitError, match="at least 4"):
        fit_segment(c, 1.0, 3.0, 3)  # only 3 knots in range


@pytest.mark.parametrize("tenors,degree", [
    ((1e3, 1e3 + 0.01, 1e3 + 0.02, 1e3 + 0.03), 3),
    ((100.0, 100.5, 101.0, 101.5, 102.0), 3),
    ((500.0, 500.5, 501.0), 2),
])
def test_fit_ill_conditioned_message(tenors, degree):
    c = YieldCurve(D, tenors, (0.02,) * len(tenors))
    vand = np.vander(np.array(tenors), degree + 1, increasing=True)
    cond = np.linalg.cond(vand.T @ vand)
    with pytest.raises(FitError) as err:
        fit_segment(c, tenors[0], tenors[-1], degree)
    assert str(err.value) == f"normal equations condition number {cond:.3e} exceeds 1e+12"


@st.composite
def _square_systems(draw):
    """1x1-4x4 matrices, a third of them made singular: a zero row, a row
    a multiple of another, or all zeros."""
    n = draw(st.integers(1, 4))
    m = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n * n, max_size=n * n)))
    m = m.reshape(n, n)
    kind = draw(st.sampled_from(["any", "any", "zero_row", "multiple", "zeros"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "zero_row":
        m[i] = 0.0
    elif kind == "multiple":
        m[i] = m[j] * draw(st.floats(-10.0, 10.0))
    elif kind == "zeros":
        m[:] = 0.0
    return m


@settings(max_examples=500, deadline=None)
@given(_square_systems())
def test_condition_number_equals_numpy_cond(m):
    assert _condition_number(m) == np.linalg.cond(m)


def test_condition_number_non_finite():
    assert _condition_number(np.array([[np.inf, 1.0], [1.0, 2.0]])) == np.linalg.cond(
        np.array([[np.inf, 1.0], [1.0, 2.0]])) == np.inf
    for fn in (_condition_number, np.linalg.cond):
        with pytest.raises(np.linalg.LinAlgError):
            fn(np.array([[np.nan, 1.0], [1.0, 2.0]]))


def test_fit_rejects_degenerate_span():
    c = poly_curve((0.02, 0.001, 0.0, 0.0), (1, 2, 3, 4, 5))
    with pytest.raises(DegenerateSpanError):
        fit_segment(c, 2.0, 2.0005, 2)


def test_fit_rejects_bad_degree():
    c = poly_curve((0.02, 0.001, 0.0, 0.0), (1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="degree"):
        fit_segment(c, 1.0, 5.0, 1)


@given(
    a0=st.floats(min_value=0.0, max_value=0.05),
    a1=st.floats(min_value=-0.005, max_value=0.005),
    a2=st.floats(min_value=-5e-4, max_value=5e-4),
    a3=st.floats(min_value=-2e-5, max_value=2e-5),
)
@settings(max_examples=60, deadline=None)
def test_fit_reproduces_generating_polynomial(a0, a1, a2, a3):
    tenors = (0.5, 1.5, 3.0, 4.5, 6.0, 8.0, 10.0)
    c = poly_curve((a0, a1, a2, a3), tenors)
    seg = fit_segment(c, 0.5, 10.0, 3)
    assert seg.coefficients == pytest.approx((a0, a1, a2, a3), abs=1e-10)


# ---------------------------------------------------------------------------
# derivatives, curvature, delta_y
# ---------------------------------------------------------------------------

def test_derivatives_linear_segment():
    seg = PolynomialSegment(0.5, 10.0, (0.02, 0.001, 0.0, 0.0))
    for t in (1.0, 4.0, 9.0):
        f, f1, f2 = derivatives(seg, t)
        assert f1 == pytest.approx(0.001)
        assert f2 == 0.0


def test_derivatives_quadratic_monomial():
    seg = PolynomialSegment(0.5, 10.0, (0.0, 0.0, 0.0005, 0.0))
    f, f1, f2 = derivatives(seg, 2.0)
    assert f == pytest.approx(0.002)
    assert f1 == pytest.approx(0.002)
    assert f2 == pytest.approx(0.001)


def test_second_derivative_matches_fd_of_first():
    seg = PolynomialSegment(0.5, 10.0, (0.02, 0.001, 0.0005, 0.0001))
    h = 1e-6
    t = 3.0
    _, f1_lo, _ = derivatives(seg, t - h)
    _, f1_hi, _ = derivatives(seg, t + h)
    _, _, f2 = derivatives(seg, t)
    assert f2 == pytest.approx((f1_hi - f1_lo) / (2 * h), rel=1e-6)
    assert f2 == pytest.approx(2 * 0.0005 + 6 * 0.0001 * t)


def test_derivatives_out_of_span():
    seg = PolynomialSegment(1.0, 5.0, (0.02, 0.001, 0.0, 0.0))
    with pytest.raises(ExtrapolationError):
        derivatives(seg, 0.5)
    # NaN is off the span too, for every reader of the derivatives
    for fn in (derivatives, curvature, lambda s, t: delta_y(s, ShockSpec(a=0.01), t)):
        for t in (float("nan"), np.array([2.0, np.nan])):
            with pytest.raises(ExtrapolationError, match=r"maturity nan outside segment span"):
                fn(seg, t)


def test_curvature_closed_forms():
    straight = PolynomialSegment(0.5, 10.0, (0.02, 0.004, 0.0, 0.0))
    assert curvature(straight, 5.0) == 0.0
    # vertex at T=5: F1 = 0 there, so K = F2 = 0.001
    vertex = PolynomialSegment(0.5, 10.0, (0.02, -0.005, 0.0005, 0.0))
    assert curvature(vertex, 5.0) == pytest.approx(0.001)


def test_curvature_unit_slope():
    # F1 = 1 at T = 2 and F2 = 2 gamma = 0.001 -> K = 0.001 / 2^1.5
    seg = PolynomialSegment(0.5, 10.0, (0.0, 0.998, 0.0005, 0.0))
    _, f1, f2 = derivatives(seg, 2.0)
    assert f1 == pytest.approx(1.0)
    assert f2 == pytest.approx(0.001)
    assert curvature(seg, 2.0) == pytest.approx(0.001 / 2**1.5)


def test_delta_y_pure_translation():
    seg = PolynomialSegment(0.5, 10.0, (0.02, 0.003, -1e-4, 1e-5))
    shock = ShockSpec.parametric(a=0.001)
    for t in (1.0, 5.0, 9.0):
        assert delta_y(seg, shock, t) == pytest.approx(0.001)


def test_delta_y_rotation_on_line():
    seg = PolynomialSegment(0.5, 10.0, (0.02, 0.002, 0.0, 0.0))
    shock = ShockSpec.parametric(b=1.0)
    for t in (1.0, 5.0, 9.0):
        assert delta_y(seg, shock, t) == pytest.approx(0.002)


def test_delta_y_twist_on_quadratic():
    seg = PolynomialSegment(0.5, 10.0, (0.02, 0.0, 0.0005, 0.0))
    shock = ShockSpec.parametric(c=1.0)
    for t in (1.0, 5.0, 9.0):
        assert delta_y(seg, shock, t) == pytest.approx(0.001)


def test_delta_y_rejects_custom_shock():
    seg = PolynomialSegment(0.5, 10.0, (0.02, 0.002, 0.0, 0.0))
    with pytest.raises(ValueError, match="parametric"):
        delta_y(seg, ShockSpec.from_vector([0.001] * 3), 1.0)


# ---------------------------------------------------------------------------
# shock application
# ---------------------------------------------------------------------------

def test_shockspec_one_active_form():
    with pytest.raises(ValueError, match="custom"):
        ShockSpec(a=0.001, custom=(0.001, 0.001))
    assert ShockSpec.parametric(0.001).is_parametric
    assert not ShockSpec.from_vector([0.0, 0.0]).is_parametric


def test_shockspec_scaled():
    s = ShockSpec.parametric(0.002, 0.1, 0.05).scaled(0.5)
    assert (s.a, s.b, s.c) == (0.001, 0.05, 0.025)
    v = ShockSpec.from_vector([0.002, 0.004]).scaled(0.25)
    assert v.custom == (0.0005, 0.001)


def test_apply_zero_shock_is_identity(curve):
    out = apply_shock(curve, ShockSpec.from_vector([0.0] * len(curve.tenors)))
    assert out.rates == curve.rates
    assert out.tenors == curve.tenors


def test_apply_custom_parallel(curve):
    out = apply_shock(curve, ShockSpec.from_vector([0.001] * len(curve.tenors)))
    for r0, r1 in zip(curve.rates, out.rates):
        assert r1 - r0 == pytest.approx(0.001)


def test_apply_parametric_rotation_on_line():
    c = poly_curve((0.02, 0.002, 0.0, 0.0), (1, 2, 4, 6, 8))
    seg = fit_segment(c, 1.0, 8.0, 2)
    out = apply_shock(c, ShockSpec.parametric(b=1.0), seg)
    for r0, r1 in zip(c.rates, out.rates):
        assert r1 - r0 == pytest.approx(0.002, abs=1e-12)


def test_apply_then_negate_returns_original(curve):
    rng = np.random.default_rng(11)
    vec = rng.normal(0.0, 5e-4, len(curve.tenors))
    there = apply_shock(curve, ShockSpec.from_vector(vec))
    back = apply_shock(there, ShockSpec.from_vector(-vec))
    for r0, r1 in zip(curve.rates, back.rates):
        assert abs(r1 - r0) < 1e-14


def test_apply_custom_length_mismatch(curve):
    with pytest.raises(ValueError, match="knots"):
        apply_shock(curve, ShockSpec.from_vector([0.001, 0.002]))


def test_apply_parametric_requires_segment(curve):
    with pytest.raises(ValueError, match="segment"):
        apply_shock(curve, ShockSpec.parametric(a=0.001))


def test_apply_parametric_clips_outside_span(curve):
    """Knots outside the fitted span move by the nearest endpoint's dY."""
    seg = fit_segment(curve, 2.0, 8.0, 3)
    shock = ShockSpec.parametric(0.0005, 0.1, 0.02)
    out = apply_shock(curve, shock, seg)
    shifts = {t: r1 - r0 for t, r0, r1 in zip(curve.tenors, curve.rates, out.rates)}
    assert shifts[0.5] == pytest.approx(delta_y(seg, shock, 2.0), abs=1e-15)
    assert shifts[1.0] == pytest.approx(delta_y(seg, shock, 2.0), abs=1e-15)
    assert shifts[10.0] == pytest.approx(delta_y(seg, shock, 8.0), abs=1e-15)
    assert shifts[5.0] == pytest.approx(delta_y(seg, shock, 5.0), abs=1e-15)


@pytest.mark.parametrize("t_lo,t_hi,degree", [(0.5, 10.0, 3), (2.0, 8.0, 2)])
def test_apply_shock_equals_per_knot_delta_y(curve, t_lo, t_hi, degree):
    """The one array expression moves each knot exactly as delta_y at its
    clipped maturity does, for a full and for a partial segment."""
    seg = fit_segment(curve, t_lo, t_hi, degree)
    shock = ShockSpec.parametric(0.0007, -0.06, 0.04)
    out = apply_shock(curve, shock, seg)
    want = tuple(
        r + delta_y(seg, shock, min(max(t, t_lo), t_hi))
        for t, r in zip(curve.tenors, curve.rates)
    )
    assert out.rates == want
    assert out.tenors == curve.tenors


def test_derivatives_take_an_array_and_name_the_bad_maturity():
    seg = fit_segment(poly_curve((0.02, 0.003, -2e-4, 1e-5), (1, 2, 4, 6, 8)), 1.0, 8.0, 3)
    t = np.array([1.0, 2.5, 8.0])
    for got, want in zip(derivatives(seg, t), zip(*(derivatives(seg, x) for x in t))):
        assert tuple(got) == want
    with pytest.raises(ExtrapolationError, match=r"maturity 9.5 outside segment span"):
        derivatives(seg, np.array([2.0, 9.5, 0.5]))


@pytest.mark.parametrize("sigma_idio", [0.0, 4e-4])
def test_generate_history_equals_per_day_shock_replay(sigma_idio):
    """Each synthetic day is the previous one under apply_shock with that
    day's (a, b, c) on the day-zero segment, plus its idio noise, bit for bit."""
    curves, draws = generate_history(SynthConfig(days=40, seed=5, sigma_idio=sigma_idio))
    assert len(curves) == 40
    curve = curves[0]
    for k, got in enumerate(curves[1:]):
        shock = ShockSpec.parametric(draws.a[k], draws.b[k], draws.c[k])
        shocked = apply_shock(curve, shock, draws.segment)
        curve = YieldCurve(got.date, curve.tenors,
                           tuple((np.asarray(shocked.rates) + draws.idio[k]).tolist()))
        assert got.rates == curve.rates
        assert got.tenors == curve.tenors


def _row_by_row(dates, grid, block):
    """YieldCurve(...) on each row in turn: the curves, or the first error."""
    try:
        return [YieldCurve(d, grid, tuple(r)) for d, r in zip(dates, block.tolist())]
    except ValueError as exc:
        return exc


def _check_same_as_rows(dates, grid, block):
    want = _row_by_row(dates, grid, block)
    if isinstance(want, ValueError):
        with pytest.raises(ValueError) as err:
            _curves(dates, grid, block)
        assert (type(err.value), str(err.value)) == (type(want), str(want))
        return
    got = _curves(dates, grid, block)
    assert got == want
    for g, w in zip(got, want):
        assert [x.hex() for x in g.rates] == [x.hex() for x in w.rates]
        assert type(g.rates) is tuple and all(type(x) is float for x in g.rates)


@given(
    days=st.integers(1, 8),
    grid=st.sampled_from([(0.5, 1.0, 5.0), (1.0, 2.0), (0.25, 3.0, 7.0, 30.0), (1.0,),
                          (2.0, 1.0), (0.0, 1.0), (1.0, 1.0, 2.0), (1.0, float("inf"))]),
    values=st.lists(st.floats(-0.999, 0.5, allow_subnormal=True), min_size=32, max_size=32),
    planted=st.dictionaries(st.integers(0, 7), st.sampled_from(
        (float("nan"), float("inf"), -float("inf"), -1.0, -1.5, -1e300, -0.9999999999)),
        max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_block_constructor_equals_yield_curve_per_row(days, grid, values, planted):
    """The batch constructor gives the curves YieldCurve gives row by row,
    or raises the error YieldCurve raises for the first failing row."""
    block = np.array(values[: days * len(grid)]).reshape(days, len(grid))
    for i, bad in planted.items():
        if i < days:
            block[i, i % len(grid)] = bad
    dates = [D + dt.timedelta(k) for k in range(days)]
    _check_same_as_rows(dates, grid, block)


def test_block_constructor_walk_across_minus_100pct():
    grid = (0.5, 1.0, 5.0)
    walk = -0.95 - 0.01 * np.arange(10.0)[:, None] + np.array([0.0, 0.02, 0.04])
    dates = [D + dt.timedelta(k) for k in range(10)]
    _check_same_as_rows(dates, grid, walk)
    with pytest.raises(ValueError, match="greater than -100%"):
        _curves(dates, grid, walk)
    _check_same_as_rows(dates[:5], grid, walk[:5])  # stops short of -1
    _check_same_as_rows(dates, grid, np.zeros((10, 2)))  # grid and rows differ in length
    assert _curves([], grid, np.empty((0, 3))) == []


def test_generate_history_walk_across_minus_100pct_raises_per_day_error():
    with pytest.raises(ValueError, match="spot rates must be greater than -100%"):
        generate_history(SynthConfig(days=400, sigma_level=0.2, seed=1))


@pytest.mark.parametrize("field", ["sigma_level", "sigma_slope", "sigma_twist", "sigma_idio"])
@pytest.mark.parametrize("value", [float("nan"), -1.0])
def test_synth_config_rejects_bad_sigma(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite and >= 0, got {value}$"):
        SynthConfig(**{field: value})


def _weekday_walk(start: dt.date, days: int) -> list[dt.date]:
    dates, d = [], start
    while len(dates) < days:
        if d.weekday() < 5:
            dates.append(d)
        d += dt.timedelta(days=1)
    return dates


@pytest.mark.parametrize("days", [2, 2500])
def test_trading_dates_equal_a_weekday_walk(days):
    for k in range(7):  # a start on every day of the week
        start = dt.date(2024, 1, 1) + dt.timedelta(k)
        got = _trading_dates(start, days)
        assert got == _weekday_walk(start, days)
        assert all(type(d) is dt.date for d in got)
    with pytest.raises(ValueError, match="run past 9999-12-31"):
        _trading_dates(dt.date(9999, 12, 1), 300)
