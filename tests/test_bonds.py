"""Bond analytics: schedule generation, pricing, duration/convexity with
finite-difference oracles, and the second-order P&L approximation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvehedge import (
    Bond,
    analytics,
    cashflows,
    convexity,
    curve_analytics,
    modified_duration,
    pnl_approx,
    price,
)

FD_STEP = 1e-6
# second differences amplify roundoff by 1/h^2; eps^(1/4) balances that
# against truncation, so the second-derivative step is much coarser
FD_STEP2 = 1e-4


def fd_duration(bond: Bond, y: float) -> float:
    p = price(bond, y)
    return -(price(bond, y + FD_STEP) - price(bond, y - FD_STEP)) / (2 * FD_STEP * p)


def fd_convexity(bond: Bond, y: float) -> float:
    p = price(bond, y)
    return (price(bond, y + FD_STEP2) - 2 * p + price(bond, y - FD_STEP2)) / (FD_STEP2**2 * p)


# ---------------------------------------------------------------------------
# cashflow schedules
# ---------------------------------------------------------------------------

def test_zero_coupon_single_flow():
    b = Bond("z", 100.0, 0.0, 1, 1.0)
    assert cashflows(b) == [(1.0, 100.0)]


def test_annual_schedule():
    b = Bond("a", 100.0, 0.04, 1, 2.0)
    assert cashflows(b) == [(1.0, 4.0), (2.0, 104.0)]


def test_semiannual_schedule():
    b = Bond("s", 100.0, 0.04, 2, 1.0)
    assert cashflows(b) == [(0.5, 2.0), (1.0, 102.0)]


def test_schedule_strictly_increasing_and_face_in_last():
    b = Bond("q", 100.0, 0.05, 4, 3.7)
    flows = cashflows(b)
    times = [t for t, _ in flows]
    assert all(t0 < t1 for t0, t1 in zip(times, times[1:]))
    assert times[-1] == pytest.approx(3.7)
    assert flows[-1][1] > 100.0


def test_stub_coupon_pro_rata():
    # accrual starts 0.3y before the first coupon instead of a full 0.5y
    b = Bond("st", 100.0, 0.04, 2, 1.0, issue_or_first_coupon_offset=0.2)
    flows = cashflows(b)
    assert flows[0] == (0.5, pytest.approx(100.0 * 0.04 * 0.3))
    assert flows[1] == (1.0, pytest.approx(102.0))


def test_offset_beyond_first_coupon_rejected():
    with pytest.raises(ValueError, match="accrual"):
        cashflows(Bond("bad", 100.0, 0.04, 2, 1.0, issue_or_first_coupon_offset=0.6))


def test_rolled_shortens_maturity():
    b = Bond("r", 100.0, 0.03, 1, 5.0)
    r = b.rolled(1.5)
    assert r.maturity == pytest.approx(3.5)
    assert r.id == b.id and r.coupon_rate == b.coupon_rate


def test_bond_validation():
    with pytest.raises(ValueError, match="face"):
        Bond("x", -1.0, 0.03, 1, 5.0)
    with pytest.raises(ValueError, match="coupon_rate"):
        Bond("x", 100.0, -0.01, 1, 5.0)
    with pytest.raises(ValueError, match="maturity"):
        Bond("x", 100.0, 0.03, 1, 0.0)
    with pytest.raises(ValueError, match="coupon_frequency"):
        Bond("x", 100.0, 0.03, 3, 5.0)


@pytest.mark.parametrize("field", ["face", "coupon_rate", "maturity",
                                   "issue_or_first_coupon_offset"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_bond_rejects_non_finite_numbers(field, value):
    fields = dict(id="x", face=100.0, coupon_rate=0.03, coupon_frequency=1, maturity=5.0)
    fields[field] = value
    with pytest.raises(ValueError) as err:
        Bond(**fields)
    assert str(err.value) == f"bond 'x': {field} must be finite, got {value}"


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

def test_price_zero_coupon_no_discounting():
    assert price(Bond("z", 100.0, 0.0, 1, 1.0), 0.0) == pytest.approx(100.0)


def test_price_zero_coupon_five_percent():
    assert price(Bond("z", 100.0, 0.0, 1, 1.0), 0.05) == pytest.approx(100.0 / 1.05)


def test_par_bond_prices_at_face():
    assert price(Bond("p", 100.0, 0.04, 1, 2.0), 0.04) == pytest.approx(100.0, abs=1e-10)


@pytest.mark.parametrize("rate", [0.01, 0.03, 0.06, 0.1])
@pytest.mark.parametrize("years", [1, 3, 10])
def test_par_identity_annual(rate, years):
    b = Bond("p", 100.0, rate, 1, float(years))
    assert price(b, rate) == pytest.approx(100.0, abs=1e-10)


def test_yield_domain_error():
    b = Bond("z", 100.0, 0.0, 1, 1.0)
    with pytest.raises(ValueError, match="-100%"):
        price(b, -1.0)
    with pytest.raises(ValueError, match="-100%"):
        modified_duration(b, -1.5)


@given(
    y1=st.floats(min_value=-0.05, max_value=0.12),
    dy=st.floats(min_value=1e-4, max_value=0.05),
)
@settings(max_examples=100, deadline=None)
def test_price_strictly_decreasing_in_yield(y1, dy):
    b = Bond("m", 100.0, 0.05, 2, 6.5)
    assert price(b, y1 + dy) < price(b, y1)


# ---------------------------------------------------------------------------
# duration and convexity
# ---------------------------------------------------------------------------

def test_duration_zero_coupon_at_zero_yield():
    for t in (1.0, 2.5, 7.0):
        assert modified_duration(Bond("z", 100.0, 0.0, 1, t), 0.0) == pytest.approx(t)


def test_duration_zero_coupon_divides_by_one_plus_y():
    assert modified_duration(Bond("z", 100.0, 0.0, 1, 1.0), 0.05) == pytest.approx(1 / 1.05)


def test_duration_matches_finite_difference():
    b = Bond("p", 100.0, 0.04, 1, 2.0)
    assert modified_duration(b, 0.04) == pytest.approx(fd_duration(b, 0.04), rel=1e-8)


def test_convexity_zero_coupon_closed_forms():
    assert convexity(Bond("z", 100.0, 0.0, 1, 1.0), 0.0) == pytest.approx(2.0)
    assert convexity(Bond("z", 100.0, 0.0, 1, 2.0), 0.0) == pytest.approx(6.0)


def test_convexity_matches_finite_difference():
    b = Bond("p", 100.0, 0.04, 1, 2.0)
    assert convexity(b, 0.04) == pytest.approx(fd_convexity(b, 0.04), rel=1e-6)


def test_derivative_grid_oracle(universe):
    """Every bond across yields -2% to 10% against the FD oracles."""
    yields = np.arange(-0.02, 0.1001, 0.02)
    for bond in universe.values():
        for y in yields:
            assert modified_duration(bond, y) == pytest.approx(fd_duration(bond, y), rel=1e-6)
            assert convexity(bond, y) == pytest.approx(fd_convexity(bond, y), rel=1e-4)


@given(
    rate=st.floats(min_value=0.0, max_value=0.10),
    freq=st.sampled_from([1, 2, 4]),
    maturity=st.floats(min_value=0.5, max_value=12.0),
    y=st.floats(min_value=-0.02, max_value=0.10),
)
@settings(max_examples=60, deadline=None)
def test_duration_fd_property(rate, freq, maturity, y):
    b = Bond("h", 100.0, rate, freq, maturity)
    assert modified_duration(b, y) == pytest.approx(fd_duration(b, y), rel=1e-6)


def test_analytics_consistent_with_pieces():
    b = Bond("c", 100.0, 0.035, 2, 4.25)
    a = analytics(b, 0.041)
    assert a.price == pytest.approx(price(b, 0.041))
    assert a.modified_duration == pytest.approx(modified_duration(b, 0.041))
    assert a.convexity == pytest.approx(convexity(b, 0.041))
    assert a.ytm == 0.041
    assert a.price > 0 and a.modified_duration > 0 and a.convexity > 0


# ---------------------------------------------------------------------------
# curve-driven analytics
# ---------------------------------------------------------------------------

def test_curve_analytics_flat_mode_uses_maturity_spot(universe, curve):
    from curvehedge import spot

    b = universe["B2"]
    a = curve_analytics(b, curve, mode="flat")
    y = spot(curve, b.maturity)
    assert a.ytm == pytest.approx(y)
    assert a.price == pytest.approx(price(b, y))


def test_curve_analytics_modes_agree_on_flat_curve():
    import datetime as dt

    from curvehedge import YieldCurve

    flat = YieldCurve(dt.date(2024, 1, 2), (0.5, 2.0, 5.0, 10.0), (0.03,) * 4)
    b = Bond("f", 100.0, 0.04, 2, 6.0)
    a_flat = curve_analytics(b, flat, mode="flat")
    a_spot = curve_analytics(b, flat, mode="spot")
    assert a_spot.price == pytest.approx(a_flat.price, rel=1e-12)
    assert a_spot.modified_duration == pytest.approx(a_flat.modified_duration, rel=1e-12)
    assert a_spot.convexity == pytest.approx(a_flat.convexity, rel=1e-12)


def test_curve_analytics_spot_mode_parallel_bump_oracle(universe, curve):
    """spot-mode D and C are the sensitivities to a parallel curve bump."""
    import datetime as dt

    from curvehedge import YieldCurve

    b = universe["B4"]
    h = 1e-6

    def spot_price(bump: float) -> float:
        shifted = YieldCurve(curve.date, curve.tenors, tuple(r + bump for r in curve.rates))
        return curve_analytics(b, shifted, mode="spot").price

    p0 = spot_price(0.0)
    d_fd = -(spot_price(h) - spot_price(-h)) / (2 * h * p0)
    c_fd = (spot_price(h) - 2 * p0 + spot_price(-h)) / (h * h * p0)
    a = curve_analytics(b, curve, mode="spot")
    assert a.modified_duration == pytest.approx(d_fd, rel=1e-6)
    assert a.convexity == pytest.approx(c_fd, rel=1e-4)


def test_curve_analytics_spot_mode_short_coupon_names_bond(curve):
    """A quarterly 5y bond's first flow, at 0.25y, lies before the 0.5y knot."""
    from curvehedge import ExtrapolationError, snapshot

    q = Bond("Q", 100.0, 0.04, 4, 5.0)
    for call in (lambda: curve_analytics(q, curve, mode="spot"),
                 lambda: snapshot(q, curve, mode="spot")):
        with pytest.raises(ExtrapolationError,
                           match=r"bond 'Q': cashflow at t=0.25 lies before .* 0.5"):
            call()
    assert curve_analytics(q, curve).price > 0.0  # flat mode only needs the maturity


def test_curve_analytics_unknown_mode(universe, curve):
    with pytest.raises(ValueError, match="mode"):
        curve_analytics(universe["B2"], curve, mode="banana")


# ---------------------------------------------------------------------------
# second-order P&L approximation
# ---------------------------------------------------------------------------

def test_pnl_approx_direct_arithmetic():
    assert pnl_approx(100.0, 1.0, 2.0, 0.01) == pytest.approx(-0.99)
    assert pnl_approx(100.0, 5.0, 30.0, -0.002) == pytest.approx(1.006)


def test_pnl_approx_zero_shock():
    assert pnl_approx(123.4, 4.2, 25.0, 0.0) == 0.0


def test_pnl_approx_requires_positive_price():
    with pytest.raises(ValueError, match="price"):
        pnl_approx(0.0, 4.0, 20.0, 0.01)


@pytest.mark.parametrize("dy", [0.02, 0.01, 0.005])
def test_pnl_approx_error_scales_cubically(dy):
    """Halving dy cuts the approximation error by ~8x (third-order term)."""
    b = Bond("c", 100.0, 0.04, 1, 6.0)
    y = 0.035
    a = analytics(b, y)

    def err(step: float) -> float:
        exact = price(b, y + step) - a.price
        return abs(exact - pnl_approx(a.price, a.modified_duration, a.convexity, step))

    ratio = err(dy) / err(dy / 2)
    assert 7.0 <= ratio <= 9.0
