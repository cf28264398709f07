"""Bond analytics: schedule generation, pricing, duration/convexity with
finite-difference oracles, spot-mode pricing against the per-flow loop it
replaced, and the second-order P&L approximation."""

import dataclasses
import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvehedge import (
    Bond,
    BondAnalytics,
    ExtrapolationError,
    ShockSpec,
    YieldCurve,
    analytics,
    cashflows,
    convexity,
    convexity_hedge,
    cubic_hedge,
    curve_analytics,
    duration_hedge,
    modified_duration,
    pnl_approx,
    price,
    quadratic_hedge,
    residual_scaling,
    snapshot,
    spot,
)
import curvehedge.bonds as bonds_module
from curvehedge.bonds import _bond_flows, _counts, _flows, _spot_marks

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


def listed_cashflows(bond: Bond) -> list[tuple[float, float]]:
    """The schedule as Python lists, the way cashflows() used to build it:
    the oracle for the flow table."""
    step = 1.0 / bond.coupon_frequency
    coupon = bond.face * bond.coupon_rate / bond.coupon_frequency
    n = int(math.ceil(bond.maturity * bond.coupon_frequency - 1e-9))
    times = [bond.maturity - k * step for k in range(n)][::-1]

    flows = [(t, coupon) for t in times]
    start = bond.issue_or_first_coupon_offset
    if start is not None and flows:
        first_t = flows[0][0]
        accrual = min(first_t - start, step)
        if accrual <= 1e-9:
            raise ValueError(
                f"bond {bond.id!r}: accrual start {start} is not before first coupon {first_t}"
            )
        if accrual < step - 1e-9:
            flows[0] = (first_t, bond.face * bond.coupon_rate * accrual)
    flows[-1] = (flows[-1][0], flows[-1][1] + bond.face)  # IndexError with no flow
    return [(t, cf) for t, cf in flows if cf != 0.0]


@st.composite
def scheduled_bonds(draw):
    """Frequencies 1, 2, 4 and 12, zero coupons, maturities on a coupon date
    and within 2e-9 of one (either side of the live-flow tolerance), and
    accrual offsets from up to one and a half periods before the first
    coupon to half a period after it (unpriceable), some within 2e-9 of the
    first coupon or of a full period before it."""
    freq = draw(st.sampled_from([1, 2, 4, 12]))
    rate = draw(st.sampled_from([0.0, 0.04]) | st.floats(0.0, 0.2))
    if draw(st.booleans()):
        nudge = draw(st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9]))
        maturity = draw(st.integers(0, 40)) / freq + nudge
        assume(maturity > 0.0)
    else:
        maturity = draw(st.floats(1e-10, 15.0))
    offset = None
    if draw(st.booleans()):
        first = maturity - (math.ceil(maturity * freq - 1e-9) - 1) / freq
        back = draw(st.sampled_from([0.0, 1.0]) | st.floats(-0.5, 1.5))
        offset = first - back / freq - draw(st.sampled_from([0.0, 5e-10, -5e-10, 2e-9, -2e-9]))
    face = draw(st.sampled_from([100.0]) | st.floats(0.01, 1e6))
    return Bond("h", face, rate, freq, maturity, issue_or_first_coupon_offset=offset)


@given(scheduled_bonds())
@settings(max_examples=500, deadline=None)
def test_cashflows_equal_the_listed_schedule(bond):
    """cashflows() reads the flow table: the same pairs as the list code, and
    its errors with the same type and message; a bond with no live flow,
    where the list code failed on an empty list, is a ValueError naming it."""
    try:
        want = repr(listed_cashflows(bond))
    except IndexError:
        want = ValueError(f"bond 'h': maturity {bond.maturity} leaves no cashflow to price")
    except ValueError as exc:
        want = exc
    try:
        got = repr(cashflows(bond))
    except ValueError as exc:
        got = exc
    if isinstance(want, str):
        assert got == want
    else:
        assert (type(got), str(got)) == (type(want), str(want))


def test_bond_with_no_live_flow_names_the_bond():
    tiny = Bond("tiny", 100.0, 0.05, 2, 1e-10)
    for call in (lambda: cashflows(tiny), lambda: price(tiny, 0.03),
                 lambda: analytics(tiny, 0.03)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "bond 'tiny': maturity 1e-10 leaves no cashflow to price"


def test_rolled_shortens_maturity():
    b = Bond("r", 100.0, 0.03, 1, 5.0)
    r = b.rolled(1.5)
    assert r.maturity == pytest.approx(3.5)
    assert r.id == b.id and r.coupon_rate == b.coupon_rate


def test_flow_table_is_built_once_per_bond(monkeypatch):
    """An audit-style set: five snapshots, four plans, then a level sweep of
    every plan and a twist sweep of the quadratic and cubic plans."""
    builds = []

    def counted(bond, *args):
        builds.append(bond.id)
        return _flows(bond, *args)

    monkeypatch.setattr(bonds_module, "_flows", counted)
    tenors = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 15.0)
    curve = YieldCurve(dt.date(2024, 1, 2), tenors,
                       tuple(0.02 + 0.004 * t - 0.0002 * t * t for t in tenors))
    hedges = [Bond("H0", 100.0, 0.03, 2, 1.7), Bond("H1", 100.0, 0.045, 1, 3.9),
              Bond("H2", 100.0, 0.02, 2, 6.4), Bond("H3", 100.0, 0.055, 1, 9.3)]
    target = Bond("T", 100.0, 0.04, 1, 5.1)
    s0, s1, s2, s3 = (snapshot(b, curve) for b in hedges)
    t = snapshot(target, curve, amount=120.0)
    plans = [duration_hedge(t, s2), quadratic_hedge(t, s0, s3),
             convexity_hedge(t, s1, s2), cubic_hedge(t, s0, s1, s3)]
    universe = {b.id: b for b in [*hedges, target]}
    for plan in plans:
        residual_scaling(plan, universe, curve, ShockSpec.parametric(a=0.002), steps=4)
    for plan in (plans[1], plans[3]):
        residual_scaling(plan, universe, curve, ShockSpec.parametric(c=1.0), steps=4)
    assert sorted(builds) == ["H0", "H1", "H2", "H3", "T"]


def test_flow_table_is_read_only_and_per_instance():
    bond = Bond("b", 100.0, 0.04, 2, 3.3)
    t, cf = _bond_flows(bond)
    assert _bond_flows(bond)[0] is t
    for arr in (t, cf):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    rolled = bond.rolled(0.25)
    rt, rcf = _bond_flows(rolled)
    assert rt is not t and rt.tolist() == pytest.approx((t - 0.25).tolist())
    assert rcf.tolist() == cf.tolist()
    fresh = Bond("b", 100.0, 0.04, 2, bond.maturity - 0.25)
    assert analytics(rolled, 0.03) == analytics(fresh, 0.03)
    richer = dataclasses.replace(bond, coupon_rate=0.06)
    assert _bond_flows(richer)[1][0] == 3.0 and cf[0] == 2.0


@pytest.mark.parametrize("bond,message", [
    (Bond("tiny", 100.0, 0.05, 2, 1e-10), "leaves no cashflow"),
    (Bond("late", 100.0, 0.04, 2, 1.0, issue_or_first_coupon_offset=0.6), "accrual start"),
])
def test_unpriceable_bond_raises_on_every_call(bond, message):
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            price(bond, 0.03)


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


def looped_spot(bond: Bond, curve: YieldCurve) -> BondAnalytics:
    """Spot-mode analytics the way curve_analytics used to take them, one
    spot() lookup per flow: the oracle for the table's one-row case."""
    y = spot(curve, bond.maturity)
    flows = listed_cashflows(bond)
    t, cf = np.array([f[0] for f in flows]), np.array([f[1] for f in flows])
    try:
        rates = np.array([spot(curve, ti) for ti in t])
    except ExtrapolationError as exc:
        raise ExtrapolationError(
            f"bond {bond.id!r}: cashflow at t={t[0]} lies before the curve's shortest "
            f"tenor {curve.min_tenor} on {curve.date}; spot mode does not extrapolate"
        ) from exc
    pv = cf * (1.0 + rates) ** (-t)
    p = float(np.sum(pv))
    d = float(np.sum(t * pv / (1.0 + rates))) / p
    cx = float(np.sum(t * (t + 1.0) * pv / (1.0 + rates) ** 2)) / p
    return BondAnalytics(price=p, ytm=y, modified_duration=d, convexity=cx)


def outcome(call):
    """repr of a call's result, or its error's type and message."""
    try:
        return repr(call())
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def spot_curves(draw, last=None):
    """Curves whose first knot lies from a day to a year out, with knots on
    and between coupon dates, up to 16 years (or ending at `last`)."""
    first = draw(st.sampled_from([1 / 365, 0.05, 0.25, 0.5]) | st.floats(1 / 365, 1.0))
    inner = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0])
                          | st.floats(first, 16.0), min_size=1, max_size=9))
    tenors = tuple(sorted({first, *inner} if last is None else {first, *inner, last}))
    assume(len(tenors) >= 2)
    rates = draw(st.lists(st.floats(-0.02, 0.15), min_size=len(tenors), max_size=len(tenors)))
    return YieldCurve(dt.date(2024, 1, 2), tenors, tuple(rates))


@given(scheduled_bonds(), spot_curves(), st.sampled_from([None, 0.0, 5e-10, -5e-10, 2e-9]))
@settings(max_examples=500, deadline=None)
def test_spot_mode_equals_the_per_flow_loop(bond, curve, nudge):
    """Spot mode reads its rates from one interpolation at the table's flow
    times: every float, and every error, as the per-flow spot() loop gave.
    With a nudge the first knot sits that far past the earliest flow, on
    either side of spot's tolerance."""
    try:
        first = listed_cashflows(bond)[0][0]
    except (IndexError, ValueError):
        first = None
    if nudge is not None and first is not None and 0 < first + nudge < curve.tenors[1]:
        curve = YieldCurve(curve.date, (first + nudge, *curve.tenors[1:]), curve.rates)
    assert outcome(lambda: curve_analytics(bond, curve, mode="spot")) == outcome(
        lambda: looped_spot(bond, curve))


@given(scheduled_bonds(), spot_curves(last=16.0),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 7]))
@settings(max_examples=20, deadline=None)
def test_spot_marks_over_rolled_rows_equal_curve_analytics(bond, curve, seed, gap):
    """Up to 2500 rolled rows, each off its own curve, priced as one flow
    table per run of equal live-flow counts: each row is == to spot-mode
    curve_analytics on the rolled bond, which raises exactly on the rows
    whose accrual start is not before the first coupon or whose earliest
    (non-zero) flow lies before the shortest tenor."""
    elapsed = np.arange(2500) * gap / 365.0
    m = bond.maturity - elapsed
    elapsed = elapsed[(m >= curve.min_tenor) & (m <= curve.max_tenor)]  # spot's own span
    assume(len(elapsed))
    rng = np.random.default_rng(seed)
    rates = np.asarray(curve.rates) + 0.005 * rng.standard_normal((len(elapsed), len(curve.tenors)))
    rates = np.maximum(rates, -0.5)
    m, n = _counts(bond, elapsed)
    cuts = np.flatnonzero(np.diff(n, prepend=0, append=0)).tolist()
    for a, b in zip(cuts, cuts[1:]):
        t, cf, late = _flows(bond, elapsed[a:b], int(n[a]))
        p, d, c = _spot_marks(t, cf, curve.tenors, rates[a:b])
        first = np.where(cf != 0.0, t, np.inf).min(axis=1)
        for r in range(b - a):
            k = a + r
            rolled = bond.rolled(float(elapsed[k]))
            row_curve = YieldCurve(curve.date, curve.tenors, tuple(rates[k].tolist()))
            got = outcome(lambda: curve_analytics(rolled, row_curve, mode="spot"))
            if np.broadcast_to(late, (b - a,))[r]:
                assert got[0] is ValueError and "accrual start" in got[1], k
            elif first[r] < curve.min_tenor - 1e-9:
                assert got[0] is ExtrapolationError, k
            else:
                y = spot(row_curve, rolled.maturity)
                assert got == repr(BondAnalytics(float(p[r]), y, float(d[r]), float(c[r]))), k


def test_spot_mode_never_looks_up_a_zero_coupon_bonds_coupon_dates(curve):
    """A 5.3y semiannual zero has coupon dates at 0.3y, 0.8y, ... but pays
    only at maturity, so it prices in spot mode on a curve starting at 0.5y."""
    zero = Bond("Z", 100.0, 0.0, 2, 5.3)
    assert curve.min_tenor == 0.5
    a = curve_analytics(zero, curve, mode="spot")
    assert repr(a) == repr(looped_spot(zero, curve))
    assert a.price == pytest.approx(100.0 * (1.0 + spot(curve, 5.3)) ** -5.3, rel=1e-14)


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
    nan, inf = float("nan"), float("inf")
    for args, name, bad in (((nan, 4.0, 20.0, 0.01), "price", nan),
                            ((inf, 4.0, 20.0, 0.01), "price", inf),
                            ((100.0, nan, 20.0, 0.01), "duration", nan),
                            ((100.0, 4.0, -inf, 0.01), "convexity", -inf),
                            ((100.0, 4.0, 20.0, nan), "dy", nan)):
        with pytest.raises(ValueError) as err:
            pnl_approx(*args)
        assert str(err.value) == f"{name} must be finite, got {bad}"


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
