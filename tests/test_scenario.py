"""Exact-repricing scenarios: closed-form oracles, second-order residual
accounting, and the dyadic scaling law behind the order estimates."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvehedge import (
    Bond,
    HedgeLeg,
    HedgePlan,
    ShockSpec,
    Strategy,
    YieldCurve,
    apply_shock,
    convexity_hedge,
    cubic_hedge,
    delta_y,
    duration_hedge,
    estimate_order,
    fit_segment,
    quadratic_hedge,
    reprice_pnl,
    residual_scaling,
    run_scenario,
    run_scenarios,
)
from curvehedge.scenario import ScenarioResult, default_segment


def parallel(curve: YieldCurve, eps: float) -> ShockSpec:
    return ShockSpec.from_vector([eps] * len(curve.tenors))


def affine(curve: YieldCurve, a: float, b: float) -> ShockSpec:
    return ShockSpec.from_vector([a + b * t for t in curve.tenors])


def quad_in_t(curve: YieldCurve, a: float, b: float, c: float) -> ShockSpec:
    return ShockSpec.from_vector([a + b * t + c * t * t for t in curve.tenors])


@pytest.fixture
def plans(snaps):
    return {
        "duration": duration_hedge(snaps["B2"], snaps["B3"]),
        "quadratic": quadratic_hedge(snaps["B2"], snaps["B3"], snaps["B1"]),
        "convexity": convexity_hedge(snaps["B2"], snaps["B3"], snaps["B1"]),
        "cubic": cubic_hedge(snaps["B2"], snaps["B3"], snaps["B1"], snaps["B4"]),
    }


# ---------------------------------------------------------------------------
# reprice_pnl
# ---------------------------------------------------------------------------

def test_reprice_zero_shock(universe, curve):
    shocked = apply_shock(curve, parallel(curve, 0.0))
    for bond in universe.values():
        assert reprice_pnl(bond, curve, shocked) == 0.0


def test_reprice_zero_coupon_closed_form():
    import datetime as dt

    c = YieldCurve(dt.date(2024, 1, 2), (0.5, 1.0, 2.0), (0.05, 0.05, 0.05))
    shocked = apply_shock(c, parallel(c, 0.01))
    zc = Bond("z", 100.0, 0.0, 1, 1.0)
    assert reprice_pnl(zc, c, shocked) == pytest.approx(100 / 1.06 - 100 / 1.05, abs=1e-12)


def test_reprice_path_independence(universe, curve):
    eps = 0.0013
    up = apply_shock(curve, parallel(curve, eps))
    for bond in universe.values():
        there = reprice_pnl(bond, curve, up)
        back = reprice_pnl(bond, up, curve)
        assert abs(there + back) < 1e-12


def test_reprice_out_of_range(curve):
    from curvehedge import ExtrapolationError

    late = Bond("late", 100.0, 0.03, 1, 30.0)
    with pytest.raises(ExtrapolationError):
        reprice_pnl(late, curve, curve)


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------

def test_scenario_zero_shock_all_zero(plans, universe, curve):
    res = run_scenario(plans["cubic"], universe, curve, parallel(curve, 0.0))
    assert res.unhedged_pnl == 0.0
    assert res.hedged_pnl == 0.0
    assert all(p == 0.0 for _, p in res.per_instrument_pnl)


def test_scenario_hedged_sums_per_instrument(plans, universe, curve):
    shock = quad_in_t(curve, 0.001, 0.0002, 0.00003)
    for plan in plans.values():
        res = run_scenario(plan, universe, curve, shock)
        assert res.hedged_pnl == pytest.approx(
            sum(p for _, p in res.per_instrument_pnl), abs=1e-10
        )


def test_scenario_duration_parallel_second_order(plans, snaps, universe, curve):
    """Residual of the duration plan under +10bp is the convexity term."""
    eps = 0.001
    res = run_scenario(plans["duration"], universe, curve, parallel(curve, eps))
    assert abs(res.hedged_pnl) < 0.01 * abs(res.unhedged_pnl)

    amounts = {leg.id: leg.amount for leg in plans["duration"].legs}
    amounts["B2"] = 100.0
    half_npc = 0.5 * sum(
        amounts[i] * snaps[i].price * snaps[i].convexity for i in amounts
    )
    assert res.hedged_pnl == pytest.approx(half_npc * eps * eps, rel=0.05)


def test_scenario_unknown_instrument(plans, universe, curve):
    bad = {k: v for k, v in universe.items() if k != "B3"}
    with pytest.raises(ValueError, match="B3"):
        run_scenario(plans["duration"], bad, curve, parallel(curve, 0.001))


def test_scenario_quadratic_slope_shock_scales_quadratically(plans, universe, curve):
    full = run_scenario(plans["quadratic"], universe, curve, affine(curve, 0.0, 0.0004))
    half = run_scenario(plans["quadratic"], universe, curve, affine(curve, 0.0, 0.0002))
    ratio = abs(full.hedged_pnl) / abs(half.hedged_pnl)
    assert 3.5 <= ratio <= 4.5


def test_scenario_custom_equals_parametric(plans, universe, curve):
    """A parametric shock and its knot-vector image price identically."""
    seg = fit_segment(curve, curve.min_tenor, curve.max_tenor, 3)
    shock = ShockSpec.parametric(0.0008, 0.05, 0.02)
    vec = ShockSpec.from_vector([delta_y(seg, shock, t) for t in curve.tenors])
    for plan in plans.values():
        res_p = run_scenario(plan, universe, curve, shock, segment=seg)
        res_c = run_scenario(plan, universe, curve, vec)
        for (i1, p1), (i2, p2) in zip(res_p.per_instrument_pnl, res_c.per_instrument_pnl):
            assert i1 == i2
            assert p1 == pytest.approx(p2, abs=1e-12)


def _replay(plan, universe, curve, shock, segment):
    """One shock at a time, each bond repriced off both curves, target first."""
    if shock.is_parametric and segment is None:
        segment = default_segment(curve)
    shocked = apply_shock(curve, shock, segment)
    per = [(plan.target_id,
            plan.target_amount * reprice_pnl(universe[plan.target_id], curve, shocked))]
    per += [(leg.id, leg.amount * reprice_pnl(universe[leg.id], curve, shocked))
            for leg in plan.legs]
    return ScenarioResult(shock, float(per[0][1]), float(sum(p for _, p in per)),
                          tuple((i, float(p)) for i, p in per))


def test_run_scenarios_equals_per_shock_replay(plans, universe, curve):
    """Pricing the base curve once changes no bit of any result."""
    twist = ShockSpec.parametric(0.0008, 0.05, 0.02)
    dyadic = [twist.scaled(0.5**k) for k in range(4)]
    shocks = dyadic + [quad_in_t(curve, 0.001, 0.0002, 0.00003), parallel(curve, 0.0),
                       ShockSpec.parametric()]
    narrow = fit_segment(curve, 1.0, 7.0, 3)
    for plan in plans.values():
        for segment in (None, narrow):
            want = [_replay(plan, universe, curve, s, segment) for s in shocks]
            assert run_scenarios(plan, universe, curve, shocks, segment) == want
            assert [run_scenario(plan, universe, curve, s, segment) for s in shocks] == want
            scaling = residual_scaling(plan, universe, curve, twist, steps=4, segment=segment)
            assert scaling == [(0.5**k, abs(r.hedged_pnl)) for k, r in enumerate(want[:4])]
        assert run_scenarios(plan, universe, curve, []) == []


_amounts = st.floats(-500.0, 500.0).filter(lambda x: abs(x) > 1e-3) | st.just(0.0)


@st.composite
def _sweeps(draw):
    """A random curve, a universe on it (frequencies 1-12, zero coupons), a
    plan with signed amounts, and a mix of parametric, custom and zero shocks;
    half the sweeps hold only level shifts and custom vectors, with no segment."""
    tenors = sorted(draw(st.sets(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0,
                                                  15.0, 20.0, 30.0]), min_size=4)))
    rates = draw(st.lists(st.floats(-0.01, 0.12), min_size=len(tenors), max_size=len(tenors)))
    curve = YieldCurve(dt.date(2024, 1, 2), tuple(tenors), tuple(rates))
    n = draw(st.integers(1, 5))
    bonds = [Bond(f"X{i}", draw(st.sampled_from([100.0, 1000.0])),
                  draw(st.sampled_from([0.0, 0.0125, 0.03, 0.071])),
                  draw(st.sampled_from([1, 2, 4, 12])),
                  draw(st.sampled_from(tenors) | st.floats(tenors[0], tenors[-1])))
             for i in range(n)]
    plan = HedgePlan(Strategy.CUSTOM, "X0", draw(_amounts),
                     tuple(HedgeLeg(b.id, draw(_amounts)) for b in bonds[1:]), ())
    size = st.floats(-2e-3, 2e-3)
    flat = st.one_of(
        st.builds(ShockSpec.parametric, size),
        st.lists(size, min_size=len(tenors), max_size=len(tenors)).map(ShockSpec.from_vector),
        st.just(ShockSpec.parametric()),
        st.just(ShockSpec.from_vector([0.0] * len(tenors))),
    )
    if draw(st.booleans()):  # level shifts and custom vectors with no segment: nothing is fitted
        return plan, {b.id: b for b in bonds}, curve, draw(st.lists(flat, max_size=12)), None
    bent = st.builds(ShockSpec.parametric, size, st.floats(-0.1, 0.1), st.floats(-0.1, 0.1))
    shocks = draw(st.lists(bent | flat, max_size=12))
    segment = None
    if draw(st.booleans()):
        lo, hi = draw(st.lists(st.sampled_from(tenors), min_size=2, max_size=2, unique=True))
        inside = [t for t in tenors if min(lo, hi) <= t <= max(lo, hi)]
        if len(inside) >= 4:
            segment = fit_segment(curve, min(lo, hi), max(lo, hi), 3)
    return plan, {b.id: b for b in bonds}, curve, shocks, segment


@settings(max_examples=300, deadline=None)
@given(_sweeps())
def test_run_scenarios_property_equals_per_shock_replay(sweep):
    """Every float of the block sweep, zero signs included, is the one-shock path's."""
    plan, universe, curve, shocks, segment = sweep
    want = [_replay(plan, universe, curve, s, segment) for s in shocks]
    assert repr(run_scenarios(plan, universe, curve, shocks, segment)) == repr(want)


def test_run_scenarios_zero_shock_negative_amounts_give_positive_zero(universe, curve):
    """A zero shock reprices every bond to its base price bit for bit, also a
    one-flow bond whose flow sits at t = 1 (exponent -1) at a yield where
    1/(1+y) and pow(1+y, -1) can differ in the last bit."""
    curve = YieldCurve(curve.date, curve.tenors, (0.031,) * len(curve.tenors))
    universe = {**universe, "Z": Bond("Z", 100.0, 0.0, 1, 1.0)}
    plan = HedgePlan(Strategy.CUSTOM, "Z", -100.0, (HedgeLeg("B3", -40.0),), ())
    for shocks in ([ShockSpec.parametric()], [parallel(curve, 0.0)] * 3):
        for res in run_scenarios(plan, universe, curve, shocks):
            assert repr(res.hedged_pnl) == "0.0"
            assert [repr(p) for _, p in res.per_instrument_pnl] == ["-0.0", "-0.0"]


@pytest.mark.parametrize("role", ["target", "leg"])
def test_run_scenarios_names_a_bond_off_the_base_curve(universe, curve, role):
    """A plan bond past the last knot fails before any shock, naming the bond."""
    from curvehedge import ExtrapolationError

    universe = {**universe, "L": Bond("L", 100.0, 0.04, 1, 12.0)}
    target, leg = ("L", "B3") if role == "target" else ("B2", "L")
    plan = HedgePlan(Strategy.CUSTOM, target, 100.0, (HedgeLeg(leg, -50.0),), ())
    with pytest.raises(ExtrapolationError) as exc:
        run_scenarios(plan, universe, curve, [parallel(curve, 1e-3)])
    assert str(exc.value) == "bond 'L': maturity 12.0 outside curve range [0.5, 10.0] on 2024-01-02"


def _error(fn):
    with pytest.raises(ValueError) as exc:
        fn()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("position", [0, 2, 4])
def test_run_scenarios_raises_the_first_failing_shocks_error(plans, universe, curve, position):
    """A bad shock anywhere in a sweep raises what apply_shock raises for it."""
    seg = default_segment(curve)
    short = ShockSpec.from_vector([0.001, 0.002])
    sunk = ShockSpec.from_vector([0.0] * (len(curve.tenors) - 1) + [-1.2])
    sunk_par = ShockSpec.parametric(a=-1.5)
    good = [ShockSpec.parametric(1e-3, 0.05, 0.02), parallel(curve, 1e-3)] * 3
    for bad in (short, sunk, sunk_par):
        want = _error(lambda: apply_shock(curve, bad, seg))
        shocks = good[:position] + [bad] + good[position:]
        assert _error(lambda: run_scenarios(plans["cubic"], universe, curve, shocks, seg)) == want
        # only the first failing shock in sweep order is named
        for later in (short, sunk, sunk_par):
            mixed = shocks + good[:1] + [later]
            assert _error(lambda: run_scenarios(plans["cubic"], universe, curve, mixed)) == want


def test_level_sweep_fits_nothing(universe):
    """A level shift reads no fit, so a 2-knot curve, which default_segment
    cannot fit, sweeps level shifts as it sweeps the same constant vectors."""
    curve = YieldCurve(dt.date(2024, 1, 2), (0.5, 10.0), (0.031, 0.042))
    plan = HedgePlan(Strategy.CUSTOM, "B2", 100.0, (HedgeLeg("B3", -40.0), HedgeLeg("B1", 7.5)), ())
    sizes = [1e-3, -2.5e-3, 0.0, 4e-4]
    level = run_scenarios(plan, universe, curve, [ShockSpec.parametric(a) for a in sizes])
    vector = run_scenarios(plan, universe, curve, [parallel(curve, a) for a in sizes])
    assert [r.per_instrument_pnl for r in level] == [r.per_instrument_pnl for r in vector]
    assert [(r.unhedged_pnl, r.hedged_pnl) for r in level] == [
        (r.unhedged_pnl, r.hedged_pnl) for r in vector]
    assert run_scenario(plan, universe, curve, ShockSpec.parametric(1e-3)).per_instrument_pnl == \
        level[0].per_instrument_pnl


def test_level_sweep_without_segment_names_a_sunk_curve(plans, universe, curve):
    """A level shift that sinks the curve raises what apply_shock raises for
    it against a fitted segment, although the sweep fits none."""
    sunk = ShockSpec.parametric(a=-1.5)
    want = _error(lambda: apply_shock(curve, sunk, default_segment(curve)))
    for shocks in ([sunk], [ShockSpec.parametric(1e-3), sunk, parallel(curve, 1e-3)]):
        assert _error(lambda: run_scenarios(plans["cubic"], universe, curve, shocks)) == want


def test_default_segment_degree(curve):
    import datetime as dt

    seg = default_segment(curve)
    assert seg.t_lo == curve.min_tenor and seg.t_hi == curve.max_tenor
    three = YieldCurve(dt.date(2024, 1, 2), (1.0, 2.0, 3.0), (0.02, 0.025, 0.028))
    assert default_segment(three).coefficients[3] == 0.0  # quadratic fallback


# ---------------------------------------------------------------------------
# residual scaling and order estimation
# ---------------------------------------------------------------------------

def test_estimate_order_exact_powers():
    assert estimate_order([(1.0, 1.0), (0.5, 0.5), (0.25, 0.25)]) == pytest.approx(1.0)
    assert estimate_order([(1.0, 1.0), (0.5, 0.25), (0.25, 0.0625)]) == pytest.approx(2.0)
    assert estimate_order([(1.0, 8.0), (0.5, 1.0), (0.25, 0.125)]) == pytest.approx(3.0)
    # a (points, 2) array works as the list of pairs does
    assert estimate_order(np.array([[1.0, 1.0], [0.5, 0.25], [0.25, 0.0625]])) == pytest.approx(2.0)


@pytest.mark.parametrize("scaling,message", [
    ([], "got no points"),
    ([(1.0, 1.0)], "at least two distinct scales to estimate an order, got 1"),
    ([(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)], "at least two distinct scales to estimate an order, got 1"),
    ([(1.0, 1.0), (0.0, 1.0)], "scales must be finite and positive, got 0.0"),
    ([(1.0, 1.0), (-0.5, 1.0)], "scales must be finite and positive, got -0.5"),
    ([(float("nan"), 1.0), (0.5, 1.0)], "scales must be finite and positive, got nan"),
    ([(1.0, 1.0), (float("inf"), 1.0)], "scales must be finite and positive, got inf"),
])
def test_estimate_order_names_bad_input(scaling, message, capfd):
    with pytest.raises(ValueError) as err:
        estimate_order(scaling)
    assert type(err.value) is ValueError and message in str(err.value)
    assert capfd.readouterr() == ("", "")  # nothing from LAPACK


def _polyfit_order(scaling) -> float:
    """Reference: the np.polyfit slope estimate_order took before its closed form."""
    scales = np.array([s for s, _ in scaling])
    residuals = np.maximum(np.array([r for _, r in scaling]), 1e-300)
    return float(np.polyfit(np.log(scales), np.log(residuals), 1)[0])


@st.composite
def _order_sweeps(draw):
    """3-8 distinct scales in (0, 1] with residuals C * s^p * noise, some of
    them zero (floored), dyadic as residual_scaling makes them or random."""
    n = draw(st.integers(3, 8))
    if draw(st.booleans()):
        scales = [0.5**k for k in range(n)]
    else:
        scales = draw(st.lists(st.floats(1e-4, 1.0), min_size=n, max_size=n, unique=True))
    p = draw(st.floats(0.0, 6.0))
    c = draw(st.floats(1e-12, 1e3))
    noise = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    zeros = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [(s, 0.0 if z else c * s**p * e) for s, e, z in zip(scales, noise, zeros)]


@settings(max_examples=500, deadline=None)
@given(_order_sweeps())
def test_estimate_order_equals_polyfit(scaling):
    ref = _polyfit_order(scaling)
    # either slope rounds at about eps * |log r| / (log-scale span), which
    # outgrows a slope near 0 (all residuals floored, say), so agreement is
    # relative to the larger of the two
    xs = np.log([s for s, _ in scaling])
    ys = np.log(np.maximum([r for _, r in scaling], 1e-300))
    size = max(abs(ref), np.max(np.abs(ys)) / (xs.max() - xs.min()))
    assert abs(estimate_order(scaling) - ref) <= 1e-12 * size


def test_residual_scaling_needs_three_steps(plans, universe, curve):
    with pytest.raises(ValueError, match="3"):
        residual_scaling(plans["duration"], universe, curve, parallel(curve, 0.002), steps=2)


def test_duration_parallel_order_two(plans, universe, curve):
    scaling = residual_scaling(plans["duration"], universe, curve, parallel(curve, 0.002))
    assert estimate_order(scaling) == pytest.approx(2.0, abs=0.3)


def test_convexity_parallel_order_three(plans, universe, curve):
    scaling = residual_scaling(plans["convexity"], universe, curve, parallel(curve, 0.002))
    assert estimate_order(scaling) == pytest.approx(3.0, abs=0.4)


def test_scaling_reuses_scales_in_order(plans, universe, curve):
    scaling = residual_scaling(plans["duration"], universe, curve, parallel(curve, 0.002), steps=5)
    assert [s for s, _ in scaling] == [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert all(r >= 0 for _, r in scaling)
