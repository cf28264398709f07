"""Hedge ratios: spec'd worked examples, independent linear-system oracles,
algebraic invariants (collapse, permutation, homogeneity, shock kills)."""

import dataclasses
import datetime as dt
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvehedge import (
    CollinearInstrumentError,
    DegenerateSpanError,
    ExtrapolationError,
    HedgePlan,
    InstrumentSnapshot,
    SingularSystemError,
    Strategy,
    aggregate_portfolio,
    build_plan,
    convexity_hedge,
    cubic_hedge,
    duration_hedge,
    quadratic_hedge,
    solve_constraint_hedge,
)
from curvehedge.hedging import (
    DOLLAR_CONVEXITY,
    DOLLAR_DURATION,
    DURATION_MATURITY,
    DURATION_MATURITY_SQ,
    STRATEGIES,
    Constraint,
    _ratios,
)


def snap(id, price, maturity, dur, cx, amount=0.0):
    return InstrumentSnapshot(id, price, maturity, dur, cx, amount)


def random_instruments(rng, n, t_lo=1.0, t_hi=10.0, min_gap=0.8):
    """n instruments with well-separated maturities and plausible risk numbers."""
    while True:
        ts = np.sort(rng.uniform(t_lo, t_hi, n))
        if np.all(np.diff(ts) >= min_gap):
            break
    out = []
    for i, t in enumerate(ts):
        d = t * rng.uniform(0.65, 0.95)
        c = d * d * rng.uniform(1.1, 1.5) + d
        out.append(snap(f"I{i}", rng.uniform(80.0, 120.0), float(t), float(d), float(c)))
    return out


def random_target(rng, instruments):
    ts = [s.maturity for s in instruments]
    t = rng.uniform(min(ts), max(ts))
    d = t * rng.uniform(0.65, 0.95)
    c = d * d * rng.uniform(1.1, 1.5) + d
    return snap("TGT", rng.uniform(80.0, 120.0), float(t), float(d), float(c),
                amount=rng.uniform(10.0, 200.0))


def plan_amounts(plan: HedgePlan) -> dict[str, float]:
    return {leg.id: leg.amount for leg in plan.legs}


# ---------------------------------------------------------------------------
# duration hedge
# ---------------------------------------------------------------------------

def test_duration_identical_instrument():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    plan = duration_hedge(t, snap("A", 100.0, 5.0, 5.0, 30.0))
    assert plan.legs[0].amount == -100.0


def test_duration_double_duration_half_size():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    plan = duration_hedge(t, snap("A", 100.0, 8.0, 10.0, 90.0))
    assert plan.legs[0].amount == -50.0


def test_duration_defining_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        insts = random_instruments(rng, 1)
        t = random_target(rng, insts + [snap("pad", 100, 9.5, 6, 40)])
        plan = duration_hedge(t, insts[0])
        n_a = plan.legs[0].amount
        total = n_a * insts[0].price * insts[0].modified_duration + \
            t.amount * t.price * t.modified_duration
        assert abs(total) <= 1e-9 * abs(t.amount * t.price * t.modified_duration)


def test_duration_plan_shape():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    plan = duration_hedge(t, snap("A", 100.0, 4.0, 4.0, 20.0))
    assert plan.strategy is Strategy.DURATION
    assert plan.target_id == "T" and plan.target_amount == 100.0
    assert [n for n, _ in plan.constraints] == ["dollar_duration"]


# ---------------------------------------------------------------------------
# quadratic hedge
# ---------------------------------------------------------------------------

def test_quadratic_worked_example():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    a = snap("A", 100.0, 4.0, 4.0, 20.0)
    b = snap("B", 100.0, 7.0, 7.0, 55.0)
    plan = quadratic_hedge(t, a, b)
    amounts = plan_amounts(plan)
    assert amounts["A"] == pytest.approx(-250.0 / 3.0, rel=1e-12)
    assert amounts["B"] == pytest.approx(-500.0 / 21.0, rel=1e-12)


def test_quadratic_worked_example_against_linear_solve():
    """Independent 2x2 solve of {sum NPD = 0, sum NPDT = 0}."""
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    a = snap("A", 100.0, 4.0, 4.0, 20.0)
    b = snap("B", 100.0, 7.0, 7.0, 55.0)
    m = np.array([
        [a.price * a.modified_duration, b.price * b.modified_duration],
        [a.price * a.modified_duration * a.maturity,
         b.price * b.modified_duration * b.maturity],
    ])
    rhs = -t.amount * t.price * t.modified_duration * np.array([1.0, t.maturity])
    n = np.linalg.solve(m, rhs)
    amounts = plan_amounts(quadratic_hedge(t, a, b))
    assert amounts["A"] == pytest.approx(n[0], rel=1e-12)
    assert amounts["B"] == pytest.approx(n[1], rel=1e-12)


def test_quadratic_endpoint_collapse_is_duration_hedge():
    a = snap("A", 98.0, 4.0, 3.6, 18.0)
    b = snap("B", 97.0, 7.0, 6.1, 45.0)
    t = snap("T", 95.0, 4.0, 3.9, 19.0, amount=100.0)  # T == T_A
    plan = quadratic_hedge(t, a, b)
    amounts = plan_amounts(plan)
    assert amounts["B"] == 0.0
    assert amounts["A"] == duration_hedge(t, a).legs[0].amount


def test_quadratic_midpoint_splits_dollar_duration():
    a = snap("A", 98.0, 4.0, 3.6, 18.0)
    b = snap("B", 97.0, 8.0, 6.1, 45.0)
    t = snap("T", 95.0, 6.0, 4.9, 28.0, amount=100.0)
    amounts = plan_amounts(quadratic_hedge(t, a, b))
    npd = t.amount * t.price * t.modified_duration
    assert amounts["A"] * a.price * a.modified_duration == pytest.approx(-npd / 2)
    assert amounts["B"] * b.price * b.modified_duration == pytest.approx(-npd / 2)


def test_quadratic_legs_nonpositive_inside_span():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, b = random_instruments(rng, 2)
        t = random_target(rng, [a, b])
        for amt in plan_amounts(quadratic_hedge(t, a, b)).values():
            assert amt <= 0.0


def test_quadratic_argument_order_irrelevant():
    a = snap("A", 98.0, 4.0, 3.6, 18.0)
    b = snap("B", 97.0, 7.0, 6.1, 45.0)
    t = snap("T", 95.0, 5.0, 4.2, 24.0, amount=100.0)
    assert plan_amounts(quadratic_hedge(t, a, b)) == plan_amounts(quadratic_hedge(t, b, a))


def test_quadratic_degenerate_span():
    a = snap("A", 98.0, 4.0, 3.6, 18.0)
    b = snap("B", 97.0, 4.0005, 3.61, 18.1)
    t = snap("T", 95.0, 4.0, 3.9, 19.0, amount=100.0)
    with pytest.raises(DegenerateSpanError):
        quadratic_hedge(t, a, b)


def test_quadratic_extrapolation_guard():
    a = snap("A", 98.0, 4.0, 3.6, 18.0)
    b = snap("B", 97.0, 7.0, 6.1, 45.0)
    t = snap("T", 95.0, 8.0, 6.8, 55.0, amount=100.0)
    with pytest.raises(ExtrapolationError, match="allow_extrapolation"):
        quadratic_hedge(t, a, b)
    plan = quadratic_hedge(t, a, b, allow_extrapolation=True)
    npd = t.amount * t.price * t.modified_duration
    for name, value in plan.constraints:
        assert abs(value) <= 1e-9 * npd


# ---------------------------------------------------------------------------
# convexity hedge
# ---------------------------------------------------------------------------

def test_convexity_worked_example():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    a = snap("A", 100.0, 4.0, 4.0, 20.0)
    b = snap("B", 100.0, 7.0, 7.0, 55.0)
    amounts = plan_amounts(convexity_hedge(t, a, b))
    assert amounts["A"] == pytest.approx(-81.25, rel=1e-12)
    assert amounts["B"] == pytest.approx(-25.0, rel=1e-12)


def test_convexity_zeroes_both_sums_by_substitution():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    a = snap("A", 100.0, 4.0, 4.0, 20.0)
    b = snap("B", 100.0, 7.0, 7.0, 55.0)
    amounts = plan_amounts(convexity_hedge(t, a, b))
    npd = sum([
        t.amount * t.price * t.modified_duration,
        amounts["A"] * a.price * a.modified_duration,
        amounts["B"] * b.price * b.modified_duration,
    ])
    npc = sum([
        t.amount * t.price * t.convexity,
        amounts["A"] * a.price * a.convexity,
        amounts["B"] * b.price * b.convexity,
    ])
    assert abs(npd) <= 1e-9 * abs(t.amount * t.price * t.modified_duration)
    assert abs(npc) <= 1e-9 * abs(t.amount * t.price * t.convexity)


def test_convexity_self_hedge():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    a = snap("A", 100.0, 5.0, 5.0, 30.0)  # identical analytics
    b = snap("B", 100.0, 7.0, 7.0, 55.0)
    amounts = plan_amounts(convexity_hedge(t, a, b))
    assert amounts["A"] == pytest.approx(-100.0)
    assert amounts["B"] == pytest.approx(0.0, abs=1e-12)


def test_convexity_collinear_error():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    a = snap("A", 100.0, 4.0, 4.0, 20.0)
    b = snap("B", 100.0, 7.0, 8.0, 40.0)  # C_B / D_B == C_A / D_A == 5
    with pytest.raises(CollinearInstrumentError):
        convexity_hedge(t, a, b)


# ---------------------------------------------------------------------------
# cubic hedge
# ---------------------------------------------------------------------------

def test_cubic_node_collapse():
    a = snap("A", 98.0, 4.0, 3.6, 18.0)
    c = snap("C", 96.0, 5.5, 4.8, 28.0)
    b = snap("B", 97.0, 7.0, 6.1, 45.0)
    t = snap("T", 95.0, 5.5, 4.6, 26.0, amount=100.0)  # T == middle node
    amounts = plan_amounts(cubic_hedge(t, a, b, c))
    assert amounts["A"] == 0.0
    assert amounts["B"] == 0.0
    assert amounts["C"] == pytest.approx(duration_hedge(t, c).legs[0].amount)


def test_cubic_partition_of_unity():
    rng = np.random.default_rng(9)
    for _ in range(30):
        insts = random_instruments(rng, 3)
        t = random_target(rng, insts)
        plan = cubic_hedge(t, *insts)
        by_id = {s.id: s for s in insts}
        npd = t.amount * t.price * t.modified_duration
        total = sum(
            leg.amount * by_id[leg.id].price * by_id[leg.id].modified_duration
            for leg in plan.legs
        )
        assert total == pytest.approx(-npd, rel=1e-12)


def test_cubic_against_linear_solve():
    t = snap("T", 95.76, 5.0, 4.53, 25.6, amount=100.0)
    insts = [
        snap("A", 96.67, 4.0, 3.70, 17.6),
        snap("C", 95.52, 5.5, 4.89, 29.8),
        snap("B", 94.48, 7.0, 6.06, 44.9),
    ]
    m = np.array([
        [s.price * s.modified_duration * s.maturity**k for s in insts]
        for k in range(3)
    ])
    rhs = np.array([
        -t.amount * t.price * t.modified_duration * t.maturity**k for k in range(3)
    ])
    n = np.linalg.solve(m, rhs)
    amounts = plan_amounts(cubic_hedge(t, *insts))
    for want, s in zip(n, insts):
        assert amounts[s.id] == pytest.approx(want, rel=1e-12)


def test_cubic_permutation_invariant():
    insts = [
        snap("A", 96.67, 4.0, 3.70, 17.6),
        snap("C", 95.52, 5.5, 4.89, 29.8),
        snap("B", 94.48, 7.0, 6.06, 44.9),
    ]
    t = snap("T", 95.76, 5.0, 4.53, 25.6, amount=100.0)
    reference = plan_amounts(cubic_hedge(t, *insts))
    for perm in itertools.permutations(insts):
        assert plan_amounts(cubic_hedge(t, *perm)) == reference


def test_cubic_degenerate_nodes():
    t = snap("T", 95.0, 5.0, 4.5, 26.0, amount=100.0)
    with pytest.raises(DegenerateSpanError):
        cubic_hedge(
            t,
            snap("A", 98.0, 4.0, 3.6, 18.0),
            snap("B", 97.0, 4.0002, 3.61, 18.1),
            snap("C", 96.0, 7.0, 6.1, 45.0),
        )


def test_cubic_extrapolation_guard():
    t = snap("T", 95.0, 9.0, 7.4, 64.0, amount=100.0)
    args = (
        snap("A", 98.0, 4.0, 3.6, 18.0),
        snap("C", 96.0, 5.5, 4.8, 28.0),
        snap("B", 97.0, 7.0, 6.1, 45.0),
    )
    with pytest.raises(ExtrapolationError):
        cubic_hedge(t, *args)
    assert len(cubic_hedge(t, *args, allow_extrapolation=True).legs) == 3


# ---------------------------------------------------------------------------
# shock-kill properties
# ---------------------------------------------------------------------------

def _first_order_pnl(t, insts, amounts, shift):
    """sum N P D dY(T) with the target included; shift maps maturity to dY."""
    total = -t.amount * t.price * t.modified_duration * shift(t.maturity)
    for s in insts:
        total += -amounts[s.id] * s.price * s.modified_duration * shift(s.maturity)
    return total


def test_quadratic_kills_affine_shocks():
    rng = np.random.default_rng(17)
    for _ in range(20):
        insts = random_instruments(rng, 2)
        t = random_target(rng, insts)
        amounts = plan_amounts(quadratic_hedge(t, *insts))
        a, b = rng.uniform(-0.002, 0.002, 2)
        leak = _first_order_pnl(t, insts, amounts, lambda T: a + b * T)
        scale = abs(t.amount * t.price * t.modified_duration) * (abs(a) + abs(b) * 10)
        assert abs(leak) <= 1e-9 * max(scale, 1e-12)


def test_cubic_kills_quadratic_shocks():
    rng = np.random.default_rng(19)
    for _ in range(20):
        insts = random_instruments(rng, 3)
        t = random_target(rng, insts)
        amounts = plan_amounts(cubic_hedge(t, *insts))
        a, b, c = rng.uniform(-0.002, 0.002, 3)
        leak = _first_order_pnl(t, insts, amounts, lambda T: a + b * T + c * T * T)
        scale = abs(t.amount * t.price * t.modified_duration) * (abs(a) + 10 * abs(b) + 100 * abs(c))
        assert abs(leak) <= 1e-9 * max(scale, 1e-12)


def test_homogeneity_in_target_amount():
    base = snap("T", 95.76, 5.0, 4.53, 25.6, amount=100.0)
    doubled = dataclasses.replace(base, amount=200.0)
    insts2 = [snap("A", 96.67, 4.0, 3.70, 17.6), snap("B", 94.48, 7.0, 6.06, 44.9)]
    insts3 = insts2 + [snap("C", 95.52, 5.5, 4.89, 29.8)]
    pairs = [
        (duration_hedge(base, insts2[0]), duration_hedge(doubled, insts2[0])),
        (quadratic_hedge(base, *insts2), quadratic_hedge(doubled, *insts2)),
        (convexity_hedge(base, *insts2), convexity_hedge(doubled, *insts2)),
        (cubic_hedge(base, *insts3), cubic_hedge(doubled, *insts3)),
    ]
    for p1, p2 in pairs:
        for leg1, leg2 in zip(p1.legs, p2.legs):
            assert leg2.amount == 2.0 * leg1.amount  # exact for a power of two


# ---------------------------------------------------------------------------
# build_plan over the strategy table, on random instrument sets
# ---------------------------------------------------------------------------

def _risk_snap(draw, id, maturity, amount=0.0):
    d = maturity * draw(st.floats(0.5, 1.0))
    c = d * d * draw(st.floats(1.0, 1.6)) + d
    return snap(id, draw(st.floats(50.0, 150.0)), maturity, d, c, amount)


@st.composite
def hedge_cases(draw):
    """A table strategy, its legs (distinct maturities) and an interior target."""
    strategy = draw(st.sampled_from(list(STRATEGIES)))
    n = STRATEGIES[strategy].legs
    ts = sorted(draw(st.lists(st.floats(0.5, 30.0), min_size=n, max_size=n)))
    assume(all(b - a >= 0.25 for a, b in zip(ts, ts[1:])))
    legs = [_risk_snap(draw, f"L{i}", t) for i, t in enumerate(ts)]
    t = ts[0] + draw(st.floats(0.0, 1.0)) * (ts[-1] - ts[0]) if n > 1 else draw(st.floats(0.5, 30.0))
    amount = draw(st.floats(1.0, 500.0)) * draw(st.sampled_from([-1.0, 1.0]))
    target = _risk_snap(draw, "TGT", t, amount)
    if strategy is Strategy.CONVEXITY:
        a, b = legs
        det = a.convexity * b.modified_duration - b.convexity * a.modified_duration
        assume(abs(det) > 1e-3 * max(a.convexity * b.modified_duration,
                                     b.convexity * a.modified_duration))
    return strategy, target, legs


@settings(max_examples=300, deadline=None)
@given(case=hedge_cases(), order=st.randoms(use_true_random=False), scale=st.floats(0.1, 10.0))
def test_build_plan_properties(case, order, scale):
    strategy, target, legs = case
    plan = build_plan(strategy, target, legs)
    npd = abs(target.amount * target.price * target.modified_duration)
    assert [name for name, _ in plan.constraints] == [
        c.name for c in STRATEGIES[strategy].constraints]
    for name, value in plan.constraints:
        assert abs(value) <= 1e-9 * npd, name

    # a leg that comes out of a cancellation is measured against the amount
    # that would offset the target's whole dollar duration, as the benchmark does
    solved = solve_constraint_hedge(target, legs, STRATEGIES[strategy].constraints).amounts()
    by_id = {s.id: s for s in legs}
    for leg in plan.legs:
        full = npd / (by_id[leg.id].price * by_id[leg.id].modified_duration)
        assert abs(solved[leg.id] - leg.amount) <= 1e-12 * max(abs(leg.amount), full), leg.id

    shuffled = list(legs)
    order.shuffle(shuffled)
    assert build_plan(strategy, target, shuffled).legs == plan.legs

    scaled = build_plan(strategy, dataclasses.replace(target, amount=scale * target.amount),
                        legs)
    for leg, ref in zip(scaled.legs, plan.legs):
        assert leg.id == ref.id
        assert leg.amount == pytest.approx(scale * ref.amount, rel=1e-12)


def test_build_plan_rejects_custom_and_wrong_leg_count(snaps):
    with pytest.raises(ValueError, match="no closed form"):
        build_plan(Strategy.CUSTOM, snaps["B2"], [snaps["B3"]])
    with pytest.raises(ValueError, match="needs 2 instruments, got 1"):
        build_plan(Strategy.QUADRATIC, snaps["B2"], [snaps["B3"]])


# ---------------------------------------------------------------------------
# the closed forms over many dates at once
# ---------------------------------------------------------------------------

FIELDS = ("price", "maturity", "modified_duration", "convexity")


def float_ratios(strategy, target, legs):
    """The closed forms in Python floats on one date, legs sorted by maturity."""
    legs = sorted(legs, key=lambda s: s.maturity)
    if strategy is Strategy.CONVEXITY:
        a, b = legs
        det = a.convexity * b.modified_duration - b.convexity * a.modified_duration
        np_, d, c = target.amount * target.price, target.modified_duration, target.convexity
        return [(a.id, np_ * (b.convexity * d - c * b.modified_duration) / (a.price * det)),
                (b.id, np_ * (-a.convexity * d + a.modified_duration * c) / (b.price * det))]
    npd = target.amount * target.price * target.modified_duration
    out = []
    for leg in legs:
        basis = 1.0
        for other in legs:
            if other is not leg:
                basis *= (target.maturity - other.maturity) / (leg.maturity - other.maturity)
        out.append((leg.id, -npd * basis / (leg.price * leg.modified_duration)))
    return out


@st.composite
def ratio_dates(draw):
    """A table strategy, a target amount and 1-6 dates of target and legs.

    The legs come in any maturity order on the first date and roll by one
    common nondecreasing elapsed time, so they keep that order; their risk
    numbers and the target are drawn per date. A span flaw (two legs within
    a day of each other, or on the same maturity) is planted on every date;
    the target outside the legs' span (or just inside its tolerance), or
    proportional (D, C) pairs, on the dates of a drawn subset."""
    strategy = draw(st.sampled_from(list(STRATEGIES)))
    n = STRATEGIES[strategy].legs
    count = draw(st.integers(1, 6))
    checked = "collinear" if strategy is Strategy.CONVEXITY else "outside"
    flaw = draw(st.sampled_from([None, "span", checked]))
    flawed = draw(st.sets(st.integers(0, count - 1))) if flaw == checked else set()
    amount = draw(st.floats(1.0, 500.0)) * draw(st.sampled_from([-1.0, 1.0]))
    first = draw(st.lists(st.floats(0.5, 30.0), min_size=n, max_size=n))
    if flaw == "span" and n > 1:
        first[-1] = first[0] + draw(st.sampled_from([0.0, 1e-4, 1.0 / 365.0]))
    elapsed = [0.0, *sorted(draw(st.lists(st.just(0.0) | st.floats(0.0, 0.9 * min(first)),
                                          min_size=count - 1, max_size=count - 1)))]
    rows = []
    for k, e in enumerate(elapsed):
        ts = [t - e for t in first]
        legs = [_risk_snap(draw, f"L{i}", t) for i, t in enumerate(ts)]
        if k in flawed and flaw == "collinear":
            ratio = draw(st.sampled_from([1.0, 2.0, 0.3]))
            legs[1] = snap("L1", legs[1].price, legs[1].maturity,
                           ratio * legs[0].modified_duration, ratio * legs[0].convexity)
        lo, hi = min(ts), max(ts)
        if k in flawed and flaw == "outside":
            t = draw(st.sampled_from([hi + 5e-13, hi + 1e-3, max(lo - 0.25, 0.1), hi + 2.0]))
        else:
            t = lo + draw(st.floats(0.0, 1.0)) * (hi - lo) if n > 1 else draw(st.floats(0.5, 30.0))
        rows.append((_risk_snap(draw, "TGT", t, amount), legs))
    return strategy, amount, rows, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=ratio_dates())
def test_ratios_over_dates_equal_the_builders(case):
    """The kernel over many dates, given the legs sorted stably by their
    first date's maturities as the backtest sorts them, gives each date's
    builder amounts and leg order exactly, and the builders give the float
    closed forms; a failing date raises the builder's error for the first
    one, naming that date."""
    strategy, amount, rows, allow = case
    n = STRATEGIES[strategy].legs
    order = sorted(range(n), key=lambda i: rows[0][1][i].maturity)
    ids = [f"L{i}" for i in order]
    dates = [dt.date(2024, 1, 2) + dt.timedelta(days=k) for k in range(len(rows))]
    target = (amount, *(np.array([getattr(tgt, f) for tgt, _ in rows]) for f in FIELDS))
    legs = np.array([[[getattr(ls[i], f) for _, ls in rows] for i in order] for f in FIELDS])

    plans = []
    for k, (tgt, ls) in enumerate(rows):
        try:
            plans.append(build_plan(strategy, tgt, ls, allow))
        except ValueError as exc:
            with pytest.raises(type(exc)) as info:
                _ratios(strategy, ids, target, legs, allow, dates)
            assert type(info.value) is type(exc)
            assert str(info.value) == f"{strategy.value} failed on {dates[k]}: {exc}"
            return
    amounts = _ratios(strategy, ids, target, legs, allow, dates)
    assert len(amounts) == n and all(a.shape == (len(rows),) for a in amounts)
    for k, ((tgt, ls), plan) in enumerate(zip(rows, plans)):
        got = [(i, a[k].item()) for i, a in zip(ids, amounts)]
        assert got == [(leg.id, leg.amount) for leg in plan.legs] == float_ratios(strategy, tgt, ls)


def test_ratios_over_no_dates():
    """A series that never starts solves no date: one empty array per leg."""
    empty = np.empty(0)
    amounts = _ratios(Strategy.CUBIC, ["A", "B", "C"], (100.0, *[empty] * 4),
                      np.empty((4, 3, 0)), dates=[])
    assert len(amounts) == 3 and all(a.shape == (0,) for a in amounts)


# ---------------------------------------------------------------------------
# generic constraint solver
# ---------------------------------------------------------------------------

def test_solver_reproduces_closed_forms():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a, b = random_instruments(rng, 2)
        t = random_target(rng, [a, b])
        quad = plan_amounts(quadratic_hedge(t, a, b))
        solved = plan_amounts(
            solve_constraint_hedge(t, [a, b], [DOLLAR_DURATION, DURATION_MATURITY])
        )
        for k in quad:
            assert solved[k] == pytest.approx(quad[k], rel=1e-12, abs=1e-12)

        conv = plan_amounts(convexity_hedge(t, a, b))
        solved = plan_amounts(
            solve_constraint_hedge(t, [a, b], [DOLLAR_DURATION, DOLLAR_CONVEXITY])
        )
        for k in conv:
            assert solved[k] == pytest.approx(conv[k], rel=1e-12, abs=1e-12)

        insts = random_instruments(rng, 3)
        t3 = random_target(rng, insts)
        cub = plan_amounts(cubic_hedge(t3, *insts))
        solved = plan_amounts(
            solve_constraint_hedge(
                t3, insts, [DOLLAR_DURATION, DURATION_MATURITY, DURATION_MATURITY_SQ]
            )
        )
        for k in cub:
            assert solved[k] == pytest.approx(cub[k], rel=1e-12, abs=1e-12)


def test_solver_singular_system_names_pair():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    insts = [snap("A", 100.0, 4.0, 4.0, 20.0), snap("B", 100.0, 7.0, 7.0, 55.0)]
    twin = Constraint("dollar_duration_twin", lambda s: s.modified_duration)
    with pytest.raises(SingularSystemError, match="dollar_duration.*dollar_duration_twin"):
        solve_constraint_hedge(t, insts, [DOLLAR_DURATION, twin])


def test_solver_singular_system_messages():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    insts = [snap("A", 100.0, 4.0, 4.0, 20.0), snap("B", 100.0, 7.0, 7.0, 55.0)]
    twin = Constraint("dollar_duration_twin", lambda s: s.modified_duration)
    nothing = Constraint("nothing", lambda s: 0.0)
    # the equilibrated system of [DOLLAR_DURATION, twin]: two equal rows
    m = np.array([[100.0 * 4.0, 100.0 * 7.0]] * 2)
    m = m / np.max(np.abs(m), axis=1)[:, None]
    cases = [
        (insts, [DOLLAR_DURATION, twin],
         f"constraint system condition number {np.linalg.cond(m):.3e}; nearest to dependent: "
         "'dollar_duration' and 'dollar_duration_twin' (|cos| = 1.000000)"),
        (insts[:1], [nothing], "constraint system condition number inf; nearest to dependent: "
         "constraint 'nothing' has (near-)zero weights"),
        (insts, [DOLLAR_DURATION, nothing], "constraint system condition number inf; "
         "nearest to dependent: 'dollar_duration' and 'nothing' (|cos| = 0.000000)"),
    ]
    for instruments, constraints, message in cases:
        with pytest.raises(SingularSystemError) as err:
            solve_constraint_hedge(t, instruments, constraints)
        assert str(err.value) == message


def test_solver_count_mismatch():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    with pytest.raises(ValueError, match="as many"):
        solve_constraint_hedge(t, [snap("A", 100.0, 4.0, 4.0, 20.0)],
                               [DOLLAR_DURATION, DOLLAR_CONVEXITY])


def test_solver_custom_strategy_tag():
    t = snap("T", 100.0, 5.0, 5.0, 30.0, amount=100.0)
    plan = solve_constraint_hedge(t, [snap("A", 100.0, 4.0, 4.0, 20.0)], [DOLLAR_DURATION])
    assert plan.strategy is Strategy.CUSTOM


# ---------------------------------------------------------------------------
# snapshots, plans, aggregation
# ---------------------------------------------------------------------------

def test_snapshot_validation():
    with pytest.raises(ValueError, match="price"):
        snap("X", 0.0, 5.0, 4.0, 20.0)
    with pytest.raises(ValueError, match="maturity"):
        snap("X", 100.0, -1.0, 4.0, 20.0)
    with pytest.raises(ValueError, match="duration"):
        snap("X", 100.0, 5.0, 0.0, 20.0)
    # a NaN or infinite number is refused by name, not carried into NaN legs
    fields = dict(id="X", price=100.0, maturity=5.0, modified_duration=4.0, convexity=20.0)
    for field in ("price", "maturity", "modified_duration", "convexity", "amount"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=rf"'X': {field} must be finite, got {value}"):
                InstrumentSnapshot(**{**fields, field: value})


def test_plan_leg_count_enforced():
    with pytest.raises(ValueError, match="legs"):
        HedgePlan(Strategy.QUADRATIC, "T", 100.0, (), ())


def test_aggregate_singleton_identity():
    s = snap("A", 98.0, 4.0, 3.6, 18.0)
    agg = aggregate_portfolio([(50.0, s)])
    assert agg.price == pytest.approx(98.0)
    assert agg.maturity == 4.0
    assert agg.modified_duration == pytest.approx(3.6)
    assert agg.convexity == pytest.approx(18.0)
    assert agg.amount == 50.0


def test_aggregate_amount_weighted_mean():
    s1 = snap("A", 100.0, 2.0, 2.0, 8.0)
    s2 = snap("B", 100.0, 5.0, 4.0, 24.0)
    agg = aggregate_portfolio([(10.0, s1), (10.0, s2)])
    assert agg.modified_duration == pytest.approx(3.0)
    assert agg.convexity == pytest.approx(16.0)


def test_aggregate_maturity_is_max():
    snaps = [snap("A", 100.0, 2.0, 2.0, 8.0), snap("B", 100.0, 5.0, 4.0, 24.0),
             snap("C", 100.0, 3.0, 2.8, 12.0)]
    agg = aggregate_portfolio([(1.0, s) for s in snaps])
    assert agg.maturity == 5.0


def test_aggregate_total_value():
    s1 = snap("A", 80.0, 2.0, 2.0, 8.0)
    s2 = snap("B", 120.0, 5.0, 4.0, 24.0)
    agg = aggregate_portfolio([(10.0, s1), (20.0, s2)])
    assert agg.amount * agg.price == pytest.approx(10 * 80 + 20 * 120)


def test_aggregate_rejects_empty_and_zero_net():
    with pytest.raises(ValueError, match="empty"):
        aggregate_portfolio([])
    s1 = snap("A", 80.0, 2.0, 2.0, 8.0)
    s2 = snap("B", 120.0, 5.0, 4.0, 24.0)
    with pytest.raises(ValueError, match="zero"):
        aggregate_portfolio([(10.0, s1), (-10.0, s2)])


def test_aggregate_feeds_hedge(snaps):
    """A two-bond portfolio hedged as one synthetic instrument."""
    port = aggregate_portfolio([(60.0, snaps["B2"]), (40.0, snaps["B4"])])
    plan = quadratic_hedge(dataclasses.replace(port, amount=port.amount), snaps["B3"], snaps["B1"])
    npd = port.amount * port.price * port.modified_duration
    for _, value in plan.constraints:
        assert abs(value) <= 1e-9 * npd
