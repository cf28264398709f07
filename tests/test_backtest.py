"""Backtest engine: carry netting, day-step oracles, truncation, correlation
matrices and summary statistics."""

import dataclasses
import datetime as dt
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvehedge import (
    BacktestConfig,
    Bond,
    CollinearInstrumentError,
    DegenerateSpanError,
    ExtrapolationError,
    ShockSpec,
    Strategy,
    SynthConfig,
    ValidationError,
    YieldCurve,
    apply_shock,
    build_plan,
    duration_hedge,
    generate_history,
    price,
    quadratic_hedge,
    run_backtest,
    snapshot,
    spot,
    summary_stats,
    tenor_correlations,
    year_fraction,
)
from curvehedge import bonds as bonds_module
from curvehedge.backtest import UNHEDGED, SummaryStats, _summaries
from curvehedge.bonds import _roll_table

GRID = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0, 7.0, 8.0, 10.0)


def history_from_shifts(base_rates, shifts, start=dt.date(2024, 1, 2), spacing=1):
    """A history where day k's curve is base + cumulative shift vector k,
    its dates `spacing` calendar days apart."""
    curves = [YieldCurve(start, GRID, tuple(base_rates))]
    cum = np.zeros(len(GRID))
    day = start
    for shift in shifts:
        cum = cum + np.asarray(shift)
        day = day + dt.timedelta(days=spacing)
        curves.append(YieldCurve(day, GRID, tuple(np.asarray(base_rates) + cum)))
    return curves


def base_rates():
    from conftest import base_rate

    return [base_rate(t) for t in GRID]


def standard_config(**kw):
    defaults = dict(
        target_id="B2",
        instruments={
            Strategy.DURATION: ("B3",),
            Strategy.QUADRATIC: ("B3", "B1"),
            Strategy.CONVEXITY: ("B3", "B1"),
            Strategy.CUBIC: ("B3", "B1", "B4"),
        },
    )
    defaults.update(kw)
    return BacktestConfig(**defaults)


# ---------------------------------------------------------------------------
# summary stats and year fractions
# ---------------------------------------------------------------------------

def test_year_fraction_act365():
    assert year_fraction(dt.date(2024, 1, 2), dt.date(2024, 1, 3)) == pytest.approx(1 / 365)
    assert year_fraction(dt.date(2024, 1, 2), dt.date(2025, 1, 1)) == pytest.approx(365 / 365)


def test_summary_stats_zero_series():
    s = summary_stats([0.0, 0.0, 0.0])
    assert (s.mean, s.stdev, s.max_drawdown, s.worst_day) == (0.0, 0.0, 0.0, 0.0)


def test_summary_stats_two_points():
    s = summary_stats([1.0, -1.0])
    assert s.mean == 0.0
    assert s.stdev == pytest.approx(math.sqrt(2))
    assert s.worst_day == -1.0
    assert s.max_drawdown == pytest.approx(1.0)  # cumulative 1 -> 0


def test_summary_stats_monotone_up_no_drawdown():
    s = summary_stats([0.5, 0.2, 0.9])
    assert s.max_drawdown == 0.0


def test_summary_stats_single_point():
    assert summary_stats([2.0]).stdev == 0.0


def test_summary_stats_empty_rejected():
    with pytest.raises(ValueError):
        summary_stats([])


def reference_summary(x):
    """summary_stats computed on its own, one series at a time."""
    x = np.asarray(x, dtype=float)
    cum = np.cumsum(x)
    return SummaryStats(
        mean=float(np.mean(x)),
        stdev=float(np.std(x, ddof=1)) if x.size > 1 else 0.0,
        max_drawdown=float(np.max(np.maximum.accumulate(cum) - cum)),
        worst_day=float(np.min(x)),
    )


@given(st.lists(st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0]), min_size=1,
                         max_size=40), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_summary_block_equals_one_series_at_a_time(series):
    """A report's summaries, taken as one block per series length, are == to
    the summary of each series on its own."""
    arrays = [np.array(x) for x in series]
    assert _summaries(arrays) == [reference_summary(x) for x in arrays]
    assert [summary_stats(x) for x in series] == [reference_summary(x) for x in arrays]


# ---------------------------------------------------------------------------
# tenor correlations
# ---------------------------------------------------------------------------

def corr_history(cols: np.ndarray, tenors=None) -> list[YieldCurve]:
    tenors = tenors or tuple(range(1, cols.shape[1] + 1))
    start = dt.date(2024, 1, 2)
    return [
        YieldCurve(start + dt.timedelta(days=i), tuple(float(t) for t in tenors),
                   tuple(row))
        for i, row in enumerate(cols)
    ]


def test_correlation_identical_series():
    x = 0.03 + 0.001 * np.sin(np.arange(10.0))
    hist = corr_history(np.column_stack([x, x + 0.002]))  # same moves, offset level
    corr = tenor_correlations(hist)
    assert corr[0, 1] == pytest.approx(1.0)


def test_correlation_negated_series():
    x = 0.001 * np.sin(np.arange(10.0))
    hist = corr_history(np.column_stack([0.03 + x, 0.03 - x]))
    assert tenor_correlations(hist)[0, 1] == pytest.approx(-1.0)


def test_correlation_independent_series_small():
    rng = np.random.default_rng(42)
    cols = 0.03 + 1e-3 * rng.standard_normal((1000, 2))
    corr = tenor_correlations(corr_history(cols))
    assert abs(corr[0, 1]) < 0.1  # 3 / sqrt(1000)


def test_correlation_affine_rescaling_invariant():
    rng = np.random.default_rng(1)
    a = 0.03 + 1e-3 * rng.standard_normal(50)
    b = 0.02 + 2e-3 * rng.standard_normal(50)
    c1 = tenor_correlations(corr_history(np.column_stack([a, b])))
    c2 = tenor_correlations(corr_history(np.column_stack([0.5 * a + 0.01, b])))
    assert c1[0, 1] == pytest.approx(c2[0, 1], abs=1e-12)


def test_correlation_symmetric_unit_diagonal():
    rng = np.random.default_rng(2)
    cols = 0.03 + 1e-3 * rng.standard_normal((60, 4))
    corr = tenor_correlations(corr_history(cols))
    assert np.allclose(corr, corr.T)
    assert np.allclose(np.diag(corr), 1.0)


def test_correlation_constant_series_raises():
    x = 0.03 + 0.001 * np.sin(np.arange(10.0))
    hist = corr_history(np.column_stack([x, np.full(10, 0.025)]))
    with pytest.raises(ValueError, match=r"tenor\(s\) \[2"):
        tenor_correlations(hist)


def test_correlation_diff_mode():
    # a pure trend is constant in diffs -> undefined there, fine on levels
    # (increments of 1/1024 are exact in binary, so the diffs are bit-equal)
    trend = np.arange(12.0) / 1024.0
    wiggle = 0.03 + 0.001 * np.sin(np.arange(12.0))
    hist = corr_history(np.column_stack([trend, wiggle]))
    assert tenor_correlations(hist, on="levels").shape == (2, 2)
    with pytest.raises(ValueError, match="constant"):
        tenor_correlations(hist, on="diffs")


def test_correlation_input_validation():
    x = 0.03 + 0.001 * np.sin(np.arange(10.0))
    hist = corr_history(np.column_stack([x, x]))
    with pytest.raises(ValueError, match="3 days"):
        tenor_correlations(hist[:2])
    with pytest.raises(ValueError, match="on must be"):
        tenor_correlations(hist, on="medians")
    mixed = hist[:3] + corr_history(np.column_stack([x, x]), tenors=(1.0, 3.0))[3:]
    with pytest.raises(ValueError, match="grid"):
        tenor_correlations(mixed)


# ---------------------------------------------------------------------------
# run_backtest mechanics
# ---------------------------------------------------------------------------

def test_constant_history_net_carry_zero(universe):
    hist = history_from_shifts(base_rates(), [np.zeros(len(GRID))] * 5)
    report = run_backtest(hist, universe, standard_config(net_carry=True))
    for name, series in report.series.items():
        assert np.all(np.abs(series.net) < 1e-10), name
        # gross still shows deterministic pull-to-par
    assert report.warnings == []


def test_constant_history_gross_is_pure_carry(universe):
    hist = history_from_shifts(base_rates(), [np.zeros(len(GRID))] * 3)
    report = run_backtest(hist, universe, standard_config())
    un = report.series[UNHEDGED]
    day0 = hist[0].date
    b = universe["B2"]
    for date, gross in zip(un.dates, un.gross):
        prev = date - dt.timedelta(days=1)
        b_now = b.rolled(year_fraction(day0, prev))
        b_next = b.rolled(year_fraction(day0, date))
        want = 100.0 * (
            price(b_next, spot(hist[0], b_next.maturity))
            - price(b_now, spot(hist[0], b_now.maturity))
        )
        assert gross == pytest.approx(want, abs=1e-10)


def test_backtest_matches_manual_replay(universe):
    """Re-derive three days of the duration strategy with direct calls."""
    rng = np.random.default_rng(31)
    shifts = 3e-4 * rng.standard_normal((3, len(GRID)))
    hist = history_from_shifts(base_rates(), shifts)
    config = standard_config(strategies=(Strategy.DURATION,))
    report = run_backtest(hist, universe, config)
    series = report.series["duration"]

    day0 = hist[0].date
    for k in range(3):
        cur, nxt = hist[k], hist[k + 1]
        tgt = snapshot(universe["B2"].rolled(year_fraction(day0, cur.date)), cur, amount=100.0)
        leg = snapshot(universe["B3"].rolled(year_fraction(day0, cur.date)), cur)
        plan = duration_hedge(tgt, leg)
        want = 0.0
        for bond_id, amount in [("B2", 100.0), ("B3", plan.legs[0].amount)]:
            b_now = universe[bond_id].rolled(year_fraction(day0, cur.date))
            b_next = universe[bond_id].rolled(year_fraction(day0, nxt.date))
            want += amount * (
                price(b_next, spot(nxt, b_next.maturity))
                - price(b_now, spot(cur, b_now.maturity))
            )
        assert series.gross[k] == pytest.approx(want, abs=1e-12)


def test_parallel_history_duration_residual_small(universe):
    rng = np.random.default_rng(8)
    eps = 5e-4 * rng.standard_normal(6)
    shifts = [np.full(len(GRID), e) for e in eps]
    hist = history_from_shifts(base_rates(), shifts)
    report = run_backtest(hist, universe, standard_config(net_carry=True))
    hedged = report.series["duration"].net
    unhedged = report.series[UNHEDGED].net
    # the first-order term is killed, so each day's residual is tiny next to
    # the unhedged move (what survives: convexity and one day of rolldown)
    for k, e in enumerate(eps):
        assert abs(hedged[k]) < 0.01 * abs(unhedged[k])
        assert abs(unhedged[k]) > 100.0 * abs(e)  # first order survives
    assert np.std(hedged, ddof=1) < 0.01 * np.std(unhedged, ddof=1)


def test_affine_history_quadratic_beats_duration(universe):
    rng = np.random.default_rng(12)
    shifts = []
    for _ in range(40):
        a, b = 2e-4 * rng.standard_normal(2)
        shifts.append([a + b * t for t in GRID])
    hist = history_from_shifts(base_rates(), shifts)
    report = run_backtest(hist, universe, standard_config(net_carry=True))
    sd = {n: report.summary[n].stdev for n in ("duration", "quadratic", UNHEDGED)}
    assert sd["quadratic"] < sd["duration"] < sd[UNHEDGED]


def test_additivity_hedged_equals_target_plus_legs(universe):
    """Hedged series == unhedged target series + an explicit leg replay."""
    rng = np.random.default_rng(21)
    shifts = 3e-4 * rng.standard_normal((5, len(GRID)))
    hist = history_from_shifts(base_rates(), shifts)
    config = standard_config(strategies=(Strategy.QUADRATIC,))
    report = run_backtest(hist, universe, config)
    hedged = report.series["quadratic"].gross
    target_series = report.series[UNHEDGED].gross

    day0 = hist[0].date
    for k in range(5):
        cur, nxt = hist[k], hist[k + 1]
        tgt = snapshot(universe["B2"].rolled(year_fraction(day0, cur.date)), cur, amount=100.0)
        legs = [snapshot(universe[i].rolled(year_fraction(day0, cur.date)), cur)
                for i in ("B3", "B1")]
        plan = quadratic_hedge(tgt, *legs)
        leg_pnl = 0.0
        for leg in plan.legs:
            b_now = universe[leg.id].rolled(year_fraction(day0, cur.date))
            b_next = universe[leg.id].rolled(year_fraction(day0, nxt.date))
            leg_pnl += leg.amount * (
                price(b_next, spot(nxt, b_next.maturity))
                - price(b_now, spot(cur, b_now.maturity))
            )
        assert hedged[k] == pytest.approx(target_series[k] + leg_pnl, abs=1e-10)


def test_truncation_when_bond_rolls_below_curve(universe):
    """A short bond that rolls below the 0.5y knot truncates its strategies."""
    short = Bond("S1", 100.0, 0.02, 1, 0.75)
    uni = dict(universe)
    uni["S1"] = short
    hist = history_from_shifts(base_rates(), [np.zeros(len(GRID))] * 120)
    config = BacktestConfig(
        target_id="B2",
        instruments={Strategy.DURATION: ("S1",)},
        strategies=(Strategy.DURATION,),
    )
    report = run_backtest(hist, uni, config)
    assert any("S1" in w for w in report.warnings)
    assert len(report.series["duration"].dates) < len(report.series[UNHEDGED].dates)
    assert len(report.series[UNHEDGED].dates) == 120


def test_rebalance_frequency_changes_series(universe):
    rng = np.random.default_rng(14)
    shifts = 4e-4 * rng.standard_normal((20, len(GRID)))
    hist = history_from_shifts(base_rates(), shifts)
    daily = run_backtest(hist, universe, standard_config())
    weekly = run_backtest(hist, universe, standard_config(rebalance_days=5))
    assert not np.allclose(daily.series["quadratic"].gross, weekly.series["quadratic"].gross)
    # day 0 always rebalances, so the first step agrees
    assert daily.series["quadratic"].gross[0] == weekly.series["quadratic"].gross[0]


def test_date_range_slicing(universe):
    hist = history_from_shifts(base_rates(), [np.zeros(len(GRID))] * 10)
    config = standard_config(start=hist[2].date, end=hist[7].date)
    report = run_backtest(hist, universe, config)
    assert report.dates[0] == hist[2].date
    assert report.dates[-1] == hist[7].date
    assert len(report.series[UNHEDGED].dates) == 5


def test_backtest_validation_errors(universe):
    hist = history_from_shifts(base_rates(), [np.zeros(len(GRID))] * 3)
    with pytest.raises(ValidationError, match="2 days"):
        run_backtest(hist[:1], universe, standard_config())
    bad_order = [hist[0], hist[2], hist[1], hist[3]]
    with pytest.raises(ValidationError, match="increasing"):
        run_backtest(bad_order, universe, standard_config())
    with pytest.raises(ValidationError, match="missing"):
        run_backtest(hist, {"B2": universe["B2"]}, standard_config())
    other_grid = YieldCurve(hist[1].date, (1.0, 5.0), (0.02, 0.03))
    with pytest.raises(ValidationError, match="grid"):
        run_backtest([hist[0], other_grid], universe, standard_config())


def test_config_validation():
    with pytest.raises(ValueError, match="needs 2"):
        BacktestConfig(target_id="B2", instruments={Strategy.QUADRATIC: ("B3",)},
                       strategies=(Strategy.QUADRATIC,))
    with pytest.raises(ValueError, match="hedge itself"):
        BacktestConfig(target_id="B2", instruments={Strategy.DURATION: ("B2",)},
                       strategies=(Strategy.DURATION,))
    with pytest.raises(ValueError, match="rebalance"):
        BacktestConfig(target_id="B2", instruments={Strategy.DURATION: ("B3",)},
                       strategies=(Strategy.DURATION,), rebalance_days=0)
    with pytest.raises(ValueError, match="no hedging instruments"):
        BacktestConfig(target_id="B2", instruments={},
                       strategies=(Strategy.DURATION,))
    with pytest.raises(ValueError, match="duration is listed more than once"):
        BacktestConfig(target_id="B2", instruments={Strategy.DURATION: ("B3",)},
                       strategies=(Strategy.DURATION, Strategy.DURATION))


@pytest.mark.parametrize("days", [2.5, 1.0, "3", None])
def test_config_rejects_a_rebalance_days_that_is_not_an_integer(days):
    with pytest.raises(ValueError, match=re.escape(f"rebalance_days must be an integer, got {days!r}")):
        standard_config(rebalance_days=days)


def test_config_takes_a_numpy_integer_rebalance_days(universe):
    hist = history_from_shifts(base_rates(), 1e-4 * np.random.default_rng(3).standard_normal(
        (10, len(GRID))))
    want = run_backtest(hist, universe, standard_config(rebalance_days=3))
    got = run_backtest(hist, universe, standard_config(rebalance_days=np.int64(3)))
    for name, s in want.series.items():
        assert got.series[name].gross.tolist() == s.gross.tolist(), name


@pytest.mark.parametrize("strategy, ids", [(Strategy.QUADRATIC, "B3"), (Strategy.DURATION, "B")])
def test_config_rejects_a_string_instruments_entry(strategy, ids):
    """A bare string is not a list of ids, even when its length matches the
    leg count."""
    with pytest.raises(ValueError, match=re.escape(
            f"instruments for {strategy.value} must be a list of ids, not {ids!r}")):
        BacktestConfig(target_id="B2", instruments={strategy: ids}, strategies=(strategy,))


def test_integer_target_amount_equals_its_float(universe):
    """An int target amount hedges the same as the equal float: the legs'
    float amounts are not cut to the amount's type."""
    hist = history_from_shifts(base_rates(), 1e-4 * np.random.default_rng(5).standard_normal(
        (12, len(GRID))))
    want = run_backtest(hist, universe, standard_config(target_amount=100.0, rebalance_days=4))
    got = run_backtest(hist, universe, standard_config(target_amount=100, rebalance_days=4))
    for name, s in want.series.items():
        assert got.series[name].gross.tolist() == s.gross.tolist(), name
        assert got.series[name].net.tolist() == s.net.tolist(), name
    assert repr(got.summary) == repr(want.summary)


@pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_target_amount(amount):
    with pytest.raises(ValueError, match=f"target_amount must be finite, got {amount}"):
        standard_config(target_amount=amount)


@pytest.mark.parametrize("strategy, target, legs, error, message", [
    (Strategy.QUADRATIC, "B1", ("B3", "B2"), ExtrapolationError,
     "target maturity 7.0 outside hedging span [4.0, 5.0]; "
     "pass allow_extrapolation=True to override"),
    (Strategy.QUADRATIC, "B2", ("B3X", "B3"), DegenerateSpanError,
     "instruments 'B3X' and 'B3' have maturities 4.0 and 4.0, closer than 2.740e-03 years"),
    (Strategy.CONVEXITY, "B2", ("B3X", "B3"), CollinearInstrumentError,
     "instruments 'B3X' and 'B3' have proportional duration/convexity "
     "(C_A D_B - C_B D_A = 0.000e+00)"),
])
def test_plan_failure_names_strategy_and_rebalance_date(universe, strategy, target, legs,
                                                        error, message):
    """A plan that cannot be built fails the run with the builder's own error,
    prefixed by the strategy and the window's date (not the history's first)."""
    uni = {**universe, "B3X": dataclasses.replace(universe["B3"], id="B3X")}
    hist = history_from_shifts(base_rates(), [np.zeros(len(GRID))] * 5)
    config = BacktestConfig(
        target_id=target,
        instruments={Strategy.DURATION: ("B4",), strategy: legs},
        strategies=(Strategy.DURATION, strategy),
        start=hist[2].date,
    )
    with pytest.raises(error) as info:
        run_backtest(hist, uni, config)
    assert str(info.value) == f"{strategy.value} failed on 2024-01-04: {message}"


def test_cumulative_is_prefix_sum(universe):
    rng = np.random.default_rng(27)
    shifts = 3e-4 * rng.standard_normal((10, len(GRID)))
    hist = history_from_shifts(base_rates(), shifts)
    report = run_backtest(hist, universe, standard_config())
    s = report.series["cubic"]
    assert np.allclose(s.cumulative(False), np.cumsum(s.gross))


def test_synthetic_history_hedges_all_beat_unhedged(universe):
    curves, _ = generate_history(SynthConfig(days=60, seed=7))
    report = run_backtest(curves, universe, standard_config(net_carry=True))
    un = report.summary[UNHEDGED].stdev
    for s in ("duration", "quadratic", "convexity", "cubic"):
        assert report.summary[s].stdev < un


def test_report_series_lengths(universe):
    hist = history_from_shifts(base_rates(), [np.zeros(len(GRID))] * 6)
    report = run_backtest(hist, universe, standard_config())
    for series in report.series.values():
        assert len(series.dates) == 6
        assert series.gross.shape == (6,)


def scalar_replay(history, universe, config):
    """The backtest step by step with scalar calls: every bond is rolled,
    priced and snapshotted afresh for each series on each step, and each
    step's P&L is summed target first, then the plan's legs."""
    day0 = history[0].date
    names = [s.value for s in config.strategies] + [UNHEDGED]
    rows = {name: [] for name in names}
    alive = dict.fromkeys(names, True)
    warnings, plans = [], {}
    for k, (cur, nxt) in enumerate(zip(history, history[1:])):
        e_now, e_next = year_fraction(day0, cur.date), year_fraction(day0, nxt.date)

        def step(bond_id, amount):
            b_now, b_next = universe[bond_id].rolled(e_now), universe[bond_id].rolled(e_next)
            p_now = price(b_now, spot(cur, b_now.maturity))
            gross = amount * (price(b_next, spot(nxt, b_next.maturity)) - p_now)
            carry = amount * (price(b_next, spot(cur, b_next.maturity)) - p_now)
            return gross, gross - carry

        def dead(ids):
            return [i for i in ids if universe[i].maturity - e_next < nxt.min_tenor]

        for strat in config.strategies:
            name, ids = strat.value, [config.target_id, *config.instruments[strat]]
            if not alive[name]:
                continue
            if dead(ids):
                warnings.append(f"{name}: series truncated at {cur.date}: {dead(ids)} matured "
                                "or rolled below the curve's shortest tenor")
                alive[name] = False
                continue
            if k % config.rebalance_days == 0:
                target = snapshot(universe[config.target_id].rolled(e_now), cur,
                                  amount=config.target_amount)
                legs = [snapshot(universe[i].rolled(e_now), cur) for i in ids[1:]]
                plans[strat] = build_plan(strat, target, legs, config.allow_extrapolation)
            gross = net = 0.0
            for bond_id, amount in [(config.target_id, config.target_amount)] + [
                    (leg.id, leg.amount) for leg in plans[strat].legs]:
                g, n = step(bond_id, amount)
                gross += g
                net += n
            rows[name].append((nxt.date, gross, net))
        if alive[UNHEDGED]:
            if dead([config.target_id]):
                warnings.append(f"{UNHEDGED}: series truncated at {cur.date}: target matured")
                alive[UNHEDGED] = False
            else:
                rows[UNHEDGED].append((nxt.date, *step(config.target_id, config.target_amount)))
    return rows, warnings


def test_backtest_equals_scalar_replay(universe):
    """Bit-exact against the scalar replay: short bonds with an accrual
    offset and quarterly coupons, strategies truncating out of config
    order, rebalancing every third step, a short target position; and the
    same run with a series that never starts (a leg rolls below the
    shortest tenor before the first mark)."""
    uni = dict(universe)
    uni["S13"] = Bond("S13", 100.0, 0.025, 2, 1.3, issue_or_first_coupon_offset=0.1)
    uni["Q21"] = Bond("Q21", 100.0, 0.04, 4, 2.1)
    uni["S"] = Bond("S", 100.0, 0.03, 2, 0.5005)
    rng = np.random.default_rng(5)
    hist = history_from_shifts(base_rates(), 2e-4 * rng.standard_normal((90, len(GRID))),
                               spacing=7)
    config = BacktestConfig(
        target_id="Q21",
        target_amount=-80.0,
        instruments={
            Strategy.DURATION: ("B3",),
            Strategy.QUADRATIC: ("S13", "B3"),
            Strategy.CONVEXITY: ("B3", "B1"),
            Strategy.CUBIC: ("B2", "S13", "B3"),
        },
        rebalance_days=3,
    )
    never = dataclasses.replace(config, instruments={**config.instruments,
                                                     Strategy.CUBIC: ("B3", "S", "B2")})
    rows, warnings = scalar_replay(hist, uni, config)
    # S13 rolls below 0.5y first, then the target ends every remaining series
    assert [w.split(":")[0] for w in warnings] == [
        "quadratic", "cubic", "duration", "convexity", UNHEDGED]
    assert 0 < len(rows["quadratic"]) < len(rows["duration"]) < len(hist) - 1
    never_rows, never_warnings = scalar_replay(hist, uni, never)
    assert never_rows["cubic"] == [] and never_warnings[0].startswith(
        f"cubic: series truncated at {hist[0].date}: ['S']")

    for cfg, rows, warnings in ((config, rows, warnings), (never, never_rows, never_warnings)):
        for net_carry in (False, True):
            report = run_backtest(hist, uni, dataclasses.replace(cfg, net_carry=net_carry))
            assert report.warnings == warnings
            assert list(report.series) == list(rows)
            for name, want in rows.items():
                s = report.series[name]
                assert s.dates == [r[0] for r in want], name
                assert s.gross.tolist() == [r[1] for r in want], name
                assert s.net.tolist() == [r[2] for r in want], name
                if want:
                    assert report.summary[name] == summary_stats(s.pnl(net_carry)), name
                else:
                    assert name not in report.summary


def test_unpriceable_bond_named_before_any_strategy(universe):
    """A bond past the curve's last knot fails up front, naming the bond and the date."""
    uni = dict(universe)
    uni["L"] = Bond("L", 100.0, 0.04, 1, 12.0)
    hist = history_from_shifts(base_rates(), [np.zeros(len(GRID))] * 3)
    config = standard_config(instruments={**standard_config().instruments,
                                          Strategy.QUADRATIC: ("B3", "L")})
    with pytest.raises(ExtrapolationError,
                       match=r"bond 'L' cannot be priced on 2024-01-02: maturity 12.0 "
                             r"outside curve range \[0.5, 10.0\]"):
        run_backtest(hist, uni, config)


def roll_table(bond, elapsed, tenors, rates):
    """The one-bond case of the book's mark table, as (maturity, price,
    duration, convexity, carry, bad): the arrays stop before bad, the first
    unpriceable row (None if every row prices), and carry starts at row 1."""
    table, (stop,) = _roll_table([bond], [len(elapsed)], elapsed, tenors, rates)
    p, m, d, c, carry = table[:, 0, :stop]
    return m, p, d, c, carry[1:], (int(stop) if stop < len(elapsed) else None)


@st.composite
def roll_windows(draw):
    """A bond, a window of elapsed year fractions and one curve per day.

    Maturities start on a knot (the last one included) or just inside
    spot's tolerance past either end; quarter-year days (elapsed k/4) roll a
    maturity a quarter past a knot exactly onto it; 30- and 91-day gaps roll
    across coupon dates at every frequency."""
    freq = draw(st.sampled_from([1, 2, 4, 12]))
    rate = draw(st.sampled_from([0.0, 0.025]) | st.floats(0.0, 0.12, allow_subnormal=False))
    quarters = draw(st.booleans())
    if quarters:
        maturity = draw(st.sampled_from(GRID)) + 0.25 * draw(st.integers(0, 3))
        counts = np.cumsum([0] + draw(st.lists(st.integers(1, 3), min_size=1, max_size=24)))
        elapsed = counts / 4.0
    else:
        # also just inside spot's tolerance beyond either end of the grid
        edges = st.sampled_from([GRID[0] - 5e-10, GRID[-1] + 5e-10])
        maturity = draw(st.sampled_from(GRID) | edges | st.floats(0.4, 10.5))
        gaps = draw(st.lists(st.sampled_from([1, 7, 30, 91]), min_size=1, max_size=40))
        elapsed = np.cumsum([0] + gaps) / 365.0
    offset = None
    if draw(st.booleans()):
        # accrual from up to one and a half periods before the first coupon,
        # or from on or after it (unpriceable)
        first = maturity - (math.ceil(maturity * freq - 1e-9) - 1) / freq
        offset = first - draw(st.sampled_from([0.0, 1.0]) | st.floats(-0.5, 1.5)) / freq
    bond = Bond("R", 100.0, rate, freq, maturity, issue_or_first_coupon_offset=offset)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = np.asarray(base_rates()) + 0.01 * rng.standard_normal((len(elapsed), len(GRID)))
    return bond, elapsed, rates


@given(roll_windows())
@settings(max_examples=300, deadline=None)
def test_roll_table_equals_scalar_path(window):
    """The backtest's mark table is == to the scalar snapshot and carry price
    of the rolled bond on every day, and its first unpriceable day is the one
    on which the scalar path raises."""
    bond, elapsed, rates = window
    day0 = dt.date(2024, 1, 2)
    curves = [YieldCurve(day0 + dt.timedelta(days=k), GRID, tuple(r))
              for k, r in enumerate(rates.tolist())]
    m, p, d, c, carry, bad = roll_table(bond, elapsed, GRID, rates)
    rows = len(elapsed) if bad is None else bad
    assert len(m) == len(p) == len(d) == len(c) == rows and len(carry) == max(rows - 1, 0)
    for k in range(rows):
        b = bond.rolled(float(elapsed[k]))
        s = snapshot(b, curves[k])
        assert (m[k], p[k], d[k], c[k]) == (
            b.maturity, s.price, s.modified_duration, s.convexity), k
        if k:
            assert carry[k - 1] == price(b, spot(curves[k - 1], b.maturity)), k
    if bad is not None:
        with pytest.raises(ValueError):
            b = bond.rolled(float(elapsed[bad]))
            snapshot(b, curves[bad])
            if bad:
                price(b, spot(curves[bad - 1], b.maturity))


def test_roll_table_stops_where_the_snapshot_refuses_an_infinite_price():
    """A yield just above -100% on a long grid prices a bond at inf: the
    snapshot refuses it, so the table stops on that row too and a backtest
    names the bond and the day. NumPy's overflow warnings stay inside."""
    grid = (0.5, 30.0)
    rates = np.full((4, 2), 0.03)
    rates[2] = -1.0 + 2.0**-52
    bond = Bond("L", 100.0, 0.03, 1, 25.0)
    elapsed = np.arange(4) / 365.0
    curves = [YieldCurve(dt.date(2024, 1, 2) + dt.timedelta(days=k), grid, tuple(r))
              for k, r in enumerate(rates.tolist())]
    universe = {"L": bond, "H": Bond("H", 100.0, 0.03, 1, 10.0)}
    config = BacktestConfig("L", {Strategy.DURATION: ("H",)}, strategies=(Strategy.DURATION,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, p, d, c, carry, bad = roll_table(bond, elapsed, grid, rates)
        assert bad == 2 and len(p) == 2
        with pytest.raises(ValueError, match="instrument 'L': price must be finite, got inf"):
            snapshot(bond.rolled(float(elapsed[2])), curves[2])
        with pytest.raises(ValueError) as info:
            run_backtest(curves, universe, config)
    assert str(info.value) == ("bond 'L' cannot be priced on 2024-01-04: "
                               "instrument 'L': price must be finite, got inf")


@st.composite
def books(draw):
    """A window of elapsed year fractions, one curve per day and a book of
    1-6 bonds, each with the rows it is marked on (up to the whole window,
    or none). Coupons are paid 1, 2, 4 or 12 times a year, some bonds are
    zero-coupon, some accrue from an offset (on or after the first coupon
    makes the first row unpriceable), and a short maturity rolls below the
    curve's first knot mid-window."""
    gaps = draw(st.lists(st.sampled_from([1, 7, 30, 91]), min_size=1, max_size=30))
    elapsed = np.cumsum([0] + gaps) / 365.0
    days = len(elapsed)
    bonds, rows = [], []
    for i in range(draw(st.integers(1, 6))):
        freq = draw(st.sampled_from([1, 2, 4, 12]))
        rate = draw(st.sampled_from([0.0, 0.03]) | st.floats(0.0, 0.12, allow_subnormal=False))
        short = GRID[0] + elapsed[-1] * draw(st.floats(0.1, 0.9))
        maturity = draw(st.sampled_from(GRID) | st.just(short) | st.floats(0.4, 10.5))
        offset = None
        if draw(st.booleans()):
            first = maturity - (math.ceil(maturity * freq - 1e-9) - 1) / freq
            offset = first - draw(st.sampled_from([0.0, 1.0]) | st.floats(-0.5, 1.5)) / freq
        bonds.append(Bond(f"X{i}", 100.0, rate, freq, maturity, issue_or_first_coupon_offset=offset))
        rows.append(draw(st.sampled_from([0, days]) | st.integers(0, days)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = np.asarray(base_rates()) + 0.01 * rng.standard_normal((days, len(GRID)))
    return bonds, rows, elapsed, rates


@given(books())
@settings(max_examples=200, deadline=None)
def test_book_table_equals_one_bond_tables_and_scalar_path(book):
    """Every bond's slice of the book's mark table, and its first unpriceable
    row, is == to its one-bond table and to the scalar snapshot and carry
    price on each of its rows; the scalar path raises on the first row the
    table cannot price."""
    bonds, rows, elapsed, rates = book
    day0 = dt.date(2024, 1, 2)
    curves = [YieldCurve(day0 + dt.timedelta(days=k), GRID, tuple(r))
              for k, r in enumerate(rates.tolist())]
    table, stop = _roll_table(bonds, rows, elapsed, GRID, rates)
    assert table.shape == (5, len(bonds), len(elapsed))
    for i, (bond, n) in enumerate(zip(bonds, rows)):
        one, (one_stop,) = _roll_table([bond], [n], elapsed, GRID, rates)
        assert stop[i] == one_stop <= n, i
        assert np.array_equal(table[:, i], one[:, 0], equal_nan=True), i
        k = int(stop[i])
        p, m, d, c, carry = table[:, i, :k]
        assert np.isnan(table[[0, 2, 3, 4], i, k:]).all(), i
        for row in range(k):
            b = bond.rolled(float(elapsed[row]))
            s = snapshot(b, curves[row])
            assert (m[row], p[row], d[row], c[row]) == (
                b.maturity, s.price, s.modified_duration, s.convexity), (i, row)
            if row:
                assert carry[row] == price(b, spot(curves[row - 1], b.maturity)), (i, row)
        if k < n:
            with pytest.raises(ValueError):
                b = bond.rolled(float(elapsed[k]))
                snapshot(b, curves[k])
                if k:
                    price(b, spot(curves[k - 1], b.maturity))


def test_book_table_interpolates_once_and_builds_flows_once_per_run(monkeypatch, universe):
    """A backtest marks its whole book with one interpolation (two per bond
    when each bond had its own table) and builds each bond's flow table once
    per run of days with the same live-flow count."""
    calls = {"_interp_rows": 0, "_flows": 0}
    for name in calls:
        def counted(*args, _fn=getattr(bonds_module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(bonds_module, name, counted)
    hist, _ = generate_history(SynthConfig(days=400, seed=11))
    config = standard_config()
    report = run_backtest(hist, universe, config)
    assert all(len(s.dates) == len(hist) - 1 for s in report.series.values())
    elapsed = np.array([year_fraction(hist[0].date, c.date) for c in hist])
    runs = 0
    for bond_id in {"B2", "B3", "B1", "B4"}:
        bond = universe[bond_id]
        counts = np.ceil((bond.maturity - elapsed) * bond.coupon_frequency - 1e-9)
        runs += len(set(counts.tolist()))
    assert runs > 4  # a coupon date falls inside the window
    assert calls == {"_interp_rows": 1, "_flows": runs}


def test_roll_table_squares_with_libm_pow():
    """Convexity divides by (1 + y)**2 as Python's float power gives it (libm
    pow), not by a NumPy square or power: at this yield each differs from it
    in the last bit, and so would the convexity."""
    y = 0.042326
    g = 1.0 + y
    assert g * g != g**2  # NumPy 2.4's g ** np.full(1, 2.0) differs from g**2 as well
    bond = Bond("P", 100.0, 0.05, 2, 5.0)
    elapsed = np.array([0.0])
    curve = YieldCurve(dt.date(2024, 1, 2), GRID, (y,) * len(GRID))
    m, p, d, c, carry, bad = roll_table(bond, elapsed, GRID, np.full((1, len(GRID)), y))
    s = snapshot(bond, curve)
    assert bad is None
    assert (p[0], d[0], c[0]) == (s.price, s.modified_duration, s.convexity)


def test_roll_table_flags_a_yield_at_or_below_minus_100pct():
    """The table's yield checks stand in for price()'s, which no validated
    curve can reach: a row whose own yield, or whose carry yield off the
    previous curve, is at or below -100% is the first unpriceable one."""
    bond = Bond("Y", 100.0, 0.03, 2, 5.0)
    elapsed = np.arange(4) / 365.0
    rates = np.tile(base_rates(), (4, 1))
    own = rates.copy()
    own[2] = -1.0
    # day 0 prices on the 5y knot; day 1's carry reads day 0's 4y-5y span
    carry = rates.copy()
    carry[0, GRID.index(4.0)] = -400.0
    for bad_rates, row in ((own, 2), (carry, 1)):
        *arrays, bad = roll_table(bond, elapsed, GRID, bad_rates)
        assert bad == row
        assert [len(a) for a in arrays] == [row] * 4 + [row - 1]
