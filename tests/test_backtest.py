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
    CurveHistory,
    DegenerateSpanError,
    ExtrapolationError,
    ShockSpec,
    Strategy,
    SynthConfig,
    ValidationError,
    YieldCurve,
    apply_shock,
    build_plan,
    default_bond_universe,
    duration_hedge,
    generate_history,
    price,
    quadratic_hedge,
    run_backtest,
    snapshot,
    spot,
    summary_stats,
    tenor_correlations,
)
from curvehedge import backtest as backtest_module
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


STANDARD_LEGS = {
    Strategy.DURATION: ("B3",),
    Strategy.QUADRATIC: ("B3", "B1"),
    Strategy.CONVEXITY: ("B3", "B1"),
    Strategy.CUBIC: ("B3", "B1", "B4"),
}


def standard_config(*series, **kw):
    """Target B2 hedged by STANDARD_LEGS: every series, or those named, in that order."""
    defaults = dict(target_id="B2",
                    instruments={s: STANDARD_LEGS[s] for s in series or STANDARD_LEGS})
    defaults.update(kw)
    return BacktestConfig(**defaults)


# ---------------------------------------------------------------------------
# summary stats
# ---------------------------------------------------------------------------

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


def test_summary_stats_out_of_the_float_range_is_refused_by_name():
    """The deviations' squares overflow: the stdev is refused in run_backtest's
    words, with no NumPy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            summary_stats([1e200, -1e200, 3.0])
    assert str(err.value) == "summary stdev out of the float range, got inf"


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


@st.composite
def long_series(draw):
    """A series of 1 to 400 days, lengths often at NumPy's summation
    boundaries (its 8-lane unroll, its 128-element pairwise block): random
    values at any scale sprinkled with signed zeros, a constant, or signed
    zeros only."""
    n = draw(st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 136, 255, 256, 257, 400])
             | st.integers(1, 400))
    kind = draw(st.sampled_from(["random", "constant", "zeros"]))
    if kind == "constant":
        return np.full(n, draw(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zeros":
        return np.where(rng.random(n) < 0.5, 0.0, -0.0)
    x = rng.standard_normal(n) * 10.0 ** draw(st.integers(-8, 6))
    x[rng.random(n) < 0.1] = draw(st.sampled_from([0.0, -0.0]))
    return x


@given(st.lists(long_series(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_summary_block_equals_one_series_at_a_time_across_summation_boundaries(arrays):
    """Long series of mixed lengths in one call: each summary is == (and
    repr-equal, signs of zero included) to the series summarized alone."""
    want = [reference_summary(x) for x in arrays]
    assert _summaries(arrays) == want
    assert [summary_stats(x) for x in arrays] == want
    assert repr(_summaries(arrays)) == repr(want)


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


@pytest.mark.parametrize("on", ["levels", "diffs"])
def test_correlation_of_a_series_whose_variance_leaves_the_float_range_names_its_tenor(on):
    """Moves so small that a tenor's variance underflows to 0 are refused by
    tenor, with no NumPy warning (tier-1 turns one into an error). A rate
    large enough to overflow a variance is refused by the history itself."""
    x = 0.03 + 0.001 * np.sin(np.arange(10.0))
    cols = np.column_stack([x, x + 0.002, 0.02 + 0.001 * np.cos(np.arange(10.0))])
    cols[:, 1] = 1e-170 * (np.arange(10.0) % 3)
    with pytest.raises(ValueError, match=r"^correlation not finite at tenor\(s\) \[2\.0\]: "
                                         r"variance out of range$"):
        tenor_correlations(corr_history(cols), on=on)


def test_correlation_is_the_symmetrised_corrcoef_bit_for_bit():
    history, _ = generate_history(SynthConfig(days=300, sigma_idio=1e-4, seed=9))
    for on, data in (("levels", history.rates), ("diffs", np.diff(history.rates, axis=0))):
        want = np.corrcoef(data, rowvar=False)
        want = (want + want.T) / 2.0
        np.fill_diagonal(want, 1.0)
        assert tenor_correlations(history, on=on).tobytes() == want.tobytes()


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
        b_now = b.rolled((prev - day0).days / 365.0)
        b_next = b.rolled((date - day0).days / 365.0)
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
    config = standard_config(Strategy.DURATION)
    report = run_backtest(hist, universe, config)
    series = report.series["duration"]

    day0 = hist[0].date
    for k in range(3):
        cur, nxt = hist[k], hist[k + 1]
        tgt = snapshot(universe["B2"].rolled((cur.date - day0).days / 365.0), cur, amount=100.0)
        leg = snapshot(universe["B3"].rolled((cur.date - day0).days / 365.0), cur)
        plan = duration_hedge(tgt, leg)
        want = 0.0
        for bond_id, amount in [("B2", 100.0), ("B3", plan.legs[0].amount)]:
            b_now = universe[bond_id].rolled((cur.date - day0).days / 365.0)
            b_next = universe[bond_id].rolled((nxt.date - day0).days / 365.0)
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
    config = standard_config(Strategy.QUADRATIC)
    report = run_backtest(hist, universe, config)
    hedged = report.series["quadratic"].gross
    target_series = report.series[UNHEDGED].gross

    day0 = hist[0].date
    for k in range(5):
        cur, nxt = hist[k], hist[k + 1]
        tgt = snapshot(universe["B2"].rolled((cur.date - day0).days / 365.0), cur, amount=100.0)
        legs = [snapshot(universe[i].rolled((cur.date - day0).days / 365.0), cur)
                for i in ("B3", "B1")]
        plan = quadratic_hedge(tgt, *legs)
        leg_pnl = 0.0
        for leg in plan.legs:
            b_now = universe[leg.id].rolled((cur.date - day0).days / 365.0)
            b_next = universe[leg.id].rolled((nxt.date - day0).days / 365.0)
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


def _per_row(history):
    """The history as today's list input: one YieldCurve per row."""
    return [YieldCurve(d, history.tenors, tuple(r))
            for d, r in zip(history.dates, history.rates.tolist())]


@pytest.mark.parametrize("kw", [{}, {"net_carry": True, "rebalance_days": 3},
                                {"start": dt.date(2024, 2, 1), "end": dt.date(2024, 4, 30)}])
def test_reports_from_a_list_and_from_a_history_are_equal(universe, kw):
    history, _ = generate_history(SynthConfig(days=120, sigma_idio=1e-4, seed=4))
    curves = _per_row(history)
    config = standard_config(**kw)
    assert repr(run_backtest(history, universe, config)) == repr(
        run_backtest(curves, universe, config))
    for on in ("levels", "diffs"):
        got, want = tenor_correlations(history, on=on), tenor_correlations(curves, on=on)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("start,end", [
    (dt.date(2024, 1, 6), dt.date(2024, 2, 11)),  # a Saturday and a Sunday
    (dt.date(2023, 12, 31), dt.date(2024, 1, 14)),  # before the first day, a Sunday
    (dt.date(2024, 1, 21), None),
    (None, dt.date(2024, 1, 27)),
])
def test_weekend_window_bounds_give_todays_date_filter(universe, start, end):
    """A start or end on no trading day slices the rows the date filter kept."""
    history, _ = generate_history(SynthConfig(days=40, seed=6))
    config = standard_config(start=start, end=end)
    kept = [c for c in history if (start is None or c.date >= start)
            and (end is None or c.date <= end)]
    report = run_backtest(history, universe, config)
    assert report.dates == [c.date for c in kept]
    assert repr(report) == repr(run_backtest(kept, universe, config))


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
        BacktestConfig(target_id="B2", instruments={Strategy.QUADRATIC: ("B3",)})
    with pytest.raises(ValueError, match="hedge itself"):
        BacktestConfig(target_id="B2", instruments={Strategy.DURATION: ("B2",)})
    with pytest.raises(ValueError, match="rebalance"):
        BacktestConfig(target_id="B2", instruments={Strategy.DURATION: ("B3",)}, rebalance_days=0)


def test_config_takes_a_strategy_by_its_name():
    """A strategy given as a plain string is its member, and an unknown name
    is a ValueError naming it."""
    config = BacktestConfig("B2", {"cubic": ("B3", "B1", "B4")})
    assert [*config.instruments] == [Strategy.CUBIC] and [*config.instruments][0] is Strategy.CUBIC
    with pytest.raises(ValueError, match="^cannot backtest strategy custom: no closed form$"):
        BacktestConfig("B2", {"custom": ("B3",)})
    with pytest.raises(ValueError, match="^'bogus' is not a valid Strategy$"):
        BacktestConfig("B2", {"bogus": ("B3",)})


def test_config_refuses_the_custom_strategy():
    with pytest.raises(ValueError, match="^cannot backtest strategy custom: no closed form$"):
        BacktestConfig(target_id="B2", instruments={Strategy.CUSTOM: ("B3",)})


def test_window_that_leaves_fewer_than_two_days_is_refused(universe):
    hist = history_from_shifts(base_rates(), [np.zeros(len(GRID))] * 4)
    day = [c.date for c in hist]
    for start, end in ((day[2], day[2]), (day[4], None), (None, day[0]),
                       (day[3], day[1]), (day[4] + dt.timedelta(1), None)):
        with pytest.raises(ValidationError, match="^date range leaves fewer than 2 days of history$"):
            run_backtest(hist, universe, standard_config(start=start, end=end))
    assert len(run_backtest(hist, universe, standard_config(start=day[3])).series[UNHEDGED].dates) == 1


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
        BacktestConfig(target_id="B2", instruments={strategy: ids})


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
    step's P&L is summed from 0.0, target first, then the plan's legs. The
    unhedged target is the last series, one with no legs and no plan."""
    day0 = history[0].date
    named = [*((s.value, s, legs) for s, legs in config.instruments.items()), (UNHEDGED, None, ())]
    rows = {name: [] for name, *_ in named}
    alive = dict.fromkeys(rows, True)
    warnings, plans = [], {}
    for k, (cur, nxt) in enumerate(zip(history, history[1:])):
        e_now, e_next = (cur.date - day0).days / 365.0, (nxt.date - day0).days / 365.0

        def step(bond_id, amount):
            b_now, b_next = universe[bond_id].rolled(e_now), universe[bond_id].rolled(e_next)
            p_now = price(b_now, spot(cur, b_now.maturity))
            gross = amount * (price(b_next, spot(nxt, b_next.maturity)) - p_now)
            carry = amount * (price(b_next, spot(cur, b_next.maturity)) - p_now)
            return gross, gross - carry

        def dead(ids):
            return [i for i in ids if universe[i].maturity - e_next < nxt.min_tenor]

        for name, strat, legs in named:
            ids = [config.target_id, *legs]
            if not alive[name]:
                continue
            if dead(ids):
                warnings.append(f"{name}: series truncated at {cur.date}: {dead(ids)} matured "
                                "or rolled below the curve's shortest tenor")
                alive[name] = False
                continue
            if legs and k % config.rebalance_days == 0:
                target = snapshot(universe[config.target_id].rolled(e_now), cur,
                                  amount=config.target_amount)
                legs = [snapshot(universe[i].rolled(e_now), cur) for i in ids[1:]]
                plans[name] = build_plan(strat, target, legs, config.allow_extrapolation)
            gross = net = 0.0
            for bond_id, amount in [(config.target_id, config.target_amount)] + [
                    (leg.id, leg.amount) for leg in (plans[name].legs if legs else ())]:
                g, n = step(bond_id, amount)
                gross += g
                net += n
            rows[name].append((nxt.date, gross, net))
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
    """A bond past the curve's last knot fails up front with the pricer's own
    refusal, which names the bond and the date once each."""
    uni = dict(universe)
    uni["L"] = Bond("L", 100.0, 0.04, 1, 12.0)
    hist = history_from_shifts(base_rates(), [np.zeros(len(GRID))] * 3)
    config = standard_config(instruments={**standard_config().instruments,
                                          Strategy.QUADRATIC: ("B3", "L")})
    with pytest.raises(ExtrapolationError,
                       match=r"^bond 'L': maturity 12.0 outside curve range \[0.5, 10.0\] "
                             r"on 2024-01-02$"):
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
    config = BacktestConfig("L", {Strategy.DURATION: ("H",)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, p, d, c, carry, bad = roll_table(bond, elapsed, grid, rates)
        assert bad == 2 and len(p) == 2
        with pytest.raises(ValueError, match="instrument 'L': price must be finite, got inf"):
            snapshot(bond.rolled(float(elapsed[2])), curves[2])
        with pytest.raises(ValueError) as info:
            run_backtest(curves, universe, config)
    assert str(info.value) == "on 2024-01-04: instrument 'L': price must be finite, got inf"


def test_a_history_refuses_a_yield_above_the_range_before_the_mark_table():
    """A day whose rates are above MAX_RATE (1e200, whose square would
    overflow a convexity) never reaches the mark table: the history refuses
    the day, by rate and tenor, as its curve does."""
    grid = (0.5, 30.0)
    rates = np.full((4, 2), 0.03)
    rates[2] = 1e200
    dates = [dt.date(2024, 1, 2) + dt.timedelta(days=k) for k in range(4)]
    want = "spot rates must be at most 1000% (MAX_RATE), got 1e+200 at tenor 0.5"
    for build in (lambda: CurveHistory(dates, grid, rates),
                  lambda: YieldCurve(dates[2], grid, tuple(rates[2]))):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == want


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


def test_book_table_interpolates_once_and_builds_flows_once_per_bond(monkeypatch, universe):
    """A backtest marks its whole book with one interpolation (two per bond
    when each bond had its own table) and builds each bond's flow table once,
    one block for its whole life, although coupon dates fall in the window."""
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
    elapsed = np.array([(c.date - hist[0].date).days / 365.0 for c in hist])
    book = {"B2", "B3", "B1", "B4"}
    runs = 0
    for bond_id in book:
        bond = universe[bond_id]
        counts = np.ceil((bond.maturity - elapsed) * bond.coupon_frequency - 1e-9)
        runs += len(set(counts.tolist()))
    assert runs > len(book)  # a coupon date falls inside the window
    assert calls == {"_interp_rows": 1, "_flows": len(book)}


def test_roll_table_squares_once_as_the_scalar_path_does():
    """Convexity divides by the one square (1 + y)·(1 + y), the correctly
    rounded product, in the table as in the scalar path: at this yield
    Python's float power (libm pow) differs from it in the last bit, and so
    would the convexity."""
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


@pytest.mark.parametrize("bond", [
    Bond("O", 100.0, 0.045, 2, 3.3, issue_or_first_coupon_offset=0.1),  # a short first coupon
    Bond("Z", 100.0, 0.0, 4, 3.3),
], ids=["offset", "zero-coupon"])
@pytest.mark.parametrize("days", [1, 120], ids=["one-row-life", "coupon-rolls-off"])
def test_roll_table_prices_a_life_as_one_block(bond, days):
    """A bond's life is one table, led by zero flows from the day a coupon
    date passes: on a 1-row life and across coupon dates inside the window
    (0.3y for both bonds, and 0.05y for the quarterly zero) every row is ==
    the scalar snapshot and carry price, the offset bond's pro-rata first
    coupon included until it is paid."""
    elapsed = np.arange(days) / 365.0
    rng = np.random.default_rng(days)
    rates = np.asarray(base_rates()) + 0.002 * rng.standard_normal((days, len(GRID)))
    counts = np.ceil((bond.maturity - elapsed) * bond.coupon_frequency - 1e-9)
    assert len(set(counts.tolist())) == (1 if days == 1 else {"O": 2, "Z": 3}[bond.id])
    curves = [YieldCurve(dt.date(2024, 1, 2) + dt.timedelta(days=k), GRID, tuple(r))
              for k, r in enumerate(rates.tolist())]
    m, p, d, c, carry, bad = roll_table(bond, elapsed, GRID, rates)
    assert bad is None
    for k in range(days):
        b = bond.rolled(float(elapsed[k]))
        s = snapshot(b, curves[k])
        assert (m[k], p[k], d[k], c[k]) == (
            b.maturity, s.price, s.modified_duration, s.convexity), k
        if k:
            assert carry[k - 1] == price(b, spot(curves[k - 1], b.maturity)), k


def test_roll_table_prices_a_lone_flow_at_one_year_as_the_scalar_path():
    """A zero-coupon bond rolled onto a 1-year maturity has one flow at
    t = 1.0: its exponent is -1, which NumPy's power takes as a reciprocal
    when it sees it as a scalar. At this yield 1/(1+y) and NumPy's pow
    differ in the last bit, and the table's row and the snapshot are ==."""
    y = 0.04214659122506341
    g = 1.0 + y
    assert 1.0 / g != float(np.power(np.full(2, g), np.full(2, -1.0))[0])
    bond = Bond("Z", 100.0, 0.0, 1, 1.25)
    elapsed = np.array([0.0, 0.25])
    m, p, d, c, carry, bad = roll_table(bond, elapsed, GRID, np.full((2, len(GRID)), y))
    rolled = bond.rolled(0.25)
    assert m[1] == 1.0 and bad is None
    s = snapshot(rolled, YieldCurve(dt.date(2024, 1, 3), GRID, (y,) * len(GRID)))
    assert (p[1], d[1], c[1], carry[0]) == (s.price, s.modified_duration, s.convexity, s.price)


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


# ---------------------------------------------------------------------------
# the holdings block
# ---------------------------------------------------------------------------

def replay_case(universe):
    """test_backtest_equals_scalar_replay's history, universe and configs: a
    short target, strategies truncating out of config order, rebalancing
    every third step; and the same with a cubic series that never starts."""
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
    return hist, uni, config, never


def assert_same_series(got, want_gross, want_net, name):
    """Values == and signs of zero equal: == alone cannot tell -0.0 from 0.0,
    but a report prints one as -0 and the other as 0."""
    for x, want in ((got.gross, want_gross), (got.net, want_net)):
        assert x.tolist() == list(want), name
        assert np.signbit(x).tolist() == np.signbit(np.asarray(want, dtype=float)).tolist(), name


def test_backtest_signs_of_zero_equal_scalar_replay(universe):
    """The holdings block's padded slots and the zeros held after a series'
    end reach no series: signs equal the scalar replay's too, also for a
    target of -0.0, whose every held amount and product is a signed zero."""
    hist, uni, config, never = replay_case(universe)
    for cfg in (config, never, dataclasses.replace(config, target_amount=-0.0)):
        rows, _ = scalar_replay(hist, uni, cfg)
        for net_carry in (False, True):
            report = run_backtest(hist, uni, dataclasses.replace(cfg, net_carry=net_carry))
            for name, want in rows.items():
                assert_same_series(report.series[name], [r[1] for r in want],
                                   [r[2] for r in want], name)


def test_frozen_history_with_a_short_target_equals_scalar_replay(universe):
    """On an unchanged curve the carry-netted P&L is +0.0 on every day of
    every series, never -0.0, and gross is the replay's pull-to-par."""
    frozen = history_from_shifts(base_rates(), [np.zeros(len(GRID))] * 12)
    for rebalance_days in (1, 5):
        config = standard_config(target_amount=-60.0, rebalance_days=rebalance_days)
        rows, warnings = scalar_replay(frozen, universe, config)
        report = run_backtest(frozen, universe, config)
        assert report.warnings == warnings == []
        for name, want in rows.items():
            assert_same_series(report.series[name], [r[1] for r in want],
                               [r[2] for r in want], name)
            assert not np.signbit(report.series[name].net).any(), name
            assert not report.series[name].net.any(), name


@pytest.mark.parametrize("rebalance_days", [1, 3, 7])
@pytest.mark.parametrize("net_carry", [False, True])
@given(days=st.integers(2, 320), seed=st.integers(0, 2**16),
       amount=st.sampled_from([100.0, -80.0, 0.0, -0.0]) | st.floats(-1e3, 1e3),
       cubic=st.sampled_from([("B2", "S13", "B3"), ("B3", "S", "B2")]))
@settings(max_examples=10, deadline=None)
def test_each_series_equals_its_strategy_run_alone(rebalance_days, net_carry, days, seed, amount,
                                                   cubic):
    """Every series of an all-strategies run is ==, signs included, to the
    same strategy run on its own (a narrower block with other padding), and
    so is its summary; truncation and never-started series included. The
    unhedged series is also that of a run with no strategies at all."""
    uni = {b.id: b for b in default_bond_universe()}
    uni["S13"] = Bond("S13", 100.0, 0.025, 2, 1.3, issue_or_first_coupon_offset=0.1)
    uni["Q21"] = Bond("Q21", 100.0, 0.04, 4, 2.1)
    uni["S"] = Bond("S", 100.0, 0.03, 2, 0.5005)
    hist, _ = generate_history(SynthConfig(days=days, seed=seed))
    config = BacktestConfig(
        target_id="Q21",
        target_amount=amount,
        instruments={
            Strategy.DURATION: ("B3",),
            Strategy.QUADRATIC: ("S13", "B3"),
            Strategy.CONVEXITY: ("B3", "B1"),
            Strategy.CUBIC: cubic,
        },
        rebalance_days=rebalance_days,
        net_carry=net_carry,
    )
    full = run_backtest(hist, uni, config)
    for instruments in [*({strat: legs} for strat, legs in config.instruments.items()), {}]:
        alone = run_backtest(hist, uni, dataclasses.replace(config, instruments=instruments))
        names = [*(strat.value for strat in instruments), UNHEDGED]
        assert list(alone.series) == names
        assert alone.warnings == [w for w in full.warnings
                                  if w.startswith(tuple(f"{name}:" for name in names))]
        for name in names:
            s = alone.series[name]
            assert full.series[name].dates == s.dates
            assert_same_series(full.series[name], s.gross.tolist(), s.net.tolist(), name)
            assert full.summary.get(name) == alone.summary.get(name), name


def test_backtest_marks_once_solves_once_per_strategy_and_summarizes_once(monkeypatch, universe):
    """One run makes one mark table, one ratio solve per strategy (none for a
    series that never starts) and one summaries call: no per-day or
    per-strategy fallback for the table, the P&L or the summaries."""
    calls = {"_roll_table": [], "_ratios": [], "_summaries": []}
    for name in calls:
        def counted(*args, _fn=getattr(backtest_module, name), _name=name):
            calls[_name].append(args[0])
            return _fn(*args)
        monkeypatch.setattr(backtest_module, name, counted)
    hist, uni, config, never = replay_case(universe)
    long_hist, _ = generate_history(SynthConfig(days=400, seed=11))
    for h, cfg, solved in ((hist, config, 4), (hist, never, 3),
                           (long_hist, standard_config(), 4),
                           (long_hist, standard_config(Strategy.CUBIC), 1)):
        for name in calls:
            calls[name].clear()
        report = run_backtest(h, uni, cfg)
        assert len(calls["_roll_table"]) == 1
        assert calls["_ratios"] == [s for s in cfg.instruments if report.series[s.value].dates]
        assert len(calls["_ratios"]) == solved
        assert len(calls["_summaries"]) == 1
        assert len(calls["_summaries"][0]) == len(report.summary)


def test_an_infinite_carry_price_is_refused_by_bond_and_day():
    """A 25y leg whose maturity rolls into a span of yesterday's curve at
    -1 + 2**-52 has an infinite carry price on day 2. The mark table stops
    that leg there, as it stops a price the snapshot refuses, and a backtest
    adds the day to price's own refusal of the carry price off yesterday's
    curve, which names the bond, whether or not a series still holds the leg
    (here S ends the quadratic series before it starts) and with or without
    net_carry. NumPy's overflow warnings stay inside."""
    grid = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 25.0, 30.0)
    base = [0.03] * len(grid)
    dip = [-1 + 2**-52 if t in (20.0, 25.0) else 0.03 for t in grid]
    hist = [YieldCurve(dt.date(2024, 1, 2) + dt.timedelta(days=i), grid,
                       tuple(dip if i == 1 else base)) for i in range(5)]
    uni = {"T": Bond("T", 100.0, 0.03, 1, 9.0), "B": Bond("B", 100.0, 0.03, 1, 4.0),
           "S": Bond("S", 100.0, 0.03, 2, 0.5 + 0.5 / 365),
           "L": Bond("L", 100.0, 0.03, 1, 25.0 + 1.5 / 365)}
    elapsed = np.arange(5) / 365.0
    held = BacktestConfig(target_id="T", instruments={Strategy.DURATION: ("L",)})
    ended = BacktestConfig(target_id="T", instruments={Strategy.QUADRATIC: ("S", "L"),
                                                       Strategy.DURATION: ("B",)})
    want = "on 2024-01-04: carry price off 2024-01-03: instrument 'L': price must be finite, got inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, p, d, c, carry, bad = roll_table(uni["L"], elapsed, grid, np.array(
            [dip if i == 1 else base for i in range(5)]))
        assert bad == 2 and len(carry) == 1 and np.isfinite([*p, *d, *c, *carry]).all()
        for config in (held, ended):
            for net_carry in (False, True):
                with pytest.raises(ValueError) as info:
                    run_backtest(hist, uni, dataclasses.replace(config, net_carry=net_carry))
                assert str(info.value) == want
