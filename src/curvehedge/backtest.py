"""Daily backtest: rebalance each strategy's hedge, mark to market, compare.

The start/end window is a slice of the history's rows (a CurveHistory).
Every bond's maturity rolls down by the ACT/365 fraction elapsed since its
first day, so analytics on day d use the shortened bond. The replay runs
in three phases:

* mark table: each bond the config names lives for as many steps as it
  stays at or above the curve's shortest tenor through the next mark. One
  table holds the whole book over its lives (bonds._roll_table), built
  from the window's (days, knots) rates block: row d of a bond is
  the bond rolled to day d, its mark the price off day d's curve and its
  carry price the price off day d-1's curve. Each bond's rows are summed in
  blocks of days with the same live-flow count, a pro-rata first coupon
  (accrual offset) sits in its row, and every number is equal to the
  scalar price/analytics path. A bond that cannot be priced fails here, by
  name and first failing day, before any strategy runs.
* plans: a strategy lives as long as the shortest life among its bonds. One
  call of the hedging kernel solves its ratios, with a single plan's checks,
  on every rebalance_days-th row of the table (the first failing day is
  named). Its legs are sorted by their first day's maturities (rolled by
  one elapsed time, they keep that order), and the holdings are the amounts
  as solved: the target on top, each rebalance day's held until the next.
* P&L: exact repricing over one holdings block (strategies, slots, steps):
  the target, then the legs by maturity, 0 from the series' end on. Each
  bond's mark change (mark on day d+1 minus mark on day d) and carry drift
  is taken once; one gather, one product and one sum over the slots in
  holding order give every strategy's gross and net P&L.

Gross P&L includes pull-to-par carry. The carry-netted series subtracts
the deterministic price drift the position would have shown on an
unchanged curve (carry price minus mark), isolating curve-movement P&L; on
a frozen history the netted series is identically zero. Both series are
kept, net_carry picks which one reports and summaries use.

A series whose bonds mature, or roll below the curve's shortest tenor, is
truncated at that day with a warning instead of failing the whole run. The
warnings come in day order, and within a day in config order with the
unhedged series last.
"""

from __future__ import annotations

import bisect
import datetime as dt
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .bonds import Bond, _roll_table, price
from .curve import YieldCurve, _history, spot
from .errors import ValidationError
from .hedging import STRATEGIES, Strategy, _ratios, snapshot

UNHEDGED = "unhedged"

ALL_STRATEGIES = tuple(STRATEGIES)


@dataclass(frozen=True)
class BacktestConfig:
    target_id: str
    instruments: Mapping[Strategy, tuple[str, ...]]
    target_amount: float = 100.0
    strategies: tuple[Strategy, ...] = ALL_STRATEGIES
    rebalance_days: int = 1
    start: dt.date | None = None
    end: dt.date | None = None
    net_carry: bool = False
    allow_extrapolation: bool = False

    def __post_init__(self):
        if not math.isfinite(self.target_amount):
            raise ValueError(f"target_amount must be finite, got {self.target_amount}")
        try:
            if operator.index(self.rebalance_days) < 1:
                raise ValueError("rebalance_days must be >= 1")
        except TypeError:
            raise ValueError(f"rebalance_days must be an integer, got {self.rebalance_days!r}") from None
        for strat in self.strategies:
            if self.strategies.count(strat) > 1:
                raise ValueError(f"{strat.value} is listed more than once in strategies")
            spec = STRATEGIES.get(strat)
            if spec is None:
                raise ValueError(f"cannot backtest strategy {strat.value}: no closed form")
            ids = self.instruments.get(strat)
            if ids is None:
                raise ValueError(f"no hedging instruments configured for {strat.value}")
            if isinstance(ids, str):
                raise ValueError(f"instruments for {strat.value} must be a list of ids, not {ids!r}")
            if len(ids) != spec.legs:
                raise ValueError(f"{strat.value} needs {spec.legs} instruments, got {len(ids)}")
            if self.target_id in ids:
                raise ValueError(f"target {self.target_id!r} cannot hedge itself")


@dataclass
class StrategySeries:
    """Daily P&L of one strategy (or of the unhedged target)."""

    name: str
    dates: list[dt.date]
    gross: np.ndarray
    net: np.ndarray

    def pnl(self, net_carry: bool) -> np.ndarray:
        return self.net if net_carry else self.gross

    def cumulative(self, net_carry: bool) -> np.ndarray:
        return np.cumsum(self.pnl(net_carry))


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    stdev: float
    max_drawdown: float
    worst_day: float


@dataclass
class BacktestReport:
    config: BacktestConfig
    dates: list[dt.date]
    series: dict[str, StrategySeries]
    summary: dict[str, SummaryStats]
    warnings: list[str] = field(default_factory=list)


def summary_stats(series: Sequence[float]) -> SummaryStats:
    """Mean, sample stdev, max drawdown of the cumulative series, worst day."""
    x = np.asarray(series, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("cannot summarize an empty series")
    return _summaries([x])[0]


def _summaries(series: Sequence[np.ndarray]) -> list[SummaryStats]:
    """summary_stats of each non-empty series, as one (series, days) block per
    length: each row is reduced on its own, so every float is the same. The
    mean and sample stdev share one sum, in the arithmetic of NumPy's mean
    and std(ddof=1) without their wrappers."""
    stats = {}
    for n in {len(x) for x in series}:
        at = [i for i, x in enumerate(series) if len(x) == n]
        x = np.array([series[i] for i in at])
        cum = x.cumsum(axis=1)
        mean = x.sum(axis=1) / n
        dev = x - mean[:, None]
        cols = (mean, np.sqrt((dev * dev).sum(axis=1) / (n - 1)) if n > 1 else np.zeros(len(at)),
                (np.maximum.accumulate(cum, axis=1) - cum).max(axis=1), x.min(axis=1))
        stats.update(zip(at, (SummaryStats(*v) for v in zip(*(c.tolist() for c in cols)))))
    return [stats[i] for i in range(len(series))]


def tenor_correlations(history: Sequence[YieldCurve], on: str = "levels") -> np.ndarray:
    """Pearson correlation matrix of per-tenor spot series across the history.

    on="levels" correlates the rate levels (the usual presentation);
    on="diffs" correlates day-over-day changes. A constant series makes the
    correlation undefined and raises, naming the tenor, as does a series
    whose variance leaves the float range (a huge rate overflows it).
    """
    if on not in ("levels", "diffs"):
        raise ValueError(f"on must be 'levels' or 'diffs', got {on!r}")
    if len(history) < 3:
        raise ValueError(f"need at least 3 days of history, got {len(history)}")
    history = _history(history)
    data = np.diff(history.rates, axis=0) if on == "diffs" else history.rates
    # max-min is exact in floating point, unlike a computed stdev
    flat = [t for t, span in zip(history.tenors, np.ptp(data, axis=0).tolist()) if span == 0.0]
    if flat:
        raise ValueError(f"constant series at tenor(s) {flat}: correlation undefined")
    with np.errstate(all="ignore"):  # a variance out of float range is refused below
        corr = np.corrcoef(data, rowvar=False)
        corr = (corr + corr.T) / 2.0
    bad = ~np.isfinite(corr)
    if bad.any():
        # a tenor whose own variance is not finite spoils its whole row and column
        worst = bad.diagonal() if bad.diagonal().any() else bad.any(axis=0)
        tenors = [t for t, b in zip(history.tenors, worst.tolist()) if b]
        raise ValueError(f"correlation not finite at tenor(s) {tenors}: variance out of range")
    np.fill_diagonal(corr, 1.0)
    return corr


def _raise_on_day(bond: Bond, curves: Sequence[YieldCurve], elapsed: np.ndarray, k: int):
    """Raise the error the scalar path meets on day k, naming the bond and the day."""
    try:
        b = bond.rolled(float(elapsed[k]))
        snapshot(b, curves[k])
        with np.errstate(over="ignore"):
            carry = price(b, spot(curves[k - 1], b.maturity)) if k else 0.0
        if not math.isfinite(carry):
            raise ValueError(f"carry price off {curves[k - 1].date} must be finite, got {carry}")
    except ValueError as exc:
        raise type(exc)(f"bond {bond.id!r} cannot be priced on {curves[k].date}: {exc}") from exc
    raise RuntimeError(f"bond {bond.id!r}: mark table and scalar path disagree on {curves[k].date}")


def run_backtest(
    history: Sequence[YieldCurve],
    universe: Mapping[str, Bond],
    config: BacktestConfig,
) -> BacktestReport:
    """Replay a curve history and monitor each strategy's daily P&L."""
    history = _history(history)
    if len(history) < 2:
        raise ValidationError("backtest needs at least 2 days of history")
    lo = 0 if config.start is None else bisect.bisect_left(history.dates, config.start)
    hi = len(history) if config.end is None else bisect.bisect_right(history.dates, config.end)
    curves = history[lo:hi]
    if len(curves) < 2:
        raise ValidationError("date range leaves fewer than 2 days of history")

    needed = {config.target_id}
    for strat in config.strategies:
        needed.update(config.instruments[strat])
    missing = sorted(i for i in needed if i not in universe)
    if missing:
        raise ValidationError(f"bond universe is missing instrument(s) {missing}")

    # mark table, one row per bond in id order: a bond lives while it stays
    # at or above the shortest tenor through the next mark
    dates = list(curves.dates)
    ordinals = np.fromiter(map(dt.date.toordinal, dates), float, len(dates))
    elapsed = (ordinals - ordinals[0]) / 365.0  # ACT/365 year fractions
    steps = len(curves) - 1
    ids = sorted(needed)
    bonds = [universe[i] for i in ids]
    below = np.subtract.outer([b.maturity for b in bonds], elapsed[1:]) < curves.tenors[0]
    lives = np.where(below.any(axis=1), below.argmax(axis=1), steps)
    rows = np.where(lives > 0, lives + 1, 0)  # a bond gone before the first mark is never priced
    table, stop = _roll_table(bonds, rows, elapsed, curves.tenors, curves.rates)
    bad = np.flatnonzero(stop < rows)
    if bad.size:  # the first unpriceable bond in id order
        _raise_on_day(bonds[bad[0]], curves, elapsed, int(stop[bad[0]]))
    row = {bond_id: i for i, bond_id in enumerate(ids)}
    life = dict(zip(ids, lives.tolist()))
    # the holdings block: per strategy, slot 0 the target and then the legs
    # in maturity order, each slot's amount over the steps (0 from the
    # series' end on) and its row of the book (an unused slot: the zero row)
    target, amount = config.target_id, config.target_amount
    width = 1 + max((STRATEGIES[s].legs for s in config.strategies), default=0)
    held = np.zeros((len(config.strategies), width, steps))
    book = np.full(held.shape[:2], len(ids))
    lengths, ends = [], []  # ends: (step, series position, warning)
    for pos, strat in enumerate(config.strategies):
        name, legs = strat.value, config.instruments[strat]
        n = min(life[i] for i in (target, *legs))
        lengths.append(n)
        if n < steps:
            dead = [i for i in (target, *legs) if life[i] == n]
            ends.append((n, pos, f"{name}: series truncated at {dates[n]}: {dead} matured "
                        "or rolled below the curve's shortest tenor"))
        # one plan per rebalance day, all solved at once, the legs in their
        # maturity order on the first day (rolled together, they keep it)
        legs = sorted(legs, key=lambda i: table[1, row[i], 0])
        holds = [row[target], *(row[i] for i in legs)]
        book[pos, : len(holds)] = holds
        if n:
            days = slice(0, n, config.rebalance_days)
            amounts = _ratios(strat, legs, (amount, *table[:4, row[target], days]),
                              table[:4, holds[1:], days], config.allow_extrapolation, dates[days])
            held[pos, 0, :n] = amount
            held[pos, 1 : len(holds), :n] = np.array(amounts)[:, np.arange(n) // config.rebalance_days]
    # each bond's mark change and carry drift (carry price minus mark: the
    # pull-to-par on an unchanged curve), then the zero row
    moves = np.zeros((2, len(ids) + 1, steps))
    np.subtract(table[::4, :, 1:], table[0, :, :-1], out=moves[:, :-1])  # rows 0 and 4
    pnl = moves[:, book]
    pnl *= held
    np.subtract(pnl[0], pnl[1], out=pnl[1])  # net: gross minus the held carry drift
    # each series summed over its slots in holding order from 0.0, as a running
    # total would; a padded 0.0 changes no sum (one from +0.0 is never -0.0)
    gross, net = np.add.reduce(pnl, axis=2, initial=0.0)
    series = {strat.value: StrategySeries(strat.value, dates[1 : n + 1], gross[pos, :n], net[pos, :n])
              for pos, (strat, n) in enumerate(zip(config.strategies, lengths))}

    n = life[target]
    if n < steps:
        ends.append((n, len(config.strategies),
                     f"{UNHEDGED}: series truncated at {dates[n]}: target matured"))
    gross = amount * moves[0, row[target], :n]
    series[UNHEDGED] = StrategySeries(UNHEDGED, dates[1 : n + 1], gross,
                                      gross - amount * moves[1, row[target], :n])

    started = {name: s.pnl(config.net_carry) for name, s in series.items() if s.dates}
    summary = dict(zip(started, _summaries(list(started.values()))))
    return BacktestReport(
        config=config,
        dates=dates,
        series=series,
        summary=summary,
        warnings=[w for *_, w in sorted(ends)],
    )
