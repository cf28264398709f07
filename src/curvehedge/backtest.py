"""Daily backtest: rebalance each strategy's hedge, mark to market, compare.

Mechanics per step from day d to day d+1:

* every bond's maturity rolls down by the ACT/365 fraction elapsed since
  the start of the window, so analytics on day d use the shortened bond;
* on rebalance days each strategy's plan is rebuilt from day-d snapshots;
* P&L is exact repricing: amount times (price off day d+1's curve at the
  rolled maturity minus price off day d's curve at day d's maturity).

Gross P&L includes pull-to-par carry. The carry-netted series subtracts
the deterministic price drift the position would have shown on an
unchanged curve, isolating curve-movement P&L; on a frozen history the
netted series is identically zero. Both series are kept, net_carry picks
which one reports and summaries use.

A strategy whose bonds mature, or roll below the curve's shortest tenor,
has its series truncated at that day with a warning record instead of
failing the whole run.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .bonds import Bond, price
from .curve import YieldCurve, spot
from .errors import ExtrapolationError, ValidationError
from .hedging import STRATEGIES, HedgePlan, InstrumentSnapshot, Strategy, build_plan, snapshot

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
        if self.rebalance_days < 1:
            raise ValueError("rebalance_days must be >= 1")
        for strat in self.strategies:
            spec = STRATEGIES.get(strat)
            if spec is None:
                raise ValueError(f"cannot backtest strategy {strat.value}: no closed form")
            ids = self.instruments.get(strat)
            if ids is None:
                raise ValueError(f"no hedging instruments configured for {strat.value}")
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


def year_fraction(d0: dt.date, d1: dt.date) -> float:
    """ACT/365 year fraction between two dates."""
    return (d1 - d0).days / 365.0


def summary_stats(series: Sequence[float]) -> SummaryStats:
    """Mean, sample stdev, max drawdown of the cumulative series, worst day."""
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("cannot summarize an empty series")
    cum = np.cumsum(x)
    drawdown = float(np.max(np.maximum.accumulate(cum) - cum))
    stdev = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    return SummaryStats(
        mean=float(np.mean(x)),
        stdev=stdev,
        max_drawdown=drawdown,
        worst_day=float(np.min(x)),
    )


def tenor_correlations(history: Sequence[YieldCurve], on: str = "levels") -> np.ndarray:
    """Pearson correlation matrix of per-tenor spot series across the history.

    on="levels" correlates the rate levels (the usual presentation);
    on="diffs" correlates day-over-day changes. A constant series makes the
    correlation undefined and raises, naming the tenor.
    """
    if on not in ("levels", "diffs"):
        raise ValueError(f"on must be 'levels' or 'diffs', got {on!r}")
    if len(history) < 3:
        raise ValueError(f"need at least 3 days of history, got {len(history)}")
    grid = history[0].tenors
    for c in history[1:]:
        if c.tenors != grid:
            raise ValueError(f"tenor grid changes on {c.date}; correlations need one grid")
    levels = np.array([c.rates for c in history])
    data = np.diff(levels, axis=0) if on == "diffs" else levels
    # max-min is exact in floating point, unlike a computed stdev
    spans = np.ptp(data, axis=0)
    flat = [grid[i] for i in range(len(grid)) if spans[i] == 0.0]
    if flat:
        raise ValueError(f"constant series at tenor(s) {flat}: correlation undefined")
    corr = np.corrcoef(data, rowvar=False)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


def run_backtest(
    history: Sequence[YieldCurve],
    universe: Mapping[str, Bond],
    config: BacktestConfig,
) -> BacktestReport:
    """Replay a curve history and monitor each strategy's daily P&L."""
    curves = list(history)
    if len(curves) < 2:
        raise ValidationError("backtest needs at least 2 days of history")
    for prev, cur in zip(curves, curves[1:]):
        if cur.date <= prev.date:
            raise ValidationError(f"history dates not strictly increasing at {cur.date}")
        if cur.tenors != prev.tenors:
            raise ValidationError(f"tenor grid changes on {cur.date}")
    if config.start is not None:
        curves = [c for c in curves if c.date >= config.start]
    if config.end is not None:
        curves = [c for c in curves if c.date <= config.end]
    if len(curves) < 2:
        raise ValidationError("date range leaves fewer than 2 days of history")

    needed = {config.target_id}
    for strat in config.strategies:
        needed.update(config.instruments[strat])
    missing = sorted(i for i in needed if i not in universe)
    if missing:
        raise ValidationError(f"bond universe is missing instrument(s) {missing}")

    day0 = curves[0].date
    names = [s.value for s in config.strategies] + [UNHEDGED]
    alive: dict[str, bool] = {n: True for n in names}
    recorded: dict[str, list[tuple[dt.date, float, float]]] = {n: [] for n in names}
    warnings: list[str] = []
    plans: dict[Strategy, HedgePlan] = {}

    def rolled_bond(bond_id: str, on: dt.date) -> Bond:
        return universe[bond_id].rolled(year_fraction(day0, on))

    # per-day memos: each bond is marked and snapshotted once per replayed
    # day, whichever series asks first
    marks: dict[str, tuple[float, float, float]] = {}
    snaps: dict[str, InstrumentSnapshot] = {}

    def step_pnl(bond_id: str, amount: float, cur: YieldCurve, nxt: YieldCurve) -> tuple[float, float]:
        if bond_id not in marks:
            b_now = rolled_bond(bond_id, cur.date)
            b_next = rolled_bond(bond_id, nxt.date)
            marks[bond_id] = (
                price(b_now, spot(cur, b_now.maturity)),
                price(b_next, spot(nxt, b_next.maturity)),
                price(b_next, spot(cur, b_next.maturity)),
            )
        p_now, p_next, p_carry = marks[bond_id]
        gross = amount * (p_next - p_now)
        # deterministic pull-to-par on an unchanged curve
        carry = amount * (p_carry - p_now)
        return gross, gross - carry

    def snap(bond_id: str, cur: YieldCurve, amount: float = 0.0) -> InstrumentSnapshot:
        # the target never hedges itself, so an id always carries one amount
        if bond_id not in snaps:
            snaps[bond_id] = snapshot(rolled_bond(bond_id, cur.date), cur, amount=amount)
        return snaps[bond_id]

    def unpriceable(ids: list[str], nxt: YieldCurve) -> list[str]:
        # bonds must stay above the shortest tenor through the next mark
        elapsed = year_fraction(day0, nxt.date)
        return [i for i in ids if universe[i].maturity - elapsed < nxt.min_tenor]

    for k in range(len(curves) - 1):
        cur, nxt = curves[k], curves[k + 1]
        rebalance = k % config.rebalance_days == 0
        marks.clear()
        snaps.clear()

        for strat in config.strategies:
            name = strat.value
            if not alive[name]:
                continue
            ids = [config.target_id, *config.instruments[strat]]
            dead = unpriceable(ids, nxt)
            if dead:
                warnings.append(
                    f"{name}: series truncated at {cur.date}: {dead} matured or "
                    "rolled below the curve's shortest tenor"
                )
                alive[name] = False
                continue
            try:
                if rebalance or strat not in plans:
                    target = snap(config.target_id, cur, config.target_amount)
                    legs = [snap(i, cur) for i in config.instruments[strat]]
                    plans[strat] = build_plan(strat, target, legs, config.allow_extrapolation)
                plan = plans[strat]
                gross = net = 0.0
                for bond_id, amount in [(config.target_id, config.target_amount)] + [
                    (leg.id, leg.amount) for leg in plan.legs
                ]:
                    g, n = step_pnl(bond_id, amount, cur, nxt)
                    gross += g
                    net += n
            except (ExtrapolationError, ValueError) as exc:
                raise type(exc)(f"{name} failed on {cur.date}: {exc}") from exc
            recorded[name].append((nxt.date, gross, net))

        if alive[UNHEDGED]:
            if unpriceable([config.target_id], nxt):
                warnings.append(f"{UNHEDGED}: series truncated at {cur.date}: target matured")
                alive[UNHEDGED] = False
            else:
                g, n = step_pnl(config.target_id, config.target_amount, cur, nxt)
                recorded[UNHEDGED].append((nxt.date, g, n))

    series: dict[str, StrategySeries] = {}
    summary: dict[str, SummaryStats] = {}
    for name in names:
        rows = recorded[name]
        s = StrategySeries(
            name=name,
            dates=[r[0] for r in rows],
            gross=np.array([r[1] for r in rows]),
            net=np.array([r[2] for r in rows]),
        )
        series[name] = s
        if rows:
            summary[name] = summary_stats(s.pnl(config.net_carry))
    return BacktestReport(
        config=config,
        dates=[c.date for c in curves],
        series=series,
        summary=summary,
        warnings=warnings,
    )
