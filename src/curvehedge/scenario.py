"""Exact-repricing scenario engine.

This is the audit side of the toolkit: a hedge plan claims immunity against
some class of curve movements, and here we check it by moving the actual
knots and repricing every instrument from its cashflows, with no Taylor
truncation anywhere. Shocks are always applied to the knot grid and
instruments repriced off the shocked knots, never off a fitted polynomial,
so the check stays independent of the fitting step it audits.

run_scenarios is the one engine, called by run_scenario, residual_scaling
and the CLI. It stacks the base curve and the K shocked curves as one
(1 + K, knots) block, base curve in row 0, and discounts the plan bonds'
flows, concatenated as one table, over the whole block at once, every float
equal to the one-shock path (apply_shock, spot, price). A translation moves
every knot by exactly a, so the curve is fitted only when some shock has a
slope or twist term. residual_scaling
shrinks a shock dyadically and records the hedged residual at each size;
the log-log slope of that series is the effective order of the
immunization (2 for a first-order hedge, 3 when convexity is matched too).
estimate_order takes that slope in closed form, the least-squares
sum(dx*dy) / sum(dx*dx) about the means of log scale and log residual, in
Python floats; residuals are floored at 1e-300 before the log, and it
refuses (ValueError) an empty series, a scale that is not finite and
positive, and a series with fewer than two distinct scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .bonds import Bond, _bond_flows, _interp_rows, _named, _overflow, _pv, _square, price
from .curve import _SPAN_TOL, PolynomialSegment, ShockSpec, YieldCurve, _shock_block, fit_segment, spot
from .hedging import HedgePlan


@dataclass(frozen=True)
class ScenarioResult:
    shock: ShockSpec
    unhedged_pnl: float
    hedged_pnl: float
    per_instrument_pnl: tuple[tuple[str, float], ...]


def reprice_pnl(bond: Bond, curve: YieldCurve, shocked: YieldCurve) -> float:
    """Exact price change of one bond between two curves.

    The bond is priced at the interpolated spot rate for its maturity on
    each curve; the difference is the full repricing P(Y + dY) - P(Y).
    """
    return price(bond, spot(shocked, bond.maturity)) - price(bond, spot(curve, bond.maturity))


def default_segment(curve: YieldCurve) -> PolynomialSegment:
    """Cubic fit over the whole knot range (quadratic if only 3 knots)."""
    degree = 3 if len(curve.tenors) >= 4 else 2
    return fit_segment(curve, curve.min_tenor, curve.max_tenor, degree)


def run_scenarios(
    plan: HedgePlan,
    universe: Mapping[str, Bond],
    curve: YieldCurve,
    shocks: Sequence[ShockSpec],
    segment: PolynomialSegment | None = None,
) -> list[ScenarioResult]:
    """Apply each shock, reprice target and legs exactly, and sum the P&L.

    The base curve and the shocked curves are one (1 + shocks, knots) rates
    block, base first, and the plan bonds' flows one table, discounted over
    the whole block at once. Slope and twist terms are evaluated against
    `segment`, fitted over the full curve range when not given; a sweep of
    level shifts and custom vectors fits nothing. The first shock in sweep
    order whose curve cannot be built raises the block's ValueError, the one
    apply_shock raises for it. A plan bond whose maturity is off the base
    curve raises an ExtrapolationError that names the bond; one whose base
    yield is too large to square raises the ValueError curve_analytics does.
    """
    ids = [plan.target_id] + [leg.id for leg in plan.legs]
    missing = [i for i in ids if i not in universe]
    if missing:
        raise ValueError(f"unknown instrument id(s) in plan: {missing}")
    if segment is None and any(s.b or s.c for s in shocks):
        segment = default_segment(curve)
    amounts = np.array([plan.target_amount] + [leg.amount for leg in plan.legs])
    bonds = [universe[i] for i in ids]
    lo, hi = curve.min_tenor - _SPAN_TOL, curve.max_tenor + _SPAN_TOL
    flows = []
    for b in bonds:  # an off-curve or unpriceable bond fails here, named, before any shock
        if not lo <= b.maturity <= hi:
            _named(lambda b: spot(curve, b.maturity), b)
        flows.append(_bond_flows(b))
    rates = _shock_block(curve, shocks, segment)
    # each bond's yield on each curve, at its maturity as spot takes it
    mats = np.array([b.maturity for b in bonds] * len(rates))
    ys = _interp_rows(mats, np.asarray(curve.tenors), np.repeat(rates, len(bonds), axis=0))
    base = ys[:len(bonds)].tolist()
    if math.isnan(_square(1.0 + max(base))):  # a base yield analyze refuses; name the first
        b, y = next((b, y) for b, y in zip(bonds, base) if math.isnan(_square(1.0 + y)))
        raise _overflow(b, f"yield {y}", curve.date)
    # one flow table: every flow discounted at its bond's yield on each curve
    counts = [len(t) for t, _ in flows]
    t, cf = (np.concatenate(x) for x in zip(*flows))
    pv = _pv(t, cf, np.repeat(ys.reshape(len(rates), len(bonds)), counts, axis=1))
    edges = [0, *accumulate(counts)]  # a bond's slice sums as its own table would
    prices = np.array([pv[:, i:j].sum(axis=1) for i, j in zip(edges, edges[1:])])
    pnl = amounts[:, None] * (prices[:, 1:] - prices[:, :1])  # (instruments, shocks)
    # the hedged sum is Python's, from 0 and target first, as per shock
    return [ScenarioResult(shock, per[0], sum(per), tuple(zip(ids, per)))
            for shock, per in zip(shocks, pnl.T.tolist())]


def run_scenario(plan: HedgePlan, universe: Mapping[str, Bond], curve: YieldCurve,
                 shock: ShockSpec, segment: PolynomialSegment | None = None) -> ScenarioResult:
    """run_scenarios for one shock."""
    return run_scenarios(plan, universe, curve, [shock], segment)[0]


def residual_scaling(
    plan: HedgePlan,
    universe: Mapping[str, Bond],
    curve: YieldCurve,
    shock_family: ShockSpec,
    steps: int = 4,
    segment: PolynomialSegment | None = None,
) -> list[tuple[float, float]]:
    """Hedged residual magnitude at dyadic fractions of a shock.

    Evaluates the scenario at scales 1, 1/2, 1/4, ... of shock_family
    (steps of them) and returns (scale, |hedged P&L|) pairs. The same
    fitted segment is reused at every scale so only the shock size varies.
    """
    if steps < 3:
        raise ValueError(f"need at least 3 scales to estimate an order, got {steps}")
    scales = [0.5**k for k in range(steps)]
    shocks = [shock_family.scaled(scale) for scale in scales]
    results = run_scenarios(plan, universe, curve, shocks, segment)
    return [(scale, abs(r.hedged_pnl)) for scale, r in zip(scales, results)]


def estimate_order(scaling: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log residual against log scale.

    Residuals at or below double-precision noise are floored rather than
    passed to log, so a perfectly killed shock reports a huge order instead
    of crashing. The slope is the closed form sum(dx*dy) / sum(dx*dx) about
    the means, in Python floats. A ValueError names the fault when there is
    no point, a scale is not finite and positive, or fewer than two scales
    are distinct.
    """
    xs, ys = [], []
    for scale, residual in scaling:
        if not (math.isfinite(scale) and scale > 0.0):
            raise ValueError(f"scales must be finite and positive, got {scale}")
        xs.append(math.log(scale))
        ys.append(math.log(max(residual, 1e-300)))
    if not xs:
        raise ValueError("need at least two scales to estimate an order, got no points")
    distinct = len(set(xs))
    if distinct < 2:
        raise ValueError(f"need at least two distinct scales to estimate an order, got {distinct}")
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    dxs = [x - mx for x in xs]
    return sum(dx * (y - my) for dx, y in zip(dxs, ys)) / sum(dx * dx for dx in dxs)
