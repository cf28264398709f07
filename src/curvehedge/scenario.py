"""Exact-repricing scenario engine.

This is the audit side of the toolkit: a hedge plan claims immunity against
some class of curve movements, and here we check it by moving the actual
knots and repricing every instrument from its cashflows, with no Taylor
truncation anywhere. Shocks are always applied to the knot grid and
instruments repriced off the shocked knots, never off a fitted polynomial,
so the check stays independent of the fitting step it audits.

run_scenarios is the one engine, called by run_scenario, residual_scaling
and the CLI. It stacks the K shocked curves as one (K, knots) block and
prices each bond once over the base curve and all K of them, every float
equal to the one-shock path (apply_shock, spot, price). residual_scaling
shrinks a shock dyadically and records the hedged residual at each size;
the log-log slope of that series is the effective order of the
immunization (2 for a first-order hedge, 3 when convexity is matched too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bonds import Bond, _bond_flows, _interp_rows, _named, _pv, price
from .curve import PolynomialSegment, ShockSpec, YieldCurve, apply_shock, fit_segment, spot
from .curve import _bad_rows, _shock_block
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

    Each bond's flows are built once and priced in one block over the base
    curve and all the shocked curves, stacked as one (shocks, knots) block.
    Parametric shocks are evaluated against `segment` (fitted once over the
    full curve range when not given); custom shock vectors ignore it. A
    shock whose curve cannot be built raises what apply_shock raises for
    it, the first such shock in sweep order. A plan bond whose maturity is
    off the base curve raises an ExtrapolationError that names the bond.
    """
    ids = [plan.target_id] + [leg.id for leg in plan.legs]
    missing = [i for i in ids if i not in universe]
    if missing:
        raise ValueError(f"unknown instrument id(s) in plan: {missing}")
    if segment is None and any(s.is_parametric for s in shocks):
        segment = default_segment(curve)
    amounts = np.array([plan.target_amount] + [leg.amount for leg in plan.legs])
    bonds = [universe[i] for i in ids]
    # an off-curve or unpriceable bond fails here, named, bond by bond, before any shock
    base = [(_named(lambda b: spot(curve, b.maturity), b), *_bond_flows(b)) for b in bonds]
    rates = _shock_block(curve, shocks, segment)
    bad = _bad_rows(rates)
    if bad.any():  # the first shocked curve that fails its checks: apply_shock names it
        shock = shocks[int(bad.argmax())]
        apply_shock(curve, shock, segment)
        raise RuntimeError(f"shock block and apply_shock disagree on {shock}")
    # each bond's yield on each shocked curve, at its maturity as spot takes it
    mats = np.repeat([b.maturity for b in bonds], len(shocks))
    ys = _interp_rows(mats, np.asarray(curve.tenors), np.tile(rates, (len(bonds), 1)))
    # row 0 of each bond's block is the base curve
    prices = np.array([_pv(t, cf, np.append(y0, y)[:, None]).sum(axis=1)
                       for (y0, t, cf), y in zip(base, ys.reshape(len(bonds), len(shocks)))])
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
    of crashing.
    """
    scales = np.array([s for s, _ in scaling])
    residuals = np.maximum(np.array([r for _, r in scaling]), 1e-300)
    slope = np.polyfit(np.log(scales), np.log(residuals), 1)[0]
    return float(slope)
