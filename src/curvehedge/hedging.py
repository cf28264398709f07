"""Hedge-ratio computation for the four immunization strategies.

All strategies zero out a set of dollar-risk constraints across the target
position and its hedge legs. Writing the dollar duration of instrument i as
N_i P_i D_i, the strategies are:

* duration: one instrument, zero total dollar duration. Covers a parallel
  shift of the curve.
* quadratic: two instruments, zero dollar duration and zero maturity-
  weighted dollar duration. Covers translation plus rotation, i.e. any
  rate move affine in maturity.
* convexity: two instruments, zero dollar duration and zero dollar
  convexity. Covers a parallel shift through second order.
* cubic: three instruments, zero dollar duration weighted by 1, T and T^2.
  Covers translation, rotation and twist, i.e. any rate move quadratic in
  maturity.

STRATEGIES is the one table of these facts, and build_plan dispatches on it.
Duration, quadratic and cubic are one formula, polynomial interpolation:
with n legs, leg i takes the target's dollar duration times the Lagrange
basis polynomial l_i(T) over the n leg maturities, which zeroes
sum N_i P_i D_i T_i^k for k < n. Convexity is a 2x2 solve (Cramer's rule).
Both closed forms live in one kernel, _ratios, which takes the target and
the legs in maturity order, on one date or as arrays over many, and checks
every date at once. The four builders (its one-date case) sort the legs
they are given; the backtest solves each strategy's rebalance days in one
call, its legs sorted by the first day's maturities. A generic square-system
solver (Strategy.CUSTOM plans) reproduces every closed form and extends to
arbitrary constraint sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .bonds import Bond, curve_analytics
from .curve import YieldCurve, _condition_number
from .errors import (
    CollinearInstrumentError,
    DegenerateSpanError,
    ExtrapolationError,
    SingularSystemError,
)

MIN_MATURITY_SPAN = 1.0 / 365.0
DET_RELATIVE_TOL = 1e-12
SOLVE_CONDITION_LIMIT = 1e12

_BOUNDS_TOL = 1e-12


class Strategy(str, Enum):
    DURATION = "duration"
    QUADRATIC = "quadratic"
    CONVEXITY = "convexity"  # the duration-convexity approach
    CUBIC = "cubic"
    CUSTOM = "custom"  # generic constraint system, any leg count


@dataclass(frozen=True)
class InstrumentSnapshot:
    """Price, maturity and risk numbers of one instrument on one date.

    amount is the signed position size; it only matters on the target (the
    position being hedged), hedge candidates carry amount 0; every number is finite.
    """

    id: str
    price: float
    maturity: float
    modified_duration: float
    convexity: float
    amount: float = 0.0

    def __post_init__(self):
        for name in ("price", "maturity", "modified_duration", "convexity", "amount"):
            if not math.isfinite(x := getattr(self, name)):
                raise ValueError(f"instrument {self.id!r}: {name} must be finite, got {x}")
        if self.price <= 0:
            raise ValueError(f"instrument {self.id!r}: price must be positive")
        if self.maturity <= 0:
            raise ValueError(f"instrument {self.id!r}: maturity must be positive")
        if self.modified_duration <= 0:
            raise ValueError(f"instrument {self.id!r}: duration must be positive")


@dataclass(frozen=True)
class HedgeLeg:
    id: str
    amount: float


@dataclass(frozen=True)
class HedgePlan:
    """Instrument amounts produced by a strategy, with the achieved constraints.

    constraints holds (name, achieved value) pairs: the residual of each
    zeroed dollar-risk sum after substituting the solved amounts back in.
    """

    strategy: Strategy
    target_id: str
    target_amount: float
    legs: tuple[HedgeLeg, ...]
    constraints: tuple[tuple[str, float], ...]

    def __post_init__(self):
        spec = STRATEGIES.get(self.strategy)
        if spec is not None and len(self.legs) != spec.legs:
            raise ValueError(
                f"{self.strategy.value} plan needs {spec.legs} legs, got {len(self.legs)}"
            )

    def amounts(self) -> dict[str, float]:
        return {leg.id: leg.amount for leg in self.legs}


@dataclass(frozen=True)
class Constraint:
    """A named per-instrument weight; the hedge zeroes sum N_i P_i w(inst_i)."""

    name: str
    weight: Callable[[InstrumentSnapshot], float]


DOLLAR_DURATION = Constraint("dollar_duration", lambda s: s.modified_duration)
DURATION_MATURITY = Constraint(
    "dollar_duration_maturity", lambda s: s.modified_duration * s.maturity
)
DURATION_MATURITY_SQ = Constraint(
    "dollar_duration_maturity_sq", lambda s: s.modified_duration * s.maturity**2
)
DOLLAR_CONVEXITY = Constraint("dollar_convexity", lambda s: s.convexity)


@dataclass(frozen=True)
class StrategySpec:
    """What a closed-form strategy zeroes, and where its target may sit."""

    constraints: tuple[Constraint, ...]
    interior: bool  # target maturity must lie inside the legs' span

    @property
    def legs(self) -> int:
        return len(self.constraints)


STRATEGIES: Mapping[Strategy, StrategySpec] = {
    Strategy.DURATION: StrategySpec((DOLLAR_DURATION,), interior=False),
    Strategy.QUADRATIC: StrategySpec((DOLLAR_DURATION, DURATION_MATURITY), interior=True),
    Strategy.CONVEXITY: StrategySpec((DOLLAR_DURATION, DOLLAR_CONVEXITY), interior=False),
    Strategy.CUBIC: StrategySpec(
        (DOLLAR_DURATION, DURATION_MATURITY, DURATION_MATURITY_SQ), interior=True
    ),
}


def snapshot(bond: Bond, curve: YieldCurve, amount: float = 0.0, mode: str = "flat") -> InstrumentSnapshot:
    """Snapshot a bond off a curve (yield = spot at its maturity by default)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        a = curve_analytics(bond, curve, mode=mode)
    return InstrumentSnapshot(
        id=bond.id,
        price=a.price,
        maturity=bond.maturity,
        modified_duration=a.modified_duration,
        convexity=a.convexity,
        amount=amount,
    )


def _plan(
    strategy: Strategy,
    target: InstrumentSnapshot,
    legs: Sequence[InstrumentSnapshot],
    amounts: Sequence[float],
    constraints: Sequence[Constraint],
) -> HedgePlan:
    """The plan holding amounts of legs, with each constraint's achieved sum."""
    achieved = []
    for con in constraints:
        total = target.amount * target.price * con.weight(target)
        for inst, n in zip(legs, amounts):
            total += n * inst.price * con.weight(inst)
        achieved.append((con.name, float(total)))
    return HedgePlan(strategy, target.id, target.amount,
                     tuple(HedgeLeg(inst.id, float(n)) for inst, n in zip(legs, amounts)),
                     tuple(achieved))


def _ratios(strategy: Strategy, ids: Sequence[str], target: Sequence, legs: Sequence,
            allow_extrapolation: bool = False, dates: Sequence | None = None):
    """Closed-form leg amounts of a table strategy, on one date or on many.

    target is (N, P, T, D, C) and legs (P, T, D, C), one row per leg in ids
    order, each value a float (one date) or an array over dates. The legs
    come in maturity order on every date (legs rolled by one elapsed time
    keep their first date's). Every date is checked; the first failing one
    raises, prefixed "<strategy> failed on <date>: " if dates are given.
    Returns one amount per leg, each equal to its float computation.
    """
    amount, price, t, d, c = target
    p_, t_, d_, c_ = legs
    if strategy is Strategy.CONVEXITY:
        det = c_[0] * d_[1] - c_[1] * d_[0]
        scale = np.maximum(abs(c_[0] * d_[1]), abs(c_[1] * d_[0]))
        fails = [abs(det) <= DET_RELATIVE_TOL * scale]
    else:
        fails = [hi - lo < MIN_MATURITY_SPAN for lo, hi in zip(t_, t_[1:])]
        if STRATEGIES[strategy].interior and not allow_extrapolation:
            fails.append((t < t_[0] - _BOUNDS_TOL) | (t > t_[-1] + _BOUNDS_TOL))
    bad = np.logical_or.reduce(fails)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        check = next(j for j, fail in enumerate(fails) if np.ravel(fail)[k])
        ts = [np.ravel(x)[k].item() for x in t_]
        if strategy is Strategy.CONVEXITY:
            exc = CollinearInstrumentError(
                f"instruments {ids[0]!r} and {ids[1]!r} have proportional duration/convexity "
                f"(C_A D_B - C_B D_A = {np.ravel(det)[k]:.3e})")
        elif check < len(ts) - 1:
            exc = DegenerateSpanError(
                f"instruments {ids[check]!r} and {ids[check + 1]!r} have maturities "
                f"{ts[check]} and {ts[check + 1]}, closer than {MIN_MATURITY_SPAN:.3e} years")
        else:
            exc = ExtrapolationError(
                f"target maturity {np.ravel(t)[k].item()} outside hedging span "
                f"[{ts[0]}, {ts[-1]}]; pass allow_extrapolation=True to override")
        if dates is not None:
            exc = type(exc)(f"{strategy.value} failed on {dates[k]}: {exc}")
        raise exc
    if strategy is Strategy.CONVEXITY:
        np_ = amount * price
        return [np_ * (c_[1] * d - c * d_[1]) / (p_[0] * det),
                np_ * (-c_[0] * d + d_[0] * c) / (p_[1] * det)]
    # N_i P_i D_i = -N P D l_i(T), l_i the Lagrange basis over the leg maturities
    npd = amount * price * d
    cols = []
    for i, ti in enumerate(t_):
        basis = 1.0
        for j, tj in enumerate(t_):
            if j != i:
                basis *= (t - tj) / (ti - tj)
        cols.append(-npd * basis / (p_[i] * d_[i]))
    return cols


def _closed_form(strategy: Strategy, target: InstrumentSnapshot,
                 legs: Sequence[InstrumentSnapshot], allow_extrapolation: bool = False):
    """The one-date case of _ratios, as a plan listing the legs by maturity
    (a stable sort: legs of equal maturity keep the order passed)."""
    legs = sorted(legs, key=lambda s: s.maturity)
    fields = ("price", "maturity", "modified_duration", "convexity")
    amounts = _ratios(
        strategy, [s.id for s in legs], (target.amount, *(getattr(target, f) for f in fields)),
        [[getattr(s, f) for s in legs] for f in fields], allow_extrapolation)
    return _plan(strategy, target, legs, amounts, STRATEGIES[strategy].constraints)


def duration_hedge(target: InstrumentSnapshot, inst_a: InstrumentSnapshot) -> HedgePlan:
    """Single-instrument hedge N_A = -N P D / (P_A D_A); kills dollar duration."""
    return _closed_form(Strategy.DURATION, target, (inst_a,))


def quadratic_hedge(
    target: InstrumentSnapshot,
    inst_a: InstrumentSnapshot,
    inst_b: InstrumentSnapshot,
    allow_extrapolation: bool = False,
) -> HedgePlan:
    """Two-instrument hedge against translation and rotation.

    With instruments sorted so T_A < T_B, the ratios split the target's
    dollar duration linearly in maturity:

        N_A = -(N P D / P_A D_A) (T_B - T) / (T_B - T_A)
        N_B = -(N P D / P_B D_B) (T - T_A) / (T_B - T_A)

    zeroing both sum N_i P_i D_i and sum N_i P_i D_i T_i.
    """
    return _closed_form(Strategy.QUADRATIC, target, (inst_a, inst_b), allow_extrapolation)


def convexity_hedge(
    target: InstrumentSnapshot,
    inst_a: InstrumentSnapshot,
    inst_b: InstrumentSnapshot,
) -> HedgePlan:
    """Two-instrument duration-convexity hedge.

        N_A = N P (C_B D - C D_B) / (P_A (C_A D_B - C_B D_A))
        N_B = N P (-C_A D + D_A C) / (P_B (C_A D_B - C_B D_A))

    zeroing sum N_i P_i D_i and sum N_i P_i C_i. Fails when the instruments'
    (D, C) pairs are proportional: they then carry the same risk shape and
    the system is singular.
    """
    return _closed_form(Strategy.CONVEXITY, target, (inst_a, inst_b))


def cubic_hedge(
    target: InstrumentSnapshot,
    inst_a: InstrumentSnapshot,
    inst_b: InstrumentSnapshot,
    inst_c: InstrumentSnapshot,
    allow_extrapolation: bool = False,
) -> HedgePlan:
    """Three-instrument hedge against translation, rotation and twist.

    Each leg's dollar duration is the target's scaled by the Lagrange basis
    polynomial over the three instrument maturities, evaluated at the
    target maturity:

        N_i P_i D_i = -N P D l_i(T)

    which zeroes sum N_i P_i D_i weighted by 1, T_i and T_i^2. Instruments
    are sorted by maturity internally, so the result does not depend on the
    order they are passed in.
    """
    return _closed_form(
        Strategy.CUBIC, target, (inst_a, inst_b, inst_c), allow_extrapolation
    )


def build_plan(
    strategy: Strategy,
    target: InstrumentSnapshot,
    legs: Sequence[InstrumentSnapshot],
    allow_extrapolation: bool = False,
) -> HedgePlan:
    """Build a closed-form strategy's plan; allow_extrapolation applies to interior ones.

    The public builder is looked up by name at call time, so a wrapper
    installed on this module's attribute sees every plan.
    """
    spec = STRATEGIES.get(strategy)
    if spec is None:
        raise ValueError(f"{strategy.value} has no closed form; use solve_constraint_hedge")
    if len(legs) != spec.legs:
        raise ValueError(f"{strategy.value} needs {spec.legs} instruments, got {len(legs)}")
    builder = globals()[f"{strategy.value}_hedge"]
    if spec.interior:
        return builder(target, *legs, allow_extrapolation=allow_extrapolation)
    return builder(target, *legs)


def solve_constraint_hedge(
    target: InstrumentSnapshot,
    instruments: Sequence[InstrumentSnapshot],
    constraints: Sequence[Constraint],
) -> HedgePlan:
    """Solve the square system sum_i N_i P_i w_k(i) = -N P w_k(target).

    One instrument per constraint. The three closed-form multi-instrument
    strategies are special cases ({D, DT}, {D, C} and {D, DT, DT^2}); any
    other constraint set with matching instrument count works the same way.
    Raises SingularSystemError, naming the most nearly dependent constraint
    pair, when the system's condition number exceeds SOLVE_CONDITION_LIMIT.
    """
    if len(instruments) != len(constraints):
        raise ValueError(
            f"need as many instruments as constraints, got {len(instruments)} "
            f"and {len(constraints)}"
        )
    if not instruments:
        raise ValueError("need at least one instrument")
    m = np.array(
        [[inst.price * con.weight(inst) for inst in instruments] for con in constraints]
    )
    rhs = np.array(
        [-target.amount * target.price * con.weight(target) for con in constraints]
    )
    # row equilibration: same solution, much tamer condition number
    scale = np.max(np.abs(m), axis=1)
    scale[scale == 0.0] = 1.0
    m = m / scale[:, None]
    rhs = rhs / scale
    cond = _condition_number(m)
    if cond > SOLVE_CONDITION_LIMIT:  # inf when singular
        raise SingularSystemError(
            f"constraint system condition number {cond:.3e}; nearest to dependent: "
            f"{_most_parallel_pair(m, constraints)}"
        )
    amounts = np.linalg.solve(m, rhs)
    return _plan(Strategy.CUSTOM, target, instruments, amounts, constraints)


def _most_parallel_pair(m: np.ndarray, constraints: Sequence[Constraint]) -> str:
    if len(constraints) < 2:
        return f"constraint {constraints[0].name!r} has (near-)zero weights"
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    unit = m / norms[:, None]
    best, pair = -1.0, (0, 1)
    for i in range(len(constraints)):
        for j in range(i + 1, len(constraints)):
            c = abs(float(unit[i] @ unit[j]))
            if c > best:
                best, pair = c, (i, j)
    return f"{constraints[pair[0]].name!r} and {constraints[pair[1]].name!r} (|cos| = {best:.6f})"


def aggregate_portfolio(positions: Sequence[tuple[float, InstrumentSnapshot]]) -> InstrumentSnapshot:
    """Collapse n positions into one synthetic instrument.

    Total value is sum n_i P_i, maturity is the longest position's, and
    duration / convexity are amount-weighted means:

        D = sum n_i D_i / sum n_i,   C = sum n_i C_i / sum n_i

    The synthetic amount is sum n_i and the price is the total value
    divided by it.
    """
    if not positions:
        raise ValueError("cannot aggregate an empty position list")
    n = np.array([p[0] for p in positions], dtype=float)
    prices = np.array([p[1].price for p in positions])
    durs = np.array([p[1].modified_duration for p in positions])
    cxs = np.array([p[1].convexity for p in positions])
    mats = np.array([p[1].maturity for p in positions])

    total_amount = float(np.sum(n))
    if abs(total_amount) <= 1e-12 * max(1.0, float(np.sum(np.abs(n)))):
        raise ValueError("net portfolio amount is zero; synthetic price undefined")
    return InstrumentSnapshot(
        id="portfolio",
        price=float(np.sum(n * prices)) / total_amount,
        maturity=float(np.max(mats)),
        modified_duration=float(np.sum(n * durs) / total_amount),
        convexity=float(np.sum(n * cxs) / total_amount),
        amount=total_amount,
    )
