"""Seeded synthetic spot-rate histories for fixtures and demos.

Real multi-year spot histories are proprietary, so tests and examples run
on generated ones. The generator starts from a smooth polynomial base
curve, fits its cubic segment once, and then walks the knot grid on
weekdays with shocks drawn from the translation / rotation / twist family:

    dY_t(T) = a_t + b_t Y'(T) + c_t Y''(T) + idio noise per knot

The (a, b, c) draws are AR(1)-smoothed Gaussians, so consecutive days
move coherently. Keeping the day-zero segment fixed makes the history an
exact linear factor model, which the correlation fixtures rely on: the
level factor's variance share is computable directly from the draws. The
walk is one running sum down a (days, knots) block, and that block is the
history: no curve is built for a day until it is asked for.
"""

from __future__ import annotations

import datetime as dt
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bonds import Bond
from .curve import CurveHistory, PolynomialSegment, YieldCurve, derivatives, fit_segment

DEFAULT_TENORS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0, 7.0, 8.0, 10.0)
# gently rising base curve with real curvature and twist over the grid
DEFAULT_BASE_COEFFS = (0.022, 0.0052, -4.2e-4, 1.6e-5)


@dataclass(frozen=True)
class SynthConfig:
    days: int = 250
    start: dt.date = dt.date(2024, 1, 2)
    tenors: tuple[float, ...] = DEFAULT_TENORS
    sigma_level: float = 6e-4
    sigma_slope: float = 0.08
    sigma_twist: float = 0.05
    sigma_idio: float = 0.0
    ar: float = 0.3
    seed: int = 42

    def __post_init__(self):
        for name in ("days", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.days < 2:
            raise ValueError("need at least 2 days of history")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.ar < 1.0:
            raise ValueError("ar must be in [0, 1)")
        for name in ("sigma_level", "sigma_slope", "sigma_twist", "sigma_idio"):
            x = getattr(self, name)
            if not math.isfinite(x) or x < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {x}")


@dataclass(frozen=True)
class ShockDraws:
    """The factor draws behind a generated history, for variance accounting."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    idio: np.ndarray  # (days - 1, n_tenors)
    segment: PolynomialSegment


def _trading_dates(start: dt.date, days: int) -> list[dt.date]:
    """The first `days` weekdays from `start` on."""
    first = np.datetime64(start, "D")
    # every 7 calendar days hold 5 weekdays
    span = np.arange(first, first + days * 7 // 5 + 7)
    dates = span[np.is_busday(span)][:days]
    if dates[-1] > np.datetime64(dt.date.max):
        raise ValueError(f"{days} weekdays from {start} run past {dt.date.max}")
    return dates.tolist()


def _ar1(rng: np.random.Generator, n: int, rho: float) -> np.ndarray:
    # unit marginal variance regardless of rho; the recursion steps Python
    # floats, which round each product and sum as float64 array elements do
    raw = rng.standard_normal(n).tolist()
    rho = float(rho)
    scale = math.sqrt(1.0 - rho * rho)
    out = raw[:1]
    for x in raw[1:]:
        out.append(rho * out[-1] + scale * x)
    return np.array(out)


def generate_history(cfg: SynthConfig) -> tuple[CurveHistory, ShockDraws]:
    """A daily history walked by the shock family, plus the draws that made it."""
    tenors = np.asarray(cfg.tenors, dtype=float)
    a0, a1, a2, a3 = DEFAULT_BASE_COEFFS
    rates = a0 + tenors * (a1 + tenors * (a2 + tenors * a3))
    dates = _trading_dates(cfg.start, cfg.days)

    grid = tuple(tenors.tolist())
    seg = fit_segment(YieldCurve(dates[0], grid, tuple(rates.tolist())), grid[0], grid[-1], 3)

    rng = np.random.default_rng(cfg.seed)
    n_steps = cfg.days - 1
    a = cfg.sigma_level * _ar1(rng, n_steps, cfg.ar)
    b = cfg.sigma_slope * _ar1(rng, n_steps, cfg.ar)
    c = cfg.sigma_twist * _ar1(rng, n_steps, cfg.ar)
    idio = cfg.sigma_idio * rng.standard_normal((n_steps, tenors.size))

    # the segment spans the whole grid, so every knot moves by its own dY
    _, f1, f2 = derivatives(seg, tenors)
    move = a[:, None] + b[:, None] * f1 + c[:, None] * f2
    # day k + 1 is (day k + move[k]) + idio[k]: a running sum over the base
    # row and the interleaved moves and noise adds in that order, so its
    # even partial sums are the days
    steps = np.empty((2 * n_steps + 1, tenors.size))
    steps[0], steps[1::2], steps[2::2] = rates, move, idio
    block = np.cumsum(steps, axis=0)[::2]
    return CurveHistory(dates, grid, block), ShockDraws(a=a, b=b, c=c, idio=idio, segment=seg)


def default_bond_universe() -> list[Bond]:
    """Four coupon bonds spanning the belly of the default tenor grid.

    B2 is the natural hedging target; B1/B3 bracket it and B4 sits close
    to it for three-instrument hedges.
    """
    return [
        Bond(id="B1", face=100.0, coupon_rate=0.034, coupon_frequency=1, maturity=7.0),
        Bond(id="B2", face=100.0, coupon_rate=0.030, coupon_frequency=1, maturity=5.0),
        Bond(id="B3", face=100.0, coupon_rate=0.028, coupon_frequency=1, maturity=4.0),
        Bond(id="B4", face=100.0, coupon_rate=0.031, coupon_frequency=2, maturity=5.5),
    ]
