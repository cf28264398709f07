"""Yield-curve storage, polynomial segment fitting and parametric shocks.

A curve is a dated set of (tenor, spot rate) knots. Between knots the spot
rate is piecewise linear; no extrapolation is ever performed silently. A
segment of the curve can be fitted with a quadratic or cubic polynomial

    Y(T) = alpha + beta T + gamma T^2 + lambda T^3

whose first two derivatives quantify the slope and the curvature at each
maturity. A curve movement is decomposed into translation, rotation and
twist:

    dY(T) = a + b Y'(T) + c Y''(T)

where a shifts the level, b scales the slope and c scales the curvature of
the fitted segment. A translation moves every knot by exactly a, whatever
the fit, so only rotation and twist read the segment. A sweep of K shocks
moves the knot grid as one (1 + K, knots) block whose row 0 is the curve
itself, with Y' and Y'' taken once and only when some shock has a b or c
term; apply_shock is its one-shock case. Knots outside the fitted span
move by the nearest endpoint's dY.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSpanError, ExtrapolationError, FitError, ValidationError

MIN_SEGMENT_SPAN = 1.0 / 365.0
FIT_CONDITION_LIMIT = 1e12

_SPAN_TOL = 1e-9


@dataclass(frozen=True)
class YieldCurve:
    """Spot rates on a single date, keyed by tenor in years."""

    date: dt.date
    tenors: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        # plain Python: at this size NumPy costs more than the checks
        t, r = self.tenors, self.rates
        if len(t) != len(r):
            raise ValueError("tenors and rates must be 1-d sequences of equal length")
        if len(t) < 2:
            raise ValueError(f"curve needs at least 2 knots, got {len(t)}")
        if not all(map(math.isfinite, t)):
            raise ValueError("tenors must be finite")
        if min(t) <= 0:
            raise ValueError("tenors must be positive")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("tenors must be strictly increasing")
        if not all(map(math.isfinite, r)):
            raise ValueError("spot rates must be finite")
        if min(r) <= -1.0:
            raise ValueError("spot rates must be greater than -100%")

    @property
    def min_tenor(self) -> float:
        return self.tenors[0]

    @property
    def max_tenor(self) -> float:
        return self.tenors[-1]


@dataclass(frozen=True)
class PolynomialSegment:
    """Polynomial fit of a curve segment; coefficients in increasing degree.

    coefficients = (alpha, beta, gamma, lam); lam is 0 for quadratic fits.
    fit_kind records whether the knots were interpolated exactly (knot
    count equalled degree + 1) or fitted by least squares.
    """

    t_lo: float
    t_hi: float
    coefficients: tuple[float, float, float, float]
    fit_kind: str = "least_squares"

    def __post_init__(self):
        if not self.t_lo < self.t_hi:
            raise ValueError(f"need t_lo < t_hi, got [{self.t_lo}, {self.t_hi}]")
        if len(self.coefficients) != 4:
            raise ValueError("coefficients must be (alpha, beta, gamma, lambda)")


@dataclass(frozen=True)
class ShockSpec:
    """A curve deformation: parametric (a, b, c) or an explicit knot vector.

    Exactly one form is active. The parametric form is interpreted against
    a fitted PolynomialSegment; the custom form adds a per-knot vector.
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    custom: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.custom is not None:
            if (self.a, self.b, self.c) != (0.0, 0.0, 0.0):
                raise ValueError("a custom shock vector excludes parametric a/b/c terms")
            object.__setattr__(self, "custom", tuple(float(x) for x in self.custom))

    @classmethod
    def parametric(cls, a: float = 0.0, b: float = 0.0, c: float = 0.0) -> "ShockSpec":
        return cls(a=a, b=b, c=c)

    @classmethod
    def from_vector(cls, values) -> "ShockSpec":
        return cls(custom=tuple(float(v) for v in values))

    @property
    def is_parametric(self) -> bool:
        return self.custom is None

    def scaled(self, k: float) -> "ShockSpec":
        """The same deformation shape at k times the size."""
        if self.custom is not None:
            return ShockSpec(custom=tuple(k * v for v in self.custom))
        return ShockSpec(a=k * self.a, b=k * self.b, c=k * self.c)


def spot(curve: YieldCurve, maturity: float) -> float:
    """Piecewise-linear spot rate at `maturity`; exact at the knots.

    Raises ExtrapolationError outside [min_tenor, max_tenor] or at NaN; there
    is no silent flat extension.
    """
    t = curve.tenors
    if not t[0] - _SPAN_TOL <= maturity <= t[-1] + _SPAN_TOL:
        raise ExtrapolationError(
            f"maturity {maturity} outside curve range [{t[0]}, {t[-1]}] on {curve.date}"
        )
    return float(np.interp(maturity, t, curve.rates))


def _bad_rows(block: np.ndarray) -> np.ndarray:
    """Rows of a (rows, knots) rates block that YieldCurve would reject."""
    return ~(np.isfinite(block) & (block > -1.0)).all(axis=1)


def _check_block(dates: Sequence[dt.date], grid: tuple[float, ...], block: np.ndarray) -> None:
    """YieldCurve's checks on every row of a (days, knots) rates block.

    The grid and the first row go through YieldCurve itself once; the other
    rows are checked all at once (finite, above -100%), and the first
    failing one raises the ValueError YieldCurve raises for it.
    """
    if not len(dates):
        return
    YieldCurve(dates[0], grid, tuple(block[0].tolist()))
    bad = _bad_rows(block)
    if bad.any():
        i = int(bad.argmax())
        YieldCurve(dates[i], grid, tuple(block[i].tolist()))


def _curves(
    dates: Sequence[dt.date], grid: tuple[float, ...], block: np.ndarray
) -> list[YieldCurve]:
    """One YieldCurve per row of a (days, knots) rates block, checked as a block.

    After _check_block the curves are set up the way a frozen dataclass sets
    its fields, without running __post_init__ again for each row.
    """
    _check_block(dates, grid, block)
    new, put = object.__new__, object.__setattr__
    curves = []
    for date, rates in zip(dates, block.tolist()):
        c = new(YieldCurve)
        put(c, "date", date)
        put(c, "tenors", grid)
        put(c, "rates", tuple(rates))
        curves.append(c)
    return curves


def check_history(curves: Sequence[YieldCurve]) -> None:
    """Raise ValidationError unless dates strictly increase on one tenor grid."""
    for prev, cur in zip(curves, curves[1:]):
        if cur.date <= prev.date:
            raise ValidationError(f"history dates not strictly increasing at {cur.date}")
        if cur.tenors != prev.tenors:
            raise ValidationError(f"tenor grid changes on {cur.date}")


def _condition_number(m: np.ndarray) -> float:
    """np.linalg.cond(m), bit for bit, from one SVD: s[0] / s[-1], and inf
    where that is inf or nan, for a singular or non-finite m (np.linalg.svd
    raises on a nan entry, as cond does)."""
    s = np.linalg.svd(m, compute_uv=False).tolist()
    cond = s[0] / s[-1] if s[-1] else math.inf
    return cond if cond == cond else math.inf


def fit_segment(curve: YieldCurve, t_lo: float, t_hi: float, degree: int) -> PolynomialSegment:
    """Least-squares polynomial of the given degree over the knots in [t_lo, t_hi].

    With exactly degree + 1 in-range knots the fit interpolates them. The
    normal equations are solved directly (pivoted LU on a system of at most
    4x4); a condition number above FIT_CONDITION_LIMIT raises FitError
    rather than returning garbage coefficients.
    """
    if degree not in (2, 3):
        raise ValueError(f"degree must be 2 or 3, got {degree}")
    if t_hi - t_lo < MIN_SEGMENT_SPAN:
        raise DegenerateSpanError(
            f"segment span {t_hi - t_lo:.3e} below minimum {MIN_SEGMENT_SPAN:.3e}"
        )
    t = np.asarray(curve.tenors)
    r = np.asarray(curve.rates)
    mask = (t >= t_lo - _SPAN_TOL) & (t <= t_hi + _SPAN_TOL)
    n_in = int(np.count_nonzero(mask))
    if n_in < degree + 1:
        raise FitError(
            f"degree-{degree} fit needs at least {degree + 1} knots in "
            f"[{t_lo}, {t_hi}], found {n_in}"
        )
    vand = np.vander(t[mask], degree + 1, increasing=True)
    normal = vand.T @ vand
    cond = _condition_number(normal)
    if cond > FIT_CONDITION_LIMIT:  # inf when singular
        raise FitError(f"normal equations condition number {cond:.3e} exceeds {FIT_CONDITION_LIMIT:.0e}")
    coef = np.linalg.solve(normal, vand.T @ r[mask])
    padded = tuple(float(c) for c in coef) + (0.0,) * (3 - degree)
    kind = "interpolating" if n_in == degree + 1 else "least_squares"
    return PolynomialSegment(t_lo=float(t_lo), t_hi=float(t_hi), coefficients=padded, fit_kind=kind)


def derivatives(seg: PolynomialSegment, maturity: float | np.ndarray) -> tuple:
    """(value, first, second derivative) of the segment at one maturity or an
    array of them; ExtrapolationError names the first one off the span or NaN."""
    t = np.asarray(maturity, dtype=float)
    outside = ~((seg.t_lo - _SPAN_TOL <= t) & (t <= seg.t_hi + _SPAN_TOL))
    if outside.any():
        raise ExtrapolationError(
            f"maturity {t[outside].flat[0]} outside segment span [{seg.t_lo}, {seg.t_hi}]"
        )
    a0, a1, a2, a3 = seg.coefficients
    f = a0 + t * (a1 + t * (a2 + t * a3))
    f1 = a1 + t * (2.0 * a2 + t * 3.0 * a3)
    f2 = 2.0 * a2 + 6.0 * a3 * t
    return f, f1, f2


def curvature(seg: PolynomialSegment, maturity: float) -> float:
    """Geometric curvature Y'' / (1 + Y'^2)^(3/2) of the fitted segment."""
    _, f1, f2 = derivatives(seg, maturity)
    return f2 / (1.0 + f1 * f1) ** 1.5


def delta_y(seg: PolynomialSegment, shock: ShockSpec, maturity: float | np.ndarray):
    """Rate change a + b Y'(T) + c Y''(T) of a parametric shock, at one maturity or an array."""
    if not shock.is_parametric:
        raise ValueError("delta_y needs a parametric shock; apply custom vectors with apply_shock")
    _, f1, f2 = derivatives(seg, maturity)
    return shock.a + shock.b * f1 + shock.c * f2


def _shock_block(
    curve: YieldCurve, shocks: Sequence[ShockSpec], seg: PolynomialSegment | None
) -> np.ndarray:
    """(1 + shocks, knots) rates: row 0 is the curve's own knots and row k + 1
    those knots moved by shocks[k].

    A level shift moves every knot by a and reads no fit. Only when some
    shock has a slope or twist term (b or c) are Y' and Y'' taken, once, at
    the knots clipped to seg's span; every parametric row is then
    a + b Y' + c Y'' in delta_y's operation order. A custom row is its
    vector (a custom shock's a, b, c are 0). A vector of the wrong length
    gives a row of NaN, which the curve checks reject; apply_shock names it.
    """
    n = len(curve.tenors)
    a, b, c = np.array([(0.0, 0.0, 0.0)] + [(s.a, s.b, s.c) for s in shocks]).T[..., None]
    if any(s.b or s.c for s in shocks):
        _, f1, f2 = derivatives(seg, np.clip(curve.tenors, seg.t_lo, seg.t_hi))
        shifts = a + b * f1 + c * f2
    else:
        shifts = np.repeat(a, n, axis=1)
    for k, s in enumerate(shocks, 1):
        if not s.is_parametric:
            shifts[k] = s.custom if len(s.custom) == n else np.nan
    return np.asarray(curve.rates) + shifts


def apply_shock(
    curve: YieldCurve, shock: ShockSpec, seg: PolynomialSegment | None = None
) -> YieldCurve:
    """New curve with every knot moved by the shock's dY.

    Custom shocks need one value per knot. Parametric shocks need the fitted
    segment they refer to; knots outside its span move by the dY of the
    nearest span endpoint. This is the one-shock case of _shock_block.
    """
    n = len(curve.tenors)
    if shock.is_parametric and seg is None:
        raise ValueError("parametric shock requires the fitted segment it refers to")
    if not shock.is_parametric and len(shock.custom) != n:
        raise ValueError(f"custom shock has {len(shock.custom)} values for a curve with {n} knots")
    rates = _shock_block(curve, [shock], seg)[1]
    return YieldCurve(curve.date, curve.tenors, tuple(rates.tolist()))
