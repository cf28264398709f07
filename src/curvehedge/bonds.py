"""Cashflow-level bond analytics: pricing, modified duration, convexity.

Conventions used throughout the toolkit:

* annual discrete compounding, discount factor (1 + y)^(-t) for every
  coupon frequency;
* modified duration = Macaulay duration / (1 + y);
* all times are ACT/365 year fractions measured from the valuation date.

One flow table holds the coupon schedule (_flows): the times and amounts
of a bond rolled by any number of elapsed times, flows-major, a column
each. Its one column for the bond as it stands is built once per Bond
instance and held, read-only, on the bond (_bond_flows), so every pricing
of the bond reads the same arrays; a rolled or replaced bond is a new
instance and builds its own, and a bond that cannot be priced raises on
every call. The mark table (_roll_table) reads a bond's whole life as one
table. Every pricing discounts a table as cf·(1+y)^-t (_pv), sums it by
one left fold, earliest flow first (_fold), so zero flows pad tables into
one block and change no sum, and divides a convexity by one square,
(1+y)·(1+y).

Each bond is priced off a single yield. When that yield comes from a curve
the default is the interpolated spot rate at the bond's own maturity
("flat" mode); "spot" mode discounts every flow of the table at its own
tenor's spot rate instead, read off the curve in one interpolation at the
table's flow times (_spot_marks).

The pricer words its own refusals. curve_analytics names the bond it
cannot price off a curve, and one rule (_check_marks) refuses a mark out
of the float range, naming the instrument, for price, analytics, both
curve modes and InstrumentSnapshot, each computing under its own
np.errstate so no NumPy warning leaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .curve import _SPAN_TOL, MAX_RATE, YieldCurve, spot
from .errors import ExtrapolationError

VALID_FREQUENCIES = (1, 2, 4, 12)

_TIME_TOL = 1e-9


@dataclass(frozen=True)
class Bond:
    """A fixed-coupon bullet bond.

    maturity is the year fraction from the valuation date to the final
    payment. The coupon schedule is generated backward from maturity in
    steps of 1/coupon_frequency. If issue_or_first_coupon_offset is given
    it marks the start of accrual for the earliest period; a period shorter
    than a full step then pays a pro-rata coupon.
    """

    id: str
    face: float
    coupon_rate: float
    coupon_frequency: int
    maturity: float
    issue_or_first_coupon_offset: float | None = None

    def __post_init__(self):
        for name in ("face", "coupon_rate", "maturity", "issue_or_first_coupon_offset"):
            x = getattr(self, name)
            if x is not None and not math.isfinite(x):
                raise ValueError(f"bond {self.id!r}: {name} must be finite, got {x}")
        if self.face <= 0:
            raise ValueError(f"bond {self.id!r}: face must be positive, got {self.face}")
        if self.coupon_rate < 0:
            raise ValueError(f"bond {self.id!r}: coupon_rate must be >= 0, got {self.coupon_rate}")
        if self.maturity <= 0:
            raise ValueError(f"bond {self.id!r}: maturity must be positive, got {self.maturity}")
        if self.coupon_frequency not in VALID_FREQUENCIES:
            raise ValueError(
                f"bond {self.id!r}: coupon_frequency must be one of {VALID_FREQUENCIES}, "
                f"got {self.coupon_frequency}"
            )

    def rolled(self, elapsed: float) -> "Bond":
        """The same bond seen `elapsed` years later (maturity shortened)."""
        offset = self.issue_or_first_coupon_offset
        return replace(
            self,
            maturity=self.maturity - elapsed,
            issue_or_first_coupon_offset=None if offset is None else offset - elapsed,
        )


@dataclass(frozen=True)
class BondAnalytics:
    """Price per 100 face plus the risk numbers the hedge ratios consume."""

    price: float
    ytm: float
    modified_duration: float
    convexity: float


def _counts(maturity, frequency, elapsed):
    """Maturity and live-flow count (a whole float) of a bond with that
    maturity and coupon frequency rolled by elapsed; arrays broadcast."""
    m = maturity - elapsed
    return m, np.ceil(m * frequency - _TIME_TOL)


def _flows(bond: Bond, elapsed, k: int):
    """Flow times t and amounts cf of `bond` rolled by elapsed, flows-major:
    (k,) for a float elapsed, (k, rows) for an array, at m - J*step for J
    from k-1 down to 0, led by dead flows (t = cf = 0) where a row has fewer
    than k live. The first live flow pays pro rata when its accrual period is
    short and the last also returns the face. late marks the rows whose
    accrual start is not before their first coupon."""
    step = 1.0 / bond.coupon_frequency
    coupon = bond.face * bond.coupon_rate / bond.coupon_frequency
    m, n = _counts(bond.maturity, bond.coupon_frequency, elapsed)
    J = np.arange(k - 1.0, -1.0, -1.0).reshape(k, *[1] * np.ndim(m))  # a column against rows
    live = J < n
    t, cf = np.where(live, m - J * step, 0.0), live * coupon
    late, start = False, bond.issue_or_first_coupon_offset
    if start is not None:
        accrual = m - (n - 1.0) * step - (start - elapsed)  # from each row's first live flow
        late = accrual <= _TIME_TOL
        cf = np.where(J == n - 1.0, np.where(
            accrual < step - _TIME_TOL, bond.face * bond.coupon_rate * accrual, coupon), cf)
    cf[-1] += bond.face
    return t, cf, late


def _bond_flows(bond: Bond) -> tuple[np.ndarray, np.ndarray]:
    """The one-column table of the bond as it stands, zero flows dropped, built
    on first use and kept read-only on the bond (a rolled or replaced bond is
    a new instance with its own). A ValueError names the bond, on every call,
    if it has no live flow or a late accrual start: errors are not kept."""
    table = bond.__dict__.get("_flow_table")
    if table is None:
        table = bond.__dict__["_flow_table"] = _build_flows(bond)
    return table


def _build_flows(bond: Bond) -> tuple[np.ndarray, np.ndarray]:
    k = int(_counts(bond.maturity, bond.coupon_frequency, 0.0)[1])
    if k < 1:
        raise ValueError(f"bond {bond.id!r}: maturity {bond.maturity} leaves no cashflow to price")
    t, cf, late = _flows(bond, 0.0, k)
    if late:
        raise ValueError(f"bond {bond.id!r}: accrual start {bond.issue_or_first_coupon_offset} "
                         f"is not before first coupon {t[0].item()}")
    if cf[0] == 0.0:  # a zero-coupon bond's coupons (or a vanishing pro-rata one)
        t, cf = t[cf != 0.0], cf[cf != 0.0]
    t.setflags(write=False)
    cf.setflags(write=False)
    return t, cf


def cashflows(bond: Bond) -> list[tuple[float, float]]:
    """Future cashflows as (time, amount) pairs, strictly increasing in time.

    Coupons of face * coupon_rate / frequency at each schedule date; the
    final flow additionally returns the face. Zero-amount coupons are
    dropped, so a zero-coupon bond has a single flow.
    """
    t, cf = _bond_flows(bond)
    return list(zip(t.tolist(), cf.tolist()))


def _yield(ytm: float) -> float:
    """A caller's yield, which must lie in a curve's range (-100%, MAX_RATE]."""
    if not -1.0 < ytm <= MAX_RATE:  # NaN fails too
        raise ValueError(f"yield must be greater than -100% and at most {MAX_RATE:.0%}, got {ytm}")
    return ytm


def _pv(t: np.ndarray, cf: np.ndarray, ytm: float | np.ndarray, out=None) -> np.ndarray:
    """Present values cf·(1+y)^-t, into out if given, y in a curve's range
    (a checked curve's, or a caller's through _yield) broadcast against t.
    NumPy's power sends an exponent seen with stride 0 (broadcast, or a lone
    2-D element), and ** any one-element one, through a loop taking -1 as a
    reciprocal, not pow: so t is laid out in full, one column stays 1-D."""
    return np.multiply(cf, np.power(1.0 + ytm, -t), out=out)


def _fold(x: np.ndarray) -> np.ndarray:
    """The one sum of a flow table, each column's left fold, earliest flow
    first. NumPy adds the rows of a C-ordered block (other orders are copied)
    of two or more columns in order but one column pairwise: it accumulates."""
    x = np.ascontiguousarray(x)
    return np.add.reduce(x, axis=0) if x.size > len(x) else np.add.accumulate(x, axis=0)[-1]


def _check_marks(instrument: str, marks) -> None:
    """The rule for a priced mark: the first (name, value) pair that is not
    finite (a yield near -100%, a long bond) is refused, naming the instrument."""
    for name, x in marks:
        if not math.isfinite(x):
            raise ValueError(f"instrument {instrument!r}: {name} must be finite, got {x}")


def price(bond: Bond, ytm: float) -> float:
    """Present value of all cashflows at a single annually-compounded yield."""
    with np.errstate(all="ignore"):
        p = float(_fold(_pv(*_bond_flows(bond), _yield(ytm))))
    _check_marks(bond.id, [("price", p)])
    return p


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x[..., r], xp, fp[r]) for every row r of fp, bit for bit
    (finite fp); x is (rows,) or a stack of (rows,) arrays."""
    last = len(xp) - 1
    j = np.searchsorted(xp, x, side="right") - 1
    jc = np.minimum(np.maximum(j, 0), last - 1)  # np.clip costs more at this size
    at = jc + np.arange(x.shape[-1]) * fp.shape[1]  # flat index of fp[r, jc]
    lo, hi, xl = fp.take(at), fp.take(at + 1), xp[jc]
    inner = (hi - lo) / (xp[jc + 1] - xl) * (x - xl) + lo
    inner = np.where(x == xl, lo, inner)
    return np.where(j < 0, fp[:, 0], np.where(j >= last, fp[:, last], inner))


def _roll_table(bonds: Sequence[Bond], rows: Sequence[int], elapsed: np.ndarray, tenors,
                rates: np.ndarray):
    """Flat-mode marks of a book: row k of bond i, for k < rows[i], is what
    the scalar path gives for bonds[i].rolled(elapsed[k]), its snapshot off
    curve k (row k of rates) and from row 1 its carry price off curve k-1.
    One interpolation gives every yield, and each bond's life is one table,
    its mark and carry side by side and each moment one fold (_fold): every
    float is equal to the scalar one.

    Returns (table, stop): table is (price, maturity, duration, convexity,
    carry) over (bonds, len(elapsed)); stop[i] is rows[i] or bond i's first
    row the scalar path refuses (maturity off the tenor span, a yield at or
    below -100%, no live flow, a late accrual start, a price, duration or
    convexity the snapshot refuses, a carry price not finite), from which on
    all but maturity are NaN.
    """
    xp = np.asarray(tenors, dtype=float)
    m, n = _counts(np.array([[b.maturity] for b in bonds]),
                   np.array([[b.coupon_frequency] for b in bonds]), elapsed)
    days, after = len(elapsed), np.arange(len(elapsed))
    # row k's carry yield is off curve k-1 (row 0 has none: its own stands in)
    ys = _interp_rows(np.concatenate((m, m), axis=1), xp, np.concatenate(
        (rates, rates[:1], rates[:-1]))).reshape(len(bonds), 2, days)
    fails = (m < xp[0] - _SPAN_TOL) | (m > xp[-1] + _SPAN_TOL) | (n < 1) | (ys <= -1.0).any(axis=1)
    fails |= after >= np.asarray(rows)[:, None]
    stop = np.where(fails.any(axis=1), fails.argmax(axis=1), days)
    table, late = np.full((5, *m.shape), np.nan), np.zeros(m.shape, dtype=bool)
    table[1] = m
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for i in np.flatnonzero(stop).tolist():
            s = stop[i]  # live flows only drop as a bond rolls: row 0 has the most
            t, cf, late[i, :s] = _flows(bonds[i], elapsed[:s], int(n[i, 0]))
            block = np.empty((len(t), 4, s))  # mark and carry PV, then the moments
            _pv(t[:, None].repeat(2, axis=1), cf[:, None], ys[i, :, :s], out=block[:, :2])
            table[[0, 2, 3, 4], i, :s] = _flat_marks(t, block, 1.0 + ys[i, 0, :s])
    # the snapshot's rule and a finite carry (row 0's is its price), on the
    # rows priced (from stop on they are NaN)
    ok = (table[0] > 0) & (table[2] > 0) & np.isfinite(table[[0, 2, 3, 4]]).all(axis=0)
    bad = late | ~ok & (after < stop[:, None])
    if bad.any():
        stop = np.where(bad.any(axis=1), bad.argmax(axis=1), stop)
        table[[0, 2, 3, 4]] = np.where(after < stop[:, None], table[[0, 2, 3, 4]], np.nan)
    return table, stop


def _flat_marks(t: np.ndarray, block: np.ndarray, g):
    """Price, duration and convexity of a flows-major table t off a block
    (flows, rows, ...) whose rows but the last two are present values, the
    first at y = g - 1 per column, then each further row's price: the last
    two rows take t·PV and t(t+1)·PV of the first, and one fold sums all."""
    np.multiply(t, block[:, 0], out=block[:, -2])
    np.multiply(t * (t + 1.0), block[:, 0], out=block[:, -1])
    p, *prices, tpv, ttpv = _fold(block)
    return p, tpv / p / g, ttpv / (p * (g * g)), *prices


def modified_duration(bond: Bond, ytm: float) -> float:
    """-(1/P) dP/dy, i.e. Macaulay duration divided by (1 + y)."""
    return analytics(bond, ytm).modified_duration


def convexity(bond: Bond, ytm: float) -> float:
    """(1/P) d2P/dy2 = sum t(t+1) PV_t / (P (1+y)^2)."""
    return analytics(bond, ytm).convexity


def analytics(bond: Bond, ytm: float) -> BondAnalytics:
    """Price, duration and convexity in one pass over the cashflows."""
    return _analytics(bond, _yield(ytm))


def _analytics(bond: Bond, ytm: float) -> BondAnalytics:
    """analytics at a yield, unchecked: a curve's yield, which interpolation
    may round an ulp past either end of the range."""
    t, cf = _bond_flows(bond)
    block = np.empty((len(t), 3))
    with np.errstate(all="ignore"):
        _pv(t, cf, ytm, out=block[:, 0])
        p, d, c = _flat_marks(t, block, 1.0 + ytm)
    return _marked(bond, ytm, p, d, c)


def _marked(bond: Bond, ytm: float, p, d, c) -> BondAnalytics:
    """BondAnalytics(p, ytm, d, c), its numbers checked by _check_marks."""
    a = BondAnalytics(float(p), ytm, float(d), float(c))
    _check_marks(bond.id, vars(a).items())
    return a


def curve_analytics(bond: Bond, curve: YieldCurve, mode: str = "flat") -> BondAnalytics:
    """Analytics with the yield taken from a curve.

    mode="flat" (default): the bond trades at the interpolated spot rate for
    its maturity and all flows are discounted at that single yield.

    mode="spot": every cashflow is discounted at its own tenor's spot rate;
    duration and convexity are then the sensitivities to a parallel shift of
    the whole curve. The reported ytm is still the maturity-point spot. A
    maturity off the curve, and in spot mode a flow before the curve's
    shortest tenor, raises ExtrapolationError naming the bond. A price,
    duration or convexity out of the float range is refused by _check_marks.
    """
    try:
        y = spot(curve, bond.maturity)
    except ExtrapolationError as exc:  # the pricer names its bond
        raise ExtrapolationError(f"bond {bond.id!r}: {exc}") from None
    if mode not in ("flat", "spot"):
        raise ValueError(f"unknown pricing mode {mode!r} (expected 'flat' or 'spot')")
    if mode == "flat":
        return _analytics(bond, y)
    t, cf = _bond_flows(bond)
    if t[0] < curve.min_tenor - _SPAN_TOL:
        raise ExtrapolationError(
            f"bond {bond.id!r}: cashflow at t={t[0]} lies before the curve's shortest "
            f"tenor {curve.min_tenor} on {curve.date}; spot mode does not extrapolate"
        )
    with np.errstate(all="ignore"):
        (p,), (d,), (c,) = _spot_marks(t[:, None], cf[:, None], curve.tenors, np.array([curve.rates]))
    return _marked(bond, y, p, d, c)


def _spot_marks(t: np.ndarray, cf: np.ndarray, tenors, rates: np.ndarray):
    """Price, duration and convexity of each column of a flows-major
    (k, rows) flow table, every flow discounted at its own spot rate on that
    column's curve (rates is (rows, knots)); duration and convexity are the
    sensitivities to bumping every rate by the same epsilon."""
    r = _interp_rows(t, np.asarray(tenors), rates)
    g, pv = 1.0 + r, _pv(t, cf, r)
    p, tpv, ttpv = _fold(np.stack((pv, t * pv / g, t * (t + 1.0) * pv / (g * g)), axis=1))
    return p, tpv / p, ttpv / p


def pnl_approx(price: float, duration: float, convexity: float, dy: float) -> float:
    """Second-order price change P * (-D dy + 0.5 C dy^2) for a yield move dy."""
    for name, x in (("price", price), ("duration", duration), ("convexity", convexity), ("dy", dy)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    if price <= 0:
        raise ValueError(f"price must be positive, got {price}")
    return price * (-duration * dy + 0.5 * convexity * dy * dy)
