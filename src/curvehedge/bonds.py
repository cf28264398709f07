"""Cashflow-level bond analytics: pricing, modified duration, convexity.

Conventions used throughout the toolkit:

* annual discrete compounding, discount factor (1 + y)^(-t) for every
  coupon frequency;
* modified duration = Macaulay duration / (1 + y);
* all times are ACT/365 year fractions measured from the valuation date.

One flow table holds the coupon schedule (_flows): the times and amounts
of a bond rolled by any number of elapsed times, a row each. Its one row
for the bond as it stands is built once per Bond instance and held,
read-only, on the bond (_bond_flows), so cashflows, price, analytics, spot
mode and the scenario sweeps all read the same arrays however often the
bond is priced; a rolled or replaced bond is a new instance and builds its
own, and a bond that cannot be priced raises on every call. The backtest's
mark table (_roll_table) reads the flow table for a whole book over a
window of rolled rows, and every pricing discounts it as cf·(1+y)^-t (_pv).

Each bond is priced off a single yield. When that yield comes from a curve
the default is the interpolated spot rate at the bond's own maturity
("flat" mode); "spot" mode discounts every flow of the table at its own
tenor's spot rate instead, read off the curve in one interpolation at the
table's flow times (_spot_marks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from .curve import _SPAN_TOL, YieldCurve, spot
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
    """Flow times t and amounts cf of `bond` rolled by elapsed, for rows with
    k live flows: (k,) for a float elapsed, (rows, k) for an array. Flows
    fall at m - j*step for j < k; the earliest pays pro rata when its accrual
    period is short and the last also returns the face. late marks the rows
    whose accrual start is not before their first coupon."""
    step = 1.0 / bond.coupon_frequency
    coupon = bond.face * bond.coupon_rate / bond.coupon_frequency
    t = np.subtract.outer(bond.maturity - elapsed, np.arange(k - 1, -1, -1) * step)
    cf = np.full(t.shape, coupon)
    late, start = False, bond.issue_or_first_coupon_offset
    # .T[0] and .T[-1] are every row's first and last flow (scalars for one row)
    if start is not None:
        accrual = t.T[0] - (start - elapsed)
        late = accrual <= _TIME_TOL
        cf.T[0] = np.where(accrual < step - _TIME_TOL, bond.face * bond.coupon_rate * accrual, coupon)
    cf.T[-1] += bond.face
    return t, cf, late


def _bond_flows(bond: Bond) -> tuple[np.ndarray, np.ndarray]:
    """The one-row table of the bond as it stands, zero flows dropped, built
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


def _named(fn, bond: Bond, *args, **kwargs):
    """fn(bond, ...), with an ExtrapolationError naming the bond once."""
    try:
        return fn(bond, *args, **kwargs)
    except ExtrapolationError as exc:
        if str(exc).startswith(f"bond {bond.id!r}"):  # spot mode names it already
            raise
        raise ExtrapolationError(f"bond {bond.id!r}: {exc}") from exc


def cashflows(bond: Bond) -> list[tuple[float, float]]:
    """Future cashflows as (time, amount) pairs, strictly increasing in time.

    Coupons of face * coupon_rate / frequency at each schedule date; the
    final flow additionally returns the face. Zero-amount coupons are
    dropped, so a zero-coupon bond has a single flow.
    """
    t, cf = _bond_flows(bond)
    return list(zip(t.tolist(), cf.tolist()))


def _yield(ytm: float) -> float:
    """A caller's yield, which must be above -100%."""
    if ytm <= -1.0:
        raise ValueError(f"yield must be greater than -100%, got {ytm}")
    return ytm


def _pv(t: np.ndarray, cf: np.ndarray, ytm: float | np.ndarray) -> np.ndarray:
    """Present values cf·(1+y)^-t of a flow table at one yield, a column of
    yields (one per row) or one yield per flow; every yield is above -100%
    (a checked curve's, or a caller's through _yield)."""
    # one exponent per value: where the yields add rows to the table it is
    # laid out in full, as NumPy takes an exponent of -1 broadcast over a
    # column as a reciprocal, which can differ from pow
    e = -t if np.shape(ytm)[:-1] == t.shape[:-1] else -t * np.ones_like(ytm)
    return cf * (1.0 + ytm) ** e


def price(bond: Bond, ytm: float) -> float:
    """Present value of all cashflows at a single annually-compounded yield."""
    return float(_pv(*_bond_flows(bond), _yield(ytm)).sum())


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
    One interpolation gives every yield; each bond's flows are summed per
    run of rows with the same live-flow count (a zero-coupon bond's coupons
    as exact zeros), so every float is equal to the scalar one.

    Returns (table, stop): table is (price, maturity, duration, convexity,
    carry) over (bonds, len(elapsed)); stop[i] is rows[i] or bond i's first
    row the scalar path refuses (maturity off the tenor span, a yield at or
    below -100%, no live flow, a late accrual start, a price, duration or
    convexity the snapshot refuses), from which on all but maturity are NaN.
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
    g = 1.0 + ys[:, 0]
    # Python's float ** (libm pow) on each yield: NumPy squares differ from
    # it in the last bit
    g2 = np.fromiter(map(math.pow, g.ravel().tolist(), repeat(2.0)), float, g.size).reshape(g.shape)
    table, late = np.full((5, *m.shape), np.nan), np.zeros(m.shape, dtype=bool)
    table[1] = m
    # live flows only drop as a bond rolls, so equal counts form runs: a cut
    # opens each run, and one more closes each bond's last
    live = np.zeros((len(bonds), days + 2))
    np.copyto(live[:, 1:-1], n, where=after < stop[:, None])
    bond_of, cuts = (x.tolist() for x in np.nonzero(live[:, 1:] != live[:, :-1]))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for i, j, a, b in zip(bond_of, bond_of[1:], cuts, cuts[1:]):
            if i == j:
                t, cf, late[i, a:b] = _flows(bonds[i], elapsed[a:b], int(n[i, a]))
                pv = _pv(t, cf, ys[i, :, a:b, None])  # the mark and carry blocks as one
                table[[0, 2, 3], i, a:b] = _flat_marks(t, pv[0], g[i, a:b], g2[i, a:b])
                table[4, i, a:b] = pv[1].sum(axis=-1)
    # the snapshot's rule, on the rows priced (from stop on they are NaN)
    ok = (table[0] > 0) & (table[2] > 0) & np.isfinite(table[[0, 2, 3]]).all(axis=0)
    bad = late | ~ok & (after < stop[:, None])
    if bad.any():
        stop = np.where(bad.any(axis=1), bad.argmax(axis=1), stop)
        table[[0, 2, 3, 4]] = np.where(after < stop[:, None], table[[0, 2, 3, 4]], np.nan)
    return table, stop


def _flat_marks(t: np.ndarray, pv: np.ndarray, g, g2):
    """Price, duration and convexity of each row of present values taken at
    one yield y per row, given g = 1 + y and g2 its libm square (floats for
    one row, else arrays)."""
    p, tpv, ttpv = pv.sum(axis=-1), (t * pv).sum(axis=-1), (t * (t + 1.0) * pv).sum(axis=-1)
    return p, tpv / p / g, ttpv / (p * g2)


def modified_duration(bond: Bond, ytm: float) -> float:
    """-(1/P) dP/dy, i.e. Macaulay duration divided by (1 + y)."""
    return analytics(bond, ytm).modified_duration


def convexity(bond: Bond, ytm: float) -> float:
    """(1/P) d2P/dy2 = sum t(t+1) PV_t / (P (1+y)^2)."""
    return analytics(bond, ytm).convexity


def analytics(bond: Bond, ytm: float) -> BondAnalytics:
    """Price, duration and convexity in one pass over the cashflows."""
    t, cf = _bond_flows(bond)
    g = 1.0 + _yield(ytm)
    p, d, c = _flat_marks(t, _pv(t, cf, ytm), g, g**2)
    return BondAnalytics(price=float(p), ytm=ytm, modified_duration=float(d), convexity=float(c))


def curve_analytics(bond: Bond, curve: YieldCurve, mode: str = "flat") -> BondAnalytics:
    """Analytics with the yield taken from a curve.

    mode="flat" (default): the bond trades at the interpolated spot rate for
    its maturity and all flows are discounted at that single yield.

    mode="spot": every cashflow is discounted at its own tenor's spot rate;
    duration and convexity are then the sensitivities to a parallel shift of
    the whole curve. The reported ytm is still the maturity-point spot. A
    flow before the curve's shortest tenor raises ExtrapolationError naming
    the bond and the flow's time.
    """
    y = spot(curve, bond.maturity)
    if mode == "flat":
        return analytics(bond, y)
    if mode != "spot":
        raise ValueError(f"unknown pricing mode {mode!r} (expected 'flat' or 'spot')")

    t, cf = _bond_flows(bond)
    if t[0] < curve.min_tenor - _SPAN_TOL:
        raise ExtrapolationError(
            f"bond {bond.id!r}: cashflow at t={t[0]} lies before the curve's shortest "
            f"tenor {curve.min_tenor} on {curve.date}; spot mode does not extrapolate"
        )
    (p,), (d,), (cx,) = _spot_marks(t[None], cf[None], curve.tenors, np.array([curve.rates]))
    return BondAnalytics(price=float(p), ytm=y, modified_duration=float(d), convexity=float(cx))


def _spot_marks(t: np.ndarray, cf: np.ndarray, tenors, rates: np.ndarray):
    """Price, duration and convexity of each row of a (rows, k) flow table,
    every flow discounted at its own spot rate on that row's curve (rates is
    (rows, knots)); duration and convexity are the sensitivities to bumping
    every rate by the same epsilon."""
    rows, k = t.shape
    r = _interp_rows(t.ravel(), np.asarray(tenors), np.repeat(rates, k, axis=0)).reshape(rows, k)
    pv = _pv(t, cf, r)
    p = pv.sum(axis=1)
    tpv, ttpv = (t * pv / (1.0 + r)).sum(axis=1), (t * (t + 1.0) * pv / (1.0 + r) ** 2).sum(axis=1)
    return p, tpv / p, ttpv / p


def pnl_approx(price: float, duration: float, convexity: float, dy: float) -> float:
    """Second-order price change P * (-D dy + 0.5 C dy^2) for a yield move dy."""
    for name, x in (("price", price), ("duration", duration), ("convexity", convexity), ("dy", dy)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    if price <= 0:
        raise ValueError(f"price must be positive, got {price}")
    return price * (-duration * dy + 0.5 * convexity * dy * dy)
