"""Cashflow-level bond analytics: pricing, modified duration, convexity.

Conventions used throughout the toolkit:

* annual discrete compounding, discount factor (1 + y)^(-t) for every
  coupon frequency;
* modified duration = Macaulay duration / (1 + y);
* all times are ACT/365 year fractions measured from the valuation date.

Each bond is priced off a single yield. When that yield comes from a curve
the default is the interpolated spot rate at the bond's own maturity
("flat" mode); "spot" mode discounts every cashflow at its own tenor's
spot rate instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def cashflows(bond: Bond) -> list[tuple[float, float]]:
    """Future cashflows as (time, amount) pairs, strictly increasing in time.

    Coupons of face * coupon_rate / frequency at each schedule date; the
    final flow additionally returns the face. Zero-amount coupons are
    dropped, so a zero-coupon bond has a single flow.
    """
    step = 1.0 / bond.coupon_frequency
    coupon = bond.face * bond.coupon_rate / bond.coupon_frequency
    n = int(math.ceil(bond.maturity * bond.coupon_frequency - _TIME_TOL))
    times = [bond.maturity - k * step for k in range(n)][::-1]

    flows = [(t, coupon) for t in times]
    start = bond.issue_or_first_coupon_offset
    if start is not None and flows:
        first_t = flows[0][0]
        accrual = min(first_t - start, step)
        if accrual <= _TIME_TOL:
            raise ValueError(
                f"bond {bond.id!r}: accrual start {start} is not before first coupon {first_t}"
            )
        if accrual < step - _TIME_TOL:
            flows[0] = (first_t, bond.face * bond.coupon_rate * accrual)
    flows[-1] = (flows[-1][0], flows[-1][1] + bond.face)
    return [(t, cf) for t, cf in flows if cf != 0.0]


def _flow_arrays(bond: Bond) -> tuple[np.ndarray, np.ndarray]:
    flows = cashflows(bond)
    return np.array([f[0] for f in flows]), np.array([f[1] for f in flows])


def _pv(bond: Bond, ytm: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flow times and present values cf·(1+y)^-t at one yield, or at a
    (K, 1) column of yields (one row of values per yield)."""
    low = ytm.min(initial=np.inf) if isinstance(ytm, np.ndarray) else ytm
    if low <= -1.0:
        raise ValueError(f"yield must be greater than -100%, got {low}")
    t, cf = _flow_arrays(bond)
    # one exponent per value, laid out in full: NumPy takes an exponent of -1
    # broadcast over a column as a reciprocal, which can differ from pow
    return t, cf * (1.0 + ytm) ** (-t * np.ones_like(ytm))


def price(bond: Bond, ytm: float) -> float:
    """Present value of all cashflows at a single annually-compounded yield."""
    return float(_pv(bond, ytm)[1].sum())


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x[r], xp, fp[r]) for every row r, bit for bit (finite fp)."""
    last = len(xp) - 1
    j = np.searchsorted(xp, x, side="right") - 1
    jc = np.clip(j, 0, last - 1)
    rows = np.arange(len(x))
    lo, hi = fp[rows, jc], fp[rows, jc + 1]
    inner = (hi - lo) / (xp[jc + 1] - xp[jc]) * (x - xp[jc]) + lo
    inner = np.where(x == xp[jc], lo, inner)
    return np.where(j < 0, fp[:, 0], np.where(j >= last, fp[:, last], inner))


def _roll_table(bond: Bond, elapsed: np.ndarray, tenors, rates: np.ndarray):
    """Flat-mode marks of `bond` rolled by each elapsed[k], off row k of rates.

    Row k holds what the scalar path gives for bond.rolled(elapsed[k]):
    analytics at the spot rate of curve k at its maturity and, from row 1,
    the carry price at the spot rate of curve k-1. Flows are summed per run
    of rows with the same live-flow count, so each row sums the array
    cashflows() builds (plus exact zeros for a zero-coupon bond's coupons,
    which it drops), and every float is equal to the scalar one.

    Returns (maturity, price, duration, convexity, carry, bad): bad is the
    first row the scalar path cannot price (maturity outside the tenor span,
    a yield at or below -100%, no live flow, an accrual start not before the
    first coupon), or None; the arrays stop before it (carry one shorter).
    """
    step = 1.0 / bond.coupon_frequency
    coupon = bond.face * bond.coupon_rate / bond.coupon_frequency
    xp = np.asarray(tenors, dtype=float)
    m = bond.maturity - elapsed
    n = np.ceil(m * bond.coupon_frequency - _TIME_TOL).astype(int)
    y = _interp_rows(m, xp, rates)
    # row k's carry yield: curve k-1 at row k's maturity (row 0 has no
    # carry; its own curve stands in)
    carry_y = _interp_rows(m, xp, np.concatenate((rates[:1], rates[:-1])))
    fails = (m < xp[0] - _SPAN_TOL) | (m > xp[-1] + _SPAN_TOL) | (n < 1)
    fails |= (y <= -1.0) | (carry_y <= -1.0)
    offset = bond.issue_or_first_coupon_offset
    if offset is not None:
        accrual = np.minimum((m - (n - 1) * step) - (offset - elapsed), step)
        fails |= accrual <= _TIME_TOL
    bad = int(np.argmax(fails)) if fails.any() else None
    rows = len(m) if bad is None else bad
    p, tpv, ttpv, carry = (np.empty(rows) for _ in range(4))
    # live flows only drop as the bond rolls, so equal counts form runs
    cuts = np.flatnonzero(np.diff(n[:rows], prepend=0, append=0)).tolist()
    for a, b in zip(cuts, cuts[1:]):
        k = int(n[a])
        t = m[a:b, None] - np.arange(k - 1, -1, -1) * step
        cf = np.full((b - a, k), coupon)
        if offset is not None:
            acc = accrual[a:b]
            cf[:, 0] = np.where(acc < step - _TIME_TOL, bond.face * bond.coupon_rate * acc, coupon)
        cf[:, -1] += bond.face
        pv = cf * (1.0 + y[a:b, None]) ** (-t)
        p[a:b] = pv.sum(axis=1)
        tpv[a:b] = (t * pv).sum(axis=1)
        ttpv[a:b] = (t * (t + 1.0) * pv).sum(axis=1)
        carry[a:b] = (cf * (1.0 + carry_y[a:b, None]) ** (-t)).sum(axis=1)
    g = 1.0 + y[:rows]
    # Python's float ** (libm pow), as analytics() takes it: NumPy squares
    # differ from it in the last bit
    g2 = np.array([v**2 for v in g.tolist()])
    return m[:rows], p, tpv / p / g, ttpv / (p * g2), carry[1:], bad


def modified_duration(bond: Bond, ytm: float) -> float:
    """-(1/P) dP/dy, i.e. Macaulay duration divided by (1 + y)."""
    return analytics(bond, ytm).modified_duration


def convexity(bond: Bond, ytm: float) -> float:
    """(1/P) d2P/dy2 = sum t(t+1) PV_t / (P (1+y)^2)."""
    return analytics(bond, ytm).convexity


def analytics(bond: Bond, ytm: float) -> BondAnalytics:
    """Price, duration and convexity in one pass over the cashflows."""
    t, pv = _pv(bond, ytm)
    p, tpv, ttpv = float(pv.sum()), float((t * pv).sum()), float((t * (t + 1.0) * pv).sum())
    return BondAnalytics(
        price=p,
        ytm=ytm,
        modified_duration=tpv / p / (1.0 + ytm),
        convexity=ttpv / (p * (1.0 + ytm) ** 2),
    )


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

    t, cf = _flow_arrays(bond)
    try:
        rates = np.array([spot(curve, ti) for ti in t])
    except ExtrapolationError as exc:
        # spot at the maturity passed above, so it is the earliest flow
        # that lies before the shortest tenor
        raise ExtrapolationError(
            f"bond {bond.id!r}: cashflow at t={t[0]} lies before the curve's shortest "
            f"tenor {curve.min_tenor} on {curve.date}; spot mode does not extrapolate"
        ) from exc
    pv = cf * (1.0 + rates) ** (-t)
    p = float(np.sum(pv))
    # sensitivities to bumping every spot rate by the same epsilon
    d = float(np.sum(t * pv / (1.0 + rates))) / p
    cx = float(np.sum(t * (t + 1.0) * pv / (1.0 + rates) ** 2)) / p
    return BondAnalytics(price=p, ytm=y, modified_duration=d, convexity=cx)


def pnl_approx(price: float, duration: float, convexity: float, dy: float) -> float:
    """Second-order price change P * (-D dy + 0.5 C dy^2) for a yield move dy."""
    if price <= 0:
        raise ValueError(f"price must be positive, got {price}")
    return price * (-duration * dy + 0.5 * convexity * dy * dy)
