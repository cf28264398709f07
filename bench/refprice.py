"""Reference pricer for the benchmark's checks.

Written from the README's conventions alone and importing nothing from
curvehedge: coupons of face * rate / frequency paid every 1/frequency years
counting back from maturity, the face returned with the last coupon, every
flow discounted at (1 + y)^-t, and y the piecewise-linear spot rate at the
bond's maturity ("flat" mode). Bonds here carry no accrual-start offset,
so no stub coupon arises.
"""

from __future__ import annotations

import math
from bisect import bisect_right

_TIME_TOL = 1e-9


def flows(face: float, coupon_rate: float, frequency: int, maturity: float):
    """(time, amount) pairs of a bullet bond's remaining cashflows."""
    step = 1.0 / frequency
    coupon = face * coupon_rate / frequency
    count = math.ceil(maturity * frequency - _TIME_TOL)
    out = [(maturity - k * step, coupon) for k in range(count - 1, -1, -1)]
    t_last, c_last = out[-1]
    out[-1] = (t_last, c_last + face)
    return [(t, c) for t, c in out if c != 0.0]


def present_value(face, coupon_rate, frequency, maturity, y) -> float:
    if y <= -1.0:
        raise ValueError(f"yield {y} at or below -100%")
    base = 1.0 + y
    return math.fsum(c * base ** (-t) for t, c in flows(face, coupon_rate, frequency, maturity))


def interpolate(tenors, rates, t: float) -> float:
    """Piecewise-linear spot rate at t; refuses to extrapolate."""
    if t < tenors[0] - _TIME_TOL or t > tenors[-1] + _TIME_TOL:
        raise ValueError(f"maturity {t} outside [{tenors[0]}, {tenors[-1]}]")
    i = min(max(bisect_right(tenors, t), 1), len(tenors) - 1)
    t0, t1 = tenors[i - 1], tenors[i]
    w = (t - t0) / (t1 - t0)
    return rates[i - 1] + w * (rates[i] - rates[i - 1])


def curve_price(bond, tenors, rates, elapsed: float = 0.0) -> float:
    """Price of `bond` seen `elapsed` years after valuation, off one curve."""
    m = bond.maturity - elapsed
    y = interpolate(tenors, rates, m)
    return present_value(bond.face, bond.coupon_rate, bond.coupon_frequency, m, y)


def year_fraction(d0, d1) -> float:
    """ACT/365."""
    return (d1 - d0).days / 365.0
