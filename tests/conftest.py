"""Shared fixtures: the demo bond universe and a curve with knots at the
bond maturities (4, 5, 5.5 and 7 are all grid tenors, so custom shock
vectors are exact at every bond's pricing point). Every test starts with
no curve history held by parse_curve_csv."""

import datetime as dt

import pytest

import curvehedge.io
from curvehedge import Bond, YieldCurve, snapshot
from curvehedge.synth import DEFAULT_BASE_COEFFS, DEFAULT_TENORS, default_bond_universe


def base_rate(t: float) -> float:
    a0, a1, a2, a3 = DEFAULT_BASE_COEFFS
    return a0 + t * (a1 + t * (a2 + t * a3))


@pytest.fixture(autouse=True)
def empty_curve_memo():
    """Test order cannot turn a test's counted parse into a memo hit."""
    curvehedge.io._memo.clear()


@pytest.fixture
def universe() -> dict[str, Bond]:
    return {b.id: b for b in default_bond_universe()}


@pytest.fixture
def curve() -> YieldCurve:
    return YieldCurve(
        dt.date(2024, 1, 2),
        DEFAULT_TENORS,
        tuple(base_rate(t) for t in DEFAULT_TENORS),
    )


@pytest.fixture
def snaps(universe, curve):
    """Target B2 carries amount 100; hedge candidates carry amount 0."""
    out = {}
    for bond_id, bond in universe.items():
        amount = 100.0 if bond_id == "B2" else 0.0
        out[bond_id] = snapshot(bond, curve, amount=amount)
    return out
