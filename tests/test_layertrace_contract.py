"""The benchmark's layer tracer looks up every traced function by name, so a
change that deletes or renames one must fail here, not only in the
benchmark. Also pins the per-layer work of a backtest on a short window (no
plan builder, pricing or snapshot call per day), of
the curve layer (one curve per synthetic day, checked as one block, one
delta_y per shock) and of a
residual sweep (the base curve and the shocked curves priced as one block,
with a fit only for a slope or twist shock), and of a history read: no
curve built to backtest or correlate one, a CLI file read booked to io, and
a written file read by one np.loadtxt call with no row walk."""

import dataclasses
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import curvehedge
from curvehedge import cli, io
from curvehedge import BacktestConfig, ShockSpec, Strategy, SynthConfig, generate_history
from curvehedge.synth import default_bond_universe

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layertrace  # noqa: E402


def test_tracer_wraps_every_name_and_counts_backtest_work():
    tracer = layertrace.Tracer()  # looks up every traced name
    curves, _ = generate_history(SynthConfig(days=20, seed=3))
    universe = {b.id: b for b in default_bond_universe()}
    config = BacktestConfig(
        target_id="B2",
        instruments={
            Strategy.DURATION: ("B3",),
            Strategy.QUADRATIC: ("B3", "B1"),
            Strategy.CONVEXITY: ("B3", "B1"),
            Strategy.CUBIC: ("B3", "B1", "B4"),
        },
    )
    tracer.install()
    try:
        report = curvehedge.run_backtest(curves, universe, config)
    finally:
        tracer.uninstall()
    steps = len(curves) - 1
    assert all(len(s.dates) == steps for s in report.series.values())
    # each strategy's ratios are solved as arrays over its rebalance days
    assert tracer.plan_stat().calls == 0
    assert tracer.stat("backtest", "run_backtest").calls == 1
    # marks come from one mark table for the whole book, not from per-day pricing
    assert tracer.stat("bonds", "price").calls == 0
    assert tracer.stat("hedging", "snapshot").calls == 0


def test_tracer_counts_no_curve_built_to_backtest_or_correlate_a_history():
    """A generated history is read as its rates block: neither a backtest
    (its start/end window a row slice) nor a correlation builds a curve."""
    history, _ = generate_history(SynthConfig(days=40, seed=3))
    universe = {b.id: b for b in default_bond_universe()}
    config = BacktestConfig(target_id="B2", instruments={Strategy.DURATION: ("B3",)},
                            strategies=(Strategy.DURATION,),
                            start=history[5].date, end=history[-5].date)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        curvehedge.run_backtest(history, universe, config)
        whole = dataclasses.replace(config, start=None, end=None)
        curvehedge.run_backtest(history, universe, whole)
        curvehedge.tenor_correlations(history, on="diffs")
    finally:
        tracer.uninstall()
    assert tracer.stat("backtest", "run_backtest").calls == 2
    assert tracer.stat("curve", "__post_init__").calls == 0


def test_tracer_counts_a_cli_curve_read_as_io(tmp_path):
    """analyze reads its curve file through parse_curve_csv, so the read is
    booked to io with its bytes, not to the cli layer."""
    history, _ = generate_history(SynthConfig(days=30, seed=3))
    curve, bonds = tmp_path / "hist.csv", tmp_path / "bonds.json"
    curvehedge.write_curve_csv(history, curve)
    curvehedge.write_bonds_json(default_bond_universe(), bonds)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        code = cli.main(["analyze", "--bonds", str(bonds), "--curve", str(curve),
                         "--date", history[7].date.isoformat(), "--out", str(tmp_path / "a.txt")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.stat("io", "parse_curve_csv").calls == 1
    assert tracer.extra["csv_rows"] == 30
    assert tracer.extra["bytes_read"] == curve.stat().st_size + bonds.stat().st_size


def _count_calls(monkeypatch, owner, name, counts: Counter) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_written_history_is_read_by_one_loadtxt_and_no_row_walk(tmp_path, monkeypatch):
    """A file write_curve_csv wrote, with or without a comment line in its
    body, is read as one block; a failed check (a repeated date) walks the rows."""
    history, _ = generate_history(SynthConfig(days=2500, seed=3))
    plain = tmp_path / "plain.csv"
    curvehedge.write_curve_csv(history, plain)
    io._memo.clear()  # the written history is held: read it as another's file
    lines = plain.read_text().splitlines(keepends=True)
    commented, repeated = tmp_path / "commented.csv", tmp_path / "repeated.csv"
    commented.write_text("".join(lines[:1200] + ["# a comment\n"] + lines[1200:]))
    repeated.write_text("".join(lines + lines[-1:]))
    counts = Counter()
    _count_calls(monkeypatch, np, "loadtxt", counts)
    _count_calls(monkeypatch, io, "_walk_rows", counts)
    want = curvehedge.parse_curve_csv(plain)
    assert counts == {"loadtxt": 1}
    counts.clear()
    got = curvehedge.parse_curve_csv(commented)
    assert counts == {"loadtxt": 1}
    assert (got.dates, got.rates.tobytes()) == (want.dates, want.rates.tobytes())
    assert len(want) == 2500
    counts.clear()
    with pytest.raises(curvehedge.ValidationError, match="line 2503: duplicate date"):
        curvehedge.parse_curve_csv(repeated)
    assert counts == {"loadtxt": 1, "_walk_rows": 1}


def test_tracer_counts_one_curve_per_day_and_one_delta_y_per_shock():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        curves, draws = curvehedge.generate_history(SynthConfig(days=20))
        history_curves = tracer.stat("curve", "__post_init__").calls
        before = tracer.stat("curve", "delta_y").calls
        curvehedge.apply_shock(curves[0], ShockSpec.parametric(1e-3, 0.05, 0.02), draws.segment)
    finally:
        tracer.uninstall()
    assert len(curves) == 20
    assert history_curves <= 2  # the base curve and one check of the block, not one per day
    assert tracer.stat("curve", "apply_shock").calls == 1
    assert tracer.stat("curve", "delta_y").calls - before <= 1


def test_tracer_counts_one_base_pricing_per_sweep():
    curves, _ = generate_history(SynthConfig(days=2, seed=3))
    curve = curves[0]
    universe = {b.id: b for b in default_bond_universe()}
    snaps = {i: curvehedge.snapshot(b, curve, amount=100.0 if i == "B2" else 0.0)
             for i, b in universe.items()}
    plan = curvehedge.cubic_hedge(snaps["B2"], snaps["B3"], snaps["B1"], snaps["B4"])
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        curvehedge.residual_scaling(plan, universe, curve,
                                    ShockSpec.parametric(1e-3, 0.05, 0.02), steps=4)
    finally:
        tracer.uninstall()
    # the base curve is row 0 of the block, so no bond is looked up by
    # spot(), and each is priced over the base and the shocked curves in one
    # flow table, not by price()
    assert tracer.stat("curve", "spot").calls == 0
    assert tracer.stat("bonds", "price").calls == 0
    assert tracer.stat("curve", "fit_segment").calls == 1
    assert tracer.stat("curve", "apply_shock").calls == 0
    # a level shift reads no fit
    level = layertrace.Tracer()
    level.install()
    try:
        curvehedge.residual_scaling(plan, universe, curve, ShockSpec.parametric(1e-3), steps=4)
    finally:
        level.uninstall()
    assert level.stat("curve", "fit_segment").calls == 0
    assert level.stat("curve", "spot").calls == 0
