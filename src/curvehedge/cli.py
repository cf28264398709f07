"""Command-line entry point.

Subcommands:

* analyze  — bond analytics table off one curve date
* hedge    — build a hedge plan and emit it as JSON
* scenario — shock a curve, reprice a plan exactly, emit JSON lines
* backtest — replay a curve history and write P&L/summary/correlation CSVs
* stats    — tenor correlation matrix only
* synth    — seeded synthetic curve history generator for fixtures

Each option is declared once (shared ones as argparse parent groups, defaults
from SynthConfig and BacktestConfig), and one parser is built per process.
Every input is read, and every JSON and CSV output rendered, by io, which
alone knows the file formats. A curve file is read as one CurveHistory:
analyze, hedge and scenario take one day's curve from it, and backtest
correlates the rows its report covers.

All numbers are printed with 10 significant digits, so identical inputs
give byte-identical outputs. Exit code 0 on success, 2 on any data or
validation error, an input that cannot be read and a result out of the
float range among them. Missing inputs, outputs under a regular file, file
outputs that are directories and two outputs naming one file are reported
before any work.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from .backtest import BacktestConfig, run_backtest, tenor_correlations
from .bonds import curve_analytics
from .curve import ShockSpec, YieldCurve
from .errors import ValidationError
from .hedging import STRATEGIES, build_plan, snapshot
from .io import (
    _iso_date,
    _write,
    bonds_json,
    correlations_csv,
    emit_report,
    fmt_num,
    parse_bonds_json,
    parse_config_json,
    parse_curve_csv,
    parse_plan_json,
    plan_json,
    scenario_lines,
    write_curve_csv,
)
from .scenario import run_scenarios
from .synth import SynthConfig, default_bond_universe, generate_history

# the SynthConfig fields synth takes as options of the same name, "_" as "-"
_SYNTH_OPTIONS = ("days", "seed", "sigma_level", "sigma_slope", "sigma_twist", "sigma_idio", "ar")


def _check_inputs(args: argparse.Namespace) -> None:
    """Fail-fast validation: every missing input, every output file that is a
    directory, every output whose nearest existing folder is not a directory
    and two outputs naming one file are reported before any work."""
    problems = []
    for attr in ("bonds", "curve", "history", "plan", "config"):
        value = getattr(args, attr, None)
        if value is not None and not Path(value).is_file():
            problems.append(f"--{attr}: no such file: {Path(value)}")
    outputs = list(filter(None, (args.out, getattr(args, "bonds_out", None))))
    if len({*map(os.path.realpath, outputs)}) < len(outputs):
        problems.append(f"--out and --bonds-out name one file: {Path(args.out)}")
    for value in outputs:
        # backtest writes its reports into --out; every other output is a file
        if args.command != "backtest" and os.path.isdir(value):
            problems.append(f"cannot write {Path(value)}: Is a directory")
            continue
        folder = Path(value) if args.command == "backtest" else Path(value).parent
        found = next((p for p in (folder, *folder.parents) if os.path.exists(p)), None)
        if found is not None and not os.path.isdir(found):
            problems.append(f"cannot write {found}: Not a directory")
    if problems:
        raise ValidationError("; ".join(problems))


def _pick_curve(path, date: str | None) -> YieldCurve:
    """The curve on `date` (default: the first row) of a whole checked history file."""
    history = parse_curve_csv(path)
    want = history.dates[0] if date is None else _iso_date(date, "--date")
    try:
        i = history.dates.index(want)
    except ValueError:
        raise ValidationError(f"date {want} not present in the curve file") from None
    return history[i]


def _finite(option: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{option} must be finite, got {value}")


def _parse_shock(text: str) -> ShockSpec:
    """Parse 'a=0.001,b=0,c=0' (missing keys default to 0)."""
    values = {"a": 0.0, "b": 0.0, "c": 0.0}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValidationError(f"bad shock component {part!r}: expected key=value")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in values:
            raise ValidationError(f"unknown shock component {key!r}: use a, b, c")
        try:
            values[key] = float(raw)
        except ValueError:
            raise ValidationError(f"non-numeric shock value {raw!r} for {key!r}") from None
        _finite(f"--shock component {key!r}", values[key])
    return ShockSpec.parametric(values["a"], values["b"], values["c"])


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out:
        _write([(out, text)])
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    universe = parse_bonds_json(args.bonds)
    curve = _pick_curve(args.curve, args.date)
    widths = {"maturity": 10, "price": 16, "ytm": 14, "duration": 14, "convexity": 14}
    header = f"{'id':<8}" + "".join(f"{name:>{w}}" for name, w in widths.items())
    lines = [f"# analytics off curve {curve.date}, mode={args.mode}", header]
    for bond in universe.values():
        a = curve_analytics(bond, curve, mode=args.mode)
        cells = map(fmt_num, (bond.maturity, a.price, a.ytm, a.modified_duration, a.convexity))
        # a number as wide as its column gets one leading space, so none runs into the next
        lines.append(f"{bond.id:<8}" + "".join(
            f"{s:>{w}}" if len(s) < w else " " + s for s, w in zip(cells, widths.values())))
    _emit("\n".join(lines), args.out)
    return 0


def cmd_hedge(args: argparse.Namespace) -> int:
    _finite("--amount", args.amount)
    universe = parse_bonds_json(args.bonds)
    curve = _pick_curve(args.curve, args.date)
    ids = [s.strip() for s in args.instruments.split(",") if s.strip()]
    unknown = [i for i in [args.target, *ids] if i not in universe]
    if unknown:
        raise ValidationError(f"unknown bond id(s) {unknown}")
    target = snapshot(universe[args.target], curve, amount=args.amount)
    legs = [snapshot(universe[i], curve) for i in ids]
    plan = build_plan(args.strategy, target, legs, args.allow_extrapolation)
    _emit(plan_json(plan), args.out)
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.sweep < 0:
        raise ValidationError(f"--sweep must be a count of scales >= 0, got {args.sweep}")
    _finite("--tolerance", args.tolerance)
    if args.tolerance < 0:
        raise ValidationError(f"--tolerance must be >= 0, got {args.tolerance}")
    plan = parse_plan_json(args.plan)
    universe = parse_bonds_json(args.bonds)
    curve = _pick_curve(args.curve, args.date)
    shock = _parse_shock(args.shock)
    scales = [0.5 ** k for k in range(args.sweep)] if args.sweep else [1.0]
    results = run_scenarios(plan, universe, curve, [shock.scaled(scale) for scale in scales])
    _emit(scenario_lines(scales, results, args.tolerance), args.out)
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    if not args.out:
        raise ValidationError("backtest requires --out <dir>")
    history = parse_curve_csv(args.history)
    universe = parse_bonds_json(args.bonds)
    config = parse_config_json(args.config)
    report = run_backtest(history, universe, config)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    first = history.dates.index(report.dates[0])
    corr = None
    try:
        corr = tenor_correlations(history[first : first + len(report.dates)],
                                  on="diffs" if args.diff else "levels")
    except ValueError as exc:
        print(f"warning: correlations skipped: {exc}", file=sys.stderr)
    emit_report(report, args.out, correlations=corr, tenors=history.tenors)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    history = parse_curve_csv(args.history)
    corr = tenor_correlations(history, on="diffs" if args.diff else "levels")
    _emit(correlations_csv(corr, history.tenors), args.out)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if not args.out:
        raise ValidationError("synth requires --out <csv>")
    config = SynthConfig(start=_iso_date(args.start, "--start"),
                         **{name: getattr(args, name) for name in _SYNTH_OPTIONS})
    curves, _ = generate_history(config)
    bonds = [(args.bonds_out, bonds_json(default_bond_universe()))] if args.bonds_out else []
    write_curve_csv(curves, args.out, *bonds)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file, or the report directory of backtest")
    bonds = argparse.ArgumentParser(add_help=False)
    bonds.add_argument("--bonds", required=True, help="bond universe JSON")
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--curve", required=True, help="curve history CSV")
    curve.add_argument("--date", help="ISO date row to use (default: first)")
    history = argparse.ArgumentParser(add_help=False)
    history.add_argument("--history", required=True, help="curve history CSV")
    history.add_argument("--diff", action="store_true", help="correlate daily changes instead of levels")

    parser = argparse.ArgumentParser(
        prog="curvehedge",
        description="Yield-curve immunization toolkit: analytics, hedge ratios, "
        "scenario repricing, backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, name: str, help: str, *groups) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[out, *groups], help=help)
        p.set_defaults(func=func)
        return p

    p = command(cmd_analyze, "analyze", "bond analytics table", bonds, curve)
    p.add_argument("--mode", choices=("flat", "spot"), default="flat")

    p = command(cmd_hedge, "hedge", "build a hedge plan", bonds, curve)
    p.add_argument("--strategy", required=True,
                   choices=[s.value for s in STRATEGIES])
    p.add_argument("--target", required=True, help="target bond id")
    p.add_argument("--instruments", required=True, help="comma-separated hedge bond ids")
    p.add_argument("--amount", type=float, default=BacktestConfig.target_amount,
                   help="target amount (default %(default)s)")
    p.add_argument("--allow-extrapolation", action="store_true",
                   help="permit targets outside the hedge maturity span")

    p = command(cmd_scenario, "scenario", "shock and reprice a plan", bonds, curve)
    p.add_argument("--plan", required=True, help="hedge plan JSON (from `hedge`)")
    p.add_argument("--shock", required=True, help="e.g. a=0.001,b=0,c=0")
    p.add_argument("--sweep", type=int, default=0,
                   help="run N dyadic scales of the shock instead of one")
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="absolute tolerance for within-tolerance flags (default %(default)s)")

    p = command(cmd_backtest, "backtest", "replay a curve history", history, bonds)
    p.add_argument("--config", required=True, help="backtest config JSON")

    command(cmd_stats, "stats", "tenor correlation matrix", history)

    p = command(cmd_synth, "synth", "generate a synthetic history")
    for name in _SYNTH_OPTIONS:
        default = getattr(SynthConfig, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default,
                       help="default %(default)s")
    p.add_argument("--start", default=SynthConfig.start.isoformat(), help="first trading date")
    p.add_argument("--bonds-out", help="also write the demo bond universe")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_inputs(args)
        return args.func(args)
    except ValueError as exc:  # every CurveHedgeError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
