"""The benchmark's three workloads.

Each workload has one kind of operation ("op"). The runner calls, per op:

    x = workload.inputs(k)      # untimed: draw the op's inputs from the seed
    for step in workload.steps(x):
        r = step()              # timed: the program's work
    errors = workload.check(x, r)   # untimed: independent and property checks

op(x) runs the steps back to back. The runner times each step on its own
and samples the calibration kernel between them, so a long op made of
several program calls is host-corrected piece by piece.

prepare() makes the inputs shared by every op through the program's own
synth/io; it is part of set-up. Op k = 0 is the set-up's warm-up op.

Every call into curvehedge goes through a module attribute looked up at
call time (`ch.run_backtest`, `ch.cli.main`), so the layer tracer's
wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import datetime as dt
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import curvehedge as ch
import curvehedge.cli  # noqa: F401  (ch.cli.main)
import refprice

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

DEMO_INSTRUMENTS = {
    "duration": ("B3",),
    "quadratic": ("B3", "B1"),
    "convexity": ("B3", "B1"),
    "cubic": ("B3", "B1", "B4"),
}
STRATEGY_NAMES = tuple(DEMO_INSTRUMENTS)
TARGET_ID = "B2"
TARGET_AMOUNT = 100.0


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _child_seed(seed: int, *tags: int) -> int:
    return int(_rng(seed, *tags).integers(1, 2**31 - 1))


def _close(got: float, want: float, rel: float, scale: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), scale)


def _demo_config() -> "ch.BacktestConfig":
    return ch.BacktestConfig(
        target_id=TARGET_ID,
        target_amount=TARGET_AMOUNT,
        instruments={ch.Strategy(k): v for k, v in DEMO_INSTRUMENTS.items()},
        net_carry=True,
    )


def _risk_ladder(stdev: dict[str, float]) -> list[str]:
    """cubic < quadratic < duration, every strategy well under unhedged."""
    errors = []
    if not stdev["cubic"] < stdev["quadratic"] < stdev["duration"]:
        errors.append(f"risk ladder broken: {stdev}")
    for name in STRATEGY_NAMES:
        if not stdev[name] < 0.2 * stdev[ch.UNHEDGED]:
            errors.append(f"{name} stdev {stdev[name]} not under 0.2x unhedged")
    return errors


def _reference_unhedged(bond, curves, net: bool) -> np.ndarray:
    """Daily P&L of TARGET_AMOUNT units of `bond`, from the reference pricer.

    Gross: P(next curve, rolled to next date) - P(this curve, this date).
    Net of carry: P(next curve, next date) - P(this curve, next date).
    """
    day0 = curves[0].date
    out = []
    for cur, nxt in zip(curves, curves[1:]):
        e_now = refprice.year_fraction(day0, cur.date)
        e_next = refprice.year_fraction(day0, nxt.date)
        p_next = refprice.curve_price(bond, nxt.tenors, nxt.rates, e_next)
        if net:
            base = refprice.curve_price(bond, cur.tenors, cur.rates, e_next)
        else:
            base = refprice.curve_price(bond, cur.tenors, cur.rates, e_now)
        out.append(TARGET_AMOUNT * (p_next - base))
    return np.array(out)


def _compare_series(label: str, got, want, scale: float, rel: float = 1e-9) -> list[str]:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: {got.shape[0]} values, reference has {want.shape[0]}"]
    worst = float(np.max(np.abs(got - want) - rel * np.maximum(np.abs(want), scale)))
    if worst > 0.0:
        return [f"{label}: differs from the reference pricer by {worst:.3e} beyond tolerance"]
    return []


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------

@dataclass
class BacktestInput:
    k: int
    window: list


class BacktestWorkload:
    """One run_backtest over a 250-day synthetic window of the demo universe.

    All four strategies plus the unhedged series, daily rebalancing,
    net_carry. 250 days stays well inside the ~3.5 years after which B3
    rolls below the 0.5y knot, so no series truncates.
    """

    name = "backtest"
    WINDOW_DAYS = 250
    POOL = 4
    op_size = f"{WINDOW_DAYS} days per window, 4 strategies + unhedged"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        cfg = ch.SynthConfig(days=self.WINDOW_DAYS * self.POOL, seed=_child_seed(self.seed, 1))
        curves, _ = ch.generate_history(cfg)
        hist, bonds = self.workdir / "hist.csv", self.workdir / "bonds.json"
        ch.write_curve_csv(curves, hist)
        ch.write_bonds_json(ch.default_bond_universe(), bonds)
        history = ch.parse_curve_csv(hist)
        self.universe = ch.parse_bonds_json(bonds)
        n = self.WINDOW_DAYS
        self.windows = [history[i * n:(i + 1) * n] for i in range(self.POOL)]
        self.config = _demo_config()

    def inputs(self, k: int) -> BacktestInput:
        return BacktestInput(k, self.windows[k % self.POOL])

    def op(self, x: BacktestInput):
        return ch.run_backtest(x.window, self.universe, self.config)

    def steps(self, x: BacktestInput):
        return [lambda: self.op(x)]

    def check(self, x: BacktestInput, report) -> list[str]:
        errors = []
        if report.warnings:
            errors.append(f"unexpected truncation: {report.warnings}")
        for name in STRATEGY_NAMES + (ch.UNHEDGED,):
            if len(report.series[name].gross) != len(x.window) - 1:
                errors.append(f"{name}: series has {len(report.series[name].gross)} days")
        if errors:
            return errors
        want = _reference_unhedged(self.universe[TARGET_ID], x.window, net=False)
        errors += _compare_series("unhedged gross", report.series[ch.UNHEDGED].gross, want,
                                  scale=TARGET_AMOUNT)
        errors += _risk_ladder({n: s.stdev for n, s in report.summary.items()})
        if x.k == 0:
            errors += self._check_frozen(x.window[0])
        return errors

    def _check_frozen(self, first) -> list[str]:
        """On a history whose curve never moves, the carry-netted P&L is zero."""
        dates = [first.date + dt.timedelta(days=i) for i in range(20)]
        frozen = [ch.YieldCurve(d, first.tenors, first.rates) for d in dates]
        report = ch.run_backtest(frozen, self.universe, self.config)
        errors = []
        for name, series in report.series.items():
            if len(series.net) != len(frozen) - 1 or np.any(series.net != 0.0):
                errors.append(f"{name}: carry-netted P&L not zero on a frozen history")
        if not np.any(report.series[ch.UNHEDGED].gross != 0.0):
            errors.append("unhedged gross P&L shows no pull-to-par on a frozen history")
        return errors


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

# knots span every maturity the instrument draws can produce (1y to 12y)
AUDIT_TENORS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 15.0)
AUDIT_STEPS = 4

_H = ch.hedging
# strategy -> (indices into the four drawn hedge bonds, the constraints it zeroes)
AUDIT_PLANS = {
    "duration": ((2,), (_H.DOLLAR_DURATION,)),
    "quadratic": ((0, 3), (_H.DOLLAR_DURATION, _H.DURATION_MATURITY)),
    "convexity": ((1, 2), (_H.DOLLAR_DURATION, _H.DOLLAR_CONVEXITY)),
    "cubic": ((0, 1, 3), (_H.DOLLAR_DURATION, _H.DURATION_MATURITY, _H.DURATION_MATURITY_SQ)),
}
_WEIGHTS = {c.name: c.weight for _, cons in AUDIT_PLANS.values() for c in cons}
# residual order each strategy is built for, under shocks the piecewise-linear
# knots carry exactly: a level shift, and the twist c*F'' of a cubic segment,
# which is affine in maturity
MIN_ORDER = {
    ("duration", "level"): 2.0,
    ("quadratic", "level"): 2.0,
    ("convexity", "level"): 3.0,
    ("cubic", "level"): 2.0,
    ("quadratic", "twist"): 2.0,
    ("cubic", "twist"): 2.0,
}
ORDER_SLACK = 0.3


def _has_order(order: float, scaling, p: float) -> bool:
    """Whether a residual sweep shows immunization of at least order p.

    The fitted log-log slope is the primary test. When two orders of the
    residual cancel near one of the swept sizes, that slope reads low even
    for a sound hedge; the residual scaled by s^-p then still stays bounded
    as s shrinks, whereas a genuine lower-order leak makes it grow by 2 or
    more per halving.
    """
    if order >= p - ORDER_SLACK:
        return True
    scaled = [r / s**p for s, r in scaling]
    return scaled[-1] <= 1.5 * max(scaled[:-1])


@dataclass
class AuditInput:
    k: int
    curve: object
    bonds: list  # four hedge bonds sorted by maturity
    target: object
    amount: float
    level: object
    twist: object


class AuditWorkload:
    """One seeded random instrument set, hedged four ways and audited.

    Drawn as in acceptance criterion 2: four hedge bonds with mixed coupon
    frequencies and a target strictly inside their span, on a curve whose
    knots cover every maturity.
    """

    name = "audit"
    POOL = 16
    op_size = (f"4 plans, 4 solver cross-checks and {len(MIN_ORDER)} residual_scaling sweeps "
               f"of {AUDIT_STEPS} scenarios ({len(MIN_ORDER) * AUDIT_STEPS} scenarios) per set")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        cfg = ch.SynthConfig(days=self.POOL * 5, tenors=AUDIT_TENORS,
                             seed=_child_seed(self.seed, 2))
        curves, _ = ch.generate_history(cfg)
        path = self.workdir / "curves.csv"
        ch.write_curve_csv(curves, path)
        self.curves = ch.parse_curve_csv(path)[::5]

    def inputs(self, k: int) -> AuditInput:
        rng = _rng(self.seed, 3, k)
        while True:
            mats = np.sort(rng.uniform(1.0, 12.0, size=4))
            if float(np.min(np.diff(mats))) < 0.8:
                continue
            bonds = [
                ch.Bond(f"H{i}", 100.0, float(rng.uniform(0.01, 0.06)),
                        int(rng.choice((1, 2))), float(m))
                for i, m in enumerate(mats)
            ]
            t = float(rng.uniform(mats[0] + 0.3, mats[3] - 0.3))
            if min(abs(t - m) for m in mats[1:3]) < 0.15:
                continue  # keep the target off the inner nodes
            target = ch.Bond("T", 100.0, float(rng.uniform(0.01, 0.06)), 1, t)
            amount = float(rng.uniform(10.0, 200.0))
            a, c = rng.choice((-1.0, 1.0), size=2) * rng.uniform((1e-3, 0.5), (3e-3, 1.5))
            level = ch.ShockSpec.parametric(a=float(a))
            twist = ch.ShockSpec.parametric(c=float(c))
            return AuditInput(k, self.curves[k % self.POOL], bonds, target, amount, level, twist)

    def steps(self, x: AuditInput):
        return [lambda: self.op(x)]

    def op(self, x: AuditInput):
        curve = x.curve
        snaps = [ch.snapshot(b, curve) for b in x.bonds]
        target = ch.snapshot(x.target, curve, amount=x.amount)
        s0, s1, s2, s3 = snaps
        plans = {
            "duration": ch.duration_hedge(target, s2),
            "quadratic": ch.quadratic_hedge(target, s0, s3),
            "convexity": ch.convexity_hedge(target, s1, s2),
            "cubic": ch.cubic_hedge(target, s0, s1, s3),
        }
        solved = {}
        for name, (idx, constraints) in AUDIT_PLANS.items():
            solved[name] = ch.solve_constraint_hedge(target, [snaps[i] for i in idx], constraints)
        universe = {b.id: b for b in x.bonds}
        universe[x.target.id] = x.target
        orders = {}
        for (name, family) in MIN_ORDER:
            shock = x.level if family == "level" else x.twist
            scaling = ch.residual_scaling(plans[name], universe, curve, shock, steps=AUDIT_STEPS)
            orders[(name, family)] = (ch.estimate_order(scaling), scaling)
        return {"target": target, "snaps": snaps, "plans": plans, "solved": solved,
                "orders": orders, "universe": universe}

    def check(self, x: AuditInput, r) -> list[str]:
        errors = []
        target, plans = r["target"], r["plans"]
        by_id = {s.id: s for s in r["snaps"]}
        npd = abs(target.amount * target.price * target.modified_duration)
        for name, plan in plans.items():
            closed = plan.amounts()
            solved = r["solved"][name].amounts()
            for leg_id, want in closed.items():
                # a leg near zero comes out of a cancellation; measure it against
                # the amount that would offset the target's whole dollar duration
                leg = by_id[leg_id]
                full = npd / (leg.price * leg.modified_duration)
                if not _close(solved[leg_id], want, 1e-12, full):
                    errors.append(f"{name} {leg_id}: closed form {want} vs solver {solved[leg_id]}")
            for con, stored in plan.constraints:
                weight = _WEIGHTS[con]
                total = target.amount * target.price * weight(target)
                for leg in plan.legs:
                    total += leg.amount * by_id[leg.id].price * weight(by_id[leg.id])
                if abs(total) > 1e-9 * npd or abs(stored) > 1e-9 * npd:
                    errors.append(f"{name} {con}: achieved {total}, stored {stored}")
        for (name, family), (order, scaling) in r["orders"].items():
            if not _has_order(order, scaling, MIN_ORDER[(name, family)]):
                errors.append(f"{name} under {family}: residual order {order:.3f}, {scaling}")
        errors += self._check_pnl(x, r)
        return errors

    def _check_pnl(self, x: AuditInput, r) -> list[str]:
        """per_instrument_pnl of a full-size level shock against the reference pricer.

        A level shock moves every knot by exactly `a` whatever segment is
        fitted, so the shocked curve is known without the program's fit.
        """
        curve = x.curve
        tenors, rates = list(curve.tenors), list(curve.rates)
        shocked = [v + x.level.a for v in rates]
        errors = []
        for name, plan in r["plans"].items():
            result = ch.run_scenario(plan, r["universe"], curve, x.level)
            for bond_id, pnl in result.per_instrument_pnl:
                bond = r["universe"][bond_id]
                amount = plan.target_amount if bond_id == plan.target_id else plan.amounts()[bond_id]
                want = amount * (refprice.curve_price(bond, tenors, shocked)
                                 - refprice.curve_price(bond, tenors, rates))
                if not _close(pnl, want, 1e-9, abs(amount)):
                    errors.append(f"{name} {bond_id}: P&L {pnl} vs reference {want}")
        return errors


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

FILES_DAYS = 2500
FILES_WINDOW = 60
SYNTH_START = dt.date(2024, 1, 2)


def _weekdays(start: dt.date, n: int) -> list[dt.date]:
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


@dataclass
class FilesInput:
    k: int
    synth_seed: int
    date: dt.date
    window: tuple[dt.date, dt.date]
    shock: str
    argv: list = field(default_factory=list)


class FilesWorkload:
    """One CLI session, in-process through curvehedge.cli.main.

    synth of a 2500-day history, stats --diff, analyze, hedge for each
    strategy, scenario --sweep 4, and a backtest over a 60-day window of the
    file chosen by start/end in the config. Every subcommand reads its
    inputs from the files earlier ones wrote.
    """

    name = "files"
    op_size = (f"{FILES_DAYS} rows written and parsed 8 times; 9 CLI calls; "
               f"{FILES_WINDOW}-day backtest window")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.dates = _weekdays(SYNTH_START, FILES_DAYS)

    def prepare(self) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)

    def inputs(self, k: int) -> FilesInput:
        rng = _rng(self.seed, 4, k)
        lo = int(rng.integers(0, FILES_DAYS - FILES_WINDOW))
        date = self.dates[int(rng.integers(0, FILES_DAYS))]
        a, b, c = rng.uniform(-0.002, 0.002), rng.uniform(-0.1, 0.1), rng.uniform(-1.0, 1.0)
        w = self.workdir
        x = FilesInput(k, _child_seed(self.seed, 5, k), date,
                       (self.dates[lo], self.dates[lo + FILES_WINDOW - 1]),
                       f"a={a:.6g},b={b:.6g},c={c:.6g}")
        (w / "config.json").write_text(json.dumps({
            "target": {"id": TARGET_ID, "amount": TARGET_AMOUNT},
            "instruments": {k_: list(v) for k_, v in DEMO_INSTRUMENTS.items()},
            "rebalance_days": 1,
            "net_carry": True,
            "start": x.window[0].isoformat(),
            "end": x.window[1].isoformat(),
        }))
        hist, bonds, day = str(w / "hist.csv"), str(w / "bonds.json"), date.isoformat()
        x.argv = [
            ["synth", "--days", str(FILES_DAYS), "--seed", str(x.synth_seed),
             "--out", hist, "--bonds-out", bonds],
            ["stats", "--history", hist, "--diff", "--out", str(w / "corr_diff.csv")],
            ["analyze", "--bonds", bonds, "--curve", hist, "--date", day,
             "--out", str(w / "analyze.txt")],
            *[["hedge", "--strategy", s, "--target", TARGET_ID, "--instruments", ",".join(ids),
               "--bonds", bonds, "--curve", hist, "--date", day, "--out", str(w / f"plan_{s}.json")]
              for s, ids in DEMO_INSTRUMENTS.items()],
            ["scenario", "--plan", str(w / "plan_cubic.json"), "--bonds", bonds, "--curve", hist,
             "--date", day, "--shock", x.shock, "--sweep", "4", "--out", str(w / "scenario.jsonl")],
            ["backtest", "--history", hist, "--bonds", bonds, "--config", str(w / "config.json"),
             "--out", str(w / "report")],
        ]
        return x

    def _cli(self, argv: list[str]) -> Path:
        code = ch.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"curvehedge {argv[0]} exited with {code}")
        return self.workdir

    def steps(self, x: FilesInput):
        return [lambda argv=argv: self._cli(argv) for argv in x.argv]

    def op(self, x: FilesInput):
        for step in self.steps(x):
            out = step()
        return out

    def _outputs(self) -> dict[str, bytes]:
        return {str(p.relative_to(self.workdir)): p.read_bytes()
                for p in sorted(self.workdir.rglob("*")) if p.is_file()}

    def check(self, x: FilesInput, workdir: Path) -> list[str]:
        errors = []
        files = self._outputs()
        dates, rates, tenors = _read_history(files["hist.csv"])
        curves, _ = ch.generate_history(ch.SynthConfig(days=FILES_DAYS, seed=x.synth_seed))
        if dates != [c.date for c in curves]:
            errors.append("hist.csv dates differ from the generated history")
        original = np.array([c.rates for c in curves])
        if not np.all(np.abs(rates - original) <= 5e-10 * np.abs(original)):
            errors.append("hist.csv does not round-trip the history to 10 significant digits")

        errors += _check_corr("corr_diff.csv", files["corr_diff.csv"], np.diff(rates, axis=0))
        lo, hi = dates.index(x.window[0]), dates.index(x.window[1])
        errors += _check_corr("report/correlations.csv", files["report/correlations.csv"],
                              rates[lo:hi + 1])

        bond = {b["id"]: _JsonBond(**b) for b in json.loads(files["bonds.json"])}[TARGET_ID]
        window = [_Curve(d, tenors, list(r)) for d, r in zip(dates[lo:hi + 1], rates[lo:hi + 1])]
        want = _reference_unhedged(bond, window, net=True)
        got = _read_pnl(files["report/pnl_unhedged.csv"])
        errors += _compare_series("pnl_unhedged.csv", got, want, scale=1.0, rel=1e-9)

        for s in STRATEGY_NAMES:
            plan = json.loads(files[f"plan_{s}.json"])
            if any(abs(c["value"]) > 1e-6 for c in plan["constraints"]):
                errors.append(f"plan_{s}.json: constraints not zeroed: {plan['constraints']}")
        if len(files["scenario.jsonl"].splitlines()) != 4:
            errors.append("scenario.jsonl does not hold 4 sweep lines")
        return errors


@dataclass
class _JsonBond:
    id: str
    face: float
    coupon_rate: float
    coupon_frequency: int
    maturity: float


@dataclass
class _Curve:
    date: dt.date
    tenors: list
    rates: list


def _data_lines(blob: bytes) -> list[str]:
    return [ln for ln in blob.decode().splitlines() if ln and not ln.startswith("#")]


def _read_history(blob: bytes):
    lines = _data_lines(blob)
    tenors = [float(h[len("tenor_"):]) for h in lines[0].split(",")[1:]]
    dates, rows = [], []
    for ln in lines[1:]:
        head, *vals = ln.split(",")
        dates.append(dt.date.fromisoformat(head))
        rows.append([float(v) for v in vals])
    return dates, np.array(rows), tenors


def _read_pnl(blob: bytes) -> list[float]:
    return [float(ln.split(",")[1]) for ln in _data_lines(blob)[1:]]


def _check_corr(label: str, blob: bytes, data: np.ndarray) -> list[str]:
    got = np.array([[float(v) for v in ln.split(",")[1:]] for ln in _data_lines(blob)[1:]])
    want = np.corrcoef(data, rowvar=False)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= 1e-9):
        return [f"{label}: does not match numpy.corrcoef of the parsed rates"]
    return []


WORKLOADS = {w.name: w for w in (BacktestWorkload, AuditWorkload, FilesWorkload)}
