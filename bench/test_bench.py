"""Self-tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

from the repository root. They show that every checker rejects a
deliberately corrupted result, that the calibration kernel imports nothing
from curvehedge, and that the metrics bench/run.py prints are exactly the
ones BENCHMARK.json declares.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import coldsetup  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _fresh(cls, tmp_path):
    w = cls(7, tmp_path / cls.name)
    w.prepare()
    x = w.inputs(1)
    return w, x, w.op(x)


# ---------------------------------------------------------------------------
# checkers reject corrupted results
# ---------------------------------------------------------------------------

def test_backtest_checker(tmp_path):
    w, x, report = _fresh(workloads.BacktestWorkload, tmp_path)
    assert w.check(x, report) == []

    report.series["unhedged"].gross[17] += 1e-3
    assert any("unhedged gross" in e for e in w.check(x, report))
    report.series["unhedged"].gross[17] -= 1e-3

    stdev = report.summary["cubic"]
    report.summary["cubic"] = type(stdev)(stdev.mean, 10 * report.summary["quadratic"].stdev,
                                          stdev.max_drawdown, stdev.worst_day)
    assert any("risk ladder" in e for e in w.check(x, report))


def test_backtest_frozen_history_check(tmp_path, monkeypatch):
    w, x, _ = _fresh(workloads.BacktestWorkload, tmp_path)
    real = workloads.ch.run_backtest

    def leaky(history, universe, config):
        report = real(history, universe, config)
        report.series["cubic"].net[3] = 1e-9
        return report

    monkeypatch.setattr(workloads.ch, "run_backtest", leaky)
    assert any("frozen" in e for e in w._check_frozen(x.window[0]))


def test_audit_checker(tmp_path):
    w, x, r = _fresh(workloads.AuditWorkload, tmp_path)
    assert w.check(x, r) == []

    plan = r["plans"]["cubic"]
    legs = list(plan.legs)
    legs[1] = type(legs[1])(legs[1].id, legs[1].amount * (1 + 1e-6))
    r["plans"]["cubic"] = type(plan)(plan.strategy, plan.target_id, plan.target_amount,
                                     tuple(legs), plan.constraints)
    errors = w.check(x, r)
    assert any("closed form" in e for e in errors)
    assert any("achieved" in e for e in errors)
    r["plans"]["cubic"] = plan

    # a first-order leak: the residual halves with the shock instead of quartering
    leak = [(0.5**k, 1e-3 * 0.5**k) for k in range(workloads.AUDIT_STEPS)]
    r["orders"][("cubic", "twist")] = (workloads.ch.estimate_order(leak), leak)
    assert any("cubic under twist" in e for e in w.check(x, r))


def test_audit_pnl_check(tmp_path, monkeypatch):
    w, x, r = _fresh(workloads.AuditWorkload, tmp_path)
    real = workloads.ch.run_scenario

    def mispriced(*args, **kwargs):
        res = real(*args, **kwargs)
        per = list(res.per_instrument_pnl)
        per[0] = (per[0][0], per[0][1] * (1 + 1e-6))
        return type(res)(res.shock, res.unhedged_pnl, res.hedged_pnl, tuple(per))

    monkeypatch.setattr(workloads.ch, "run_scenario", mispriced)
    assert any("P&L" in e for e in w.check(x, r))


def test_audit_order_check_tolerates_cancelling_orders():
    # second and third order cancel near s = 1: slope reads low, hedge is sound
    sweep = [(0.5**k, abs(1e-4 * 0.5 ** (2 * k) - 1e-4 * 0.5 ** (3 * k))) for k in range(4)]
    sweep[0] = (1.0, 1e-12)
    assert workloads._has_order(workloads.ch.estimate_order(sweep), sweep, 2.0)
    leak = [(0.5**k, 1e-4 * 0.5**k) for k in range(4)]
    assert not workloads._has_order(workloads.ch.estimate_order(leak), leak, 2.0)


def _rewrite(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_files_checker(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "FILES_DAYS", 300)
    w, x, out = _fresh(workloads.FilesWorkload, tmp_path)
    assert w.check(x, out) == []

    pnl = out / "report" / "pnl_unhedged.csv"
    line = pnl.read_text().splitlines()[5]
    date, daily, cum = line.split(",")
    _rewrite(pnl, line, f"{date},{float(daily) + 1e-4:.10g},{cum}")
    assert any("pnl_unhedged.csv" in e for e in w.check(x, out))

    corr = out / "corr_diff.csv"
    row = corr.read_text().splitlines()[3]
    cells = row.split(",")
    cells[1] = f"{float(cells[1]) * 0.999:.10g}"
    _rewrite(corr, row, ",".join(cells))
    assert any("corr_diff.csv" in e for e in w.check(x, out))

    hist = out / "hist.csv"
    row = hist.read_text().splitlines()[10]
    cells = row.split(",")
    cells[3] = f"{float(cells[3]) * (1 + 1e-8):.10g}"
    _rewrite(hist, row, ",".join(cells))
    assert any("round-trip" in e for e in w.check(x, out))


def test_files_sessions_fingerprint(tmp_path, monkeypatch):
    # run.py compares the fingerprints its cold set-ups leave behind
    monkeypatch.setattr(workloads, "FILES_DAYS", 300)
    prints = []
    for _ in range(2):
        w = workloads.FilesWorkload(7, tmp_path / "files")
        w.prepare()
        out = w.op(w.inputs(0))
        prints.append(coldsetup.fingerprint(out))
    assert prints[0] == prints[1]
    (out / "analyze.txt").write_text((out / "analyze.txt").read_text() + " ")
    assert coldsetup.fingerprint(out) != prints[0]


class _Checked:
    def __init__(self, check):
        self.check = check


def test_forked_check_reports_errors_and_raises():
    x = workloads.BacktestInput(5, [])
    assert run._check(_Checked(lambda x, r: []), x, None) == []
    assert run._check(_Checked(lambda x, r: ["bad leg"]), x, None) == ["bad leg"]
    errors = run._check(_Checked(lambda x, r: 1 / 0), x, None)
    assert errors == ["op 5: check raised ZeroDivisionError: division by zero"]


# ---------------------------------------------------------------------------
# calibration kernel independence
# ---------------------------------------------------------------------------

def test_calibration_kernel_imports_nothing_from_curvehedge():
    tree = ast.parse((BENCH / "calibrate.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(m.split(".")[0] in ("curvehedge", "workloads", "refprice", "layertrace")
                   for m in imported), imported

    code = ("import sys; sys.path.insert(0, sys.argv[1]); import calibrate; calibrate.kernel(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'curvehedge'))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                         text=True, check=True, cwd=ROOT)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# printed metrics match BENCHMARK.json
# ---------------------------------------------------------------------------

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_printed_metrics_match_benchmark_json(workload, trace):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
