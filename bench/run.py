"""curvehedge benchmark: one workload per run, host-speed corrected.

    python3 bench/run.py --workload {backtest,audit,files} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
peak_rss_mb). With --trace 1 the run alternates untraced and traced ops
and reports the per-layer metrics of the traced ones, plus the tracing
overhead against the untraced ones. The line before it ("detail: {...}")
carries the raw wall times and the calibration median c, so the host-speed
correction can be undone; the same detail is written to
bench/results/<workload>-s<seed>-t<trace>.json.

Every interval t is reported as t * C0 / c, where c is the median time of
the calibration kernel (bench/calibrate.py) over the samples taken around
that interval, between ops, and C0 is the kernel's fixed reference time.
ops_per_s is one over the median corrected op time. setup_s is the median
of SETUP_REPS cold set-ups, each in a fresh process (bench/coldsetup.py),
the last of them this run's own. The checks run in a forked child after
each op, so their memory never counts in peak_rss_mb.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import coldsetup  # sets the thread counts and turns bytecode writing off
from coldsetup import BENCH_DIR, CAL_BATCH

# cold set-ups per run: SETUP_REPS - 1 child processes, then the run's own
SETUP_REPS = 5
# share of the timed ops' duration spent sampling the calibration kernel
CAL_SHARE = 0.1
# kernel samples taken between the steps of a multi-step op
STEP_SAMPLES = 2


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("backtest", "audit", "files"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_setup(root: Path, name: str, seed: int, workdir: Path) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "coldsetup.py"), name, str(seed), str(workdir)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=root, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _per_layer(tracer, n: int, f: float) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from a tracer that saw n ops; f = C0 / c."""

    def calls(layer, name):
        return tracer.stat(layer, name).calls / n, "count"

    def mean_us(stat):
        return (stat.self_s / stat.calls * 1e6 * f if stat.calls else 0.0), "us"

    def self_ms(layer):
        return tracer.layer_self_s(layer) / n * 1e3 * f, "ms"

    parse = tracer.stat("io", "parse_curve_csv")
    rows = tracer.extra["csv_rows"]
    plan = tracer.plan_stat()
    return {
        "bonds.price.calls": calls("bonds", "price"),
        "bonds.price.us": mean_us(tracer.stat("bonds", "price")),
        "bonds.analytics.calls": calls("bonds", "analytics"),
        "bonds.analytics.us": mean_us(tracer.stat("bonds", "analytics")),
        "bonds.cashflows.calls": calls("bonds", "cashflows"),
        "bonds.self_ms": self_ms("bonds"),
        "curve.spot.calls": calls("curve", "spot"),
        "curve.spot.us": mean_us(tracer.stat("curve", "spot")),
        "curve.fit_segment.calls": calls("curve", "fit_segment"),
        "curve.apply_shock.calls": calls("curve", "apply_shock"),
        "curve.apply_shock.us": mean_us(tracer.stat("curve", "apply_shock")),
        "curve.self_ms": self_ms("curve"),
        "hedging.snapshot.calls": calls("hedging", "snapshot"),
        "hedging.plan.calls": (plan.calls / n, "count"),
        "hedging.plan.us": mean_us(plan),
        "hedging.self_ms": self_ms("hedging"),
        "scenario.run_scenario.calls": calls("scenario", "run_scenario"),
        "scenario.run_scenario.us": mean_us(tracer.stat("scenario", "run_scenario")),
        "scenario.self_ms": self_ms("scenario"),
        "backtest.run_backtest.calls": calls("backtest", "run_backtest"),
        "backtest.self_ms": self_ms("backtest"),
        "synth.generate_history.days": (tracer.extra["synth_days"] / n, "days"),
        "synth.self_ms": self_ms("synth"),
        "io.parse_curve_csv.rows_per_s": (rows / (parse.self_s * f) if rows else 0.0, "1/s"),
        "io.bytes_read": (tracer.extra["bytes_read"] / n, "bytes"),
        "io.bytes_written": (tracer.extra["bytes_written"] / n, "bytes"),
        "io.self_ms": self_ms("io"),
        "cli.main.calls": calls("cli", "main"),
        "cli.self_ms": self_ms("cli"),
    }


def _check(workload, x, r) -> list[str]:
    """workload.check(x, r) in a forked child, so its memory is not the run's."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            try:
                errors = workload.check(x, r)
            except Exception as exc:  # an output the checker cannot even read is wrong
                errors = [f"op {x.k}: check raised {type(exc).__name__}: {exc}"]
            with os.fdopen(wfd, "w") as out:
                json.dump(errors, out)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as pipe:
        verdict = pipe.read()
    os.waitpid(pid, 0)
    return json.loads(verdict) if verdict else [f"op {x.k}: check ended without a verdict"]


def run(args, root: Path) -> dict:
    clock = time.perf_counter
    coldsetup.program_src(root)
    # every set-up uses the same workdir, so their files are comparable byte for byte
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    errors: list[str] = []
    try:
        # a traced run reports no setup_s
        children = [_child_setup(root, args.workload, args.seed, workdir)
                    for _ in range(0 if args.trace else SETUP_REPS - 1)]
        workload, x, r, t_start, t_setup = coldsetup.setup(root, args.workload, args.seed, workdir)
        outputs_sha256 = coldsetup.fingerprint(workdir)

        import calibrate
        from layertrace import Tracer

        cal = calibrate.Calibration()
        cal.take(CAL_BATCH)
        errors += _check(workload, x, r)
        if any(c["outputs_sha256"] != outputs_sha256 for c in children):
            errors.append("cold set-ups with the same seed left different bytes")

        tracer = Tracer() if args.trace else None
        ops: list[tuple[list, bool]] = []  # ([(start, elapsed) per step], traced)
        busy = 0.0
        failed = 0
        k = 1
        start = clock()
        # with tracing, odd ops run untraced and even ops traced: stop after an even op
        while clock() - start < args.seconds or k < 3 or (tracer and k % 2 == 0):
            x = workload.inputs(k)
            on = tracer is not None and k % 2 == 0
            parts: list[tuple[float, float]] = []
            gc.collect()
            if on:
                tracer.install()
            try:
                for step in workload.steps(x):
                    if parts:
                        cal.take(STEP_SAMPLES)
                    t0 = clock()
                    try:
                        r = step()
                    finally:
                        parts.append((t0, clock() - t0))
            except Exception as exc:  # a failing op is counted, the run goes on
                failed += 1
                errors.append(f"op {k} failed: {type(exc).__name__}: {exc}")
                r = None
            finally:
                if on:
                    tracer.uninstall()
            busy += sum(dt for _, dt in parts)
            if r is not None:
                ops.append((parts, on))
                errors += _check(workload, x, r)
            cal.take()
            while cal.total < CAL_SHARE * busy:
                cal.take()
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = k - 1
    if not any(on for _, on in ops) and tracer or all(on for _, on in ops):
        raise SystemExit(f"error: every op failed: {errors[:3]}")
    setup_reps = [(c["setup_raw_s"], c["setup_s"]) for c in children]
    setup_reps.append((t_setup, cal.correct(t_start, t_setup)))
    plain = [sum(cal.correct(t0, dt) for t0, dt in parts) for parts, on in ops if not on]
    traced = [sum(cal.correct(t0, dt) for t0, dt in parts) for parts, on in ops if on]
    raw_plain = [sum(dt for _, dt in parts) for parts, on in ops if not on]
    raw_traced = [sum(dt for _, dt in parts) for parts, on in ops if on]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_size": workload.op_size,
        "c0_s": calibrate.C0,
        "c_median_s": cal.median(),
        "calibration_samples": len(cal.times),
        "setup_reps_raw_s": [raw for raw, _ in setup_reps],
        "setup_reps_c_s": [c["c_s"] for c in children] + [cal.local(t_start, t_start + t_setup)],
        "setup_raw_s": statistics.median(raw for raw, _ in setup_reps),
        "ops": len(plain),
        "op_raw_median_s": statistics.median(raw_plain),
        "op_raw_mean_s": sum(raw_plain) / len(raw_plain),
        "op_median_s": statistics.median(plain),
        "ops_per_s_raw": len(raw_plain) / sum(raw_plain),
        "check_errors": errors[:20],
    }
    metrics: dict[str, tuple[float, str]] = {}
    if tracer is None:
        metrics["setup_s"] = (statistics.median(s for _, s in setup_reps), "s")
        metrics["ops_per_s"] = (1.0 / statistics.median(plain), "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        untraced_ms = statistics.median(plain) * 1e3
        traced_ms = statistics.median(traced) * 1e3
        # layer times are scaled by the traced ops' own host correction
        f = sum(traced) / sum(raw_traced)
        metrics.update(_per_layer(tracer, len(traced), f))
        metrics["trace.untraced_op_ms"] = (untraced_ms, "ms")
        metrics["trace.op_ms"] = (traced_ms, "ms")
        metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
        detail["traced_ops"] = len(traced)
        detail["functions"] = tracer.table()
    detail["metrics"] = {name: v for name, (v, _) in metrics.items()}
    detail["timeline"] = {
        "ops": [([(t0 - t_start, dt) for t0, dt in parts], on) for parts, on in ops],
        "calibration": [(t - t_start, c) for t, c in zip(cal.at, cal.times)],
    }
    return {
        "detail": detail,
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    out = run(args, root)
    detail = out["detail"]
    for msg in detail["check_errors"]:
        print(f"check failed: {msg}", file=sys.stderr)
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (results / name).write_text(json.dumps({**detail, "result": out["result"]}, indent=1) + "\n")
    print("detail: " + json.dumps({k: v for k, v in detail.items()
                                   if k not in ("functions", "timeline")}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
