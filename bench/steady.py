"""Steadiness check: two sets of runs of the same code.

    python3 bench/steady.py

Run from the repository root. For every workload in BENCHMARK.json it runs
bench/run.py --trace 0 for BENCHMARK.json's run_seconds, ten times with
seeds 1..10 (set A) and again with seeds 11..20 (set B), one run at a time.
For every end-to-end metric it prints each set's median and quartiles, the
spread (interquartile range over median), the signed change of set B's
median against set A's (positive when B is worse) and whether the two
medians agree: differ by at most the metric's bound, in either direction.
Every spread but setup_s's must also stay within the bound. It also prints
whether the failed share of operations is identical in the two sets. Exit
code 1 if any check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10


def _run(command, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    command = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
               *spec["command"][1:]]

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for first in (1, RUNS + 1):
            results = [_run(command, workload, seed, seconds)
                       for seed in range(first, first + RUNS)]
            sets.append(results)
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        print(f"== {workload}: {RUNS} runs per set, {seconds} s each; "
              f"all correct: {correct}; failed share A {shares[0]:.6g} B {shares[1]:.6g}")
        ok &= correct and shares[0] == shares[1]
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            stats = [_quartiles([r["metrics"][name]["value"] for r in s]) for s in sets]
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            a, b = stats[0][1], stats[1][1]
            worse = (b - a) / a if lower else (a - b) / a
            agree = abs(worse) <= bound
            steady = name == "setup_s" or max(spreads) <= bound
            ok &= agree and steady
            print(f"  {name:<12} {metric['unit']:<4} bound {bound:<5g} "
                  + "  ".join(f"{tag}: q1 {q1:.5g} med {med:.5g} q3 {q3:.5g} spread {sp:.3f}"
                              for tag, (q1, med, q3), sp in zip("AB", stats, spreads))
                  + f"  B worse by {worse:+.3f}: {'agree' if agree else 'DISAGREE'}"
                  + ("" if steady else "  SPREAD OVER BOUND"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
