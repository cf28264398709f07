"""One cold set-up of a workload, timed from before `import curvehedge`.

    python3 bench/coldsetup.py WORKLOAD SEED WORKDIR

Run from the repository root, in a fresh process. It imports the program
from ./src, makes the workload's inputs through the program's own synth/io
and runs the warm-up op, then prints one JSON line: the raw and
host-corrected set-up time, the calibration median of the samples taken
right after it, and a digest of the files the set-up left in WORKDIR.
WORKDIR is deleted at exit. bench/run.py starts this several times before
its own set-up, one process at a time, so every repetition of the set-up
pays the program's cold costs (imports, first-use work) and none can reuse
what another memoized.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# the run writes nothing outside bench/_work and bench/results
sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
# kernel samples taken right after a set-up
CAL_BATCH = 10


def program_src(root: Path) -> Path:
    src = root / "src"
    if not (src / "curvehedge" / "__init__.py").is_file():
        raise SystemExit(f"error: no curvehedge sources under {src}; run from the repository root")
    return src


def setup(root: Path, name: str, seed: int, workdir: Path):
    """Import the program and the workloads, prepare, run op 0.

    Returns (workload, x, r, t0, elapsed); the caller must not have
    imported curvehedge or numpy before, or their import is not counted.
    """
    src = program_src(root)
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    module = importlib.import_module("curvehedge")
    if Path(module.__file__).resolve().parent != (src / "curvehedge").resolve():
        raise SystemExit(f"error: imported curvehedge from {module.__file__}, not from {src}")
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.prepare()
    x = workload.inputs(0)
    r = workload.op(x)
    return workload, x, r, t0, time.perf_counter() - t0


def fingerprint(workdir: Path) -> str:
    """sha256 over the relative names and bytes of every file in workdir."""
    h = hashlib.sha256()
    for p in sorted(workdir.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(workdir)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    name, seed, workdir = argv if argv is not None else sys.argv[1:]
    workdir = Path(workdir)
    try:
        _, _, _, t0, elapsed = setup(Path.cwd(), name, int(seed), workdir)
        digest = fingerprint(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import calibrate

    cal = calibrate.Calibration()
    cal.take(CAL_BATCH)
    print(json.dumps({"setup_raw_s": elapsed, "setup_s": cal.correct(t0, elapsed),
                      "c_s": cal.median(), "outputs_sha256": digest}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
