"""divmatch benchmark: one workload, one seed, one closed-loop run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2-sweep --seed 7 --seconds 25 \
        --trace 0

--trace 0 prints the end-to-end metrics named in BENCHMARK.json;
--trace 1 prints its per-layer metrics, measured in a second visit of
each instance with divmatch's public functions wrapped in spans.  The
last line of standard output is the result object; the line before it
holds the full report (environment, output digest, failures, and the
metrics that only some workloads have).

Every measurement happens in a fresh child process (worker.py) that
imports divmatch from the checkout's src/ with BLAS capped at one
thread, so the oracle's matrix products stay on one of the machine's
cores and peak memory is the workload's own.  Set-up time is the median
of SETUP_REPEATS fresh processes that each import divmatch and generate
the workload.  Every time and rate is scaled to reference speed, by a
fixed kernel timed in the same process (reference.py); the report line
also holds the unscaled wall figures.  The run fails, printing no result, when the checkout has
no divmatch sources or any child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its last-line JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--src", str(SRC)]
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} failed with code "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "divmatch" / "__init__.py").is_file():
        raise SystemExit(f"no divmatch sources under {SRC}")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [] if args.trace else [
            _run_worker(["probe", *common], deadline)
            for _ in range(SETUP_REPEATS)]
        result = _run_worker(["measure", *common, "--seconds",
                              str(args.seconds), "--trace", str(args.trace)],
                             deadline)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"no result within {TIME_LIMIT_S} s")

    measured = dict(result["e2e"])
    if probes:
        measured["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        result["wall_e2e"]["setup_s"] = statistics.median(
            p["wall_setup_s"] for p in probes)
    if args.trace:
        measured.update(result["layers"])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise SystemExit(f"workload {args.workload} reported no {missing}")

    report = {k: v for k, v in result.items() if k not in ("e2e", "layers")}
    report.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_probes=probes, metrics=measured)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
