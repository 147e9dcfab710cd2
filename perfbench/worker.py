"""Child process of run.py: one set-up probe or one measured run.

Usage (run.py sets PYTHONPATH to the checkout's src/ and caps BLAS at
one thread before starting this):

    python3 perfbench/worker.py probe   --workload W --seed S
    python3 perfbench/worker.py measure --workload W --seed S \
        --seconds T --trace 0|1

Each prints one JSON object as its last line.  A probe times a fresh
import of divmatch plus generation of the workload's instances, then
the reference kernel, and scales the set-up time to reference speed.  A
measured run generates the instances and hands them to the harness.
Nothing is imported at module level, so a probe's clock starts before
numpy and divmatch load.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

GEN_REPEATS = 3
# kernel timings after each set-up probe, to scale it to reference speed
PROBE_KERNEL_REPEATS = 25


def _check_source(src: Path) -> None:
    """Refuse to measure any divmatch other than the checkout's own."""
    import divmatch
    where = Path(divmatch.__file__).resolve()
    if src.resolve() not in where.parents:
        sys.exit(f"divmatch imported from {where}, not from {src}")


def _environment() -> dict:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def probe(args, src: Path) -> dict:
    start = time.perf_counter()
    import workloads
    cases = workloads.WORKLOADS[args.workload].generate(args.seed)
    setup_s = time.perf_counter() - start
    _check_source(src)
    import reference
    kernel_s = statistics.median(reference.time_kernel()[0]
                                 for _ in range(PROBE_KERNEL_REPEATS))
    return {"setup_s": setup_s * reference.REFERENCE_S / kernel_s,
            "wall_setup_s": setup_s, "kernel_s": kernel_s,
            "instances": len(cases)}


def measure(args, src: Path) -> dict:
    import harness
    import workloads
    from reference import to_reference
    from tracing import Tracer
    _check_source(src)
    wl = workloads.WORKLOADS[args.workload]
    out = {}
    if args.trace:
        tracer = Tracer()
        gen = []
        for _ in range(GEN_REPEATS):
            with tracer.span("bench.gen") as span:
                cases = wl.generate(args.seed)
            gen.append(span.duration)
        gen_s = statistics.median(gen)
    else:
        cases = wl.generate(args.seed)
    out.update(harness.measure(wl, cases, args.seconds, bool(args.trace)))
    if args.trace:
        layers = harness.per_layer(out.pop("raw_layers"), gen_s,
                                   out["trace_overhead"])
        out["wall_layers"] = layers
        out["layers"] = to_reference(layers, out["reference"]["scale"])
    # ru_maxrss is in KiB on Linux
    out["e2e"]["peak_rss_mb"] = out["wall_e2e"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    out["environment"] = _environment()
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args()
    result = (probe if args.mode == "probe" else measure)(args, args.src)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
