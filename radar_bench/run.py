"""Run one RADAR benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 radar_bench/run.py --workload rotation-trickle --seed 1 \\
        --seconds 20 --trace 0 [--out DIR]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Lines before it give the host fingerprint, a summary
of the host-speed probes, and every end-to-end metric as reported (scaled
to the reference host, see ``hostspeed.py``) and as measured, with its
unit and sample count.  Nothing is written to disk unless
``--out DIR`` is given; then the full report (``result.json``) and, in
traced mode, the spans (``spans.jsonl``, and ``pool_spans.jsonl`` for the
pool phase of ``sweep-storm``) go under ``DIR``.

Exit codes: 0 when every correctness check passed, 1 when one failed (the
result is still printed, with ``"correct": false``), 2 when the program
under test cannot be found or the arguments are wrong (nothing printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_fingerprint(seed: int) -> dict:
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "available_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def stop_children() -> None:
    """Stop and reap every process this run started.

    The pool's workers are joined when its engine closes; what is left is
    multiprocessing's resource tracker, which the first shared-memory plane
    starts and which would otherwise outlive this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.terminate()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    # One closed loop on one thread: multi-threaded BLAS in the models'
    # forward passes makes batch times swing with the host's other load.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from radar_bench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    host = host_fingerprint(args.seed)
    print(f"host: {json.dumps(host)}")
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}")
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()

    print(f"host speed: {json.dumps(result.host_speed)}")
    print(f"{'metric':<26} {'value':>14}  {'measured':>14}  {'unit':<10} samples")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<26} {value:>14.6g}  {result.measured[name][0]:>14.6g}  {unit:<10} {result.samples[name]}")
    print(f"counts: {json.dumps(result.counts)}")
    if args.trace:
        for line in result.trace_lines:
            print(line)
        for name, (value, unit) in result.per_layer.items():
            print(f"{name:<26} {value:>14.6g}  {unit}")
    declared = {item["name"]: item["unit"] for item in spec["per_layer" if args.trace else "end_to_end"]}
    reported = result.per_layer if args.trace else result.metrics
    result.check(
        {name: unit for name, (_, unit) in reported.items()} == declared,
        "measured metric names or units differ from BENCHMARK.json",
    )
    for message in result.failures:
        print(f"CHECK FAILED: {message}")
    payload = {
        "correct": not result.failures,
        "attempted": max(1, result.attempted),
        "failed": len(result.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()
        },
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        report = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host,
            "host_speed": result.host_speed,
            "samples": result.samples,
            "counts": result.counts,
            "failures": result.failures,
            "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in result.metrics.items()},
            "end_to_end_measured": {name: {"value": v, "unit": u} for name, (v, u) in result.measured.items()},
            "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in result.per_layer.items()},
        }
        (args.out / "result.json").write_text(json.dumps(report, indent=2) + "\n")
        for name, recorder in result.recorders.items():
            recorder.dump(str(args.out / f"{name}.jsonl"))
    print(json.dumps(payload))
    return 0 if not result.failures else 1


if __name__ == "__main__":
    sys.exit(main())
