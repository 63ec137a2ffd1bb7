"""simpop benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload desk --seed 2 --seconds 15 --trace 0

Runs set-up and then exactly one measured round of ingest, train, evaluate
and serving requests, checks every output against an independent
recomputation, and prints one JSON object as the last line of standard
output. With ``--trace 0`` it holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics from spans recorded around simpop's
public functions. ``--seconds`` is the least time a run should measure; a
run that measures less says so. See perfbench/README.md.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "work"


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import simpop from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "simpop" / "__init__.py").is_file():
        sys.exit(f"error: no simpop sources under {src}")
    sys.path.insert(0, str(src))
    import simpop

    if Path(simpop.__file__).resolve().parent != (src / "simpop").resolve():
        sys.exit(f"error: simpop imported from {simpop.__file__}, not {src}")


def hygiene() -> list[str]:
    """The run started no process and holds no more threads than cores."""
    problems = []
    tasks = os.listdir("/proc/self/task")
    cores = os.cpu_count() or 1
    if len(tasks) > cores:
        problems.append(f"{len(tasks)} threads on {cores} cores")
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as stream:
                children = stream.read().strip()
        except OSError:  # kernels built without the children file
            children = ""
        if children:
            problems.append("a child process is still running")
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} Python threads")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import layers
    from selftest import selftest
    from tracer import Tracer
    from workloads import WORKLOADS, Run, peak_rss_mb

    spec = WORKLOADS[args.workload]
    work = WORK / args.workload
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run = Run(spec, args.seed, work, tracer)
    measured = run.run()
    peak = peak_rss_mb()
    if tracer:
        tracer.uninstall()

    started = time.perf_counter()
    problems = run.check()
    checked = time.perf_counter()
    problems += selftest(run) + hygiene()
    print(
        f"measured {measured:.1f}s, checks {checked - started:.1f}s, "
        f"checker self-test {time.perf_counter() - checked:.1f}s"
    )
    if measured < args.seconds:
        print(f"note: one round measured {measured:.1f}s, less than --seconds {args.seconds:g}")
    print("replayed traffic: " + ", ".join(f"{k}={v:.4g}" for k, v in run.traffic.items()))
    print(run.serving_summary())
    for line in run.failures:
        print(f"failed operation: {line}")
    for line in problems:
        print(f"check failed: {line}")

    if tracer:
        metrics = layers.per_layer(run, tracer)
        layers.summary(run, tracer, metrics)
    else:
        metrics = run.end_to_end(peak)
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
