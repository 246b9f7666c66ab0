"""PHAST benchmark: one seeded workload, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once with spans around every call into the program and a
replay of its inputs through each layer, and prints the per-layer
metrics.  The last line of output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; any wrong answer
makes the exit code non-zero.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile

ROOT = os.getcwd()
WORKBASE = os.path.join(ROOT, ".perfbench_work")


def _parse(argv):
    from harness.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _environment(seed: int, wl, phases, loadavg: float) -> dict:
    import numpy as np

    from repro.utils.native import native_available

    return {
        "seed": seed,
        "n": int(wl.graph.n),
        "m": int(wl.graph.m),
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_kernel": native_available(),
        "steal_share": {p.name: round(p.steal_share, 4) for p in phases},
    }


def _measure(args, wl):
    """Set up (several times), run the phases, score them."""
    from harness import speed
    from harness.procstat import CLK_TCK, read_cpu_line
    from harness.workloads import SETUP_PROBES, SETUP_REPS

    # (wall s, stolen s, host slowdown) per set-up; the slowdown is
    # sampled just before and just after it.
    setups: list[tuple[float, float, float]] = []
    try:
        for rep in range(1 if args.trace else SETUP_REPS):
            if rep:
                wl.teardown()
            probes = speed.sample(SETUP_PROBES)
            steal0 = read_cpu_line()["steal"]
            wall = wl.setup_once()
            stolen = (read_cpu_line()["steal"] - steal0) / CLK_TCK
            probes += speed.sample(SETUP_PROBES)
            setups.append((wall, stolen, speed.slowdown(probes)))
        wl.prepare()
        if args.trace:
            from harness.layers import PER_LAYER_UNITS, traced_run

            return traced_run(wl, args.seconds) + (PER_LAYER_UNITS,)
        from harness.score import UNITS, end_to_end

        phases = wl.phases(args.seconds)
        metrics, scoring = end_to_end(wl, setups, phases)
        wl.extras.update(scoring)
        return phases, metrics, UNITS
    finally:
        wl.teardown()


def main(argv=None) -> int:
    loadavg = os.getloadavg()[0]
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = _parse(argv)
    from harness.procs import stop_children
    from harness.tracing import Tracer
    from harness.workloads import WORKLOADS, fresh_workdir

    # A SIGTERM unwinds through the finally blocks that stop the
    # program's processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = fresh_workdir(WORKBASE, args.workload, args.seed)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    wl = WORKLOADS[args.workload](args.seed, workdir, ROOT,
                                  Tracer(enabled=bool(args.trace)))
    try:
        phases, metrics, units = _measure(args, wl)
        env = _environment(args.seed, wl, phases, loadavg)
        wl.check_phases(phases)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(wl.setup_answers) + sum(p.result.sent for p in phases)
    failed = wl.wrong + sum(p.result.failed for p in phases)
    if hasattr(wl, "swap_failures"):
        attempted += len(wl.swaps) + wl.swap_failures
        failed += wl.swap_failures
    wl.extras.update(checked=wl.checked, wrong=wl.wrong,
                     fail_share=failed / attempted)
    for name, value in metrics.items():
        print(f"{name:34s} {value:>14.6g} {units[name]}")
    print(json.dumps({"env": env, "extras": wl.extras}, default=float))
    correct = wl.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
