#!/usr/bin/env python3
"""Benchmark for rarc: whole-file pipelines through the CLI and single-stripe
repair cycles through the cluster simulator.

Run from the root of a source checkout; rarc is imported from ``src/``:

    python3 bench/run.py --workload file_gf256 --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload cluster_stripes --seed 1 --seconds 38 --trace 1
    python3 bench/run.py --workload file_prime --seed 1 --seconds 1 --trace 0 --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` wraps the program's public functions
with timing shims (see ``shims.py``) and gives the per-layer metrics.
``--smoke`` runs one round at tiny sizes with every check on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _import_workloads():
    """Import rarc from this checkout's ``src/`` and the workload module."""
    if not (SRC / "rarc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no rarc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import rarc
    import workloads

    if Path(rarc.__file__).resolve().parent != SRC / "rarc":
        raise SystemExit(f"bench: imported rarc from {rarc.__file__}, not from {SRC}")
    return workloads


def _make_workload(args, workloads):
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)


def setup_probe(args) -> None:
    """Time one set-up in this fresh process: import, inputs, code builds."""
    start = time.perf_counter()
    workloads = _import_workloads()
    wl = _make_workload(args, workloads)
    try:
        wl.setup()
        print(json.dumps({"setup_s": time.perf_counter() - start}))
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)


def measure_setup(args) -> float:
    """Median set-up time over fresh interpreter processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["file_gf256", "file_prime", "cluster_stripes"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one round at tiny sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args)
        return 0

    workloads = _import_workloads()
    setup_s = None if args.trace else measure_setup(args)
    tracer = None
    if args.trace:
        from shims import Tracer

        tracer = Tracer().install()
    wl = _make_workload(args, workloads)
    try:
        wl.setup()
        start = time.perf_counter()
        round_s = []
        while True:
            t0 = time.perf_counter()
            wl.round()
            round_s.append(time.perf_counter() - t0)
            if args.smoke:
                break
            # start another round only if, on average, it ends within half a round of the budget
            if time.perf_counter() - start + statistics.mean(round_s) / 2 >= args.seconds:
                break
    except workloads.HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)

    if tracer is not None:
        metrics = tracer.metrics(len(round_s))
    else:
        metrics = {"setup_s": (setup_s, "s")}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        metrics.update(wl.end_to_end())
    for err in wl.errors:
        print(f"bench: check failed: {err}", file=sys.stderr)
    print(
        f"bench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"rounds={len(round_s)} round_s_median={statistics.median(round_s):.4f} "
        f"measured_s={sum(round_s):.3f}",
        file=sys.stderr,
    )
    result = {
        "correct": not wl.errors,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
