"""Benchmark of the raldpc pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload reconcile --seed 1 --seconds 40 --trace 0

Runs one workload (see README.md) through ``raldpc.cli.main`` in this
process, on one thread, repeating its unit of work for about ``--seconds``.
Every output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (median unit wall time,
set-up time, peak RSS); with ``--trace 1`` the run alternates untraced and
traced units and reports the per-layer metrics of ``spans.py``.
The line before it is a JSON record of the host, the per-unit figures and
the output digests.  A traced run also writes its spans to
``.bench_out/trace-<workload>-seed<seed>.json``.

Exits 2 without a result when the checkout holds no ``src/raldpc``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SRC = ROOT / "src"
SETUP_REPEATS = 5
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_program() -> None:
    """Import raldpc from this checkout's sources, single-threaded."""
    for var in _THREAD_VARS:  # single thread, so never more than nproc
        os.environ[var] = "1"
    if not (SRC / "raldpc" / "__init__.py").is_file():
        print(f"run.py: no raldpc sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import raldpc.cli

    if Path(raldpc.cli.__file__).resolve().parent != SRC / "raldpc":
        print(f"run.py: imported raldpc from {raldpc.cli.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _start_times(repeats: int) -> list[float]:
    """Seconds for a fresh interpreter to start and import raldpc.cli.

    A process imports only once, so the start-up share of set-up is timed in
    child interpreters, one after another, each waited for.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import raldpc.cli"
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t)
    return times


def host() -> dict:
    import numpy as np

    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
    }


def _run_unit(workload, work, seed, tracer=None):
    """One unit of work through the CLI; returns (wall seconds, [(rc, stdout)])."""
    from raldpc import cli

    outcomes = []
    start = time.perf_counter()
    for argv in workload.calls(work, seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli.main", cli.main, (argv,))
        outcomes.append((rc, buf.getvalue()))
    return time.perf_counter() - start, outcomes


def _measure(workload, work, seed, budget, tally, tracer=None):
    """Repeat the unit until another one would overrun ``budget`` seconds.

    With a tracer, each untraced unit is followed by a traced one, so both
    see the same host speed.  Returns (untraced walls, traced walls, key bits).
    """
    walls, traced, bits = [], [], []
    start = time.perf_counter()
    while True:
        wall, outcomes = _run_unit(workload, work, seed)
        walls.append(wall)
        bits.append(workload.check(work, seed, outcomes, tally))
        if tracer is not None:
            tracer.unit += 1
            with tracer.installed():
                wall, outcomes = _run_unit(workload, work, seed, tracer)
            traced.append(wall)
            workload.check(work, seed, outcomes, tally)
        step = statistics.median(walls) + (statistics.median(traced) if traced else 0.0)
        if time.perf_counter() - start + step > budget:
            return walls, traced, bits


def run_benchmark(name, seed, seconds, trace, scale):
    """Run one workload; returns (result line, record line) as dicts."""
    from spans import Tracer, layer_metrics
    from workloads import Tally, WORKLOADS

    workload = WORKLOADS[name](scale)
    work = OUT / f"work-{name}-{os.getpid()}"
    try:
        starts = _start_times(SETUP_REPEATS)
        prep = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            tally = Tally()
            t = time.perf_counter()
            workload.prepare(work, seed, tally)
            prep.append(time.perf_counter() - t)
        tracer = Tracer() if trace else None
        walls, traced, bits = _measure(workload, work, seed, seconds, tally, tracer)
        record = {
            "host": host(),
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "start_repeats_s": starts,
            "setup_repeats_s": prep,
            "unit_wall_s": walls,
            "digests": workload.digests(work),
        }
        wall = statistics.median(walls)
        if name == "reconcile":
            record["key_mbit_per_s"] = statistics.median(bits) / wall / 1e6
        if trace:
            overhead = statistics.median(traced) / wall - 1.0
            metrics = layer_metrics(tracer.spans, len(traced), overhead)
            trace_file = OUT / f"trace-{name}-seed{seed}.json"
            record.update(traced_wall_s=traced, missing_boundaries=tracer.missing,
                          trace_file=str(trace_file.relative_to(ROOT)))
        else:
            values = {
                "wall_s": wall,
                "setup_s": statistics.median(starts) + statistics.median(prep),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        record["ops_failed_ratio"] = tally.failed / max(tally.attempted, 1)
        record["problems"] = tally.problems[:20]
        if trace:
            trace_file.write_text(json.dumps(
                {"record": record, "spans": tracer.spans, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("mother-build", "characterize", "reconcile"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()
    from workloads import FULL

    result, record = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), FULL
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
