"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 altbench/run.py --workload lm-block --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the run installs the span
tracer and carries the per-layer metrics instead. The exit code is 0 only if
every correctness check passed. The program is imported from ``src/`` of the
checkout; without it the run exits 2 and prints no result.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, so collide's two pool workers do not oversubscribe two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".altbench"
SETUP_REPEATS = 6          # child processes that repeat the set-up, besides this one


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print its seconds and exit")
    return parser.parse_args(argv)


def import_program():
    """Import the benchmark modules, which import altup from src/ of this checkout."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    try:
        import altup
    except ImportError as exc:
        print(f"altbench: cannot import altup from {SRC}: {exc}", file=sys.stderr)
        return False
    if SRC.resolve() not in Path(altup.__file__).resolve().parents:
        print(f"altbench: altup resolved to {altup.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def machine_info():
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def setup_at_reference_speed(setup_s):
    """(set-up seconds scaled to reference host speed, seconds per reference
    chunk), the chunk timed right after the set-up; see workloads.REF_CHUNK_S."""
    import workloads

    workloads.reference_seconds()            # warm-up
    ref = workloads.reference_seconds(chunks=10)
    return setup_s * workloads.REF_CHUNK_S / ref, ref


def time_setups(args):
    """Set-up seconds at reference speed in fresh processes, SETUP_REPEATS times."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb():
    """Peak resident memory of this process plus that of its largest child
    (the collision pool workers); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None):
    args = parse_args(argv)
    if not import_program():
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"altbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        corpus, built = workloads.setup(workload, workdir, args.seed)
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(repr(setup_at_reference_speed(setup_s)[0]))
            return 0
        print(json.dumps({"machine": machine_info(), "workload": workload.name,
                          "seed": args.seed, "trace": args.trace}), flush=True)
        return measure(args, workload, workdir, corpus, built, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir, corpus, built, setup_s):
    import checks
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    # Traced collide calls stay in-process, so the pool does not hide them.
    runner = workloads.Runner(workload, workdir, corpus, args.seed,
                              force_workers=1 if tracer else None)
    correct, rss = True, None
    try:
        try:
            runner.run(args.seconds, after_round=tracer.fold_expert_use if tracer else None)
        finally:
            if tracer:
                tracer.uninstall()
        rss = peak_rss_mb()
        checks.check_construction(built)
        checks.check_trained(runner.last_trained)
        if any(isinstance(op, workloads.CollideOp) and op.workers > 1 for op in workload.main):
            checks.check_collide(runner, args.seed)
    except workloads.CheckFailure as exc:
        print(f"altbench: correctness check failed: {exc}", file=sys.stderr)
        correct = False

    info = {"rounds": len(runner.rounds), "round_rates": runner.round_rates(),
            "wall_rates": runner.wall_rates(),
            "ref_chunk_s_median": statistics.median(runner.ref_seconds)}
    if tracer:
        metrics, gap = tracer.metrics()
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{workload.name}-seed{args.seed}.csv")
        if gap > 1e-9:
            print(f"altbench: step self times miss the step wall time by {gap!r} s",
                  file=sys.stderr)
            correct = False
    else:
        metrics = runner.rates()
        metrics["peak_rss_mb"] = {"value": rss or peak_rss_mb(), "unit": "MB"}
        scaled, info["setup_wall_s"] = setup_at_reference_speed(setup_s)[0], setup_s
        info["setup_runs_s"] = [scaled] + time_setups(args)
        metrics["setup_s"] = {"value": statistics.median(info["setup_runs_s"]), "unit": "s"}

    print(json.dumps(info), flush=True)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
