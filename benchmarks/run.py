"""Benchmark entry point for dialret.

    python3 benchmarks/run.py --workload grid-c8 --seed 42 --seconds 50 --trace 0

Run from the root of a source checkout; dialret is imported from its
``src/`` directory, and the run fails with exit code 2 when that is
missing. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced pass instead. The line before it holds the
run's details: environment, workload-specific figures, digests and the
computed counters with their numerators and denominators. See README.md.
"""

import os
import sys

# Fixed before numpy is imported. One thread is no more than any machine's
# CPU count, and keeps BLAS from spinning threads around the small GRU
# matmuls on a shared host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import platform
import resource
import shutil
import subprocess
import time
from pathlib import Path
from statistics import median

from layers import LAYERS, PER_LAYER, layer_metrics
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# An untraced run sets up at least this many times and for at least this
# long; setup_s is the median. Short set-ups are noisy on a shared host.
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_dialret():
    """Import dialret from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "dialret" / "__init__.py").is_file():
        fail(f"{src / 'dialret'} not found; run from a dialret source checkout")
    sys.path.insert(0, str(src))
    import dialret

    if Path(dialret.__file__).resolve().parent != src / "dialret":
        fail(f"imported dialret from {dialret.__file__}, not from {src}")


def git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when this checkout is not a git repository itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def another_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass, as long as the mean pass so far, ends in time.

    A run always makes one pass; it never overruns ``seconds`` by more
    than that first pass.
    """
    if done == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def run_untraced(make, seconds, checks):
    """Set up repeatedly, then measure passes; end-to-end metrics and details."""
    setups = []
    workload = None
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        workload = None  # free the previous set-up's inputs first
        gc.collect()
        workload = make()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    stages = Tracer(workload.stages)
    passes = []
    start = time.perf_counter()
    while another_fits(start, len(passes), seconds):
        passes.append(workload.run_pass(len(passes), stages, checks))
    metrics = {
        "setup_s": median(setups),
        "wall_s": median([p.wall_s for p in passes]),
        "items_per_s": median([p.items_per_s for p in passes]),
        "peak_rss_mb": peak_rss_mb(),
    }
    figures = {
        name: {
            "value": median([p.figures[name][0] for p in passes]),
            "unit": unit, "samples_per_pass": samples,
        }
        for name, (_, unit, samples) in passes[0].figures.items()
    }
    figures["items_per_s"] = {"item": workload.item}
    return workload, metrics, {"passes": len(passes), "figures": figures, "setup_s": setups}


def run_traced(make, seconds, checks, trace_path, run_prefix):
    """Alternate untraced and traced passes; per-layer metrics and details."""
    workload = make()
    workload.setup()
    stages = Tracer(workload.stages)
    per_pass = []
    sums: dict[str, list[float]] = {}
    trace_path.unlink(missing_ok=True)
    start = time.perf_counter()
    n = 0
    while another_fits(start, len(per_pass), seconds):
        untraced = workload.run_pass(n, stages, checks)
        tracer = Tracer()
        traced = workload.run_pass(n + 1, tracer, checks)
        values, computed = layer_metrics(tracer.spans)
        values["trace.wall_s"] = traced.wall_s
        values["trace.untraced_wall_s"] = untraced.wall_s
        values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        values["trace.spans"] = len(tracer.spans)
        for name, c in computed.items():
            pair = sums.setdefault(name, [0.0, 0.0])
            pair[0] += c.numerator
            pair[1] += c.denominator
        tracer.write(trace_path, f"{run_prefix}-pass{n + 1}")
        per_pass.append(values)
        n += 2
    metrics = {name: median([v[name] for v in per_pass]) for name in PER_LAYER}
    computed_detail = {}
    # A computed metric is the ratio of its sums over all traced passes.
    for name, (num, den) in sums.items():
        value = num / den if den else 0.0
        metrics[name] = value
        computed_detail[name] = {
            "value": value, "numerator": num, "denominator": den, "computed": True,
        }
    wall = metrics["trace.wall_s"]
    computed_detail.update(
        (f"{layer}.self_share", {
            "value": metrics[f"{layer}.self_s"] / wall if wall else 0.0,
            "numerator": metrics[f"{layer}.self_s"], "denominator": wall, "computed": True,
        })
        for layer in LAYERS
    )
    return workload, metrics, {
        "traced_passes": len(per_pass), "computed": computed_detail,
        "spans_file": str(trace_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_dialret()
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    checks = Checks()
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": environment(),
    }
    try:
        make = lambda: cls(args.seed, workdir)  # noqa: E731
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.tsv"
            run_prefix = f"{args.workload}-seed{args.seed}-{os.getpid()}"
            workload, values, extra = run_traced(
                make, args.seconds, checks, trace_path, run_prefix
            )
            units = PER_LAYER
        else:
            workload, values, extra = run_untraced(make, args.seconds, checks)
            units = END_TO_END
        detail.update(extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["failed_ops_frac"] = {
        "value": checks.failed / checks.attempted, "numerator": checks.failed,
        "denominator": checks.attempted, "computed": True,
    }
    detail["failures"] = checks.notes
    detail["digests"] = workload.digests
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
