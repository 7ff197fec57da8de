"""strength-init benchmark: seeded workloads timed from outside the package.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (why each is here):

  sweep         4 x 1024^2 and 1 x 4096^2 kaiming-uniform layers, bidirectional
                PA rewiring. Rewiring does most of the work and a 4096^2 matrix
                (128 MiB) is larger than a 105 MiB L3 cache, so full-matrix copies
                show in run time and peak memory. Nothing is trained.
  small-layers  256 cache-resident layers: MLP shapes (784x64, 64x64, 64x10,
                256x10, 256x256) and conv banks through pa_rewire_conv (3x3x1x32,
                3x3x32x64, 5x5x3x64), four initializers, both pass modes.
                Per-call and per-column overhead dominate.
  train         run_manifest on generated MNIST-shaped IDX files: 784-64-64-10,
                a `none` and a `pa` arm, 4 repetitions of 3 epochs, batch 128,
                jobs=1. The batch loop and evaluation do most of the work.

Each layer goes through derive_stream, init, WMAT save and load, strength_stats
on both sides, pa_rewire (or pa_rewire_conv), WMAT save and load, and
strength_stats on both sides again.

A round is the workload's fixed job. The run repeats rounds until --seconds is
spent and reports the median round. Only the package's calls are timed; the
digests and output checks between them are not. BLAS may use as many threads
as this process may use cores, and everything runs in one process.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. --trace 1
alternates plain rounds with rounds in which spans.py wraps the package's
public functions, and prints the per-layer metrics, including trace.overhead_s:
the median traced round minus the median plain round. After the rounds it
repeats one pa_rewire call per input shape under tracemalloc for
rewiring.pa_rewire.alloc_peak_mb.

Output: a JSON report line (machine, code size, round times, every init and
rewire digest, problems found), one summary line per end-to-end figure with
its unit, and last one JSON object with correct, attempted, failed (one
operation is one layer pipeline or one training repetition) and the metrics
BENCHMARK.json names.

The benchmark's own tests: python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
NPROC = len(os.sched_getaffinity(0))

# set before numpy is imported, so BLAS starts no more threads than there are cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

SETUP_SAMPLES = 5

# Units of the summary lines, which give every end-to-end figure of a
# workload. BENCHMARK.json keeps those that every workload has and that are
# never 0, and merges weights_per_s and train_samples_per_s into work_per_s.
SUMMARY_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "fail_ratio": "ratio",
    "weights_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "collapse_ratio": "ratio",
    "test_acc_mean": "%",
}

_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import strength_init
print(time.perf_counter() - start)
"""


def fresh_import_s() -> float:
    """Seconds a new interpreter spends importing strength_init."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def blas_threads(np) -> int | None:
    """Threads of the OpenBLAS bundled with numpy, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "platform": platform.platform(),
    }


def code_size(package) -> dict:
    loc = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"src_loc": loc, "init_all": len(package.__all__)}


def run_rounds(workload, seconds: float, tracer) -> list[tuple[bool, object]]:
    """Repeat rounds while the next one is expected to end within `seconds`.

    With a tracer, odd rounds are traced; at least one plain and one traced
    round run. Round 0 is always plain, because it runs the full checks.
    """
    deadline = time.perf_counter() + seconds
    rounds = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        start = time.perf_counter()
        if traced:
            with tracer:
                result = workload.run_round(len(rounds))
        else:
            result = workload.run_round(len(rounds))
        walls[traced].append(time.perf_counter() - start)
        rounds.append((traced, result))
        next_traced = tracer is not None and len(rounds) % 2 == 1
        if not walls[next_traced]:
            continue
        if time.perf_counter() + walls[next_traced][-1] > deadline:
            return rounds


def per_layer_metrics(tracer, rounds, names) -> dict[str, float]:
    """Totals over the traced rounds, divided by their number."""
    traced = [r for is_traced, r in rounds if is_traced]
    plain = [r for is_traced, r in rounds if not is_traced]
    totals = tracer.totals()
    for r in traced:
        for key, value in r.counts.items():
            totals[key] += value
    columns = totals["rewiring.pa_rewire.columns"]
    totals["rewiring.pa_rewire.us_per_column"] = (
        1e6 * totals["rewiring.pa_rewire.s"] / columns if columns else 0.0
    )
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = statistics.median(r.timed_s for r in traced) - statistics.median(r.timed_s for r in plain)
        elif name.endswith((".alloc_peak_mb", ".us_per_column")):
            out[name] = float(totals.get(name, 0.0))
        else:
            out[name] = totals.get(name, 0.0) / len(traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "small-layers", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "strength_init" / "__init__.py").is_file():
        print(f"error: no strength_init package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import strength_init

    if Path(strength_init.__file__).resolve().parent != (SRC / "strength_init").resolve():
        print(f"error: strength_init imported from {strength_init.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import make_workload

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = make_workload(args.workload)
        setup = []
        for _ in range(SETUP_SAMPLES):
            import_s = fresh_import_s()
            start = time.perf_counter()
            workload.make_inputs(args.seed, workdir)
            setup.append(import_s + time.perf_counter() - start)
        tracer = Tracer(strength_init) if args.trace else None
        rounds = run_rounds(workload, args.seconds, tracer)
        if tracer is not None:
            tracer.alloc_peaks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass

    attempted = sum(r.attempted for _, r in rounds)
    failed = sum(r.failed for _, r in rounds)
    problems = [p for _, r in rounds for p in r.problems]
    run_s = statistics.median(r.timed_s for traced, r in rounds if not traced)
    throughput = workload.work_per_round / run_s
    summary = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": failed / attempted,
        ("train_samples_per_s" if args.workload == "train" else "weights_per_s"): throughput,
        **workload.quality(),
    }
    if args.trace:
        metrics = per_layer_metrics(tracer, rounds, [m["name"] for m in metric_specs])
    else:
        metrics = {**summary, "work_per_s": throughput}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(np, scipy),
        "code": code_size(strength_init),
        "rounds": [{"timed_s": r.timed_s, "traced": traced} for traced, r in rounds],
        "setup_samples_s": setup,
        "summary": summary,
        "problems": problems[:50],
        **workload.info(),
    }
    print(json.dumps(report))
    for name, value in summary.items():
        print(f"  {args.workload:>12}  {name:<20} {value:.6g} {SUMMARY_UNITS[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
