"""stablegp benchmark: select -> fit -> stability report -> predict through the CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload select-50k --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones, from spans recorded around stablegp's public
functions, plus the tracing overhead.  The full result, with the machine's
environment, is written to ``.perfbench/results/`` and the spans of a traced
run to ``.perfbench/spans/``.  The package is imported from ``src/`` of the
checkout this file sits in; the run fails without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Every timed iteration runs on its own inputs, drawn from (seed, iteration).
# The first MIN_ITERATIONS always run; heldout_rmse and peak_rss_mb are taken
# over exactly those, so how many iterations fit into the run does not change
# them, and heldout_rmse averages out the luck of a single training draw.
MIN_ITERATIONS = 4

# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# per-layer metric -> (span name, what to take from that span's per-run totals);
# metrics without a span come from the iterations or the tracer itself.
PER_LAYER = {
    "cli.select_s": ("step.select", "time"),
    "cli.fit_s": ("step.fit", "time"),
    "cli.predict_s": ("step.predict", "time"),
    "cli.sweep_resolution_s": ("step.sweep", "time"),
    "cli.load_csv_s": ("cli.load_csv", "time"),
    "cli.rows_read": ("cli.load_csv", "rows_read"),
    "cli.write_s": ("cli.write", "time"),
    "cli.rows_written": ("cli.write", "rows_written"),
    "covertree.build_s": ("covertree.build", "time"),
    "covertree.build_calls": ("covertree.build", "calls"),
    "covertree.nodes": ("covertree.build", "nodes"),
    "covertree.m": ("covertree.build", "m"),
    "covertree.metrics_s": ("covertree.metrics", "time"),
    "covertree.cluster_assign_s": ("covertree.cluster_assign", "time"),
    "covertree.cluster_assign_calls": ("covertree.cluster_assign", "calls"),
    "covertree.cluster_assign_pairs": ("covertree.cluster_assign", "pairs"),
    "kernels.gram_s": ("kernels.gram", "time"),
    "kernels.gram_entries": ("kernels.gram", "entries"),
    "kernels.gram_gradients_s": ("kernels.gram_gradients", "time"),
    "kernels.gram_gradients_entries": ("kernels.gram_gradients", "entries"),
    "linalg.cg_s": ("linalg.cg", "time"),
    "linalg.cg_calls": ("linalg.cg", "calls"),
    "linalg.cg_rhs": ("linalg.cg", "rhs"),
    "linalg.cg_iterations": ("linalg.cg", "iterations"),
    "linalg.cg_max_iterations": ("linalg.cg", "max_iterations"),
    "linalg.cholesky_s": ("linalg.cholesky", "time"),
    "linalg.cholesky_calls": ("linalg.cholesky", "calls"),
    "linalg.cholesky_jitter_max": ("linalg.cholesky", "jitter_max"),
    "linalg.cho_solve_s": ("linalg.cho_solve", "time"),
    "linalg.cho_solve_rhs": ("linalg.cho_solve", "rhs"),
    "linalg.spectrum_s": ("linalg.spectrum", "time"),
    "linalg.w2_s": ("linalg.w2", "time"),
    "sgp.fit_clustered_s": ("sgp.fit_clustered", "time"),
    "sgp.train_s": ("sgp.train", "time"),
    "sgp.train_step_s": ("sgp.train", "time_per_step"),
    "sgp.clustered_posterior_s": ("sgp.clustered_posterior", "self_time"),
    "sgp.posterior_queries": ("sgp.clustered_posterior", "queries"),
    "sgp.exact_posterior_s": ("sgp.exact_posterior", "time"),
    "diagnostics.stability_report_s": ("diagnostics.stability_report", "time"),
    "diagnostics.cond_observed": ("diagnostics.stability_report", "cond_observed"),
    "diagnostics.cond_bound": ("diagnostics.stability_report", "cond_bound"),
    "diagnostics.cg_iteration_bound": ("diagnostics.stability_report", "cg_iteration_bound"),
    "cli.heldout_nlpd": (None, "nlpd"),
    "trace.spans": (None, "spans"),
    "trace.overhead_s": (None, "overhead"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes: same steps and checks, seconds to run")
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """One process generates the load, with one BLAS thread whatever the caller's environment says.

    OpenBLAS threads spin while they wait; on a small shared machine a second
    thread turns any other load into large, erratic slow-downs of the many
    small matrix products these workloads make.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _openblas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds bundled with numpy and scipy."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "libscipy_openblas*"))):
            lib = ctypes.CDLL(path)
            # 64-bit-integer and 32-bit-integer builds export different names
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def git_sha():
    """HEAD's commit, read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(cores: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": cores,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "threads": _openblas_threads(),
        },
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def timed_loop(seconds: float, body, min_calls: int) -> list:
    """Call body(i) for i = 0, 1, ... while another call is expected to fit into the budget.

    It always makes at least min_calls calls.
    """
    start = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(body(len(results)))
        durations.append(time.perf_counter() - t0)
        if len(results) >= min_calls and time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def layer_metrics(tracer, runs: list[str], traced: list, untraced: list) -> dict:
    per_run = [tracer.layer_totals(r) for r in runs]

    def value(span, key, totals):
        t = totals.get(span)
        if t is None:
            return 0.0
        if key in ("time", "self_time", "calls"):
            return t[key]
        if key == "time_per_step":
            steps = t["counts"].get("steps", 0)
            return t["time"] / steps if steps else 0.0
        return t["counts"].get(key, 0.0)

    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        span, key = PER_LAYER[name]
        if span is not None:
            v = statistics.median(value(span, key, totals) for totals in per_run)
        elif key == "nlpd":
            v = statistics.median(it.nlpd for it in traced)
        elif key == "spans":
            v = len(tracer.spans) / len(runs)
        else:
            v = statistics.median(it.wall for it in traced) - statistics.median(it.wall for it in untraced)
        out[name] = {"value": float(v), "unit": unit}
    return out


def end_to_end_metrics(setup_s: float, iterations: list, peak_rss_kib: int) -> dict:
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(it.wall for it in iterations),
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "heldout_rmse": statistics.mean(it.rmse for it in iterations[:MIN_ITERATIONS]),
    }
    return {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "stablegp" / "__init__.py").is_file():
        print(f"error: no stablegp sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    cores = pin_blas_threads()

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import stablegp
    import workloads as wl
    from tracer import Tracer

    import_s = time.perf_counter() - t0
    if Path(stablegp.__file__).resolve().parent != (src / "stablegp").resolve():
        print(f"error: imported stablegp from {stablegp.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    if args.tiny:
        workload = wl.tiny(workload)

    out_dir = ROOT / ".perfbench"
    work = out_dir / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    tracer = Tracer()  # records nothing until installed and switched on
    try:
        # Set-up: the first iteration's inputs written as a user would, plus a
        # warm-up pipeline at tiny size so lazy imports and first calls are
        # paid before timing.
        setups, warm_ops = [], []
        for _ in range(SETUP_REPEATS):
            s0 = time.perf_counter()
            first = wl.make_inputs(workload, args.seed, 0, work)
            warm = wl.make_inputs(wl.tiny(workload), args.seed, 0, work / "warmup")
            warm_ops.append(wl.run_iteration(wl.tiny(workload), warm, tracer))
            setups.append(time.perf_counter() - s0)
        setup_s = import_s + statistics.median(setups)

        def inputs(i):
            # Generated outside the timed steps; iteration 0 reuses the set-up's files.
            return first if i == 0 else wl.make_inputs(workload, args.seed, i, work)

        if args.trace:
            tracer.install()
            runs, traced, untraced = [], [], []

            def pair(i):
                inp = inputs(i)
                untraced.append(wl.run_iteration(workload, inp, tracer))
                tracer.run = f"{workload.name}/{args.seed}/{i}"
                runs.append(tracer.run)
                tracer.recording = True
                try:
                    traced.append(wl.run_iteration(workload, inp, tracer))
                finally:
                    tracer.recording = False

            timed_loop(args.seconds, pair, 1)
            tracer.uninstall()
            iterations = untraced + traced
        else:
            peak_rss_kib = []

            def iteration(i):
                it = wl.run_iteration(workload, inputs(i), tracer)
                if i == MIN_ITERATIONS - 1:
                    # ru_maxrss is in KiB on Linux; read before later iterations can raise it
                    peak_rss_kib.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
                return it

            iterations = timed_loop(args.seconds, iteration, MIN_ITERATIONS)

        attempted = sum(it.attempted for it in iterations + warm_ops)
        failed = sum(it.failed for it in iterations + warm_ops)
        metrics = {}
        if failed == 0:
            if args.trace:
                metrics = layer_metrics(tracer, runs, traced, untraced)
            else:
                metrics = end_to_end_metrics(setup_s, iterations, peak_rss_kib[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(cores)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "iterations": len(iterations),
        "step_times": [it.times for it in iterations],
        "error_rate": failed / attempted,
        "environment": env,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results" / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    if args.trace:
        (out_dir / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(str(out_dir / "spans" / f"{tag}.jsonl"))

    print(json.dumps({"environment": env, "iterations": len(iterations), "error_rate": failed / attempted}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
