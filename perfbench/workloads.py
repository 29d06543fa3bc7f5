"""Workload inputs, the timed user steps, and the correctness checks.

Every workload drives ``stablegp.cli.main`` in-process with the files a
user would pass: ``select --method covertree``, ``fit`` with the CLI's
default solver settings, ``stablegp.diagnostics.stability_report`` on the
fitted model, and ``predict`` on a held-out query file with targets.
``sweep-1k`` adds the paper's ``sweep-resolution`` experiment.  Inputs are
generated from the workload seed and the iteration's index only.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import re
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from stablegp import cli, covertree, diagnostics
from stablegp.sgp import ClusteredModel

SIGMA2 = 0.1
KERNEL = {"family": "Matern32", "variance": 1.0, "lengthscales": [0.7, 0.7]}
SWEEP_EPSILONS = (0.3, 0.6, 1.2, 2.4)
# Predictions must match the dense reference to the criterion-2 level.
PREDICT_ATOL = 1e-8
HELDOUT_KEY = 20221014


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    epsilon: float
    steps: int
    queries: int
    sweep_n: int = 0  # > 0 adds sweep-resolution over this many points
    sweep_seeds: int = 0


# Why each workload exists is in BENCHMARK.json and README.md.  Each
# iteration takes 2-5 s, so a 25 s run yields a median of several.
# sweep-1k's pipeline is fitted on 2,000 points and scored on 1,000 queries:
# at 1,000 points and 256 queries its heldout_rmse spread twice as much
# across seeds.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("select-50k", n=50_000, epsilon=0.5, steps=0, queries=256),
        Workload("train-20k", n=20_000, epsilon=0.7, steps=3, queries=256),
        Workload("predict-3k", n=20_000, epsilon=0.7, steps=0, queries=3000),
        Workload("sweep-1k", n=2000, epsilon=0.6, steps=0, queries=1000, sweep_n=1000, sweep_seeds=3),
    ]
}

# Sizes for the smoke test: the same steps and checks, a second or two each.
TINY = {
    "select-50k": dict(n=1500),
    "train-20k": dict(n=1000, steps=2, queries=64),
    "predict-3k": dict(n=1000, queries=300),
    "sweep-1k": dict(n=300, queries=64, sweep_n=150, sweep_seeds=1),
}


def tiny(w: Workload) -> Workload:
    return replace(w, **TINY[w.name])


def target_function(X: np.ndarray) -> np.ndarray:
    """Smooth target on [-5, 5]^2, varying on the kernel's 0.7 lengthscale."""
    x1, x2 = X[:, 0], X[:, 1]
    return np.sin(1.1 * x1) * np.cos(0.9 * x2) + 0.5 * np.sin(0.6 * (x1 - x2))


def sample(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    X = rng.uniform(-5.0, 5.0, size=(n, 2))
    y = target_function(X) + math.sqrt(SIGMA2) * rng.standard_normal(n)
    return X, y


def write_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    # %.17g round-trips every double, so the CLI reads back exactly these values.
    header = ",".join([f"x{i + 1}" for i in range(X.shape[1])] + ["y"])
    np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",", header=header, comments="")


@dataclass
class Inputs:
    dir: Path
    X: np.ndarray
    y: np.ndarray
    Xq: np.ndarray
    yq: np.ndarray
    sweep_seeds: list

    def path(self, name: str) -> str:
        return str(self.dir / name)


def make_inputs(w: Workload, seed: int, iteration: int, directory: Path) -> Inputs:
    """Generate one iteration's inputs from the workload seed and write the user's files."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, w.n, iteration])
    X, y = sample(rng, w.n)
    # One held-out set per query count, the same for every seed: heldout_rmse
    # then moves with the fitted model, not with the draw of the test points.
    Xq, yq = sample(np.random.default_rng([HELDOUT_KEY, w.queries]), w.queries)
    write_csv(directory / "train.csv", X, y)
    write_csv(directory / "query.csv", Xq, yq)
    with open(directory / "kernel.json", "w") as fh:
        json.dump(KERNEL, fh)
    sweep_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=w.sweep_seeds)]
    return Inputs(directory, X, y, Xq, yq, sweep_seeds)


# ---------------------------------------------------------------------------
# timed user steps


class StepFailed(Exception):
    pass


def _cli(argv: list) -> str:
    """Run one stablegp command in-process; its stdout, or StepFailed on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise StepFailed(f"stablegp {argv[0]} exited with {code}: {err.getvalue().strip()}")
    return out.getvalue()


def step_select(w: Workload, inp: Inputs):
    _cli(["select", inp.path("train.csv"), "--method", "covertree", "--epsilon", w.epsilon, "--out", inp.path("z.json")])


def step_fit(w: Workload, inp: Inputs):
    # No --probes, --batch or --lr: the CLI's defaults are what users get.
    _cli([
        "fit", inp.path("train.csv"), inp.path("z.json"), inp.path("kernel.json"),
        "--sigma2", SIGMA2, "--steps", w.steps, "--out", inp.path("model.json"),
    ])


def step_stability(w: Workload, inp: Inputs):
    with open(inp.path("model.json")) as fh:
        model = ClusteredModel.from_json(json.load(fh))
    return diagnostics.stability_report(model)


_SCORES = re.compile(r"rmse=(\S+) nlpd=(\S+)")


def step_predict(w: Workload, inp: Inputs):
    out = _cli(["predict", inp.path("model.json"), inp.path("query.csv"), "--out", inp.path("pred.csv")])
    match = _SCORES.search(out)
    if match is None:
        raise StepFailed(f"predict printed no rmse/nlpd: {out!r}")
    return float(match.group(1)), float(match.group(2))


def step_sweep(w: Workload, inp: Inputs):
    _cli([
        "sweep-resolution", "--d", "1", "2", "--n", w.sweep_n,
        "--epsilons", *SWEEP_EPSILONS, "--seeds", *inp.sweep_seeds, "--out", inp.path("sweep.csv"),
    ])


# ---------------------------------------------------------------------------
# correctness checks (never inside a timed region)


def _read_table(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_select(w: Workload, inp: Inputs, _result) -> None:
    with open(inp.path("z.json")) as fh:
        z = np.asarray(json.load(fh)["points"], dtype=float)
    # The package's own distance path: the leaf guarantees are exact comparisons.
    sep = covertree.separation(z)
    res = covertree.spatial_resolution(inp.X, z)
    if not (sep > w.epsilon and res <= w.epsilon):
        raise StepFailed(f"inducing set breaks the leaf guarantees: separation {sep!r}, resolution {res!r}, epsilon {w.epsilon}")


def check_fit(w: Workload, inp: Inputs, _result) -> None:
    rows = _read_table(inp.path("model.json.log.csv"))
    objectives = [float(r["objective"]) for r in rows]
    if len(objectives) != w.steps or not all(math.isfinite(o) for o in objectives):
        raise StepFailed(f"training log has {len(objectives)} objectives for {w.steps} steps, or a non-finite one")


def check_stability(w: Workload, inp: Inputs, report) -> None:
    observed = report.observed.cond
    if not (math.isfinite(observed) and observed <= report.cond_bound and math.isfinite(report.cg_iteration_bound)):
        raise StepFailed(f"stability report: observed cond {observed!r}, bound {report.cond_bound!r}")


_PROFILES = {
    "SquaredExponential": lambda u: np.exp(-0.5 * u * u),
    "Matern12": lambda u: np.exp(-u),
    "Matern32": lambda u: (1.0 + math.sqrt(3.0) * u) * np.exp(-math.sqrt(3.0) * u),
    "Matern52": lambda u: (1.0 + math.sqrt(5.0) * u + 5.0 * u * u / 3.0) * np.exp(-math.sqrt(5.0) * u),
}


def dense_reference(model: dict, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and stddev from the saved model JSON, by a direct Cholesky solve."""
    k = model["kernel"]
    ls = np.asarray(k["lengthscales"], dtype=float)
    profile = _PROFILES[k["family"]]
    z = np.asarray(model["z"], dtype=float)
    A = k["variance"] * profile(cdist(z / ls, z / ls))
    A[np.diag_indices_from(A)] += np.asarray(model["lambda"], dtype=float)
    K_zq = k["variance"] * profile(cdist(z / ls, Xq / ls))
    factor = cho_factor(A, lower=True)
    mean = K_zq.T @ cho_solve(factor, np.asarray(model["u"], dtype=float))
    var = k["variance"] - np.einsum("mq,mq->q", K_zq, cho_solve(factor, K_zq))
    return mean, np.sqrt(np.clip(var, 0.0, None))


def check_predict(w: Workload, inp: Inputs, scores) -> None:
    rows = _read_table(inp.path("pred.csv"))
    mean = np.array([float(r["mean"]) for r in rows])
    stddev = np.array([float(r["stddev"]) for r in rows])
    with open(inp.path("model.json")) as fh:
        ref_mean, ref_std = dense_reference(json.load(fh), inp.Xq)
    if mean.shape != ref_mean.shape:
        raise StepFailed(f"predict wrote {mean.size} rows for {ref_mean.size} queries")
    gap = max(float(np.max(np.abs(mean - ref_mean))), float(np.max(np.abs(stddev - ref_std))))
    if not gap <= PREDICT_ATOL:
        raise StepFailed(f"prediction differs from the dense reference by {gap:.3e}")
    rmse = float(np.sqrt(np.mean((mean - inp.yq) ** 2)))
    if not abs(rmse - scores[0]) <= 1e-12 * max(rmse, 1.0):
        raise StepFailed(f"printed rmse {scores[0]!r} differs from {rmse!r}")


def check_sweep(w: Workload, inp: Inputs, _result) -> None:
    rows = _read_table(inp.path("sweep.csv"))
    want = 2 * len(SWEEP_EPSILONS) * len(inp.sweep_seeds)
    if len(rows) != want:
        raise StepFailed(f"sweep table has {len(rows)} rows, expected {want}")
    bad = [r for r in rows if r["status"] != "ok" or not math.isfinite(float(r["wasserstein2"]))]
    if bad:
        raise StepFailed(f"sweep rows failed or have non-finite W2: {bad[:3]}")
    for d in ("1", "2"):
        for s in inp.sweep_seeds:
            run = sorted((float(r["epsilon"]), int(r["m"])) for r in rows if r["d"] == d and int(r["seed"]) == s)
            ms = [m for _, m in run]
            if any(a <= b for a, b in zip(ms, ms[1:])):
                raise StepFailed(f"M does not strictly decrease in epsilon for d={d}, seed={s}: {run}")


@dataclass(frozen=True)
class Step:
    name: str
    run: Callable
    check: Callable


def steps_of(w: Workload) -> list[Step]:
    steps = [
        Step("select", step_select, check_select),
        Step("fit", step_fit, check_fit),
        Step("stability", step_stability, check_stability),
        Step("predict", step_predict, check_predict),
    ]
    if w.sweep_n:
        steps.append(Step("sweep", step_sweep, check_sweep))
    return steps


@dataclass
class Iteration:
    times: dict  # step name -> seconds
    attempted: int
    failed: int
    rmse: Optional[float] = None
    nlpd: Optional[float] = None

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def run_iteration(w: Workload, inp: Inputs, tracer) -> Iteration:
    """Time each user step, then check its outputs outside the timed region.

    A step that fails (nonzero exit, exception or failed check) ends the
    iteration, since every later step reads its output.
    """
    it = Iteration({}, 0, 0)
    for step in steps_of(w):
        it.attempted += 1
        # Each command runs in a fresh process for a user, so no step should
        # pay, inside its timing, for collecting an earlier step's garbage.
        gc.collect()
        try:
            t0 = time.perf_counter()
            with tracer.span(f"step.{step.name}"):
                result = step.run(w, inp)
            it.times[step.name] = time.perf_counter() - t0
            with tracer.paused():
                step.check(w, inp, result)
        except Exception as e:  # a failed operation is counted, not fatal to the run
            it.failed += 1
            traceback.print_exception(e)
            break
        if step.name == "predict":
            it.rmse, it.nlpd = result
    return it
