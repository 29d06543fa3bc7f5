"""Command line experiment harness.

Subcommands cover inducing point selection, fitting and prediction of the
clustered model, and the three table-producing sweeps (resolution, grid
matrix conditioning, data size).  Every table carries a provenance header
(command, config hash, seed) plus a JSON sidecar of the full config, so a
row can be regenerated exactly.  Exit codes: 0 success, 1 usage error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import lzma
import math
import os
import sys
import time
import warnings
from typing import Optional, Sequence

import numpy as np

from . import covertree as ct
from . import diagnostics as dg
from .kernels import Family, Kernel, kms_matrix
from .linalg import NumericalFailure, conjugate_gradient, spectrum, wasserstein2_gaussians
from .sgp import (
    ClusteredModel,
    Dataset,
    TrainConfig,
    _SAMPLE_MAX_POINTS,
    _plus_lambda,
    clustered_posterior,
    fit_clustered,
    sample_targets,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# data files


def load_csv(path: str) -> Dataset:
    """Dataset from a CSV with header x1,...,xd,y; rejects non-finite rows."""
    return Dataset(*_load_csv_columns(path, require_targets=True))


def _load_csv_columns(path: str, require_targets: bool):
    """Inputs and targets, None without a y column.

    The header is checked in Python.  The data rows are parsed by one
    np.loadtxt call, whose result is kept only if it has at least one row,
    one column per header field and no non-finite value, and if the rows
    hold no character that loadtxt but not float takes for whitespace.
    Otherwise the rows are parsed again by the csv.reader + float loop,
    which is also the only parser of a stream that cannot seek, such as a
    pipe.  That loop stays because it is the reference: it accepts what float
    accepts but loadtxt does not (quoted fields, underscores such as 1_0),
    and its errors name the line.  Both parse numbers with the same
    string-to-double routine, so a file either parser accepts gives
    bit-identical arrays.
    """
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    with fh:
        try:
            header, header_lines = _read_header(fh)
        except StopIteration:
            raise UsageError(f"{path}: empty file") from None
        except csv.Error as e:
            raise UsageError(f"{path}: line 1: {e}") from None
        has_y = header[-1:] == ["y"]
        xcols = header[:-1] if has_y else header
        expected = [f"x{i + 1}" for i in range(len(xcols))]
        if not header or xcols != expected or (require_targets and not has_y):
            want = "x1,...,xd" + (",y" if require_targets else "[,y]")
            raise UsageError(f"{path}: header must be {want}, got {','.join(header)}")
        arr = None
        if fh.seekable():
            arr = _loadtxt_rows(fh, len(header), header_lines)
            if arr is None:
                # Re-reading from the top keeps the decoder's chunks where the
                # first read had them, so even a decode error reads the same.
                fh.seek(0)
                _read_header(fh)
        if arr is None:
            # also the only parse of a pipe or FIFO, which cannot be read twice
            arr = _checked_rows(path, fh, len(header), header_lines)
    if has_y:
        return arr[:, :-1], arr[:, -1]
    return arr, None


def _read_header(fh) -> tuple[list, int]:
    """The header's stripped fields and the number of physical lines it spans."""
    # readline rather than iteration, so that seek() works afterwards
    reader = csv.reader(iter(fh.readline, ""))
    return [h.strip() for h in next(reader)], reader.line_num


# loadtxt strips Py_UNICODE_ISSPACE whitespace around a number, and that
# counts the ASCII information separators; float rejects them.
_INFO_SEPARATORS = "\x1c\x1d\x1e\x1f"

# Characters decoded at a time while the data rows are scanned for them.
_SCAN_CHUNK = 1 << 20


def _loadtxt_rows(fh, width: int, skiprows: int) -> Optional[np.ndarray]:
    """The rows of fh after its first skiprows lines in one loadtxt call, or
    None if _checked_rows must decide.

    loadtxt is given the file's path, from which it reads large chunks in C;
    given the handle it would iterate it line by line in Python.  It opens the
    path with fh's encoding, and its universal newlines end a line wherever
    fh's newline="" mode does, so its first skiprows lines are the header.
    The rest of fh is decoded here first, _SCAN_CHUNK characters at a time,
    so a decode error, like an information separator, leaves the rows to
    _checked_rows.
    """
    try:
        for chunk in iter(lambda: fh.read(_SCAN_CHUNK), ""):
            if any(c in chunk for c in _INFO_SEPARATORS):
                return None
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # numpy's loader downloads a path that parses as a URL, which an
            # absolute path never does.  It picks a decompressor by the
            # suffix, so a plain-text file named *.gz, *.bz2 or *.xz raises
            # OSError or LZMAError there and is left to the loop.
            arr = np.loadtxt(
                os.path.abspath(fh.name), delimiter=",", ndmin=2, comments=None,
                skiprows=skiprows, encoding=fh.encoding,
            )
    except (ValueError, OSError, lzma.LZMAError):
        return None
    if arr.shape[0] == 0 or arr.shape[1] != width or not np.isfinite(arr).all():
        return None
    return arr


def _checked_rows(path: str, fh, width: int, header_lines: int) -> np.ndarray:
    """The remaining rows of fh, parsed field by field; raises UsageError naming
    the physical line on which a bad record starts.

    header_lines is the number of physical lines already read from fh, and a
    quoted field may hold line breaks, so records are numbered by the reader's
    line_num rather than counted.
    """
    rows = []
    reader = csv.reader(fh)
    next_line = header_lines + 1
    try:
        for row in reader:
            lineno, next_line = next_line, header_lines + reader.line_num + 1
            if not row:
                continue
            if len(row) != width:
                raise UsageError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise UsageError(f"{path}: line {lineno}: non-numeric value") from None
            if not all(math.isfinite(v) for v in vals):
                raise UsageError(f"{path}: line {lineno}: non-finite value")
            rows.append(vals)
    except csv.Error as e:
        # e.g. a field over csv.field_size_limit(); raised reading the next record
        raise UsageError(f"{path}: line {next_line}: {e}") from None
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# tables with provenance


def _config_hash(config: dict) -> str:
    # allow_nan=False: a non-finite config raises here, before any file is written
    return hashlib.sha256(json.dumps(config, sort_keys=True, allow_nan=False).encode()).hexdigest()[:16]


def _write_json(path: str, obj) -> None:
    """obj as indented JSON; a nan or inf in it raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _finite_or_null(obj):
    """obj with every non-finite float in it, nested dicts included, replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_table(path: str, args: argparse.Namespace, fieldnames: list, rows: list) -> None:
    """Write rows as CSV under a provenance header, plus a JSON sidecar of the config.

    The config is every operand and flag parsed for args.command, --out
    aside, so a table records exactly what the parser declares.
    """
    command = args.command
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    digest = _config_hash(config)
    with open(path, "w", newline="") as fh:
        fh.write(f"# command={command}\n")
        fh.write(f"# config_hash={digest}\n")
        fh.write(f"# seed={config.get('seed', '')}\n")
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        for row in rows:
            w.writerow(row)
    _write_json(path + ".config.json", {"command": command, "config_hash": digest, "config": config})


# ---------------------------------------------------------------------------
# shared experiment machinery (importable, used by the sweep subcommands)


def default_kernel(d: int) -> Kernel:
    return Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.ones(d))


# Joe-Kuo direction numbers m_1..m_6 of the first 8 Sobol dimensions, row j
# for dimension j + 1, read from scipy.stats' Sobol initialization (whose
# 30-bit direction numbers are m_k 2^(30-k)).  They cover every choice of
# sweep-resolution --d.
_SOBOL_DIRECTIONS = np.array(
    [
        [1, 1, 1, 1, 1, 1],
        [1, 3, 5, 15, 17, 51],
        [1, 3, 3, 9, 29, 23],
        [1, 3, 1, 5, 31, 29],
        [1, 1, 1, 11, 31, 55],
        [1, 1, 3, 3, 25, 9],
        [1, 3, 5, 13, 11, 37],
        [1, 1, 5, 5, 17, 9],
    ]
)


def query_grid(d: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """64-point low-discrepancy grid over the data's bounding box.

    The unit points are the first 64 points of the unscrambled Sobol
    sequence, qmc.Sobol(d, scramble=False).random_base2(6), bit for bit:
    point i is 2^-6 times the XOR, over the bits k = 0..5 set in the Gray
    code i ^ (i >> 1), of the direction numbers m_(k+1) 2^(5-k).
    """
    if not 1 <= d <= len(_SOBOL_DIRECTIONS):
        raise ValueError(f"query_grid supports d = 1..{len(_SOBOL_DIRECTIONS)}, got {d}")
    v = _SOBOL_DIRECTIONS[:d] << np.arange(5, -1, -1)
    i = np.arange(64)
    bits = ((i ^ (i >> 1))[:, None] >> np.arange(6)) & 1
    unit = np.bitwise_xor.reduce(bits[:, :, None] * v.T[None, :, :], axis=1) / 64.0
    return lo + unit * (hi - lo)


def _sweep_kernel(d: int) -> Kernel:
    return Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.full(d, 0.5 * math.sqrt(d)))


def _synthetic_problem(d: int, n: int, sigma2: float, seed: int, query):
    """The sweep's data for (d, seed) and the exact posterior at query.

    X is the first draw of default_rng((seed, d, n)) and the targets are
    sample_targets at the plain seed, so building the data and its exact
    posterior takes one Gram and one Cholesky, of K_xx + sigma2 I.
    """
    X = np.random.default_rng((seed, d, n)).uniform(-5.0, 5.0, size=(n, d))
    y, exact = sample_targets(_sweep_kernel(d), sigma2, X, seed, query)
    return Dataset(X, y), exact


def sweep_resolution_rows(d_list, n: int, epsilons, seeds, sigma2: float) -> list:
    rows = []
    for d in sorted(d_list):
        kernel = _sweep_kernel(d)
        grid = query_grid(d, np.full(d, -5.0), np.full(d, 5.0))
        for seed in seeds:
            rows.extend(_sweep_seed_rows(d, kernel, grid, n, epsilons, seed, sigma2))
    rows.sort(key=lambda r: (r["d"], r["epsilon"], r["seed"]))
    return rows


def _sweep_seed_rows(d: int, kernel: Kernel, grid: np.ndarray, n: int, epsilons, seed: int, sigma2: float) -> list:
    """The sweep's rows for one (d, seed).

    Everything it builds (dataset, exact posterior, trees, models) is freed
    when it returns, so none of it is still scattered through the heap when
    the next seed allocates its n x n Gram matrix.
    """
    rows = []
    data, exact = _synthetic_problem(d, n, sigma2, seed, grid)
    # Level j >= 1 of a tree is the tree build gives at radii[j] (see
    # covertree.build), so the finest tree serves every coarser epsilon
    # that is a power-of-two multiple of it.
    trees = []
    for eps in sorted(epsilons):
        row = {"d": d, "epsilon": eps, "seed": seed}
        try:
            tree = next((t for t in trees if eps in t.radii[1:]), None)
            if tree is None:
                tree = ct.build(data.X, eps, seed=seed)
                trees.append(tree)
            z = ct.inducing_points(tree, tree.radii.index(eps))
            model = fit_clustered(data, z, kernel, sigma2)
            belief = clustered_posterior(model, grid)
            A = _plus_lambda(model)
            report = conjugate_gradient(lambda w: A @ w, model.u, tag="kzz_plus_lambda")
            row.update(
                m=model.m,
                wasserstein2=wasserstein2_gaussians(belief.mean, belief.cov, exact.mean, exact.cov),
                cond=spectrum(A).cond,
                cg_iterations=report.iterations,
                status="ok",
            )
        except NumericalFailure as e:
            row.update(m="", wasserstein2="", cond="", cg_iterations="", status=f"error: {e}")
        rows.append(row)
    return rows


def kms_demo_rows(rhos, ns, trials: int, seed: int) -> list:
    rows = []
    for rho in sorted(rhos):
        for n in sorted(ns):
            K = kms_matrix(rho, n)
            cond = spectrum(K).cond
            bounds = dg.kms_cond_bounds(rho, n)
            rng = np.random.default_rng((seed, int(rho * 10**9), n))
            errs = []
            for _ in range(trials):
                v = rng.standard_normal(n)
                errs.append(float(np.linalg.norm(v - np.linalg.solve(K, K @ v)) / np.linalg.norm(v)))
            q25, med, q75 = np.percentile(errs, [25, 50, 75])
            rows.append(
                {
                    "rho": rho,
                    "n": n,
                    "cond": cond,
                    "trench_lower": bounds.lower,
                    "trench_upper": "" if bounds.upper is None else bounds.upper,
                    "err_median": med,
                    "err_q25": q25,
                    "err_q75": q75,
                }
            )
    return rows


def covertree_for_target_m(X: np.ndarray, m_target: int, seed: int) -> np.ndarray:
    """Cover-tree inducing points, roughly m_target of them, via bisection on the resolution."""
    root = X.mean(axis=0)
    d_max = float(np.sqrt(((X - root) ** 2).sum(axis=1)).max())
    if d_max == 0.0 or m_target <= 1:
        return ct.inducing_points(ct.build(X, max(d_max, 1.0), seed=seed))
    lo, hi = math.log(d_max / 4096.0), math.log(d_max)
    best = None
    for _ in range(16):
        mid = (lo + hi) / 2.0
        z = ct.inducing_points(ct.build(X, math.exp(mid), seed=seed))
        if best is None or abs(len(z) - m_target) < abs(len(best) - m_target):
            best = z
        if len(z) == m_target:
            break
        if len(z) > m_target:
            lo = mid
        else:
            hi = mid
    return best


def datasize_sweep_rows(data: Dataset, n_list, m_list, methods, kernel: Kernel, sigma2: float, steps: int, seed: int) -> list:
    rows = []
    for n in sorted(n_list):
        if n > data.n:
            raise UsageError(f"requested subsample {n} exceeds dataset size {data.n}")
        rng = np.random.default_rng((seed, n))
        idx = rng.permutation(data.n)[:n]
        cut = max(1, int(0.8 * n))
        train_set, test_set = data.subset(idx[:cut]), data.subset(idx[cut:])
        for m in sorted(m_list):
            for method in sorted(methods):
                row = {"n": n, "m_requested": m, "method": method}
                try:
                    if method == "covertree":
                        z = covertree_for_target_m(train_set.X, m, seed)
                    elif method == "uniform":
                        z = train_set.X[ct.select_uniform(train_set.X, min(m, train_set.n), seed)]
                    elif method == "kmeans":
                        z = ct.select_kmeans(train_set.X, min(m, train_set.n), 20, seed)
                    else:
                        raise UsageError(f"unknown method {method!r}")
                    model = fit_clustered(train_set, z, kernel, sigma2)
                    if steps > 0:
                        model = train(model, train_set, TrainConfig(steps=steps, seed=seed)).model
                    belief = clustered_posterior(model, test_set.X, full_cov=False)
                    rmse = float(np.sqrt(np.mean((belief.mean - test_set.y) ** 2)))
                    cond = spectrum(_plus_lambda(model)).cond
                    row.update(m=model.m, cond=cond, rmse=rmse, status="ok")
                except NumericalFailure as e:
                    row.update(m="", cond="", rmse="", status=f"error: {e}")
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# subcommands


def cmd_select(args) -> int:
    data = load_csv(args.data)
    needed = "epsilon" if args.method == "covertree" else "m"
    if getattr(args, needed) is None:
        raise UsageError(f"--{needed} is required for method={args.method}")
    t0 = time.perf_counter()
    if args.method == "covertree":
        tree = ct.build(
            data.X,
            args.epsilon,
            lloyd_averaging=not args.no_lloyd,
            voronoi_repartition=not args.no_voronoi,
            seed=args.seed,
        )
        z = ct.inducing_points(tree)
        provenance = {"method": "covertree", "level": tree.L, "epsilon": args.epsilon, "seed": args.seed}
    elif args.method == "uniform":
        idx = ct.select_uniform(data.X, args.m, args.seed)
        z = data.X[idx]
        provenance = {"method": "uniform", "seed": args.seed, "indices": idx.tolist()}
    else:
        z = ct.select_kmeans(data.X, args.m, args.kmeans_iters, args.seed)
        provenance = {"method": "kmeans", "seed": args.seed, "iters": args.kmeans_iters}
    wall_ms = (time.perf_counter() - t0) * 1e3
    if args.method == "covertree" and not args.no_voronoi:
        resolution = ct.leaf_resolution(tree, data.X)
    else:
        resolution = ct.spatial_resolution(data.X, z)
    metrics = {
        "M": len(z),
        # a single point has no pair to measure
        "separation": ct.separation(z) if len(z) > 1 else None,
        "spatial_resolution": resolution,
        "wall_time_ms": wall_ms,
    }
    _write_json(args.out, {"points": z.tolist(), "provenance": provenance, "metrics": metrics})
    print(f"wrote {args.out}: M={len(z)}")
    return EXIT_OK


def _load_json(path: str, what: str, from_json):
    """from_json of the JSON file at path; any failure is a UsageError naming the file."""
    try:
        with open(path) as fh:
            return from_json(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise UsageError(f"cannot load {what} from {path}: {e}") from None


def _inducing_points_from_json(obj) -> np.ndarray:
    """The (M, d) array under a z.json's "points"; nothing else in the file is read."""
    z = np.asarray(obj["points"], dtype=float)
    if z.ndim != 2 or z.size == 0:
        raise ValueError("points must form a nonempty (n, d) array with d >= 1")
    if not np.isfinite(z).all():
        raise ValueError("inducing points must be finite")
    return z


def _print_stability_report(model: ClusteredModel) -> None:
    """The model's stability report on stderr, as one line of strict JSON."""
    report = _finite_or_null(dg.stability_report(model).to_json())
    print(json.dumps({"stability_report": report}, allow_nan=False), file=sys.stderr)


def cmd_fit(args) -> int:
    data = load_csv(args.data)
    z = _load_json(args.z, "inducing set", _inducing_points_from_json)
    kernel = _load_json(args.kernel, "kernel", Kernel.from_json)
    model = fit_clustered(data, z, kernel, args.sigma2)
    history = []
    if args.steps > 0:
        config = TrainConfig(
            steps=args.steps, batch_size=args.batch, step_size=args.lr, probes=args.probes, seed=args.seed
        )
        try:
            result = train(model, data, config)
        except NumericalFailure:
            _print_stability_report(model)
            raise
        model, history = result.model, result.history
    _write_json(args.out, model.to_json())
    write_table(args.out + ".log.csv", args, ["step", "objective"], [{"step": s, "objective": o} for s, o in history])
    print(f"wrote {args.out}: M={model.m}, steps={args.steps}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = _load_json(args.model, "model", ClusteredModel.from_json)
    Xq, yq = _load_csv_columns(args.query, require_targets=False)
    if Xq.shape[1] != model.z.shape[1]:
        raise UsageError(f"query dimension {Xq.shape[1]} does not match model dimension {model.z.shape[1]}")
    try:
        belief = clustered_posterior(model, Xq, full_cov=False)
        worst = int(np.argmin(belief.var))
        # Lambda > 0 makes every true variance positive, so 0 is a rounding error too
        if belief.var[worst] <= 0.0:
            count = int(np.count_nonzero(belief.var <= 0.0))
            raise NumericalFailure(
                f"{count} of {len(belief.var)} posterior variances are not positive, "
                f"the smallest {float(belief.var[worst])!r} at query {worst}"
            )
    except NumericalFailure:
        _print_stability_report(model)
        raise
    stddev = np.sqrt(belief.var)
    rows = [{"mean": m, "stddev": s} for m, s in zip(belief.mean.tolist(), stddev.tolist())]
    write_table(args.out, args, ["mean", "stddev"], rows)
    if yq is not None:
        rmse = float(np.sqrt(np.mean((belief.mean - yq) ** 2)))
        var_y = belief.var + model.noise_sigma2
        nlpd = float(np.mean(0.5 * np.log(2.0 * math.pi * var_y) + (yq - belief.mean) ** 2 / (2.0 * var_y)))
        print(f"rmse={rmse!r} nlpd={nlpd!r}")
    print(f"wrote {args.out}: {len(rows)} predictions")
    return EXIT_OK


def cmd_sweep_resolution(args) -> int:
    rows = sweep_resolution_rows(args.d, args.n, args.epsilons, args.seeds, args.sigma2)
    write_table(args.out, args, ["d", "epsilon", "seed", "m", "wasserstein2", "cond", "cg_iterations", "status"], rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def cmd_kms_demo(args) -> int:
    rows = kms_demo_rows(args.rho, args.n, args.trials, args.seed)
    write_table(
        args.out, args, ["rho", "n", "cond", "trench_lower", "trench_upper", "err_median", "err_q25", "err_q75"], rows
    )
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def cmd_datasize_sweep(args) -> int:
    data = load_csv(args.data)
    kernel = _load_json(args.kernel, "kernel", Kernel.from_json) if args.kernel else default_kernel(data.d)
    rows = datasize_sweep_rows(data, args.n_list, args.m_list, args.methods, kernel, args.sigma2, args.steps, args.seed)
    write_table(args.out, args, ["n", "m_requested", "method", "m", "cond", "rmse", "status"], rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Every numeric flag declares its range through its type, so argparse rejects
# a value outside it as "argument --flag: ..." before any command runs.  Each
# converter takes the name of the type it parses, which keeps argparse's
# "invalid int value: 'x'" for text that is not a number.


def _int_in(lo: int, hi: float = math.inf):
    """argparse type: an int in the closed interval [lo, hi]."""
    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            bound = f">= {lo}" if hi == math.inf else f"between {lo} and {hi}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    parse.__name__ = "int"
    return parse


def _float_in(lo: float, hi: float = math.inf):
    """argparse type: a float in the open interval (lo, hi), so never nan or inf."""
    def parse(text: str) -> float:
        value = float(text)
        if not lo < value < hi:
            bound = f"finite and > {lo:g}" if hi == math.inf else f"in ({lo:g}, {hi:g})"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    parse.__name__ = "float"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="stablegp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("select", help="select inducing points from a dataset")
    s.add_argument("data")
    s.add_argument("--method", choices=["covertree", "uniform", "kmeans"], required=True)
    s.add_argument("--epsilon", type=_float_in(0.0))
    s.add_argument("--m", type=_int_in(1))
    s.add_argument("--kmeans-iters", type=_int_in(0), default=20)
    s.add_argument("--no-lloyd", action="store_true")
    s.add_argument("--no-voronoi", action="store_true")
    s.add_argument("--seed", type=_int_in(0), default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_select)

    s = sub.add_parser("fit", help="fit the clustered model, optionally training hyperparameters")
    s.add_argument("data")
    s.add_argument("z")
    s.add_argument("kernel")
    s.add_argument("--sigma2", type=_float_in(0.0), default=0.1)
    s.add_argument("--steps", type=_int_in(0), default=0)
    s.add_argument("--batch", type=_int_in(1), default=TrainConfig.batch_size)
    s.add_argument("--lr", type=_float_in(0.0), default=TrainConfig.step_size)
    s.add_argument("--probes", type=_int_in(1), default=TrainConfig.probes)
    s.add_argument("--seed", type=_int_in(0), default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("predict", help="posterior mean/stddev at query points")
    s.add_argument("model")
    s.add_argument("query")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_predict)

    s = sub.add_parser("sweep-resolution", help="accuracy/conditioning vs spatial resolution")
    s.add_argument("--d", type=int, nargs="+", choices=[1, 2, 4, 8], default=[1, 2])
    s.add_argument("--n", type=_int_in(1, _SAMPLE_MAX_POINTS), default=1000)
    s.add_argument("--epsilons", type=_float_in(0.0), nargs="+", default=[0.3, 0.6, 1.2, 2.4])
    s.add_argument("--seeds", type=_int_in(0), nargs="+", default=[0])
    s.add_argument("--sigma2", type=_float_in(0.0), default=0.1)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep_resolution)

    s = sub.add_parser("kms-demo", help="conditioning of the exponential-kernel grid matrix")
    s.add_argument("--rho", type=_float_in(0.0, 1.0), nargs="+", default=[0.9, 0.99, 0.999])
    s.add_argument("--n", type=_int_in(1), nargs="+", default=[64, 256, 1024])
    s.add_argument("--trials", type=_int_in(1), default=20)
    s.add_argument("--seed", type=_int_in(0), default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_kms_demo)

    s = sub.add_parser("datasize-sweep", help="stability/accuracy vs data size and inducing count")
    s.add_argument("data")
    # n >= 2 leaves the 80/20 split a nonempty test set
    s.add_argument("--n-list", type=_int_in(2), nargs="+", required=True)
    s.add_argument("--m-list", type=_int_in(1), nargs="+", required=True)
    s.add_argument("--methods", nargs="+", default=["covertree"], choices=["covertree", "uniform", "kmeans"])
    s.add_argument("--kernel")
    s.add_argument("--sigma2", type=_float_in(0.0), default=0.1)
    s.add_argument("--steps", type=_int_in(0), default=0)
    s.add_argument("--seed", type=_int_in(0), default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_datasize_sweep)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
