"""Test oracles and fixtures that the package itself does not call.

A plain module, imported by the tests as `support`: a scalar kernel
evaluation to check gram against, a Rademacher trace estimator to check the
probe-based KL and training traces against, and the writer and reader of the
CSV files the command line consumes and produces.
"""

import csv
import math

import numpy as np

from stablegp import Dataset, Kernel
from stablegp.kernels import _profile


def eval_kernel(k: Kernel, x, xp) -> float:
    """Evaluate k(x, x') for a single pair of points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xp = np.atleast_1d(np.asarray(xp, dtype=float))
    if x.shape != xp.shape or x.size != k.dim:
        raise ValueError(f"point dimensions {x.size}/{xp.size} do not match kernel dimension {k.dim}")
    u = math.sqrt(float(np.sum(((x - xp) / k.lengthscales) ** 2)))
    return float(k.variance * _profile(k.family, np.asarray(u)))


def hutchinson_trace(matvec, n: int, probes: int, seed: int) -> dict:
    """Rademacher trace estimator: average of v^T A v over probe vectors."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    rng = np.random.default_rng(seed)
    quads = np.empty(probes)
    for i in range(probes):
        v = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
        quads[i] = float(v @ matvec(v))
    estimate = float(np.mean(quads))
    stderr = float(np.std(quads, ddof=1) / math.sqrt(probes)) if probes > 1 else 0.0
    return {"estimate": estimate, "stderr": stderr}


def write_csv_dataset(path: str, data: Dataset) -> None:
    """data as a CSV with header x1,...,xd,y and every value written by repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i + 1}" for i in range(data.d)] + ["y"])
        for xi, yi in zip(data.X, data.y):
            w.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


def read_table(path: str):
    """Provenance metadata and rows (numeric fields parsed) of a table."""
    meta, rows = {}, []
    with open(path, newline="") as fh:
        header_lines = []
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key] = val
            else:
                header_lines.append(line)
                break
        reader = csv.DictReader(header_lines + list(fh))
        for raw in reader:
            row = {}
            for k, v in raw.items():
                try:
                    row[k] = float(v)
                except (TypeError, ValueError):
                    row[k] = v
            rows.append(row)
    return meta, rows
