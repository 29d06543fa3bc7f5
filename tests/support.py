"""Test oracles and fixtures that the package itself does not call.

A plain module, imported by the tests as `support`: a scalar kernel
evaluation to check gram against, the Gram derivative matrices and a
training step built from them whole, to check gram_gradients' contractions
and the blocked training step against, a Rademacher trace estimator to
check the probe-based KL and training traces against, and the writer and
reader of the CSV files the command line consumes and produces.
"""

import csv
import math

import numpy as np

from stablegp import Dataset, Family, Kernel
from stablegp.kernels import _profile, _profile_radial_factor
from stablegp.sgp import _kl, _solve, _trace_probes, shifted_gram


def eval_kernel(k: Kernel, x, xp) -> float:
    """Evaluate k(x, x') for a single pair of points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xp = np.atleast_1d(np.asarray(xp, dtype=float))
    if x.shape != xp.shape or x.size != k.dim:
        raise ValueError(f"point dimensions {x.size}/{xp.size} do not match kernel dimension {k.dim}")
    u = math.sqrt(float(np.sum(((x - xp) / k.lengthscales) ** 2)))
    return float(k.variance * _profile(k.family, np.asarray(u)))


def reference_gram_gradients(k: Kernel, A, B=None):
    """(K, [dK/dlog ls_l for each l]) between A and B, every temporary a new array.

    dK/dlog variance is K itself; dK/dlog ls_l = variance g(u) diff_l^2 / ls_l^2.
    """
    A = np.asarray(A, dtype=float)
    B = A if B is None else np.asarray(B, dtype=float)
    U = np.zeros((A.shape[0], B.shape[0]))
    for l in range(A.shape[1]):
        diff = (A[:, l, None] - B[None, :, l]) / k.lengthscales[l]
        U += diff * diff
    U = np.sqrt(U)
    if k.family == Family.SQUARED_EXPONENTIAL:
        kappa = np.exp(-0.5 * U * U)
    elif k.family == Family.MATERN12:
        kappa = np.exp(-U)
    elif k.family == Family.MATERN32:
        su = math.sqrt(3.0) * U
        kappa = (1.0 + su) * np.exp(-su)
    else:
        su = math.sqrt(5.0) * U
        kappa = (1.0 + su + su * su / 3.0) * np.exp(-su)
    K = k.variance * kappa
    G = k.variance * _profile_radial_factor(k.family, U.copy())
    dK_dlogls = [G * (A[:, l, None] - B[None, :, l]) ** 2 / k.lengthscales[l] ** 2 for l in range(A.shape[1])]
    return K, dK_dlogls


def reference_objective_and_grads(model, Xb, yb, n_total, probes, seed):
    """sgp._objective_and_grads with the whole batch solved at once and every derivative matrix stored."""
    k = model.kernel
    sigma2 = model.noise_sigma2
    b = Xb.shape[0]
    c = n_total / b / (2.0 * sigma2)  # weight of the batch's squared error

    K, dK_dlogls = reference_gram_gradients(k, model.z)
    out = shifted_gram(model, K)
    kb, dkb_dlogls = reference_gram_gradients(k, model.z, Xb)
    V, w = _trace_probes(model.m, probes, seed)
    p = V.shape[1]
    sol = _solve(model, out, np.column_stack([model.u, kb, V, K @ V]))
    v, W, T, Wm = sol[:, 0], sol[:, 1 : 1 + b], sol[:, 1 + b : 1 + b + p], sol[:, 1 + b + p :]

    Kv = K @ v
    resid = yb - kb.T @ v
    sq = float(np.sum(resid**2 + k.variance - np.einsum("mb,mb->b", kb, W)))
    value = _kl(out, model.lam, v, Kv, V, Wm, w) + 0.5 * n_total * math.log(2.0 * math.pi * sigma2) + c * sq

    t2 = _solve(model, out, Kv)
    P = 0.5 * w * (T @ Wm.T) + np.outer(0.5 * v - t2 + 2.0 * c * (W @ resid), v) + c * (W @ W.T)
    Pb = -2.0 * c * (np.outer(v, resid) + W)
    # np.vdot of two real matrices is the sum of their elementwise product
    g = [np.vdot(dK, P) + np.vdot(dkb, Pb) for dK, dkb in zip([K] + dK_dlogls, [kb] + dkb_dlogls)]
    g[0] += c * b * k.variance  # d/dlog variance of the data fit's c * sum_b k(x, x)
    Ainv_diag = w * np.einsum("mp,mp->m", T, V)  # diag(A^{-1}) read through the probes
    g.append(model.lam @ (np.diag(P) + 0.5 * (Ainv_diag - v * v)) + 0.5 * (n_total - model.m) - c * sq)
    return value, np.array(g)


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
