"""Conditioning-aware dense linear algebra.

Cholesky with jitter escalation and failure-as-value, conjugate gradients
with iteration accounting, spectrum/condition estimation, Hutchinson trace
estimation, and the closed-form 2-Wasserstein distance between Gaussians.

Every factorization and solve performed through this module is appended to
SOLVE_LOG (kind, tag, n and, for cho_solve and cg_multi, the number of
right-hand sides), which is how the no-bare-K_zz discipline of the sparse GP
fitting path is asserted in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy import linalg as sla

__all__ = [
    "NumericalFailure",
    "CholeskyStatus",
    "CholeskyOutcome",
    "CGReport",
    "SpectrumMethod",
    "SpectrumSummary",
    "JitterPolicy",
    "SOLVE_LOG",
    "reset_solve_log",
    "cholesky",
    "cho_solve",
    "conjugate_gradient",
    "cg_multi",
    "spectrum",
    "hutchinson_trace",
    "wasserstein2_gaussians",
    "cholesky_stability_predicate",
]

CG_DEFAULT_TOL = 1e-8


class NumericalFailure(RuntimeError):
    """A linear solve or factorization failed beyond recovery."""

# Global append-only record of solves/factorizations: dicts with keys
# kind ("cholesky" | "cho_solve" | "cg"), tag (caller-supplied label, which a
# cho_solve inherits from its factorization), n (system size) and, for
# cho_solve and cg_multi, rhs (number of right-hand sides).
SOLVE_LOG: list[dict] = []


def reset_solve_log() -> None:
    SOLVE_LOG.clear()


class CholeskyStatus(str, Enum):
    SUCCESS = "Success"
    FAILURE = "Failure"


@dataclass(frozen=True)
class CholeskyOutcome:
    status: CholeskyStatus
    factor: Optional[np.ndarray]  # lower triangular on success
    jitter_used: float
    tag: str = ""  # the label given to cholesky(), carried into cho_solve's log entries


@dataclass(frozen=True)
class CGReport:
    solution: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


class SpectrumMethod(str, Enum):
    EXACT_EIG = "ExactEig"
    LANCZOS = "Lanczos"


@dataclass(frozen=True)
class SpectrumSummary:
    lambda_max: float
    lambda_min: float
    cond: float
    method: SpectrumMethod


@dataclass(frozen=True)
class JitterPolicy:
    """Escalation schedule for Cholesky jitter, relative amounts are absolute."""

    initial: float
    factor: float = 10.0
    max: float = math.inf

    @staticmethod
    def default_for(A: np.ndarray) -> "JitterPolicy":
        mean_diag = float(np.mean(np.diag(A)))
        scale = mean_diag if mean_diag > 0.0 else 1.0
        return JitterPolicy(initial=1e-6 * scale, factor=10.0, max=1e-2 * scale)


def _check_symmetric(A: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    # max|A| and max|A - A.T| without the abs temporaries: fl(a - b) = -fl(b - a),
    # so the largest entry of A - A.T is its largest magnitude.  A NaN entry
    # makes both maxima NaN, so such a matrix passes this check.
    scale = max(1.0, float(A.max()), float(-A.min()))
    if (A - A.T).max() > rtol * scale:
        raise ValueError("matrix is not symmetric")
    return A


def cholesky(A: np.ndarray, jitter_policy: Optional[JitterPolicy] = None, tag: str = "") -> CholeskyOutcome:
    """Lower Cholesky factor of A, escalating diagonal jitter on failure.

    Tries jitter 0 first, then policy.initial escalating geometrically by
    policy.factor until policy.max.  A failed escalation is returned as a
    Failure value, not raised.
    """
    A = _check_symmetric(A)
    if jitter_policy is None:
        jitter_policy = JitterPolicy.default_for(A)
    SOLVE_LOG.append({"kind": "cholesky", "tag": tag, "n": A.shape[0]})
    jitter = 0.0
    while True:
        try:
            L = sla.cholesky(A if jitter == 0.0 else A + jitter * np.eye(A.shape[0]), lower=True, check_finite=False)
            return CholeskyOutcome(CholeskyStatus.SUCCESS, L, jitter, tag)
        except np.linalg.LinAlgError:
            pass
        if jitter == 0.0:
            jitter = jitter_policy.initial
        else:
            jitter *= jitter_policy.factor
        if jitter > jitter_policy.max or jitter <= 0.0 or not math.isfinite(jitter):
            return CholeskyOutcome(CholeskyStatus.FAILURE, None, 0.0, tag)


def cho_solve(outcome: CholeskyOutcome, B: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = B given a successful factorization."""
    if outcome.status is not CholeskyStatus.SUCCESS:
        raise ValueError("cannot solve with a failed Cholesky factorization")
    rhs = 1 if np.ndim(B) == 1 else np.shape(B)[1]
    SOLVE_LOG.append({"kind": "cho_solve", "tag": outcome.tag, "n": outcome.factor.shape[0], "rhs": rhs})
    return sla.cho_solve((outcome.factor, True), B, check_finite=False)


def conjugate_gradient(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = CG_DEFAULT_TOL,
    max_iter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
    tag: str = "",
) -> CGReport:
    """Conjugate gradients for SPD systems, relative-residual stopping rule.

    Stops as soon as ||b - A x||_2 <= tol * ||b||_2.  Reaching max_iter is
    reported via converged=False; NaN appearing in the iterates is an error.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    SOLVE_LOG.append({"kind": "cg", "tag": tag, "n": n})
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - matvec(x) if x0 is not None else b.copy()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CGReport(np.zeros_like(b), 0, 0.0, True)
    res = float(np.linalg.norm(r))
    if res <= tol * b_norm:
        return CGReport(x, 0, res, True)
    p = r.copy()
    rs = float(r @ r)
    for it in range(1, max_iter + 1):
        Ap = matvec(p)
        alpha = rs / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        if not math.isfinite(rs_new):
            raise FloatingPointError("NaN/Inf encountered in CG iterates")
        res = math.sqrt(rs_new)
        if res <= tol * b_norm:
            return CGReport(x, it, res, True)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return CGReport(x, max_iter, res, False)


def cg_multi(
    A: np.ndarray,
    B: np.ndarray,
    tol: float = CG_DEFAULT_TOL,
    max_iter: Optional[int] = None,
    tag: str = "",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CG on several right-hand sides at once (columns of B), from x0 = 0.

    Each column runs an independent CG recurrence; the iterations are merely
    batched into single BLAS calls.  Converged columns are frozen.  Returns
    (X, iterations_per_column, residual_norm_per_column).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    single = B.ndim == 1
    if single:
        B = B[:, None]
    n, k = B.shape
    if max_iter is None:
        max_iter = 10 * n
    SOLVE_LOG.append({"kind": "cg", "tag": tag, "n": n, "rhs": k})
    X = np.zeros_like(B)
    R = B.copy()
    b_norm = np.linalg.norm(B, axis=0)
    thresholds = tol * np.where(b_norm > 0.0, b_norm, 1.0)
    active = np.linalg.norm(R, axis=0) > thresholds
    iters = np.zeros(k, dtype=int)
    P = R.copy()
    rs = np.einsum("ij,ij->j", R, R)
    for _ in range(max_iter):
        if not np.any(active):
            break
        AP = A @ P[:, active]
        pAp = np.einsum("ij,ij->j", P[:, active], AP)
        # curvature breakdown (pAp <= 0 only happens off the SPD contract):
        # freeze the offending columns and let the residual gate report them
        broken = ~(pAp > 0.0)
        if np.any(broken):
            idx = np.flatnonzero(active)
            active[idx[broken]] = False
            if not np.any(active):
                break
            AP = AP[:, ~broken]
            pAp = pAp[~broken]
        alpha = rs[active] / pAp
        X[:, active] += alpha * P[:, active]
        R[:, active] -= alpha * AP
        rs_new = np.einsum("ij,ij->j", R[:, active], R[:, active])
        if not np.all(np.isfinite(rs_new)):
            raise FloatingPointError("NaN/Inf encountered in CG iterates")
        iters[active] += 1
        beta = rs_new / rs[active]
        P[:, active] = R[:, active] + beta * P[:, active]
        rs[active] = rs_new
        still = np.sqrt(rs_new) > thresholds[active]
        idx = np.flatnonzero(active)
        active[idx[~still]] = False
    res = np.linalg.norm(B - A @ X, axis=0)
    if single:
        return X[:, 0], iters[0], res[0]
    return X, iters, res


def _lanczos_extremes(A: np.ndarray, iters: int = 100, seed: int = 0) -> tuple[float, float]:
    """Extremal eigenvalue estimates by Lanczos with full reorthogonalization."""
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    m = min(iters, n)
    Q = np.zeros((n, m))
    alphas, betas = [], []
    beta = 0.0
    q_prev = np.zeros(n)
    for j in range(m):
        Q[:, j] = q
        w = A @ q
        alpha = float(q @ w)
        alphas.append(alpha)
        w = w - alpha * q - beta * q_prev
        # full reorthogonalization against all previous Lanczos vectors
        w -= Q[:, : j + 1] @ (Q[:, : j + 1].T @ w)
        beta = float(np.linalg.norm(w))
        if beta < 1e-14:
            break
        betas.append(beta)
        q_prev = q
        q = w / beta
    T = np.diag(alphas)
    if betas:
        off = np.array(betas[: len(alphas) - 1])
        T += np.diag(off, 1) + np.diag(off, -1)
    ev = np.linalg.eigvalsh(T)
    return float(ev[-1]), float(ev[0])


def spectrum(A: np.ndarray) -> SpectrumSummary:
    """Extremal eigenvalues and condition number of a symmetric matrix.

    Dense symmetric eigendecomposition up to n = 4096; Lanczos (100 steps,
    full reorthogonalization) beyond that.  A nonpositive minimum eigenvalue
    is reported with cond = +inf rather than raised.
    """
    A = _check_symmetric(A)
    n = A.shape[0]
    if n <= 4096:
        ev = np.linalg.eigvalsh(A)
        lam_max, lam_min = float(ev[-1]), float(ev[0])
        method = SpectrumMethod.EXACT_EIG
    else:
        lam_max, lam_min = _lanczos_extremes(A)
        method = SpectrumMethod.LANCZOS
    cond = lam_max / lam_min if lam_min > 0.0 else math.inf
    return SpectrumSummary(lam_max, lam_min, cond, method)


def hutchinson_trace(
    matvec: Callable[[np.ndarray], np.ndarray], n: int, probes: int, seed: int
) -> dict:
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


def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; eigenvalues below 1e-12 * lambda_max -> 0."""
    w, V = np.linalg.eigh(S)
    floor = 1e-12 * max(float(w[-1]), 0.0)
    w = np.where(w < floor, 0.0, w)
    return (V * np.sqrt(w)) @ V.T


def wasserstein2_gaussians(mu1: np.ndarray, S1: np.ndarray, mu2: np.ndarray, S2: np.ndarray) -> float:
    """2-Wasserstein distance between N(mu1, S1) and N(mu2, S2)."""
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    if mu1.shape != mu2.shape or S1.shape != S2.shape or S1.shape[0] != mu1.size:
        raise ValueError("dimension mismatch between means and covariances")
    root1 = _psd_sqrt(np.asarray(S1, dtype=float))
    inner = root1 @ np.asarray(S2, dtype=float) @ root1
    cross = _psd_sqrt((inner + inner.T) / 2.0)
    gap = float(np.trace(S1) + np.trace(S2) - 2.0 * np.trace(cross))
    d2 = float(np.sum((mu1 - mu2) ** 2)) + max(gap, 0.0)
    return math.sqrt(max(d2, 0.0))


def cholesky_stability_predicate(cond: float, n: int, mantissa_bits: int) -> bool:
    """Sufficient condition for floating-point Cholesky success.

    True iff cond <= 1/(2^-t * 3.9 * n^(3/2)) and 3 n 2^-t < 0.1, where t is
    the mantissa length.  The underlying result assumes n > 10.
    """
    if n <= 10:
        raise ValueError("predicate requires n > 10")
    u = 2.0 ** (-mantissa_bits)
    return cond <= 1.0 / (u * 3.9 * n**1.5) and 3.0 * n * u < 0.1
