"""Conditioning-aware dense linear algebra.

Cholesky that returns a factor of the matrix itself or raises
NumericalFailure, conjugate gradients with iteration accounting, exact
extremal eigenvalues and condition numbers, and the closed-form 2-Wasserstein
distance between Gaussians.  It holds no numerical policy: the package
factors only K_zz + Lambda, whose conditioning separation bounds, so no
jitter is tried anywhere.  It keeps no record: only inside a
`with solve_log() as log:` block is each factorization and solve made here
appended to log, which is how tests assert the no-bare-K_zz discipline of
the sparse GP fitting path.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np
from scipy import linalg as sla

__all__ = [
    "NumericalFailure",
    "CholeskyOutcome",
    "CGReport",
    "SpectrumSummary",
    "solve_log",
    "cholesky",
    "cho_solve",
    "conjugate_gradient",
    "spectrum",
    "wasserstein2_gaussians",
    "cholesky_stability_predicate",
]

CG_DEFAULT_TOL = 1e-8


class NumericalFailure(RuntimeError):
    """A linear solve or factorization failed beyond recovery."""

# The logs of the open solve_log() blocks, keyed by id so equal logs stay apart.
_OPEN_LOGS: dict[int, list] = {}


@contextmanager
def solve_log() -> Iterator[list]:
    """A list that receives every factorization and solve made while the block is open.

    Entries are dicts: kind ("cholesky" | "cho_solve" | "cg"), tag (a
    cho_solve inherits its factorization's), n and, for cho_solve, rhs;
    cg_multi records one "cg" entry per column of B.  Nested blocks each get
    every entry.
    """
    log: list[dict] = []
    _OPEN_LOGS[id(log)] = log
    try:
        yield log
    finally:
        del _OPEN_LOGS[id(log)]


def _record(entry: dict) -> None:
    for log in _OPEN_LOGS.values():
        log.append(entry)


@dataclass(frozen=True)
class CholeskyOutcome:
    factor: np.ndarray  # lower triangular
    jitter_used: float  # always 0.0; kept only because perfbench/tracer.py reads it
    tag: str = ""  # the label given to cholesky(), carried into cho_solve's log entries


@dataclass(frozen=True)
class CGReport:
    solution: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


@dataclass(frozen=True)
class SpectrumSummary:
    lambda_max: float
    lambda_min: float
    cond: float


# Largest |A - A.T| entry accepted as symmetric, relative to max(1, max|A|).
_SYMMETRY_RTOL = 1e-8

# Most entries in one row block of _check_symmetric's comparison (256 KiB).
_BLOCK = 1 << 15


def _check_symmetric(A: np.ndarray) -> np.ndarray:
    """A as a float array, or ValueError unless it is square and symmetric to _SYMMETRY_RTOL.

    A - A.T is formed r rows at a time, with r n at most _BLOCK, so no n x n
    temporary is made; the verdict is that of one check on all of A - A.T.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    n = A.shape[0]
    if n == 0:
        return A  # the empty matrix is symmetric, and has no maximum to scale by
    # max|A| and max|A - A.T| without the abs temporaries: fl(a - b) = -fl(b - a),
    # so the largest entry of A - A.T is the largest magnitude in its upper
    # triangle, diagonal included.  D is rows [i, i + r) of A - A.T from
    # column i on, which hold those rows of that triangle.  A NaN entry makes
    # the maximum NaN, so such a matrix passes this check.
    scale = max(1.0, float(A.max()), float(-A.min()))
    worst = 0.0
    rows = max(1, _BLOCK // n)
    for i in range(0, n, rows):
        D = np.subtract(A[i : i + rows, i:], A[i:, i : i + rows].T)
        hi, lo = float(D.max()), float(D.min())
        if math.isnan(hi):
            return A
        worst = max(worst, hi, -lo)
    if worst > _SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric")
    return A


def _factor_in_place(A: np.ndarray, tag: str) -> CholeskyOutcome:
    """Lower Cholesky factor of A, written over A, or NumericalFailure naming the tag and n.

    LAPACK factors the lower triangle of A.T, which for a C-ordered A is the
    Fortran-ordered view of A's own memory: there is no transposing copy and
    the factor returned lies in A.  A.T's lower triangle is A's upper one,
    so for an exactly symmetric A, as every matrix the package factors is,
    the factor is bit for bit cholesky(A)'s.  After a failure A holds a
    partial factor.
    """
    A = _check_symmetric(A)
    n = A.shape[0]
    _record({"kind": "cholesky", "tag": tag, "n": n})
    try:
        return CholeskyOutcome(sla.cholesky(A.T, lower=True, overwrite_a=True, check_finite=False), 0.0, tag)
    except np.linalg.LinAlgError:
        raise NumericalFailure(f"Cholesky factorization {tag!r} failed: n={n}") from None


def cholesky(A: np.ndarray, tag: str = "") -> CholeskyOutcome:
    """Lower Cholesky factor of A itself, or NumericalFailure naming the tag and n.

    A is copied, never written to, and its lower triangle is the one
    factored: the copy is Fortran-ordered, so _factor_in_place gets its
    C-ordered transpose.  No jitter is ever added, so jitter_used is always 0.
    """
    return _factor_in_place(np.array(A, dtype=float, order="F").T, tag)


def cho_solve(outcome: CholeskyOutcome, B: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = B given a factorization."""
    rhs = 1 if np.ndim(B) == 1 else np.shape(B)[1]
    _record({"kind": "cho_solve", "tag": outcome.tag, "n": outcome.factor.shape[0], "rhs": rhs})
    return sla.cho_solve((outcome.factor, True), B, check_finite=False)


def conjugate_gradient(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = CG_DEFAULT_TOL,
    max_iter: Optional[int] = None,
    tag: str = "",
) -> CGReport:
    """Conjugate gradients for SPD systems from x0 = 0, relative-residual stopping rule.

    Stops as soon as ||b - A x||_2 <= tol * ||b||_2.  Reaching max_iter is
    reported via converged=False; NaN or Inf in the iterates raises NumericalFailure.
    CG is linear in b, so it runs exactly on b / 2^e, with 2^e the power of
    two just above max|b|: ||b|| can then neither underflow nor overflow.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    _record({"kind": "cg", "tag": tag, "n": n})
    e = math.frexp(float(np.abs(b).max(initial=0.0)))[1]
    b = np.ldexp(b, -e)
    x, r, p = np.zeros_like(b), b, b
    rs = float(r @ r)
    res = math.sqrt(rs)
    threshold = tol * res
    it = 0
    while not res <= threshold and it < max_iter:  # NaN in b enters, and raises below
        it += 1
        Ap = matvec(p)
        alpha = rs / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        if not math.isfinite(rs_new):
            raise NumericalFailure("NaN/Inf encountered in CG iterates")
        res = math.sqrt(rs_new)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return CGReport(np.ldexp(x, e), it, float(np.ldexp(res, e)), res <= threshold)


def cg_multi(
    A: np.ndarray,
    B: np.ndarray,
    tol: float = CG_DEFAULT_TOL,
    max_iter: Optional[int] = None,
    tag: str = "",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """conjugate_gradient(lambda v: A @ v, column, tol, max_iter, tag) on each column of B.

    Returns X, the iterations and the true residual norms ||B - A X|| per
    column (scalars for a 1-d B), by BLAS nrm2, which does not overflow or
    underflow where the norm itself is representable.  The package does not
    call it; it stays, with its argument B, only because perfbench/tracer.py
    wraps it by name.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    single = B.ndim == 1
    if single:
        B = B[:, None]
    X = np.zeros_like(B)
    iters = np.zeros(B.shape[1], dtype=int)
    for j, column in enumerate(B.T):
        report = conjugate_gradient(lambda v: A @ v, column, tol, max_iter, tag)
        X[:, j], iters[j] = report.solution, report.iterations
    res = np.array([sla.norm(column, check_finite=False) for column in (B - A @ X).T])
    if single:
        return X[:, 0], iters[0], res[0]
    return X, iters, res


def spectrum(A: np.ndarray) -> SpectrumSummary:
    """Extremal eigenvalues and condition number of a symmetric matrix.

    Dense symmetric eigenvalues (LAPACK via np.linalg.eigvalsh) at every n,
    so the reported condition number is never under-reported; the cost is
    O(n^3).  A nonpositive minimum eigenvalue is reported with cond = +inf
    rather than raised.
    """
    ev = np.linalg.eigvalsh(_check_symmetric(A))
    lam_max, lam_min = float(ev[-1]), float(ev[0])
    cond = lam_max / lam_min if lam_min > 0.0 else math.inf
    return SpectrumSummary(lam_max, lam_min, cond)


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
