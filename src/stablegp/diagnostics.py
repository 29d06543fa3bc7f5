"""Conditioning bounds and stability reports.

Calculators for the packing-argument eigenvalue bound of separated point
sets, the derived condition-number bound once diagonal noise is added,
Gershgorin intervals, the closed-form condition bracket of the
exponential-kernel grid matrix, and the conjugate-gradient iteration
bound.  stability_report composes them for a fitted clustered model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .covertree import separation
from .kernels import DecayEnvelope, decay_envelope
from .linalg import (
    CG_DEFAULT_TOL,
    SpectrumSummary,
    cholesky_stability_predicate,
    spectrum,
)
from .sgp import shifted_gram

__all__ = [
    "StabilityReport",
    "KmsCondBounds",
    "lambda_max_bound",
    "cond_bound_with_noise",
    "gershgorin_bounds",
    "kms_cond_bounds",
    "cg_iteration_bound",
    "stability_report",
]

_TAIL_RTOL = 1e-10
_CHUNK = 4096
_MAX_TERMS = 1 << 26


def lambda_max_bound(psi: DecayEnvelope, delta: float, d: int) -> float:
    """Largest-eigenvalue bound for kernel matrices of delta-separated points.

    psi(0) + sum_{m>=1} ((2m+3)^d - (2m-1)^d) psi(m delta), with the series
    truncated once the integral-test tail bound drops below 1e-10 of the
    partial sum.  Valid for any point set in R^d with separation >= delta,
    and unchanged when the points, delta and the lengthscale are scaled
    together, since only psi(m delta) carries a length.

    Proof (a Gershgorin row bound).  K is symmetric, so lambda_max(K) <=
    max_i sum_j |K_ij|.  Fix row i.  The diagonal entry is psi(0).  Any other
    x_j lies at distance r >= delta from x_i, so r is in [m delta,
    (m+1) delta) for one m >= 1, and |K_ij| <= psi(r) <= psi(m delta)
    because the envelope is nonincreasing.  The open balls of radius
    delta/2 around the points are pairwise disjoint, and for the x_j of
    shell m they lie inside the annulus of radii (m - 1/2) delta and
    (m + 3/2) delta around x_i.  Comparing volumes, shell m holds at most
    ((m + 3/2)^d - (m - 1/2)^d) / (1/2)^d = (2m+3)^d - (2m-1)^d points, a
    count free of units.  Summing over the shells bounds the row.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    head = float(psi(0.0))

    def term(u):
        return ((2.0 * u + 3.0) ** d - (2.0 * u - 1.0) ** d) * psi(u * delta)

    series = 0.0
    m0 = 1
    while m0 < _MAX_TERMS:
        ms = np.arange(m0, m0 + _CHUNK, dtype=float)
        terms = term(ms)
        series += float(terms.sum())
        m0 += _CHUNK
        partial = head + series
        # The integral test needs a decreasing integrand from the cut point on.
        if np.all(np.diff(terms) <= 0.0):
            from scipy.integrate import quad  # deferred: scipy.integrate would slow every command's start-up

            tail, _ = quad(term, m0 - 0.5, np.inf, limit=200)
            if tail < _TAIL_RTOL * partial:
                return partial
    raise ValueError("series tail does not decay; envelope decreases too slowly for this bound")


def cond_bound_with_noise(lambda_max_bound: float, lambda_diag) -> float:
    """(C_max + max Lambda) / min Lambda for diagonal noise Lambda."""
    lam = np.asarray(lambda_diag, dtype=float).reshape(-1)
    if lam.size == 0 or not (lam > 0.0).all():
        raise ValueError("all Lambda entries must be positive")
    return (lambda_max_bound + float(lam.max())) / float(lam.min())


def gershgorin_bounds(A: np.ndarray) -> dict:
    """Disc bounds on the spectrum: {upper, lower} from rows of A."""
    A = np.asarray(A, dtype=float)
    diag = np.diag(A)
    radii = np.abs(A).sum(axis=1) - np.abs(diag)
    return {"upper": float((diag + radii).max()), "lower": float((diag - radii).min())}


@dataclass(frozen=True)
class KmsCondBounds:
    lower: float
    upper: Optional[float]  # None when the hypothesis (1-rho)^2 > 2 rho eps fails


def kms_cond_bounds(rho: float, n: int) -> KmsCondBounds:
    """Condition-number bracket for the matrix rho^|i-j| of size n.

    With eps = pi^2/(n+1)^2:

        lower = ((1+rho)^2 - 2 rho eps) / ((1-rho)^2 + 2 rho eps)
        upper = ((1+rho)^2 + 2 rho eps) / ((1-rho)^2 - 2 rho eps)

    the upper defined only if (1-rho)^2 > 2 rho eps.  The finite-n condition
    number approaches its n -> inf limit (1+rho)^2/(1-rho)^2 from below, so
    the eps slack must be applied on both sides of the bracket; the limit
    itself is an upper estimate of the lower end, not a valid lower bound.

    The limit does bound the condition number from above at every n: the
    eigenvalues of each finite section lie inside the symbol's range
    [(1-rho)/(1+rho), (1+rho)/(1-rho)].  The finite-n upper above is never
    tighter than that limit; it is kept, as None where undefined, because it
    is the closed form the bracket states.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = math.pi**2 / (n + 1) ** 2
    corr = 2.0 * rho * eps
    lower = max(((1.0 + rho) ** 2 - corr) / ((1.0 - rho) ** 2 + corr), 1.0)
    upper = None
    if (1.0 - rho) ** 2 > corr:
        upper = ((1.0 + rho) ** 2 + corr) / ((1.0 - rho) ** 2 - corr)
    return KmsCondBounds(lower, upper)


def cg_iteration_bound(cond: float, initial_error_norm: float, eps: float) -> float:
    """Sufficient CG iteration count: log(2 ||e0||_A / eps) / log(1 + 2/(sqrt(cond)+1)).

    Error norms are energy norms.  Infinite condition numbers give an
    infinite bound; targets already met at the start give 0.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if not cond >= 1.0:
        raise ValueError("cond must be >= 1")
    if initial_error_norm < 0.0:
        raise ValueError("initial_error_norm must be nonnegative")
    if math.isinf(cond):
        return math.inf
    ratio = 2.0 * initial_error_norm / eps
    if ratio <= 1.0:
        return 0.0
    return math.log(ratio) / math.log1p(2.0 / (math.sqrt(cond) + 1.0))


@dataclass(frozen=True)
class StabilityReport:
    lambda_max_bound: float
    cond_bound: float
    observed: SpectrumSummary
    cg_iteration_bound: float
    cholesky_ok_single: bool
    cholesky_ok_double: bool

    def to_json(self) -> dict:
        return {
            "lambda_max_bound": self.lambda_max_bound,
            "cond_bound": self.cond_bound,
            "observed": {
                "lambda_max": self.observed.lambda_max,
                "lambda_min": self.observed.lambda_min,
                "cond": self.observed.cond,
                "method": self.observed.method.value,
            },
            "cg_iteration_bound": self.cg_iteration_bound,
            "cholesky_ok_single": self.cholesky_ok_single,
            "cholesky_ok_double": self.cholesky_ok_double,
        }


def stability_report(model) -> StabilityReport:
    """Bound-vs-observed conditioning summary for a clustered model.

    The a priori bounds use the kernel's decay envelope at the measured
    separation of the inducing set; the observed numbers come from the
    spectrum of A = K_zz + Lambda.  The CG bound is for solving A v = u, the
    inducing mean vector, at the default tolerance; its initial error
    sqrt(u^T A^{-1} u) = ||L^{-1} u|| comes from the zero-jitter Cholesky
    factor L = shifted_gram(model), which raises NumericalFailure if A does
    not factor.  The Cholesky predicates are evaluated at matrix size
    max(M, 11) since the underlying result assumes more than 10 rows; larger
    n only tightens the test.
    """
    psi = decay_envelope(model.kernel)
    delta = separation(model.z)
    d = model.z.shape[1]
    c_max = float(psi(0.0)) if math.isinf(delta) else lambda_max_bound(psi, delta, d)
    cond_bound = cond_bound_with_noise(c_max, model.lam)

    A, out = shifted_gram(model)
    observed = spectrum(A)

    u_norm = float(np.linalg.norm(model.u))
    if u_norm == 0.0 or not math.isfinite(observed.cond):
        cg_bound = 0.0 if u_norm == 0.0 else math.inf
    else:
        e0 = float(np.linalg.norm(solve_triangular(out.factor, model.u, lower=True, check_finite=False)))
        eps_a = CG_DEFAULT_TOL * u_norm / math.sqrt(observed.lambda_max)
        cg_bound = cg_iteration_bound(observed.cond, e0, eps_a)

    n_pred = max(model.m, 11)
    ok_single = cholesky_stability_predicate(observed.cond, n_pred, 23) if math.isfinite(observed.cond) else False
    ok_double = cholesky_stability_predicate(observed.cond, n_pred, 52) if math.isfinite(observed.cond) else False
    return StabilityReport(c_max, cond_bound, observed, cg_bound, ok_single, ok_double)
