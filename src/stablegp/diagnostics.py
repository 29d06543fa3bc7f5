"""Conditioning bounds and stability reports.

Calculators for the packing-argument eigenvalue bound of separated point
sets, the derived condition-number bound once diagonal noise is added,
the closed-form condition bracket of the exponential-kernel grid matrix,
and the conjugate-gradient iteration bound.  stability_report composes
them for a fitted clustered model.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .covertree import separation
from .kernels import DecayEnvelope, decay_envelope
from .linalg import (
    CG_DEFAULT_TOL,
    NumericalFailure,
    SpectrumSummary,
    _factor_in_place,
    cholesky_stability_predicate,
    spectrum,
)
from .sgp import _plus_lambda

__all__ = [
    "StabilityReport",
    "KmsCondBounds",
    "lambda_max_bound",
    "cond_bound_with_noise",
    "kms_cond_bounds",
    "cg_iteration_bound",
    "stability_report",
]

_TAIL_RTOL = 1e-10
_CHUNK = 4096
_MAX_TERMS = 1 << 26


def lambda_max_bound(psi: DecayEnvelope, delta: float, d: int) -> float:
    """Largest-eigenvalue bound for kernel matrices of delta-separated points.

    psi(0) + sum_{m>=1} t(m) with t(u) = ((2u+3)^d - (2u-1)^d) psi(u delta):
    the terms are summed in chunks, and once a geometric bound on the rest
    of the series drops below 1e-10 of the partial sum, the partial sum
    plus that bound is returned.  The result is therefore an upper bound of
    the whole series, up to the rounding of the sum.  Valid for any point
    set in R^d with separation >= delta, and unchanged when the points,
    delta and the lengthscale are scaled together, since only psi(m delta)
    carries a length.

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

    Proof of the tail bound.  t is log-concave on u >= 1.  Its polynomial
    factor is d times the integral over s in [-1, 3] of (2u+s)^(d-1); the
    integrand is log-concave in (u, s) on the convex set u >= 1,
    -1 <= s <= 3, where 2u+s >= 1, so by Prekopa's theorem its marginal in
    u is log-concave.  Each envelope profile is log-concave in u as well:
    exp(-u^2/2), exp(-u), (1 + x) exp(-x) and (1 + x + x^2/3) exp(-x) with
    x a positive multiple of u (the second derivative of log(1 + x + x^2/3)
    is -(1/3 + 2x/3 + 2x^2/9) / (1 + x + x^2/3)^2 < 0).  A product of
    log-concave functions is log-concave, so the ratios t(m+1)/t(m) do not
    increase with m.  With r = t(m0+1)/t(m0) < 1, every later term obeys
    t(m0+k) <= t(m0) r^k, and the terms from m0 on sum to at most
    t(m0) / (1 - r).  A term that underflows to zero ends the sum: the
    terms had to decrease to reach it, so by the same ratio argument every
    later term underflows too.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    bound = _packing_series(psi, delta, d, math.inf)
    if bound is None:
        raise ValueError("series tail does not decay; envelope decreases too slowly for this bound")
    return bound


def _packing_series(psi: DecayEnvelope, delta: float, d: int, cap: float) -> Optional[float]:
    """The series of lambda_max_bound, or None once a partial sum reaches cap or _MAX_TERMS terms pass."""
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
        if partial >= cap:
            return None
        t0, t1 = term(np.array([m0, m0 + 1], dtype=float)).tolist()
        if t0 == 0.0:
            return partial
        if t1 < t0:
            tail = t0 / (1.0 - t1 / t0)
            if tail < _TAIL_RTOL * partial:
                return partial + tail
    return None


def cond_bound_with_noise(lambda_max_bound: float, lambda_diag) -> float:
    """(C_max + max Lambda) / min Lambda for diagonal noise Lambda."""
    lam = np.asarray(lambda_diag, dtype=float).reshape(-1)
    if lam.size == 0 or not (lam > 0.0).all():
        raise ValueError("all Lambda entries must be positive")
    return (lambda_max_bound + float(lam.max())) / float(lam.min())


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
        return asdict(self)


def stability_report(model) -> StabilityReport:
    """Bound-vs-observed conditioning summary for a clustered model.

    The a priori bounds use the kernel's decay envelope at the measured
    separation of the inducing set: lambda_max_bound, or M psi(0) where that
    is smaller or undefined (coinciding points), so the report is finite
    for any inducing set.  The observed numbers come from the spectrum of
    A = K_zz + Lambda.  The CG bound is for solving A v = u, the
    inducing mean vector, at the default tolerance; its initial error
    sqrt(u^T A^{-1} u) = ||L^{-1} u|| comes from the zero-jitter Cholesky
    factor L of A, and is infinite when A does not factor, so a model that
    fails to factor still gets its report.  The Cholesky predicates are
    evaluated at matrix size max(M, 11) since the underlying result assumes
    more than 10 rows; larger n only tightens the test.
    """
    psi = decay_envelope(model.kernel)
    delta = separation(model.z)
    # |K_ij| <= psi(0), so every row sum of K_zz, and with it lambda_max, is
    # at most M psi(0) whatever the separation; the packing series replaces
    # it when the points are separated and the series sums to less.
    c_max = model.m * float(psi(0.0))
    if 0.0 < delta < math.inf:
        series = _packing_series(psi, delta, model.z.shape[1], c_max)
        if series is not None:
            c_max = min(c_max, series)
    cond_bound = cond_bound_with_noise(c_max, model.lam)

    A = _plus_lambda(model)
    observed = spectrum(A)

    u_norm = float(np.linalg.norm(model.u))
    cg_bound = 0.0 if u_norm == 0.0 else math.inf
    if u_norm > 0.0 and math.isfinite(observed.cond):
        try:
            L = _factor_in_place(A, "kzz_plus_lambda").factor  # nothing reads A after its spectrum
        except NumericalFailure:
            pass  # the bound stays infinite
        else:
            e0 = float(np.linalg.norm(solve_triangular(L, model.u, lower=True, check_finite=False)))
            eps_a = CG_DEFAULT_TOL * u_norm / math.sqrt(observed.lambda_max)
            cg_bound = cg_iteration_bound(observed.cond, e0, eps_a)

    n_pred = max(model.m, 11)
    ok_single = cholesky_stability_predicate(observed.cond, n_pred, 23) if math.isfinite(observed.cond) else False
    ok_double = cholesky_stability_predicate(observed.cond, n_pred, 52) if math.isfinite(observed.cond) else False
    return StabilityReport(c_max, cond_bound, observed, cg_bound, ok_single, ok_double)
