"""Gaussian process posteriors and the clustered-data approximation.

Two posteriors live here: the clustered-data approximation, whose inducing
values are cluster target means with per-cluster noise sigma^2 / N_cl, and
the exact GP, which is the clustered model with one point per cluster
(z = X, u = y, Lambda = sigma^2 I).  The clustered posterior coincides with
the exact posterior on the dataset whose inputs are snapped to their
nearest inducing point, and every linear solve it performs is against
K_zz + Lambda, never against K_zz alone.  Separation bounds the condition
number of that matrix, so it is factored once per model or training step
by a plain Cholesky with no jitter (shifted_gram), and every solve goes
through that factor.  That is the only factorization made here, and no
jitter is tried anywhere: a failed factorization or solve raises
NumericalFailure.  sample_targets draws synthetic targets from
N(0, K_xx + sigma^2 I) through the factor the exact posterior given them
uses, so a synthetic problem costs one Cholesky.  The training loop
optimizes kernel hyperparameters and the noise by stochastic first-order
steps with analytic gradients; the trace terms of those gradients can be
estimated with Hutchinson probes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covertree import cluster_assign
from .kernels import Kernel, gram, gram_gradients
from .linalg import CholeskyOutcome, NumericalFailure, cho_solve, cholesky

__all__ = [
    "Dataset",
    "ClusteredModel",
    "GaussianBelief",
    "TrainConfig",
    "TrainResult",
    "exact_posterior",
    "fit_clustered",
    "clustered_posterior",
    "kl_to_prior",
    "training_objective",
    "train",
    "sample_targets",
]

# Largest true relative residual accepted from a solve against K_zz + Lambda,
# well below the 1e-8 accuracy the posterior promises.
_RESIDUAL_ACCEPT = 1e-9

# Most query points a diagonal-only clustered posterior handles at once: its
# working memory is O(M * _QUERY_BLOCK) whatever the number of queries.
_QUERY_BLOCK = 2048

# Most points sample_targets draws at, to bound its n x n Gram.
_SAMPLE_MAX_POINTS = 5000


def _as_matrix(X) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-d array of points")
    return X


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray  # (N, d)
    y: np.ndarray  # (N,)

    def __post_init__(self):
        X = _as_matrix(self.X)
        y = np.ascontiguousarray(self.y, dtype=float)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("targets must be a vector matching the number of rows of X")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=int)
        return Dataset(self.X[idx], self.y[idx])


@dataclass(frozen=True)
class ClusteredModel:
    kernel: Kernel
    noise_sigma2: float
    z: np.ndarray  # (M, d)
    u: np.ndarray  # (M,) cluster target means
    lam: np.ndarray  # (M,) per-cluster noise sigma^2 / N_cl
    cluster_counts: np.ndarray  # (M,)

    def __post_init__(self):
        z = _as_matrix(self.z)
        u = np.ascontiguousarray(self.u, dtype=float).reshape(-1)
        lam = np.ascontiguousarray(self.lam, dtype=float).reshape(-1)
        counts = np.ascontiguousarray(self.cluster_counts, dtype=int).reshape(-1)
        if not (len(u) == len(lam) == len(counts) == z.shape[0]):
            raise ValueError("z, u, lambda and cluster_counts must have matching lengths")
        if self.kernel.dim != z.shape[1]:
            raise ValueError(f"inducing points have dimension {z.shape[1]}, kernel expects {self.kernel.dim}")
        if not 0.0 < self.noise_sigma2 < math.inf:
            raise ValueError("noise_sigma2 must be finite and positive")
        if not ((lam > 0.0) & (lam < math.inf)).all():
            raise ValueError("all lambda entries must be finite and positive")
        if not (np.isfinite(u).all() and np.isfinite(z).all()):
            raise ValueError("z and u must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "cluster_counts", counts)

    @property
    def m(self) -> int:
        return self.z.shape[0]

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel.to_json(),
            "sigma2": self.noise_sigma2,
            "z": self.z.tolist(),
            "u": self.u.tolist(),
            "lambda": self.lam.tolist(),
            "counts": self.cluster_counts.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "ClusteredModel":
        return ClusteredModel(
            kernel=Kernel.from_json(obj["kernel"]),
            noise_sigma2=float(obj["sigma2"]),
            z=np.asarray(obj["z"], dtype=float),
            u=np.asarray(obj["u"], dtype=float),
            lam=np.asarray(obj["lambda"], dtype=float),
            cluster_counts=np.asarray(obj["counts"], dtype=int),
        )


@dataclass(frozen=True)
class GaussianBelief:
    """Posterior mean and marginal variances at the query points.

    var is the diagonal of the covariance and is always present; cov is the
    full Q x Q covariance, or None when only the diagonal was computed
    (clustered_posterior with full_cov=False).
    """

    mean: np.ndarray
    var: np.ndarray
    cov: Optional[np.ndarray]


def _exact_as_clustered(kernel: Kernel, sigma2: float, X: np.ndarray, y: np.ndarray) -> ClusteredModel:
    """The exact GP on (X, y) as the clustered model with one point per cluster."""
    return ClusteredModel(kernel, sigma2, X, y, np.full(len(y), sigma2), np.ones(len(y), dtype=int))


def exact_posterior(data: Dataset, kernel: Kernel, sigma2: float, query) -> GaussianBelief:
    """Dense exact GP posterior at the query points.

    The posterior of the clustered model with one point per cluster, through
    shifted_gram's zero-jitter factor of K_xx + sigma^2 I; with no data the
    belief is the prior.
    """
    clustered = _exact_as_clustered(kernel, sigma2, data.X, data.y)
    return _posterior(clustered, query, True, shifted_gram(clustered))


def sample_targets(
    kernel: Kernel, sigma2: float, X, seed, query=None
) -> tuple[np.ndarray, Optional[GaussianBelief]]:
    """Targets y ~ N(0, K_xx + sigma^2 I) at X and, given a query, the exact posterior there.

    y = L xi with L L^T = K_xx + sigma^2 I (shifted_gram's factor, as in
    exact_posterior) and xi the first n standard normals of
    np.random.default_rng(seed), so y has the law of f + noise with
    f ~ GP(0, kernel) and noise ~ N(0, sigma^2 I), and K_xx alone, which can
    be nearly singular, is never factored.  The posterior solves through the
    same factor L and is bit-identical to
    exact_posterior(Dataset(X, y), kernel, sigma2, query); without a query
    it is None.  At most _SAMPLE_MAX_POINTS points, to bound the n x n Gram.
    """
    X = _as_matrix(X)
    if X.shape[0] > _SAMPLE_MAX_POINTS:
        raise ValueError(f"sample_targets is limited to {_SAMPLE_MAX_POINTS} points")
    A, out = shifted_gram(_exact_as_clustered(kernel, sigma2, X, np.zeros(X.shape[0])))
    y = out.factor @ np.random.default_rng(seed).standard_normal(X.shape[0])
    if query is None:
        return y, None
    return y, _posterior(_exact_as_clustered(kernel, sigma2, X, y), query, True, (A, out))


def fit_clustered(data: Dataset, z, kernel: Kernel, sigma2: float) -> ClusteredModel:
    """Clustered-data model: u = per-cluster target means, lambda = sigma^2/N_cl.

    Inducing points whose cluster is empty are dropped with a warning; the
    cluster means are only defined over nonempty clusters.
    """
    Z = _as_matrix(z)
    if data.d != Z.shape[1]:
        raise ValueError(f"data has dimension {data.d}, inducing points have dimension {Z.shape[1]}")
    labels, counts = cluster_assign(data.X, Z)
    nonempty = counts > 0
    if not nonempty.all():
        warnings.warn(f"dropping {int((~nonempty).sum())} inducing point(s) with empty clusters")
        # An empty cluster's point is nobody's lowest-index nearest point, so
        # renumbering the labels equals assigning afresh to the kept points.
        labels = (np.cumsum(nonempty) - 1)[labels]
        Z, counts = Z[nonempty], counts[nonempty]
    m = Z.shape[0]
    u = np.bincount(labels, weights=data.y, minlength=m) / counts
    lam = sigma2 / counts
    return ClusteredModel(kernel, sigma2, Z, u, lam, counts)


def shifted_gram(
    model: ClusteredModel, K: Optional[np.ndarray] = None
) -> tuple[np.ndarray, CholeskyOutcome]:
    """K_zz + Lambda and its lower Cholesky factor, taken with no jitter.

    Lambda bounds the spectrum from below and separation bounds it from
    above, so a plain double-precision factorization is safe; a matrix that
    still fails to factor raises NumericalFailure instead of being jittered.
    K, when given, is K_zz already evaluated by the caller; it is not modified.
    """
    A = _plus_lambda(model, K)
    return A, cholesky(A, tag="kzz_plus_lambda")


def _plus_lambda(model: ClusteredModel, K: Optional[np.ndarray] = None) -> np.ndarray:
    """K_zz + Lambda as a new array, from K = K_zz when the caller has it."""
    A = gram(model.kernel, model.z) if K is None else K.copy()
    A[np.diag_indices_from(A)] += model.lam
    return A


def _solve(A: np.ndarray, out: CholeskyOutcome, B: np.ndarray) -> np.ndarray:
    """Solve (K_zz + Lambda) X = B through its factor, gated on the true relative residual.

    Each column is solved and gated divided by the power of two just above its
    largest |entry| (exact), so the gate's norms cannot under- or overflow.
    """
    # max|B| per column without an abs temporary; frexp gives e = 0 for a zero column
    e = np.frexp(np.maximum(B.max(axis=0, initial=0.0), -B.min(axis=0, initial=0.0)))[1]
    B = np.ldexp(B, -e)
    X = cho_solve(out, B)
    R = A @ X
    R -= B
    # column norms as sqrt of sum-of-squares, with no squared temporary the size of B
    scale = np.sqrt(np.einsum("i...,i...->...", B, B))
    rel = np.sqrt(np.einsum("i...,i...->...", R, R)) / np.where(scale > 0.0, scale, 1.0)
    if not np.all(rel <= _RESIDUAL_ACCEPT):
        raise NumericalFailure(f"solve against K_zz + Lambda: worst relative residual {np.max(rel):.3e}")
    return np.ldexp(X, e, out=X)


def clustered_posterior(model: ClusteredModel, query, full_cov: bool = True) -> GaussianBelief:
    """Posterior of the clustered-data approximation at the query points.

    All solves go through one zero-jitter Cholesky factor of K_zz + Lambda
    (shifted_gram), never through K_zz alone.  With full_cov=True the belief
    carries the dense Q x Q covariance.  With full_cov=False it carries only
    the marginal variances, computed in blocks of at most _QUERY_BLOCK query
    points as k(x, x) - colsum(K_zq * (K_zz + Lambda)^{-1} K_zq), so memory is
    O(M * _QUERY_BLOCK) whatever the number of queries; cov is then None.
    """
    return _posterior(model, query, full_cov, shifted_gram(model))


def _posterior(model: ClusteredModel, query, full_cov: bool, shifted) -> GaussianBelief:
    """clustered_posterior(model, query, full_cov) through shifted = shifted_gram(model)."""
    Q = _as_matrix(query)
    A, out = shifted
    if full_cov:
        K_zq = gram(model.kernel, model.z, Q)
        sol = _solve(A, out, np.column_stack([model.u, K_zq]))
        v, S = sol[:, 0], sol[:, 1:]
        mean = K_zq.T @ v
        cov = gram(model.kernel, Q) - K_zq.T @ S
        cov = (cov + cov.T) / 2.0
        return GaussianBelief(mean, np.diag(cov).copy(), cov)
    v = _solve(A, out, model.u)
    mean = np.empty(Q.shape[0])
    var = np.empty(Q.shape[0])
    for start in range(0, Q.shape[0], _QUERY_BLOCK):
        block = slice(start, start + _QUERY_BLOCK)
        K_zq = gram(model.kernel, model.z, Q[block])
        S = _solve(A, out, K_zq)
        mean[block] = K_zq.T @ v
        # k(x, x) = variance for every family, since each profile is 1 at 0
        var[block] = model.kernel.variance - np.einsum("mq,mq->q", K_zq, S)
    return GaussianBelief(mean, var, None)


def _trace_probes(m: int, probes: Optional[int], seed):
    """Probe matrix V and weight w for the trace estimates tr(B) ~ w sum(V * B V).

    probes=None gives V = I_M and w = 1, so every estimate is the exact trace;
    an integer gives that many Rademacher columns and w = 1/probes.
    """
    if probes is None:
        return np.eye(m), 1.0
    if probes < 1:
        raise ValueError("probes must be >= 1")
    V = np.random.default_rng(seed).integers(0, 2, size=(m, probes)).astype(float) * 2.0 - 1.0
    return V, 1.0 / probes


def _kl(out: CholeskyOutcome, lam, v, Kv, V, Wm, w: float) -> float:
    """The KL of kl_to_prior from the factor of K+L, v, K v and the probes, Wm = (K+L)^{-1} K V."""
    logdet_A = 2.0 * float(np.sum(np.log(np.diag(out.factor))))
    tr_AinvK = w * float(np.sum(V * Wm))
    return 0.5 * (logdet_A - float(np.sum(np.log(lam)))) - 0.5 * tr_AinvK + 0.5 * float(v @ Kv)


def kl_to_prior(model: ClusteredModel, probes: Optional[int] = None, seed=0) -> float:
    """KL divergence from the clustered variational posterior to the prior.

    0.5 ln(|K+L|/|L|) - 0.5 tr((K+L)^{-1} K) + 0.5 v^T K v with v = (K+L)^{-1} u,
    writing K for K_zz and L for Lambda.  The trace term is the only piece
    that can be estimated: exact for probes=None, otherwise from that many
    Rademacher probes drawn from seed, as in training_objective.
    """
    V, w = _trace_probes(model.m, probes, seed)
    K = gram(model.kernel, model.z)
    A, out = shifted_gram(model, K)
    sol = _solve(A, out, np.column_stack([model.u, K @ V]))
    v = sol[:, 0]
    return _kl(out, model.lam, v, K @ v, V, sol[:, 1:], w)


def _objective_and_grads(
    model: ClusteredModel,
    Xb: np.ndarray,
    yb: np.ndarray,
    n_total: int,
    probes: Optional[int],
    seed,
):
    """Stochastic training objective and its analytic gradient in log-parameters.

    Returns (value, g) with g the gradient w.r.t. (log variance, log
    lengthscales..., log sigma^2), the coordinates train steps in.  Every
    solve goes through the zero-jitter Cholesky factor of A = K_zz + Lambda.
    The KL trace terms are read off the probes V of _trace_probes:
    probes=None makes V the identity and the traces exact, an integer
    estimates them with that many Hutchinson probes.

    In the gradient of the KL term the 0.5 tr(A^{-1} dK) contributions of the
    log-determinant and the trace term cancel exactly.  What remains, with
    the data fit, is linear in dK_zz and dK_zb, so each kernel parameter's
    gradient is sum(dK_zz * P) + sum(dK_zb * Pb) for two adjoints P and Pb
    formed once per step.  d/dlog variance of K_zz and K_zb is K_zz and K_zb
    themselves, and the noise enters through dA = dLambda/dlog sigma^2 = Lambda.
    """
    k = model.kernel
    sigma2 = model.noise_sigma2
    b = Xb.shape[0]
    c = n_total / b / (2.0 * sigma2)  # weight of the batch's squared error

    K, dK_dlogls = gram_gradients(k, model.z)
    A, out = shifted_gram(model, K)
    kb, dkb_dlogls = gram_gradients(k, model.z, Xb)
    V, w = _trace_probes(model.m, probes, seed)
    p = V.shape[1]
    sol = _solve(A, out, np.column_stack([model.u, kb, V, K @ V]))
    v, W, T, Wm = sol[:, 0], sol[:, 1 : 1 + b], sol[:, 1 + b : 1 + b + p], sol[:, 1 + b + p :]

    Kv = K @ v
    resid = yb - kb.T @ v
    sq = float(np.sum(resid**2 + k.variance - np.einsum("mb,mb->b", kb, W)))
    value = _kl(out, model.lam, v, Kv, V, Wm, w) + 0.5 * n_total * math.log(2.0 * math.pi * sigma2) + c * sq

    t2 = _solve(A, out, Kv)
    P = 0.5 * w * (T @ Wm.T) + np.outer(0.5 * v - t2 + 2.0 * c * (W @ resid), v) + c * (W @ W.T)
    Pb = -2.0 * c * (np.outer(v, resid) + W)
    # np.vdot of two real matrices is the sum of their elementwise product
    g = [np.vdot(dK, P) + np.vdot(dkb, Pb) for dK, dkb in zip([K] + dK_dlogls, [kb] + dkb_dlogls)]
    g[0] += c * b * k.variance  # d/dlog variance of the data fit's c * sum_b k(x, x)
    Ainv_diag = w * np.einsum("mp,mp->m", T, V)  # diag(A^{-1}) read through the probes
    g.append(model.lam @ (np.diag(P) + 0.5 * (Ainv_diag - v * v)) + 0.5 * (n_total - model.m) - c * sq)
    return value, np.array(g)


def training_objective(
    model: ClusteredModel, batch: Dataset, n_total: int, probes: Optional[int] = None, seed=0
) -> float:
    """Minimization target: KL to the prior plus the rescaled batch data fit."""
    if batch.n == 0:
        raise ValueError("batch must be nonempty")
    return _objective_and_grads(model, batch.X, batch.y, n_total, probes, seed)[0]


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 100
    batch_size: int = 1000
    step_size: float = 0.01
    probes: int = 10
    seed: int = 0


@dataclass(frozen=True)
class TrainResult:
    model: ClusteredModel
    history: list  # (step, objective) pairs


def _with_log_params(model: ClusteredModel, p: np.ndarray) -> ClusteredModel:
    """model with (variance, lengthscales..., sigma^2) = exp(p) and Lambda = sigma^2 / N_cl."""
    theta = np.exp(p)
    sigma2 = float(theta[-1])
    kernel = Kernel(model.kernel.family, float(theta[0]), theta[1:-1])
    return ClusteredModel(kernel, sigma2, model.z, model.u, sigma2 / model.cluster_counts, model.cluster_counts)


def train(model: ClusteredModel, data: Dataset, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Stochastic training of kernel hyperparameters and noise.

    Adam on the logs of (variance, lengthscales, sigma^2); z, u and the
    cluster counts stay fixed, and Lambda is re-derived as sigma^2/N_cl
    after every noise update so the model remains in the clustered family.
    """
    if config.batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if config.steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0.0 < config.step_size < math.inf:
        raise ValueError("step_size must be finite and positive")
    if config.steps == 0:
        return TrainResult(model, [])
    p = np.log(np.concatenate([[model.kernel.variance], model.kernel.lengthscales, [model.noise_sigma2]]))
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    m1 = np.zeros_like(p)
    m2 = np.zeros_like(p)
    history = []
    for step in range(config.steps):
        rng = np.random.default_rng((config.seed, step))
        bsz = min(config.batch_size, data.n)
        idx = rng.choice(data.n, size=bsz, replace=False)
        value, g = _objective_and_grads(
            _with_log_params(model, p), data.X[idx], data.y[idx], data.n, config.probes, (config.seed, step, 1)
        )
        if not np.all(np.isfinite(g)):
            raise NumericalFailure(
                f"non-finite gradient at step {step}: log-parameters {p.tolist()}, gradient {g.tolist()}"
            )
        history.append((step, value))
        m1 = beta1 * m1 + (1.0 - beta1) * g
        m2 = beta2 * m2 + (1.0 - beta2) * g**2
        m1_hat = m1 / (1.0 - beta1 ** (step + 1))
        m2_hat = m2 / (1.0 - beta2 ** (step + 1))
        p = p - config.step_size * m1_hat / (np.sqrt(m2_hat) + adam_eps)
    return TrainResult(_with_log_params(model, p), history)
