"""Stationary covariance kernels, Gram-matrix assembly, and structured test matrices.

All kernels are of the form k(x, x') = variance * kappa(u) where u is the
lengthscale-weighted Euclidean distance between x and x' and kappa is one of
the supported radial profiles.  Lengthscales are per-dimension (ARD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Family",
    "Kernel",
    "DecayEnvelope",
    "gram",
    "gram_gradients",
    "kms_matrix",
    "decay_envelope",
]

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)

# row-chunk size for pairwise-distance assembly, keeps temporaries ~tens of MB
_CHUNK = 1 << 22


class Family(str, Enum):
    SQUARED_EXPONENTIAL = "SquaredExponential"
    MATERN12 = "Matern12"
    MATERN32 = "Matern32"
    MATERN52 = "Matern52"


def _profile(family: Family, u: np.ndarray) -> np.ndarray:
    """Radial profile kappa(u) with kappa(0) = 1, nonincreasing on [0, inf).

    Evaluated in place: u is overwritten with kappa(u) and returned, so the
    caller must own it.  The arithmetic is that of the textbook formulas,
    step for step (exp(-0.5 u^2), exp(-u), (1 + su) exp(-su) and
    (1 + su + su^2/3) exp(-su) with su = sqrt(3) u or sqrt(5) u).
    """
    if family == Family.SQUARED_EXPONENTIAL:
        np.multiply(u, u, out=u)
        u *= -0.5  # a power-of-two scale is exact, so this is -0.5 * u * u
        return np.exp(u, out=u)
    if family == Family.MATERN12:
        np.negative(u, out=u)
        return np.exp(u, out=u)
    if family == Family.MATERN32:
        u *= _SQRT3
        e = np.negative(u, out=np.empty_like(u))
        np.exp(e, out=e)
        u += 1.0
        u *= e
        return u
    if family == Family.MATERN52:
        u *= _SQRT5
        sq = np.multiply(u, u, out=np.empty_like(u))
        sq /= 3.0
        e = np.negative(u, out=np.empty_like(u))
        np.exp(e, out=e)
        u += 1.0
        u += sq
        u *= e
        return u
    raise ValueError(f"unknown kernel family {family!r}")


def _profile_radial_factor(family: Family, u: np.ndarray) -> np.ndarray:
    """g(u) such that d kappa / d log ls_l = g(u) * diff_l^2 / ls_l^2.

    Writing kappa as a function of u = sqrt(sum_l (diff_l/ls_l)^2), the chain
    rule gives d kappa/d log ls_l = -kappa'(u)/u * diff_l^2/ls_l^2, so
    g(u) = -kappa'(u)/u.  For every family except Matern12 the ratio is
    analytic at u = 0; the Matern12 diagonal (u = 0 forces diff = 0) is 0.
    """
    if family == Family.SQUARED_EXPONENTIAL:
        return np.exp(-0.5 * u * u)
    if family == Family.MATERN12:
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(u > 0.0, np.exp(-u) / np.where(u > 0.0, u, 1.0), 0.0)
        return g
    if family == Family.MATERN32:
        return 3.0 * np.exp(-_SQRT3 * u)
    if family == Family.MATERN52:
        su = _SQRT5 * u
        return (5.0 / 3.0) * (1.0 + su) * np.exp(-su)
    raise ValueError(f"unknown kernel family {family!r}")


@dataclass(frozen=True)
class Kernel:
    """Stationary covariance function with ARD lengthscales."""

    family: Family
    variance: float
    lengthscales: np.ndarray

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "lengthscales", ls)
        if not np.isfinite(self.variance) or self.variance <= 0.0:
            raise ValueError("kernel variance must be positive")
        if ls.ndim != 1 or ls.size == 0 or not np.all(np.isfinite(ls)) or np.any(ls <= 0.0):
            raise ValueError("lengthscales must be a nonempty vector of positive reals")
        object.__setattr__(self, "family", Family(self.family))

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "variance": float(self.variance),
            "lengthscales": [float(v) for v in self.lengthscales],
        }

    @staticmethod
    def from_json(obj) -> "Kernel":
        return Kernel(Family(obj["family"]), float(obj["variance"]), np.asarray(obj["lengthscales"], dtype=float))


@dataclass(frozen=True)
class DecayEnvelope:
    """Radial dominating function psi with |k(x, x')| <= psi(||x - x'||).

    For ARD kernels psi uses the largest lengthscale, which makes it a valid
    (looser) envelope in every direction since the profiles are nonincreasing.
    """

    family: Family
    variance: float
    ls_env: float

    def __call__(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            # asarray: a 0-d quotient comes back as a scalar, and _profile works in place
            out = self.variance * _profile(self.family, np.asarray(m / self.ls_env))
            out = np.where(np.isinf(m), 0.0, out)
        return out


def decay_envelope(k: Kernel) -> DecayEnvelope:
    return DecayEnvelope(k.family, float(k.variance), float(np.max(k.lengthscales)))


def _check_points(X: np.ndarray, dim: int, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"{name} has dimension {X.shape[-1] if X.ndim else '?'}, kernel expects {dim}")
    return X


def _scaled_dists(A: np.ndarray, B: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Lengthscale-weighted pairwise distances, assembled in row chunks.

    Each chunk's squared distances are accumulated straight into the output,
    coordinate 0 first, through one difference buffer per chunk.
    """
    n, m = A.shape[0], B.shape[0]
    out = np.empty((n, m), dtype=float)
    rows = max(1, _CHUNK // max(1, m))
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        acc = out[start:stop]
        diff = acc  # coordinate 0 is squared in the output itself
        for l in range(A.shape[1]):
            if l == 1:
                diff = np.empty_like(acc)
            np.subtract(A[start:stop, l, None], B[None, :, l], out=diff)
            diff /= ls[l]
            diff *= diff
            if l:
                acc += diff
        np.sqrt(acc, out=acc)
    return out


def gram(k: Kernel, A, B=None) -> np.ndarray:
    """Kernel matrix between point sets A (n x d) and B (m x d).

    With B omitted (or identical to A) the result is exactly symmetric with
    no mirroring: each entry depends on its pair only through the squares of
    the coordinate differences, and fl(a - b) = -fl(b - a).
    """
    A = _check_points(A, k.dim, "A")
    B = A if B is None else _check_points(B, k.dim, "B")
    K = _profile(k.family, _scaled_dists(A, B, k.lengthscales))
    K *= k.variance
    return K


def gram_gradients(k: Kernel, A, B=None):
    """Kernel matrix plus its analytic derivatives w.r.t. the log-lengthscales.

    Returns (K, dK_dlogls) where dK_dlogls is a list of one matrix per input
    dimension, dK/dlog ls_l = g(u) diff_l^2 / ls_l^2.  The derivative w.r.t.
    log variance is K itself, so none is returned.  With B omitted every
    matrix is exactly symmetric, for the reason given in gram().
    """
    A = _check_points(A, k.dim, "A")
    B = A if B is None else _check_points(B, k.dim, "B")
    U = _scaled_dists(A, B, k.lengthscales)
    G = _profile_radial_factor(k.family, U)  # before _profile overwrites U
    G *= k.variance
    K = _profile(k.family, U)
    K *= k.variance
    dK_dlogls = []
    for l in range(k.dim):
        D = np.subtract(A[:, l, None], B[None, :, l])
        D *= D
        D *= G
        D /= k.lengthscales[l] ** 2
        dK_dlogls.append(D)
    return K, dK_dlogls


def kms_matrix(rho: float, n: int) -> np.ndarray:
    """Kac-Murdock-Szego matrix with entries rho^{|i-j|}."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    return rho ** np.abs(idx[:, None] - idx[None, :]).astype(float)
