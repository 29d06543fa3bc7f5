"""Stationary covariance kernels, Gram-matrix assembly and its derivatives, and structured test matrices.

All kernels are of the form k(x, x') = variance * kappa(u) where u is the
lengthscale-weighted Euclidean distance between x and x' and kappa is one of
the supported radial profiles.  Lengthscales are per-dimension (ARD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

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

# Most entries in one row tile of a Gram or distance matrix (256 KiB): a tile
# and its difference buffer stay in cache while the tile is assembled.
_CHUNK = 1 << 15


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


def _distance_tiles(A: np.ndarray, B: np.ndarray, k: Kernel, out: Optional[np.ndarray] = None):
    """Yield (rows, tile): the lengthscale-weighted distances from A[rows] to B, in row tiles.

    Each tile holds at most _CHUNK entries.  Its squared distances are
    accumulated in the tile itself, coordinate 0 first, through one
    tile-sized difference buffer.  With out (n x m) given, each tile is a
    view of out's rows; without it, one tile-sized buffer is reused, so a
    tile must be consumed before the next is asked for.
    """
    n, m = A.shape[0], B.shape[0]
    rows = max(1, _CHUNK // max(1, m))
    buf = np.empty((min(n, rows), m)) if out is None else out
    diff = np.empty((min(n, rows), m)) if A.shape[1] > 1 else None
    for start in range(0, n, rows):
        block = slice(start, min(n, start + rows))
        tile = buf[block] if out is not None else buf[: block.stop - start]
        for l in range(A.shape[1]):
            d = tile if l == 0 else diff[: len(tile)]  # coordinate 0 is squared in the tile itself
            np.subtract(A[block, l, None], B[None, :, l], out=d)
            d /= k.lengthscales[l]
            d *= d
            if l:
                tile += d
        np.sqrt(tile, out=tile)
        yield block, tile


def gram(k: Kernel, A, B=None) -> np.ndarray:
    """Kernel matrix between point sets A (n x d) and B (m x d).

    It is built, profiled and scaled in cache-sized row tiles through one
    tile-sized difference buffer, so the only n x m array it makes is the
    result.  With B omitted (or identical to A) the result is exactly
    symmetric with no mirroring: each entry depends on its pair only through
    the squares of the coordinate differences, and fl(a - b) = -fl(b - a).
    """
    A = _check_points(A, k.dim, "A")
    B = A if B is None else _check_points(B, k.dim, "B")
    out = np.empty((A.shape[0], B.shape[0]))
    for _, tile in _distance_tiles(A, B, k, out):
        _profile(k.family, tile)
        tile *= k.variance
    return out


def gram_gradients(k: Kernel, A, B, P) -> np.ndarray:
    """The contractions sum(dK/dlog theta * P) of the Gram's derivatives with P.

    K = gram(k, A, B) (B None meaning A), P has K's shape, and theta runs
    over (variance, lengthscales...): the result holds d + 1 numbers,
    vdot(K, P) first, since dK/dlog variance is K itself, then
    vdot(G * D_l^2, P) / ls_l^2 with G = variance * g(u) and D_l the
    coordinate-l differences.  No derivative matrix is stored: each row
    tile of at most _CHUNK entries is formed and contracted in turn, its
    scaled distances, then G, then kappa, then each D_l^2.  Every entry
    depends on its pair symmetrically (see gram), so the contraction is
    taken along P's contiguous axis: a Fortran-ordered P is read as P.T
    against the transposed pair of point sets.
    """
    A = _check_points(A, k.dim, "A")
    B = A if B is None else _check_points(B, k.dim, "B")
    P = np.asarray(P, dtype=float)
    if P.shape != (A.shape[0], B.shape[0]):
        raise ValueError(f"P has shape {P.shape}, the Gram has {(A.shape[0], B.shape[0])}")
    if P.flags.f_contiguous and not P.flags.c_contiguous:
        A, B, P = B, A, P.T
    g = np.zeros(k.dim + 1)
    D = None  # one tile-sized buffer for each D_l^2, sliced for a shorter last tile
    for rows, U in _distance_tiles(A, B, k):
        Pt = P[rows]
        G = _profile_radial_factor(k.family, U)  # before _profile overwrites U
        G *= k.variance
        K = _profile(k.family, U)
        K *= k.variance
        g[0] += np.vdot(K, Pt)  # np.vdot of two real matrices is the sum of their elementwise product
        D = np.empty_like(U) if D is None else D[: len(U)]
        for l in range(k.dim):
            np.subtract(A[rows, l, None], B[None, :, l], out=D)
            D *= D
            D *= G
            g[1 + l] += np.vdot(D, Pt) / k.lengthscales[l] ** 2
    return g


def kms_matrix(rho: float, n: int) -> np.ndarray:
    """Kac-Murdock-Szego matrix with entries rho^{|i-j|}."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    return rho ** np.abs(idx[:, None] - idx[None, :]).astype(float)
