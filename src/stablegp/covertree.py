"""Breadth-first cover tree construction for inducing point selection.

The tree is built top down: the root sits at the data mean and covers the
whole dataset, and each level halves the covering radius until the target
resolution is reached.  Nodes at level ell are pairwise separated by more
than R_ell, and every data point is within R_ell of the node it is
assigned to, so the node locations of any level form a separated covering
of the data.  Construction is local: a new node only ever competes with
children of its parent's R-neighbors, which is what keeps the build near
linear in N.

A built tree is arrays, one set per level: node locations, parents, each
datum's node and R-neighbor lists.  A node's children and points follow from
the parent and label arrays, so only the build keeps them, as locals.

Every distance taken during construction and by the metric helpers below
goes through _distances, mostly as the all-pairs _cross_distances.  The
separation/resolution guarantees are asserted with no tolerance, so the
builder and the checkers must see bit-identical floating point values.
_distances accumulates squared coordinate differences into one array,
coordinate by coordinate, so the value it gives a pair does not depend on
the shapes of the call; for d <= 2 it is also bit-identical to reducing an
(n, m, d) difference tensor with einsum.  Each new node claims its points
with one distance call over the concatenated pools of its parent's
neighbors.  Previous-level nodes that the triangle inequality puts out of
reach are skipped in that claim and in the Voronoi pass; skipping them never
changes the outcome of a comparison.

The nearest-point scan behind cluster_assign and spatial_resolution lets a
k-d tree shortlist the candidates.  The tree's distances only rank them,
with a slack far above their rounding; every distance that decides a label
or is returned still comes from _distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "CoverTree",
    "ClusterAssignment",
    "build",
    "inducing_points",
    "separation",
    "spatial_resolution",
    "leaf_resolution",
    "cluster_assign",
    "select_uniform",
    "select_kmeans",
]

# Row block for pairwise-distance scans; bounds peak memory, not results.
_BLOCK = 256

# Relative slack on triangle-inequality pruning in build and on the k-d tree
# shortlist in _nearest.  It dwarfs the rounding error of any computed
# distance, so a point or node is only ever skipped when its own computed
# distance could not have passed the test.
_PRUNE_SLACK = 1e-9


def _as_points(X) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError("points must form a nonempty (n, d) array with d >= 1")
    return X


def _distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of A and B, broadcast against each other.

    The single distance code path of this module: per-pair arithmetic must
    not depend on array shapes, otherwise the exact comparisons made during
    construction could disagree with the metric helpers.  Squared coordinate
    differences (the last axis) are accumulated straight into one array,
    coordinate 0 first, so every entry is the same left-to-right sum whatever
    the shapes are.  For d <= 2 that sum is bit-identical to reducing a
    difference tensor with einsum; for d >= 3 the last ulp may differ from it.
    """
    acc = A[..., 0] - B[..., 0]
    acc *= acc
    for k in range(1, A.shape[-1]):
        diff = A[..., k] - B[..., k]
        diff *= diff
        acc += diff
    return np.sqrt(acc, out=acc)


def _cross_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances between every row of A and every row of B, as an (n, m) array."""
    return _distances(A[:, None, :], B)


@dataclass
class CoverTree:
    epsilon: float
    d_max: float
    radii: list[float]  # R_0 .. R_L with R_ell = 2^(L-ell) * epsilon
    # One entry per level ell = 0 .. L:
    levels: list[np.ndarray]  # (M_ell, d) node locations
    parents: list[np.ndarray]  # (M_ell,) each node's parent in level ell - 1; -1 at the root
    labels: list[np.ndarray]  # (N,) the node of level ell that holds each datum
    neighbors: list[list[list[int]]]  # each node's R-neighbors: sorted, within 4 R_ell, itself included
    seed: int
    lloyd_averaging: bool
    voronoi_repartition: bool

    @property
    def L(self) -> int:
        return len(self.radii) - 1


class ClusterAssignment(NamedTuple):
    labels: np.ndarray  # (N,) inducing index per datum
    counts: np.ndarray  # (M,) cluster sizes


def build(
    data,
    epsilon: float,
    lloyd_averaging: bool = True,
    voronoi_repartition: bool = True,
    seed: int = 0,
) -> CoverTree:
    """Build the leveled cover tree of the dataset at resolution epsilon.

    Level 0 holds the root at the data mean.  Each subsequent level covers
    the data at half the previous radius; level L has radius exactly
    epsilon.  New node locations are unclaimed data points (or, with
    lloyd_averaging, local averages that keep their distance from existing
    nodes), so every level is separated by more than its radius.  With
    voronoi_repartition each level's assignment is tightened to the nearest
    node among the locally visible candidates.

    L is the least L >= 1 with ldexp(epsilon, L) >= d_max, which makes the
    trees of one dataset and seed nested: for 1 <= j <= L, build at
    epsilon' = radii[j] = ldexp(epsilon, L - j) gives levels 0..j of this
    tree, array for array.  Proof:
    ldexp(epsilon', j) = radii[0] >= d_max, and for j >= 2 minimality gives
    ldexp(epsilon', j - 1) = radii[1] < d_max, so L' = j; the power-of-two
    scalings are exact, so radii' = radii[:j + 1]; epsilon' < d_max unless
    j = L, so the degenerate branch is not taken; and the rank permutation,
    the root and each level as a function of the one above are the same.
    """
    X = _as_points(data)
    if not (epsilon > 0.0):
        raise ValueError("epsilon must be positive")
    n, dim = X.shape
    rng = np.random.default_rng(seed)
    # "Arbitrary" data point choices resolve to the lowest rank under one
    # seed-keyed permutation, making trees reproducible.
    rank = np.empty(n, dtype=int)
    rank[rng.permutation(n)] = np.arange(n)

    root_loc = X.mean(axis=0)
    d_max = float(_cross_distances(X, root_loc[None, :]).max())
    if not math.isfinite(d_max):
        raise ValueError(f"the data's extent is not finite: the largest distance from the data mean is {d_max}")

    # Degenerate spread (d_max <= epsilon, where log2(d_max / epsilon) is
    # nonpositive): one level-1 node at the mean covers the data.
    degenerate = d_max <= epsilon
    L = 1 if degenerate else math.ceil(math.log2(d_max / epsilon))
    # The level-0 radius must dominate d_max in exact float comparison, not
    # merely up to log/exp rounding.  The guess never overshoots the least
    # such L: d_max <= ldexp(epsilon, k) makes the rounded quotient at most
    # 2^k, and a faithfully rounded log2 of that is at most k.
    while math.ldexp(epsilon, L) < d_max:
        L += 1
    radii = [math.ldexp(epsilon, L - ell) for ell in range(L + 1)]

    # Level 0 is the root at the data mean, holding every datum.
    levels, parents, labels, neighbors = [root_loc[None, :]], [np.array([-1])], [np.zeros(n, dtype=int)], [[[0]]]
    if degenerate:
        levels.append(root_loc[None, :].copy())
        parents.append(np.array([0]))
        labels.append(np.zeros(n, dtype=int))
        neighbors.append([[0]])
    # The previous level's assigned sets: each node's points in index order.
    assigned = [np.arange(n)]

    for ell in range(len(levels), L + 1):
        R = radii[ell]
        prev_locs, prev_nbrs = levels[-1], neighbors[-1]
        pools = list(assigned)
        # children[p]: the nodes made so far whose parent is node p of the previous level
        children: list[list[int]] = [[] for _ in prev_nbrs]
        # Triangle-inequality pruning: every point assigned to a node of the
        # previous level lies within R_(ell-1) = 2R of it.  A previous-level
        # node farther than 3R from a new node therefore holds no point within
        # R of it: none of its points can be claimed by the new node, and none
        # has the new node as its nearest (each point has a node within R).
        reach = 3.0 * R * (1.0 + _PRUNE_SLACK)
        # Every node claims at least its seed point, so a level has at most n.
        locs = np.empty((n, dim))
        parent: list[int] = []
        label = np.empty(n, dtype=int)

        for p, nbrs_p in enumerate(prev_nbrs):
            while pools[p].size > 0:
                pool = pools[p]
                zeta = X[int(pool[np.argmin(rank[pool])])]
                if lloyd_averaging:
                    near = _cross_distances(X.take(pool, axis=0), zeta[None, :])[:, 0] <= R
                    zeta_avg = X.take(pool[near], axis=0).mean(axis=0)
                    cand_ids = [c for r in nbrs_p for c in children[r]]
                    ok_separated = not cand_ids or bool(
                        _cross_distances(zeta_avg[None, :], locs.take(cand_ids, axis=0))[0].min() > R
                    )
                    # The average of points within R of zeta stays within R of
                    # zeta in exact arithmetic; re-check in floats so the new
                    # node always claims its seed point and the loop advances.
                    covers_seed = bool(_cross_distances(zeta_avg[None, :], zeta[None, :])[0, 0] <= R)
                    if ok_separated and covers_seed:
                        zeta = zeta_avg
                c = len(parent)
                locs[c] = zeta
                node = locs[c : c + 1]
                # One distance call over the concatenated pools of the parent's
                # R-neighbors within reach; the result is split back into the pools.
                nbrs = np.array([r for r in nbrs_p if pools[r].size])
                nbrs = nbrs[_cross_distances(prev_locs.take(nbrs, axis=0), node)[:, 0] <= reach]
                cat = np.concatenate([pools[r] for r in nbrs])
                within = _cross_distances(X.take(cat, axis=0), node)[:, 0] <= R
                start = 0
                for r in nbrs:
                    stop = start + pools[r].size
                    kept = ~within[start:stop]
                    if not kept.all():
                        pools[r] = pools[r][kept]
                    start = stop
                label[cat[within]] = c
                parent.append(p)
                children[p].append(c)

        m = len(parent)
        locs = locs[:m].copy()
        # R-neighbors lie within 4R: the smallest multiple of R that both carries
        # neighbor sets down the levels (a parent of anything within 4 R_ell lies
        # within 2 R_(ell-1) + 2 R_ell = 4 R_(ell-1)) and catches every node able
        # to compete with a new child (within 2.5 R_(ell-1)).  Only children of
        # the parent's R-neighbors can be that close; siblings are consecutive
        # and share that candidate set, so each parent takes one call.
        cands, nbrs_new = [], []
        for p, nbrs_p in enumerate(prev_nbrs):
            cand = np.array(sorted(c for r in nbrs_p for c in children[r]), dtype=int)
            cands.append(cand)
            if children[p]:
                d = _cross_distances(locs.take(children[p], axis=0), locs.take(cand, axis=0))
                nbrs_new.extend(cand[row].tolist() for row in d <= 4.0 * R)

        if voronoi_repartition:
            for r, orig in enumerate(assigned):
                if orig.size == 0:
                    continue
                cand = cands[r]
                cand = cand[_cross_distances(locs.take(cand, axis=0), prev_locs[r : r + 1])[:, 0] <= reach]
                d = _cross_distances(X.take(orig, axis=0), locs.take(cand, axis=0))
                # cand is sorted, so ties resolve to the lowest node index
                label[orig] = cand[np.argmin(d, axis=1)]
        # The claims empty every pool, and the Voronoi pass relabels every
        # assigned set of the previous level, so every label is set; a stable
        # sort groups the points by node in index order.
        order = np.argsort(label, kind="stable")
        assigned = np.split(order, np.cumsum(np.bincount(label, minlength=m))[:-1])
        levels.append(locs)
        parents.append(np.array(parent))
        labels.append(label)
        neighbors.append(nbrs_new)

    return CoverTree(
        epsilon=epsilon, d_max=d_max, radii=radii, levels=levels, parents=parents, labels=labels,
        neighbors=neighbors, seed=seed, lloyd_averaging=lloyd_averaging, voronoi_repartition=voronoi_repartition,
    )


def inducing_points(tree: CoverTree, level: Optional[int] = None) -> np.ndarray:
    """A copy of the (M, d) node locations at the given level (deepest level by default)."""
    if level is None:
        level = tree.L
    if not 0 <= level <= tree.L:
        raise ValueError(f"level must be in [0, {tree.L}], got {level}")
    return tree.levels[level].copy()


def separation(points) -> float:
    """Minimum pairwise distance; +inf for a single point."""
    P = _as_points(points)
    m = P.shape[0]
    if m == 1:
        return math.inf
    best = math.inf
    for i0 in range(0, m, _BLOCK):
        block = P[i0 : i0 + _BLOCK]
        d = _cross_distances(block, P)
        for r in range(block.shape[0]):
            d[r, i0 + r] = math.inf
        best = min(best, float(d.min()))
    return best


def _nearest(X: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of and distance to the nearest row of P for every row of X.

    Exactly the argmin of the full scan _cross_distances(X, P), ties to the
    lowest index, and its distance.  A k-d tree over P gives each row its two
    nearest candidates.  The tree's distances agree with _distances' to a
    relative rounding error far below _PRUNE_SLACK, and it never skips a point
    that is nearer than its second candidate by more than that error, so
    where the second distance exceeds the first by more than the slack, the
    first candidate is the argmin.  The other rows (exact and near ties, and
    distances that overflow) take the full scan, so only they cost O(M).
    """
    if P.shape[0] == 1:
        labels = np.zeros(X.shape[0], dtype=int)
    else:
        from scipy.spatial import cKDTree  # deferred: predict never needs it, and it slows start-up

        dist, idx = cKDTree(P).query(X, k=2)
        labels = idx[:, 0].copy()
        (undecided,) = np.nonzero(~(dist[:, 1] > dist[:, 0] * (1.0 + _PRUNE_SLACK)))
        for i0 in range(0, undecided.size, _BLOCK):
            rows = undecided[i0 : i0 + _BLOCK]
            labels[rows] = np.argmin(_cross_distances(X.take(rows, axis=0), P), axis=1)
    return labels, _distances(X, P.take(labels, axis=0))


def spatial_resolution(data, points) -> float:
    """Maximum over the data of the distance to the nearest given point."""
    return float(_nearest(_as_points(data), _as_points(points))[1].max())


def leaf_resolution(tree: CoverTree, data) -> float:
    """spatial_resolution(data, inducing_points(tree)) in O(N), for a tree built
    from data with voronoi_repartition; any other tree raises ValueError.

    The deepest level's labels are then the nearest-point labels, ties
    included, and _distances gives a pair the same value in any call shape,
    so the largest distance from a datum to its own leaf is the full scan's
    result bit for bit.
    """
    if not tree.voronoi_repartition:
        raise ValueError("leaf_resolution needs a tree built with voronoi_repartition")
    X = _as_points(data)
    return float(_distances(X, tree.levels[-1].take(tree.labels[-1], axis=0)).max())


def cluster_assign(data, z) -> ClusterAssignment:
    """Nearest-inducing-point labels and cluster sizes; ties pick the lowest index."""
    P = _as_points(z)
    labels = _nearest(_as_points(data), P)[0]
    return ClusterAssignment(labels, np.bincount(labels, minlength=P.shape[0]))


def select_uniform(data, M: int, seed: int) -> np.ndarray:
    """Sorted indices of M distinct rows of data, sampled uniformly without replacement."""
    n = _as_points(data).shape[0]
    if not 1 <= M <= n:
        raise ValueError(f"M must be in [1, {n}], got {M}")
    return np.sort(np.random.default_rng(seed).choice(n, size=M, replace=False))


def select_kmeans(data, M: int, iters: int, seed: int) -> np.ndarray:
    """(M, d) centroids of Lloyd's K-means from a uniform-without-replacement initialization."""
    X = _as_points(data)
    centroids = X[select_uniform(X, M, seed)]
    labels = cluster_assign(X, centroids).labels
    for _ in range(iters):
        for j in range(M):
            mask = labels == j
            if mask.any():  # empty clusters keep their previous centroid
                centroids[j] = X[mask].mean(axis=0)
        new_labels = cluster_assign(X, centroids).labels
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids
