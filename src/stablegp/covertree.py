"""Breadth-first cover tree construction for inducing point selection.

The tree is built top down: the root sits at the data mean and covers the
whole dataset, and each level halves the covering radius until the target
resolution is reached.  Nodes at level ell are pairwise separated by more
than R_ell, and every data point is within R_ell of the node it is
assigned to, so the node locations of any level form a separated covering
of the data.  Construction is local: a new node only ever competes with
children of its parent's R-neighbors, which is what keeps the build near
linear in N.

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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "CoverTreeNode",
    "CoverTree",
    "InducingSet",
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
class CoverTreeNode:
    location: np.ndarray
    parent: Optional[int]  # index within the previous level; None for root
    children: list[int] = field(default_factory=list)
    r_neighbors: list[int] = field(default_factory=list)
    assigned: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))


@dataclass
class CoverTree:
    epsilon: float
    d_max: float
    L: int
    radii: list[float]  # R_0 .. R_L with R_ell = 2^(L-ell) * epsilon
    neighbor_radii: list[float]  # 4 R_ell per level
    levels: list[list[CoverTreeNode]]
    seed: int
    lloyd_averaging: bool
    voronoi_repartition: bool

    def level_locations(self, level: int) -> np.ndarray:
        return np.vstack([node.location for node in self.levels[level]])


@dataclass(frozen=True)
class InducingSet:
    points: np.ndarray  # (M, d)
    provenance: dict

    def __post_init__(self):
        pts = _as_points(self.points)
        if not np.isfinite(pts).all():
            raise ValueError("inducing points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def to_json(self) -> dict:
        return {"points": self.points.tolist(), "provenance": dict(self.provenance)}

    @staticmethod
    def from_json(obj: dict) -> "InducingSet":
        return InducingSet(np.asarray(obj["points"], dtype=float), dict(obj["provenance"]))


class ClusterAssignment(NamedTuple):
    labels: np.ndarray  # (N,) inducing index per datum
    counts: np.ndarray  # (M,) cluster sizes


def _points_of(z: Union[InducingSet, np.ndarray]) -> np.ndarray:
    return z.points if isinstance(z, InducingSet) else _as_points(z)


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
    tree (all but the children lists of level j, which stay empty).  Proof:
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
    dists_to_root = _cross_distances(X, root_loc[None, :])[:, 0]
    d_max = float(dists_to_root.max())

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
    # Neighbor radius 4 R_ell: the smallest constant multiple that both
    # carries neighbor sets down the levels (a parent of anything within
    # 4 R_ell lies within 2 R_(ell-1) + 2 R_ell = 4 R_(ell-1)) and catches
    # every node able to compete with a new child (within 2.5 R_(ell-1)).
    neighbor_radii = [4.0 * radii[ell] for ell in range(L + 1)]

    root = CoverTreeNode(location=root_loc, parent=None, r_neighbors=[0], assigned=np.arange(n))
    levels = [[root]]
    if degenerate:
        root.children.append(0)
        levels.append([CoverTreeNode(location=root_loc.copy(), parent=0, r_neighbors=[0], assigned=np.arange(n))])

    for ell in range(len(levels), L + 1):
        R = radii[ell]
        prev = levels[ell - 1]
        pools = [node.assigned for node in prev]
        prev_locs = np.vstack([node.location for node in prev])
        # Triangle-inequality pruning: every point assigned to a node of the
        # previous level lies within R_(ell-1) = 2R of it.  A previous-level
        # node farther than 3R from a new node therefore holds no point within
        # R of it: none of its points can be claimed by the new node, and none
        # has the new node as its nearest (each point has a node within R).
        reach = 3.0 * R * (1.0 + _PRUNE_SLACK)
        new_nodes: list[CoverTreeNode] = []
        # Every node claims at least its seed point, so a level has at most n.
        locs = np.empty((n, dim))

        for p, parent in enumerate(prev):
            while pools[p].size > 0:
                pool = pools[p]
                zeta_idx = int(pool[np.argmin(rank[pool])])
                zeta = X[zeta_idx]
                if lloyd_averaging:
                    near = _cross_distances(X.take(pool, axis=0), zeta[None, :])[:, 0] <= R
                    zeta_avg = X.take(pool[near], axis=0).mean(axis=0)
                    cand_ids = [c for r in parent.r_neighbors for c in prev[r].children]
                    ok_separated = True
                    if cand_ids:
                        cand_locs = locs.take(cand_ids, axis=0)
                        ok_separated = bool(
                            _cross_distances(zeta_avg[None, :], cand_locs)[0].min() > R
                        )
                    # The average of points within R of zeta stays within R of
                    # zeta in exact arithmetic; re-check in floats so the new
                    # node always claims its seed point and the loop advances.
                    covers_seed = bool(_cross_distances(zeta_avg[None, :], zeta[None, :])[0, 0] <= R)
                    if ok_separated and covers_seed:
                        zeta = zeta_avg
                node_loc = np.array(zeta, dtype=float)
                # One distance call over the concatenated pools of the parent's
                # R-neighbors within reach; the result is split back into the pools.
                nbrs = np.array([r for r in parent.r_neighbors if pools[r].size])
                nbrs = nbrs[_cross_distances(prev_locs.take(nbrs, axis=0), node_loc[None, :])[:, 0] <= reach]
                cat = np.concatenate([pools[r] for r in nbrs])
                within = _cross_distances(X.take(cat, axis=0), node_loc[None, :])[:, 0] <= R
                start = 0
                for r in nbrs:
                    stop = start + pools[r].size
                    kept = ~within[start:stop]
                    if not kept.all():
                        pools[r] = pools[r][kept]
                    start = stop
                c = len(new_nodes)
                assigned = np.sort(cat[within])
                new_nodes.append(CoverTreeNode(location=node_loc, parent=p, assigned=assigned))
                locs[c] = node_loc
                parent.children.append(c)

        locs = locs[: len(new_nodes)]
        # R-neighbors: only children of the parent's R-neighbors can be close
        # enough; within that candidate set, keep those inside the radius.
        # Siblings share the candidate set, so each parent takes one call.
        cands: list[np.ndarray] = []
        for parent in prev:
            cand = np.array(sorted(c for r in parent.r_neighbors for c in prev[r].children), dtype=int)
            cands.append(cand)
            if parent.children:
                d = _cross_distances(locs.take(parent.children, axis=0), locs.take(cand, axis=0))
                for c, row in zip(parent.children, d <= neighbor_radii[ell]):
                    new_nodes[c].r_neighbors = cand[row].tolist()

        if voronoi_repartition:
            label = np.empty(n, dtype=int)
            for r, prev_node in enumerate(prev):
                orig = prev_node.assigned
                if orig.size == 0:
                    continue
                cand = cands[r]
                cand = cand[_cross_distances(locs.take(cand, axis=0), prev_locs[r : r + 1])[:, 0] <= reach]
                d = _cross_distances(X.take(orig, axis=0), locs.take(cand, axis=0))
                # cand is sorted, so ties resolve to the lowest node index
                label[orig] = cand[np.argmin(d, axis=1)]
            # The previous level's assigned sets partition the data, so every
            # label is set; a stable sort groups the points by node in index order.
            order = np.argsort(label, kind="stable")
            bounds = np.cumsum(np.bincount(label, minlength=len(new_nodes)))[:-1]
            for node, assigned in zip(new_nodes, np.split(order, bounds)):
                node.assigned = assigned

        levels.append(new_nodes)

    return CoverTree(
        epsilon=epsilon,
        d_max=d_max,
        L=L,
        radii=radii,
        neighbor_radii=neighbor_radii,
        levels=levels,
        seed=seed,
        lloyd_averaging=lloyd_averaging,
        voronoi_repartition=voronoi_repartition,
    )


def inducing_points(tree: CoverTree, level: Optional[int] = None) -> InducingSet:
    """Locations of all nodes at the given level (deepest level by default)."""
    if level is None:
        level = tree.L
    if not 0 <= level <= tree.L:
        raise ValueError(f"level must be in [0, {tree.L}], got {level}")
    return InducingSet(
        tree.level_locations(level),
        {"method": "covertree", "level": level, "epsilon": tree.epsilon, "seed": tree.seed},
    )


def separation(points: Union[InducingSet, np.ndarray]) -> float:
    """Minimum pairwise distance; +inf for a single point."""
    P = _points_of(points)
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


def spatial_resolution(data, points: Union[InducingSet, np.ndarray]) -> float:
    """Maximum over the data of the distance to the nearest given point."""
    return float(_nearest(_as_points(data), _points_of(points))[1].max())


def leaf_resolution(tree: CoverTree, data) -> float:
    """spatial_resolution(data, inducing_points(tree)) in O(N), for a tree built
    from data with voronoi_repartition; any other tree raises ValueError.

    The deepest level's assigned sets are then the nearest-point labels, ties
    included, and _cross_distances gives a pair the same value in any call
    shape, so the largest distance from each leaf to its own points is the
    full scan's result bit for bit.
    """
    if not tree.voronoi_repartition:
        raise ValueError("leaf_resolution needs a tree built with voronoi_repartition")
    X = _as_points(data)
    return max(
        float(_cross_distances(X.take(node.assigned, axis=0), node.location[None, :]).max())
        for node in tree.levels[tree.L]
        if node.assigned.size
    )


def cluster_assign(data, z: Union[InducingSet, np.ndarray]) -> ClusterAssignment:
    """Nearest-inducing-point labels and cluster sizes; ties pick the lowest index."""
    P = _points_of(z)
    labels = _nearest(_as_points(data), P)[0]
    return ClusterAssignment(labels, np.bincount(labels, minlength=P.shape[0]))


def select_uniform(data, M: int, seed: int) -> InducingSet:
    """M distinct data points, sampled uniformly without replacement."""
    X = _as_points(data)
    n = X.shape[0]
    if not 1 <= M <= n:
        raise ValueError(f"M must be in [1, {n}], got {M}")
    idx = np.sort(np.random.default_rng(seed).choice(n, size=M, replace=False))
    return InducingSet(X[idx], {"method": "uniform", "seed": seed, "indices": idx.tolist()})


def select_kmeans(data, M: int, iters: int, seed: int) -> InducingSet:
    """Lloyd's K-means from a uniform-without-replacement initialization."""
    X = _as_points(data)
    n = X.shape[0]
    if not 1 <= M <= n:
        raise ValueError(f"M must be in [1, {n}], got {M}")
    centroids = np.array(select_uniform(X, M, seed).points)
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
    return InducingSet(centroids, {"method": "kmeans", "seed": seed, "iters": iters})
