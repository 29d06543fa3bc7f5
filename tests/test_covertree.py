import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from stablegp import (
    build,
    cluster_assign,
    inducing_points,
    select_kmeans,
    select_uniform,
    separation,
    spatial_resolution,
)
from stablegp import covertree
from stablegp.covertree import _cross_distances, leaf_resolution


def check_level_guarantees(tree, X):
    """Exact separation/resolution guarantees at every level, no tolerance."""
    for ell, pts in enumerate(tree.levels):
        threshold = tree.epsilon * 2.0 ** (tree.L - ell)
        assert separation(pts) >= threshold
        assert spatial_resolution(X, pts) <= threshold


def test_single_data_point():
    X = np.array([[1.5, -2.0]])
    tree = build(X, epsilon=0.3)
    assert tree.L == 1
    for pts in tree.levels:
        assert pts.shape[0] == 1
        assert np.allclose(pts[0], X[0], atol=0.0)
        assert separation(pts) == math.inf
    check_level_guarantees(tree, X)


def test_identical_points_degenerate():
    X = np.tile(np.array([[2.0, 3.0]]), (17, 1))
    tree = build(X, epsilon=0.5)
    assert tree.L == 1
    top = inducing_points(tree)
    assert top.shape == (1, 2)
    assert np.allclose(top[0], [2.0, 3.0], atol=0.0)
    check_level_guarantees(tree, X)


def test_epsilon_larger_than_spread_collapses_to_one_point():
    X = np.array([[0.0], [1.0]])
    tree = build(X, epsilon=10.0)
    assert inducing_points(tree).shape == (1, 1)
    check_level_guarantees(tree, X)


def test_build_input_validation():
    with pytest.raises(ValueError):
        build(np.zeros((0, 2)), epsilon=1.0)
    with pytest.raises(ValueError):
        build(np.zeros((3, 2)), epsilon=0.0)
    with pytest.raises(ValueError):
        build(np.zeros((3, 2)), epsilon=-1.0)
    with pytest.raises(ValueError):
        build(np.zeros((3, 0)), epsilon=1.0)


def test_root_is_data_mean():
    rng = np.random.default_rng(0)
    X = rng.uniform(-5.0, 5.0, size=(200, 3))
    tree = build(X, epsilon=1.0)
    assert np.allclose(tree.levels[0][0], X.mean(axis=0), atol=1e-12)
    assert np.array_equal(tree.parents[0], [-1]) and np.array_equal(tree.labels[0], np.zeros(200))


def test_guarantees_uniform_square():
    rng = np.random.default_rng(1)
    X = rng.uniform(-5.0, 5.0, size=(1000, 2))
    tree = build(X, epsilon=0.5)
    assert tree.L >= 3
    check_level_guarantees(tree, X)


def test_guarantees_all_option_combinations():
    rng = np.random.default_rng(2)
    for lloyd, voronoi in itertools.product([False, True], repeat=2):
        for d in (1, 2, 3):
            X = rng.normal(size=(400, d)) * 3.0
            tree = build(X, epsilon=0.4, lloyd_averaging=lloyd, voronoi_repartition=voronoi, seed=7)
            check_level_guarantees(tree, X)


def test_assigned_sets_partition_data_at_every_level():
    # Each level labels every datum with one of its nodes, and its parents
    # name nodes of the level above, in nondecreasing order: a parent's
    # children are made one after another.
    rng = np.random.default_rng(3)
    for n, d, eps, voronoi in ((500, 2, 0.05, True), (3000, 2, 0.01, True), (800, 3, 0.1, False), (2000, 1, 1e-4, True)):
        X = rng.uniform(0.0, 1.0, size=(n, d))
        tree = build(X, epsilon=eps, voronoi_repartition=voronoi, seed=int(rng.integers(100)))
        assert len(tree.levels) == len(tree.parents) == len(tree.labels) == len(tree.neighbors) == tree.L + 1
        for ell, (locs, parent, label) in enumerate(zip(tree.levels, tree.parents, tree.labels)):
            assert locs.shape == (parent.size, d) and label.shape == (n,)
            assert label.min() >= 0 and label.max() < parent.size
            if ell:
                assert parent.min() >= 0 and parent.max() < tree.levels[ell - 1].shape[0]
                assert np.all(np.diff(parent) >= 0)


def test_assigned_data_within_level_radius():
    rng = np.random.default_rng(4)
    X = rng.uniform(-2.0, 2.0, size=(600, 2))
    tree = build(X, epsilon=0.2)
    for locs, label, radius in zip(tree.levels, tree.labels, tree.radii):
        assert np.linalg.norm(X - locs[label], axis=1).max() <= radius


def test_parents_within_parent_radius_of_children():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(800, 3))
    tree = build(X, epsilon=0.3)
    for ell in range(1, tree.L + 1):
        gaps = np.linalg.norm(tree.levels[ell - 1][tree.parents[ell]] - tree.levels[ell], axis=1)
        assert gaps.max() <= tree.radii[ell - 1]


def test_r_neighbors_complete_by_brute_force():
    rng = np.random.default_rng(6)
    X = rng.uniform(-4.0, 4.0, size=(1500, 2))
    tree = build(X, epsilon=0.25)
    for locs, neighbors, R in zip(tree.levels, tree.neighbors, tree.radii):
        gaps = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=2)
        # lists are sorted and self-inclusive: a node is trivially within its own radius
        assert neighbors == [np.flatnonzero(row <= 4.0 * R).tolist() for row in gaps]


def _inputs(kind, rng, n, d):
    if kind == "uniform":
        return rng.uniform(-3.0, 3.0, size=(n, d))
    if kind == "grid":  # many exact ties between candidate nodes
        return np.round(rng.uniform(-3.0, 3.0, size=(n, d)) * 2.0) / 2.0
    centers = rng.normal(size=(5, d)) * 4.0
    return centers[rng.integers(5, size=n)] + 0.2 * rng.normal(size=(n, d))


def test_voronoi_leaf_assignment_is_global_nearest_inducing_point():
    # With voronoi_repartition, the leaf assigned sets are exactly the labels
    # of a brute-force nearest-point scan over the leaves, ties included.
    rng = np.random.default_rng(15)
    for kind, d, lloyd in itertools.product(["uniform", "grid", "clustered"], (1, 2, 3), (True, False)):
        for _ in range(2):
            X = _inputs(kind, rng, int(rng.integers(50, 800)), d)
            tree = build(X, epsilon=float(rng.uniform(0.15, 1.0)), lloyd_averaging=lloyd, seed=int(rng.integers(100)))
            assert np.array_equal(tree.labels[-1], cluster_assign(X, inducing_points(tree)).labels)
            assert leaf_resolution(tree, X) == spatial_resolution(X, inducing_points(tree))


def test_leaf_resolution_refuses_a_tree_without_voronoi_repartition():
    # without the Voronoi pass a leaf's assigned points need not be the
    # points nearest to it, so the leaf scan would not be the full scan
    X = np.random.default_rng(16).uniform(-3.0, 3.0, size=(200, 2))
    with pytest.raises(ValueError, match="voronoi_repartition"):
        leaf_resolution(build(X, epsilon=0.5, voronoi_repartition=False), X)


def _assert_levels_of(shallow, deep, j):
    """shallow is levels 0..j of deep, bit for bit."""
    assert shallow.L == j
    assert shallow.d_max == deep.d_max
    assert shallow.radii == deep.radii[: j + 1]
    assert shallow.neighbors == deep.neighbors[: j + 1]
    for ell in range(j + 1):
        assert shallow.levels[ell].shape == deep.levels[ell].shape
        assert shallow.levels[ell].tobytes() == deep.levels[ell].tobytes()
        assert np.array_equal(shallow.parents[ell], deep.parents[ell])
        assert np.array_equal(shallow.labels[ell], deep.labels[ell])


def _assert_minimal_depth(tree):
    assert math.ldexp(tree.epsilon, tree.L) >= tree.d_max
    assert tree.L == 1 or math.ldexp(tree.epsilon, tree.L - 1) < tree.d_max


def test_build_at_a_coarser_radius_gives_the_upper_levels():
    # The trees of one dataset and seed are nested: building at radii[j]
    # reproduces levels 0..j, which is what lets one tree serve every
    # resolution of a power-of-two sweep.
    rng = np.random.default_rng(17)
    for kind, d, lloyd, voronoi in itertools.product(
        ["uniform", "grid", "clustered"], (1, 2, 3), (True, False), (True, False)
    ):
        X = _inputs(kind, rng, int(rng.integers(50, 300)), d)
        seed = int(rng.integers(100))
        deep = build(X, float(rng.uniform(0.15, 0.6)), lloyd, voronoi, seed)
        _assert_minimal_depth(deep)
        for j in range(1, deep.L + 1):
            _assert_levels_of(build(X, deep.radii[j], lloyd, voronoi, seed), deep, j)
    # d_max / epsilon on, one ulp above and one ulp below a power of two
    X = _inputs("uniform", rng, 200, 2)
    exact = math.ldexp(build(X, 1.0).d_max, -4)
    for eps, L in ((exact, 4), (float(np.nextafter(exact, 0.0)), 5), (float(np.nextafter(exact, 1.0)), 4)):
        deep = build(X, eps, seed=3)
        _assert_minimal_depth(deep)
        assert deep.L == L
        for j in range(1, deep.L + 1):
            _assert_levels_of(build(X, deep.radii[j], seed=3), deep, j)


# sha256 prefixes of every level's locations, parents and labels, over the
# four option combinations, at epsilon 0.5 on 400 points.  Recorded (x86-64,
# numpy 2.4) from the builder that kept each node as an object, before the
# tree became arrays; a change to any comparison, radius or tie rule of the
# build moves them.  On the grid data, distances of exactly R occur.
_PINNED_TREES = {
    ("uniform", 1): "341bd46099bf23e3",
    ("uniform", 2): "9977ed49916501b1",
    ("uniform", 3): "b82cb46e0a07ae86",
    ("grid", 1): "38144a7ea51762d4",
    ("grid", 2): "3582fbcebec13c8f",
    ("grid", 3): "b6b8ece138c392ce",
    ("clustered", 1): "89dda5ecc3198875",
    ("clustered", 2): "b4edfefbc804373f",
    ("clustered", 3): "c8f2de7443766f36",
}


@pytest.mark.parametrize("kind, d", sorted(_PINNED_TREES))
def test_trees_match_their_pinned_digests(kind, d):
    X = _inputs(kind, np.random.default_rng(10 * ["uniform", "grid", "clustered"].index(kind) + d), 400, d)
    h = hashlib.sha256()
    for lloyd, voronoi in itertools.product((True, False), repeat=2):
        tree = build(X, 0.5, lloyd, voronoi, seed=5)
        for locs, parent, label in zip(tree.levels, tree.parents, tree.labels, strict=True):
            for a, dtype in ((locs, "<f8"), (parent, "<i8"), (label, "<i8")):
                h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    assert h.hexdigest()[:16] == _PINNED_TREES[kind, d]


def _einsum_distances(A, B):
    """Reference: reduce an (n, m, d) difference tensor with einsum."""
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def test_cross_distances_shape_independent():
    rng = np.random.default_rng(16)
    for d in (1, 2, 3, 4, 8):
        # wide dynamic range and a rounded copy, so that some pairs tie
        A = rng.normal(size=(37, d)) * np.exp(rng.uniform(-6.0, 6.0, size=(37, 1)))
        B = np.vstack([rng.normal(size=(11, d)), np.round(A[:6] * 4.0) / 4.0])
        D = _cross_distances(A, B)
        assert D.shape == (37, 17)
        single = np.array([[_cross_distances(a[None, :], b[None, :])[0, 0] for b in B] for a in A])
        assert np.array_equal(D, single)
        assert np.array_equal(_cross_distances(B, A), D.T)
        if d <= 2:
            assert np.array_equal(D, _einsum_distances(A, B))


def test_build_seed_determinism():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 2))
    t1 = build(X, epsilon=0.3, seed=42)
    t2 = build(X, epsilon=0.3, seed=42)
    for a, b in zip(t1.levels, t2.levels, strict=True):
        assert np.array_equal(a, b)


def test_inducing_points_levels_and_range():
    rng = np.random.default_rng(8)
    X = rng.uniform(-1.0, 1.0, size=(100, 2))
    tree = build(X, epsilon=0.2)
    assert inducing_points(tree, 0).shape == (1, 2)
    top = inducing_points(tree)
    assert np.array_equal(top, tree.levels[tree.L])
    assert separation(top) >= tree.epsilon
    top[0] = np.inf  # a copy: the tree is untouched
    assert np.isfinite(tree.levels[tree.L]).all()
    with pytest.raises(ValueError):
        inducing_points(tree, tree.L + 1)
    with pytest.raises(ValueError):
        inducing_points(tree, -1)


def test_separation_examples():
    assert separation(np.array([[0.0], [1.0], [3.0]])) == 1.0
    assert separation(np.array([[2.0, 2.0]])) == math.inf
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(100, 3))
    brute = min(
        float(np.linalg.norm(pts[i] - pts[j]))
        for i in range(100)
        for j in range(i + 1, 100)
    )
    assert separation(pts) == pytest.approx(brute, rel=1e-12)


def test_spatial_resolution_examples():
    data = np.array([[0.0], [2.0]])
    assert spatial_resolution(data, data) == 0.0
    assert spatial_resolution(data, np.array([[0.0]])) == 2.0
    rng = np.random.default_rng(11)
    X = rng.normal(size=(120, 2))
    Z = rng.normal(size=(9, 2))
    brute = max(
        min(float(np.linalg.norm(x - z)) for z in Z) for x in X
    )
    assert spatial_resolution(X, Z) == pytest.approx(brute, rel=1e-12)


def test_cluster_assign_examples():
    data = np.array([[0.0], [0.4], [1.0]])
    z = np.array([[0.0], [1.0]])
    labels, counts = cluster_assign(data, z)
    assert np.array_equal(labels, [0, 0, 1])
    assert np.array_equal(counts, [2, 1])

    labels, counts = cluster_assign(z, z)
    assert np.array_equal(labels, [0, 1])
    assert np.array_equal(counts, [1, 1])

    # equidistant datum goes to the lowest index
    labels, _ = cluster_assign(np.array([[0.5]]), z)
    assert labels[0] == 0


def brute_nearest(X, Z):
    """The full O(N M) scan: argmin over every distance, ties to the lowest index."""
    d = _cross_distances(X, Z)
    labels = np.argmin(d, axis=1)
    return labels, d[np.arange(X.shape[0]), labels]


def nearest_cases():
    """(name, X, Z) inputs for the nearest-point scan, d = 1-3."""
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        X = rng.uniform(-4.0, 4.0, size=(3000, d))
        yield f"uniform-{d}", X, rng.uniform(-4.0, 4.0, size=(60, d))
        grid = np.round(X * 2.0) / 2.0  # many equidistant pairs
        yield f"grid-{d}", grid, np.round(rng.uniform(-4.0, 4.0, size=(40, d)))
        yield f"grid-subset-{d}", grid, grid[:50]
        blobs = rng.normal(scale=0.05, size=(3000, d)) + rng.integers(0, 4, size=(3000, 1))
        yield f"clustered-{d}", blobs, blobs[rng.choice(3000, 30, replace=False)]
        Z = X[:80]
        yield f"coincident-{d}", X, Z
        yield f"duplicated-z-{d}", grid, np.vstack([grid[:20], grid[5:15], grid[:3]])
        yield f"m1-{d}", X, X[7:8]
        tree = build(X, 0.5, seed=2)
        yield f"covertree-{d}", X, inducing_points(tree)


def test_cluster_assign_and_resolution_match_the_brute_scan():
    for name, X, Z in nearest_cases():
        labels, dists = brute_nearest(X, Z)
        got = cluster_assign(X, Z)
        assert np.array_equal(got.labels, labels), name
        assert np.array_equal(got.counts, np.bincount(labels, minlength=Z.shape[0])), name
        assert spatial_resolution(X, Z) == dists.max(), name


def test_select_kmeans_unchanged_by_the_nearest_scan(monkeypatch):
    for name, X, _ in nearest_cases():
        if name.startswith(("uniform", "grid-subset", "clustered")):
            got = select_kmeans(X, 12, iters=15, seed=4)
            with monkeypatch.context() as m:
                m.setattr(covertree, "_nearest", brute_nearest)
                want = select_kmeans(X, 12, iters=15, seed=4)
            assert np.array_equal(got, want), name


def test_cluster_assign_does_not_scan_every_pair(monkeypatch):
    # Only rows whose two nearest candidates tie within the slack may reach
    # a distance call with all M points; the rest cost O(1) distances each.
    rng = np.random.default_rng(32)
    X = rng.uniform(-5.0, 5.0, size=(20_000, 2))
    Z = X[select_uniform(X, 140, seed=3)]
    entries = []
    distances = covertree._distances

    def counted(A, B):
        out = distances(A, B)
        entries.append(out.size)
        return out

    monkeypatch.setattr(covertree, "_distances", counted)
    got = cluster_assign(X, Z)
    monkeypatch.undo()
    assert np.array_equal(got.labels, brute_nearest(X, Z)[0])
    assert sum(entries) <= 2 * X.shape[0] < X.shape[0] * Z.shape[0] // 50


def test_select_uniform():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 2))
    assert np.array_equal(select_uniform(X, 30, seed=0), np.arange(30))
    (one,) = select_uniform(X, 1, seed=3)
    assert 0 <= one < 30
    a = select_uniform(X, 10, seed=5)
    b = select_uniform(X, 10, seed=5)
    assert np.array_equal(a, b)
    # sorted and distinct, so the rows X[a] are 10 distinct data points
    assert a.shape == (10,) and (np.diff(a) > 0).all() and 0 <= a[0] and a[-1] < 30
    with pytest.raises(ValueError):
        select_uniform(X, 31, seed=0)


def test_select_kmeans():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(25, 2))
    everything = select_kmeans(X, 25, iters=5, seed=0)
    assert everything.shape == (25, 2)
    assert np.allclose(np.sort(everything, axis=0), np.sort(X, axis=0), atol=1e-12)

    blob_a = rng.normal(loc=-10.0, scale=0.1, size=(40, 1))
    blob_b = rng.normal(loc=10.0, scale=0.1, size=(60, 1))
    blobs = np.vstack([blob_a, blob_b])
    got = select_kmeans(blobs, 2, iters=20, seed=1)
    centers = np.sort(got[:, 0])
    assert centers[0] == pytest.approx(float(blob_a.mean()), abs=1e-9)
    assert centers[1] == pytest.approx(float(blob_b.mean()), abs=1e-9)

    r1 = select_kmeans(X, 5, iters=10, seed=9)
    r2 = select_kmeans(X, 5, iters=10, seed=9)
    assert np.array_equal(r1, r2)
    with pytest.raises(ValueError):
        select_kmeans(X, 26, iters=5, seed=0)


def test_build_near_linear_scaling():
    rng = np.random.default_rng(14)
    X = rng.uniform(0.0, 10.0, size=(16_000, 2))
    epsilon = 0.15

    def timed(pts):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            build(pts, epsilon=epsilon)
            best = min(best, time.perf_counter() - t0)
        return best

    small = timed(X[:8000])
    large = timed(X)
    assert large / small <= 2.8
