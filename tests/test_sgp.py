import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from stablegp import (
    ClusteredModel,
    Dataset,
    Family,
    Kernel,
    NumericalFailure,
    TrainConfig,
    build,
    cluster_assign,
    clustered_posterior,
    exact_posterior,
    fit_clustered,
    gram,
    inducing_points,
    kl_to_prior,
    sample_targets,
    stability_report,
    train,
    training_objective,
)
from stablegp import sgp
from stablegp.cli import EXIT_NUMERICAL, main
from stablegp import linalg
from stablegp.linalg import solve_log
from support import reference_objective_and_grads, write_csv_dataset


# ---------------------------------------------------------------------------
# Independent dense oracles.  These deliberately avoid the library's solver
# and assembly paths: kernels are evaluated from the closed-form profiles via
# cdist, and every solve goes through np.linalg.solve/inv.

def oracle_gram(kernel, A, B):
    ls = np.asarray(kernel.lengthscales, dtype=float)
    U = cdist(np.asarray(A) / ls, np.asarray(B) / ls)
    v = kernel.variance
    if kernel.family is Family.SQUARED_EXPONENTIAL:
        return v * np.exp(-0.5 * U**2)
    if kernel.family is Family.MATERN12:
        return v * np.exp(-U)
    if kernel.family is Family.MATERN32:
        return v * (1.0 + math.sqrt(3.0) * U) * np.exp(-math.sqrt(3.0) * U)
    return v * (1.0 + math.sqrt(5.0) * U + 5.0 * U**2 / 3.0) * np.exp(-math.sqrt(5.0) * U)


def oracle_exact_posterior(kernel, sigma2, X, y, Q):
    Kxx = oracle_gram(kernel, X, X) + sigma2 * np.eye(len(X))
    Kqx = oracle_gram(kernel, Q, X)
    Kqq = oracle_gram(kernel, Q, Q)
    alpha = np.linalg.solve(Kxx, y)
    mean = Kqx @ alpha
    cov = Kqq - Kqx @ np.linalg.solve(Kxx, Kqx.T)
    return mean, cov


def oracle_nlml(kernel, sigma2, X, y):
    Kxx = oracle_gram(kernel, X, X) + sigma2 * np.eye(len(X))
    sign, logdet = np.linalg.slogdet(Kxx)
    assert sign > 0
    quad = float(y @ np.linalg.solve(Kxx, y))
    return 0.5 * quad + 0.5 * logdet + 0.5 * len(X) * math.log(2.0 * math.pi)


def random_problem(seed, n, d, family=Family.SQUARED_EXPONENTIAL):
    rng = np.random.default_rng(seed)
    kernel = Kernel(family, float(rng.uniform(0.5, 2.0)), rng.uniform(0.4, 1.5, size=d))
    X = rng.uniform(-3.0, 3.0, size=(n, d))
    y = rng.normal(size=n)
    sigma2 = float(rng.uniform(0.05, 0.5))
    return kernel, sigma2, X, y, rng


# ---------------------------------------------------------------------------
# exact posterior

def test_exact_posterior_no_data_is_prior():
    kernel = Kernel(Family.MATERN32, 1.4, np.array([1.0]))
    Q = np.array([[0.0], [1.0], [2.5]])
    belief = exact_posterior(Dataset(np.empty((0, 1)), np.empty(0)), kernel, 0.1, Q)
    assert np.array_equal(belief.mean, np.zeros(3))
    assert np.allclose(belief.cov, gram(kernel, Q), atol=0.0)


def test_exact_posterior_interpolates_at_small_noise():
    kernel, _, X, y, _ = random_problem(0, 8, 1)
    sigma = 1e-4
    belief = exact_posterior(Dataset(X, y), kernel, sigma**2, X[:1])
    assert abs(belief.mean[0] - y[0]) <= 10.0 * sigma


def test_exact_posterior_matches_dense_oracle():
    kernel, sigma2, X, y, rng = random_problem(1, 5, 1)
    Q = rng.uniform(-3.0, 3.0, size=(4, 1))
    belief = exact_posterior(Dataset(X, y), kernel, sigma2, Q)
    mean, cov = oracle_exact_posterior(kernel, sigma2, X, y, Q)
    assert np.max(np.abs(belief.mean - mean)) <= 1e-10
    assert np.max(np.abs(belief.cov - cov)) <= 1e-10


@pytest.mark.parametrize(
    "field, bad",
    [("X", math.nan), ("X", math.inf), ("y", math.nan), ("y", -math.inf), ("noise_sigma2", math.nan),
     ("noise_sigma2", math.inf)],
)
def test_exact_gp_rejects_non_finite_input(field, bad):
    kernel, sigma2, X, y, _ = random_problem(2, 6, 2)
    fields = {"X": X, "y": y, "noise_sigma2": sigma2}
    if field == "noise_sigma2":
        fields[field] = bad
    else:
        fields[field] = fields[field].copy()
        fields[field].flat[3] = bad
    with pytest.raises(ValueError, match="finite"):
        exact_posterior(Dataset(fields["X"], fields["y"]), kernel, fields["noise_sigma2"], X[:2])


def test_singular_exact_gp_raises_instead_of_jittering():
    # two coincident inputs and a noise far below the rounding of the unit
    # diagonal: K_xx + sigma^2 I is singular in double precision
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0]))
    data = Dataset(np.array([[0.0], [0.0], [1.0]]), np.array([1.0, -1.0, 0.5]))
    with pytest.raises(NumericalFailure):
        exact_posterior(data, kernel, 1e-20, np.array([[0.5]]))


def test_exact_posterior_solves_are_residual_gated(monkeypatch):
    kernel, sigma2, X, y, rng = random_problem(1, 5, 1)
    Q = rng.uniform(-3.0, 3.0, size=(4, 1))
    monkeypatch.setattr(sgp, "_RESIDUAL_ACCEPT", 0.0)
    with pytest.raises(NumericalFailure, match="relative residual"):
        exact_posterior(Dataset(X, y), kernel, sigma2, Q)
    with pytest.raises(NumericalFailure, match="relative residual"):
        sample_targets(kernel, sigma2, X, 0, Q)


def test_nothing_jitters():
    # every posterior, KL, objective, training step and stability report
    # factors K_zz + Lambda once, with no jitter, and nothing else is factored
    kernel, sigma2, X, y, rng = random_problem(24, 120, 2)
    data = Dataset(X, y)
    Q = rng.uniform(-3.0, 3.0, size=(5, 2))
    with solve_log() as log:
        model = fit_clustered(data, inducing_points(build(X, epsilon=0.7)), kernel, sigma2)
        exact_posterior(data, kernel, sigma2, Q)
        sample_targets(kernel, sigma2, X, 0, Q)
        clustered_posterior(model, Q)
        clustered_posterior(model, Q, full_cov=False)
        kl_to_prior(model)
        kl_to_prior(model, probes=16, seed=0)
        training_objective(model, data, data.n)
        train(model, data, TrainConfig(steps=2, batch_size=64, probes=4, seed=0))
        stability_report(model)
    factors = [e for e in log if e["kind"] == "cholesky"]
    assert len(factors) == 10
    assert {e["tag"] for e in factors} == {"kzz_plus_lambda"}


# ---------------------------------------------------------------------------
# clustered model construction

def test_fit_clustered_all_data_as_inducing():
    kernel, sigma2, X, y, _ = random_problem(5, 20, 1)
    model = fit_clustered(Dataset(X, y), X, kernel, sigma2)
    assert np.allclose(model.u, y, atol=0.0)
    assert np.allclose(model.lam, sigma2, atol=0.0)
    assert np.all(model.cluster_counts == 1)


def test_fit_clustered_hand_example():
    data = Dataset(np.array([[0.0], [0.1]]), np.array([1.0, 3.0]))
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0]))
    model = fit_clustered(data, np.array([[0.05]]), kernel, 0.5)
    assert model.u[0] == pytest.approx(2.0, abs=0.0)
    assert model.lam[0] == pytest.approx(0.25, abs=0.0)
    assert model.cluster_counts[0] == 2


def test_fit_clustered_drops_empty_clusters_with_warning():
    data = Dataset(np.array([[0.0], [0.2]]), np.array([1.0, 2.0]))
    z = np.array([[0.1], [50.0]])
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0]))
    with pytest.warns(UserWarning, match="empty"):
        model = fit_clustered(data, z, kernel, 0.3)
    assert model.m == 1
    assert model.u[0] == pytest.approx(1.5)

    # Empty clusters interleaved with kept ones, on grids where equidistant
    # ties are common: the renumbered labels must be exactly those of a fresh
    # assignment to the kept points, which the per-cluster sums of random
    # targets reveal.
    rng = np.random.default_rng(31)
    X = np.round(rng.uniform(-1.0, 1.0, size=(300, 2)) * 8.0) / 8.0
    y = rng.normal(size=300)
    z = np.unique(np.round(rng.uniform(-1.0, 1.0, size=(40, 2)) * 4.0) / 4.0, axis=0)
    far = [[50.0, 0.0], [0.0, 60.0], [-70.0, 0.0], [0.0, -80.0]]
    z = np.insert(z, [0, 3, 7, len(z)], far, axis=0)
    with pytest.warns(UserWarning, match="empty"):
        model = fit_clustered(Dataset(X, y), z, Kernel(Family.MATERN32, 1.0, np.array([0.5, 0.5])), 0.3)
    labels, counts = cluster_assign(X, model.z)
    assert model.m <= z.shape[0] - len(far)
    assert np.array_equal(model.cluster_counts, counts)
    assert np.array_equal(model.u, np.bincount(labels, weights=y) / counts)


# ---------------------------------------------------------------------------
# clustered posterior and its equivalence oracle

def snapped_oracle(model, data, Q):
    """Exact posterior on the dataset with inputs snapped to nearest z."""
    labels, _ = cluster_assign(data.X, model.z)
    X_snap = model.z[labels]
    return oracle_exact_posterior(model.kernel, model.noise_sigma2, X_snap, data.y, Q)


def test_clustered_equals_exact_on_snapped_inputs():
    for seed in range(5):
        kernel, _, X, y, rng = random_problem(10 + seed, 150, 2, family=[
            Family.SQUARED_EXPONENTIAL, Family.MATERN12, Family.MATERN32, Family.MATERN52
        ][seed % 4])
        sigma2 = float(rng.uniform(0.25, 1.0))
        data = Dataset(X, y)
        tree = build(X, epsilon=float(rng.uniform(0.5, 1.5)), seed=seed)
        model = fit_clustered(data, inducing_points(tree), kernel, sigma2)
        Q = rng.uniform(-3.0, 3.0, size=(10, 2))
        belief = clustered_posterior(model, Q)
        mean, cov = snapped_oracle(model, data, Q)
        assert np.max(np.abs(belief.mean - mean)) <= 1e-8
        assert np.max(np.abs(belief.cov - cov)) <= 1e-8


FAMILIES = [Family.SQUARED_EXPONENTIAL, Family.MATERN12, Family.MATERN32, Family.MATERN52]


def criterion_2_instance(trial):
    """The model and 8 queries of acceptance criterion 2's trial number `trial`."""
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(20, 201))
    d = int(rng.integers(1, 4))
    kernel = Kernel(FAMILIES[trial % 4], float(rng.uniform(0.5, 2.0)), rng.uniform(0.4, 1.5, size=d))
    X = rng.uniform(-4.0, 4.0, size=(n, d))
    y = rng.normal(size=n)
    sigma2 = float(rng.uniform(0.25, 1.0))
    tree = build(X, epsilon=float(rng.uniform(0.4, 1.5)), seed=trial)
    model = fit_clustered(Dataset(X, y), inducing_points(tree), kernel, sigma2)
    return model, rng.uniform(-4.0, 4.0, size=(8, d))


def assert_diagonal_matches_full(model, Q):
    full = clustered_posterior(model, Q)
    diag = clustered_posterior(model, Q, full_cov=False)
    assert diag.cov is None
    assert np.array_equal(full.var, np.diag(full.cov))
    assert np.max(np.abs(diag.mean - full.mean)) <= 1e-12
    assert np.max(np.abs(diag.var - np.diag(full.cov))) <= 1e-12


def test_diagonal_posterior_matches_full_on_criterion_2_instances():
    for trial in range(100):
        assert_diagonal_matches_full(*criterion_2_instance(trial))


def test_diagonal_posterior_blocks_match_full(monkeypatch):
    monkeypatch.setattr(sgp, "_QUERY_BLOCK", 7)
    model, _ = criterion_2_instance(3)
    Q = np.random.default_rng(31).uniform(-4.0, 4.0, size=(52, model.z.shape[1]))  # 7 full blocks and 3 left over
    assert_diagonal_matches_full(model, Q)


def test_clustered_all_data_inducing_equals_exact():
    kernel, _, X, y, rng = random_problem(20, 60, 1)
    sigma2 = 0.3
    data = Dataset(X, y)
    model = fit_clustered(data, X, kernel, sigma2)
    Q = rng.uniform(-3.0, 3.0, size=(9, 1))
    belief = clustered_posterior(model, Q)
    full = exact_posterior(Dataset(X, y), kernel, sigma2, Q)
    assert np.max(np.abs(belief.mean - full.mean)) <= 1e-8
    assert np.max(np.abs(belief.cov - full.cov)) <= 1e-8


def test_clustered_far_query_reverts_to_prior():
    kernel, _, X, y, _ = random_problem(21, 40, 1)
    model = fit_clustered(Dataset(X, y), X[::4], kernel, 0.2)
    far = np.array([[1e4]])
    belief = clustered_posterior(model, far)
    assert abs(belief.mean[0]) <= 1e-10
    assert belief.cov[0, 0] == pytest.approx(kernel.variance, abs=1e-10)


def test_clustered_covariance_dominated_by_prior():
    kernel, _, X, y, rng = random_problem(22, 80, 2)
    tree = build(X, epsilon=0.8)
    model = fit_clustered(Dataset(X, y), inducing_points(tree), kernel, 0.4)
    Q = rng.uniform(-3.0, 3.0, size=(12, 2))
    belief = clustered_posterior(model, Q)
    gap_eigs = np.linalg.eigvalsh(gram(kernel, Q) - belief.cov)
    assert gap_eigs[0] >= -1e-8


@pytest.mark.parametrize("full_cov", [True, False])
def test_posterior_scales_with_targets_of_any_magnitude(full_cov):
    # ||u|| overflows at 1e170 u: the residual gate must check the solve, not fail on the norm
    kernel, _, X, y, rng = random_problem(24, 80, 2)
    model = fit_clustered(Dataset(X, y), inducing_points(build(X, epsilon=0.8)), kernel, 0.4)
    huge = dataclasses.replace(model, u=1e170 * model.u)
    Q = rng.uniform(-3.0, 3.0, size=(12, 2))
    base = clustered_posterior(model, Q, full_cov=full_cov)
    belief = clustered_posterior(huge, Q, full_cov=full_cov)
    np.testing.assert_allclose(belief.mean, 1e170 * base.mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(belief.var, base.var, rtol=1e-12, atol=0.0)


def test_solve_gate_holds_no_squared_temporary_the_size_of_the_right_hand_sides():
    # The solution and the gate's residual tiles are the only B-sized arrays
    # _solve needs; the gate's column norms must not add another, whether it
    # rebuilds K_zz or is given it.
    rng = np.random.default_rng(25)
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([0.5, 0.5]))
    model = ClusteredModel(
        kernel, 0.1, rng.uniform(-5.0, 5.0, size=(400, 2)), np.zeros(400), np.full(400, 0.1), np.ones(400, dtype=int)
    )
    out = sgp.shifted_gram(model)
    B = rng.normal(size=(400, 2048))
    for K in (None, gram(kernel, model.z)):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            X = sgp._solve(model, out, B, K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 3.5 * B.nbytes
        assert np.max(np.abs(sgp._plus_lambda(model) @ X - B)) <= 1e-8 * np.max(np.abs(B))


def test_solve_rejects_a_factor_whose_residual_lies_between_the_thresholds():
    # The factor of (1 + delta) A solves A X = B to the true relative residual
    # delta / (1 + delta), whatever A's conditioning: far above the 1e-9 the
    # gate accepts, far below a loose 1e-1.  The gate is given K_zz or
    # rebuilds it.
    model = make_clustered(26, 40, 2)
    A = sgp._plus_lambda(model)
    out = sgp.shifted_gram(model)
    perturbed = linalg.cholesky((1.0 + 1e-5) * A)
    B = np.random.default_rng(26).normal(size=(model.m, 3))
    R = A @ linalg.cho_solve(perturbed, B) - B
    rel = np.linalg.norm(R, axis=0) / np.linalg.norm(B, axis=0)
    assert np.all((1e-9 < rel) & (rel < 1e-1))
    for K in (None, gram(model.kernel, model.z)):
        with pytest.raises(NumericalFailure, match="relative residual"):
            sgp._solve(model, perturbed, B, K)
        X = sgp._solve(model, out, B, K)
        assert np.max(np.abs(A @ X - B)) <= 1e-8 * np.max(np.abs(B))


@pytest.mark.parametrize("tile", [None, 280, 40])
def test_solve_gate_checks_every_row_of_every_tile(monkeypatch, tile):
    # The factor of A + delta e_i e_i^T leaves a residual in row i alone, so
    # a gate that skips a row, or a tile, of the formed A lets it through,
    # whether it rebuilds K_zz or is given it.  At M = 40 and 3 right-hand
    # sides the tiles are one partial tile, 7 rows each with a partial last
    # one, and one row each.
    if tile is not None:
        monkeypatch.setattr(sgp, "_GATE_TILE", tile)
    model = make_clustered(27, 40, 2)
    assert model.m == 40
    A = sgp._plus_lambda(model)
    B = np.random.default_rng(27).normal(size=(model.m, 3))
    for K in (None, gram(model.kernel, model.z)):
        X = sgp._solve(model, sgp.shifted_gram(model), B, K)
        assert np.max(np.abs(A @ X - B)) <= 1e-8 * np.max(np.abs(B))
        for i in range(model.m):
            bumped = A.copy()
            bumped[i, i] *= 1.0 + 1e-4
            with pytest.raises(NumericalFailure, match="relative residual"):
                sgp._solve(model, linalg.cholesky(bumped), B, K)


@pytest.mark.parametrize("tile", [None, 280, 40])
def test_solve_given_K_is_the_rebuilt_solve_bit_for_bit(monkeypatch, tile):
    # gram(z[rows], z) is gram(z)[rows] bit for bit, so the gate's tiles, and
    # with them its verdicts, do not depend on where K_zz comes from; B is
    # never written, whatever its order.
    if tile is not None:
        monkeypatch.setattr(sgp, "_GATE_TILE", tile)
    model = make_clustered(30, 40, 2)
    K = gram(model.kernel, model.z)
    out = sgp.shifted_gram(model)
    rng = np.random.default_rng(30)
    for B in (rng.normal(size=(model.m, 5)), np.asfortranarray(rng.normal(size=(model.m, 5))), model.u):
        B_before = B.copy()
        X = sgp._solve(model, out, B)
        assert X.tobytes() == sgp._solve(model, out, B, K).tobytes()
        assert X.tobytes() == linalg.cho_solve(out, B).tobytes()
        assert B.tobytes() == B_before.tobytes()
    for i in range(0, model.m, 7):
        bumped = sgp._plus_lambda(model)
        bumped[i, i] *= 1.0 + 1e-4
        factor = linalg.cholesky(bumped)
        messages = []
        for K_arg in (None, K):
            with pytest.raises(NumericalFailure) as err:
                sgp._solve(model, factor, model.u, K_arg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_shifted_gram_and_solve_hold_one_m_by_m_array():
    # K_zz + Lambda is factored where it is formed and the gate rebuilds it in
    # tiles, so the factor is the only M x M array alive at any time.
    rng = np.random.default_rng(28)
    m = 1500
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([0.5, 0.5]))
    model = ClusteredModel(
        kernel, 0.1, rng.uniform(-5.0, 5.0, size=(m, 2)), np.zeros(m), np.full(m, 0.1), np.ones(m, dtype=int)
    )
    B = rng.normal(size=(m, 8))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        X = sgp._solve(model, sgp.shifted_gram(model), B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1.5 * m * m * 8
    assert np.max(np.abs(sgp._plus_lambda(model) @ X - B)) <= 1e-8 * np.max(np.abs(B))


def test_sample_targets_holds_one_n_by_n_array():
    rng = np.random.default_rng(29)
    n = 1000
    kernel = Kernel(Family.MATERN32, 1.0, np.array([0.7, 0.7]))
    X = rng.uniform(-5.0, 5.0, size=(n, 2))
    Q = rng.uniform(-5.0, 5.0, size=(16, 2))
    sample_targets(kernel, 0.1, X[:20], 0, Q)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        y, belief = sample_targets(kernel, 0.1, X, 0, Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1.5 * n * n * 8
    assert y.shape == (n,) and belief.cov.shape == (16, 16)


def test_posterior_calls_outside_a_solve_log_keep_no_memory():
    kernel, sigma2, X, y, rng = random_problem(25, 200, 2)
    model = fit_clustered(Dataset(X, y), X[:20], kernel, sigma2)
    Q = rng.uniform(-3.0, 3.0, size=(3, 2))
    clustered_posterior(model, Q)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(2000):
            clustered_posterior(model, Q)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def test_shifted_gram_spectrum_floor():
    kernel, _, X, y, _ = random_problem(23, 100, 2)
    tree = build(X, epsilon=0.6)
    model = fit_clustered(Dataset(X, y), inducing_points(tree), kernel, 0.5)
    A = gram(kernel, model.z)
    A[np.diag_indices_from(A)] += model.lam
    lam_min = float(np.linalg.eigvalsh(A)[0])
    assert lam_min >= float(np.min(model.lam)) - 1e-12


def test_no_solver_touches_unshifted_inducing_gram():
    kernel, _, X, y, rng = random_problem(24, 120, 2)
    data = Dataset(X, y)
    tree = build(X, epsilon=0.7)
    with solve_log() as log:
        model = fit_clustered(data, inducing_points(tree), kernel, 0.4)
        Q = rng.uniform(-3.0, 3.0, size=(5, 2))
        clustered_posterior(model, Q)
        clustered_posterior(model, Q, full_cov=False)
        kl_to_prior(model)
        kl_to_prior(model, probes=16, seed=0)
        training_objective(model, data, data.n)
        train(model, data, TrainConfig(steps=2, batch_size=64, probes=4, seed=0))
    assert len(log) > 0
    assert any(entry["kind"] == "cho_solve" for entry in log)
    assert all(entry["tag"] == "kzz_plus_lambda" for entry in log)


def test_singular_shifted_gram_raises_instead_of_jittering(tmp_path):
    # Two coincident inducing points and a Lambda far below the rounding of
    # K_zz's unit diagonal: K_zz + Lambda is singular in double precision, so
    # every clustered solve must fail loudly rather than factor a jittered copy.
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0, 1.0]))
    z = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    model = ClusteredModel(kernel, 1.0, z, np.array([1.0, -1.0, 0.5]), np.full(3, 1e-300), np.ones(3, dtype=int))
    batch = Dataset(np.array([[0.5, 0.5], [1.0, 0.0]]), np.array([0.3, -0.2]))
    with pytest.raises(NumericalFailure):
        kl_to_prior(model)
    with pytest.raises(NumericalFailure):
        training_objective(model, batch, batch.n)
    with pytest.raises(NumericalFailure):
        clustered_posterior(model, batch.X)

    model_path = tmp_path / "singular.json"
    model_path.write_text(json.dumps(model.to_json()))
    query = tmp_path / "q.csv"
    query.write_text("x1,x2\n0.5,0.5\n")
    assert main(["predict", str(model_path), str(query), "--out", str(tmp_path / "p.csv")]) == EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# KL to the prior

def make_clustered(seed, m, d, variance=None):
    rng = np.random.default_rng(seed)
    kernel = Kernel(
        Family.SQUARED_EXPONENTIAL,
        float(variance if variance is not None else rng.uniform(0.5, 2.0)),
        rng.uniform(0.5, 1.5, size=d),
    )
    z = rng.uniform(-3.0, 3.0, size=(m, d))
    counts = rng.integers(1, 9, size=m)
    sigma2 = float(rng.uniform(0.1, 0.6))
    u = rng.normal(size=m)
    return ClusteredModel(kernel, sigma2, z, u, sigma2 / counts, counts)


def test_kl_vanishes_for_tiny_kernel_variance_and_zero_u():
    model = make_clustered(0, 12, 2, variance=1e-10)
    model = ClusteredModel(
        model.kernel, model.noise_sigma2, model.z, np.zeros(model.m), model.lam, model.cluster_counts
    )
    assert 0.0 <= kl_to_prior(model) <= 1e-6


def test_kl_single_point_scalar_formula():
    model = make_clustered(1, 1, 1)
    k = model.kernel.variance
    lam = float(model.lam[0])
    u = float(model.u[0])
    expected = (
        0.5 * math.log((k + lam) / lam)
        - 0.5 * k / (k + lam)
        + 0.5 * k * u**2 / (k + lam) ** 2
    )
    assert kl_to_prior(model) == pytest.approx(expected, rel=1e-12)


def test_kl_hutchinson_within_three_stderr():
    model = make_clustered(2, 30, 2)
    exact = kl_to_prior(model)
    # same trace estimate recomputed directly to recover its stderr scale
    est = kl_to_prior(model, probes=10_000, seed=3)
    from stablegp import cho_solve, cholesky
    from support import hutchinson_trace

    A = gram(model.kernel, model.z)
    K = A.copy()
    A[np.diag_indices_from(A)] += model.lam
    out = cholesky(A)
    trace = hutchinson_trace(lambda v: cho_solve(out, K @ v), model.m, probes=10_000, seed=3)
    assert abs(est - exact) <= 3.0 * 0.5 * trace["stderr"] + 1e-9


def test_kl_is_nonnegative_on_random_models():
    for seed in range(8):
        model = make_clustered(30 + seed, 25, 2)
        assert kl_to_prior(model) >= -1e-10


# ---------------------------------------------------------------------------
# training objective and gradients

def test_objective_equals_exact_nlml_when_lossless():
    for seed, n in ((40, 20), (41, 50)):
        kernel, sigma2, X, y, _ = random_problem(seed, n, 1)
        data = Dataset(X, y)
        model = fit_clustered(data, X, kernel, sigma2)
        got = training_objective(model, data, data.n)
        want = oracle_nlml(kernel, sigma2, X, y)
        assert got == pytest.approx(want, rel=1e-8)


def test_objective_prefers_true_noise_level():
    rng = np.random.default_rng(42)
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([0.8]))
    X = rng.uniform(-4.0, 4.0, size=(200, 1))
    true_sigma = 0.3
    y, _ = sample_targets(kernel, true_sigma**2, X, seed=7)
    data = Dataset(X, y)
    tree = build(X, epsilon=0.3)
    z = inducing_points(tree)

    def objective_at(sigma2):
        model = fit_clustered(data, z, kernel, sigma2)
        return training_objective(model, data, data.n)

    assert objective_at(true_sigma**2) < objective_at(25.0 * true_sigma**2)
    assert objective_at(true_sigma**2) < objective_at(true_sigma**2 / 25.0)


def test_objective_zero_targets_reduces_to_variance_terms():
    kernel, _, X, _, _ = random_problem(43, 30, 1)
    sigma2 = 0.4
    data = Dataset(X, np.zeros(30))
    tree = build(X, epsilon=0.5)
    model = fit_clustered(data, inducing_points(tree), kernel, sigma2)
    got = training_objective(model, data, data.n)
    belief = clustered_posterior(model, X)
    mean_sq = float(np.sum(belief.mean**2))
    var_sum = float(np.trace(belief.cov))
    expected = (
        kl_to_prior(model)
        + 0.5 * data.n * math.log(2.0 * math.pi * sigma2)
        + (mean_sq + var_sum) / (2.0 * sigma2)
    )
    assert got == pytest.approx(expected, rel=1e-10)


def test_analytic_gradients_match_finite_differences():
    from stablegp.sgp import _objective_and_grads

    cases = [(Family.SQUARED_EXPONENTIAL, 2), (Family.MATERN52, 2)]
    cases += [(family, d) for d in (1, 3) for family in Family]
    for family, d in cases:
        kernel, _, X, y, rng = random_problem(44, 35, d, family=family)
        sigma2 = 0.3
        data = Dataset(X, y)
        tree = build(X, epsilon=1.0)
        model = fit_clustered(data, inducing_points(tree), kernel, sigma2)
        _, g = _objective_and_grads(model, X, y, data.n, None, 0)
        # g is in log-parameters; dividing by theta gives the natural-coordinate derivatives
        analytic = g / np.concatenate([[kernel.variance], kernel.lengthscales, [sigma2]])

        names = ["variance"] + [f"ls{j}" for j in range(d)] + ["sigma2"]
        for idx, name in enumerate(names):
            def perturbed(h):
                v = kernel.variance + (h if name == "variance" else 0.0)
                ls = kernel.lengthscales.copy()
                if name.startswith("ls"):
                    ls[int(name[2:])] += h
                s2 = sigma2 + (h if name == "sigma2" else 0.0)
                k2 = Kernel(family, v, ls)
                counts = model.cluster_counts
                m2 = ClusteredModel(k2, s2, model.z, model.u, s2 / counts, counts)
                return training_objective(m2, data, data.n)

            h = 1e-5
            fd = (perturbed(h) - perturbed(-h)) / (2.0 * h)
            assert analytic[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_hutchinson_gradients_are_unbiased():
    # Each Hutchinson gradient is linear in the trace estimates, so over many
    # probe draws its mean must match the exact-mode gradient to within a few
    # standard errors, component by component.
    from stablegp.sgp import _objective_and_grads

    kernel, _, X, y, rng = random_problem(45, 60, 2, family=Family.MATERN32)
    data = Dataset(X, y)
    model = fit_clustered(data, inducing_points(build(X, epsilon=0.8)), kernel, 0.25)
    assert 15 <= model.m <= 25
    idx = rng.choice(data.n, size=30, replace=False)

    def flat(probes, seed):
        return _objective_and_grads(model, X[idx], y[idx], data.n, probes, seed)[1]

    exact = flat(None, 0)
    draws = np.array([flat(4, (7, seed)) for seed in range(300)])
    stderr = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    assert np.all(stderr > 0.0)
    assert np.all(np.abs(draws.mean(axis=0) - exact) <= 4.0 * stderr)


def _training_problem(seed, m, b, d, family=Family.MATERN32, lengthscale=None):
    """A clustered model of m inducing points at a fixed density and a batch of b points among them."""
    rng = np.random.default_rng(seed)
    half = 5.0 * (m / 140) ** (1.0 / d)  # about 140 points in [-5, 5]^d
    ls = rng.uniform(0.4, 1.5, size=d) if lengthscale is None else np.full(d, lengthscale)
    kernel = Kernel(family, float(rng.uniform(0.5, 2.0)), ls)
    counts = rng.integers(1, 10, size=m)
    sigma2 = float(rng.uniform(0.1, 0.6))
    z = rng.uniform(-half, half, size=(m, d))
    model = ClusteredModel(kernel, sigma2, z, rng.normal(size=m), sigma2 / counts, counts)
    return model, rng.uniform(-half, half, size=(b, d)), rng.normal(size=b)


def test_blocked_step_matches_the_whole_batch_reference():
    # The step solves and contracts the batch in blocks of max(M, 256)
    # points and never stores a derivative matrix; the reference solves the
    # whole batch at once and stores them all.  Both sum the same products
    # in other orders, so they agree to rounding, blocks of every size and
    # a partial last block included.
    cases = []
    for i, (m, b) in enumerate([(30, 40), (30, 257), (120, 256), (120, 1000), (300, 257), (300, 1000)]):
        for j, probes in enumerate([None, 10]):
            for family in (list(Family)[(2 * i + j) % 4], list(Family)[(2 * i + j + 1) % 4]):
                cases.append((m, b, 1 + (i + j) % 3, probes, family))
    assert len(cases) == 24
    for seed, (m, b, d, probes, family) in enumerate(cases):
        model, X, y = _training_problem(seed, m, b, d, family)
        value, g = sgp._objective_and_grads(model, X, y, 20 * b, probes, (seed, 1))
        value_ref, g_ref = reference_objective_and_grads(model, X, y, 20 * b, probes, (seed, 1))
        assert g.shape == g_ref.shape == (d + 2,)
        assert abs(value - value_ref) <= 1e-12 * abs(value_ref), (m, b, d, probes, family)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref)), (m, b, d, probes, family)


def _step_peak(model, X, y):
    """Traced memory the training step adds at its peak, in bytes."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        sgp._objective_and_grads(model, X, y, 20_000, 10, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_training_step_holds_blocks_not_the_batch():
    # At M = 140, b = 1000 and d = 2 the blocks are 256 points wide, and the
    # largest arrays are a few M x 256 blocks besides K_zz, its factor and P
    # (0.15 MiB each): with the batch solved whole and every derivative
    # stored, the step held 7.1 MiB here.
    model, X, y = _training_problem(31, 140, 1000, 2, lengthscale=0.5)
    assert _step_peak(model, X, y) < 3.5 * 2**20


def test_training_step_at_a_thousand_inducing_points_holds_under_two_thirds_of_the_whole_batch_step():
    # At M = 999 and b = 1000 each array is about 7.6 MiB, and the step with
    # the batch solved whole and every derivative stored held 76.6 MiB.
    model, X, y = _training_problem(32, 999, 1000, 2, lengthscale=0.5)
    assert _step_peak(model, X, y) < 0.65 * 76.6 * 2**20


# ---------------------------------------------------------------------------
# training loop

def test_train_zero_steps_returns_model_unchanged():
    kernel, _, X, y, _ = random_problem(50, 60, 1)
    data = Dataset(X, y)
    model = fit_clustered(data, X[::3], kernel, 0.2)
    result = train(model, data, TrainConfig(steps=0))
    assert result.model is model
    assert result.history == []


@pytest.mark.parametrize(
    "setting",
    [{"batch_size": 0}, {"steps": -1}, {"step_size": 0.0}, {"step_size": -0.5}, {"step_size": math.nan},
     {"step_size": math.inf}],
    ids=lambda setting: ",".join(f"{key}={value}" for key, value in setting.items()),
)
def test_train_rejects_settings_it_cannot_honour(setting):
    kernel, _, X, y, _ = random_problem(50, 60, 1)
    data = Dataset(X, y)
    model = fit_clustered(data, X[::3], kernel, 0.2)
    with pytest.raises(ValueError, match=next(iter(setting))):
        train(model, data, TrainConfig(**{"steps": 2, "batch_size": 16, "probes": 2, **setting}))


def test_train_rejects_a_non_finite_gradient(tmp_path, monkeypatch):
    kernel, _, X, y, _ = random_problem(55, 60, 2)
    data = Dataset(X, y)
    model = fit_clustered(data, X[::3], kernel, 0.2)

    def nan_gradient(model, *args):
        return 0.0, np.full(model.kernel.dim + 2, math.nan)

    monkeypatch.setattr(sgp, "_objective_and_grads", nan_gradient)
    p = np.log([kernel.variance, *kernel.lengthscales, 0.2]).tolist()
    with pytest.raises(NumericalFailure) as err:
        train(model, data, TrainConfig(steps=3, batch_size=16))
    assert str(err.value).startswith(f"non-finite gradient at step 0: log-parameters {p}, gradient [nan, ")

    data_path, z_path, kernel_path = tmp_path / "d.csv", tmp_path / "z.json", tmp_path / "k.json"
    write_csv_dataset(str(data_path), data)
    z_path.write_text(json.dumps({"points": X[::3].tolist(), "provenance": {}}))
    kernel_path.write_text(json.dumps(kernel.to_json()))
    args = ["fit", str(data_path), str(z_path), str(kernel_path), "--sigma2", "0.2", "--steps", "1"]
    assert main(args + ["--out", str(tmp_path / "m.json")]) == EXIT_NUMERICAL


def test_train_factors_once_and_solves_once_per_batch_block():
    # Per step: one factor, one solve for [u, V, K V], one per block of
    # max(M, 256) batch points, and one for K v.
    for n, b, blocks in [(90, 40, [40]), (700, 600, [256, 256, 88])]:
        kernel, _, X, y, _ = random_problem(54, n, 2)
        data = Dataset(X, y)
        model = fit_clustered(data, inducing_points(build(X, epsilon=0.8)), kernel, 0.3)
        assert model.m < sgp._BATCH_BLOCK
        p = 5
        with solve_log() as log:
            train(model, data, TrainConfig(steps=3, batch_size=b, probes=p, seed=4))
        solve = {"kind": "cho_solve", "tag": "kzz_plus_lambda", "n": model.m}
        step = [
            {"kind": "cholesky", "tag": "kzz_plus_lambda", "n": model.m},
            {**solve, "rhs": 1 + 2 * p},
            *({**solve, "rhs": width} for width in blocks),
            {**solve, "rhs": 1},
        ]
        assert log == 3 * step


def test_train_seed_determinism():
    kernel, _, X, y, _ = random_problem(51, 80, 1)
    data = Dataset(X, y)
    model = fit_clustered(data, X[::4], kernel, 0.2)
    cfg = TrainConfig(steps=5, batch_size=32, probes=4, seed=9)
    r1 = train(model, data, cfg)
    r2 = train(model, data, cfg)
    assert r1.history == r2.history
    assert r1.model.kernel.variance == r2.model.kernel.variance
    assert np.array_equal(r1.model.kernel.lengthscales, r2.model.kernel.lengthscales)
    assert r1.model.noise_sigma2 == r2.model.noise_sigma2


def test_train_preserves_lambda_parameterization():
    kernel, _, X, y, _ = random_problem(52, 70, 1)
    data = Dataset(X, y)
    model = fit_clustered(data, X[::5], kernel, 0.2)
    result = train(model, data, TrainConfig(steps=8, batch_size=32, probes=4, seed=1))
    trained = result.model
    assert np.allclose(trained.lam, trained.noise_sigma2 / trained.cluster_counts, rtol=1e-15)
    assert np.array_equal(trained.z, model.z)
    assert np.array_equal(trained.u, model.u)


def test_train_recovers_known_lengthscale():
    rng = np.random.default_rng(53)
    true_kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([0.5]))
    X = rng.uniform(-5.0, 5.0, size=(500, 1))
    y, _ = sample_targets(true_kernel, 0.1**2, X, seed=11)
    data = Dataset(X, y)
    tree = build(X, epsilon=0.1)
    start = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.5]))
    model = fit_clustered(data, inducing_points(tree), start, 0.05)
    result = train(model, data, TrainConfig(steps=200, batch_size=500, step_size=0.05, probes=10, seed=2))
    got = float(result.model.kernel.lengthscales[0])
    assert abs(got - 0.5) / 0.5 <= 0.30


# ---------------------------------------------------------------------------
# target sampling

def test_sample_targets_deterministic_and_bounded_size():
    kernel = Kernel(Family.MATERN32, 1.0, np.array([1.0]))
    X = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    a, belief = sample_targets(kernel, 0.1, X, seed=4)
    b, _ = sample_targets(kernel, 0.1, X, seed=4)
    assert belief is None
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_targets(kernel, 0.1, np.zeros((5001, 1)), seed=0)
    with pytest.raises(ValueError):
        sample_targets(kernel, 0.0, X, seed=0)


def test_sample_targets_single_point_moments():
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 2.5, np.array([1.0]))
    sigma2 = 0.5
    X = np.array([[0.0]])
    draws = np.array([sample_targets(kernel, sigma2, X, seed=s)[0][0] for s in range(4000)])
    assert abs(draws.mean()) <= 0.1
    assert abs(draws.var() - (2.5 + sigma2)) / (2.5 + sigma2) <= 0.1


def test_sample_targets_empirical_covariance():
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0]))
    sigma2 = 0.2
    X = np.array([[0.0], [0.5], [1.2]])
    draws = np.stack([sample_targets(kernel, sigma2, X, seed=s)[0] for s in range(10_000)])
    emp = np.cov(draws.T, ddof=1)
    C = gram(kernel, X) + sigma2 * np.eye(3)
    assert np.max(np.abs(emp - C)) <= 0.05 * kernel.variance


def test_sample_targets_posterior_is_exact_posterior_through_one_factor():
    kernel, sigma2, X, _, rng = random_problem(61, 40, 2)
    Q = rng.uniform(-3.0, 3.0, size=(7, 2))
    with solve_log() as log:
        y, belief = sample_targets(kernel, sigma2, X, 3, Q)
    factored = [e for e in log if e["kind"] == "cholesky"]
    assert factored == [{"kind": "cholesky", "tag": "kzz_plus_lambda", "n": 40}]
    assert np.array_equal(y, sample_targets(kernel, sigma2, X, seed=3)[0])
    want = exact_posterior(Dataset(X, y), kernel, sigma2, Q)
    assert np.array_equal(belief.mean, want.mean)
    assert np.array_equal(belief.cov, want.cov)
    assert np.array_equal(belief.var, want.var)
