"""End-to-end acceptance checks, one test per criterion.

Each test records its verdict with the session acceptance log (printed after
the run) and then asserts, so a failing criterion is visible both ways.
"""

import itertools
import math
import time

import numpy as np
from scipy.stats import spearmanr

from stablegp import (
    Dataset,
    Family,
    Kernel,
    build,
    cg_iteration_bound,
    cluster_assign,
    clustered_posterior,
    cond_bound_with_noise,
    conjugate_gradient,
    decay_envelope,
    fit_clustered,
    gram,
    inducing_points,
    kl_to_prior,
    kms_cond_bounds,
    kms_matrix,
    lambda_max_bound,
    separation,
    spatial_resolution,
    spectrum,
    train,
    training_objective,
    TrainConfig,
)
from stablegp.cli import kms_demo_rows, sweep_resolution_rows
from stablegp.linalg import solve_log
from support import hutchinson_trace

FAMILIES = [Family.SQUARED_EXPONENTIAL, Family.MATERN12, Family.MATERN32, Family.MATERN52]


def test_criterion_1_cover_tree_guarantees(acceptance_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    sizes = [100] * 128 + [1000] * 60 + [10_000] * 12
    rng.shuffle(sizes)
    combos = list(itertools.product([False, True], repeat=2))
    violations = []
    for i, n in enumerate(sizes):
        d = int(rng.integers(1, 4))
        if rng.uniform() < 0.5:
            X = rng.uniform(-5.0, 5.0, size=(n, d))
        else:
            centers = rng.uniform(-5.0, 5.0, size=(4, d))
            X = centers[rng.integers(0, 4, size=n)] + rng.normal(scale=0.7, size=(n, d))
        spread = float(np.max(np.linalg.norm(X - X.mean(axis=0), axis=1)))
        epsilon = spread * 2.0 ** (-float(rng.uniform(1.0, 6.0)))
        lloyd, voronoi = combos[i % 4]
        tree = build(X, epsilon=epsilon, lloyd_averaging=lloyd, voronoi_repartition=voronoi, seed=i)
        for ell, pts in enumerate(tree.levels):
            threshold = tree.epsilon * 2.0 ** (tree.L - ell)
            if not (separation(pts) >= threshold and spatial_resolution(X, pts) <= threshold):
                violations.append((i, ell))
    elapsed = time.perf_counter() - t0
    passed = not violations and elapsed < 120.0
    acceptance_log.record(
        1, "cover-tree level guarantees, 200 builds, exact", passed,
        f"{len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations
    assert elapsed < 120.0


def test_criterion_2_clustered_equivalence_oracle(acceptance_log):
    worst_mean = 0.0
    worst_cov = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(20, 201))
        d = int(rng.integers(1, 4))
        kernel = Kernel(FAMILIES[trial % 4], float(rng.uniform(0.5, 2.0)), rng.uniform(0.4, 1.5, size=d))
        X = rng.uniform(-4.0, 4.0, size=(n, d))
        y = rng.normal(size=n)
        sigma2 = float(rng.uniform(0.25, 1.0))
        data = Dataset(X, y)
        tree = build(X, epsilon=float(rng.uniform(0.4, 1.5)), seed=trial)
        model = fit_clustered(data, inducing_points(tree), kernel, sigma2)
        Q = rng.uniform(-4.0, 4.0, size=(8, d))
        belief = clustered_posterior(model, Q)

        labels, _ = cluster_assign(X, model.z)
        X_snap = model.z[labels]
        Kxx = gram(kernel, X_snap) + sigma2 * np.eye(n)
        Kqx = gram(kernel, Q, X_snap)
        mean = Kqx @ np.linalg.solve(Kxx, y)
        cov = gram(kernel, Q) - Kqx @ np.linalg.solve(Kxx, Kqx.T)
        worst_mean = max(worst_mean, float(np.max(np.abs(belief.mean - mean))))
        worst_cov = max(worst_cov, float(np.max(np.abs(belief.cov - cov))))
    passed = worst_mean <= 1e-8 and worst_cov <= 1e-8
    acceptance_log.record(
        2, "clustered posterior equals exact posterior on snapped inputs", passed,
        f"max |mean gap| {worst_mean:.2e}, max |cov gap| {worst_cov:.2e}",
    )
    assert worst_mean <= 1e-8
    assert worst_cov <= 1e-8


def test_criterion_3_kms_reproduction(acceptance_log):
    def kms_limit(rho):
        return (1.0 + rho) ** 2 / (1.0 - rho) ** 2

    t0 = time.perf_counter()
    conds = {}
    bracket_ok = True
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        cond = spectrum(kms_matrix(0.999, n)).cond
        conds[n] = cond
        bounds = kms_cond_bounds(0.999, n)
        if cond < bounds.lower or (bounds.upper is not None and cond > bounds.upper):
            bracket_ok = False

    # Every finite section's eigenvalues lie inside the symbol's range
    # [(1-rho)/(1+rho), (1+rho)/(1-rho)], so the n -> infinity limit is an
    # n-independent ceiling.  kms_matrix(rho, n) is the leading principal
    # submatrix of kms_matrix(rho, 2n), so by Cauchy interlacing cond is
    # nondecreasing in n.
    ceiling = kms_limit(0.999)
    ceiling_ok = all(cond < ceiling for cond in conds.values())
    sizes = sorted(conds)
    n_monotone_ok = all(conds[a] <= conds[b] for a, b in zip(sizes, sizes[1:]))

    rows = kms_demo_rows(rhos=[0.9, 0.99, 0.999], ns=[256], trials=20, seed=0)
    medians = [row["err_median"] for row in sorted(rows, key=lambda r: r["rho"])]
    monotone_ok = medians[0] < medians[1] < medians[2]

    # The plateau from n = 512 to 4096 is a theorem only where the ceiling
    # over the bracket's lower end at n = 512 is below 2: cond(4096) /
    # cond(512) <= limit / lower(512).  At rho = 0.999 that ratio is ~76
    # (the correlation length pi/(1-rho) ~ 3142 exceeds most of the grid),
    # so cond is still climbing there; rho = 0.99 is the largest demo rho
    # at which the bracket implies the plateau at these sizes.
    plateau_rho = 0.99
    implied = kms_limit(plateau_rho) / kms_cond_bounds(plateau_rho, 512).lower
    implied_ok = implied < 2.0
    growth = (
        spectrum(kms_matrix(plateau_rho, 4096)).cond / spectrum(kms_matrix(plateau_rho, 512)).cond
    )
    plateau_ok = growth < 2.0
    elapsed = time.perf_counter() - t0

    passed = (
        bracket_ok and ceiling_ok and n_monotone_ok and monotone_ok
        and implied_ok and plateau_ok and elapsed < 300.0
    )
    acceptance_log.record(
        3, "conditioning of the correlation-grid matrix vs closed-form brackets", passed,
        f"bracket {'ok' if bracket_ok else 'VIOLATED'}; "
        f"cond {'below' if ceiling_ok else 'ABOVE'} the n-independent ceiling "
        f"{ceiling:.4g} (n=4096 at {conds[4096] / ceiling:.2f} of it) and "
        f"{'nondecreasing' if n_monotone_ok else 'NOT monotone'} in n; "
        f"error medians {'increase' if monotone_ok else 'NOT monotone'} in rho; "
        f"at rho={plateau_rho} the bracket caps n=512->4096 growth at {implied:.2f}x, "
        f"measured {growth:.2f}x vs < 2x required; {elapsed:.1f}s",
    )
    assert bracket_ok
    assert ceiling_ok
    assert n_monotone_ok
    assert monotone_ok
    assert elapsed < 300.0
    assert implied_ok, f"bracket allows {implied:.2f}x growth at rho={plateau_rho}"
    assert plateau_ok, f"cond grew {growth:.2f}x from n=512 to n=4096 at rho={plateau_rho}"


def test_criterion_4_bound_soundness(acceptance_log):
    rng = np.random.default_rng(404)
    lam_violations = 0
    cond_violations = 0
    for trial in range(500):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(50, 400))
        X = rng.uniform(-6.0, 6.0, size=(n, d))
        ls = float(rng.uniform(0.4, 1.5))
        kernel = Kernel(FAMILIES[trial % 4], float(rng.uniform(0.5, 2.0)), np.full(d, ls))
        spread = float(np.max(np.linalg.norm(X - X.mean(axis=0), axis=1)))
        epsilon = float(rng.uniform(0.3, 0.15 * spread + 0.4))
        tree = build(X, epsilon=epsilon, seed=trial)
        z = inducing_points(tree)
        sigma2 = float(rng.uniform(0.1, 1.0))
        model = fit_clustered(Dataset(X, rng.normal(size=n)), z, kernel, sigma2)

        delta = separation(model.z)
        c_max = lambda_max_bound(decay_envelope(kernel), delta, d)
        K = gram(kernel, model.z)
        eigs = np.linalg.eigvalsh(K)
        if eigs[-1] > c_max:
            lam_violations += 1
        A = K.copy()
        A[np.diag_indices_from(A)] += model.lam
        shifted = np.linalg.eigvalsh(A)
        observed_cond = shifted[-1] / shifted[0]
        if observed_cond > cond_bound_with_noise(c_max, model.lam):
            cond_violations += 1
    passed = lam_violations == 0 and cond_violations == 0
    acceptance_log.record(
        4, "eigenvalue and condition bounds dominate 500 observed models", passed,
        f"{lam_violations} spectral-norm violations, {cond_violations} cond violations",
    )
    assert lam_violations == 0
    assert cond_violations == 0


def test_criterion_5_cg_discipline(acceptance_log):
    rng = np.random.default_rng(20260814)
    results = []
    draw = 0
    while len(results) < 100:
        draw += 1
        d = int(rng.integers(1, 4))
        ls = float(rng.uniform(0.3, 1.0))
        sep_factor = float(np.exp(rng.uniform(math.log(0.7), math.log(1.4))))
        m_target = int(rng.integers(150, 501))
        cand = rng.uniform(-6.0, 6.0, size=(m_target * 10, d))
        keep = [cand[0]]
        for x in cand[1:]:
            if np.sqrt(((np.array(keep) - x) ** 2).sum(axis=1)).min() >= sep_factor * ls:
                keep.append(x)
                if len(keep) == m_target:
                    break
        P = np.array(keep)
        n = P.shape[0]
        if n < 150:
            continue
        kernel = Kernel(FAMILIES[draw % 4], float(rng.uniform(0.5, 2.0)), np.full(d, ls))
        sigma2 = float(rng.uniform(0.1, 1.0))
        counts = rng.integers(1, 65, size=n)
        A = gram(kernel, P)
        A[np.diag_indices_from(A)] += sigma2 / counts
        w = np.linalg.eigvalsh(A)
        cond = w[-1] / w[0]
        b = rng.standard_normal(n)
        x_star = np.linalg.solve(A, b)
        report = conjugate_gradient(lambda v: A @ v, b)
        rel_err = float(np.linalg.norm(report.solution - x_star) / np.linalg.norm(x_star))
        e0 = math.sqrt(max(float(x_star @ b), 0.0))
        eps_a = 1e-8 * float(np.linalg.norm(b)) / math.sqrt(w[-1])
        bound = cg_iteration_bound(cond, e0, eps_a)
        results.append((n, cond, report.iterations, bound, rel_err, report.converged))

    conds = np.array([r[1] for r in results])
    in_class = bool(np.all(conds <= 1e6))
    within_n = all(r[2] <= r[0] for r in results)
    within_bound = all(r[2] <= r[3] for r in results)
    accurate = all(r[4] <= 1e-6 for r in results)
    converged = all(r[5] for r in results)
    passed = in_class and within_n and within_bound and accurate and converged
    acceptance_log.record(
        5, "CG within iteration bound and n, matching direct solves", passed,
        f"cond max {conds.max():.1f}; max it/n {max(r[2] / r[0] for r in results):.2f}; "
        f"max it/bound {max(r[2] / r[3] for r in results):.2f}; "
        f"max rel err {max(r[4] for r in results):.1e}",
    )
    assert in_class
    assert converged
    assert within_bound
    assert within_n
    assert accurate


def test_criterion_6_resolution_sweep_trends(acceptance_log):
    t0 = time.perf_counter()
    rows = sweep_resolution_rows(
        d_list=[1, 2], n=1000, epsilons=[0.25, 0.5, 1.0, 2.0], seeds=list(range(10)), sigma2=0.1
    )
    all_ok = all(row["status"] == "ok" for row in rows)

    m_strict = True
    for d in (1, 2):
        for seed in range(10):
            group = sorted(
                (r for r in rows if r["d"] == d and r["seed"] == seed),
                key=lambda r: r["epsilon"],
            )
            ms = [r["m"] for r in group]
            if not all(a > b for a, b in zip(ms, ms[1:])):
                m_strict = False

    eps_col = [r["epsilon"] for r in rows]
    w2_rho = float(spearmanr(eps_col, [r["wasserstein2"] for r in rows]).statistic)
    cond_rho = float(spearmanr(eps_col, [r["cond"] for r in rows]).statistic)
    elapsed = time.perf_counter() - t0

    passed = all_ok and m_strict and w2_rho >= 0.8 and cond_rho <= -0.5 and elapsed < 600.0
    acceptance_log.record(
        6, "resolution sweep: M, accuracy and conditioning trends", passed,
        f"spearman(eps, W2) {w2_rho:.3f}, spearman(eps, cond) {cond_rho:.3f}, {elapsed:.0f}s",
    )
    assert all_ok
    assert m_strict
    assert w2_rho >= 0.8
    assert cond_rho <= -0.5
    assert elapsed < 600.0


def test_criterion_7_estimators_and_gradients(acceptance_log):
    for probes in (1, 3, 64):
        out = hutchinson_trace(lambda v: v, 17, probes=probes, seed=0)
        identity_exact = out["estimate"] == 17.0
        if not identity_exact:
            break

    rng = np.random.default_rng(707)
    trace_hits = 0
    for _ in range(50):
        n = int(rng.integers(10, 120))
        lams = np.exp(rng.uniform(-2.0, 3.0, size=n))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = (Q * lams) @ Q.T
        got = hutchinson_trace(lambda v: A @ v, n, probes=1000, seed=int(rng.integers(1 << 30)))
        if abs(got["estimate"] - float(np.trace(A))) <= 3.0 * got["stderr"]:
            trace_hits += 1

    from stablegp.sgp import _objective_and_grads

    worst_rel = 0.0
    for idx, family in enumerate(FAMILIES):
        prob_rng = np.random.default_rng(70 + idx)
        d = 2
        kernel = Kernel(family, float(prob_rng.uniform(0.6, 1.6)), prob_rng.uniform(0.5, 1.2, size=d))
        X = prob_rng.uniform(-3.0, 3.0, size=(35, d))
        y = prob_rng.normal(size=35)
        sigma2 = 0.3
        data = Dataset(X, y)
        tree = build(X, epsilon=0.9)
        model = fit_clustered(data, inducing_points(tree), kernel, sigma2)
        _, g = _objective_and_grads(model, X, y, data.n, None, 0)

        def objective_with(theta):
            k2 = Kernel(family, theta[0], theta[1 : 1 + d])
            s2 = theta[1 + d]
            counts = model.cluster_counts
            m2 = type(model)(k2, s2, model.z, model.u, s2 / counts, counts)
            return training_objective(m2, data, data.n)

        theta0 = np.concatenate([[kernel.variance], kernel.lengthscales, [sigma2]])
        analytic = g / theta0  # g is in log-parameters
        for j in range(theta0.size):
            h = 1e-5 * max(1.0, abs(theta0[j]))
            up = theta0.copy()
            up[j] += h
            dn = theta0.copy()
            dn[j] -= h
            fd = (objective_with(up) - objective_with(dn)) / (2.0 * h)
            denom = max(abs(fd), 1e-8)
            worst_rel = max(worst_rel, abs(analytic[j] - fd) / denom)

    passed = identity_exact and trace_hits == 50 and worst_rel <= 1e-4
    acceptance_log.record(
        7, "trace estimator calibration and analytic gradients vs finite differences", passed,
        f"trace within 3 stderr on {trace_hits}/50; worst gradient rel err {worst_rel:.2e}",
    )
    assert identity_exact
    assert trace_hits == 50
    assert worst_rel <= 1e-4


def test_criterion_8_no_bare_inducing_solves(acceptance_log):
    rng = np.random.default_rng(808)
    X = rng.uniform(-4.0, 4.0, size=(400, 2))
    y = rng.normal(size=400)
    data = Dataset(X, y)
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([0.8, 0.8]))
    tree = build(X, epsilon=0.8)

    with solve_log() as entries:
        model = fit_clustered(data, inducing_points(tree), kernel, 0.3)
        clustered_posterior(model, rng.uniform(-4.0, 4.0, size=(16, 2)))
        kl_to_prior(model)
        kl_to_prior(model, probes=32, seed=1)
        training_objective(model, data, data.n)
        train(model, data, TrainConfig(steps=3, batch_size=128, probes=4, seed=0))

    bare = [e for e in entries if e["tag"] != "kzz_plus_lambda"]
    passed = len(entries) > 0 and not bare
    acceptance_log.record(
        8, "fit/predict cycle solves only the noise-shifted inducing matrix", passed,
        f"{len(entries)} solves logged, {len(bare)} against anything else",
    )
    assert entries
    assert not bare
