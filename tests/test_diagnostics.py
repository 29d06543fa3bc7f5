import math

import numpy as np
import pytest

from stablegp import (
    ClusteredModel,
    Family,
    Kernel,
    SpectrumSummary,
    StabilityReport,
    cg_iteration_bound,
    cholesky_stability_predicate,
    cond_bound_with_noise,
    conjugate_gradient,
    decay_envelope,
    gram,
    kms_cond_bounds,
    kms_matrix,
    lambda_max_bound,
    separation,
    spectrum,
    stability_report,
)


def separated_points(rng, m, d, delta):
    """Greedy thinning of a uniform draw to pairwise distance >= delta."""
    cand = rng.uniform(-8.0, 8.0, size=(m * 20, d))
    keep = [cand[0]]
    for x in cand[1:]:
        if np.sqrt(((np.array(keep) - x) ** 2).sum(axis=1)).min() >= delta:
            keep.append(x)
            if len(keep) == m:
                break
    return np.array(keep)


def test_lambda_max_bound_infinite_delta_is_variance():
    env = decay_envelope(Kernel(Family.SQUARED_EXPONENTIAL, 1.7, np.array([1.0])))
    assert lambda_max_bound(env, math.inf, 2) == pytest.approx(1.7, abs=0.0)


def test_lambda_max_bound_halving_delta_increases():
    env = decay_envelope(Kernel(Family.MATERN32, 1.0, np.array([0.7])))
    for d in (1, 2, 3):
        values = [lambda_max_bound(env, delta, d) for delta in (4.0, 2.0, 1.0, 0.5)]
        assert values[0] < values[1] < values[2] < values[3]


def test_lambda_max_bound_dominates_observed_spectra():
    rng = np.random.default_rng(0)
    for trial in range(50):
        d = int(rng.integers(1, 3))
        delta = float(rng.uniform(0.8, 2.0))
        pts = separated_points(rng, int(rng.integers(10, 60)), d, delta)
        k = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.full(d, 1.0))
        sep = separation(pts)
        bound = lambda_max_bound(decay_envelope(k), sep, d)
        observed = float(np.linalg.eigvalsh(gram(k, pts))[-1])
        assert observed <= bound


def test_lambda_max_bound_is_independent_of_units():
    # A 21 x 21 grid with spacing equal to the lengthscale, in three units:
    # the kernel matrix is the same, so the bound must be too.
    g = np.arange(21.0)
    grid = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    bounds = []
    for s in (0.1, 1.0, 10.0):
        k = Kernel(Family.MATERN32, 1.0, np.full(2, s))
        pts = s * grid
        bound = lambda_max_bound(decay_envelope(k), separation(pts), 2)
        observed = float(np.linalg.eigvalsh(gram(k, pts))[-1])
        assert observed <= bound, s
        bounds.append(bound)
    assert bounds[0] == pytest.approx(bounds[1], rel=1e-12)
    assert bounds[2] == pytest.approx(bounds[1], rel=1e-12)


def _series_terms(env, delta, d):
    """Every term t(m) = ((2m+3)^d - (2m-1)^d) psi(m delta), m >= 1, up to the
    first one that underflows."""
    blocks, m0 = [], 1
    while True:
        u = np.arange(m0, m0 + (1 << 16), dtype=float)
        t = ((2.0 * u + 3.0) ** d - (2.0 * u - 1.0) ** d) * env(u * delta)
        blocks.append(t)
        if t[-1] == 0.0:
            return np.concatenate(blocks)
        m0 += 1 << 16


def test_lambda_max_bound_brackets_the_whole_series():
    # The bound adds a proven tail bound of at most 1e-10 of the partial sum,
    # so it lies between the series, summed by brute force until its terms
    # underflow, and that sum times 1 + 2e-10.  The lower check allows for
    # the rounding of the two float sums (a few ulps).
    for family in Family:
        env = decay_envelope(Kernel(family, 1.3, np.array([0.7])))
        for d in (1, 2, 3):
            for ratio in (5.0, 2.0, 1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 1e-3):
                delta = ratio * 0.7
                brute = math.fsum([1.3] + _series_terms(env, delta, d).tolist())
                bound = lambda_max_bound(env, delta, d)
                assert brute * (1.0 - 1e-15) <= bound <= brute * (1.0 + 2e-10), (family, d, ratio)


def test_lambda_max_bound_terms_are_log_concave():
    # The tail bound rests on t(u + h) / t(u) not increasing in u >= 1.
    for family in Family:
        env = decay_envelope(Kernel(family, 0.8, np.array([1.1])))
        for d in (1, 2, 3, 8):
            for delta in (3.0, 0.4, 0.01):
                for h in (1.0, 0.37):
                    u = 1.0 + h * np.arange(20000)
                    t = ((2.0 * u + 3.0) ** d - (2.0 * u - 1.0) ** d) * env(u * delta)
                    t = t[t > 1e-280]
                    ratios = t[1:] / t[:-1]
                    assert np.all(ratios[1:] <= ratios[:-1] * (1.0 + 1e-12)), (family, d, delta, h)


def test_cond_bound_formula_cases():
    assert cond_bound_with_noise(3.0, np.array([0.5, 0.5])) == pytest.approx(7.0)
    assert cond_bound_with_noise(0.0, np.array([0.2, 0.8])) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        cond_bound_with_noise(1.0, np.array([0.0, 0.5]))


def test_kms_bounds_limit_value():
    got = kms_cond_bounds(0.5, 1_000_000)
    assert got.lower == pytest.approx(9.0, abs=1e-3)


def test_kms_bounds_bracket_observed_cond():
    for rho in (0.5, 0.9, 0.99, 0.999):
        for n in (32, 256, 1024):
            bounds = kms_cond_bounds(rho, n)
            cond = spectrum(kms_matrix(rho, n)).cond
            assert cond >= bounds.lower
            if bounds.upper is not None:
                assert cond <= bounds.upper


def test_kms_bounds_upper_undefined_when_hypothesis_fails():
    got = kms_cond_bounds(0.999, 256)
    assert got.upper is None
    eps = math.pi**2 / 257.0**2
    assert (1.0 - 0.999) ** 2 <= 2.0 * 0.999 * eps


def test_kms_bounds_rho_domain():
    for rho in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            kms_cond_bounds(rho, 16)


def test_cg_iteration_bound_at_cond_one():
    got = cg_iteration_bound(1.0, 2.0, 0.5)
    assert got == pytest.approx(math.log(2.0 * 2.0 / 0.5) / math.log(2.0), rel=1e-12)


def test_cg_iteration_bound_constant_sandwich():
    for cond in (1.0, 4.0, 100.0, 1e4, 1e8):
        rate = 1.0 / math.log1p(2.0 / (math.sqrt(cond) + 1.0))
        assert (math.sqrt(cond) + 1.0) / 2.0 <= rate <= (math.sqrt(cond) + 3.0) / 2.0


def test_cg_iteration_bound_trivial_cases():
    assert cg_iteration_bound(10.0, 1.0, 10.0) == 0.0
    assert cg_iteration_bound(math.inf, 1.0, 0.1) == math.inf


def test_cg_iterations_dominated_by_bound():
    rng = np.random.default_rng(2)
    for tol in (1e-6, 1e-10):
        for _ in range(50):
            n = int(rng.integers(20, 120))
            lams = np.exp(rng.uniform(0.0, math.log(1e4), size=n))
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            A = (Q * lams) @ Q.T
            b = rng.normal(size=n)
            report = conjugate_gradient(lambda v: A @ v, b, tol=tol)
            assert report.converged
            w = np.linalg.eigvalsh(A)
            cond = w[-1] / w[0]
            x_star = np.linalg.solve(A, b)
            e0 = math.sqrt(max(float(x_star @ b), 0.0))
            eps_a = tol * np.linalg.norm(b) / math.sqrt(w[-1])
            assert report.iterations <= cg_iteration_bound(cond, e0, eps_a)


def small_model(seed=0, m=25):
    rng = np.random.default_rng(seed)
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0, 1.0]))
    z = separated_points(rng, m, 2, 1.0)
    m = z.shape[0]
    counts = rng.integers(1, 6, size=m)
    sigma2 = 0.3
    return ClusteredModel(kernel, sigma2, z, rng.normal(size=m), sigma2 / counts, counts)


def test_stability_report_bounds_dominate_observed():
    report = stability_report(small_model())
    assert math.isfinite(report.lambda_max_bound)
    assert math.isfinite(report.cond_bound)
    assert report.observed.cond <= report.cond_bound
    assert report.observed.lambda_max <= report.lambda_max_bound + float(np.max(small_model().lam))
    assert report.cg_iteration_bound >= 1.0
    assert report.cholesky_ok_double in (True, False)
    assert report.cholesky_ok_single in (True, False)


def test_stability_report_single_inducing_point():
    rng = np.random.default_rng(3)
    kernel = Kernel(Family.MATERN52, 2.0, np.array([1.0]))
    model = ClusteredModel(kernel, 0.4, np.array([[0.0]]), np.array([1.0]), np.array([0.4]), np.array([1]))
    report = stability_report(model)
    assert report.lambda_max_bound == pytest.approx(2.0)
    assert report.cond_bound == pytest.approx((2.0 + 0.4) / 0.4)
    assert report.observed.cond == pytest.approx(1.0)


@pytest.mark.parametrize("bits", [23, 52])
def test_stability_report_cholesky_flags_use_the_model_size(bits):
    # Lambda is chosen so that cond(K_zz + Lambda) lies between the
    # predicate's thresholds at n = M and at n = 11, so only a report that
    # evaluates the predicate at max(M, 11) gets the flag right.
    m = 200
    z = np.linspace(0.0, 10.0, m)[:, None]
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0]))

    def threshold(n):
        return 1.0 / (2.0**-bits * 3.9 * n**1.5)

    target = math.sqrt(threshold(m) * threshold(11))
    w = np.linalg.eigvalsh(gram(kernel, z))
    c = (w[-1] - target * w[0]) / (target - 1.0)
    report = stability_report(ClusteredModel(kernel, c, z, np.sin(z[:, 0]), np.full(m, c), np.ones(m, dtype=int)))
    cond = report.observed.cond
    assert not cholesky_stability_predicate(cond, m, bits) and cholesky_stability_predicate(cond, 11, bits)
    assert report.cholesky_ok_single == cholesky_stability_predicate(cond, m, 23)
    assert report.cholesky_ok_double == cholesky_stability_predicate(cond, m, 52)


@pytest.mark.parametrize("cond", [12.5, math.inf])
def test_stability_report_json_is_pinned(cond):
    finite = math.isfinite(cond)
    report = StabilityReport(
        lambda_max_bound=3.25,
        cond_bound=40.0,
        observed=SpectrumSummary(lambda_max=2.5, lambda_min=0.2 if finite else 0.0, cond=cond),
        cg_iteration_bound=7.5 if finite else math.inf,
        cholesky_ok_single=finite,
        cholesky_ok_double=finite,
    )
    got = report.to_json()
    assert got == {
        "lambda_max_bound": 3.25,
        "cond_bound": 40.0,
        "observed": {"lambda_max": 2.5, "lambda_min": 0.2 if finite else 0.0, "cond": cond},
        "cg_iteration_bound": 7.5 if finite else math.inf,
        "cholesky_ok_single": finite,
        "cholesky_ok_double": finite,
    }
    assert list(got) == [
        "lambda_max_bound", "cond_bound", "observed", "cg_iteration_bound", "cholesky_ok_single", "cholesky_ok_double"
    ]
    assert list(got["observed"]) == ["lambda_max", "lambda_min", "cond"]
    assert type(got["observed"]) is dict


def test_stability_report_deterministic():
    a = stability_report(small_model(4)).to_json()
    b = stability_report(small_model(4)).to_json()
    assert a == b


@pytest.mark.parametrize("second", [(0.0, 0.0), (1e-9, 0.0)])
def test_stability_report_finite_for_coinciding_inducing_points(second):
    kernel = Kernel(Family.MATERN32, 1.0, np.array([1.0, 1.0]))
    z = np.array([[0.0, 0.0], second, [1.0, 1.0]])
    counts = np.array([2, 1, 3])
    model = ClusteredModel(kernel, 0.1, z, np.array([1.0, -1.0, 0.5]), 0.1 / counts, counts)
    report = stability_report(model)
    # the separation gives no usable packing bound, so the count bound M psi(0) holds
    assert report.lambda_max_bound == 3.0
    assert report.cond_bound == cond_bound_with_noise(3.0, model.lam)
    assert report.observed.cond <= report.cond_bound
    assert report.observed.lambda_max <= report.lambda_max_bound + float(np.max(model.lam))
    assert math.isfinite(report.cg_iteration_bound)
    # lambda_max_bound itself still refuses a zero separation
    if second == (0.0, 0.0):
        with pytest.raises(ValueError, match="delta must be positive"):
            lambda_max_bound(decay_envelope(kernel), separation(z), 2)
