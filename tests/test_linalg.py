import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import linalg as sla

from stablegp import (
    Family,
    Kernel,
    NumericalFailure,
    cholesky,
    cholesky_stability_predicate,
    conjugate_gradient,
    gram,
    kms_matrix,
    spectrum,
    wasserstein2_gaussians,
)
from stablegp.diagnostics import kms_cond_bounds
from stablegp import linalg
from stablegp.linalg import _check_symmetric, cg_multi, solve_log
from support import hutchinson_trace


def random_spd(rng, n, cond):
    """Rotated log-uniform spectrum with the requested condition number."""
    lams = np.exp(np.linspace(0.0, math.log(cond), n))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (Q * lams) @ Q.T


def test_cholesky_identity_no_jitter():
    out = cholesky(np.eye(7))
    assert out.jitter_used == 0.0
    assert np.allclose(out.factor, np.eye(7), atol=0.0)


def test_cholesky_singular_raises():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericalFailure, match="'pair' failed: n=2$"):
        cholesky(A, tag="pair")


def test_cholesky_tries_the_matrix_itself_once(monkeypatch):
    tried = []

    def failing(M, **kwargs):
        tried.append(M.copy())
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(linalg.sla, "cholesky", failing)
    A = np.diag([4.0, 4.0, 4.0])
    with pytest.raises(NumericalFailure):
        cholesky(A)
    assert len(tried) == 1 and np.array_equal(tried[0], A)


def test_cholesky_of_the_empty_matrix():
    assert _check_symmetric(np.zeros((0, 0))).shape == (0, 0)
    with pytest.raises(ValueError, match="square"):
        _check_symmetric(np.zeros((0, 1)))
    out = cholesky(np.zeros((0, 0)))
    assert out.factor.shape == (0, 0)
    assert out.jitter_used == 0.0
    assert linalg.cho_solve(out, np.zeros((0, 3))).shape == (0, 3)


def test_cholesky_failure_raises_naming_its_tag():
    with solve_log() as log:
        with pytest.raises(NumericalFailure) as err:
            cholesky(-np.eye(4), tag="negated")
    assert str(err.value) == "Cholesky factorization 'negated' failed: n=4"
    # the failed attempt is still logged under its tag
    assert log == [{"kind": "cholesky", "tag": "negated", "n": 4}]


def test_solve_log_records_only_inside_its_block():
    A = np.diag([1.0, 2.0])
    cholesky(A, tag="before")
    with solve_log() as outer:
        out = cholesky(A, tag="a")
        with solve_log() as inner:
            linalg.cho_solve(out, np.ones((2, 3)))
        conjugate_gradient(lambda v: A @ v, np.ones(2), tag="cg")
    cholesky(A, tag="after")
    assert inner == [{"kind": "cho_solve", "tag": "a", "n": 2, "rhs": 3}]
    assert outer == [{"kind": "cholesky", "tag": "a", "n": 2}, *inner, {"kind": "cg", "tag": "cg", "n": 2}]
    assert linalg._OPEN_LOGS == {}
    # two equal (empty) logs are closed apart, whichever closes first
    first, second = solve_log(), solve_log()
    log1, log2 = first.__enter__(), second.__enter__()
    first.__exit__(None, None, None)
    cholesky(A, tag="late")
    second.__exit__(None, None, None)
    assert log1 == [] and log2 == [{"kind": "cholesky", "tag": "late", "n": 2}]
    assert linalg._OPEN_LOGS == {}


def test_solve_log_closes_when_its_block_raises():
    with pytest.raises(NumericalFailure):
        with solve_log():
            cholesky(-np.eye(2))
    assert linalg._OPEN_LOGS == {}


def _passes_symmetry_check(A):
    try:
        _check_symmetric(A)
    except ValueError:
        return False
    return True


def _reference_symmetric(A, rtol=1e-8):
    """The symmetry verdict computed with abs, as the definition reads."""
    scale = max(1.0, float(np.max(np.abs(A))))
    return not np.max(np.abs(A - A.T)) > rtol * scale


def test_cholesky_rejects_nonsymmetric(monkeypatch):
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        cholesky(A)
    # asymmetry just above and just below rtol * scale, with the scale taken
    # from a positive entry, from a negative entry, or from the floor of 1
    cases = []
    for big in (7.0, -9.0, 0.25):
        limit = 1e-8 * max(1.0, abs(big))
        for gap, verdict in ((np.nextafter(limit, np.inf), False), (limit, True), (np.nextafter(limit, 0.0), True)):
            for sign in (1.0, -1.0):
                A = np.array([[big, 0.0, 0.0], [0.0, 0.5, sign * gap], [0.0, 0.0, 0.5]])
                assert _passes_symmetry_check(A) is verdict
                if not verdict:
                    with pytest.raises(ValueError):
                        cholesky(A)
                cases.append(A)
    # non-finite entries on and off the diagonal, on one or both sides
    for bad in (np.nan, np.inf, -np.inf):
        for where in ([(0, 0)], [(0, 1)], [(1, 0)], [(0, 1), (1, 0)], [(0, 1), (0, 0)]):
            A = np.array([[2.0, 0.1, 0.0], [0.1, 2.0, 0.0], [0.0, 1e-3, 2.0]])
            for i, j in where:
                A[i, j] = bad
            cases.append(A)
    # one gap just above the limit at every position of a 7 x 7 matrix
    S = np.add.outer(np.arange(7.0), np.arange(7.0)) / 10.0
    for i in range(7):
        for j in range(7):
            if i != j:
                A = S.copy()
                A[i, j] += 2e-8
                cases.append(A)
    # _check_symmetric's row blocks, one row each, rows of 2 with a partial
    # last block on 3 x 3, and one block: every split gives the same verdict
    for block in (linalg._BLOCK, 1, 6, 20):
        monkeypatch.setattr(linalg, "_BLOCK", block)
        with np.errstate(invalid="ignore"):  # inf - inf
            for A in cases:
                assert _passes_symmetry_check(A) is _reference_symmetric(A)
        assert _passes_symmetry_check(np.full((7, 7), np.nan))  # NaN passes, as documented


def test_check_symmetric_makes_no_n_by_n_temporary():
    n = 2000
    A = np.add.outer(np.arange(float(n)), np.arange(float(n)))
    _check_symmetric(A[:4, :4])
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        _check_symmetric(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < A.nbytes / 8


def test_cholesky_reconstruction_on_random_spd():
    rng = np.random.default_rng(0)
    for n in (5, 50, 300):
        A = random_spd(rng, n, 1e4)
        out = cholesky(A)
        assert out.jitter_used == 0.0
        rebuilt = out.factor @ out.factor.T
        assert np.linalg.norm(rebuilt - A) <= 1e-8 * np.linalg.norm(A)
        # A is not exactly symmetric here: its lower triangle is the one
        # factored, and neither memory order of A is written to
        assert np.array_equal(out.factor, sla.cholesky(A, lower=True, check_finite=False))
        for given in (A, np.asfortranarray(A)):
            before = given.copy()
            assert np.array_equal(cholesky(given).factor, out.factor)
            assert np.array_equal(given, before)


@pytest.mark.parametrize("family", list(Family))
def test_factor_in_place_is_the_copying_factor_bit_for_bit(family):
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        for n in (0, 1, 7, 200):
            A = gram(Kernel(family, 1.3, rng.uniform(0.4, 1.5, size=d)), rng.uniform(-5.0, 5.0, size=(n, d)))
            A[np.diag_indices_from(A)] += 0.1
            expected = sla.cholesky(A, lower=True, check_finite=False) if n else np.zeros((0, 0))
            copied = cholesky(A).factor
            own = A.copy()
            factor = linalg._factor_in_place(own, "kzz_plus_lambda").factor
            assert np.array_equal(copied, expected) and np.array_equal(factor, expected)
            assert n == 0 or np.shares_memory(factor, own)


def test_cg_identity_single_iteration():
    b = np.array([1.0, -2.0, 3.0])
    report = conjugate_gradient(lambda v: v, b)
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(report.solution, b, atol=1e-14)


def test_cg_two_distinct_eigenvalues():
    A = np.diag([1.0, 10.0])
    report = conjugate_gradient(lambda v: A @ v, np.array([1.0, 1.0]))
    assert report.converged
    assert report.iterations <= 2
    assert np.allclose(report.solution, [1.0, 0.1], atol=1e-10)


def test_cg_iterations_within_explicit_bound():
    # (sqrt(cond) + 3) / 2 dominates 1/log1p(2/(sqrt(cond)+1)), so the
    # coarser constant-form bound must also dominate observed iterations.
    rng = np.random.default_rng(1)
    for trial in range(5):
        A = random_spd(rng, 100, 1e4)
        b = rng.normal(size=100)
        report = conjugate_gradient(lambda v: A @ v, b, tol=1e-8)
        assert report.converged
        x_star = np.linalg.solve(A, b)
        w = np.linalg.eigvalsh(A)
        cond = w[-1] / w[0]
        e0 = math.sqrt(max(float(x_star @ b), 0.0))
        eps_a = 1e-8 * np.linalg.norm(b) / math.sqrt(w[-1])
        bound = (math.sqrt(cond) + 3.0) / 2.0 * math.log(2.0 * e0 / eps_a)
        assert report.iterations <= bound


def test_cg_matches_direct_solve():
    rng = np.random.default_rng(2)
    for n, cond in ((50, 1e2), (200, 1e3), (400, 1e4)):
        A = random_spd(rng, n, cond)
        b = rng.normal(size=n)
        report = conjugate_gradient(lambda v: A @ v, b)
        x_star = np.linalg.solve(A, b)
        rel = np.linalg.norm(report.solution - x_star) / np.linalg.norm(x_star)
        assert rel <= 1e-6


def test_cg_max_iter_reported_not_raised():
    rng = np.random.default_rng(3)
    A = random_spd(rng, 60, 1e6)
    report = conjugate_gradient(lambda v: A @ v, rng.normal(size=60), max_iter=3)
    assert not report.converged
    assert report.iterations == 3


def test_cg_nan_in_iterates_raises():
    def bad(v):
        out = v.copy()
        out[0] = np.nan
        return out

    with pytest.raises(NumericalFailure):
        conjugate_gradient(bad, np.ones(4))


def test_cg_zero_rhs():
    report = conjugate_gradient(lambda v: 2.0 * v, np.zeros(5))
    assert report.converged
    assert np.array_equal(report.solution, np.zeros(5))


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
def test_cg_solves_right_hand_sides_of_any_magnitude(scale):
    # ||b|| underflows to 0 at the small scales and overflows to inf at the large ones
    A = np.diag([0.5, 1.0, 2.0, 4.0])
    b = scale * np.ones(4)
    report = conjugate_gradient(lambda v: A @ v, b)
    assert report.converged
    assert np.allclose(report.solution, b / np.diag(A), rtol=1e-12, atol=0.0)


def test_cg_multi_matches_columnwise_runs():
    rng = np.random.default_rng(4)
    A = random_spd(rng, 80, 1e3)
    B = rng.normal(size=(80, 6))
    X, iters, res = cg_multi(A, B, tol=1e-10)
    assert X.shape == (80, 6)
    assert np.all(res <= 1e-10 * np.maximum(np.linalg.norm(B, axis=0), 1.0) * 1.01)
    assert np.all(iters >= 1)
    for j in range(6):
        report = conjugate_gradient(lambda v: A @ v, B[:, j], tol=1e-10)
        assert np.array_equal(X[:, j], report.solution)
        assert iters[j] == report.iterations
    assert np.max(np.abs(X - np.linalg.solve(A, B))) <= 1e-7
    # the true residual reported must match a recomputation
    assert res == pytest.approx(np.linalg.norm(B - A @ X, axis=0), rel=1e-14, abs=0.0)
    # a 1-d B gives scalars, as for a one-column B
    x, it, r = cg_multi(A, B[:, 2], tol=1e-10)
    assert np.array_equal(x, X[:, 2]) and it == iters[2] and r == cg_multi(A, B[:, 2:3], tol=1e-10)[2][0]


@pytest.mark.parametrize("scale", [1e200, 1e-300])
def test_cg_multi_residual_neither_overflows_nor_underflows(scale):
    # ||b - A x||^2 overflows at the large scale and underflows at the small
    A = np.diag([0.5, 1.0, 2.0, 4.0])
    B = scale * np.ones(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, _, res = cg_multi(A, B)
    R = B - A @ X
    top = np.max(np.abs(R))
    assert top > 0.0
    assert res == pytest.approx(top * np.linalg.norm(R / top), rel=1e-12)


def test_spectrum_trivial_values():
    s = spectrum(np.eye(9))
    assert (s.lambda_max, s.lambda_min, s.cond) == (1.0, 1.0, 1.0)
    s = spectrum(np.diag([4.0, 1.0]))
    assert (s.lambda_max, s.lambda_min, s.cond) == (4.0, 1.0, 4.0)


def test_spectrum_non_spd_sentinel():
    s = spectrum(np.diag([1.0, -2.0]))
    assert s.cond == math.inf
    assert s.lambda_min == -2.0


def test_spectrum_exact_above_4096():
    # Evenly spaced eigenvalues leave no gap at either end for a Krylov
    # estimate to resolve; the dense path must still return them exactly.
    s = spectrum(np.diag(np.linspace(1.0, 100.0, 4097)))
    assert (s.lambda_max, s.lambda_min, s.cond) == (100.0, 1.0, 100.0)


def test_spectrum_kms_within_closed_form_bracket():
    s = spectrum(kms_matrix(0.9, 256))
    bounds = kms_cond_bounds(0.9, 256)
    assert bounds.upper is not None
    assert bounds.lower <= s.cond <= bounds.upper
    s = spectrum(kms_matrix(0.999, 256))
    bounds = kms_cond_bounds(0.999, 256)
    assert bounds.upper is None
    assert s.cond >= bounds.lower


def test_hutchinson_identity_exact():
    for probes in (1, 7, 100):
        out = hutchinson_trace(lambda v: v, 13, probes=probes, seed=0)
        assert out["estimate"] == 13.0


def test_hutchinson_diag_within_three_stderr():
    A = np.diag([1.0, 2.0, 3.0])
    out = hutchinson_trace(lambda v: A @ v, 3, probes=10_000, seed=5)
    assert abs(out["estimate"] - 6.0) <= 3.0 * out["stderr"]


def test_hutchinson_seed_determinism():
    rng = np.random.default_rng(6)
    A = random_spd(rng, 20, 50.0)
    a = hutchinson_trace(lambda v: A @ v, 20, probes=64, seed=11)
    b = hutchinson_trace(lambda v: A @ v, 20, probes=64, seed=11)
    assert a == b


def test_w2_identical_gaussians_zero():
    rng = np.random.default_rng(7)
    S = random_spd(rng, 6, 10.0)
    mu = rng.normal(size=6)
    assert wasserstein2_gaussians(mu, S, mu, S) == pytest.approx(0.0, abs=1e-7)


def test_w2_one_dimensional_closed_forms():
    one = np.array([[1.0]])
    got = wasserstein2_gaussians(np.array([0.0]), one, np.array([1.0]), one)
    assert got == pytest.approx(1.0, abs=1e-12)
    for s1, s2 in ((1.0, 2.0), (0.3, 1.7), (2.5, 2.5)):
        got = wasserstein2_gaussians(
            np.array([0.0]), np.array([[s1**2]]), np.array([0.0]), np.array([[s2**2]])
        )
        assert got == pytest.approx(abs(s1 - s2), abs=1e-10)


def test_w2_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        mus = [rng.normal(size=n) for _ in range(3)]
        covs = [random_spd(rng, n, 30.0) for _ in range(3)]
        d01 = wasserstein2_gaussians(mus[0], covs[0], mus[1], covs[1])
        d10 = wasserstein2_gaussians(mus[1], covs[1], mus[0], covs[0])
        d02 = wasserstein2_gaussians(mus[0], covs[0], mus[2], covs[2])
        d12 = wasserstein2_gaussians(mus[1], covs[1], mus[2], covs[2])
        assert abs(d01 - d10) <= 1e-8
        assert d01 <= d02 + d12 + 1e-8


def test_w2_dimension_mismatch():
    with pytest.raises(ValueError):
        wasserstein2_gaussians(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3))


def test_stability_predicate_values():
    assert cholesky_stability_predicate(1e3, 100, 52) is True
    assert cholesky_stability_predicate(1e16, 100, 52) is False
    # single precision threshold is far tighter than double at fixed n
    assert cholesky_stability_predicate(1e4, 100, 23) is False
    assert cholesky_stability_predicate(1e4, 100, 52) is True


def test_stability_predicate_small_n_is_error():
    with pytest.raises(ValueError):
        cholesky_stability_predicate(10.0, 10, 52)
