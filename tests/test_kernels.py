import math

import numpy as np
import pytest

from stablegp import kernels
from stablegp import (
    DecayEnvelope,
    Family,
    Kernel,
    decay_envelope,
    gram,
    gram_gradients,
    kms_matrix,
)
from support import eval_kernel, reference_gram_gradients

ALL_FAMILIES = [
    Family.SQUARED_EXPONENTIAL,
    Family.MATERN12,
    Family.MATERN32,
    Family.MATERN52,
]


def test_eval_zero_lag_is_variance():
    x = np.array([[0.3, -1.2]])
    for family in ALL_FAMILIES:
        k = Kernel(family, 1.7, np.array([0.5, 2.0]))
        assert gram(k, x, x)[0, 0] == pytest.approx(1.7, abs=0.0)


def test_eval_se_hand_value():
    # variance * exp(-0.5 * (sqrt(2)/1)^2) = 2 * e^-1, computed by hand
    k = Kernel(Family.SQUARED_EXPONENTIAL, 2.0, np.array([1.0]))
    got = gram(k, np.array([[0.0]]), np.array([[math.sqrt(2.0)]]))[0, 0]
    assert got == pytest.approx(0.7357588823428847, abs=1e-15)


def test_eval_matern12_matches_kms_offdiagonal():
    r = 0.37
    rho = math.exp(-r)
    k = Kernel(Family.MATERN12, 1.0, np.array([1.0]))
    got = gram(k, np.array([[0.0]]), np.array([[r]]))[0, 0]
    assert got == pytest.approx(rho, abs=1e-15)


def test_eval_dimension_mismatch_raises():
    k = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        gram(k, np.array([[0.0]]), np.array([[0.0]]))
    with pytest.raises(ValueError):
        gram(k, np.array([[0.0, 0.0]]), np.array([[0.0, 0.0, 0.0]]))


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        Kernel(Family.MATERN32, 0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        Kernel(Family.MATERN32, -1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        Kernel(Family.MATERN32, 1.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Kernel(Family.MATERN32, 1.0, np.array([]))


def test_kernel_json_roundtrip():
    k = Kernel(Family.MATERN52, 2.5, np.array([0.5, 1.5, 3.0]))
    k2 = Kernel.from_json(k.to_json())
    assert k2.family == k.family
    assert k2.variance == k.variance
    assert np.array_equal(k2.lengthscales, k.lengthscales)


def test_gram_single_point():
    k = Kernel(Family.MATERN32, 3.0, np.array([1.0, 1.0]))
    G = gram(k, np.array([[0.5, -0.5]]))
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(3.0, abs=0.0)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _contraction_error(g, k, A, B, P):
    """|g - vdot(dK, P)| over the reference derivative matrices, relative to vdot(|dK|, |P|).

    vdot(|dK|, |P|) is the size of the rounding any order of summing the
    products can carry, so the ratio is summation error, not cancellation.
    """
    K_ref, dK_dlogls_ref = reference_gram_gradients(k, A, B)
    mats = [K_ref] + dK_dlogls_ref
    want = np.array([np.vdot(M, P) for M in mats])
    scale = np.array([np.vdot(np.abs(M), np.abs(P)) for M in mats])
    return np.max(np.abs(g - want) / np.where(scale > 0.0, scale, 1.0))


def test_gram_matches_bruteforce_loop(monkeypatch):
    rng = np.random.default_rng(0)
    A = rng.normal(size=(5, 3))
    B = rng.normal(size=(4, 3))
    for family in ALL_FAMILIES:
        k = Kernel(family, 1.3, np.array([0.7, 1.1, 2.0]))
        G = gram(k, A, B)
        for i in range(5):
            for j in range(4):
                assert G[i, j] == pytest.approx(eval_kernel(k, A[i], B[j]), abs=1e-14)
    # gram works in place on its own buffers, and its result is the
    # out-of-place formula bit for bit; gram_gradients contracts the
    # derivatives tile by tile, and its sums are those of the reference
    # matrices to rounding, whether P is C- or Fortran-ordered.  Both hold
    # across chunk boundaries too, and the inputs are left as they were.
    for chunk in (kernels._CHUNK, 50, 1):
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
        for d in (1, 2, 3):
            A = rng.normal(size=(23, d)) * 2.0
            B = np.vstack([rng.normal(size=(14, d)), A[:3]])
            A_before, B_before = A.copy(), B.copy()
            for family in ALL_FAMILIES:
                k = Kernel(family, 1.7, rng.uniform(0.4, 2.0, size=d))
                for other in (None, B):
                    K_ref, _ = reference_gram_gradients(k, A, other)
                    assert _same_bits(gram(k, A, other), K_ref)
                    P_c = rng.normal(size=K_ref.shape)
                    for P in (P_c, np.asfortranarray(P_c)):
                        P_before = P.copy()
                        g = gram_gradients(k, A, other, P)
                        assert g.shape == (d + 1,)
                        assert _contraction_error(g, k, A, other, P) <= 1e-13
                        assert _same_bits(P, P_before)
            assert _same_bits(A, A_before) and _same_bits(B, B_before)
    with pytest.raises(ValueError, match="shape"):
        gram_gradients(k, A, B, np.zeros((len(B), len(A))))


def test_gram_square_is_bitwise_symmetric_with_variance_diagonal():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        A = rng.normal(size=(40, d))
        for family in ALL_FAMILIES:
            k = Kernel(family, 2.2, rng.uniform(0.5, 1.5, size=d))
            G = gram(k, A)
            assert np.array_equal(G, G.T)
            assert np.all(G.diagonal() == 2.2)
            # Contracting with the unit matrix E_ij reads entry (i, j) of K and
            # of each derivative exactly, since every other product is zero.
            def entries(i, j):
                E = np.zeros((40, 40))
                E[i, j] = 1.0
                return gram_gradients(k, A, None, E)

            for i, j in rng.integers(0, 40, size=(12, 2)):
                got = entries(i, j)
                assert got[0] == G[i, j]
                assert _same_bits(got, entries(j, i))
            assert _same_bits(entries(7, 7), np.array([2.2] + [0.0] * d))


def test_gram_psd_on_random_inputs():
    rng = np.random.default_rng(2)
    for family in ALL_FAMILIES:
        for n in (10, 80, 200):
            A = rng.normal(size=(n, 2)) * 3.0
            k = Kernel(family, 1.5, np.array([0.6, 1.4]))
            G = gram(k, A)
            lam_min = float(np.linalg.eigvalsh(G)[0])
            assert lam_min >= -1e-10 * float(np.trace(G))


def test_gram_dimension_mismatch_raises():
    k = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        gram(k, np.zeros((3, 3)))


def test_kms_small_cases():
    assert np.array_equal(kms_matrix(0.3, 1), np.array([[1.0]]))
    got = kms_matrix(0.5, 2)
    assert np.array_equal(got, np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_kms_rho_domain():
    for rho in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            kms_matrix(rho, 4)


def test_kms_matches_matern12_grid():
    # rho^|i-j| is the exponential-kernel matrix on a grid of spacing -ln(rho)
    rho = 0.9
    r = -math.log(rho)
    grid = (np.arange(4) * r).reshape(-1, 1)
    k = Kernel(Family.MATERN12, 1.0, np.array([1.0]))
    G = gram(k, grid)
    K = kms_matrix(rho, 4)
    assert np.max(np.abs(G - K)) <= 1e-14


def test_envelope_profiles_on_grid():
    m = np.linspace(0.0, 6.0, 25)
    se = decay_envelope(Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0])))
    assert np.allclose(se(m), np.exp(-0.5 * m**2), atol=1e-15)
    assert se(0.0) == pytest.approx(1.0, abs=0.0)
    m12 = decay_envelope(Kernel(Family.MATERN12, 1.5, np.array([0.5, 2.0])))
    assert np.allclose(m12(m), 1.5 * np.exp(-m / 2.0), atol=1e-15)


def test_envelope_nonincreasing():
    m = np.linspace(0.0, 20.0, 400)
    for family in ALL_FAMILIES:
        env = decay_envelope(Kernel(family, 1.2, np.array([0.4, 1.7])))
        values = env(m)
        assert np.all(np.diff(values) <= 1e-15)
        assert env(np.inf) == 0.0


def test_envelope_dominates_anisotropic_pairs_at_unit_distance():
    k = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0, 2.0]))
    env = decay_envelope(k)
    assert env(1.0) == pytest.approx(math.exp(-1.0 / 8.0), abs=1e-15)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10_000, 2))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=10_000)
    xp = x + np.stack([np.cos(theta), np.sin(theta)], axis=1)
    diag = np.array([eval_kernel(k, a, b) for a, b in zip(x[::5], xp[::5])])
    assert np.all(np.abs(diag) <= env(1.0) + 1e-15)


def test_envelope_dominates_all_families_random_pairs():
    rng = np.random.default_rng(4)
    for family in ALL_FAMILIES:
        k = Kernel(family, 1.8, np.array([0.6, 1.9, 0.9]))
        env = decay_envelope(k)
        X = rng.normal(size=(300, 3)) * 2.0
        Y = rng.normal(size=(300, 3)) * 2.0
        dists = np.linalg.norm(X - Y, axis=1)
        values = np.array([eval_kernel(k, a, b) for a, b in zip(X, Y)])
        assert np.all(np.abs(values) <= env(dists) + 1e-15)


def test_envelope_type_is_reusable_value():
    env = decay_envelope(Kernel(Family.MATERN52, 2.0, np.array([1.0])))
    assert isinstance(env, DecayEnvelope)
    m = np.array([0.0, 1.0, 2.0])
    values = env(m)
    assert values[0] == 2.0
    assert np.all(np.diff(values) < 0.0)
