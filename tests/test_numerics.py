import numpy as np
import pytest
from hypothesis import given, strategies as st

from qfiwb.numerics import (
    MAX_DIM,
    Rng,
    basis_digits,
    ensure_hermitian,
    haar_unitary,
    hermitian_eig,
    is_hermitian,
    kron_all,
    random_hermitian,
    spectral_norm,
    spectral_spread,
    unitary_with_first_column,
)


def test_rng_is_reproducible():
    a = Rng(7).random(5)
    b = Rng(7).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Rng(8).random(5))


def test_substreams_are_independent_of_draw_order():
    root = Rng(3)
    first = root.substream(2).random(4)
    # Drawing from another substream must not perturb substream 2.
    root.substream(0).random(100)
    second = Rng(3).substream(2).random(4)
    assert np.array_equal(first, second)


def test_nested_substreams_differ():
    r = Rng(0)
    streams = [r.substream(0), r.substream(1), r.substream(0).substream(0)]
    draws = [s.random(3).tolist() for s in streams]
    assert draws[0] != draws[1]
    assert draws[0] != draws[2]


def test_complex_normal_shape_and_moments():
    z = Rng(11).complex_normal(20000)
    assert z.dtype == complex
    assert abs(z.mean()) < 0.05
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.05


def test_hermitian_eig_diagonal():
    w, v = hermitian_eig(np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(w, [0.0, 1.0])
    assert np.allclose(np.abs(v), np.eye(2))


def test_hermitian_eig_pauli_x():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    w, v = hermitian_eig(x)
    assert np.allclose(w, [-1.0, 1.0])
    for k in range(2):
        assert np.allclose(x @ v[:, k], w[k] * v[:, k], atol=1e-9)


def test_hermitian_eig_random_reconstruction():
    h = random_hermitian(9, Rng(5))
    w, v = hermitian_eig(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-9)
    assert np.allclose(v.conj().T @ v, np.eye(9), atol=1e-10)


def test_hermitian_tolerance_scales_with_the_entries():
    # Round-off on 1e7-sized entries passes; a 1e-6 relative asymmetry fails.
    near = np.array([[1e7, 1e7 + 1e-4], [1e7, -1e7]], dtype=complex)
    assert is_hermitian(near)
    ensure_hermitian(near)
    far = np.array([[1e7, 1e7 * (1.0 + 1e-6)], [1e7, -1e7]], dtype=complex)
    assert not is_hermitian(far)
    with pytest.raises(ValueError, match="not Hermitian"):
        ensure_hermitian(far)
    # Below unit scale the tolerance stays absolute.
    assert not is_hermitian(np.array([[0.0, 1e-9], [0.0, 0.0]], dtype=complex))


def test_spectral_norm_and_spread():
    h = np.diag([-3.0, 0.5, 2.0]).astype(complex)
    assert spectral_norm(h) == pytest.approx(3.0)
    assert spectral_spread(h) == pytest.approx(5.0)


def test_kron_all_matches_manual():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    b = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(kron_all([a, b]), np.kron(a, b))
    assert kron_all([a, b, a]).shape == (8, 8)


def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitary(5, Rng(2))
    assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
    assert np.allclose(u, haar_unitary(5, Rng(2)))
    assert not np.allclose(u, haar_unitary(5, Rng(3)))


def test_haar_unitary_phases_spread():
    # Eigenphases of a 64-dim draw should land in both half-planes.
    u = haar_unitary(64, Rng(9))
    phases = np.angle(np.linalg.eigvals(u))
    assert (phases > 0).any() and (phases < 0).any()


def test_random_hermitian_is_hermitian_and_scaled():
    h = random_hermitian(6, Rng(4), scale=3.0)
    assert np.allclose(h, h.conj().T)
    assert not np.allclose(h, random_hermitian(6, Rng(5), scale=3.0))


def test_basis_digits_small_case():
    digits = basis_digits(2, 3)
    assert digits.shape == (9, 2)
    assert digits[0].tolist() == [0, 0]
    assert digits[5].tolist() == [1, 2]
    assert digits[8].tolist() == [2, 2]


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=4))
def test_basis_digits_roundtrip(n, d):
    digits = basis_digits(n, d)
    weights = d ** np.arange(n - 1, -1, -1)
    assert np.array_equal(digits @ weights, np.arange(d**n))


def test_unitary_with_first_column():
    v = Rng(8).complex_normal(7)
    v = v / np.linalg.norm(v)
    u = unitary_with_first_column(v)
    assert np.allclose(u[:, 0], v)
    assert np.allclose(u.conj().T @ u, np.eye(7), atol=1e-12)


def test_dimension_guard():
    with pytest.raises(ValueError):
        kron_all([np.eye(MAX_DIM // 2 + 1, dtype=complex)] * 2)
