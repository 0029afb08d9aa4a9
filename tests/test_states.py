import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from formats import commented
from qfiwb.numerics import Rng
from qfiwb.states import (
    MAX_PROJECTOR_SITES,
    PureState,
    compositions_colex,
    dicke_basis,
    dicke_state,
    dim_symmetric,
    ghz,
    minus_vector,
    normalized_state,
    plus_vector,
    product_state,
    read_state,
    sample_haar,
    sample_symmetric,
    superposition_state,
    symmetric_projector,
    write_state,
)


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(1, 2, np.array([1.0, 1.0], dtype=complex))


def test_normalized_state_rescales():
    st_ = normalized_state(1, 2, np.array([3.0, 4.0], dtype=complex))
    assert np.linalg.norm(st_.amplitudes) == pytest.approx(1.0)
    assert st_.amplitudes[1] / st_.amplitudes[0] == pytest.approx(4.0 / 3.0)


def test_ghz_amplitudes():
    g = ghz(3)
    want = np.zeros(8, dtype=complex)
    want[0] = want[-1] = 1.0 / math.sqrt(2.0)
    assert np.allclose(g.amplitudes, want)


def test_ghz_in_rotated_basis():
    g = ghz(2, basis=(plus_vector(), minus_vector()))
    want = (oracles.kron_chain([plus_vector()] * 2) + oracles.kron_chain([minus_vector()] * 2))
    want = want / np.linalg.norm(want)
    assert np.allclose(g.amplitudes, want)


def test_plus_minus_vectors():
    assert np.allclose(plus_vector(), [1 / math.sqrt(2)] * 2)
    assert np.vdot(plus_vector(), minus_vector()) == pytest.approx(0.0)


def test_product_state_matches_kron():
    v0 = np.array([1.0, 0.0], dtype=complex)
    st_ = product_state([v0, plus_vector(), minus_vector()])
    assert np.allclose(
        st_.amplitudes, oracles.kron_chain([v0, plus_vector(), minus_vector()])
    )


def test_superposition_state_components():
    n = 3
    st_ = superposition_state(n)
    raw = (
        oracles.kron_chain([np.array([1.0, 0.0], dtype=complex)] * n)
        + oracles.kron_chain([np.array([0.0, 1.0], dtype=complex)] * n)
        + oracles.kron_chain([plus_vector()] * n)
        + oracles.kron_chain([minus_vector()] * n)
    )
    raw = raw / np.linalg.norm(raw)
    assert np.allclose(st_.amplitudes, raw, atol=1e-12)


def test_sample_haar_normalized_and_seeded():
    a = sample_haar(3, 2, Rng(1))
    b = sample_haar(3, 2, Rng(1))
    assert np.allclose(a.amplitudes, b.amplitudes)
    assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0)


def test_sample_haar_unitary_invariance_of_moments():
    # Mean copies overlap with a fixed vector: E|<e0|psi>|^2 = 1/dim.
    dim = 8
    vals = [abs(sample_haar(3, 2, Rng(0).substream(t)).amplitudes[0]) ** 2 for t in range(4000)]
    mean, se = oracles.mc_mean(vals)
    assert abs(mean - 1.0 / dim) < 4 * se


def test_dim_symmetric():
    assert dim_symmetric(2, 2) == 3
    assert dim_symmetric(3, 2) == 4
    assert dim_symmetric(2, 3) == 6
    assert dim_symmetric(5, 3) == math.comb(7, 5)


def test_compositions_colex_order_and_count():
    comps = list(compositions_colex(2, 3))
    assert comps[0] == (2, 0, 0)
    assert comps[-1] == (0, 0, 2)
    assert len(comps) == dim_symmetric(2, 3)
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == 2 for c in comps)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4))
def test_compositions_colex_is_exhaustive(total, parts):
    comps = list(compositions_colex(total, parts))
    assert len(comps) == math.comb(total + parts - 1, total)
    assert len(set(comps)) == len(comps)


def test_dicke_basis_is_orthonormal():
    b = dicke_basis(3, 3)
    gram = b.matrix.T @ b.matrix
    assert np.allclose(gram, np.eye(b.size), atol=1e-12)


def test_dicke_frame_reproduces_projector():
    for n, d in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        b = dicke_basis(n, d)
        pi = oracles.symmetrizer(n, d)
        assert np.allclose(b.matrix @ b.matrix.T, pi, atol=1e-12), (n, d)


def test_dicke_state_values():
    # |1,1> of two qubits: equal weight on 01 and 10.
    st_ = dicke_state(2, 2, (1, 1))
    assert np.allclose(st_.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
    with pytest.raises(ValueError):
        dicke_state(2, 2, (3, 1))


def test_symmetric_projector_is_projector():
    pi = symmetric_projector(3, 2)
    assert np.allclose(pi, pi.conj().T)
    assert np.allclose(pi @ pi, pi, atol=1e-12)
    assert np.trace(pi).real == pytest.approx(dim_symmetric(3, 2))


def test_symmetric_projector_site_cap():
    with pytest.raises(ValueError):
        symmetric_projector(MAX_PROJECTOR_SITES + 1, 2)


def test_sample_symmetric_lies_in_subspace():
    for t in range(5):
        psi = sample_symmetric(4, 2, Rng(t))
        pi = oracles.symmetrizer(4, 2)
        assert np.allclose(pi @ psi.amplitudes, psi.amplitudes, atol=1e-12)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)


def test_sample_symmetric_prebuilt_basis_matches():
    b = dicke_basis(3, 2)
    a = sample_symmetric(3, 2, Rng(6), b)
    c = sample_symmetric(3, 2, Rng(6))
    assert np.allclose(a.amplitudes, c.amplitudes)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_state_file_roundtrip_through_comments_and_blank_lines(seed, data):
    st_ = sample_haar(2, 3, Rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "state.txt")
        write_state(st_, path)
        text = Path(path).read_text(encoding="utf-8")
        Path(path).write_text(data.draw(commented(text)), encoding="utf-8")
        back = read_state(path)
    assert (back.n, back.d) == (st_.n, st_.d)
    assert np.array_equal(back.amplitudes, st_.amplitudes)


def test_state_file_roundtrip(tmp_path):
    for seed in (0, 3, 17, 4096):
        path = str(tmp_path / f"state-{seed}.txt")
        st_ = sample_haar(2, 3, Rng(seed))
        write_state(st_, path)
        back = read_state(path)
        assert back.n == st_.n and back.d == st_.d
        assert np.allclose(back.amplitudes, st_.amplitudes, atol=1e-15)
