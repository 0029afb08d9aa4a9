import cmath
import importlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from formats import commented
from qfiwb.numerics import Rng
from qfiwb.nets import pure_state_net_qubit
from qfiwb.states import (
    BlochGrid,
    PureState,
    compositions_colex,
    dicke_basis,
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
    trace_distance_qubit,
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
    basis = dicke_basis(2, 2)
    column = basis.matrix[:, basis.compositions.index((1, 1))]
    assert np.allclose(column, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
    assert (3, 1) not in basis.compositions


def test_symmetric_projector_is_projector():
    pi = oracles.symmetrizer(3, 2)
    assert np.allclose(pi, pi.conj().T)
    assert np.allclose(pi @ pi, pi, atol=1e-12)
    assert np.trace(pi).real == pytest.approx(dim_symmetric(3, 2))


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


# --- Bloch grid --------------------------------------------------------------

def test_bloch_grid_layout():
    grid = BlochGrid(np.array([1, 3, 2]))
    assert grid.count == 6
    t = math.pi / 2.0  # row 1 of 3 sits at (1 + 1/2) pi / 3
    phi = 2.0 * math.pi / 3.0  # element 2 is azimuth 1 of 3 in row 1
    assert np.allclose(grid.state_at(2), [math.cos(t / 2), math.sin(t / 2) * np.exp(1j * phi)])
    assert np.allclose(grid.state_at(0), [math.cos(math.pi / 12), math.sin(math.pi / 12)])
    assert grid.states(np.array([[0, 1], [4, 5]])).shape == (2, 2, 2)
    frame = grid.frame_at(2)
    assert np.allclose(frame[:, 0], grid.state_at(2))
    assert np.allclose(frame @ frame.conj().T, np.eye(2), atol=1e-12)
    for counts in ([], [1, 0], [[1, 2]]):
        with pytest.raises(ValueError):
            BlochGrid(np.array(counts, dtype=np.int64))
    with pytest.raises(IndexError):
        grid.states(np.array([0, 6]))


def _patch(grid: BlochGrid, v: np.ndarray) -> list[int]:
    """The 3x3 cells around v's Bloch angles: nearby rows, azimuths k-1..k+1."""
    theta = 2.0 * math.atan2(abs(v[1]), abs(v[0]))
    phi = cmath.phase(v[1] * np.conj(v[0])) % (2.0 * math.pi)
    rows = len(grid.row_counts)
    j0 = round(theta / (math.pi / rows) - 0.5)
    out = []
    for j in range(max(0, j0 - 1), min(rows, j0 + 2)):
        m = int(grid.row_counts[j])
        k0 = round(phi * m / (2.0 * math.pi))
        out += [int(grid.offsets[j]) + (k0 + dk) % m for dk in (-1, 0, 1)]
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    pole=st.sampled_from([None, 0, 1]),
    eps_p=st.one_of(st.sampled_from([0.5, 0.2, 0.05, 0.003]), st.floats(0.01, 0.9)),
    delta=st.one_of(st.sampled_from([0.03, 0.15]), st.floats(0.02, 1.0)),
)
def test_bloch_grid_covering_rules(seed, pole, eps_p, delta):
    v = np.eye(2, dtype=complex)[pole] if pole is not None else Rng(seed).complex_normal(2)
    v = v / np.linalg.norm(v)
    net = pure_state_net_qubit(eps_p)
    oracle = importlib.import_module("qfiwb.gme")._oracle_grid(delta)
    for grid in (net, oracle):
        i = grid.nearest_index(v)
        best = trace_distance_qubit(v, grid.state_at(i))
        assert i in _patch(grid, v)
        assert all(best <= trace_distance_qubit(v, grid.state_at(j)) for j in _patch(grid, v))
    # The net covers in trace distance, the oracle's grid in vector distance up to phase.
    assert trace_distance_qubit(v, net.state_at(net.nearest_index(v))) <= eps_p + 1e-12
    ov = abs(np.vdot(oracle.state_at(oracle.nearest_index(v)), v))
    assert math.sqrt(max(0.0, 2.0 - 2.0 * ov)) <= delta + 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_bloch_grid_nearest_index_of_a_batch(seed):
    r = Rng(seed)
    a = r.uniform(0.0, math.pi / 2.0, 8)
    seam = np.stack([np.cos(a), np.sin(a) * np.exp(1j * r.uniform(-1e-9, 1e-9, 8))], axis=1)
    poles = np.array([[1, 0], [0, 1], [1j, 0], [0, -1j]], dtype=complex)
    v = np.concatenate([r.complex_normal((24, 2)), seam, poles])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    for counts in ([1], [2, 2], [1, 2, 5, 2, 1], [3, 6, 6, 3], [6, 10, 12], [1, 7, 12, 9, 2]):
        grid = BlochGrid(np.array(counts))
        idx = grid.nearest_index(v)
        assert idx.shape == (36,)
        assert np.array_equal(grid.nearest_index(v.reshape(4, 9, 2)), idx.reshape(4, 9))
        for w, i in zip(v, idx):
            assert i == grid.nearest_index(w)
            best = trace_distance_qubit(w, grid.state_at(i))
            assert i in _patch(grid, w)
            assert all(best <= trace_distance_qubit(w, grid.state_at(j)) for j in _patch(grid, w))


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


# the invalid input warns on its way to the ValueError
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_amplitudes_are_rejected(bad):
    # NaN compares false with any tolerance; the norm checks must still fail it.
    with pytest.raises(ValueError, match="norm"):
        PureState(1, 2, np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="norm"):
        product_state([np.array([1.0, 0.0]), np.array([bad, 0.0])])
    with pytest.raises(ValueError, match="norm"):
        normalized_state(1, 2, np.array([bad, 1.0]))
