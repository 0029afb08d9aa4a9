import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qfiwb import numerics
from qfiwb.numerics import (
    MAX_DIM,
    PASS_WORDS,
    DimensionError,
    DomainError,
    Rng,
    _philox_words,
    _seed_keys,
    check_words,
    complex_normals,
    content_lines,
    ensure_hermitian,
    haar_qr,
    haar_unitaries,
    haar_unitary,
    hermitian_eig,
    is_hermitian,
    kron_all,
    kron_fold,
    random_hermitian,
    spectral_norm,
    spectral_spread,
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


# --- block draws against numpy's own SeedSequence and Philox -------------------

U32 = 2**32 - 1


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**160),
    path=st.lists(st.integers(min_value=0, max_value=2**70), max_size=3),
    last=st.lists(st.integers(min_value=0, max_value=U32), min_size=1, max_size=4),
)
@example(seed=0, path=[], last=[0, U32])
@example(seed=1, path=[1], last=[0, U32])
@example(seed=2**32 + 5, path=[0, 2**32], last=[U32, 0])
# 2**130 is five entropy words, more than the four-word pool holds
@example(seed=2**130, path=[3, 0, 2**64], last=[0, U32])
def test_seed_keys_match_seed_sequence(seed, path, last):
    k0, k1 = _seed_keys(seed, tuple(path), np.array(last))
    for i, t in enumerate(last):
        ss = np.random.SeedSequence(seed, spawn_key=(*path, t))
        assert [k0[i], k1[i]] == ss.generate_state(2, np.uint64).tolist()


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(
        st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
        min_size=1, max_size=3,
    ),
    count=st.integers(min_value=0, max_value=41),
)
@example(keys=[(0, 0)], count=1)
@example(keys=[(2**64 - 1, 2**64 - 1), (5, 7)], count=7)
@example(keys=[(123, 456)], count=18)
def test_philox_words_match_numpy_philox(keys, count):
    k0, k1 = (np.array(k, dtype=np.uint64) for k in zip(*keys))
    words = _philox_words(k0, k1, count)
    assert words.shape == (len(keys), count)
    for row, key in zip(words, keys):
        want = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(count)
        assert np.array_equal(row, want)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**70),
    path=st.lists(st.integers(min_value=0, max_value=2**40), max_size=2),
    start=st.integers(min_value=0, max_value=U32 - 20),
    count=st.integers(min_value=0, max_value=5),
    step=st.integers(min_value=1, max_value=4),
    dim=st.integers(min_value=0, max_value=37),
)
@example(seed=0, path=[1], start=0, count=3, step=1, dim=1)
@example(seed=1, path=[1], start=4, count=5, step=1, dim=4)
@example(seed=9, path=[], start=U32 - 20, count=5, step=5, dim=5)
@example(seed=2**64, path=[2, 0], start=7, count=2, step=3, dim=33)
def test_substream_normals_match_per_stream_draws(seed, path, start, count, step, dim):
    rng = Rng(seed, path)
    trials = range(start, start + count * step, step)
    got = rng.substream_normals(trials, dim)
    assert got.shape == (count, dim)
    for row, t in zip(got, trials):
        assert _same_bits(row, rng.substream(t).complex_normal(dim))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**70),
    path=st.lists(st.integers(min_value=0, max_value=2**40), max_size=2),
    start=st.integers(min_value=0, max_value=U32 - 20),
    count=st.integers(min_value=0, max_value=5),
    step=st.integers(min_value=1, max_value=4),
    words=st.one_of(st.integers(min_value=0, max_value=41), st.sampled_from([1, 3, 7, 33])),
)
@example(seed=0, path=[1], start=0, count=3, step=1, words=1)
@example(seed=5, path=[1, 0], start=2, count=4, step=3, words=9)
@example(seed=9, path=[], start=U32 - 20, count=5, step=5, words=13)
# a row longer than a Philox pass: each trial is its own pass
@example(seed=2, path=[1], start=3, count=2, step=2, words=PASS_WORDS + 5)
def test_substream_uniforms_match_per_stream_draws(seed, path, start, count, step, words):
    rng = Rng(seed, path)
    trials = range(start, start + count * step, step)
    got = rng.substream_uniforms(trials, words)
    assert got.shape == (count, words)
    for row, t in zip(got, trials):
        assert _same_bits(row, rng.substream(t).random(words))


def test_substream_uniforms_span_several_passes():
    # 6001 words a trial: ten trials fill a pass, so 14 trials take two.
    rng = Rng(4).substream(1)
    trials = range(3, 45, 3)
    got = rng.substream_uniforms(trials, 6001)
    for row, t in zip(got, trials):
        assert _same_bits(row, rng.substream(t).random(6001))


def test_substream_uniforms_reject_indices_outside_32_bits():
    rng = Rng(0)
    assert rng.substream_uniforms(range(U32, U32 + 1), 3).shape == (1, 3)
    assert rng.substream_uniforms(range(0), 3).shape == (0, 3)
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        rng.substream_uniforms(range(U32, U32 + 2), 3)
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        rng.substream_uniforms(range(2**40, 2**40 + 1), 1)
    with pytest.raises(ValueError, match="non-negative"):
        rng.substream_uniforms(range(-1, 2), 3)


def test_check_words_wants_one_row_per_trial():
    assert check_words(np.zeros((3, 5)), 5) == 5
    for bad in (np.zeros((3, 4)), np.zeros(5), np.zeros((1, 1, 5))):
        with pytest.raises(ValueError, match="uniforms of shape"):
            check_words(bad, 5)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_stacked_haar_qr_matches_haar_unitary(d):
    rng = Rng(8).substream(1)
    trials = range(2, 40, 3)
    # each trial reads its 2 d^2 words and its next word is untouched
    u = rng.substream_uniforms(trials, 2 * d * d + 1)
    stack = haar_unitaries(u[:, :-1], d)
    assert stack.shape == (len(trials), d, d)
    for got, word, t in zip(stack, u[:, -1], trials):
        r = rng.substream(t)
        assert _same_bits(got, haar_unitary(d, r))
        assert _same_bits(np.array([word]), r.random(1))
    # a stack of blocks factors block by block
    z = rng.complex_normal((3, 2, d, d))
    assert all(_same_bits(haar_qr(z)[i, j], haar_qr(z[i, j])) for i in range(3) for j in range(2))
    assert haar_unitaries(np.zeros((0, 2 * d * d)), d).shape == (0, d, d)


def test_substream_normals_span_several_passes():
    # 6000 words a trial: ten trials fill a pass, so 14 trials take two.
    rng = Rng(4).substream(1)
    trials = range(3, 45, 3)
    got = rng.substream_normals(trials, 3000)
    for row, t in zip(got, trials):
        assert _same_bits(row, rng.substream(t).complex_normal(3000))


@pytest.mark.parametrize("rows", [1, 2])
def test_complex_normals_in_passes_equal_the_whole_row_formula(rows):
    # Rows wider than a pass are read in passes; every entry, signed zeros
    # too, is the whole-row formula's. A zero u1 gives r = -0.0.
    m = 2 * PASS_WORDS + 777
    u = Rng(4).random((rows, 2 * m))
    u[:, :m:101] = 0.0
    u[:, m::203] = 0.0
    cos_part, sin_part = numerics._box_muller(u[:, :m], u[:, m:])
    want = (cos_part + 1j * sin_part) / np.sqrt(2.0)
    assert _same_bits(complex_normals(u), want)
    out = np.full((rows + 1, m), np.nan, dtype=complex)
    assert complex_normals(u, out[1:]).base is out
    assert _same_bits(out[1:], want) and np.isnan(out[0]).all()
    skip = 5
    rng = Rng(8).substream(2)
    for row, t in zip(rng.substream_normals(range(3, 5), 40, skip), range(3, 5)):
        assert _same_bits(row, complex_normals(rng.substream(t).random(skip + 80)[skip:]))


def test_substream_normals_reject_indices_outside_32_bits():
    rng = Rng(0)
    assert rng.substream_normals(range(U32, U32 + 1), 2).shape == (1, 2)
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        rng.substream_normals(range(U32, U32 + 2), 2)
    with pytest.raises(ValueError, match="non-negative"):
        rng.substream_normals(range(-1, 2), 2)


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


def test_kron_fold_small_case():
    # Site 1 is the most significant: entry 3 i + j is a[i] + b[j].
    a, b = np.array([0.0, 10.0]), np.array([1.0, 2.0, 3.0])
    assert kron_fold(np.add, [a, b]).tolist() == [1.0, 2.0, 3.0, 11.0, 12.0, 13.0]
    assert np.array_equal(kron_fold(np.multiply, [a, b]), np.kron(a, b))
    assert np.array_equal(kron_fold(np.add, [b]), b)
    with pytest.raises(DomainError, match="Kronecker fold of 26 sites"):  # 2^26 int64 entries
        kron_fold(np.add, [np.arange(2)] * 26)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=4))
def test_kron_fold_of_place_values_counts_in_kron_order(n, d):
    places = [d ** (n - 1 - j) * np.arange(d) for j in range(n)]
    assert np.array_equal(kron_fold(np.add, places), np.arange(d**n))


def test_kron_fold_folds_each_stack_entry_on_its_own():
    rng = np.random.default_rng(3)
    stack = [rng.standard_normal((4, 5, d)) for d in (2, 3, 2)]
    for ufunc in (np.add, np.multiply):
        got = kron_fold(ufunc, stack)
        assert got.shape == (4, 5, 12)
        for i in range(4):
            for j in range(5):
                assert np.array_equal(got[i, j], kron_fold(ufunc, [v[i, j] for v in stack]))


def test_dimension_guard():
    with pytest.raises(ValueError):
        kron_all([np.eye(MAX_DIM // 2 + 1, dtype=complex)] * 2)


def _check_blocks(rng: Rng, trials: range, words: int) -> list[range]:
    """Every block of uniform_blocks against substream(t).random(words), bit for bit."""
    blocks = []
    for block, u in rng.uniform_blocks(trials, words):
        assert u.shape == (len(block), words)
        assert len(block) >= 1
        assert len(block) == 1 or u.size <= PASS_WORDS
        for row, t in zip(u, block):
            assert _same_bits(row, rng.substream(t).random(words))
        blocks.append(block)
    assert [t for block in blocks for t in block] == list(trials)
    return blocks


# 64 words is the first row width drawn by the rekeyed generator.
@pytest.mark.parametrize("words", [1, 63, 64, 65, 200])
def test_uniform_blocks_match_substream_on_both_sides_of_the_route_width(words):
    assert len(_check_blocks(Rng(6, (1,)), range(4, 60, 3), words)) == 1


@pytest.mark.parametrize("words", [40, 6001])
def test_uniform_blocks_cross_pass_boundaries_with_a_step(words):
    # 1638 rows of 40 words or 10 rows of 6001 words fill a pass.
    rows = PASS_WORDS // words
    trials = range(5, 5 + 3 * (2 * rows + 7), 3)
    blocks = _check_blocks(Rng(2**64 + 3).substream(1), trials, words)
    assert [len(b) for b in blocks] == [rows, rows, 7]


@pytest.mark.parametrize("words", [40, 6001])
def test_uniform_blocks_hash_keys_a_chunk_of_blocks_at_a_time(monkeypatch, words):
    # Two blocks' keys fit the patched budget, so no key array grows with the trial count.
    rows = PASS_WORDS // words
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 2 * 16 * rows)
    hashed = []

    def seed_keys(seed, path, last):
        hashed.append(len(last))
        return _seed_keys(seed, path, last)

    monkeypatch.setattr(numerics, "_seed_keys", seed_keys)
    trials = range(5, 5 + 3 * (4 * rows + 7), 3)
    blocks = _check_blocks(Rng(2**64 + 3).substream(1), trials, words)
    assert [len(b) for b in blocks] == [rows] * 4 + [7]
    assert hashed == [2 * rows, 2 * rows, 7]


def test_uniform_blocks_hold_one_row_wider_than_a_pass():
    words = PASS_WORDS + 5
    blocks = _check_blocks(Rng(2, (1,)), range(3, 9, 2), words)
    assert [len(b) for b in blocks] == [1, 1, 1]


@pytest.mark.parametrize("words", [7, 100])
def test_uniform_blocks_row_does_not_depend_on_the_other_trials(words):
    rng = Rng(11).substream(1)
    whole = rng.substream_uniforms(range(20), words)
    assert _same_bits(rng.substream_uniforms(range(5, 20), words), whole[5:])
    assert _same_bits(rng.substream_uniforms(range(19, 4, -7), words), whole[[19, 12, 5]])
    # block draws read only seed and path: the stream's own generator is never built
    assert "_gen" not in vars(rng)


@pytest.mark.parametrize("words", [3, 64])
def test_uniform_blocks_reject_indices_outside_32_bits(words):
    rng = Rng(0)
    _check_blocks(rng, range(U32, U32 + 1), words)
    assert list(rng.uniform_blocks(range(0), words)) == []
    # a trial count past 2^32 is a config outside the stream domain (exit 2)
    with pytest.raises(DomainError, match="below 2\\*\\*32"):
        list(rng.uniform_blocks(range(U32, U32 + 2), words))
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        list(rng.uniform_blocks(range(2**40, 2**40 + 1), words))
    with pytest.raises(ValueError, match="non-negative"):
        list(rng.uniform_blocks(range(-1, 2), words))


def test_content_lines_drop_comments_and_blank_lines():
    text = "# header comment\n\n  n = 4  # trailing\r\n\t\nfamily linear\n#"
    assert content_lines(text) == [(3, "n = 4"), (5, "family linear")]
    assert content_lines("") == []
