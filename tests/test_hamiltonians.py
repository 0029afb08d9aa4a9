import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from formats import commented
from qfiwb.hamiltonians import (
    GraphHamiltonian,
    LinearHamiltonian,
    ProductDiagonalHamiltonian,
    SingleSiteOperator,
    _ensure_unitaries,
    from_spec_text,
    linear_words,
    product_diagonal_words,
    read_spec,
    sample_linear,
    sample_linear_arrays,
    sample_product_diagonal,
    sample_product_diagonal_arrays,
    to_spec_text,
    write_spec,
)
from qfiwb.numerics import DimensionError, Rng, haar_unitary


def test_computational_site_is_diagonal():
    site = SingleSiteOperator.computational((0.0, 1.0, 2.5))
    assert np.allclose(site.matrix, np.diag([0.0, 1.0, 2.5]))
    assert site.gap == pytest.approx(1.0)  # smallest separation between levels
    assert site.is_computational


def test_plus_minus_site_matches_pauli_decomposition():
    # In the Hadamard frame the operator is (l0+l1)/2 I + (l0-l1)/2 X.
    l0, l1 = 0.25, 1.75
    site = SingleSiteOperator.plus_minus((l0, l1))
    expected = (l0 + l1) / 2 * np.eye(2) + (l0 - l1) / 2 * np.array([[0, 1], [1, 0]])
    assert np.allclose(site.matrix, expected, atol=1e-12)


def test_explicit_site_requires_unitary_basis():
    with pytest.raises(ValueError):
        SingleSiteOperator.explicit((0.0, 1.0), np.ones((2, 2)))


def test_linear_dense_matches_kron_oracle():
    rng = Rng(21)
    table = rng.uniform(-1.0, 1.0, (3, 2))
    basis = haar_unitary(2, rng)
    h = LinearHamiltonian(table, basis)
    assert np.allclose(h.dense(), oracles.linear_dense(table, basis), atol=1e-12)


def test_linear_computational_spectrum_is_assignment_sums():
    table = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 4.0]])
    h = LinearHamiltonian(table, np.eye(2))
    got = np.sort(np.linalg.eigvalsh(h.dense()))
    want = np.sort(
        [sum(table[i, s[i]] for i in range(3)) for s in itertools.product((0, 1), repeat=3)]
    )
    assert np.allclose(got, want, atol=1e-12)


def test_from_site_is_equal_row():
    site = SingleSiteOperator.computational((0.0, 1.0))
    h = LinearHamiltonian.from_site(4, site)
    assert h.n == 4 and h.d == 2
    assert h.is_equal_row
    assert np.allclose(h.site_operator(2).matrix, site.matrix)


def test_symmetrized_takes_column_means():
    table = np.array([[0.0, 1.0], [2.0, 3.0]])
    h = LinearHamiltonian(table, np.eye(2)).symmetrized()
    assert h.is_equal_row
    assert np.allclose(h.table, [[1.0, 2.0], [1.0, 2.0]])


def test_symmetrized_agrees_with_projector_average():
    # Sanity: averaging H over all site permutations equals the column-mean form.
    rng = Rng(33)
    table = rng.uniform(-1.0, 1.0, (3, 2))
    basis = haar_unitary(2, rng)
    h = LinearHamiltonian(table, basis)
    dim = 2**3
    acc = np.zeros((dim, dim), dtype=complex)
    perms = list(itertools.permutations(range(3)))
    for perm in perms:
        v = oracles.site_permutation_matrix(3, 2, perm)
        acc += v @ h.dense() @ v.T
    assert np.allclose(acc / len(perms), h.symmetrized().dense(), atol=1e-12)


def test_product_diagonal_dense_matches_oracle():
    rng = Rng(5)
    coeffs = rng.uniform(-2.0, 2.0, 8)
    bases = [haar_unitary(2, rng.substream(i)) for i in range(3)]
    h = ProductDiagonalHamiltonian(coeffs, tuple(bases))
    assert np.allclose(h.dense(), oracles.product_diagonal_dense(coeffs, bases), atol=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvalsh(h.dense())), np.sort(coeffs), atol=1e-10)


def test_linear_embeds_into_product_diagonal():
    rng = Rng(6)
    h = sample_linear(3, 2, rng, basis="haar")
    pd = ProductDiagonalHamiltonian(h.diagonal(), h.site_bases)
    assert np.allclose(pd.dense(), h.dense(), atol=1e-12)


def test_permutation_matrix_group_law():
    perms = list(itertools.permutations(range(3)))
    v = oracles.site_permutation_matrix
    for pi in perms:
        for sigma in perms:
            composed = tuple(pi[sigma[i]] for i in range(3))
            assert np.allclose(v(3, 2, pi) @ v(3, 2, sigma), v(3, 2, composed))


def test_graph_hamiltonian_diagonal_matches_dense():
    g = GraphHamiltonian.shared(
        n=4, hyperedges=[(1, 2), (2, 3), (3, 4)], levels=(0.5, 1.5)
    )
    assert np.allclose(g.dense(), np.diag(g.diagonal()))


def test_graph_hamiltonian_entry_is_product_of_site_levels():
    g = GraphHamiltonian.shared(n=3, hyperedges=[(1, 2), (2, 3)], levels=(2.0, 3.0))
    # Index 0b101 assigns levels (3, 2, 3): edges contribute 3*2 and 2*3.
    assert g.diagonal()[0b101] == pytest.approx(12.0)


def test_graph_hamiltonian_diagonal_past_the_dense_cap_raises():
    # The constructor takes any n; only the 2^n diagonal is capped.
    g = GraphHamiltonian.shared(n=13, hyperedges=[(1, 2), (12, 13)], levels=(0.5, 1.5))
    with pytest.raises(DimensionError):
        g.diagonal()


def test_sample_linear_respects_bounds():
    h = sample_linear(3, 2, Rng(9), low=-1.0, high=1.0)
    assert h.table.shape == (3, 2)
    assert np.all(np.abs(h.table) <= 1.0)
    # One (n, d) draw takes the same values as n draws of one row each.
    r = Rng(9)
    basis = haar_unitary(2, r)
    rows = [r.uniform(-1.0, 1.0, 2) for _ in range(3)]
    assert np.array_equal(h.basis, basis)
    assert np.array_equal(h.table, np.array(rows))


def test_sample_product_diagonal_shapes():
    h = sample_product_diagonal(3, 2, Rng(10))
    assert h.n == 3 and h.d == 2
    distinct = sum(
        0 if np.allclose(h.site_bases[i], h.site_bases[0]) else 1 for i in range(3)
    )
    assert distinct >= 1


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_linear_spec_text_roundtrip(seed):
    h = sample_linear(3, 2, Rng(seed), basis="haar")
    back = from_spec_text(to_spec_text(h))
    assert isinstance(back, LinearHamiltonian)
    assert np.allclose(back.dense(), h.dense(), atol=1e-12)


def test_product_spec_text_roundtrip():
    h = sample_product_diagonal(2, 3, Rng(12))
    back = from_spec_text(to_spec_text(h))
    assert np.allclose(back.dense(), h.dense(), atol=1e-12)


def test_named_basis_roundtrip_stays_symbolic():
    h = LinearHamiltonian.from_site(2, SingleSiteOperator.plus_minus((0.0, 1.0)))
    text = to_spec_text(h)
    assert "plus_minus" in text
    back = from_spec_text(text)
    assert np.allclose(back.dense(), h.dense(), atol=1e-12)


def test_graph_spec_file_roundtrip(tmp_path):
    g = GraphHamiltonian.shared(n=4, hyperedges=[(1, 2, 3), (2, 3, 4)], levels=(0.0, 1.0))
    path = tmp_path / "graph.txt"
    write_spec(g, str(path))
    back = read_spec(str(path))
    assert isinstance(back, GraphHamiltonian)
    assert np.allclose(back.dense(), g.dense())


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["linear", "product", "graph"]),
       seed=st.integers(0, 10_000), data=st.data())
def test_spec_text_roundtrip_through_comments_and_blank_lines(family, seed, data):
    r = Rng(seed)
    if family == "linear":
        h = sample_linear(3, 2, r, basis="haar")
    elif family == "product":
        h = sample_product_diagonal(2, 3, r)
    else:
        h = GraphHamiltonian.shared(n=4, hyperedges=[(1, 2), (2, 3), (3, 4)], levels=(0.0, 1.0))
    text = to_spec_text(h)
    assert to_spec_text(from_spec_text(data.draw(commented(text)))) == text


def test_from_spec_text_rejects_garbage():
    with pytest.raises(ValueError):
        from_spec_text("family = nonsense\n")


@pytest.mark.parametrize(
    "text",
    [
        "family\n",
        "family linear\nn\nd 2\nbasis computational\nlambda 0 1\n",
        "family graph\nn 2\nk\nedge 1 2\n",
        "family graph\nn 1\nk 1\nsite_eigs 1 0.5\nedge 1\n",
        "family linear\nn 1\nd 2\nbasis explicit\nlambda 0 1\nbasis_col\n",
        "family product_diagonal\nn 1\nd 2\nbasis explicit\nsite_basis_col\ncoeffs 0 1\n",
        "family linear\nn 0\nd 2\nbasis computational\n",
    ],
)
def test_from_spec_text_rejects_truncated_lines(text):
    with pytest.raises(ValueError):
        from_spec_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "family linear extra\nn 1\nd 2\nbasis computational\nlambda 0 1\n",
        "family linear\nn 1 7\nd 2\nbasis computational\nlambda 0 1\n",
        "family linear\nn 1\nd 2 3\nbasis computational\nlambda 0 1\n",
        "family product_diagonal\nn 1\nd 2\nbasis computational x\ncoeffs 0 1\n",
        "family graph\nn 2\nk 2 2\neigs 0 1\nedge 1 2\n",
        "family graph\nn 2\nk 2\neigs 0.5 1\npositivity 1 0\nedge 1 2\n",
    ],
)
def test_from_spec_text_rejects_trailing_tokens_on_scalar_keys(text):
    with pytest.raises(ValueError):
        from_spec_text(text)
    # the same text without the extra token parses
    fixed = "\n".join(
        " ".join(line.split()[:2]) if line.split()[0] in
        ("family", "n", "d", "k", "basis", "positivity") else line
        for line in text.splitlines()
    )
    from_spec_text(fixed)


# --- array samplers -------------------------------------------------------------

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_array_samplers_match_per_trial_samplers(n, d):
    # Row t of the array form is the per-trial sampler on substream(t), bit
    # for bit, and reads exactly its words: the stream's next word agrees.
    rng = Rng(21).substream(1)
    trials = range(1, 30, 4)
    words = linear_words(n, d, "haar")
    u = rng.substream_uniforms(trials, words + 1)
    tables, bases = sample_linear_arrays(u[:, :words], n, d, -2.0, 3.0, "haar")
    assert tables.shape == (len(trials), n, d) and bases.shape == (len(trials), d, d)
    for i, t in enumerate(trials):
        r = rng.substream(t)
        h = sample_linear(n, d, r, -2.0, 3.0)
        assert _same_bits(h.table, tables[i]) and _same_bits(h.basis, bases[i])
        assert _same_bits(r.random(1), u[i, words:])
    words = product_diagonal_words(n, d)
    u = rng.substream_uniforms(trials, words + 1)
    coeffs, site_bases = sample_product_diagonal_arrays(u[:, :words], n, d, -1.0, 0.5)
    assert coeffs.shape == (len(trials), d**n) and site_bases.shape == (len(trials), n, d, d)
    for i, t in enumerate(trials):
        r = rng.substream(t)
        h = sample_product_diagonal(n, d, r, -1.0, 0.5)
        assert _same_bits(h.coeffs, coeffs[i])
        assert all(_same_bits(b, site_bases[i, s]) for s, b in enumerate(h.site_bases))
        assert _same_bits(r.random(1), u[i, words:])


def test_sample_linear_with_a_fixed_basis_reads_only_levels():
    pm = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    assert linear_words(3, 2, "plus_minus") == linear_words(3, 2, pm) == 6
    for basis in ("computational", "plus_minus", pm):
        h = sample_linear(3, 2, Rng(4), basis=basis)
        assert np.array_equal(h.table, -1.0 + 2.0 * Rng(4).random((3, 2)))
        assert h.basis.flags.writeable is False
    u = Rng(4).random((5, 6))
    tables, bases = sample_linear_arrays(u, 3, 2, -1.0, 1.0, pm)
    assert bases.shape == (5, 2, 2) and np.array_equal(bases[4], pm)
    with pytest.raises(ValueError, match="does not match"):
        sample_linear_arrays(u, 3, 2, -1.0, 1.0, np.eye(3))
    with pytest.raises(ValueError, match="uniforms of shape"):
        sample_linear_arrays(u, 3, 2, -1.0, 1.0, "haar")
    with pytest.raises(ValueError, match="finite"):
        sample_linear_arrays(u, 3, 2, -1e308, 1e308, pm)


# the invalid input warns on its way to the ValueError
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_stacked_unitarity_check_names_the_first_bad_index():
    stack = np.stack([np.eye(2, dtype=complex)] * 6).reshape(3, 2, 2, 2)
    assert _ensure_unitaries(stack, "bases") is not None
    for bad in (np.nan, np.inf, 2.0):
        s = stack.copy()
        s[1, 0, 0, 1] = bad
        s[2, 1, 1, 0] = bad
        with pytest.raises(ValueError, match=r"bases \[1, 0\] is not unitary"):
            _ensure_unitaries(s, "bases")
    with pytest.raises(ValueError, match="bases is not unitary: max deviation nan"):
        _ensure_unitaries(np.array([[np.nan, 0], [0, 1]]), "bases")


# the invalid input warns on its way to the ValueError
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_bases_are_not_unitary(bad):
    # NaN compares false with any tolerance; the checks must still fail it.
    for text in (
        f"family linear\nn 1\nd 2\nbasis explicit\nlambda 0 1\n"
        f"basis_col 0 {bad} 0 0 0\nbasis_col 1 0 0 1 0\n",
        f"family product_diagonal\nn 1\nd 2\nbasis explicit\ncoeffs 0 1\n"
        f"site_basis_col 1 0 1 0 0 0\nsite_basis_col 1 1 0 0 {bad} 0\n",
    ):
        with pytest.raises(ValueError, match="not unitary"):
            from_spec_text(text)
    with pytest.raises(ValueError, match="not unitary"):
        SingleSiteOperator.explicit((0.0, 1.0), np.array([[float(bad), 0], [0, 1]]))
