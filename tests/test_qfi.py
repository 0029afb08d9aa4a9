import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from qfiwb.hamiltonians import (
    GraphHamiltonian,
    LinearHamiltonian,
    SingleSiteOperator,
    sample_linear,
    sample_product_diagonal,
)
from qfiwb.numerics import Rng, haar_unitary, random_hermitian, spectral_norm, spectral_spread
from qfiwb.qfi import (
    expected_qfi_haar,
    expected_qfi_haar_diagonals,
    expected_qfi_haar_linear,
    expected_qfi_symmetric,
    expected_qfi_symmetric_levels,
    expected_qfi_symmetric_linear,
    expected_qfi_symmetric_tables,
    global_unitary_transport,
    levy_bound,
    lipschitz_constant,
    max_qfi_all_states,
    max_qfi_symmetric_product,
    max_separable_linear,
    max_separable_tables,
    optimal_separable_reference,
    product_qfi_closed_form,
    qfi,
    qfi_batch,
    qfi_frames,
    separable_reference_diagonals,
    site_variance_term,
    symmetric_product_state,
    uniform_superposition_product,
)
from qfiwb.states import (
    dim_symmetric,
    ghz,
    product_state,
    sample_haar,
    sample_symmetric,
    superposition_state,
)


def test_qfi_matches_eigen_oracle():
    for seed in range(10):
        r = Rng(seed)
        h = random_hermitian(8, r)
        psi = sample_haar(3, 2, r)
        assert qfi(psi, h) == pytest.approx(
            oracles.qfi_eigen(psi.amplitudes, h), abs=1e-10
        )


def test_qfi_matches_fidelity_drop():
    r = Rng(1)
    h = random_hermitian(4, r)
    psi = sample_haar(2, 2, r)
    assert qfi(psi, h) == pytest.approx(
        oracles.qfi_fidelity(psi.amplitudes, h), rel=1e-4
    )


def test_qfi_gauge_invariances():
    r = Rng(3)
    h = random_hermitian(8, r)
    psi = sample_haar(3, 2, r)
    u = haar_unitary(8, r)
    phase = np.exp(1j * 0.7) * psi.amplitudes
    from qfiwb.states import PureState

    assert qfi(PureState(3, 2, phase), h) == pytest.approx(qfi(psi, h), abs=1e-10)
    rotated_state = PureState(3, 2, u @ psi.amplitudes)
    rotated_h = u @ h @ u.conj().T
    assert qfi(rotated_state, rotated_h) == pytest.approx(qfi(psi, h), abs=1e-8)
    shifted = h + 2.5 * np.eye(8)
    assert qfi(psi, shifted) == pytest.approx(qfi(psi, h), abs=1e-9)


def test_qfi_batch_edges():
    h = random_hermitian(4, Rng(5))
    assert qfi_batch(h, np.empty((0, 4), dtype=complex)).shape == (0,)
    with pytest.raises(ValueError, match="dimension mismatch"):
        qfi_batch(h, np.eye(8, dtype=complex)[:2])
    rows = np.eye(4, dtype=complex)[:2].copy()
    rows[1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="norm"):
        qfi_batch(h, rows)


def test_qfi_batch_rejects_nan_rows():
    with pytest.raises(ValueError, match="norm"):
        qfi_batch(np.diag([0.0, 1.0]), np.full((1, 2), np.nan + 0j))


def test_qfi_batch_matches_loop():
    r = Rng(4)
    h = random_hermitian(8, r)
    states = [sample_haar(3, 2, r.substream(t)) for t in range(6)]
    batch = qfi_batch(h, np.stack([s.amplitudes for s in states]))
    from qfiwb.states import PureState

    singles = [qfi(s, h) for s in states]
    assert np.allclose(batch, singles, atol=1e-10)


@pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_qfi_frames_with_a_frame_per_row_is_each_rows_own_qfi(n, d):
    # One pass over rows with their own Hamiltonians equals one-row calls bit for bit.
    r = Rng(31)
    hs = [sample_product_diagonal(n, d, r.substream(t)) for t in range(7)]
    hs += [sample_linear(n, d, r.substream(10 + t)) for t in range(7)]
    states = np.stack([sample_haar(n, d, r.substream(20 + t)).amplitudes for t in range(14)])
    bases = tuple(np.stack([h.site_bases[s] for h in hs]) for s in range(n))
    got = qfi_frames(states, bases, np.stack([h.diagonal() for h in hs]))
    for row, h, value in zip(states, hs, got):
        assert value == qfi_batch(h, row[None, :])[0]
    with pytest.raises(ValueError, match="norm"):
        qfi_frames(2.0 * states, bases, np.stack([h.diagonal() for h in hs]))


@pytest.mark.parametrize("n, d", [(1, 2), (2, 3), (5, 3), (4, 2), (9, 2)])
def test_array_closed_forms_are_their_one_value_versions(n, d):
    # Each array form is its per-Hamiltonian function, bit for bit, row by row.
    r = Rng(37)
    lin = [sample_linear(n, d, r.substream(t), -2.0, 3.0) for t in range(9)]
    tables = np.stack([h.table for h in lin])
    sym = expected_qfi_symmetric_tables(tables)
    means = expected_qfi_symmetric_levels(tables.mean(axis=-2), n)
    spreads = max_separable_tables(tables)
    for i, h in enumerate(lin):
        assert sym[i] == expected_qfi_symmetric(h, n, d)
        assert means[i] == expected_qfi_symmetric_linear(h.symmetrized().site_operator(0), n)
        assert spreads[i] == max_separable_linear(h)
    prod = [sample_product_diagonal(min(n, 4), d, r.substream(50 + t)) for t in range(9)]
    diags = np.stack([h.coeffs for h in prod])
    haar, ref = expected_qfi_haar_diagonals(diags), separable_reference_diagonals(diags)
    for i, h in enumerate(prod):
        assert haar[i] == expected_qfi_haar(h) and ref[i] == optimal_separable_reference(h)


def _random_typed_hamiltonian(family: str, n: int, d: int, r: Rng):
    """A typed Hamiltonian with random, non-computational site bases."""
    if family == "linear":
        return sample_linear(n, d, r, -3.0, 3.0, basis="haar")
    if family == "product":
        return sample_product_diagonal(n, d, r, -3.0, 3.0)
    combos = [
        e for k in range(2, n + 1) for e in itertools.combinations(range(1, n + 1), k)
    ]
    arity = len(combos[int(r.random() * len(combos))])
    pool = [e for e in combos if len(e) == arity]
    edges = [e for e, keep in zip(pool, r.random(len(pool)) < 0.5) if keep] or pool[:1]
    ops = tuple(
        SingleSiteOperator(tuple(r.uniform(-3.0, 3.0, 2)), haar_unitary(2, r.substream(i)))
        for i in range(n)
    )
    return GraphHamiltonian(n, edges, ops)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["linear", "product", "graph"]),
    n=st.integers(1, 6),
    d=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigenframe_matches_dense_oracles(family, n, d, seed):
    if family == "graph":
        n, d = max(n, 2), 2
    r = Rng(seed)
    h = _random_typed_hamiltonian(family, n, d, r)
    hm = h.dense()
    w = np.linalg.eigvalsh(hm)
    norm = float(np.max(np.abs(w)))
    tol = 1e-12 * max(1.0, norm**2)
    rows = np.stack([sample_haar(n, d, r.substream(100 + j)).amplitudes for j in range(3)])
    want = [oracles.qfi_eigen(row, hm) for row in rows]
    assert np.all(np.abs(qfi_batch(h, rows) - want) <= tol)
    dim = d**n
    haar = 4.0 * (np.sum(w**2) / (dim + 1) - np.sum(w) ** 2 / (dim * (dim + 1)))
    assert abs(expected_qfi_haar(h) - haar) <= tol
    assert abs(lipschitz_constant(h) - (2.0 + 2.0 * math.sqrt(2.0)) * norm**2) <= tol
    # The uniform superposition of every site basis is uniform in the eigenframe.
    uniform = 4.0 * (np.sum(w**2) / dim - (np.sum(w) / dim) ** 2)
    assert abs(optimal_separable_reference(h) - uniform) <= tol
    psi = uniform_superposition_product(h)
    assert abs(oracles.qfi_eigen(psi.amplitudes, hm) - uniform) <= tol


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_qfi_between_zero_and_spread_squared(seed):
    r = Rng(seed)
    h = random_hermitian(4, r)
    psi = sample_haar(2, 2, r)
    value = qfi(psi, h)
    assert 0.0 <= value <= spectral_spread(h) ** 2 + 1e-9


# --- baselines ----------------------------------------------------------------

def test_ghz_computational_scaling():
    for n in range(3, 7):
        site = SingleSiteOperator.computational((0.0, 1.0))
        h = LinearHamiltonian.from_site(n, site)
        assert qfi(ghz(n), h) == pytest.approx(n * n, abs=1e-9)


def test_ghz_shifted_basis_scaling():
    for n in range(3, 7):
        site = SingleSiteOperator.plus_minus((0.0, 1.0))
        h = LinearHamiltonian.from_site(n, site)
        assert qfi(ghz(n), h) == pytest.approx(n, abs=1e-9)


def test_ghz_two_sites_is_the_boundary_case():
    # The linear shifted-basis scaling starts at n = 3; at n = 2 the value
    # is 4, not 2, so the formula must not be extrapolated downward.
    site = SingleSiteOperator.plus_minus((0.0, 1.0))
    h = LinearHamiltonian.from_site(2, site)
    assert qfi(ghz(2), h) == pytest.approx(4.0, abs=1e-9)


def test_superposition_state_balances_both_probes():
    for n, want in ((3, 6.1696), (6, 24.0)):
        psi = superposition_state(n)
        q_comp = qfi(psi, LinearHamiltonian.from_site(n, SingleSiteOperator.computational((0.0, 1.0))))
        q_pm = qfi(psi, LinearHamiltonian.from_site(n, SingleSiteOperator.plus_minus((0.0, 1.0))))
        assert q_comp == pytest.approx(q_pm, abs=1e-9)
        assert q_comp == pytest.approx(want, abs=5e-5)


# --- ensemble means -----------------------------------------------------------

def test_haar_mean_formula_against_monte_carlo():
    r = Rng(7)
    h = random_hermitian(8, r)
    closed = expected_qfi_haar(h)
    vals = [qfi(sample_haar(3, 2, r.substream(t)), h) for t in range(4000)]
    mean, se = oracles.mc_mean(vals)
    assert abs(mean - closed) < 4 * se


def test_haar_linear_closed_form_consistent_with_trace_route():
    site = SingleSiteOperator.computational((0.2, 0.9, 1.3))
    for n in (2, 3):
        h = LinearHamiltonian.from_site(n, site)
        assert expected_qfi_haar_linear(site, n) == pytest.approx(
            expected_qfi_haar(h.dense()), abs=1e-10
        )


def test_frozen_equal_row_instances():
    site = SingleSiteOperator.computational((0.0, 1.0))
    assert expected_qfi_haar_linear(site, 2) == pytest.approx(1.6, abs=1e-12)
    assert expected_qfi_symmetric_linear(site, 2) == pytest.approx(2.0, abs=1e-12)


def test_symmetric_mean_matches_projector_oracle():
    # Printed form: 4 (Tr[P H^2 P]/(C+1) - Tr[P H P]^2 / (C (C+1))).
    for n, d, seed in ((2, 2, 0), (3, 2, 1), (2, 3, 2)):
        h = sample_linear(n, d, Rng(seed), basis="haar")
        hm = h.dense()
        pi = oracles.symmetrizer(n, d)
        c = dim_symmetric(n, d)
        tr1 = float(np.real(np.trace(pi @ hm @ pi)))
        tr2 = float(np.real(np.trace(pi @ hm @ hm @ pi)))
        want = 4.0 * (tr2 / (c + 1) - tr1**2 / (c * (c + 1)))
        assert expected_qfi_symmetric(hm, n, d) == pytest.approx(want, abs=1e-10)


def test_symmetric_mean_matches_monte_carlo_for_equal_rows():
    site = SingleSiteOperator.computational((0.0, 1.0))
    n = 3
    h = LinearHamiltonian.from_site(n, site)
    closed = expected_qfi_symmetric_linear(site, n)
    r = Rng(8)
    vals = [qfi(sample_symmetric(n, 2, r.substream(t)), h) for t in range(4000)]
    mean, se = oracles.mc_mean(vals)
    assert abs(mean - closed) < 4 * se


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    d=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    low=st.floats(-50.0, 50.0),
    width=st.floats(0.0, 20.0),
    equal_rows=st.booleans(),
)
def test_symmetric_mean_linear_closed_form_matches_dicke_route(n, d, seed, low, width, equal_rows):
    # The dense Dicke route needs d^n x d^n operators; (n, d) = (6, 4) would
    # take about 1 GB, so the dense side stops at dimension 1024.
    assume(d**n <= 1024)
    h = sample_linear(n, d, Rng(seed), low, low + width)
    if equal_rows:
        h = LinearHamiltonian.from_site(n, h.site_operator(0))
    hm = h.dense()
    tol = 1e-12 * max(1.0, spectral_norm(hm) ** 2)
    closed = expected_qfi_symmetric(h, n, d)
    assert abs(closed - expected_qfi_symmetric(hm, n, d)) <= tol
    if equal_rows:
        assert abs(closed - expected_qfi_symmetric_linear(h.site_operator(0), n)) <= tol
    with pytest.raises(ValueError, match="does not match"):
        expected_qfi_symmetric(h, n + 1, d)


def test_symmetric_linear_two_routes_agree():
    site = SingleSiteOperator.computational((0.1, 0.5, 1.1))
    for n in (2, 3, 4):
        h = LinearHamiltonian.from_site(n, site)
        via_dense = expected_qfi_symmetric(h.dense(), n, 3)
        via_formula = expected_qfi_symmetric_linear(site, n)
        assert via_formula == pytest.approx(via_dense, abs=1e-9)


def test_site_variance_term():
    site = SingleSiteOperator.computational((0.0, 1.0))
    assert site_variance_term(site) == pytest.approx(0.25, abs=1e-15)


# --- concentration ------------------------------------------------------------

def test_lipschitz_constant_frozen():
    h = np.diag([-1.0, 2.0]).astype(complex)
    assert lipschitz_constant(h) == pytest.approx(8.0 + 8.0 * math.sqrt(2.0), abs=1e-12)


def test_levy_bound_zero_hamiltonian_has_zero_tails():
    bound = levy_bound(np.zeros((2, 2)), 16, 0.1)
    assert bound.lipschitz == 0.0
    assert bound.two_sided == 0.0 and bound.one_sided == 0.0


def test_levy_bound_monotonicity_and_vacuity():
    h = np.diag([0.0, 1.0]).astype(complex)
    loose = levy_bound(h, 4, 0.1)
    assert loose.vacuous_two_sided  # tiny dimension cannot give a useful tail
    tight = levy_bound(h, 10**7, 0.5)
    assert not tight.vacuous_two_sided
    assert tight.two_sided < levy_bound(h, 10**6, 0.5).two_sided
    assert tight.two_sided < levy_bound(h, 10**7, 0.4).two_sided
    with pytest.raises(ValueError):
        levy_bound(h, 0, 0.5)
    with pytest.raises(ValueError):
        levy_bound(h, 4, -1.0)


# --- extremal states ----------------------------------------------------------

def test_max_qfi_all_states_value_and_witness():
    r = Rng(9)
    h = random_hermitian(8, r)
    value, state = max_qfi_all_states(h)
    assert value == pytest.approx(spectral_spread(h) ** 2, abs=1e-9)
    assert qfi(state, h) == pytest.approx(value, abs=1e-9)


def _transport_unitary(res):
    """U = phase (I - 2 r r^dag), formed densely as the oracle."""
    r = res.reflector
    return res.phase * (np.eye(r.size) - 2.0 * np.outer(r, r.conj()))


def test_global_unitary_transport_random_pairs():
    for seed in range(20):
        r = Rng(seed)
        h = random_hermitian(8, r)
        psi = sample_haar(3, 2, r)
        res = global_unitary_transport(psi, h)
        assert res.check == pytest.approx(res.target, abs=1e-7)
        assert res.target == pytest.approx(spectral_spread(h) ** 2, abs=1e-9)
        u = _transport_unitary(res)
        assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-10)
        v = np.linalg.eigh(h)[1]
        tau = (v[:, -1] + v[:, 0]) / math.sqrt(2.0)
        assert np.allclose(u.conj().T @ psi.amplitudes, tau, atol=1e-12)


def test_global_unitary_transport_flags_degeneracy():
    res = global_unitary_transport(sample_haar(2, 2, Rng(0)), np.eye(4, dtype=complex))
    assert res.degenerate
    assert res.target == pytest.approx(0.0)


def _lowest_extremes_witness(hm):
    """(v_min + v_max)/sqrt(2) at the lowest eigh indices of each extreme."""
    w, v = np.linalg.eigh(hm)
    i_min = int(np.argmax(w <= w[0] + 1e-12))
    i_max = int(np.argmax(w >= w[-1] - 1e-12))
    return (v[:, i_min] + v[:, i_max]) / math.sqrt(2.0)


@pytest.mark.parametrize("h, want", [
    # both extremes are doubly degenerate; which eigenvectors eigh lists
    # first is up to LAPACK, so the rule is checked against the same eigh
    (np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex),
     _lowest_extremes_witness(np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex))),
    # D = (0, 1, 1, 1, 2, 2, 1, 2, 2) in kron order: the maximum first appears at |11>
    (LinearHamiltonian.from_site(2, SingleSiteOperator.computational((0.0, 1.0, 1.0))),
     (np.eye(9)[0] + np.eye(9)[4]) / math.sqrt(2.0)),
])
def test_degenerate_extremes_give_one_witness(h, want):
    value, witness = max_qfi_all_states(h)
    phase = np.vdot(want, witness.amplitudes)
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert np.allclose(witness.amplitudes, phase * want, atol=1e-12)
    assert qfi(witness, h) == pytest.approx(value, abs=1e-12)
    psi = sample_haar(witness.n, witness.d, Rng(3))
    res = global_unitary_transport(psi, h)
    assert res.degenerate
    u = _transport_unitary(res)
    assert np.allclose(u.conj().T @ psi.amplitudes, witness.amplitudes, atol=1e-12)


def _forbidden(*args, **kwargs):
    raise AssertionError("a dense operator was built")


def _without_dense(call):
    """call() with kron_all raising: every dense() goes through it, imported by name."""
    with pytest.MonkeyPatch.context() as mp:
        for module in ("qfiwb.numerics", "qfiwb.hamiltonians"):
            mp.setattr(sys.modules[module], "kron_all", _forbidden)
        return call()


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["product", "graph"]),
    n=st.integers(1, 5),
    d=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigenframe_extremes_and_symmetric_mean_match_dense_oracles(family, n, d, seed):
    if family == "graph":
        n, d = max(n, 2), 2
    assume(d**n <= 81)
    r = Rng(seed)
    h = _random_typed_hamiltonian(family, n, d, r)
    hm = h.dense()
    w = np.linalg.eigvalsh(hm)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(w))) ** 2)

    pi = oracles.symmetrizer(n, d)
    c = dim_symmetric(n, d)
    tr1, tr2 = np.trace(pi @ hm).real, np.trace(pi @ hm @ hm).real
    want = 4.0 * (tr2 / (c + 1) - tr1**2 / (c * (c + 1)))
    assert abs(_without_dense(lambda: expected_qfi_symmetric(h, n, d)) - want) <= tol

    spread2 = float(w[-1] - w[0]) ** 2
    value, witness = _without_dense(lambda: max_qfi_all_states(h))
    assert abs(value - spread2) <= tol
    # 4 Var = spread^2 only with half the weight in each extremal eigenspace.
    assert abs(oracles.qfi_eigen(witness.amplitudes, hm) - spread2) <= tol

    psi = sample_haar(n, d, r.substream(7))
    res = _without_dense(lambda: global_unitary_transport(psi, h))
    assert abs(res.target - spread2) <= tol and abs(res.check - spread2) <= tol
    u = _transport_unitary(res)
    assert np.allclose(u.conj().T @ u, np.eye(d**n), atol=1e-12)
    assert np.allclose(u.conj().T @ psi.amplitudes, witness.amplitudes, atol=1e-12)


# --- separable references -----------------------------------------------------

def test_separable_references_reject_a_bare_array():
    # a bare array's eigenframe is not a product of site bases
    for ref in (uniform_superposition_product, optimal_separable_reference):
        with pytest.raises(TypeError, match="product eigenframe"):
            ref(np.eye(4))


def test_uniform_superposition_product_achieves_reference():
    for seed in range(5):
        h = sample_product_diagonal(3, 2, Rng(seed))
        psi = uniform_superposition_product(h)
        assert qfi(psi, h) == pytest.approx(optimal_separable_reference(h), abs=1e-9)


def test_haar_mean_never_beats_separable_reference():
    for seed in range(50):
        h = sample_product_diagonal(3, 2, Rng(seed))
        assert expected_qfi_haar(h) <= optimal_separable_reference(h) + 1e-9


def test_max_separable_linear_against_bloch_scan():
    h = sample_linear(2, 2, Rng(11), basis="haar")
    scanned = 4.0 * sum(
        oracles.max_variance_scan(h.site_operator(i).matrix) for i in range(2)
    )
    exact = max_separable_linear(h)
    assert scanned <= exact + 1e-9
    assert exact == pytest.approx(scanned, rel=1e-3)


def test_max_separable_linear_witness_state():
    h = sample_linear(3, 2, Rng(12), basis="haar")
    sites = []
    for i in range(3):
        op = h.site_operator(i)
        w, v = np.linalg.eigh(op.matrix)
        sites.append((v[:, 0] + v[:, -1]) / math.sqrt(2.0))
    psi = product_state(sites)
    assert qfi(psi, h) == pytest.approx(max_separable_linear(h), abs=1e-9)


# --- graph closed form ----------------------------------------------------------

def _ring4() -> GraphHamiltonian:
    return GraphHamiltonian.shared(
        n=4, hyperedges=[(1, 2), (2, 3), (3, 4), (4, 1)], levels=(0.5, 1.5)
    )


def test_product_closed_form_matches_dense():
    h = _ring4()
    for p in (0.1, 0.35, 0.6, 0.9):
        dense_value = qfi(symmetric_product_state(h, p), h)
        closed = product_qfi_closed_form(4, 8, 0.5, 1.5, p)
        assert closed == pytest.approx(dense_value, abs=1e-8)


def test_product_scan_finds_the_dense_maximum():
    h = _ring4()
    scan = max_qfi_symmetric_product(4, 8, 0.5, 1.5)
    ps = np.linspace(0.0, 1.0, 2001)
    dense_best = max(qfi(symmetric_product_state(h, p), h) for p in ps)
    assert scan.value == pytest.approx(dense_best, abs=1e-6)
    assert 0.0 <= scan.p <= 1.0
    at_scan = product_qfi_closed_form(scan.s, scan.connected, 0.5, 1.5, scan.p)
    assert scan.value == pytest.approx(at_scan, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(1, 40),
    frac=st.floats(0.0, 1.0),
    lam0=st.floats(0.01, 5.0),
    gap=st.floats(1e-3, 5.0),
)
# lam0 >> gap: the unfactored m2^2 - mu^4 cancelled and lost to the grid.
@example(s=3, frac=0.0, lam0=4.056478189187703, gap=0.001)
def test_exact_product_optimum_beats_the_grid(s, frac, lam0, gap):
    connected = int(frac * (s * s - s))
    lam1 = lam0 + gap
    best = max_qfi_symmetric_product(s, connected, lam0, lam1)
    grid = max(
        product_qfi_closed_form(s, connected, lam0, lam1, p)
        for p in np.linspace(0.0, 1.0, 2001)
    )
    assert 0.0 <= best.p <= 1.0
    assert best.value == product_qfi_closed_form(s, connected, lam0, lam1, best.p)
    assert best.value >= grid - 1e-12 * max(1.0, best.value)
