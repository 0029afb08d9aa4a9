import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from qfiwb.gme import (
    amplitude_cap,
    cap_state,
    gme,
    gme_grid_oracle,
    gme_threshold,
    qfi_cap,
    symmetric_weight_qfi,
    symmetrize_amplitudes,
    verify_result2,
    weight_distribution,
)
from qfiwb.hamiltonians import LinearHamiltonian, SingleSiteOperator
from qfiwb.numerics import Rng, haar_unitary, kron_all
from qfiwb.qfi import qfi
from qfiwb.states import PureState, ghz, normalized_state, plus_vector, product_state, sample_haar

gme_module = importlib.import_module("qfiwb.gme")


def w_state(n: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    for i in range(n):
        amps[1 << i] = 1.0
    return normalized_state(n, 2, amps)


# --- alternating optimization ----------------------------------------------------

def test_gme_ghz_is_one():
    est = gme(ghz(3), rng=Rng(0))
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.overlap_sq == pytest.approx(0.5, abs=1e-9)
    assert est.converged


def test_gme_product_state_is_zero():
    est = gme(product_state([plus_vector()] * 4), rng=Rng(0))
    assert est.value == 0.0
    assert not math.copysign(1.0, est.value) < 0  # never -0.0


def test_gme_w_state_literal():
    # Best product overlap of the three-site W state is 4/9.
    est = gme(w_state(3), rng=Rng(0))
    assert est.overlap_sq == pytest.approx(4.0 / 9.0, abs=1e-9)
    assert est.value == pytest.approx(math.log2(9.0 / 4.0), abs=1e-9)


def test_gme_two_sites_matches_schmidt():
    for seed in range(10):
        psi = sample_haar(2, 2, Rng(seed))
        exact = oracles.schmidt_max_overlap(psi.amplitudes, 2)
        assert gme_grid_oracle(psi).best_overlap_sq == pytest.approx(exact, abs=1e-12)
        als = gme(psi, rng=Rng(seed))
        assert als.overlap_sq == pytest.approx(exact, abs=1e-8)


def test_gme_never_underestimates_scan():
    # ALS overlap is a restart maximum, so it must weakly beat a coarse scan.
    for seed in range(3):
        psi = sample_haar(3, 2, Rng(seed))
        est = gme(psi, rng=Rng(seed))
        assert est.overlap_sq >= oracles.product_overlap_scan(psi.amplitudes, 3) - 1e-9


def test_gme_requires_restarts():
    with pytest.raises(ValueError):
        gme(ghz(2), restarts=0)


def serial_reference(state: PureState, restarts: int, seed: int, max_iters: int = 200):
    """oracles.serial_gme on the starts gme draws: restart r >= 1 on substream r."""
    rng = Rng(seed)
    starts = []
    for r in range(1, restarts):
        stream = rng.substream(r)
        starts.append([stream.complex_normal(2) for _ in range(state.n)])
    return oracles.serial_gme(state.amplitudes, state.n, starts, max_iters)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    restarts=st.integers(1, 8),
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["haar", "haar", "ghz", "w", "product"]),
)
@example(n=8, restarts=1, seed=68175, kind="haar")
def test_batched_gme_matches_serial_reference(n, restarts, seed, kind):
    # A sweep whose gain is within rounding of tol can stop one route and
    # not the other; the extra sweep gains less than tol, so overlap_sq
    # agrees to 1e-12 and value to that through the slope of -log2. In the
    # pinned example the serial route stops after 35 sweeps, the batched
    # one after 36, and value differs by 5.3e-12.
    if kind == "haar":
        state = sample_haar(n, 2, Rng(seed))
    else:
        known = {"ghz": ghz, "w": w_state, "product": lambda m: product_state([plus_vector()] * m)}
        state = locally_rotated(known[kind](n), Rng(seed))
    est = gme(state, restarts=restarts, rng=Rng(seed))
    overlap_sq, value, converged, flags = serial_reference(state, restarts, seed)
    assert est.overlap_sq == pytest.approx(overlap_sq, abs=1e-12)
    assert est.value == pytest.approx(value, abs=1e-12 / (overlap_sq * math.log(2.0)))
    assert est.converged == converged
    assert est.unconverged == flags.count(False)


@pytest.mark.parametrize("state", [ghz(4), sample_haar(6, 2, Rng(4))], ids=["ghz4", "haar6"])
@pytest.mark.parametrize("per_block", [1, 3, 5])
def test_gme_restart_blocks_match_one_block(monkeypatch, state, per_block):
    # GHZ restarts 0, 1, 2, 5 and 7 tie exactly at seed 0 with different
    # witnesses, so the tie rule must hold across block borders too.
    whole = gme(state, restarts=8, rng=Rng(0))
    monkeypatch.setattr(importlib.import_module("qfiwb.numerics"), "BLOCK_BYTES", per_block * state.amplitudes.nbytes)
    split = gme(state, restarts=8, rng=Rng(0))
    assert split.overlap_sq == whole.overlap_sq
    assert split.converged == whole.converged
    assert split.unconverged == whole.unconverged
    assert all(np.array_equal(a, b) for a, b in zip(split.witness, whole.witness, strict=True))


def test_gme_counts_unconverged_restarts():
    est = gme(sample_haar(6, 2, Rng(2)), max_iters=1, rng=Rng(2))
    assert est.unconverged == est.restarts == 8
    est = gme(ghz(5), rng=Rng(0))
    assert est.unconverged == 0 and est.converged


def test_gme_monotone_check_raises(monkeypatch):
    # A negative slack makes every site update count as a decrease.
    monkeypatch.setattr(gme_module, "MONOTONE_SLACK", -1.0)
    with pytest.raises(AssertionError, match="decreased the overlap"):
        gme(sample_haar(3, 2, Rng(0)), restarts=2, rng=Rng(0))


# --- certified bracket -------------------------------------------------------------

def test_grid_oracle_brackets_exact_two_site_value():
    for seed in range(3):
        psi = sample_haar(2, 2, Rng(seed))
        truth = -math.log2(oracles.schmidt_max_overlap(psi.amplitudes, 2))
        bracket = gme_grid_oracle(psi)
        assert bracket.gme_lower <= truth + 1e-12
        assert bracket.gme_upper >= truth - 1e-12


def _gram_test_stacks() -> dict[str, np.ndarray]:
    rng = Rng(11)
    random = rng.substream(0).complex_normal((400, 2, 2))
    scale = 10.0 ** (6.0 * rng.substream(1).random(400) - 3.0)
    unitary = np.array([haar_unitary(2, rng.substream(2).substream(i)) for i in range(400)])
    left = rng.substream(3).complex_normal((400, 2))
    right = rng.substream(4).complex_normal((400, 2))
    return {
        "random": random,
        "scaled unitary": scale[:, None, None] * unitary,  # two equal singular values
        "rank 1": left[:, :, None] * right[:, None, :].conj(),
        "near degenerate": unitary + 1e-7 * random,
    }


@pytest.mark.parametrize("kind", ["random", "scaled unitary", "rank 1", "near degenerate"])
def test_oracle_top_singular_value_matches_svd(kind):
    m = _gram_test_stacks()[kind]
    want = np.linalg.svd(m, compute_uv=False)[:, 0] ** 2
    got = gme_module._top_singular_sq(m)
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    for i in range(3):  # the n = 2 bracket is the closed form of its 2x2 tensor
        psi = normalized_state(2, 2, m[i].reshape(-1))
        best = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)[0] ** 2
        assert gme_grid_oracle(psi).best_overlap_sq == pytest.approx(best, rel=1e-14)


def test_oracle_top_singular_value_of_zero_matrix():
    assert gme_module._top_singular_sq(np.zeros((3, 2, 2), dtype=complex)).tolist() == [0.0] * 3


def test_grid_oracle_brackets_ghz3():
    bracket = gme_grid_oracle(ghz(3))
    assert bracket.gme_lower <= 1.0 <= bracket.gme_upper
    assert bracket.gme_upper - bracket.gme_lower < 0.5


def locally_rotated(state: PureState, rng: Rng) -> PureState:
    local = kron_all([haar_unitary(2, rng.substream(i)) for i in range(state.n)])
    return normalized_state(state.n, 2, local @ state.amplitudes)


def known_gme(n: int, kind: str) -> tuple[PureState, float]:
    """A state with a known E_g and that value."""
    if kind == "ghz":
        return ghz(n), 1.0
    if kind == "w":
        return w_state(n), -math.log2((1.0 - 1.0 / n) ** (n - 1))
    return product_state([plus_vector()] * n), 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["ghz", "w", "product"])
def test_grid_oracle_brackets_known_values(n, kind):
    state, truth = known_gme(n, kind)
    bracket = gme_grid_oracle(state)
    assert bracket.gme_lower - 1e-12 <= truth <= bracket.gme_upper + 1e-12


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 4),
    kind=st.sampled_from(["ghz", "w", "product"]),
    seed=st.integers(0, 10**6),
)
def test_grid_oracle_brackets_known_values_under_local_unitaries(n, kind, seed):
    # E_g is invariant under local unitaries, so the known values must stay
    # inside the bracket of every rotated copy.
    state, truth = known_gme(n, kind)
    psi = locally_rotated(state, Rng(seed))
    bracket = gme_grid_oracle(psi)
    assert bracket.gme_lower - 1e-12 <= truth <= bracket.gme_upper + 1e-12
    if n == 2:
        # Nothing is gridded at two sites, so the bracket is exact.
        assert bracket.best_overlap_sq == bracket.overlap_sq_upper
        exact = -math.log2(oracles.schmidt_max_overlap(psi.amplitudes, 2))
        assert bracket.gme_lower == pytest.approx(exact, abs=1e-12)
        assert bracket.gme_upper == pytest.approx(exact, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_grid_oracle_upper_bound_dominates_ascent_and_scan(seed):
    psi = sample_haar(3, 2, Rng(seed))
    upper = gme_grid_oracle(psi).overlap_sq_upper
    assert upper >= gme(psi, rng=Rng(seed)).overlap_sq - 1e-12
    assert upper >= oracles.product_overlap_scan(psi.amplitudes, 3) - 1e-12


def test_grid_oracle_site_cap():
    with pytest.raises(ValueError):
        gme_grid_oracle(sample_haar(5, 2, Rng(0)))


# --- weight symmetrization --------------------------------------------------------

def test_symmetrize_ghz_profile():
    profile, sym = symmetrize_amplitudes(ghz(4))
    root = 1.0 / math.sqrt(2.0)
    assert profile.b[0] == pytest.approx(root, abs=1e-12)
    assert profile.b[4] == pytest.approx(root, abs=1e-12)
    assert np.allclose(profile.b[1:4], 0.0)
    assert np.allclose(sym.amplitudes, ghz(4).amplitudes)


def test_symmetrized_profile_is_reflection_symmetric():
    for seed in range(5):
        psi = sample_haar(5, 2, Rng(seed))
        profile, sym = symmetrize_amplitudes(psi)
        assert np.allclose(profile.b, profile.b[::-1], atol=1e-12)
        assert weight_distribution(profile).sum() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(sym.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_symmetrization_never_lowers_qfi():
    delta = 0.8
    probe_cache: dict[int, LinearHamiltonian] = {}
    for seed in range(60):
        n = 3 + seed % 4
        probe = probe_cache.setdefault(
            n, LinearHamiltonian.from_site(n, SingleSiteOperator.computational((0.0, delta)))
        )
        psi = sample_haar(n, 2, Rng(seed))
        _, sym = symmetrize_amplitudes(psi)
        assert qfi(psi, probe) <= qfi(sym, probe) + 1e-9


def test_weight_qfi_matches_dense_route():
    delta = 0.7
    for seed in range(5):
        psi = sample_haar(4, 2, Rng(seed))
        profile, sym = symmetrize_amplitudes(psi)
        probe = LinearHamiltonian.from_site(4, SingleSiteOperator.computational((0.0, delta)))
        assert symmetric_weight_qfi(profile, delta) == pytest.approx(
            qfi(sym, probe), abs=1e-9
        )


# --- threshold / cap chain ---------------------------------------------------------

def test_threshold_groupings_agree():
    for n in (5, 8, 12, 33, 100):
        for c in (1.2, 1.5, 1.8):
            if n ** (c - 1.0) <= math.log(n):
                continue
            assert gme_threshold(n, c) == pytest.approx(
                oracles.gme_threshold_cap_form(n, c), abs=1e-12
            )


def test_threshold_frozen_values():
    assert gme_threshold(100, 1.5) == pytest.approx(74.46802727710809, abs=1e-12)
    assert gme_threshold(12, 1.5) == pytest.approx(3.797196807771204, abs=1e-12)
    assert gme_threshold(8, 1.5) == pytest.approx(1.3388844272256835, abs=1e-12)
    assert gme_threshold(3, 1.5) < 0.0  # trivially certified regime


def test_threshold_hypothesis_guards():
    with pytest.raises(ValueError):
        gme_threshold(8, 2.3)
    with pytest.raises(ValueError):
        gme_threshold(4, 1.2)  # n^(c-1) below ln n


def test_threshold_always_below_site_count():
    for n in (8, 16, 64):
        assert gme_threshold(n, 1.5) < n


def test_qfi_cap_frozen_value():
    assert qfi_cap(16, 1.5, 1.0) == pytest.approx(384.0, abs=1e-12)
    with pytest.raises(ValueError):
        qfi_cap(16, 2.0, 1.0)


def test_uniform_cap_state_has_binomial_variance():
    # b_k^2 = 2^-n puts Binomial(n, 1/2) weight on k, so QFI = n exactly.
    for n in (4, 9):
        profile, _ = cap_state(n, 1.5, "uniform")
        assert symmetric_weight_qfi(profile, 1.0) == pytest.approx(float(n), abs=1e-9)


def test_cap_states_respect_cap_and_ceiling():
    for c in (1.2, 1.5, 1.8):
        for n in (4, 8, 12):
            cap = amplitude_cap(n, c)
            for kind in ("uniform", "extremal"):
                profile, state = cap_state(n, c, kind)
                assert np.all(profile.b**2 <= cap * (1.0 + 1e-9))
                assert symmetric_weight_qfi(profile, 1.0) <= qfi_cap(n, c, 1.0) + 1e-6
                assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_extremal_cap_state_outweighs_uniform():
    up, _ = cap_state(10, 1.5, "uniform")
    ep, _ = cap_state(10, 1.5, "extremal")
    assert symmetric_weight_qfi(ep, 1.0) > symmetric_weight_qfi(up, 1.0)


def test_cap_state_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cap_state(6, 1.5, "maximal")


# --- end-to-end chain --------------------------------------------------------------

def test_verify_result2_ghz3_trivially_certified():
    report = verify_result2(ghz(3), 1.5, 1.0, rng=Rng(0))
    assert report.threshold < 0.0
    assert report.hypothesis_established
    assert report.implication_holds is True
    assert report.qfi_state == pytest.approx(9.0, abs=1e-9)
    assert report.qfi_state <= report.qfi_cap


def test_verify_result2_oracle_path():
    # n = 4 with a nonnegative threshold exercises the certified-grid branch.
    report = verify_result2(sample_haar(4, 2, Rng(3)), 1.3, 1.0, rng=Rng(3))
    assert report.threshold >= 0.0
    assert report.oracle_used
    assert report.certified_gme >= 0.0


def test_verify_result2_uncertifiable_returns_none():
    report = verify_result2(ghz(8), 1.5, 1.0, rng=Rng(0))
    assert report.threshold > 0.0
    assert not report.oracle_used
    assert not report.hypothesis_established
    assert report.implication_holds is None


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10**6),
    delta=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_verify_result2_weight_qfi_matches_dense_probe(n, seed, delta):
    # The dense diagonal probe is the reference for the weight-variance route.
    state = sample_haar(n, 2, Rng(seed))
    report = verify_result2(state, 1.5, delta, rng=Rng(seed), restarts=1)
    probe = LinearHamiltonian.from_site(n, SingleSiteOperator.computational((0.0, delta)))
    _, sym_state = symmetrize_amplitudes(state)
    assert report.qfi_state == pytest.approx(qfi(state, probe), rel=1e-12)
    assert report.qfi_sym == pytest.approx(qfi(sym_state, probe), rel=1e-12)
