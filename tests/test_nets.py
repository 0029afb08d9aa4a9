"""Covering-net constructions, parameter choices, and tail-bound calculator."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import sample_linear_banded, sample_product_banded
from qfiwb import numerics
from qfiwb.hamiltonians import LinearHamiltonian, from_spec_text
from qfiwb.nets import (
    BoundParams,
    CoefficientGrid,
    LinearFamilyNet,
    build_linear_net,
    coefficient_grid,
    epsilon_choices,
    net_cover_audit,
    net_size_bound,
    linear_banded_words,
    product_banded_words,
    property_audit,
    pure_state_net_qubit,
    sample_linear_banded_arrays,
    sample_product_banded_arrays,
    theorem_bound,
    trace_distance_qubit,
)
from qfiwb.numerics import DomainError, Rng
from qfiwb.qfi import expected_qfi_symmetric_linear, max_separable_linear, qfi
from qfiwb.states import dicke_basis, sample_haar, sample_symmetric

SQRT2 = math.sqrt(2.0)


def audit_params(eps: float, n: int = 2) -> BoundParams:
    """Parameter block used by the covering and deviation audits at d = 2."""
    return BoundParams(
        n=n, d=2, s_coff=float(2 * n), s_basis=1.0, A=1.0, B=2.0,
        a=1.0, norm_A0=0.0, c=1.0, eps=eps,
    )


# --- coefficient grid ---------------------------------------------------------

def test_coefficient_grid_quarter_step():
    grid = coefficient_grid(1.0, 2.0, 0.25)
    assert grid.count == 6
    assert np.array_equal(np.sort(grid.points), [-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    xs = np.linspace(1.0, 2.0, 4001)
    xs = np.concatenate([xs, -xs])
    assert np.abs(xs - grid.nearest(xs)).max() <= 0.25 + 1e-12
    # Midpoints between rungs realize the radius exactly.
    assert abs(1.25 - grid.nearest(1.25)) == pytest.approx(0.25, abs=1e-15)
    assert grid.nearest(1.1) == 1.0
    assert grid.nearest(-1.9) == -2.0


def test_coefficient_grid_lowest_rung_may_undershoot():
    grid = coefficient_grid(1.0, 2.0, 1.0)
    assert grid.count == 4
    assert set(np.abs(grid.points)) == {0.0, 2.0}
    # 0.0 lies outside [A, B] but still covers the bottom of the band.
    dist = abs(1.0 - grid.nearest(1.0))
    assert dist == pytest.approx(1.0) and dist <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([
        (1.0, 2.0, 0.25), (1.0, 2.0, 1.0), (1.0, 2.0, 0.3), (1.0, 2.0, 0.05),
        (0.5, 3.7, 0.2), (0.2, 10.0, 0.037), (0.2, 10.0, 0.01), (1.0, 2.0, 7.0),
    ]),
    xs=st.lists(st.floats(-1e3, 1e3), max_size=40),
)
def test_coefficient_grid_nearest_matches_a_scan(spec, xs):
    grid = coefficient_grid(*spec)
    pts = grid.points
    mids = (pts[:-1] + pts[1:]) / 2.0
    probe = np.concatenate([
        xs, pts, mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf), [0.0, -0.0],
    ])
    scan = pts[np.argmin(np.abs(probe[:, None] - pts), axis=-1)]
    assert np.array_equal(grid.nearest(probe).view(np.int64), scan.view(np.int64))
    assert np.array_equal(grid.nearest(probe.reshape(-1, 1)).ravel(), scan)


def test_coefficient_grid_count_bound():
    for A, B in ((1.0, 2.0), (0.5, 3.7), (0.2, 10.0)):
        for eps_c in (0.01, 0.037, 0.2, 0.5, 1.0):
            grid = coefficient_grid(A, B, eps_c)
            assert grid.count <= (B - A) / eps_c + 4.0
            assert grid.count % 2 == 0


def test_coefficient_grid_validation():
    with pytest.raises(ValueError):
        coefficient_grid(2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        coefficient_grid(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        coefficient_grid(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        CoefficientGrid(1.0, 2.0, 0.1, np.array([]))
    with pytest.raises(ValueError):
        CoefficientGrid(1.0, 2.0, 0.1, np.ones((2, 2)))
    for pts in ([2.0, 1.0, -2.0], [1.0, 2.0, -1.0, -2.0], [2.0, 1.0, -2.0, -1.5]):
        with pytest.raises(ValueError, match="mirror"):
            CoefficientGrid(1.0, 2.0, 0.5, np.array(pts))


# --- qubit pure-state net -----------------------------------------------------

def test_trace_distance_qubit():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    plus = np.array([1.0, 1.0]) / SQRT2
    assert trace_distance_qubit(e0, e1) == 1.0
    assert trace_distance_qubit(e0, e0) == 0.0
    assert trace_distance_qubit(e0, plus) == pytest.approx(1.0 / SQRT2, rel=1e-12)
    assert trace_distance_qubit(e0, np.exp(0.7j) * e0) == pytest.approx(0.0, abs=1e-8)


def test_pure_state_net_half():
    net = pure_state_net_qubit(0.5)
    assert net.count == 18
    assert net.count <= (5.0 / 0.5) ** 4
    frames = net.frame_at(np.arange(net.count))
    assert frames.shape == (18, 2, 2)
    eye = np.eye(2)
    for i in range(net.count):
        f = frames[i]
        assert np.allclose(f @ f.conj().T, eye, atol=1e-12)
        assert np.allclose(f[:, 0], net.state_at(i))


def test_net_self_cover():
    net = pure_state_net_qubit(0.5)
    for i in range(net.count):
        j = net.nearest_index(net.state_at(i))
        assert j == i
        assert trace_distance_qubit(net.state_at(i), net.state_at(j)) <= 1e-7


def test_net_probe_covering_radius():
    net = pure_state_net_qubit(0.5)
    worst = oracles.net_probe(net, 2000, Rng(7))
    assert 0.15 < worst <= 0.5
    assert worst == 0.3083320943320933  # the per-stream draw's value, bit for bit
    assert oracles.net_probe(net, 2000, Rng(7)) == worst


def test_pure_state_net_validation():
    for eps_p in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            pure_state_net_qubit(eps_p)
    net = pure_state_net_qubit(0.5)
    with pytest.raises(IndexError):
        net.state_at(-1)
    with pytest.raises(IndexError):
        net.state_at(net.count)


# --- parameter choices --------------------------------------------------------

def unit_params(eps: float = 1.0) -> BoundParams:
    return BoundParams(
        n=1, d=1, s_coff=1.0, s_basis=1.0, A=0.5, B=1.0,
        a=1.0, norm_A0=0.0, c=1.0, eps=eps,
    )


def test_epsilon_choices_unit_example():
    eps_p, eps_c = epsilon_choices(1.0, unit_params(), "prop7", prop6_c=1.0)
    assert eps_p == pytest.approx(1.0 / (2.0 * SQRT2), rel=1e-15)
    assert eps_c == pytest.approx(0.5, rel=1e-15)
    # Both radii are linear in the operator-error budget.
    half_p, half_c = epsilon_choices(0.5, unit_params(), "prop7", prop6_c=1.0)
    assert half_p == pytest.approx(eps_p / 2.0, rel=1e-15)
    assert half_c == pytest.approx(eps_c / 2.0, rel=1e-15)


def test_epsilon_choices_deviation_modes():
    p = unit_params()
    p1, c1 = epsilon_choices(1.0, p, "result1", prop6_c=1.0)
    p3, c3 = epsilon_choices(1.0, p, "result3", prop6_c=1.0)
    # Shared state-net radius, but the coefficient denominators differ:
    # result1 carries 4*B*n*(n+d)/d = 8, result3 carries 4*base*s_coff*a = 4,
    # both on top of the common 6.
    assert p1 == p3 == pytest.approx(1.0 / (8.0 * (1.0 + 2.0 * SQRT2)), rel=1e-15)
    assert c1 == pytest.approx(1.0 / 112.0, rel=1e-15)
    assert c3 == pytest.approx(1.0 / 80.0, rel=1e-15)


def test_epsilon_choices_validation():
    p = unit_params()
    with pytest.raises(ValueError):
        epsilon_choices(0.0, p, "prop7")
    with pytest.raises(ValueError):
        epsilon_choices(1.0, p, "prop7", prop6_c=0.0)
    with pytest.raises(ValueError):
        epsilon_choices(1.0, p, "lemma5")


def test_bound_params_validation():
    good = unit_params()
    assert good.a_provenance == "measured"
    with pytest.raises(ValueError):
        BoundParams(0, 1, 1.0, 1.0, 0.5, 1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoundParams(1, 0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoundParams(1, 1, 0.0, 1.0, 0.5, 1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoundParams(1, 1, 1.0, 1.0, 1.0, 0.5, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoundParams(1, 1, 1.0, 1.0, 0.5, 1.0, 1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoundParams(1, 1, 1.0, 1.0, 0.5, 1.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BoundParams(1, 1, 1.0, 1.0, 0.5, 1.0, 1.0, 0.0, 1.0, 0.0)


# --- size and tail bounds -----------------------------------------------------

def test_net_size_bound_dominates_construction():
    params = audit_params(0.5)
    for mode in ("result1", "result3"):
        net = build_linear_net(params, mode)
        # log of the element count: a basis frame times one rung per site and level
        log_count = net.n * net.d * math.log(net.grid.count) + math.log(net.basis_net.count)
        assert log_count <= net_size_bound(params, mode) + 1e-9
    with pytest.raises(ValueError):
        net_size_bound(params, "prop7")


def test_net_size_bound_stays_finite_below_dbl_min():
    # 5/eps_p and (B - A)/eps_c overflow here; their logs do not.
    for mode in ("result1", "result3"):
        sizes = [net_size_bound(audit_params(eps, n=4), mode) for eps in (1e-3, 1e-300, 1e-306)]
        assert all(math.isfinite(x) for x in sizes)
        assert sizes[0] < sizes[1] < sizes[2]
        with pytest.raises(ValueError, match="eps"):
            net_size_bound(audit_params(1e-320, n=4), mode)


def test_theorem_bound_saturation_and_guards():
    p = unit_params()  # c = eps = 1, so the deviation margin closes to zero
    tb = theorem_bound(p, "thm7")
    assert tb.log_exponential == 0.0
    assert tb.log_total == tb.log_prefactor
    assert tb.log_prefactor > math.log(2.0)
    assert tb.vacuous
    pushed = theorem_bound(p, "thm7", d_min=0.5)
    assert pushed.log_exponential < 0.0
    with pytest.raises(ValueError):
        theorem_bound(p, "thm7", d_min=-0.1)
    with pytest.raises(ValueError):
        theorem_bound(p, "thm8")


def test_theorem_bound_dimension_monotonicity():
    def at(n: int, c: float):
        return BoundParams(
            n=n, d=2, s_coff=4.0, s_basis=1.0, A=1.0, B=2.0,
            a=1.0, norm_A0=0.0, c=c, eps=0.5,
        )

    # Larger margin, same dimension: steeper tail.
    assert (
        theorem_bound(at(4, 3.0), "thm9").log_exponential
        < theorem_bound(at(4, 1.5), "thm9").log_exponential
    )
    # With the Lipschitz scale held fixed, the exponent is proportional to
    # the concentration dimension: d^n gives exactly x16 from n=4 to n=8.
    e9 = [theorem_bound(at(n, 1.5), "thm9").log_exponential for n in (4, 8)]
    assert e9[1] == pytest.approx(16.0 * e9[0], rel=1e-12)
    assert e9[1] < e9[0] < 0.0


def test_theorem_bound_huge_dimension_raises_domain_error():
    # 2^1100 exceeds every double, so the true exponent (about -1e331) has
    # no float value; the bound rejects the parameters instead of saying -inf.
    p = BoundParams(
        n=1100, d=2, s_coff=1.0, s_basis=1.0, A=1.0, B=2.0,
        a=1.0, norm_A0=0.0, c=2.0, eps=0.5,
    )
    with pytest.raises(DomainError, match="thm9 bound at n = 1100, d = 2 is not a finite double"):
        theorem_bound(p, "thm9")
    # The symmetric count at the same n stays tiny, so thm7 remains finite.
    assert math.isfinite(theorem_bound(p, "thm7").log_total)


def test_thm7_sweep_turns_over_at_demo_choices():
    totals = []
    ns = list(range(4, 65))
    for n in ns:
        params = BoundParams(
            n=n, d=14, s_coff=float(14 * n), s_basis=1.0, A=1.0, B=2.0,
            a=1.0, norm_A0=0.0, c=40.0, eps=0.5,
        )
        totals.append(theorem_bound(params, "thm7").log_total)
    peak = max(range(len(ns)), key=lambda i: totals[i])
    assert ns[peak] == 44
    for i in range(peak, len(ns) - 1):
        assert totals[i] > totals[i + 1]
    assert totals[-1] < 0.0
    assert -7822.0 < totals[-1] < -7820.0


def test_thm9_sweep_turns_over_at_demo_choices():
    totals = []
    ns = list(range(4, 65))
    for n in ns:
        params = BoundParams(
            n=n, d=2, s_coff=4.0, s_basis=float(n), A=1.0, B=2.0,
            a=float(n), norm_A0=1.0, c=2.0, eps=0.5,
            a_provenance="linear-growth model",
        )
        totals.append(theorem_bound(params, "thm9").log_total)
    peak = max(range(len(ns)), key=lambda i: totals[i])
    # The demo sweep steps n by 4 and lands on 56; per-integer the top is 57.
    assert ns[peak] == 57
    for i in range(peak, len(ns) - 1):
        assert totals[i] > totals[i + 1]
    assert totals[-1] < 0.0


# --- constructed nets and audits ----------------------------------------------

def test_build_linear_net_requires_qubits():
    params = BoundParams(
        n=2, d=3, s_coff=6.0, s_basis=1.0, A=1.0, B=2.0,
        a=1.0, norm_A0=0.0, c=1.0, eps=0.5,
    )
    with pytest.raises(ValueError, match="d = 2"):
        build_linear_net(params, "prop7")


def test_linear_net_nearest_is_exact_on_elements():
    net = build_linear_net(audit_params(0.5), "prop7")
    frame = net.basis_net.frame_at(net.basis_net.count // 3)
    pts = net.grid.points
    table = np.array([[pts[0], pts[2]], [pts[5], pts[1]]])
    rep, _, dist = net.nearest(table, frame)
    assert dist <= 1e-12
    assert np.array_equal(rep, table)
    other = sample_linear_banded(3, 2, Rng(0), 1.0, 2.0)
    with pytest.raises(ValueError, match="family mismatch"):
        net.nearest(other.table, other.basis)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    eps_p=st.sampled_from([0.05, 0.2, 0.5]),
    eps_c=st.sampled_from([0.05, 0.3, 1.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_linear_net_nearest_distance_matches_dense_oracle(n, eps_p, eps_c, seed):
    net = LinearFamilyNet(
        n, 2, coefficient_grid(1.0, 2.0, eps_c), pure_state_net_qubit(eps_p)
    )
    h = sample_linear_banded(n, 2, Rng(seed), 1.0, 2.0)
    rep, frame, dist = net.nearest(h.table, h.basis)
    diff = oracles.linear_dense(h.table, h.basis) - oracles.linear_dense(rep, frame)
    exact = float(np.max(np.abs(np.linalg.eigvalsh(diff))))
    assert dist == pytest.approx(exact, rel=1e-12)


def test_sample_linear_banded():
    h = sample_linear_banded(3, 2, Rng(5), 1.0, 2.0)
    assert h.table.shape == (3, 2)
    mags = np.abs(h.table)
    assert np.all((1.0 <= mags) & (mags <= 2.0))
    assert np.allclose(h.basis @ h.basis.conj().T, np.eye(2), atol=1e-12)
    again = sample_linear_banded(3, 2, Rng(5), 1.0, 2.0)
    assert np.array_equal(h.table, again.table)
    with pytest.raises(ValueError):
        sample_linear_banded(3, 2, Rng(5), 2.0, 1.0)
    with pytest.raises(ValueError):
        sample_linear_banded(3, 2, Rng(5), 0.0, 1.0)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_banded_array_samplers_match_per_trial_samplers(n, d):
    # Row t is the per-trial sampler on substream(t), bit for bit, and reads
    # exactly its words: the stream's next word agrees.
    rng = Rng(17).substream(1)
    trials = range(0, 24, 3)
    words = linear_banded_words(n, d)
    u = rng.substream_uniforms(trials, words + 1)
    tables, bases = sample_linear_banded_arrays(u[:, :words], n, d, 1.0, 2.0)
    for i, t in enumerate(trials):
        r = rng.substream(t)
        h = sample_linear_banded(n, d, r, 1.0, 2.0)
        assert _same_bits(h.table, tables[i]) and _same_bits(h.basis, bases[i])
        assert _same_bits(r.random(1), u[i, words:])
    words = product_banded_words(n, d)
    u = rng.substream_uniforms(trials, words + 1)
    coeffs, site_bases = sample_product_banded_arrays(u[:, :words], n, d, 0.5, 1.5)
    for i, t in enumerate(trials):
        r = rng.substream(t)
        h = sample_product_banded(n, d, r, 0.5, 1.5)
        assert _same_bits(h.coeffs, coeffs[i])
        assert all(_same_bits(b, site_bases[i, s]) for s, b in enumerate(h.site_bases))
        assert _same_bits(r.random(1), u[i, words:])
    with pytest.raises(ValueError, match="B > A > 0"):
        sample_product_banded_arrays(u[:, :words], n, d, 1.5, 0.5)


@pytest.mark.parametrize("which", ["cover", "prop8", "prop9"])
def test_property_audit_counterexamples_are_the_failing_trials(which):
    # Negative control: a coarse net fails many trials; each failure's
    # counterexample parses back to exactly that trial's draw.
    coarse = LinearFamilyNet(2, 2, coefficient_grid(1.0, 2.0, 0.5), pure_state_net_qubit(0.3))
    eps = 0.05 if which == "cover" else 0.5
    rng = Rng(13)
    report = property_audit(coarse, eps, 120, which, rng)
    failing = np.flatnonzero(report.values > eps)
    assert report.violations == len(report.counterexamples) == len(failing) > 10
    for t, text in zip(failing, report.counterexamples):
        h = from_spec_text(text)
        drawn = sample_linear_banded(2, 2, rng.substream(int(t)), 1.0, 2.0)
        assert np.array_equal(h.table, drawn.table) and np.array_equal(h.basis, drawn.basis)


def test_property_audit_values_match_one_trial_computations():
    # The one-pass audit equals the per-trial computation bit for bit.
    for which, mode in (("prop8", "result1"), ("prop9", "result3")):
        for n in (1, 2, 3):
            net = build_linear_net(audit_params(2.0, n), mode)
            rng = Rng(5)
            report = property_audit(net, 2.0, 30, which, rng)
            for t, value in enumerate(report.values):
                r = rng.substream(t)
                h = sample_linear_banded(n, 2, r, 1.0, 2.0)
                if which == "prop8":
                    psi = sample_symmetric(n, 2, r, dicke_basis(n, 2))
                else:
                    psi = sample_haar(n, 2, r)
                rep, frame, _ = net.nearest(h.table, h.basis)
                gaps = []
                for g in (h, LinearHamiltonian(rep, frame)):
                    if which == "prop8":
                        ref = expected_qfi_symmetric_linear(g.symmetrized().site_operator(0), n)
                    else:
                        ref = max_separable_linear(g)
                    gaps.append(qfi(psi, g) - ref)
                assert value == abs(gaps[0] - gaps[1])


@pytest.mark.parametrize("which, mode", [("prop8", "result1"), ("prop9", "result3")])
def test_property_audit_blocks_match_one_block(monkeypatch, which, mode):
    # Blocks of 7 states at n = 3 (30 trials: 7, 7, 7, 7, 2) give the one-block values bit for bit.
    net = build_linear_net(audit_params(2.0, 3), mode)
    whole = property_audit(net, 2.0, 30, which, Rng(5)).values
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 7 * 16 * 2**3)
    assert property_audit(net, 2.0, 30, which, Rng(5)).values.tobytes() == whole.tobytes()


def test_net_cover_audit_at_printed_choices():
    params = audit_params(0.5)
    net = build_linear_net(params, "prop7")
    report = net_cover_audit(net, 0.5, 200, Rng(11))
    assert report.trials == 200
    assert report.violations == 0
    assert report.counterexamples == ()
    assert report.max_value <= 0.5
    assert report.values.shape == (200,)
    assert np.all(report.values <= 0.5)
    repeat = net_cover_audit(net, 0.5, 200, Rng(11))
    assert repeat.max_value == report.max_value


def test_net_cover_audit_flags_a_coarse_net():
    coarse = LinearFamilyNet(
        2, 2, coefficient_grid(1.0, 2.0, 0.5), pure_state_net_qubit(0.3)
    )
    report = net_cover_audit(coarse, 0.5, 200, Rng(11))
    assert report.violations > 100
    assert report.max_value > 0.5
    assert len(report.counterexamples) == report.violations
    # Counterexamples are serialized in the interchange format.
    h = from_spec_text(report.counterexamples[0])
    assert isinstance(h, LinearHamiltonian)
    with pytest.raises(ValueError):
        net_cover_audit(coarse, 0.0, 10, Rng(0))


def test_property_audits_at_unit_budget():
    for which, mode in (("prop8", "result1"), ("prop9", "result3")):
        net = build_linear_net(audit_params(1.0), mode)
        report = property_audit(net, 1.0, 100, which, Rng(3))
        assert report.which == which
        assert report.trials == 100
        assert report.violations == 0
        assert report.max_value <= 1.0
        assert report.counterexamples == ()


def test_property_audit_deviation_shrinks_with_budget():
    for which, mode in (("prop8", "result1"), ("prop9", "result3")):
        means = []
        for eps in (8.0, 2.0, 0.5):
            net = build_linear_net(audit_params(eps), mode)
            report = property_audit(net, eps, 100, which, Rng(9))
            means.append(math.fsum(report.values) / 100.0)
        assert means[0] > means[1] > means[2]


def test_audits_of_no_trials_are_empty():
    for which, mode in (("cover", "prop7"), ("prop8", "result1"), ("prop9", "result3")):
        net = build_linear_net(audit_params(1.0), mode)
        report = property_audit(net, 1.0, 0, which, Rng(3))
        assert report.trials == 0 and report.max_value == 0.0
        assert report.violations == 0 and report.counterexamples == ()
        assert report.values.shape == (0,)
    assert oracles.net_probe(pure_state_net_qubit(0.5), 0, Rng(7)) == 0.0


def test_property_audit_validation():
    net = build_linear_net(audit_params(1.0), "result1")
    with pytest.raises(ValueError):
        property_audit(net, 1.0, 10, "prop6", Rng(0))
    with pytest.raises(ValueError):
        property_audit(net, -1.0, 10, "prop8", Rng(0))


def test_audits_build_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a net audit built a dense operator")

    monkeypatch.setattr(LinearHamiltonian, "dense", refuse)
    # Patch every qfiwb namespace that binds these, as `from ... import` copies them.
    for original in (numerics.spectral_norm, numerics.kron_all):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "qfiwb" or name.startswith("qfiwb.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
    for which, mode in (("prop8", "result1"), ("prop9", "result3"), ("cover", "prop7")):
        net = build_linear_net(audit_params(1.0), mode)
        report = property_audit(net, 1.0, 20, which, Rng(3))
        assert report.which == which and report.violations == 0
