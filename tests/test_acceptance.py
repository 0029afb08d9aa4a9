"""End-to-end acceptance checks.

Each test covers one numbered criterion and emits a single PASS/FAIL line
(run with -s to see them on success). Tolerances and trial counts are stated
inline; stated runtime budgets are enforced with a monotonic clock.
"""

import math
import time

import numpy as np

import oracles
from qfiwb.gme import cap_state, qfi_cap, symmetric_weight_qfi, symmetrize_amplitudes
from qfiwb.graphs import (
    census_bruteforce,
    census_by_degrees,
    degree_vector,
    preset_census,
    preset_graph,
    product_qfi_at,
    sample_graph,
    to_hamiltonian,
)
from qfiwb.hamiltonians import (
    LinearHamiltonian,
    SingleSiteOperator,
    sample_linear,
    sample_product_diagonal,
)
from qfiwb.nets import (
    BoundParams,
    build_linear_net,
    coefficient_grid,
    epsilon_choices,
    net_cover_audit,
    property_audit,
    theorem_bound,
)
from qfiwb.numerics import (
    Rng,
    haar_unitary,
    kron_all,
    random_hermitian,
    spectral_spread,
)
from qfiwb.qfi import (
    expected_qfi_haar,
    expected_qfi_haar_linear,
    expected_qfi_symmetric,
    expected_qfi_symmetric_linear,
    global_unitary_transport,
    levy_bound,
    optimal_separable_reference,
    qfi,
    qfi_batch,
    symmetric_product_state,
)
from qfiwb.states import dicke_basis, ghz, sample_haar


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_ghz_baselines():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(3, 9):
        state = ghz(n)
        comp = LinearHamiltonian.from_site(
            n, SingleSiteOperator.computational((0.0, 1.0))
        )
        shifted = LinearHamiltonian.from_site(
            n, SingleSiteOperator.plus_minus((0.0, 1.0))
        )
        worst = max(
            worst,
            abs(qfi(state, comp) - float(n * n)),
            abs(qfi(state, shifted) - float(n)),
        )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    report(
        1,
        ok,
        f"GHZ probes n=3..8: worst |dev| {worst:.2e} (tol 1e-9), "
        f"{elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_ensemble_means():
    t0 = time.monotonic()
    trials = 100_000
    worst_z = 0.0
    worst_route = 0.0
    for idx, (n, d) in enumerate(((2, 2), (3, 2), (4, 2), (2, 3))):
        rng = Rng(41_000 + idx)
        site = SingleSiteOperator(
            tuple(rng.uniform(-1.0, 1.0, d)), haar_unitary(d, rng)
        )
        h = LinearHamiltonian.from_site(n, site)
        hm = h.dense()
        basis = dicke_basis(n, d)

        exact_haar = expected_qfi_haar(hm)
        worst_route = max(
            worst_route, abs(exact_haar - expected_qfi_haar_linear(site, n))
        )
        z = rng.complex_normal((trials, d**n))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        vals = qfi_batch(hm, z)
        se = float(np.std(vals, ddof=1)) / math.sqrt(trials)
        worst_z = max(worst_z, abs(float(np.mean(vals)) - exact_haar) / se)

        exact_sym = expected_qfi_symmetric(hm, n, d, basis)
        worst_route = max(
            worst_route, abs(exact_sym - expected_qfi_symmetric_linear(site, n))
        )
        c = rng.complex_normal((trials, basis.size))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        vals = qfi_batch(hm, c @ oracles.dicke_matrix(n, d).T)
        se = float(np.std(vals, ddof=1)) / math.sqrt(trials)
        worst_z = max(worst_z, abs(float(np.mean(vals)) - exact_sym) / se)

    site01 = SingleSiteOperator.computational((0.0, 1.0))
    frozen = max(
        abs(expected_qfi_haar_linear(site01, 2) - 1.6),
        abs(expected_qfi_symmetric_linear(site01, 2) - 2.0),
    )
    elapsed = time.monotonic() - t0
    ok = (
        worst_z <= 3.0
        and worst_route <= 1e-10
        and frozen <= 1e-12
        and elapsed < 120.0
    )
    report(
        2,
        ok,
        f"10^5-draw means at (2,2),(3,2),(4,2),(2,3): worst |z| {worst_z:.2f} "
        f"(<= 3 SE), route split {worst_route:.1e}, frozen 1.6/2.0 dev "
        f"{frozen:.1e} (tol 1e-12), {elapsed:.0f}s (< 120s)",
    )


def test_criterion_3_separable_reference_dominates():
    rng = Rng(43_000)
    violations = 0
    worst = -math.inf
    for t in range(200):
        n = 2 + t % 3
        pd = sample_product_diagonal(n, 2, rng.substream(t))
        gap = expected_qfi_haar(pd) - optimal_separable_reference(pd)
        worst = max(worst, gap)
        if gap > 1e-9:
            violations += 1
    ok = violations == 0
    report(
        3,
        ok,
        f"200 locally diagonalizable probes (n<=4, d=2): "
        f"max E_Haar - reference {worst:.2e} (tol 1e-9), {violations} violations",
    )


def test_criterion_4_symmetrized_linear_and_eigenrelation():
    rng = Rng(44_000)
    configs = [(n, d) for d in (2, 3) for n in (2, 3, 4, 5)]
    bases = {}
    projectors = {}
    violations = 0
    worst_gap = -math.inf
    worst_resid = 0.0
    for t in range(200):
        n, d = configs[t % len(configs)]
        if (n, d) not in bases:
            bases[n, d] = dicke_basis(n, d)
            projectors[n, d] = oracles.symmetrizer(n, d)
        basis = bases[n, d]
        h = sample_linear(n, d, rng.substream(t))

        gap = expected_qfi_symmetric_linear(
            h.symmetrized().site_operator(0), n
        ) - expected_qfi_symmetric(h, n, d, basis)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-9:
            violations += 1

        php = projectors[n, d] @ h.dense() @ projectors[n, d]
        col_means = h.table.mean(axis=0)
        # Dicke states over the shared eigenbasis: rotate the computational
        # frame by basis^(x n).
        rotated = kron_all([h.basis] * n) @ oracles.dicke_matrix(n, d)
        for col, comp in enumerate(basis.compositions):
            vec = rotated[:, col]
            eig = float(np.dot(np.asarray(comp, dtype=float), col_means))
            resid = float(np.max(np.abs(php @ vec - eig * vec)))
            worst_resid = max(worst_resid, resid)
    ok = violations == 0 and worst_resid <= 1e-10
    report(
        4,
        ok,
        f"200 linear probes (n<=5, d<=3): max E_sym(site-avg) - E_sym(linear) "
        f"{worst_gap:.2e} (tol 1e-9), {violations} violations; "
        f"eigenrelation residual {worst_resid:.2e} (tol 1e-10)",
    )


def test_criterion_5_transport_reaches_spread():
    rng = Rng(45_000)
    worst = 0.0
    for t in range(100):
        n = 1 + t % 3
        r = rng.substream(t)
        psi = sample_haar(n, 2, r)
        hm = random_hermitian(2**n, r)
        res = global_unitary_transport(psi, hm)
        worst = max(
            worst,
            abs(res.check - res.target),
            abs(res.target - spectral_spread(hm) ** 2),
        )
    ok = worst <= 1e-7
    report(
        5,
        ok,
        f"100 transported pairs (n<=3): worst |QFI - spread^2| {worst:.2e} "
        f"(tol 1e-7)",
    )


def test_criterion_6_symmetrization_and_cap():
    t0 = time.monotonic()
    dense = {
        n: LinearHamiltonian.from_site(
            n, SingleSiteOperator.computational((0.0, 1.0))
        ).dense()
        for n in range(2, 9)
    }
    rng = Rng(46_000)
    v13 = 0
    worst13 = -math.inf
    for t in range(1000):
        n = 2 + t % 7
        psi = sample_haar(n, 2, rng.substream(t))
        _, sym = symmetrize_amplitudes(psi)
        gap = qfi(psi, dense[n]) - qfi(sym, dense[n])
        worst13 = max(worst13, gap)
        if gap > 1e-9:
            v13 += 1

    v14 = 0
    worst14 = -math.inf
    for n in range(3, 13):
        for c in (1.2, 1.5, 1.8):
            for kind in ("uniform", "extremal"):
                profile, _ = cap_state(n, c, kind)
                over = symmetric_weight_qfi(profile, 1.0) - qfi_cap(n, c, 1.0)
                worst14 = max(worst14, over)
                if over > 1e-6:
                    v14 += 1
    elapsed = time.monotonic() - t0
    ok = v13 == 0 and v14 == 0 and elapsed < 60.0
    report(
        6,
        ok,
        f"symmetrization on 1000 states n=2..8 (both parities): max QFI drop "
        f"{worst13:.2e} (tol 1e-9), {v13} violations; cap states n=3..12, "
        f"c in (1.2,1.5,1.8): max QFI - ceiling {worst14:.2e} (tol 1e-6), "
        f"{v14} violations; {elapsed:.0f}s (< 60s)",
    )


FROZEN_2BODY_N5 = {
    "star": (4, 0, 12, 16),
    "chain": (4, 6, 6, 16),
    "ring": (5, 10, 10, 25),
    "complete": (10, 30, 60, 100),
}
FROZEN_3BODY_N8 = {
    "chain": (6, 12, 18, 36),
    "ring": (8, 24, 32, 64),
    "complete": (56, 560, 2520, 3136),
}


def census_tuple(c) -> tuple:
    return (c.s, c.disjoint, c.connected, c.all)


def test_criterion_7_census_tables():
    mismatches = []
    for shape, expected in FROZEN_2BODY_N5.items():
        g = preset_graph(shape, 5)
        routes = {
            "brute": census_tuple(census_bruteforce(g)),
            "degrees": census_tuple(census_by_degrees(degree_vector(g))),
            "preset": census_tuple(preset_census(shape, 5)),
        }
        for name, got in routes.items():
            if got != expected:
                mismatches.append(f"{shape} n=5 {name}: {got} != {expected}")
    for shape, expected in FROZEN_3BODY_N8.items():
        g = preset_graph(shape, 8, k=3)
        for name, got in (
            ("brute", census_tuple(census_bruteforce(g))),
            ("preset", census_tuple(preset_census(shape, 8, k=3))),
        ):
            if got != expected:
                mismatches.append(f"{shape} (8,3) {name}: {got} != {expected}")

    rng = Rng(47_000)
    degree_mismatches = 0
    for t in range(500):
        n = 3 + t % 10
        pool = n * (n - 1) // 2
        s = 1 + (t * 7) % pool
        g = sample_graph(n, s, rng.substream(t))
        if census_tuple(census_by_degrees(degree_vector(g))) != census_tuple(
            census_bruteforce(g)
        ):
            degree_mismatches += 1
    ok = not mismatches and degree_mismatches == 0
    report(
        7,
        ok,
        f"preset censuses exact on n=5 tables and (8,3) rows "
        f"({len(mismatches)} mismatches); degree formulas equal brute force "
        f"on 500 random graphs n<=12 ({degree_mismatches} mismatches)",
    )


def test_criterion_8_product_closed_form_vs_dense():
    worst = 0.0
    cases = 0
    for shape, n_min in (("star", 2), ("chain", 2), ("ring", 3), ("complete", 2)):
        for n in range(n_min, 9):
            g = preset_graph(shape, n)
            h = to_hamiltonian(g, 1.0, 2.0)
            for tenths in range(1, 10):
                p = tenths / 10.0
                closed = product_qfi_at(g, 1.0, 2.0, p)
                dens = qfi(symmetric_product_state(h, p), h)
                worst = max(worst, abs(closed - dens))
                cases += 1
    ok = worst <= 1e-8
    report(
        8,
        ok,
        f"product-state QFI closed form vs dense on {cases} cases "
        f"(4 presets, n<=8, p=0.1..0.9): worst |dev| {worst:.2e} (tol 1e-8)",
    )


def test_criterion_9_net_audits():
    t0 = time.monotonic()

    def params(eps: float) -> BoundParams:
        return BoundParams(
            n=2, d=2, s_coff=4.0, s_basis=1.0, A=1.0, B=2.0,
            a=1.0, norm_A0=0.0, c=1.0, eps=eps,
        )

    _, eps_c = epsilon_choices(0.5, params(0.5), "prop7")
    grid = coefficient_grid(1.0, 2.0, eps_c)
    xs = np.linspace(1.0, 2.0, 40_001)
    dists = np.abs(np.concatenate([xs, -xs])[:, None] - grid.points).min(axis=1)
    grid_radius = float(dists.max())
    grid_ok = grid_radius <= eps_c + 1e-12

    net = build_linear_net(params(0.5), "prop7")
    cover = net_cover_audit(net, 0.5, 200, Rng(49_000))
    cover_ok = cover.violations == 0 and cover.max_value <= 0.5

    worst_dev = {}
    dev_ok = True
    for which, mode in (("prop8", "result1"), ("prop9", "result3")):
        audit_net = build_linear_net(params(1.0), mode)
        rep = property_audit(audit_net, 1.0, 100, which, Rng(49_001))
        worst_dev[which] = rep.max_value
        dev_ok = dev_ok and rep.violations == 0

    elapsed = time.monotonic() - t0
    ok = grid_ok and cover_ok and dev_ok and elapsed < 300.0
    report(
        9,
        ok,
        f"grid radius {grid_radius:.4f} <= eps_c {eps_c:.4f}; cover audit "
        f"200 trials max {cover.max_value:.3f} <= 0.5, "
        f"{cover.violations} violations; deviation audits at eps=1.0, "
        f"100 trials: prop8 max {worst_dev['prop8']:.2e}, prop9 max "
        f"{worst_dev['prop9']:.2e}, all passing; {elapsed:.0f}s (< 300s)",
    )


def test_criterion_10_bound_evaluators():
    ns = list(range(4, 65))
    totals7 = [
        theorem_bound(
            BoundParams(
                n=n, d=14, s_coff=float(14 * n), s_basis=1.0, A=1.0, B=2.0,
                a=1.0, norm_A0=0.0, c=40.0, eps=0.5,
            ),
            "thm7",
        ).log_total
        for n in ns
    ]
    peak7 = max(range(len(ns)), key=lambda i: totals7[i])
    tail7_ok = 0 < peak7 < len(ns) - 1 and all(
        totals7[i] > totals7[i + 1] for i in range(peak7, len(ns) - 1)
    )

    totals9 = [
        theorem_bound(
            BoundParams(
                n=n, d=2, s_coff=4.0, s_basis=float(n), A=1.0, B=2.0,
                a=float(n), norm_A0=1.0, c=2.0, eps=0.5,
                a_provenance="linear-growth model",
            ),
            "thm9",
        ).log_total
        for n in ns
    ]
    peak9 = max(range(len(ns)), key=lambda i: totals9[i])
    tail9_ok = 0 < peak9 < len(ns) - 1 and all(
        totals9[i] > totals9[i + 1] for i in range(peak9, len(ns) - 1)
    )

    # Tail-frequency experiment at the non-vacuous operating point.
    n, eps = 12, 110.0
    weights = oracles.basis_digits(n, 2).sum(axis=1).astype(float)
    dim = weights.size
    tr1 = float(weights.sum())
    tr2 = float((weights**2).sum())
    f_mean = tr2 / (dim + 1) - tr1**2 / (dim * (dim + 1))
    hnorm = float(weights.max())
    bound = levy_bound(np.diag([hnorm, -hnorm]), dim, eps)
    rng = Rng(50_000)
    trials = 10_000
    exceed_two = exceed_one = 0
    chunk = 1000
    w2 = weights**2
    for start in range(0, trials, chunk):
        z = rng.substream(start).complex_normal((chunk, dim))
        probs = np.abs(z) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        f = probs @ w2 - (probs @ weights) ** 2
        dev = f - f_mean
        exceed_two += int(np.count_nonzero(np.abs(dev) > eps))
        exceed_one += int(np.count_nonzero(dev > eps))
    freq_two = exceed_two / trials
    freq_one = exceed_one / trials
    conc_ok = (
        not bound.vacuous_two_sided
        and freq_two <= bound.two_sided
        and not bound.vacuous_one_sided
        and freq_one <= bound.one_sided
    )

    ok = tail7_ok and tail9_ok and conc_ok
    report(
        10,
        ok,
        f"symmetric-subspace bound peaks at n={ns[peak7]} then decreases "
        f"(d=14, final {totals7[-1]:.1f}); product-space bound peaks at "
        f"n={ns[peak9]} then decreases (final {totals9[-1]:.1f}); "
        f"10^4-draw tail frequencies {freq_two:.4f}/{freq_one:.4f} within "
        f"non-vacuous bounds {bound.two_sided:.4f}/{bound.one_sided:.4f}",
    )
