"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (explicit
permutation sums, eigendecompositions, grid scans) and shares no code with
the library beyond numpy itself, except the per-trial samplers, which are
the one-row cases of the library's array samplers.
"""

import collections
import itertools
import math

import numpy as np


def qfi_eigen(psi: np.ndarray, hm: np.ndarray) -> float:
    """QFI via the spectral measure of H in the state: 4 Var over p_j = |<v_j|psi>|^2."""
    w, v = np.linalg.eigh(hm)
    p = np.abs(v.conj().T @ psi) ** 2
    m1 = float(p @ w)
    m2 = float(p @ (w**2))
    return 4.0 * (m2 - m1 * m1)


def qfi_fidelity(psi: np.ndarray, hm: np.ndarray, delta: float = 1e-4) -> float:
    """QFI from the small-angle fidelity drop under exp(-i H t)."""
    w, v = np.linalg.eigh(hm)
    evolved = v @ (np.exp(-1j * w * delta) * (v.conj().T @ psi))
    overlap = abs(np.vdot(psi, evolved))
    return 8.0 * (1.0 - overlap) / delta**2


def site_permutation_matrix(n: int, d: int, perm: tuple[int, ...]) -> np.ndarray:
    """V(pi) acting on (C^d)^n by sending site i's digit to slot perm[i]."""
    dim = d**n
    mat = np.zeros((dim, dim))
    for idx in range(dim):
        digits = []
        rem = idx
        for _ in range(n):
            digits.append(rem % d)
            rem //= d
        digits.reverse()  # most-significant digit = site 0
        out = [0] * n
        for i in range(n):
            out[perm[i]] = digits[i]
        target = 0
        for g in out:
            target = target * d + g
        mat[target, idx] = 1.0
    return mat


def symmetrizer(n: int, d: int) -> np.ndarray:
    """(1/n!) sum over all site permutations, as an explicit dense matrix."""
    dim = d**n
    acc = np.zeros((dim, dim))
    count = 0
    for perm in itertools.permutations(range(n)):
        acc += site_permutation_matrix(n, d, perm)
        count += 1
    return acc / count


def kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def linear_dense(table: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Sum of one-site terms U diag(row_i) U^dag embedded at each site."""
    n, d = table.shape
    eye = np.eye(d)
    total = np.zeros((d**n, d**n), dtype=complex)
    for i in range(n):
        site = basis @ np.diag(table[i]).astype(complex) @ basis.conj().T
        total += kron_chain([site if j == i else eye for j in range(n)])
    return total


def product_diagonal_dense(coeffs: np.ndarray, bases: list[np.ndarray]) -> np.ndarray:
    frame = kron_chain(list(bases))
    return frame @ np.diag(coeffs).astype(complex) @ frame.conj().T


def basis_digits(n: int, d: int) -> np.ndarray:
    """Digit table of the product basis, shape (d**n, n); column 0 is site 1, most significant."""
    idx = np.arange(d**n)
    return np.stack([(idx // d ** (n - 1 - j)) % d for j in range(n)], axis=1)


def compositions_colex(total: int, parts: int):
    """Compositions of `total` into `parts` non-negative parts, colex order.

    The last coordinate varies slowest; within a fixed tail the prefix
    recurses with the same rule.
    """
    if parts < 1:
        raise ValueError("parts must be positive")
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for prefix in compositions_colex(total - last, parts - 1):
            yield prefix + (last,)


def dicke_matrix(n: int, d: int) -> np.ndarray:
    """Dense Dicke frame (d**n, C): column c has equal positive amplitude on
    every basis string whose letter counts are compositions_colex(n, d)'s c-th."""
    column = {c: i for i, c in enumerate(compositions_colex(n, d))}
    strings = list(itertools.product(range(d), repeat=n))  # kron order, site 1 first
    cols = [column[tuple(s.count(letter) for letter in range(d))] for s in strings]
    sizes = collections.Counter(cols)
    frame = np.zeros((len(strings), len(column)))
    for k, c in enumerate(cols):
        frame[k, c] = 1.0 / math.sqrt(sizes[c])
    return frame


def mc_mean(values: list[float]) -> tuple[float, float]:
    """Sample mean and its standard error."""
    count = len(values)
    mean = math.fsum(values) / count
    var = math.fsum((v - mean) ** 2 for v in values) / (count - 1)
    return mean, math.sqrt(var / count)


def bloch_states(polar: int, azimuth: int) -> np.ndarray:
    """Dense grid of qubit pure states, rows are state vectors."""
    thetas = (np.arange(polar) + 0.5) * np.pi / polar
    phis = np.arange(azimuth) * 2.0 * np.pi / azimuth
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    states = np.stack(
        [np.cos(t / 2).astype(complex), np.sin(t / 2) * np.exp(1j * p)], axis=-1
    )
    return states.reshape(-1, 2)


def max_variance_scan(site: np.ndarray, polar: int = 400, azimuth: int = 800) -> float:
    """Grid maximum of Var_psi(site) over qubit states."""
    grid = bloch_states(polar, azimuth)
    first = np.einsum("si,ij,sj->s", grid.conj(), site, grid).real
    second = np.einsum("si,ij,sj->s", grid.conj(), site @ site, grid).real
    return float(np.max(second - first**2))


def schmidt_max_overlap(amplitudes: np.ndarray, d: int) -> float:
    """Exact best squared product overlap for two sites: top Schmidt weight."""
    sigma = np.linalg.svd(amplitudes.reshape(d, d), compute_uv=False)
    return float(sigma[0] ** 2)


def product_overlap_scan(amplitudes: np.ndarray, n: int, points: int = 10) -> float:
    """Grid lower bound on the best squared product-state overlap (d = 2, n <= 3)."""
    grid = bloch_states(points, 2 * points)
    g = grid.conj()
    if n == 2:
        m = np.einsum("ai,bj,ij->ab", g, g, amplitudes.reshape(2, 2))
    elif n == 3:
        m = np.einsum("ai,bj,ck,ijk->abc", g, g, g, amplitudes.reshape(2, 2, 2), optimize=True)
    else:
        raise ValueError("scan oracle covers n = 2 and n = 3 only")
    return float(np.max(np.abs(m) ** 2))


def normalize_hyperedges_scan(hyperedges, n: int) -> list[tuple[int, ...]]:
    """Sorted hyperedges in input order, checked one edge at a time.

    The first edge that has another arity than the first one, repeats a
    site, has a site outside 1..n or repeats an earlier edge as a set
    raises, naming the first of those rules it breaks.
    """
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    arity = None
    for raw in hyperedges:
        e = tuple(int(s) for s in raw)
        if arity is None:
            arity = len(e)
        if len(e) != arity:
            raise ValueError(f"hyperedge {e} has arity {len(e)}, expected {arity}")
        if len(set(e)) != len(e):
            raise ValueError(f"hyperedge {e} repeats a site")
        if any(s < 1 or s > n for s in e):
            raise ValueError(f"hyperedge {e} has sites outside 1..{n}")
        key = tuple(sorted(e))
        if key in seen:
            raise ValueError(f"duplicate hyperedge {e} (hyperedges compare as sets)")
        seen.add(key)
        out.append(key)
    if not out:
        raise ValueError("need at least one hyperedge")
    return out


def census_pairs(edges: list[tuple[int, ...]]) -> tuple[int, int, int, int]:
    """Ordered-pair counts (same, disjoint, connected, all) by direct loops."""
    sets = [frozenset(e) for e in edges]
    s = len(sets)
    same = disjoint = connected = 0
    for a in sets:
        for b in sets:
            if a == b:
                same += 1
            elif a & b:
                connected += 1
            else:
                disjoint += 1
    return same, disjoint, connected, s * s


def serial_gme(
    amplitudes: np.ndarray,
    n: int,
    random_starts: list[list[np.ndarray]],
    max_iters: int = 200,
    tol: float = 1e-12,
) -> tuple[float, float, bool, list[bool]]:
    """Alternating product-overlap ascent, one restart and one site at a time.

    Restart 0 starts from the dominant eigenvector of each one-site reduced
    density matrix, restart r >= 1 from the normalised random_starts[r - 1].
    Each site update contracts conj of every other site vector into the full
    tensor afresh. The highest final overlap wins, ties to the lowest
    restart. Returns the winner's recomputed squared overlap, -log2 of it
    (0 at most), its converged flag and every restart's converged flag.
    """
    tensor = amplitudes.reshape((2,) * n)

    def contract(alphas, skip):
        t = tensor
        for j in reversed(range(n)):
            if j != skip:
                t = np.tensordot(t, np.conj(alphas[j]), axes=(j, 0))
        return t

    marginal = []
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        rho = np.tensordot(tensor, tensor.conj(), axes=(rest, rest))
        marginal.append(np.linalg.eigh(rho)[1][:, -1])
    starts = [marginal] + [[z / np.linalg.norm(z) for z in s] for s in random_starts]
    results = []
    for alphas in starts:
        alphas = list(alphas)
        prev = abs(complex(contract(alphas, -1)))
        converged = False
        for _ in range(max_iters):
            sweep_start = prev
            for i in range(n):
                w = contract(alphas, i)
                nrm = float(np.linalg.norm(w))
                if nrm > 0.0:
                    alphas[i] = w / nrm
                    if nrm < prev - 1e-12:
                        raise AssertionError("coordinate ascent decreased the overlap")
                    prev = nrm
            if prev - sweep_start < tol:
                converged = True
                break
        results.append((prev, alphas, converged))
    best = max(range(len(results)), key=lambda r: (results[r][0], -r))
    overlap_sq = abs(complex(contract(results[best][1], -1))) ** 2
    value = max(0.0, -math.log2(max(overlap_sq, 1e-300)))
    return overlap_sq, value, results[best][2], [conv for _, _, conv in results]


# --- test-only probes over library objects -------------------------------------
#
# No library code needs these, so they live with the tests. Unlike the
# oracles above they read the library's own objects: a net's Bloch grid, a
# typed Hamiltonian's site bases, and a stream's per-trial draws.


def net_probe(net, trials: int, rng) -> float:
    """Worst trace distance from random qubit states to the Bloch-grid net.

    Probe t is the normalised `rng.substream(t).complex_normal(2)`.
    """
    from qfiwb.states import qubit_overlap

    v = rng.substream_normals(range(trials), 2)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    ov = qubit_overlap(v, net.states(net.nearest_index(v)))
    return float(np.sqrt(1.0 - np.minimum(1.0, ov * ov)).max(initial=0.0))


def gme_threshold_cap_form(n: int, c: float) -> float:
    """gme_threshold grouped as the negated amplitude-cap exponent.

    Expands to n - 2 n^(c-1)/ln 2 + (2-c) ln n / ln 2, the printed form of
    the cap's exponent; valid where gme_threshold is (1 < c < 2 and
    n^(c-1) > ln n).
    """
    ln2 = math.log(2.0)
    return -(-float(n) + 2.0 * n ** (c - 1.0) / ln2 - (2.0 - c) * math.log(n) / ln2)


def uniform_superposition_product(h):
    """Product state with each site in the uniform superposition of its basis.

    Needs a typed Hamiltonian's product frame (its `site_bases`).
    """
    from qfiwb.states import product_state

    if not hasattr(h, "site_bases"):
        raise TypeError(f"{type(h).__name__} is not a typed Hamiltonian with a product eigenframe")
    d = h.site_bases[0].shape[0]
    uniform = np.ones(d, dtype=np.complex128) / math.sqrt(d)
    return product_state([b @ uniform for b in h.site_bases])


def csv_cell(value) -> str:
    """One CSV cell, formatted from the value's own type, the slow way."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ArithmeticError(f"non-finite value {v!r} in CSV output")
        return format(v, ".17g")
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise ValueError(f"string cell {value!r} would break the CSV")
        return value
    raise TypeError(f"unsupported CSV cell type {type(value).__name__}")


def sample_linear_banded(n: int, d: int, rng, A: float, B: float):
    """Random family member: |levels| uniform in [A, B], then a Haar shared basis.

    The one-row case of nets.sample_linear_banded_arrays, from rng's own words.
    """
    from qfiwb.hamiltonians import LinearHamiltonian
    from qfiwb.nets import linear_banded_words, sample_linear_banded_arrays

    u = rng.random((1, linear_banded_words(n, d)))
    tables, bases = sample_linear_banded_arrays(u, n, d, A, B)
    return LinearHamiltonian(tables[0], bases[0])


def sample_product_banded(n: int, d: int, rng, A: float, B: float):
    """Haar product bases, then |coefficients| uniform in [A, B] with random signs.

    The one-row case of nets.sample_product_banded_arrays, from rng's own words.
    """
    from qfiwb.hamiltonians import ProductDiagonalHamiltonian
    from qfiwb.nets import product_banded_words, sample_product_banded_arrays

    u = rng.random((1, product_banded_words(n, d)))
    coeffs, bases = sample_product_banded_arrays(u, n, d, A, B)
    return ProductDiagonalHamiltonian(coeffs[0], tuple(bases[0]))
