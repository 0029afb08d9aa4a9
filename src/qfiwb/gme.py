"""Geometric measure of entanglement and the high-GME / low-QFI bound chain.

The measure is E_g = -log2 sup |<a|Psi>|^2 over product states |a>. The sup
is estimated by alternating single-site optimization (coordinate ascent on
the overlap), bracketed where needed by an exhaustive Bloch-grid oracle that
certifies bounds in both directions. The chain from a GME threshold through
the per-weight amplitude cap to a QFI cap is evaluated piece by piece so a
failed hypothesis is reported rather than silently assumed.

Everything here fixes the probe Hamiltonian's eigenbasis to the
computational one; for a rotated H_S, rotate the state instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (DomainError, Rng, block_rows, check_bytes, check_power_dim, complex_normals, kron_fold,
                       row_norms)
from .states import BlochGrid, PureState

OVERLAP_ATOL = 1e-10
MONOTONE_SLACK = 1e-12


def _qubit_tensor(state: PureState) -> np.ndarray:
    if state.d != 2:
        raise ValueError("entanglement routines cover qubits only (d = 2)")
    return state.amplitudes.reshape((2,) * state.n)


def _right_environments(alphas: np.ndarray) -> list[np.ndarray]:
    """E_i = conj(a_{i+1} x ... x a_{n-1}), shape (R, 2^(n-1-i)), for R restarts' (R, n, 2) vectors."""
    out = [np.ones((len(alphas), 1), dtype=np.complex128)]
    for j in reversed(range(1, alphas.shape[1])):
        out.append((np.conj(alphas[:, j, :, None]) * out[-1][:, None, :]).reshape(len(alphas), -1))
    return out[::-1]


def _full_overlap(tensor: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """<a|Psi> for every restart: conj(a_i) contracted into the tensor site by site."""
    left = tensor.reshape(1, -1)
    for i in range(alphas.shape[1]):
        left = (np.conj(alphas[:, i, None, :]) @ left.reshape(len(left), 2, -1))[:, 0]
    return left[:, 0]


def _marginal_start(tensor: np.ndarray) -> list[np.ndarray]:
    """Dominant eigenvector of each one-site reduced density matrix."""
    out = []
    for i in range(tensor.ndim):
        a = np.moveaxis(tensor, i, 0).reshape(2, -1)
        out.append(np.linalg.eigh(a @ a.conj().T)[1][:, -1])
    return out


@dataclass(frozen=True)
class GmeEstimate:
    """Coordinate-ascent estimate of the entanglement measure.

    `overlap_sq` is |<witness|Psi>|^2 for the reported product witness and
    lower-bounds the true supremum, so `value` = -log2(overlap_sq) is an
    upper estimate of E_g that tightens with restarts. `converged` is the
    winner's flag; `unconverged` counts restarts that never met `tol`.
    """

    value: float
    witness: tuple[np.ndarray, ...]
    overlap_sq: float
    restarts: int
    converged: bool
    unconverged: int


def _ascend_batch(
    tensor: np.ndarray, alphas: np.ndarray, max_iters: int, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Seidel sweeps of R restarts' (R, n, 2) `alphas` at once, in place.

    A sweep takes the right environments E_i of the old vectors and carries
    the left contraction L_i of the new ones: w_i = L_i . E_i. A restart
    leaves after its first sweep that gains less than `tol`. Every operation
    acts on each restart's row alone, so no result depends on the batch.
    Returns the overlaps |<a|Psi>| and the restarts that never met `tol`.
    """
    overlap = np.abs(_full_overlap(tensor, alphas))
    active = np.arange(len(alphas))
    for _ in range(max_iters):
        a, prev = alphas[active], overlap[active]
        right = _right_environments(a)
        left = tensor.reshape(1, -1)
        for i in range(a.shape[1]):
            t = left.reshape(len(left), 2, -1)
            w = (t @ right[i][:, :, None])[:, :, 0]
            nrm = np.sqrt((w.conj() * w).real.sum(axis=1))
            up = nrm > 0.0
            if (up & (nrm < prev - MONOTONE_SLACK)).any():
                raise AssertionError("coordinate ascent decreased the overlap")
            np.divide(w, nrm[:, None], out=a[:, i], where=up[:, None])
            prev = np.where(up, nrm, prev)
            left = (np.conj(a[:, i, None, :]) @ t)[:, 0]
        done = prev - overlap[active] < tol
        alphas[active] = a
        overlap[active] = prev
        active = active[~done]
        if not active.size:
            break
    return overlap, active


def gme(
    state: PureState,
    restarts: int = 8,
    max_iters: int = 200,
    tol: float = 1e-12,
    rng: Rng | None = None,
) -> GmeEstimate:
    """Alternating rank-1 optimization of the product overlap.

    Restart 0 starts from the per-site marginal eigenvectors; restart r > 0
    starts from the random product state whose site i is the normalised
    `rng.substream(r).complex_normal(2)` draw i, all drawn in one block. All
    restarts ascend as one batch, in blocks of `block_rows` state-sized rows;
    the highest overlap wins, ties to the lowest restart index.
    A run that never meets `tol` is still reported, flagged unconverged.
    """
    if restarts < 1:
        raise DomainError("need at least one restart")
    tensor = _qubit_tensor(state)
    rng = Rng(0) if rng is None else rng
    step = block_rows(tensor.nbytes)
    u = rng.substream_uniforms(range(1, restarts), 4 * state.n)
    z = complex_normals(u.reshape(-1, state.n, 4))
    z /= row_norms(z)[..., None]
    starts = np.concatenate([np.array(_marginal_start(tensor))[None], z])
    best = (-1.0, np.empty(0), False)
    unconverged = 0
    for first in range(0, restarts, step):
        alphas = starts[first:first + step]
        overlap, stalled = _ascend_batch(tensor, alphas, max_iters, tol)
        unconverged += len(stalled)
        k = int(np.argmax(overlap))
        if overlap[k] > best[0]:
            best = (overlap[k], alphas[k].copy(), k not in stalled)
    _, witness, converged = best
    overlap_sq = float(abs(_full_overlap(tensor, witness[None])[0])) ** 2
    value = max(0.0, -math.log2(max(overlap_sq, 1e-300)))  # never -0.0
    return GmeEstimate(value, tuple(witness), overlap_sq, restarts, converged, unconverged)


# --- certified grid bracket ----------------------------------------------------

def _oracle_grid(delta: float) -> BlochGrid:
    """Bloch grid whose vectors lie within delta of every qubit vector, up to phase.

    Row j's azimuth count is proportional to sin(t/2) at the row's far edge,
    which keeps the worst-case snap (t term plus phase term) below delta.
    """
    if delta <= 0:
        raise DomainError("delta must be positive")
    extent = math.pi / (2.0 * delta)
    check_bytes(8 * (extent + 1), f"oracle grid of {extent:.3g} rows")
    return BlochGrid(max(1, math.ceil(extent)), delta, far_edge=True)


ORACLE_MAX_SITES = 4
_ORACLE_DELTAS = {3: 0.03, 4: 0.15}


@dataclass(frozen=True)
class GmeBracket:
    """Certified two-sided bracket from the exhaustive grid search.

    Sites 3..n run over `points_per_site` grid vectors of covering radius
    `delta` (both 0 at n <= 2, where the bracket is exact). The grid maximum
    lower-bounds the true sup-overlap while the inflated value (grid max
    plus `delta` per gridded site, the overlap being 1-Lipschitz in each
    site vector) upper-bounds it, so the true E_g lies in [gme_lower, gme_upper].
    """

    n: int
    delta: float
    points_per_site: int
    best_overlap_sq: float
    overlap_sq_upper: float

    @property
    def gme_lower(self) -> float:
        return -math.log2(min(max(self.overlap_sq_upper, 1e-300), 1.0))

    @property
    def gme_upper(self) -> float:
        return -math.log2(max(self.best_overlap_sq, 1e-300))


def _top_singular_sq(m: np.ndarray) -> np.ndarray:
    """sigma_max^2 of every 2x2 matrix in a (..., 2, 2) stack, in closed form.

    It is the top eigenvalue of the Gram matrix M^H M = [[a, b], [conj(b), c]],
    (a + c)/2 + hypot((a - c)/2, |b|), whose two terms never cancel; the
    form (F + sqrt(F^2 - 4|det M|^2))/2 loses digits when the two singular
    values are close.
    """
    x = m.reshape(-1, 4)  # (m00, m01, m10, m11)
    sq = x.real**2 + x.imag**2
    a = sq[:, 0] + sq[:, 2]
    c = sq[:, 1] + sq[:, 3]
    b = np.conj(x[:, 0]) * x[:, 1] + np.conj(x[:, 2]) * x[:, 3]
    return 0.5 * (a + c) + np.hypot(0.5 * (a - c), np.abs(b))


def gme_grid_oracle(state: PureState, delta: float | None = None) -> GmeBracket:
    """Exhaustive Bloch-grid bracket of E_g for up to ORACLE_MAX_SITES qubits.

    Sites 3..n run over the grid (spacing `delta`, default per n), within the
    byte budget for their tuples' 2x2 blocks. Given them, the best overlap on
    sites 1 and 2 is the top singular value of a 2x2 matrix, taken in closed
    form for every tuple at once, so those two sites are exact and add no
    covering error.
    """
    n = state.n
    tensor = _qubit_tensor(state)
    if n == 1:
        return GmeBracket(1, 0.0, 0, 1.0, 1.0)
    if n > ORACLE_MAX_SITES:
        raise DomainError(f"the exhaustive oracle is limited to {ORACLE_MAX_SITES} sites")
    if n == 2:
        best = float(_top_singular_sq(tensor)[0])
        return GmeBracket(2, 0.0, 0, best, best)
    if delta is None:
        delta = _ORACLE_DELTAS[n]
    grid = _oracle_grid(delta)
    check_bytes(64 * grid.count ** (n - 2), f"oracle spacing {delta} at n = {n}: {grid.count}^{n - 2} grid tuples")
    gc = np.conj(grid.states(np.arange(grid.count)))
    t = tensor
    for _ in range(n - 2):  # eats the last site axis, prepends a grid axis
        t = np.tensordot(gc, t, axes=(1, n - 1))
    best = float(np.max(_top_singular_sq(t)))
    inflated = min(1.0, math.sqrt(best) + (n - 2) * delta) ** 2
    return GmeBracket(n, delta, grid.count, best, inflated)


# --- weight symmetrization -------------------------------------------------------

@dataclass(frozen=True)
class SymmetrizedAmplitudes:
    """Per-weight amplitude profile (a) and its reflection-symmetrized form (b).

    a_k is the root-mean-square amplitude over the C(n,k) weight-k basis
    vectors; b averages the k and n-k squares, so b is symmetric under
    k -> n-k and C(n,k)-weighted b^2 still sums to one.
    """

    n: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (self.n + 1,) or b.shape != (self.n + 1,):
            raise ValueError("profiles must have one entry per Hamming weight")
        if np.any(a < 0) or np.any(b < 0):
            raise ValueError("weight profiles are nonnegative by construction")
        if not np.allclose(b, np.sqrt((a**2 + a[::-1] ** 2) / 2.0), atol=OVERLAP_ATOL):
            raise ValueError("b must be the reflection average of a")
        total = float(np.sum(_binomials(self.n) * b**2))
        if abs(total - 1.0) > OVERLAP_ATOL:
            raise ValueError(f"weighted b-profile sums to {total}, expected 1")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _binomials(n: int) -> np.ndarray:
    """C(n, k) for k = 0..n, as floats."""
    return np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)


def _hamming_weights(n: int) -> np.ndarray:
    """The Hamming weight of each n-qubit basis index, in kron order."""
    return kron_fold(np.add, [np.arange(2)] * n)


def _state_from_profile(n: int, b: np.ndarray) -> PureState:
    return PureState(n, 2, np.asarray(b, dtype=np.complex128)[_hamming_weights(n)])


def symmetrize_amplitudes(state: PureState) -> tuple[SymmetrizedAmplitudes, PureState]:
    """Replace amplitudes by per-weight RMS values, then reflection-average.

    The returned state has amplitude b_k on every weight-k basis vector; it
    is permutation-symmetric, satisfies b_k = b_{n-k}, and never has smaller
    QFI under a diagonal single-site probe than the input.
    """
    if state.d != 2:
        raise ValueError("weight symmetrization covers qubits only (d = 2)")
    profile = _weight_profile(state.n, _weight_histogram(state))
    return profile, _state_from_profile(state.n, profile.b)


def _weight_profile(n: int, histogram: np.ndarray) -> SymmetrizedAmplitudes:
    """Per-weight RMS amplitudes a from a Hamming-weight histogram, and their reflection average b."""
    a = np.sqrt(histogram / _binomials(n))
    return SymmetrizedAmplitudes(n, a, np.sqrt((a**2 + a[::-1] ** 2) / 2.0))


def _weight_histogram(state: PureState) -> np.ndarray:
    """Probability of each Hamming weight k under a qubit state."""
    sq = np.abs(state.amplitudes) ** 2
    return np.bincount(_hamming_weights(state.n), weights=sq, minlength=state.n + 1)


def weight_distribution(profile: SymmetrizedAmplitudes) -> np.ndarray:
    """Probability of Hamming weight k under the symmetrized state: C(n,k) b_k^2."""
    return _binomials(profile.n) * profile.b**2


def _weight_qfi(h: np.ndarray, delta: float) -> float:
    """QFI under a diagonal single-site probe from a weight distribution h.

    A probe with gap delta on every qubit acts as delta * weight (plus a
    constant), so the QFI is 4 delta^2 Var[weight].
    """
    k = np.arange(h.size, dtype=float)
    mean = float(np.dot(h, k))
    second = float(np.dot(h, k**2))
    return 4.0 * delta**2 * (second - mean**2)


def symmetric_weight_qfi(profile: SymmetrizedAmplitudes, delta: float) -> float:
    """QFI of the symmetrized state from the weight distribution alone."""
    return _weight_qfi(weight_distribution(profile), delta)


# --- threshold / cap chain -------------------------------------------------------

def _check_threshold_hypothesis(n: int, c: float) -> None:
    if not 1.0 < c < 2.0:
        raise DomainError(f"exponent c = {c} violates 1 < c < 2")
    if n ** (c - 1.0) <= math.log(n):
        raise DomainError(f"n^(c-1) = {n ** (c - 1.0)} does not exceed ln n = {math.log(n)}")


def gme_threshold(n: int, c: float) -> float:
    """Entanglement level above which the QFI cap engages.

    Computed as n - (2(n^(c-1) - ln n) + c ln n)/ln 2; requires 1 < c < 2
    and n^(c-1) > ln n, and is always below n.
    """
    _check_threshold_hypothesis(n, c)
    return n - (2.0 * (n ** (c - 1.0) - math.log(n)) + c * math.log(n)) / math.log(2.0)


def amplitude_cap(n: int, c: float) -> float:
    """Per-weight squared-amplitude cap 2^(-n + 2 n^(c-1)/ln 2 - (2-c) ln n/ln 2)."""
    if c >= 2.0:
        raise DomainError(f"exponent c = {c} must be below 2")
    ln2 = math.log(2.0)
    exponent = -float(n) + 2.0 * n ** (c - 1.0) / ln2 - (2.0 - c) * math.log(n) / ln2
    return 2.0**exponent


def qfi_cap(n: int, c: float, delta: float) -> float:
    """QFI ceiling 6 delta^2 n^c implied by the amplitude cap."""
    if c >= 2.0:
        raise DomainError(f"exponent c = {c} must be below 2")
    return 6.0 * delta**2 * n**c


def cap_state(n: int, c: float, kind: str = "uniform") -> tuple[SymmetrizedAmplitudes, PureState]:
    """Reflection-symmetric states whose b_k^2 all respect the amplitude cap.

    "uniform" spreads mass evenly over every weight (b_k^2 = 2^-n, feasible
    whenever the cap is at least 2^-n); "extremal" pushes as much mass as
    the cap allows onto the outermost weight pairs first, which probes the
    QFI ceiling from near its worst case.
    """
    check_power_dim(2, n)  # the state it returns, before the C(n, k) table
    cap = amplitude_cap(n, c)
    comb = _binomials(n)
    if kind == "uniform":
        if 2.0**-n > cap * (1.0 + 1e-12):
            raise DomainError(f"uniform mass per weight exceeds the amplitude cap at (n, c) = ({n}, {c})")
        b2 = np.full(n + 1, 2.0**-n)
    elif kind == "extremal":
        b2 = np.zeros(n + 1)
        remaining = 1.0
        for k in range(n // 2 + 1):
            pair = comb[k] if k == n - k else comb[k] + comb[n - k]
            take = min(cap * pair, remaining)
            b2[k] = b2[n - k] = take / pair
            remaining -= take
            if remaining <= 0.0:
                break
        if remaining > 1e-9:
            raise DomainError(f"the amplitude cap cannot carry unit mass at (n, c) = ({n}, {c})")
    else:
        raise DomainError(f"unknown construction kind {kind!r}")
    b2 = b2 / float(np.sum(comb * b2))
    b = np.sqrt(b2)
    profile = SymmetrizedAmplitudes(n, b.copy(), b)
    return profile, _state_from_profile(n, profile.b)


# --- end-to-end check --------------------------------------------------------------

@dataclass(frozen=True)
class Result2Report:
    """Outcome of the threshold -> cap implication check on one state."""

    n: int
    c: float
    delta: float
    threshold: float
    gme_estimate: GmeEstimate
    certified_gme: float
    oracle_used: bool
    hypothesis_established: bool
    qfi_state: float
    qfi_sym: float
    qfi_cap: float
    implication_holds: bool | None


def verify_result2(
    state: PureState,
    c: float,
    delta: float,
    rng: Rng | None = None,
    restarts: int = 8,
    oracle_delta: float | None = None,
) -> Result2Report:
    """Check that certified-high entanglement forces the QFI below its cap.

    The implication is asserted only from a certified lower bound on E_g:
    the grid oracle for up to four sites, or the trivial bound E_g >= 0 when
    the threshold is negative. An uncertified coordinate-ascent estimate can
    overstate E_g, so it never establishes the hypothesis by itself.

    The probe puts gap delta on every qubit, so it acts as delta times the
    Hamming weight and both QFIs are 4 delta^2 Var[weight].
    """
    n = state.n
    threshold = gme_threshold(n, c)
    estimate = gme(state, restarts=restarts, rng=rng)
    histogram = _weight_histogram(state)
    q_state = _weight_qfi(histogram, delta)
    q_sym = symmetric_weight_qfi(_weight_profile(n, histogram), delta)
    cap = qfi_cap(n, c, delta)
    certified = 0.0
    oracle_used = False
    if n <= ORACLE_MAX_SITES and threshold >= 0.0:
        certified = max(0.0, gme_grid_oracle(state, delta=oracle_delta).gme_lower)
        oracle_used = True
    established = certified > threshold
    implication = None
    if established:
        implication = q_state <= cap + 1e-9 and q_sym <= cap + 1e-9
    return Result2Report(
        n, c, delta, threshold, estimate, certified, oracle_used, established,
        q_state, q_sym, cap, implication,
    )
