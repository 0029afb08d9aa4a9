"""Quantum Fisher information of pure states and its ensemble expectations.

For a pure state and Hamiltonian H the QFI is 4 (<H^2> - <H>^2). Random-state
expectations come in two flavors: the full-space Haar mean and the
symmetric-subspace mean, the latter evaluated through the Dicke frame in the
form 4 (Tr[P H^2 P]/(C + 1) - Tr[P H P]^2 / (C (C + 1))) with P the symmetric
projector and C the subspace dimension.

A typed Hamiltonian (linear, product-diagonal or graph) is Hermitian by
construction and is evaluated in its product eigenframe H = W diag(D) W^dag:
the QFI is 4 Var of D under p = |W^dag psi|^2, with psi rotated one site at a
time, and the Haar mean and operator norm come from D alone. qfi_batch,
expected_qfi_haar and lipschitz_constant never make a typed operator dense;
only a bare array is checked for Hermiticity, once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    check_power_dim,
    ensure_hermitian,
    spectral_norm,
)
from .hamiltonians import (
    GraphHamiltonian,
    LinearHamiltonian,
    ProductDiagonalHamiltonian,
    SingleSiteOperator,
)
from .states import NORM_ATOL, DickeBasis, PureState, dicke_basis, dim_symmetric, product_state

QFI_CLIP_ATOL = 1e-9
DEGENERACY_ATOL = 1e-12

_TYPED = (LinearHamiltonian, ProductDiagonalHamiltonian, GraphHamiltonian)


def _dense(h) -> np.ndarray:
    if isinstance(h, np.ndarray):
        return ensure_hermitian(h)
    if isinstance(h, _TYPED):
        return h.dense()  # Hermitian by construction
    raise TypeError(f"cannot interpret {type(h).__name__} as a Hamiltonian")


def _eigenframe(h) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(site bases, real diagonal D) of a typed Hamiltonian: H = W diag(D) W^dag."""
    if isinstance(h, _TYPED):
        return h.site_bases, h.diagonal()
    raise TypeError(f"{type(h).__name__} is not a typed Hamiltonian with a product eigenframe")


def _frame_rows(a: np.ndarray, bases: tuple[np.ndarray, ...]) -> np.ndarray:
    """Each row psi of `a` as W^dag psi, W = B_1 (x) ... (x) B_n, one site at a time.

    Each step rotates the last site with one (rows d^(n-1), d) x (d, d)
    product and cycles that site to the front, so after n steps the sites
    are back in kron order.
    """
    rows, dim = a.shape
    for b in reversed(bases):
        d = b.shape[0]
        a = (a.reshape(-1, d) @ b.conj()).reshape(rows, dim // d, d).transpose(0, 2, 1)
    return a.reshape(rows, dim)


def qfi_batch(h, amplitudes: np.ndarray) -> np.ndarray:
    """QFI of many states at once; rows of `amplitudes` are unit state vectors.

    A typed H is evaluated in its eigenframe as 4 (p.D^2 - (p.D)^2) with
    p = |W^dag psi|^2; a bare array is checked for Hermiticity and applied
    as a matrix. An empty (0, dim) batch gives an empty result.
    """
    bare = isinstance(h, np.ndarray)
    if bare:
        hm = _dense(h)
        dim = hm.shape[0]
    else:
        bases, diag = _eigenframe(h)
        dim = diag.size
    a = np.asarray(amplitudes, dtype=np.complex128)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"dimension mismatch: state rows {a.shape}, operator {dim}")
    # `not <=` so that a NaN norm is rejected too
    if not np.all(np.abs(np.linalg.norm(a, axis=1) - 1.0) <= NORM_ATOL):
        raise ValueError(f"a state row's norm deviates from 1 by more than {NORM_ATOL}")
    if bare:
        y = a @ hm.T
        second = np.sum(np.abs(y) ** 2, axis=1)
        mean = np.real(np.sum(np.conjugate(a) * y, axis=1))
    else:
        p = np.abs(_frame_rows(a, bases)) ** 2
        second, mean = p @ diag**2, p @ diag
    raw = 4.0 * (second - mean**2)
    if np.any(raw < -QFI_CLIP_ATOL):
        raise ArithmeticError(
            f"negative variance {raw.min()} exceeds the numerical-consistency tolerance"
        )
    return np.maximum(raw, 0.0)


def qfi(state: PureState, h) -> float:
    """QFI of one state: the one-row case of qfi_batch."""
    return float(qfi_batch(h, state.amplitudes[None, :])[0])


# --- ensemble expectations ---------------------------------------------------

def _sphere_mean(tr1: float, tr2: float, dim: int) -> float:
    """Mean QFI over the unit sphere of a dim-dimensional space, from Tr H, Tr H^2."""
    return 4.0 * (tr2 / (dim + 1) - tr1 * tr1 / (dim * (dim + 1)))


def expected_qfi_haar(h) -> float:
    """Haar mean of the QFI over the full space, exact for any Hermitian H."""
    if not isinstance(h, np.ndarray):
        _, diag = _eigenframe(h)
        return _sphere_mean(float(diag.sum()), float((diag**2).sum()), diag.size)
    hm = _dense(h)
    tr1 = float(np.real(np.trace(hm)))
    tr2 = float(np.vdot(hm, hm).real)  # Tr H^2 = sum |h_ij|^2 for Hermitian H
    return _sphere_mean(tr1, tr2, hm.shape[0])


def expected_qfi_symmetric(h, n: int, d: int, basis: DickeBasis | None = None) -> float:
    """Symmetric-subspace mean of the QFI from Tr[P H P] and Tr[P H^2 P].

    A LinearHamiltonian on (n, d) sites takes both traces in closed form
    from its level table. P commutes with the shared basis rotation, and
    every Dicke state has the same one- and two-site marginals, so the
    traces are C times moments of a uniform composition m of n into d
    parts: E m_a = n/d, E m_a m_b = n(n-1)/(d(d+1)) for a != b and
    E m_a^2 = n(2n+d-1)/(d(d+1)), which collapse the pair sum onto the
    table's row and column sums. Any other H goes through the Dicke frame
    D, whose compressed blocks D* H D and D* H^2 D have those traces.
    """
    if isinstance(h, LinearHamiltonian) and (h.n, h.d) == (n, d):
        lam = h.table
        total, sq = float(lam.sum()), float((lam**2).sum())
        rows, cols = lam.sum(axis=1), lam.sum(axis=0)
        pairs = total**2 - float(rows @ rows) + float(cols @ cols) - sq
        c = dim_symmetric(n, d)
        return _sphere_mean(c * total / d, c * (sq / d + pairs / (d * (d + 1))), c)
    hm = _dense(h)
    if hm.shape[0] != check_power_dim(d, n):
        raise ValueError("operator dimension does not match (n, d)")
    if basis is None:
        basis = dicke_basis(n, d)
    dm = basis.matrix
    hd = hm @ dm
    tr1 = float(np.real(np.einsum("ic,ic->", dm.conj(), hd)))
    tr2 = float(np.real(np.einsum("ic,ic->", hd.conj(), hd)))
    return _sphere_mean(tr1, tr2, basis.size)


def site_variance_term(site: SingleSiteOperator) -> float:
    """Tr(h^2)/d - Tr(h)^2/d^2 for a one-site operator."""
    lv = np.asarray(site.levels)
    d = site.d
    return float(np.sum(lv**2) / d - (np.sum(lv) / d) ** 2)


def expected_qfi_haar_linear(site: SingleSiteOperator, n: int) -> float:
    """Closed-form Haar mean for an equal-row linear Hamiltonian."""
    d = site.d
    dim = check_power_dim(d, n)
    return 4.0 * n * (dim / (dim + 1)) * site_variance_term(site)


def expected_qfi_symmetric_linear(site: SingleSiteOperator, n: int) -> float:
    """Closed-form symmetric-subspace mean for an equal-row linear Hamiltonian."""
    d = site.d
    c = dim_symmetric(n, d)
    return 4.0 * (n * (n + d) / (d + 1)) * (c / (c + 1)) * site_variance_term(site)


# --- concentration -----------------------------------------------------------

def lipschitz_constant(h) -> float:
    """2 ||H^2|| + 2 sqrt(2) ||H||^2, the Levy-function Lipschitz scale."""
    # For Hermitian H, ||H^2|| = ||H||^2, so one norm gives both terms.
    if isinstance(h, np.ndarray):
        norm = spectral_norm(_dense(h))
    else:
        norm = float(np.max(np.abs(_eigenframe(h)[1])))
    return 2.0 * norm**2 + 2.0 * math.sqrt(2.0) * norm**2


@dataclass(frozen=True)
class ConcentrationBound:
    """Levy tail bounds for f = QFI/4 at deviation `epsilon`.

    `two_sided` bounds P(|f - E f| > eps); `one_sided` bounds a single tail
    (the upper tail over the full space, the lower tail over the symmetric
    subspace). Values are stored raw even when they exceed 1; the vacuous
    flags mark that case.
    """

    epsilon: float
    dim: int
    lipschitz: float
    two_sided: float
    one_sided: float

    @property
    def vacuous_two_sided(self) -> bool:
        return self.two_sided >= 1.0

    @property
    def vacuous_one_sided(self) -> bool:
        return self.one_sided >= 1.0


def levy_bound(h, dim: int, epsilon: float) -> ConcentrationBound:
    """Concentration bounds at sphere dimension `dim` (full or symmetric)."""
    if dim < 1:
        raise ValueError("dim must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lip = lipschitz_constant(h)
    # lip = 0 means H = 0: the QFI is constant and both tails are exactly 0.
    x = math.inf if lip == 0.0 else 2.0 * dim * epsilon**2 / (9.0 * math.pi**3 * lip**2)
    two = 2.0 * math.exp(-x)
    one = 2.0 * math.exp(-x / math.log(2.0))
    return ConcentrationBound(float(epsilon), int(dim), lip, two, one)


# --- extremal states ---------------------------------------------------------

def _site_shape(h, dim: int) -> tuple[int, int]:
    """(n, d) for a typed Hamiltonian; a bare matrix counts as one big site."""
    n = getattr(h, "n", None)
    d = getattr(h, "d", None)
    if n is not None and d is not None:
        return int(n), int(d)
    return 1, dim


def max_qfi_all_states(h) -> tuple[float, PureState]:
    """Maximum QFI over all pure states and a state achieving it.

    The value is the squared spectral spread; the state is the balanced
    superposition of extremal eigenvectors (tie-broken by lowest eigen-index,
    so the result is deterministic even under degeneracy).
    """
    hm = _dense(h)
    w, v = np.linalg.eigh(hm)
    n, d = _site_shape(h, hm.shape[0])
    if hm.shape[0] == 1:
        return 0.0, PureState(n, d, np.ones(1, dtype=np.complex128))
    top = (v[:, -1] + v[:, 0]) / math.sqrt(2.0)
    return float(w[-1] - w[0]) ** 2, PureState(n, d, top)


@dataclass(frozen=True)
class TransportResult:
    """Unitary that moves a given state onto an extremal-QFI configuration.

    `unitary` U satisfies U^dag psi = tau = (v_max + v_min)/sqrt(2), so the
    rotated Hamiltonian U H U^dag has the same spectrum and gives `check` =
    QFI(psi, U H U^dag), which should equal `target` = spread(H)^2. U is
    e^{i chi} P, with P the Householder reflector that swaps e^{i chi} tau
    and psi once chi makes their overlap real and non-negative; the phase
    cancels in U H U^dag = P H P, a rank-2 update of H.
    """

    unitary: np.ndarray
    check: float
    target: float
    degenerate: bool


def global_unitary_transport(state: PureState, h) -> TransportResult:
    hm = _dense(h)
    w, v = np.linalg.eigh(hm)
    tol = DEGENERACY_ATOL * max(1.0, float(np.max(np.abs(w))))
    # lowest eigen-index tie-break on both extremes
    i_min = 0
    i_max = int(np.argmax(w >= w[-1] - tol))
    n_min = int(np.sum(w <= w[0] + tol))
    n_max = int(np.sum(w >= w[-1] - tol))
    degenerate = n_min > 1 or n_max > 1
    if i_max == i_min:
        tau = v[:, i_min]
    else:
        tau = (v[:, i_max] + v[:, i_min]) / math.sqrt(2.0)
    psi = state.amplitudes
    overlap = np.vdot(tau, psi)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    r = phase * tau - psi
    nrm = float(np.linalg.norm(r))
    if nrm > 0.0:
        r = r / nrm
    hr = hm @ r
    g = hr - np.vdot(r, hr).real * r
    update = np.outer(r, g.conj())
    rotated = hm - 2.0 * (update + update.conj().T)
    u = phase * (np.eye(hm.shape[0]) - 2.0 * np.outer(r, r.conj()))
    check = qfi(state, rotated)
    target = float(w[-1] - w[0]) ** 2
    return TransportResult(u, check, target, degenerate)


# --- separable references ----------------------------------------------------

def uniform_superposition_product(h) -> PureState:
    """Product state with each site in the uniform superposition of its basis."""
    bases, _ = _eigenframe(h)
    d = bases[0].shape[0]
    uniform = np.ones(d, dtype=np.complex128) / math.sqrt(d)
    return product_state([b @ uniform for b in bases])


def optimal_separable_reference(h) -> float:
    """QFI of the uniform-superposition product state, by trace arithmetic.

    The state is uniform in the eigenframe, so its QFI is 4 Var of D under
    p = 1/d^n: 4 (Tr[H^2]/d^n - Tr[H]^2/d^(2n)). For any product-diagonal H
    this witnesses that the Haar expectation is attainable by a separable
    state.
    """
    _, diag = _eigenframe(h)
    dim = diag.shape[0]
    tr1 = float(np.sum(diag))
    tr2 = float(np.sum(diag**2))
    return 4.0 * (tr2 / dim - (tr1 / dim) ** 2)


def max_separable_linear(h: LinearHamiltonian) -> float:
    """Exact separable maximum for a linear Hamiltonian.

    Product-state QFI is additive across sites for a sum of one-site terms,
    and each site's variance is maximized by the balanced superposition of
    the extremal eigenvectors, giving sum_i spread(h_i)^2.
    """
    total = 0.0
    for i in range(h.n):
        lv = h.table[i]
        total += float(np.max(lv) - np.min(lv)) ** 2
    return total


# --- symmetric product optimum for graph Hamiltonians --------------------------

def product_qfi_closed_form(
    s: int, connected: int, lam0: float, lam1: float, p: float
) -> float:
    """QFI of the per-site state sqrt(p)|0> + sqrt(1-p)|1> under a 2-body graph.

    `s` is the edge count and `connected` the ordered count of distinct
    overlapping edge pairs. The relative phase of the site state provably
    drops out, so only p enters. m2 - mu^2 is factored as gap^2 p (1 - p),
    which does not cancel when lam0 >> gap.
    """
    m2 = (lam0**2 - lam1**2) * p + lam1**2
    mu = (lam0 - lam1) * p + lam1
    var = (lam0 - lam1) ** 2 * p * (1.0 - p)
    return 4.0 * var * (s * (m2 + mu**2) + connected * mu**2)


@dataclass(frozen=True)
class ProductScan:
    """Best symmetric product state: the exact maximizer of the closed form over p."""

    p: float
    value: float
    s: int
    connected: int
    lam0: float
    lam1: float


def max_qfi_symmetric_product(
    s: int, connected: int, lam0: float, lam1: float
) -> ProductScan:
    """Exact maximum of product_qfi_closed_form over p in [0, 1].

    m2 and mu are linear in p, so the closed form is a polynomial of degree
    at most 4 and its maximum sits at p = 0, p = 1 or a real root of the
    cubic derivative. Real parts of every root are clipped into [0, 1] and
    tried, so a double root that rounding splits into a complex pair still
    counts; each candidate is valued by the closed form itself. The
    polynomial is the closed form's factored shape over 4 gap^2.
    """
    mu = np.poly1d([lam0 - lam1, lam1])
    m2 = np.poly1d([lam0**2 - lam1**2, lam1**2])
    quartic = np.poly1d([-1.0, 1.0, 0.0]) * (s * (m2 + mu**2) + connected * mu**2)
    roots = np.clip(np.real(quartic.deriv().roots), 0.0, 1.0)
    candidates = [0.0, 1.0, *(float(r) for r in roots)]
    values = [product_qfi_closed_form(s, connected, lam0, lam1, p) for p in candidates]
    i = int(np.argmax(values))
    return ProductScan(candidates[i], values[i], s, connected, lam0, lam1)


def symmetric_product_state(h: GraphHamiltonian, p: float) -> PureState:
    """The symmetric product state at weight p, aligned with each site's basis."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    local = np.array([math.sqrt(p), math.sqrt(1.0 - p)], dtype=np.complex128)
    sites = [op.basis @ local for op in h.site_ops]
    return product_state(sites)
