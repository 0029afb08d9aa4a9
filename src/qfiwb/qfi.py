"""Quantum Fisher information of pure states and its ensemble expectations.

For a pure state and Hamiltonian H the QFI is 4 (<H^2> - <H>^2). Random-state
expectations come in two flavors: the full-space Haar mean and the
symmetric-subspace mean, the latter evaluated through the Dicke frame in the
form 4 (Tr[P H^2 P]/(C + 1) - Tr[P H P]^2 / (C (C + 1))) with P the symmetric
projector and C the subspace dimension.

Every operator is read through one eigenframe H = W diag(D) W^dag with
W = B_1 (x) ... (x) B_n. A typed Hamiltonian (linear, product-diagonal or
graph) is Hermitian by construction and gives its product frame; a bare
array is checked for Hermiticity once and diagonalised as a single site,
W = (V,). A pure state's QFI is 4 Var of D under p = |W^dag psi|^2, so the
symmetric mean, the all-state maximum and the Theorem 11 transport read
only (W, D), as do the Haar mean and the operator norm of a typed H, and
no typed operator is made dense. A bare array pays for eigenvectors only
where they are needed: qfi_batch applies it as a matrix, the Haar mean
reads Tr H and Tr H^2, and the operator norm its eigenvalues. The
separable references need a product frame, so they accept only a typed H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (DomainError, as_complex, check_bytes, check_power_dim, ensure_hermitian, kron_fold, row_dot,
                       row_norms, spectral_norm)
from .hamiltonians import (
    GraphHamiltonian,
    LinearHamiltonian,
    ProductDiagonalHamiltonian,
    SingleSiteOperator,
)
from .states import DickeBasis, PureState, dicke_basis, dim_symmetric, norm_atol, product_state

QFI_CLIP_ATOL = 1e-9
DEGENERACY_ATOL = 1e-12

_TYPED = (LinearHamiltonian, ProductDiagonalHamiltonian, GraphHamiltonian)


def _eigenframe(h) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(site bases, real diagonal D) with H = W diag(D) W^dag.

    A typed Hamiltonian gives its product frame; a bare array is checked
    for Hermiticity and diagonalised as one site, ((V,), w); a stack of
    them (rows, dim, dim), by one stacked eigh, gives V and w a row axis.
    """
    if isinstance(h, np.ndarray):
        w, v = np.linalg.eigh(ensure_hermitian(h))
        return (v,), w
    return _product_frame(h)


def _product_frame(h) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The eigenframe of a typed Hamiltonian, whose W is a product of site bases."""
    if isinstance(h, _TYPED):
        return h.site_bases, h.diagonal()
    raise TypeError(f"{type(h).__name__} is not a typed Hamiltonian with a product eigenframe")


def _frame_rows(a: np.ndarray, bases: tuple[np.ndarray, ...]) -> np.ndarray:
    """Each row psi of `a` as W^dag psi, W = B_1 (x) ... (x) B_n, one site at a time.

    Each step rotates the last site with one (rows d^(n-1), d) x (d, d)
    product and cycles that site to the front, so after n steps the sites
    are back in kron order. A site basis of shape (rows, d, d) rotates each
    row by its own matrix, one (d^(n-1), d) x (d, d) product per row.
    """
    rows, dim = a.shape
    for b in reversed(bases):
        d = b.shape[-1]
        lhs = a.reshape(-1, d) if b.ndim == 2 else a.reshape(rows, dim // d, d)
        a = (lhs @ b.conj()).reshape(rows, dim // d, d).transpose(0, 2, 1)
    return a.reshape(rows, dim)


def _unit_rows(amplitudes: np.ndarray, dim: int) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=np.complex128)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"dimension mismatch: state rows {a.shape}, operator {dim}")
    # `not <=` so that a NaN norm is rejected too
    if not np.all(np.abs(np.linalg.norm(a, axis=1) - 1.0) <= norm_atol(dim)):
        raise ValueError(f"a state row's norm deviates from 1 by more than {norm_atol(dim)}")
    return a


def _clipped_qfi(second: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """4 (<H^2> - <H>^2), with a negative variance beyond rounding an error.

    Rounding in the difference scales with <H^2>, so the tolerance is
    QFI_CLIP_ATOL times max(1, 4 <H^2>).
    """
    raw = 4.0 * (second - mean**2)
    if np.any(raw < -QFI_CLIP_ATOL * np.maximum(1.0, 4.0 * second)):
        raise ArithmeticError(
            f"negative variance {raw.min()} exceeds the numerical-consistency tolerance"
        )
    return np.maximum(raw, 0.0)


def qfi_batch(h, amplitudes: np.ndarray) -> np.ndarray:
    """QFI of many states at once; rows of `amplitudes` are unit state vectors.

    A typed H is evaluated in its eigenframe (see qfi_frames); a bare array
    is checked for Hermiticity and applied as a matrix, and a stack of them
    (rows, dim, dim) applies matrix i to row i, as its one-row call would
    bit for bit. An empty (0, dim) batch gives an empty result.
    """
    if not isinstance(h, np.ndarray):
        return qfi_frames(amplitudes, *_product_frame(h))
    return _matrix_qfis(ensure_hermitian(h), amplitudes)


def _matrix_qfis(hm: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """qfi_batch of a bare array or stack already checked Hermitian."""
    a = _unit_rows(amplitudes, hm.shape[-1])
    y = a @ hm.T if hm.ndim == 2 else (a[:, np.newaxis, :] @ hm.swapaxes(-1, -2))[:, 0]
    second = np.sum(np.abs(y) ** 2, axis=1)
    mean = np.real(np.sum(np.conjugate(a) * y, axis=1))
    return _clipped_qfi(second, mean)


def qfi_frames(amplitudes: np.ndarray, bases: tuple[np.ndarray, ...], diag: np.ndarray) -> np.ndarray:
    """QFI of each unit row psi under H = W diag(D) W^dag, as 4 (p.D^2 - (p.D)^2).

    p = |W^dag psi|^2, W = B_1 (x) ... (x) B_n. A site basis of shape
    (rows, d, d) and a D of shape (rows, dim) give each row its own
    Hamiltonian; row i's value then equals its one-row call bit for bit,
    as each row's dot products are taken on their own (row_dot).
    """
    a = _unit_rows(amplitudes, diag.shape[-1])
    p = np.abs(_frame_rows(a, bases)) ** 2
    if diag.ndim == 1:
        return _clipped_qfi(p @ diag**2, p @ diag)
    return _clipped_qfi(row_dot(p, diag**2), row_dot(p, diag))


def qfi(state: PureState, h) -> float:
    """QFI of one state: the one-row case of qfi_batch."""
    return float(qfi_batch(h, state.amplitudes[None, :])[0])


# --- ensemble expectations ---------------------------------------------------

def _square(x):
    """x^2 elementwise through libm pow, as a Python or numpy scalar's `x ** 2` rounds.

    Array `x ** 2` is x * x, which can differ from pow(x, 2) in the last
    bit; the closed forms below square sums as their one-value versions
    always did, so a stack of them gives each value bit for bit.
    """
    return np.float_power(x, 2)


def _sphere_mean(tr1: float, tr2: float, dim: int) -> float:
    """Mean QFI over the unit sphere of a dim-dimensional space, from Tr H, Tr H^2."""
    return 4.0 * (tr2 / (dim + 1) - tr1 * tr1 / (dim * (dim + 1)))


def expected_qfi_haar(h) -> float:
    """Haar mean of the QFI over the full space, exact for any Hermitian H."""
    if isinstance(h, np.ndarray):  # Tr H^2 = sum |h_ij|^2 for Hermitian H
        hm = ensure_hermitian(h)
        return _sphere_mean(float(np.real(np.trace(hm))), float(np.vdot(hm, hm).real), hm.shape[0])
    return float(expected_qfi_haar_diagonals(_product_frame(h)[1]))


def expected_qfi_haar_diagonals(diags: np.ndarray) -> np.ndarray:
    """Haar means of the QFI from eigenframe diagonals (..., dim), by trace sums."""
    return _sphere_mean(diags.sum(axis=-1), (diags**2).sum(axis=-1), diags.shape[-1])


def expected_qfi_symmetric(h, n: int, d: int, basis: DickeBasis | None = None) -> float:
    """Symmetric-subspace mean of the QFI from Tr[P H P] and Tr[P H^2 P].

    A LinearHamiltonian on (n, d) sites takes both traces in closed form
    from its level table. P commutes with the shared basis rotation, and
    every Dicke state has the same one- and two-site marginals, so the
    traces are C times moments of a uniform composition m of n into d
    parts: E m_a = n/d, E m_a m_b = n(n-1)/(d(d+1)) for a != b and
    E m_a^2 = n(2n+d-1)/(d(d+1)), which collapse the pair sum onto the
    table's row and column sums. Any other H goes through its eigenframe:
    with p the column sums of |W^dag Dicke|^2 over the Dicke states,
    Tr[P H P] = p.D and Tr[P H^2 P] = p.D^2.
    """
    if isinstance(h, LinearHamiltonian) and (h.n, h.d) == (n, d):
        return float(expected_qfi_symmetric_tables(h.table))
    bases, diag = _eigenframe(h)
    if diag.size != check_power_dim(d, n):
        raise ValueError("operator dimension does not match (n, d)")
    size = dim_symmetric(n, d)
    check_bytes(16 * size * diag.size, f"rotated Dicke frame of {size} x {diag.size} amplitudes")
    if basis is None:
        basis = dicke_basis(n, d)
    p = np.sum(np.abs(_frame_rows(basis.lift(np.eye(basis.size)), bases)) ** 2, axis=0)
    return _sphere_mean(float(p @ diag), float(p @ diag**2), basis.size)


def expected_qfi_symmetric_tables(tables: np.ndarray) -> np.ndarray:
    """Symmetric-subspace means of linear Hamiltonians from level tables (..., n, d).

    The closed form of expected_qfi_symmetric, one value per table: its
    traces are sums over the table, its row sums and its column sums.
    """
    n, d = tables.shape[-2:]
    c = dim_symmetric(n, d)
    if (c * (c + 1)).bit_length() > 1023:  # _sphere_mean divides by it as a double
        raise DomainError(f"the symmetric subspace dimension C({n + d - 1}, {n}) is too large for a double")
    total, sq = tables.sum(axis=(-2, -1)), (tables**2).sum(axis=(-2, -1))
    rows, cols = tables.sum(axis=-1), tables.sum(axis=-2)
    pairs = _square(total) - row_dot(rows, rows) + row_dot(cols, cols) - sq
    return _sphere_mean(c * total / d, c * (sq / d + pairs / (d * (d + 1))), c)


def _level_variance(levels: np.ndarray) -> np.ndarray:
    """Tr(h^2)/d - Tr(h)^2/d^2 from one-site levels (..., d)."""
    d = levels.shape[-1]
    return np.sum(levels**2, axis=-1) / d - _square(np.sum(levels, axis=-1) / d)


def site_variance_term(site: SingleSiteOperator) -> float:
    """Tr(h^2)/d - Tr(h)^2/d^2 for a one-site operator."""
    return float(_level_variance(np.asarray(site.levels)))


def expected_qfi_haar_linear(site: SingleSiteOperator, n: int) -> float:
    """Closed-form Haar mean for an equal-row linear Hamiltonian."""
    d = site.d
    dim = check_power_dim(d, n)
    return 4.0 * n * (dim / (dim + 1)) * site_variance_term(site)


def expected_qfi_symmetric_linear(site: SingleSiteOperator, n: int) -> float:
    """Closed-form symmetric-subspace mean for an equal-row linear Hamiltonian."""
    return float(expected_qfi_symmetric_levels(np.asarray(site.levels), n))


def expected_qfi_symmetric_levels(levels: np.ndarray, n: int) -> np.ndarray:
    """expected_qfi_symmetric_linear for the equal rows `levels` (..., d), one value each."""
    d = levels.shape[-1]
    c = dim_symmetric(n, d)
    return 4.0 * (n * (n + d) / (d + 1)) * (c / (c + 1)) * _level_variance(levels)


# --- concentration -----------------------------------------------------------

def lipschitz_constant(h) -> float:
    """2 ||H^2|| + 2 sqrt(2) ||H||^2, the Levy-function Lipschitz scale."""
    # For Hermitian H, ||H^2|| = ||H||^2, so one norm gives both terms.
    if isinstance(h, np.ndarray):
        norm = spectral_norm(ensure_hermitian(h))  # eigenvalues only
    else:
        norm = float(np.max(np.abs(_product_frame(h)[1])))
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
        raise DomainError("dim must be positive")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    lip = lipschitz_constant(h)
    # lip^2 = 0 means H = 0 (or a scale whose square underflows): the tails
    # are exactly 0.
    scale = 9.0 * math.pi**3 * lip**2
    x = math.inf if scale == 0.0 else 2.0 * dim * epsilon**2 / scale
    two = 2.0 * math.exp(-x)
    one = 2.0 * math.exp(-x / math.log(2.0))
    return ConcentrationBound(float(epsilon), int(dim), lip, two, one)


# --- extremal states ---------------------------------------------------------

def _extremal_witness(bases: tuple[np.ndarray, ...], diag: np.ndarray) -> tuple[np.ndarray, ...]:
    """(spread(H)^2, tau, degenerate) of each row of an eigenframe, diag (rows, dim).

    A site basis (d, d) is shared by every row, one (rows, d, d) is row i's
    own. tau = (w_max + w_min)/sqrt(2) over the product columns of W at the
    lowest index of D within DEGENERACY_ATOL of its maximum and of its
    minimum (just w_min if the two coincide, when D is constant);
    `degenerate` flags an extreme that D attains more than once.
    """
    lo, hi = diag.min(axis=-1), diag.max(axis=-1)
    tol = DEGENERACY_ATOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    at_min, at_max = diag <= (lo + tol)[:, None], diag >= (hi - tol)[:, None]
    i_min, i_max = np.argmax(at_min, axis=-1), np.argmax(at_max, axis=-1)
    dims, rows = [b.shape[-1] for b in bases], np.arange(len(diag))
    stacks = [np.broadcast_to(b, (len(diag), d, d)) for b, d in zip(bases, dims)]
    ends = [np.unravel_index(i, dims) for i in (i_min, i_max)]
    w_min, w_max = [kron_fold(np.multiply, [b[rows, :, j] for b, j in zip(stacks, at)]) for at in ends]
    tau = np.where((i_min == i_max)[:, None], w_min, (w_min + w_max) / math.sqrt(2.0))
    degenerate = (at_min.sum(axis=-1) > 1) | (at_max.sum(axis=-1) > 1)
    return _square(hi - lo), tau, degenerate


def max_qfi_all_states(h) -> tuple[float, PureState]:
    """Maximum QFI over all pure states and a state achieving it.

    The value is the squared spectral spread; the state is the balanced
    superposition of the extremal eigenvectors of H's eigenframe at the
    lowest index of D within DEGENERACY_ATOL of each extreme, so it is
    deterministic under degeneracy and is the tau of
    global_unitary_transport.
    """
    bases, diag = _eigenframe(h)
    target, tau, _ = _extremal_witness(bases, diag[None, :])
    return float(target[0]), PureState(len(bases), bases[0].shape[0], tau[0])


@dataclass(frozen=True)
class TransportResult:
    """Unitary that moves a given state onto an extremal-QFI configuration.

    U = phase (I - 2 r r^dag), r the unit (or zero) `reflector`, satisfies
    U^dag psi = tau, the witness of max_qfi_all_states, so QFI(psi, U H
    U^dag) = QFI(U^dag psi, H); `check` is that QFI, taken from U^dag psi
    without forming U, and should equal `target` = spread(H)^2. The unit
    `phase` makes the overlap of phase tau and psi real and non-negative,
    so that the reflector swaps them. In transport_batch's result every
    field holds one entry per state row.
    """

    phase: complex
    reflector: np.ndarray
    check: float
    target: float
    degenerate: bool


def transport_batch(amplitudes: np.ndarray, h) -> TransportResult:
    """The transport of each unit row of `amplitudes`, as arrays over the rows.

    `h` is a typed Hamiltonian or a bare (dim, dim) array shared by every
    row, or a stack of bare arrays (rows, dim, dim), one per row, which is
    diagonalised by one stacked eigh. With a stack, row i's values equal
    global_unitary_transport of row i under h[i], bit for bit. A bare
    array is checked Hermitian once, in _eigenframe, for its check QFI too.
    """
    bases, diag = _eigenframe(h)
    psi = _unit_rows(amplitudes, diag.shape[-1])
    target, tau, degenerate = _extremal_witness(bases, np.broadcast_to(diag, psi.shape))
    overlap = row_dot(tau.conj(), psi)
    # overlap / |overlap| as a complex scalar rounds it: times 1 / hypot
    live = overlap != 0
    phase = np.ones_like(overlap)
    phase[live] = overlap[live] * (1.0 / np.hypot(overlap.real[live], overlap.imag[live]))
    r = phase[:, None] * tau - psi
    nrm = row_norms(r)[:, None]
    r = np.divide(r, nrm, out=r, where=nrm > 0.0)
    moved = np.conj(phase)[:, None] * (psi - 2.0 * r * row_dot(r.conj(), psi)[:, None])
    check = _matrix_qfis(as_complex(h), moved) if isinstance(h, np.ndarray) else qfi_frames(moved, bases, diag)
    return TransportResult(phase, r, check, target, degenerate)


def global_unitary_transport(state: PureState, h) -> TransportResult:
    """The one-row case of transport_batch."""
    res = transport_batch(state.amplitudes[None, :], h)
    return TransportResult(complex(res.phase[0]), res.reflector[0], float(res.check[0]),
                           float(res.target[0]), bool(res.degenerate[0]))


# --- separable references ----------------------------------------------------

def optimal_separable_reference(h) -> float:
    """QFI of the uniform-superposition product state, by trace arithmetic.

    The state is uniform in the eigenframe, so its QFI is 4 Var of D under
    p = 1/d^n: 4 (Tr[H^2]/d^n - Tr[H]^2/d^(2n)). For any product-diagonal H
    this witnesses that the Haar expectation is attainable by a separable
    state.
    """
    return float(separable_reference_diagonals(_product_frame(h)[1]))


def separable_reference_diagonals(diags: np.ndarray) -> np.ndarray:
    """optimal_separable_reference from eigenframe diagonals (..., dim), one value each."""
    dim = diags.shape[-1]
    tr1, tr2 = np.sum(diags, axis=-1), np.sum(diags**2, axis=-1)
    return 4.0 * (tr2 / dim - _square(tr1 / dim))


def max_separable_linear(h: LinearHamiltonian) -> float:
    """Exact separable maximum for a linear Hamiltonian.

    Product-state QFI is additive across sites for a sum of one-site terms,
    and each site's variance is maximized by the balanced superposition of
    the extremal eigenvectors, giving sum_i spread(h_i)^2.
    """
    return float(max_separable_tables(h.table))


def max_separable_tables(tables: np.ndarray) -> np.ndarray:
    """max_separable_linear from level tables (..., n, d), one value each."""
    return np.sum(_square(tables.max(axis=-1) - tables.min(axis=-1)), axis=-1)


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
