"""Epsilon-nets over banded linear families and the union-bound calculator.

Coefficient grids and qubit basis nets (a `states.BlochGrid`) are
constructed concretely, so the covering claims can be audited by direct
sampling at desk scale: one audit loop checks the operator-norm cover
("cover") and the two deviation functionals ("prop8", "prop9"), and the
distance to the net is evaluated in closed form from one-site spectra, with
no dense operator.  For local dimension above two the module is
calculator-only: it evaluates net sizes and the two tail-probability bounds
in log domain, where the constructions themselves would have astronomically
many elements.

The proof constant relating a pure-state net's resolution to the operator
error it induces is never fixed upstream; it enters every parameter choice
here as an explicit argument with default `PROP6_C`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import (
    LinearHamiltonian,
    _ensure_finite,
    _ensure_unitaries,
    _haar_site_bases,
    to_spec_text,
)
from .numerics import (
    DomainError,
    Rng,
    block_rows,
    check_bytes,
    check_power_dim,
    check_words,
    complex_normals,
    haar_unitaries,
    kron_fold,
    row_norms,
)
from .qfi import expected_qfi_symmetric_levels, max_separable_tables, qfi_frames
from .states import (
    BlochGrid,
    dicke_basis,
    dim_symmetric,
    trace_distance_qubit,  # noqa: F401 -- re-exported
)

PROP6_C = 18.0
SQRT2 = math.sqrt(2.0)

EPSILON_MODES = ("prop7", "result1", "result3")
SIZE_KINDS = ("result1", "result3")
THEOREM_KINDS = ("thm7", "thm9")
AUDIT_KINDS = ("cover", "prop8", "prop9")


# --- coefficient grid ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoefficientGrid:
    """Two mirrored ladders of coefficient values covering [-B,-A] u [A,B].

    Points descend from +B and ascend from -B in steps of 2*eps_c, so every
    admissible magnitude is within eps_c of a rung.  The lowest rung may
    undershoot A; that is how the printed construction reads and it only
    helps the covering.
    """

    A: float
    B: float
    eps_c: float
    points: np.ndarray

    def __post_init__(self):
        if not (self.B > self.A > 0.0):
            raise DomainError(f"need B > A > 0, got A={self.A}, B={self.B}")
        if self.eps_c <= 0.0:
            raise DomainError(f"eps_c must be positive, got {self.eps_c}")
        pts = np.asarray(self.points, dtype=float)
        ladder = pts[: pts.size // 2]
        if pts.ndim != 1 or not ladder.size or pts.size % 2 or np.any(np.diff(ladder) >= 0) \
                or np.any(pts[ladder.size:] != -ladder):
            raise ValueError("points must be a 1-D descending ladder followed by its mirror")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return int(self.points.size)

    def nearest(self, x):
        """Nearest rung to x, elementwise over an array of any shape.

        Each ladder is monotone, so its nearest rungs are the two that
        bracket x (the mirror's bracket x where the ladder's bracket -x); of
        those four candidates the first closest in `points` order wins,
        which is the rung a scan of `points` picks unless |x| is so large
        (near 2^52 eps_c) that rounding ties rungs that do not bracket it.
        """
        x = np.asarray(x, dtype=float)
        m = self.points.size // 2
        k = m - np.searchsorted(self.points[m - 1::-1], np.stack([x, x, -x, -x], axis=-1))
        cand = np.clip(k - (1, 0, 1, 0), 0, m - 1) + (0, 0, m, m)
        best = np.argmin(np.abs(x[..., None] - self.points[cand]), axis=-1)
        return self.points[np.take_along_axis(cand, best[..., None], -1)[..., 0]]


def coefficient_grid(A: float, B: float, eps_c: float) -> CoefficientGrid:
    """Grid {+-B -+ 2 eps_c k, k = 0..ceil((B-A)/(2 eps_c))}, both signs."""
    if not (B > A > 0.0):
        raise DomainError(f"need B > A > 0, got A={A}, B={B}")
    if eps_c <= 0.0:
        raise DomainError(f"eps_c must be positive, got {eps_c}")
    extent = (B - A) / (2.0 * eps_c)
    check_bytes(16 * (extent + 1), f"coefficient ladder of {extent:.3g} rungs")
    k = np.arange(math.ceil(extent) + 1, dtype=float)
    ladder = B - 2.0 * eps_c * k
    return CoefficientGrid(A, B, eps_c, np.concatenate([ladder, -ladder]))


# --- qubit pure-state net -----------------------------------------------------

def pure_state_net_qubit(eps_p: float) -> BlochGrid:
    """Bloch grid whose trace-distance covering radius is <= eps_p.

    Arc budget: rows are spaced so the polar move costs at most half the
    2*eps_p chord target and the azimuthal move along the row costs the
    other half; chord <= arc and trace distance is half the Bloch chord,
    which closes the bound.
    """
    if not (0.0 < eps_p < 1.0):
        raise DomainError(f"eps_p must lie in (0, 1), got {eps_p}")
    delta = 2.0 * eps_p
    extent = math.pi / delta
    check_bytes(8 * (extent + 1), f"Bloch net of {extent:.3g} rows")
    rows = math.ceil(extent)
    thetas = BlochGrid.polar_angle(np.arange(rows), rows)
    counts = np.maximum(1, np.ceil(2.0 * math.pi * np.sin(thetas) / delta)).astype(np.int64)
    net = BlochGrid(counts)
    if net.count > (5.0 / eps_p) ** 4:
        raise RuntimeError("constructed net exceeds its cardinality bound")
    return net


# --- parameter choices and size/probability bounds ----------------------------

@dataclass(frozen=True)
class BoundParams:
    """Family description feeding the net sizes and tail bounds.

    `a` is the largest one-site operator norm over the family; record where
    it came from (a measured spectral norm or a scaling model) so reported
    bounds stay auditable.
    """

    n: int
    d: int
    s_coff: float
    s_basis: float
    A: float
    B: float
    a: float
    norm_A0: float
    c: float
    eps: float
    a_provenance: str = "measured"

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise DomainError("n and d must be positive integers")
        for name in ("s_coff", "s_basis", "a", "c", "eps"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive")
        if not (self.B > self.A > 0.0):
            raise DomainError(f"need B > A > 0, got A={self.A}, B={self.B}")
        if self.norm_A0 < 0.0:
            raise DomainError("norm_A0 must be non-negative")


def epsilon_choices(
    eps: float,
    params: BoundParams,
    mode: str,
    prop6_c: float = PROP6_C,
) -> tuple[float, float]:
    """Printed (eps_p, eps_c) pair for the selected covering guarantee.

    "prop7" targets operator-norm cover of the family itself; "result1" and
    "result3" target the two deviation functionals, whose stronger demands
    show up as the squared base in eps_p and the longer eps_c denominators.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    if prop6_c <= 0.0:
        raise DomainError(f"prop6_c must be positive, got {prop6_c}")
    if mode not in EPSILON_MODES:
        raise DomainError(f"mode must be one of {EPSILON_MODES}, got {mode!r}")
    p = params
    base = p.s_coff * p.B * p.a + p.norm_A0
    if mode == "prop7":
        eps_p = eps / (2.0 * SQRT2 * p.d * prop6_c * p.s_basis * base)
        eps_c = eps / (2.0 * p.s_coff * p.a)
        return eps_p, eps_c
    eps_p = eps / (8.0 * (1.0 + 2.0 * SQRT2) * p.d * prop6_c * p.s_basis * base**2)
    common = (
        2.0 * p.s_coff * p.B * p.a
        + p.s_coff**2 * (2.0 * p.B + 2.0) * p.a**2
        + 2.0 * p.s_coff * p.norm_A0 * p.a
    )
    if mode == "result1":
        eps_c = eps / (8.0 * (common + 4.0 * p.B * p.n * (p.n + p.d) / p.d))
    else:
        eps_c = eps / (8.0 * (common + 4.0 * base * p.s_coff * p.a))
    return eps_p, eps_c


def net_size_bound(params: BoundParams, which: str, prop6_c: float = PROP6_C) -> float:
    """Log of the printed net-cardinality bound at the matching choices.

    The coefficient base keeps its literal "+4"; the whole product is
    returned in log domain because the exponents run to d*n and beyond.
    """
    if which not in SIZE_KINDS:
        raise DomainError(f"which must be one of {SIZE_KINDS}, got {which!r}")
    eps_p, eps_c = epsilon_choices(params.eps, params, which, prop6_c)
    if eps_p == 0.0 or eps_c == 0.0:
        raise DomainError(f"eps = {params.eps} is too small: a net accuracy underflows to 0")
    # Differences of logs: the quotients overflow once eps is near DBL_MIN.
    coeff_log = math.log(params.B - params.A + 4.0 * eps_c) - math.log(eps_c)
    basis_log = math.log(5.0) - math.log(eps_p)
    if which == "result1":
        return params.d * params.n * coeff_log + params.d * (params.d + 1) * basis_log
    return (
        params.s_coff * coeff_log
        + params.d * (params.d + 1) * params.s_basis * basis_log
    )


@dataclass(frozen=True)
class TheoremBound:
    """Log-domain pieces of a union-bound tail probability."""

    which: str
    log_prefactor: float
    log_exponential: float
    log_total: float
    vacuous: bool


def theorem_bound(
    params: BoundParams,
    which: str,
    d_min: float = 0.0,
    prop6_c: float = PROP6_C,
) -> TheoremBound:
    """Net-size prefactor times concentration tail, in log domain.

    "thm7" concentrates over the symmetric subspace, so the dimension count
    is the composition count and the Lipschitz scale is the family's
    operator-norm bound n*B*a + norm_A0.  "thm9" concentrates over the full
    product space with dimension d^n and scale s_coff*B*a + norm_A0.  The
    deviation margin c - eps + d_min enters squared; when it is not
    positive the tail saturates at one and only the prefactor survives.
    d_min defaults to the conservative zero (the mean-gap term it stands
    for is non-negative, so dropping it can only loosen the bound).  A bound
    whose logs are not finite doubles (d^n past 2^1020, a net accuracy that
    over- or underflows) raises DomainError: a float cannot hold it.
    """
    if which not in THEOREM_KINDS:
        raise DomainError(f"which must be one of {THEOREM_KINDS}, got {which!r}")
    if d_min < 0.0:
        raise DomainError(f"d_min must be non-negative, got {d_min}")
    p = params
    if which == "thm7":
        size_log = net_size_bound(p, "result1", prop6_c)
        dim = dim_symmetric(p.n, p.d)
        scale = p.n * p.B * p.a + p.norm_A0
    else:
        size_log = net_size_bound(p, "result3", prop6_c)
        dim = p.d**p.n
        scale = p.s_coff * p.B * p.a + p.norm_A0
    log_prefactor = math.log(2.0) + size_log
    dev = p.c - p.eps + d_min
    if dev <= 0.0:
        log_exponential = 0.0
    else:
        dimf = float(dim) if dim.bit_length() < 1020 else math.inf
        denom = (
            144.0
            * math.pi**3
            * math.log(2.0)
            * (2.0 + 2.0 * SQRT2) ** 2
            * scale**4
        )
        log_exponential = -2.0 * dimf * dev * dev / denom
    log_total = log_prefactor + log_exponential
    if not (math.isfinite(log_exponential) and math.isfinite(log_total)):
        raise DomainError(
            f"the {which} bound at n = {p.n}, d = {p.d} is not a finite double "
            f"(log_exponential {log_exponential}, log_total {log_total})"
        )
    return TheoremBound(which, log_prefactor, log_exponential, log_total, log_total >= 0.0)


# --- constructed net over a banded linear family ------------------------------

@dataclass(frozen=True, eq=False)
class LinearFamilyNet:
    """Concrete net over shared-basis linear Hamiltonians at d = 2.

    An element is a choice of basis frame from `basis_net` plus one grid
    rung per site and level, exactly the product structure the size bounds
    count.
    """

    n: int
    d: int
    grid: CoefficientGrid
    basis_net: BlochGrid

    def nearest(self, table: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, ...]:
        """Snap H = (level tables (..., n, d), bases (..., d, d)) to elements H'.

        Returns the elements' tables and frames and the distances ||H - H'||;
        only a frame's projectors matter, but the snapped frame is kept.  The
        distance is the exact operator norm, in closed form: H - H' is a sum
        of one-site Hermitian terms A_i on distinct sites, so its extreme
        eigenvalues are the sums of the A_i's extreme eigenvalues.
        """
        if table.shape[-2:] != (self.n, self.d) or basis.shape[-2:] != (self.d, self.d):
            raise ValueError(
                f"family mismatch: net is ({self.n}, {self.d}), "
                f"tables are {table.shape[-2:]} and bases {basis.shape[-2:]}"
            )
        frame = self.basis_net.frame_at(self.basis_net.nearest_index(basis[..., :, 0]))
        rep = self.grid.nearest(table)
        b, f = basis[..., None, :, :], frame[..., None, :, :]  # B diag(levels_i) B^dag per site
        diffs = (b * table[..., None, :]) @ np.conj(b).swapaxes(-1, -2)
        spectra = np.linalg.eigvalsh(diffs - (f * rep[..., None, :]) @ np.conj(f).swapaxes(-1, -2))
        return rep, frame, np.maximum(abs(spectra[..., -1].sum(-1)), abs(spectra[..., 0].sum(-1)))


def build_linear_net(
    params: BoundParams, mode: str, prop6_c: float = PROP6_C
) -> LinearFamilyNet:
    """Constructed net at the printed choices; qubit sites only."""
    if params.d != 2:
        raise DomainError("constructive nets are implemented for d = 2 only")
    eps_p, eps_c = epsilon_choices(params.eps, params, mode, prop6_c)
    return LinearFamilyNet(
        params.n, params.d, coefficient_grid(params.A, params.B, eps_c),
        pure_state_net_qubit(eps_p),
    )


def _banded(u: np.ndarray, A: float, B: float) -> np.ndarray:
    """Magnitudes uniform in [A, B] from the first half of each row of u, signs from the second."""
    if not (B > A > 0.0):
        raise DomainError(f"need B > A > 0, got A={A}, B={B}")
    half = u.shape[-1] // 2
    mags = A + (B - A) * u[:, :half]
    return mags * np.where(u[:, half:] < 0.5, -1.0, 1.0)


def linear_banded_words(n: int, d: int) -> int:
    """Uniform words of one banded linear draw: n d magnitudes, n d signs, a Haar block of 2 d^2."""
    return 2 * n * d + 2 * d * d


def sample_linear_banded_arrays(
    u: np.ndarray, n: int, d: int, A: float, B: float
) -> tuple[np.ndarray, np.ndarray]:
    """Level tables (T, n, d) and shared bases (T, d, d) of banded linear family members.

    |levels| are uniform in [A, B] with random signs, under a Haar shared
    basis. Row t of the uniforms u (T, linear_banded_words(n, d)) holds
    trial t's words in draw order: magnitudes and signs row by row, then
    the basis.
    """
    check_words(u, linear_banded_words(n, d))
    cells = 2 * n * d
    tables = _banded(u[:, :cells], A, B).reshape(u.shape[0], n, d)
    bases = haar_unitaries(u[:, cells:], d)
    return _ensure_finite(tables, "level tables"), _ensure_unitaries(bases, "shared bases")


def product_banded_words(n: int, d: int) -> int:
    """Uniform words of one banded product draw: n Haar blocks of 2 d^2, d^n magnitudes, d^n signs."""
    return 2 * n * d * d + 2 * check_power_dim(d, n, 16, "banded coefficient row")


def sample_product_banded_arrays(
    u: np.ndarray, n: int, d: int, A: float, B: float
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (T, d^n) and site bases (T, n, d, d) of banded product-diagonal members.

    Haar site bases, then |coefficients| uniform in [A, B] with random
    signs. Row t of the uniforms u (T, product_banded_words(n, d)) holds
    trial t's words in draw order: the site bases, site 1 first, then the
    diagonal.
    """
    check_words(u, product_banded_words(n, d))
    blocks = 2 * n * d * d
    return _ensure_finite(_banded(u[:, blocks:], A, B), "coeffs"), _haar_site_bases(u[:, :blocks], n, d)


# --- audits -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AuditReport:
    which: str
    eps: float
    trials: int
    max_value: float
    violations: int
    values: np.ndarray
    counterexamples: tuple[str, ...]


def net_cover_audit(
    net: LinearFamilyNet, eps: float, trials: int, rng: Rng
) -> AuditReport:
    """The "cover" case of `property_audit`."""
    return property_audit(net, eps, trials, "cover", rng)


def property_audit(
    net: LinearFamilyNet,
    eps: float,
    trials: int,
    which: str,
    rng: Rng,
) -> AuditReport:
    """Check a snapping property on sampled family members, eps per trial.

    Trial t draws H from the net's own band, sample_linear_banded_arrays
    on a row of rng.substream(t), and snaps it to its net representative H'.
    "cover" checks the distance ||H - H'|| itself; "prop8" compares the QFI
    of a random symmetric state against the symmetric-subspace mean at the
    permutation-averaged Hamiltonian, and "prop9" the QFI of a random pure
    state against the exact separable maximum, each as the absolute change
    of that gap between H and H'.  The state's words follow H's on the
    trial's stream, as sample_symmetric and sample_haar would read them.

    All trials are drawn in one pass (Rng.substream_uniforms), validated as
    stacks, and snapped in one LinearFamilyNet.nearest call.  The states are
    lifted in blocks of `numerics.block_rows` statevectors, and each block's
    QFIs under H and under H' are one qfi_frames call each, with a frame per
    row; each value equals the one-trial computation bit for bit.
    Violations do not raise; they are reported with the offending
    Hamiltonian serialized, so a deliberately coarsened net shows up as a
    negative control rather than a crash.
    """
    if which not in AUDIT_KINDS:
        raise DomainError(f"which must be one of {AUDIT_KINDS}, got {which!r}")
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    n, d = net.n, net.d
    h_words = linear_banded_words(n, d)
    basis = dicke_basis(n, d) if which == "prop8" else None
    dim = 0 if which == "cover" else check_power_dim(d, n)
    u = rng.substream_uniforms(range(trials), h_words + 2 * (dim if basis is None else basis.size))
    tables, bases = sample_linear_banded_arrays(u[:, :h_words], n, d, net.grid.A, net.grid.B)
    rep_tables, frames, values = net.nearest(tables, bases)
    if which != "cover":
        step = block_rows(16 * dim)  # state rows per block, as cli._state_qfis takes them
        qfis = np.empty((2, trials))
        for lo in range(0, trials, step):
            rows = slice(lo, lo + step)
            z = complex_normals(u[rows, h_words:])
            if basis is not None:
                z = basis.lift(z)
            states = z / row_norms(z)[:, None]
            for side, (t, b) in enumerate(((tables, bases), (rep_tables, frames))):
                qfis[side, rows] = qfi_frames(states, (b[rows],) * n, kron_fold(np.add, np.moveaxis(t[rows], -2, 0)))
        both = np.stack([tables, rep_tables])
        if which == "prop8":
            gaps = qfis - expected_qfi_symmetric_levels(both.mean(axis=-2), n)
        else:
            gaps = qfis - max_separable_tables(both)
        values = np.abs(gaps[0] - gaps[1])
    failed = ~(values <= eps)
    values.setflags(write=False)
    return AuditReport(
        which, eps, trials, float(values.max(initial=0.0)), int(failed.sum()), values,
        tuple(to_spec_text(LinearHamiltonian(tables[t], bases[t])) for t in np.flatnonzero(failed)),
    )
