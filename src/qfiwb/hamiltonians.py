"""Hamiltonian families: linear, product-diagonal, and k-body graph forms.

Every family has product eigenvectors: H = W diag(D) W^dag with
W = B_1 (x) ... (x) B_n. `site_bases` holds the B_s and `diagonal()` the
real D in kron order, so spectra, traces and QFIs need no dense matrix.

Site labels in hyperedges and file formats are 1-based (site 1 is the
leftmost tensor factor, i.e. the most significant digit of a basis index).
Level/basis-column indices are 0-based. All arrays are immutable by
convention; constructors validate and copy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .numerics import (
    Rng,
    as_complex,
    check_dense_power,
    check_power_dim,
    check_words,
    content_lines,
    haar_unitaries,
    kron_all,
    kron_fold,
)

UNITARY_ATOL = 1e-10


def _ensure_unitaries(b: np.ndarray, what: str) -> np.ndarray:
    """A matrix or a stack (..., d, d), checked unitary in one pass.

    The test is `not (dev <= atol)`, so a NaN deviation fails too; a stack
    names its first bad index.
    """
    b = as_complex(b)
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {b.shape}")
    eye = np.eye(b.shape[-1])
    dev = np.max(np.abs(np.conj(b).swapaxes(-1, -2) @ b - eye), axis=(-2, -1))
    bad = ~(dev <= UNITARY_ATOL)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        where = f" [{', '.join(str(int(i)) for i in at)}]" if at else ""
        raise ValueError(f"{what}{where} is not unitary: max deviation {dev[at]:.3e}")
    return b


def _ensure_unitary(b: np.ndarray, what: str) -> np.ndarray:
    b = as_complex(b)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {b.shape}")
    return _ensure_unitaries(b, what)


def _ensure_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    return x


def _ensure_levels(levels: Sequence[float], d: int | None = None) -> tuple[float, ...]:
    out = tuple(float(x) for x in levels)
    if d is not None and len(out) != d:
        raise ValueError(f"expected {d} levels, got {len(out)}")
    if not all(math.isfinite(x) for x in out):
        raise ValueError("levels must be finite reals")
    return out


@dataclass(frozen=True, eq=False)
class SingleSiteOperator:
    """One-site Hermitian operator given by its eigenlevels and eigenbasis.

    Column j of `basis` is the eigenvector carrying levels[j].
    """

    levels: tuple[float, ...]
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "levels", _ensure_levels(self.levels))
        b = _ensure_unitary(self.basis, "site basis")
        if b.shape[0] != len(self.levels):
            raise ValueError(
                f"basis dimension {b.shape[0]} does not match {len(self.levels)} levels"
            )
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def d(self) -> int:
        return len(self.levels)

    @property
    def matrix(self) -> np.ndarray:
        return (self.basis * np.asarray(self.levels)) @ self.basis.conj().T

    @property
    def gap(self) -> float:
        """Smallest pairwise distance between levels (inf for d = 1)."""
        pairs = itertools.combinations(self.levels, 2)
        return min((abs(a - b) for a, b in pairs), default=math.inf)

    @property
    def is_computational(self) -> bool:
        return bool(np.allclose(self.basis, np.eye(self.d), atol=UNITARY_ATOL))

    @classmethod
    def computational(cls, levels: Sequence[float]) -> "SingleSiteOperator":
        levels = _ensure_levels(levels)
        return cls(levels, named_basis("computational", len(levels)))

    @classmethod
    def plus_minus(cls, levels: Sequence[float]) -> "SingleSiteOperator":
        """Qubit operator diagonal in the Hadamard basis (columns |+>, |->)."""
        return cls(_ensure_levels(levels, d=2), named_basis("plus_minus", 2))

    @classmethod
    def explicit(cls, levels: Sequence[float], basis: np.ndarray) -> "SingleSiteOperator":
        return cls(tuple(levels), np.array(basis, dtype=np.complex128))


BASIS_NAMES = ("computational", "plus_minus", "explicit")


def named_basis(name: str, d: int) -> np.ndarray:
    if name == "computational":
        check_power_dim(d, 2, 16, "site basis")
        return np.eye(d, dtype=np.complex128)
    if name == "plus_minus":
        if d != 2:
            raise ValueError("plus_minus basis is only defined for d = 2")
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
    raise ValueError(f"unknown basis name {name!r}")


@dataclass(frozen=True, eq=False)
class LinearHamiltonian:
    """Sum of one-site terms sharing a single eigenbasis.

    Row i of `table` holds the levels of site i+1; `basis` holds the shared
    eigenvectors as columns.
    """

    table: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        if t.ndim != 2:
            raise ValueError(f"level table must be 2-D, got shape {t.shape}")
        _ensure_finite(t, "level table")
        b = _ensure_unitary(self.basis, "shared basis")
        if b.shape[0] != t.shape[1]:
            raise ValueError(
                f"basis dimension {b.shape[0]} does not match table width {t.shape[1]}"
            )
        t.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "basis", b)

    @property
    def n(self) -> int:
        return self.table.shape[0]

    @property
    def d(self) -> int:
        return self.table.shape[1]

    def site_operator(self, i: int) -> SingleSiteOperator:
        """Operator at site i+1 (0-based argument, matching row indexing)."""
        return SingleSiteOperator(tuple(self.table[i]), np.array(self.basis))

    @classmethod
    def from_site(cls, n: int, site: SingleSiteOperator) -> "LinearHamiltonian":
        """Equal-row Hamiltonian with the same operator at every site."""
        return cls(np.tile(np.asarray(site.levels), (n, 1)), np.array(site.basis))

    @property
    def site_bases(self) -> tuple[np.ndarray, ...]:
        return (self.basis,) * self.n

    def diagonal(self) -> np.ndarray:
        """D[sigma] = sum_i table[i, sigma_i], the spectrum in kron order."""
        return kron_fold(np.add, self.table)

    def dense(self) -> np.ndarray:
        dim = check_dense_power(self.d, self.n)
        out = np.zeros((dim, dim), dtype=np.complex128)
        eye = np.eye(self.d, dtype=np.complex128)
        for i in range(self.n):
            h = self.site_operator(i).matrix
            factors = [eye] * self.n
            factors[i] = h
            out += kron_all(factors)
        return out

    def symmetrized(self) -> "LinearHamiltonian":
        """Average over site permutations, via the closed form.

        The permutation average of a linear Hamiltonian is again linear with
        every row replaced by the column means of the table; no sum over the
        factorial group is needed.
        """
        mean = self.table.mean(axis=0)
        return LinearHamiltonian(np.tile(mean, (self.n, 1)), np.array(self.basis))


@dataclass(frozen=True, eq=False)
class ProductDiagonalHamiltonian:
    """Hamiltonian diagonal in a product basis.

    `coeffs` lists the diagonal in kron order (site 1 most significant);
    `site_bases` holds one unitary per site whose columns are that site's
    basis vectors.
    """

    coeffs: np.ndarray
    site_bases: tuple[np.ndarray, ...]

    def __post_init__(self):
        bases = tuple(_ensure_unitary(b, "site basis") for b in self.site_bases)
        if not bases:
            raise ValueError("need at least one site")
        d = bases[0].shape[0]
        if any(b.shape[0] != d for b in bases):
            raise ValueError("all sites must share the same local dimension")
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 1:
            raise ValueError("coeffs must be a flat vector")
        _ensure_finite(c, "coeffs")
        dim = check_power_dim(d, len(bases), 8, "coefficient row")
        if c.shape[0] != dim:
            raise ValueError(f"expected {dim} coefficients, got {c.shape[0]}")
        c.setflags(write=False)
        for b in bases:
            b.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "site_bases", bases)

    @property
    def n(self) -> int:
        return len(self.site_bases)

    @property
    def d(self) -> int:
        return self.site_bases[0].shape[0]

    @property
    def is_computational(self) -> bool:
        eye = np.eye(self.d)
        return all(np.allclose(b, eye, atol=UNITARY_ATOL) for b in self.site_bases)

    @classmethod
    def computational(cls, n: int, d: int, coeffs: Sequence[float]) -> "ProductDiagonalHamiltonian":
        eye = np.eye(d, dtype=np.complex128)
        return cls(np.asarray(coeffs, dtype=float), tuple(eye for _ in range(n)))

    def diagonal(self) -> np.ndarray:
        """The coeffs: the spectrum in kron order."""
        return self.coeffs

    def dense(self) -> np.ndarray:
        w = kron_all(self.site_bases)  # the product-basis unitary W
        return (w * self.coeffs) @ w.conj().T


def normalize_hyperedges(hyperedges: Iterable[Sequence[int]] | np.ndarray, n: int) -> np.ndarray:
    """Hyperedges as a read-only (s, k) int64 array: each row sorted, rows in input order.

    Every hyperedge must have the first one's arity, distinct sites in 1..n
    and a site set that no earlier hyperedge has. The ValueError names the
    first hyperedge in input order that breaks a rule, and the first rule it
    breaks in that order; a (s, k) array is read as it is.
    """
    if isinstance(hyperedges, np.ndarray) and hyperedges.ndim == 2:
        rows, raw = hyperedges, hyperedges.astype(np.int64, copy=False)
    else:
        rows = list(hyperedges)
        if not rows:
            raise ValueError("need at least one hyperedge")
        arity = np.fromiter(map(len, rows), np.int64, len(rows))
        cut = int(np.argmax(arity != arity[0])) or len(rows)
        try:
            raw = np.array(rows[:cut], dtype=np.int64).reshape(cut, arity[0])
        except OverflowError:
            raise ValueError(f"a hyperedge has a site outside 1..{n} that does not fit int64") from None
    if not len(raw):
        raise ValueError("need at least one hyperedge")
    keys = np.sort(raw, axis=1)
    order = np.lexsort(np.vstack([np.arange(len(keys)), keys.T[::-1]]))  # equal keys in input order
    ordered = keys[order]
    duplicate = np.zeros(len(keys), dtype=bool)
    duplicate[order[1:]] = (ordered[1:] == ordered[:-1]).all(axis=1)
    repeats = (keys[:, 1:] == keys[:, :-1]).any(axis=1)
    outside = ((raw < 1) | (raw > n)).any(axis=1)
    bad = repeats | outside | duplicate
    if bad.any():
        i = int(np.argmax(bad))
        e = tuple(raw[i].tolist())
        if repeats[i]:
            raise ValueError(f"hyperedge {e} repeats a site")
        if outside[i]:
            raise ValueError(f"hyperedge {e} has sites outside 1..{n}")
        raise ValueError(f"duplicate hyperedge {e} (hyperedges compare as sets)")
    if len(raw) < len(rows):
        e = tuple(int(v) for v in rows[len(raw)])
        raise ValueError(f"hyperedge {e} has arity {len(e)}, expected {raw.shape[1]}")
    keys.setflags(write=False)
    return keys


@dataclass(frozen=True, eq=False)
class GraphHamiltonian:
    """k-body qubit Hamiltonian on a hypergraph: one product term per hyperedge.

    Each hyperedge (i_1, ..., i_k) contributes the tensor product of the
    member sites' one-qubit operators, identity elsewhere. With
    `positive_levels` the constructor additionally requires 0 < lam0 < lam1
    at every site, the regime where the product-state witness envelopes hold.
    """

    n: int
    hyperedges: tuple[tuple[int, ...], ...]
    site_ops: tuple[SingleSiteOperator, ...]
    positive_levels: bool = False

    def __post_init__(self):
        n = int(self.n)
        if n < 2:
            raise ValueError("graph Hamiltonians need at least two sites")
        edges = normalize_hyperedges(self.hyperedges, n)
        ops = tuple(self.site_ops)
        if len(ops) != n:
            raise ValueError(f"expected {n} site operators, got {len(ops)}")
        if any(op.d != 2 for op in ops):
            raise ValueError("graph Hamiltonians are defined on qubits (d = 2)")
        if self.positive_levels:
            for i, op in enumerate(ops):
                lo, hi = op.levels
                if not (0.0 < lo < hi):
                    raise ValueError(
                        f"site {i + 1} violates 0 < lam0 < lam1: levels {op.levels}"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "hyperedges", tuple(map(tuple, edges.tolist())))
        object.__setattr__(self, "site_ops", ops)

    @property
    def k(self) -> int:
        return len(self.hyperedges[0])

    @property
    def d(self) -> int:
        return 2

    @property
    def shared_levels(self) -> tuple[float, float] | None:
        """The common (lam0, lam1) if every site agrees, else None."""
        first = self.site_ops[0].levels
        if all(op.levels == first for op in self.site_ops):
            return first
        return None

    @property
    def is_computational(self) -> bool:
        return all(op.is_computational for op in self.site_ops)

    @classmethod
    def shared(
        cls,
        n: int,
        hyperedges: Iterable[Sequence[int]],
        levels: Sequence[float],
        basis: np.ndarray | None = None,
        positive_levels: bool = False,
    ) -> "GraphHamiltonian":
        """Same operator at every site (the homogeneous family)."""
        if basis is None:
            basis = np.eye(2, dtype=np.complex128)
        op = SingleSiteOperator(tuple(levels), np.array(basis))
        return cls(n, tuple(hyperedges), tuple(op for _ in range(n)), positive_levels)

    @property
    def site_bases(self) -> tuple[np.ndarray, ...]:
        return tuple(op.basis for op in self.site_ops)

    def dense(self) -> np.ndarray:
        dim = check_dense_power(2, self.n)
        out = np.zeros((dim, dim), dtype=np.complex128)
        eye = np.eye(2, dtype=np.complex128)
        mats = [op.matrix for op in self.site_ops]
        for edge in self.hyperedges:
            members = set(edge)
            factors = [mats[s - 1] if s in members else eye for s in range(1, self.n + 1)]
            out += kron_all(factors)
        return out

    def diagonal(self) -> np.ndarray:
        """D[sigma] = sum over hyperedges of prod_{s in edge} levels_s[sigma_s].

        Each site carries one operator in every edge and I = B_s B_s^dag, so
        H = W diag(D) W^dag for any site bases; with computational bases the
        dense matrix is exactly diag(D).
        """
        one = np.ones(2)
        levels = [op.levels for op in self.site_ops]
        return sum(
            kron_fold(np.multiply, [lv if s in edge else one for s, lv in enumerate(levels, 1)])
            for edge in self.hyperedges
        )


def _is_haar(basis: str | np.ndarray) -> bool:
    return isinstance(basis, str) and basis == "haar"


def linear_words(n: int, d: int, basis: str | np.ndarray) -> int:
    """Uniform words sample_linear reads: a Haar block of 2 d^2 for basis "haar", then n d levels."""
    return (2 * check_power_dim(d, 2, 16, "site basis") if _is_haar(basis) else 0) + n * d


def sample_linear_arrays(
    u: np.ndarray, n: int, d: int, low: float, high: float, basis: str | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Level tables (T, n, d) and shared bases (T, d, d) of sample_linear.

    Row t of the uniforms u (T, linear_words(n, d, basis)) holds trial t's
    words in draw order: the Haar block, if any, then the levels row by row.
    """
    words = check_words(u, linear_words(n, d, basis))
    trials, cells = u.shape[0], n * d
    if _is_haar(basis):
        bases = haar_unitaries(u[:, :words - cells], d)
    else:
        b = named_basis(basis, d) if isinstance(basis, str) else np.array(basis, dtype=np.complex128)
        if b.shape != (d, d):
            raise ValueError(f"basis shape {b.shape} does not match d = {d}")
        bases = np.broadcast_to(b, (trials, d, d))
    tables = low + (high - low) * u[:, words - cells:].reshape(trials, n, d)
    return _ensure_finite(tables, "level tables"), _ensure_unitaries(bases, "shared bases")


def sample_linear(
    n: int,
    d: int,
    rng: Rng,
    low: float = -1.0,
    high: float = 1.0,
    basis: str | np.ndarray = "haar",
) -> LinearHamiltonian:
    """Random linear Hamiltonian with i.i.d. uniform levels in [low, high].

    The shared basis is Haar random, a named basis, or an explicit unitary.
    The one-row case of sample_linear_arrays.
    """
    u = rng.random((1, linear_words(n, d, basis)))
    tables, bases = sample_linear_arrays(u, n, d, low, high, basis)
    return LinearHamiltonian(tables[0], bases[0])


def product_diagonal_words(n: int, d: int) -> int:
    """Uniform words sample_product_diagonal reads: n Haar blocks of 2 d^2, then d^n coefficients."""
    return 2 * n * check_power_dim(d, 2, 16, "site basis") + check_power_dim(d, n, 8, "coefficient row")


def sample_product_diagonal_arrays(
    u: np.ndarray, n: int, d: int, low: float, high: float
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (T, d^n) and site bases (T, n, d, d) of sample_product_diagonal.

    Row t of the uniforms u (T, product_diagonal_words(n, d)) holds trial
    t's words in draw order: the site bases, site 1 first, then the diagonal.
    """
    check_words(u, product_diagonal_words(n, d))
    blocks = 2 * n * d * d
    coeffs = low + (high - low) * u[:, blocks:]
    return _ensure_finite(coeffs, "coeffs"), _haar_site_bases(u[:, :blocks], n, d)


def _haar_site_bases(u: np.ndarray, n: int, d: int) -> np.ndarray:
    """Site bases (T, n, d, d) from uniforms (T, 2 n d^2): n Haar blocks, site 1 first."""
    bases = haar_unitaries(u.reshape(u.shape[0], n, 2 * d * d), d)
    return _ensure_unitaries(bases, "site bases")


def sample_product_diagonal(
    n: int,
    d: int,
    rng: Rng,
    low: float = -1.0,
    high: float = 1.0,
) -> ProductDiagonalHamiltonian:
    """Random product-diagonal Hamiltonian: Haar product bases, uniform diagonal.

    The one-row case of sample_product_diagonal_arrays.
    """
    u = rng.random((1, product_diagonal_words(n, d)))
    coeffs, bases = sample_product_diagonal_arrays(u, n, d, low, high)
    return ProductDiagonalHamiltonian(coeffs[0], tuple(bases[0]))


# --- plain-text round trip ---------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def to_spec_text(h) -> str:
    """Serialize a Hamiltonian to the flat key-value format."""
    lines: list[str] = []
    if isinstance(h, LinearHamiltonian):
        lines.append("family linear")
        lines.append(f"n {h.n}")
        lines.append(f"d {h.d}")
        header = _basis_header(h.basis, h.d)
        lines.append(header)
        for i in range(h.n):
            lines.append("lambda " + " ".join(_fmt(x) for x in h.table[i]))
        if header == "basis explicit":
            lines.extend(_basis_cols("basis_col", h.basis))
    elif isinstance(h, ProductDiagonalHamiltonian):
        lines.append("family product_diagonal")
        lines.append(f"n {h.n}")
        lines.append(f"d {h.d}")
        if h.is_computational:
            lines.append("basis computational")
        else:
            lines.append("basis explicit")
            for i, b in enumerate(h.site_bases, start=1):
                lines.extend(_basis_cols(f"site_basis_col {i}", b))
        for start in range(0, h.coeffs.shape[0], 8):
            chunk = h.coeffs[start : start + 8]
            lines.append("coeffs " + " ".join(_fmt(x) for x in chunk))
    elif isinstance(h, GraphHamiltonian):
        lines.append("family graph")
        lines.append(f"n {h.n}")
        lines.append(f"k {h.k}")
        shared = h.shared_levels
        if shared is not None:
            lines.append("eigs " + " ".join(_fmt(x) for x in shared))
        else:
            for i, op in enumerate(h.site_ops, start=1):
                lines.append(f"site_eigs {i} " + " ".join(_fmt(x) for x in op.levels))
        if h.is_computational:
            lines.append("basis computational")
        else:
            lines.append("basis explicit")
            for i, op in enumerate(h.site_ops, start=1):
                lines.extend(_basis_cols(f"site_basis_col {i}", op.basis))
        if h.positive_levels:
            lines.append("positivity 1")
        for edge in h.hyperedges:
            lines.append("edge " + " ".join(str(s) for s in edge))
    else:
        raise TypeError(f"cannot serialize {type(h).__name__}")
    return "\n".join(lines) + "\n"


def _basis_header(basis: np.ndarray, d: int) -> str:
    if np.allclose(basis, np.eye(d), atol=UNITARY_ATOL):
        return "basis computational"
    if d == 2 and np.allclose(basis, named_basis("plus_minus", 2), atol=UNITARY_ATOL):
        return "basis plus_minus"
    return "basis explicit"


def _basis_cols(key: str, basis: np.ndarray) -> list[str]:
    """`key j re im re im ...` for each column j of an explicit basis."""
    return [f"{key} {j} " + " ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in col)
            for j, col in enumerate(basis.T)]


def _complex_col(tokens: list[str], d: int) -> np.ndarray:
    vals = [float(t) for t in tokens]
    if len(vals) != 2 * d:
        raise ValueError(f"expected {2 * d} floats (re im pairs), got {len(vals)}")
    return np.array([complex(vals[2 * i], vals[2 * i + 1]) for i in range(d)])


def from_spec_text(text: str):
    """Parse the flat key-value Hamiltonian format. Unknown keys are errors.

    The scalar keys (family, n, d, k, basis, positivity) take exactly one
    value; a trailing token is an error, not ignored.
    """
    rows = [(parts[0], parts[1:]) for parts in (line.split() for _, line in content_lines(text))]
    if not rows or rows[0][0] != "family" or len(rows[0][1]) != 1:
        raise ValueError("first non-comment line must be 'family <name>'")
    family = rows[0][1][0]
    fields: dict[str, list[list[str]]] = {}
    for key, args in rows[1:]:
        fields.setdefault(key, []).append(args)

    def one(key: str, default=None):
        if key not in fields:
            if default is not None:
                return default
            raise ValueError(f"missing required key {key!r}")
        if len(fields[key]) != 1:
            raise ValueError(f"key {key!r} given more than once")
        if not fields[key][0]:
            raise ValueError(f"key {key!r} needs a value")
        return fields[key][0]

    def scalar(key: str, default: str | None = None) -> str:
        value = one(key, None if default is None else [default])
        if len(value) != 1:
            raise ValueError(f"key {key!r} takes one value, got {len(value)}")
        return value[0]

    allowed = {
        "linear": {"n", "d", "basis", "lambda", "basis_col"},
        "product_diagonal": {"n", "d", "basis", "coeffs", "site_basis_col"},
        "graph": {"n", "k", "eigs", "site_eigs", "basis", "site_basis_col", "positivity", "edge"},
    }
    if family not in allowed:
        raise ValueError(f"unknown family {family!r}")
    unknown = set(fields) - allowed[family]
    if unknown:
        raise ValueError(f"unknown keys for family {family}: {sorted(unknown)}")

    n = int(scalar("n"))
    if family == "linear":
        d = int(scalar("d"))
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        basis_name = scalar("basis")
        if basis_name == "explicit":
            basis = _explicit_basis(fields.get("basis_col", []), d)
        else:
            basis = named_basis(basis_name, d)
        lam_rows = fields.get("lambda", [])
        if len(lam_rows) != n:
            raise ValueError(f"expected {n} lambda rows, got {len(lam_rows)}")
        table = np.array([[float(x) for x in row] for row in lam_rows])
        if table.shape[1] != d:
            raise ValueError(f"lambda rows must have {d} entries")
        return LinearHamiltonian(table, basis)

    if family == "product_diagonal":
        d = int(scalar("d"))
        basis_name = scalar("basis")
        if basis_name == "computational":
            bases = tuple(np.eye(d, dtype=np.complex128) for _ in range(n))
        elif basis_name == "explicit":
            bases = _site_bases(fields.get("site_basis_col", []), n, d)
        else:
            raise ValueError("product_diagonal basis must be computational or explicit")
        coeffs: list[float] = []
        for chunk in fields.get("coeffs", []):
            coeffs.extend(float(x) for x in chunk)
        return ProductDiagonalHamiltonian(np.array(coeffs), bases)

    k = int(scalar("k"))
    basis_name = scalar("basis", "computational")
    positivity = bool(int(scalar("positivity", "0")))
    if "eigs" in fields and "site_eigs" in fields:
        raise ValueError("give either eigs or site_eigs, not both")
    if "eigs" in fields:
        shared = [float(x) for x in one("eigs")]
        level_rows = [tuple(shared)] * n
    else:
        got: dict[int, tuple[float, float]] = {}
        for row in fields.get("site_eigs", []):
            if len(row) != 3:
                raise ValueError("site_eigs lines must be 'site_eigs <site> <eig0> <eig1>'")
            i = int(row[0])
            got[i] = (float(row[1]), float(row[2]))
        if sorted(got) != list(range(1, n + 1)):
            raise ValueError(f"site_eigs must cover sites 1..{n} exactly")
        level_rows = [got[i] for i in range(1, n + 1)]
    if basis_name == "computational":
        bases = tuple(np.eye(2, dtype=np.complex128) for _ in range(n))
    elif basis_name == "explicit":
        bases = _site_bases(fields.get("site_basis_col", []), n, 2)
    else:
        bases = tuple(named_basis(basis_name, 2) for _ in range(n))
    edges = [tuple(int(s) for s in row) for row in fields.get("edge", [])]
    if any(len(e) != k for e in edges):
        raise ValueError(f"all edges must have arity k = {k}")
    ops = tuple(SingleSiteOperator(level_rows[i], bases[i]) for i in range(n))
    return GraphHamiltonian(n, tuple(edges), ops, positivity)


def _explicit_basis(rows: list[list[str]], d: int) -> np.ndarray:
    cols: dict[int, np.ndarray] = {}
    for row in rows:
        if not row:
            raise ValueError("basis_col lines must start with a column index")
        j = int(row[0])
        cols[j] = _complex_col(row[1:], d)
    if sorted(cols) != list(range(d)):
        raise ValueError(f"explicit basis must give columns 0..{d - 1}")
    return _ensure_unitary(np.stack([cols[j] for j in range(d)], axis=1), "explicit basis")


def _site_bases(rows: list[list[str]], n: int, d: int) -> tuple[np.ndarray, ...]:
    cols: dict[tuple[int, int], np.ndarray] = {}
    for row in rows:
        if len(row) < 2:
            raise ValueError("site_basis_col lines must start with a site and a column index")
        i, j = int(row[0]), int(row[1])
        cols[(i, j)] = _complex_col(row[2:], d)
    bases = []
    for i in range(1, n + 1):
        missing = [j for j in range(d) if (i, j) not in cols]
        if missing:
            raise ValueError(f"site {i} is missing basis columns {missing}")
        b = np.stack([cols[(i, j)] for j in range(d)], axis=1)
        bases.append(_ensure_unitary(b, f"site {i} basis"))
    return tuple(bases)


def write_spec(h, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(to_spec_text(h))


def read_spec(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return from_spec_text(f.read())
