"""Pure states on n sites of local dimension d, the symmetric subspace, and
the one Bloch-sphere grid of qubit states.

Basis indices follow kron order (site 1 most significant). The symmetric
subspace is handled through an explicit orthonormal frame of generalized
Dicke states; compositions are enumerated in colexicographic order, so for
n = 2, d = 2 the frame columns are |00>, (|01> + |10>)/sqrt(2), |11>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .numerics import Rng, as_complex, check_power_dim, kron_fold

NORM_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector with its (n, d) shape information."""

    n: int
    d: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = check_power_dim(self.d, self.n)
        a = as_complex(np.ravel(self.amplitudes))
        if a.shape[0] != dim:
            raise ValueError(f"expected {dim} amplitudes, got {a.shape[0]}")
        nrm = float(np.linalg.norm(a))
        # `not <=` so that a NaN norm is rejected too
        if not abs(nrm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state norm {nrm} deviates from 1 by more than {NORM_ATOL}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def normalized_state(n: int, d: int, amplitudes: np.ndarray) -> PureState:
    """Construct a PureState after exact normalization (errors on zero vectors)."""
    a = as_complex(np.ravel(amplitudes))
    nrm = float(np.linalg.norm(a))
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return PureState(n, d, a / nrm)


def product_state(site_vectors: Sequence[np.ndarray]) -> PureState:
    """Tensor product of per-site unit vectors (site 1 first)."""
    vecs = [as_complex(np.ravel(v)) for v in site_vectors]
    if not vecs:
        raise ValueError("need at least one site vector")
    d = vecs[0].shape[0]
    if any(v.shape[0] != d for v in vecs):
        raise ValueError("all site vectors must share the same local dimension")
    for i, v in enumerate(vecs, start=1):
        nrm = float(np.linalg.norm(v))
        if not abs(nrm - 1.0) <= NORM_ATOL:
            raise ValueError(f"site {i} vector has norm {nrm}, expected 1")
    return normalized_state(len(vecs), d, kron_fold(np.multiply, vecs))


def ghz(n: int, basis: tuple[np.ndarray, np.ndarray] | None = None) -> PureState:
    """Equal superposition of two extremal product states, (v0^n + v1^n)/sqrt(2).

    `basis` supplies the pair of orthonormal local vectors; by default they
    are the computational |0> and |1> of a qubit.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if basis is None:
        dim = check_power_dim(2, n)
        a = np.zeros(dim, dtype=np.complex128)
        a[0] = a[-1] = 1.0 / math.sqrt(2.0)
        return PureState(n, 2, a)
    v0, v1 = (as_complex(np.ravel(v)) for v in basis)
    d = v0.shape[0]
    if v1.shape[0] != d:
        raise ValueError("basis vectors must share one local dimension")
    gram = np.array([[np.vdot(a, b) for b in (v0, v1)] for a in (v0, v1)])
    if not np.allclose(gram, np.eye(2), atol=NORM_ATOL):
        raise ValueError("basis vectors must be orthonormal")
    total = kron_fold(np.multiply, [v0] * n) + kron_fold(np.multiply, [v1] * n)
    return PureState(n, d, total / math.sqrt(2.0))


def plus_vector() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)


def minus_vector() -> np.ndarray:
    return np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0)


def superposition_state(n: int) -> PureState:
    """Normalized |0>^n + |1>^n + |+>^n + |->^n on n qubits.

    The four branches are not orthogonal, so the normalization is computed
    from the actual vector rather than assumed to be 1/2.
    """
    e0 = np.array([1.0, 0.0], dtype=np.complex128)
    e1 = np.array([0.0, 1.0], dtype=np.complex128)
    branches = [e0, e1, plus_vector(), minus_vector()]
    check_power_dim(2, n)
    return normalized_state(n, 2, sum(kron_fold(np.multiply, [v] * n) for v in branches))


def sample_haar(n: int, d: int, rng: Rng) -> PureState:
    """Haar-random pure state: normalized vector of i.i.d. complex normals."""
    dim = check_power_dim(d, n)
    z = rng.complex_normal(dim)
    return normalized_state(n, d, z)


# --- symmetric subspace ------------------------------------------------------

def dim_symmetric(n: int, d: int) -> int:
    """Dimension of the symmetric subspace, C(n + d - 1, n)."""
    return math.comb(n + d - 1, n)


def compositions_colex(total: int, parts: int) -> Iterator[tuple[int, ...]]:
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


@dataclass(frozen=True, eq=False)
class DickeBasis:
    """Orthonormal frame of the symmetric subspace in the product basis.

    Column c of `matrix` is the generalized Dicke state for compositions[c]:
    equal positive amplitude on every basis string with that letter count.
    """

    n: int
    d: int
    compositions: tuple[tuple[int, ...], ...]
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return len(self.compositions)


def dicke_basis(n: int, d: int) -> DickeBasis:
    dim = check_power_dim(d, n)
    comps = tuple(compositions_colex(n, d))
    index_of = {c: i for i, c in enumerate(comps)}
    letters = np.eye(d, dtype=np.int64)
    counts = np.stack([kron_fold(np.add, [letters[j]] * n) for j in range(d)], axis=1)
    cols = np.array([index_of[tuple(row)] for row in counts], dtype=np.int64)
    mult = np.bincount(cols, minlength=len(comps))
    m = np.zeros((dim, len(comps)))
    m[np.arange(dim), cols] = 1.0 / np.sqrt(mult[cols])
    m.setflags(write=False)
    return DickeBasis(n, d, comps, m)


def sample_symmetric(n: int, d: int, rng: Rng, basis: DickeBasis | None = None) -> PureState:
    """Haar-random state of the symmetric subspace (Gaussian in the Dicke frame)."""
    if basis is None:
        basis = dicke_basis(n, d)
    c = rng.complex_normal(basis.size)
    return normalized_state(n, d, basis.matrix @ c)


# --- qubit Bloch-sphere grid -------------------------------------------------

# Materializing every frame of a fine grid would need gigabytes; past this
# count, callers must use the per-index accessors.
MAX_MATERIALIZED_FRAMES = 200_000


def trace_distance_qubit(u: np.ndarray, v: np.ndarray) -> float:
    """Trace distance between pure qubit states, sqrt(1 - |<u|v>|^2)."""
    u = np.asarray(u, dtype=np.complex128).reshape(2)
    v = np.asarray(v, dtype=np.complex128).reshape(2)
    ov = abs(np.vdot(u, v)) ** 2
    return math.sqrt(max(0.0, 1.0 - min(1.0, ov)))


def qubit_overlap(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|<u|v>| over (..., 2) arrays, rounded as trace_distance_qubit's scalar abs."""
    z = np.conj(u[..., 0]) * v[..., 0] + np.conj(u[..., 1]) * v[..., 1]
    return np.hypot(z.real, z.imag)


@dataclass(frozen=True, eq=False)
class BlochGrid:
    """Latitude/longitude grid of qubit states (cos t/2, e^{ip} sin t/2).

    Row j of R sits at polar angle t_j = (j + 1/2) pi / R and carries
    `row_counts[j]` azimuths p = 2 pi k / row_counts[j]; elements are
    numbered row by row. Index i also names the frame whose columns are its
    state and the phase-fixed complement (sin t/2, -e^{ip} cos t/2).
    Elements are generated on demand, so a grid of billions of cells costs
    only its row table, and `nearest_index` works by cell lookup.
    """

    row_counts: np.ndarray
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        counts = np.asarray(self.row_counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0 or np.any(counts < 1):
            raise ValueError("a Bloch grid needs rows of at least one azimuth each")
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        object.__setattr__(self, "row_counts", counts)
        object.__setattr__(self, "offsets", offsets)

    @staticmethod
    def polar_angle(j, rows: int):
        """t_j = (j + 1/2) pi / rows, the polar angle of row j of `rows`."""
        return (j + 0.5) * (math.pi / rows)

    @property
    def count(self) -> int:
        return int(self.offsets[-1])

    def _parts(self, index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """cos t/2, sin t/2 and e^{ip} of the elements `index`."""
        index = np.asarray(index, dtype=np.int64)
        if ((index < 0) | (index >= self.offsets[-1])).any():
            raise IndexError(f"grid index out of range [0, {self.count})")
        j = np.searchsorted(self.offsets, index, side="right") - 1
        half = self.polar_angle(j, self.row_counts.size) / 2.0
        phi = 2.0 * math.pi * (index - self.offsets[j]) / self.row_counts[j]
        return np.cos(half), np.sin(half), np.exp(1j * phi)

    def states(self, index) -> np.ndarray:
        """State vectors of the elements `index`, shape index.shape + (2,)."""
        c, s, ph = self._parts(index)
        out = np.empty(np.shape(c) + (2,), dtype=np.complex128)
        out[..., 0], out[..., 1] = c, s * ph
        return out

    state_at = states  # the name used for one index

    def frame_at(self, index) -> np.ndarray:
        """Frames of the elements `index`, shape index.shape + (2, 2)."""
        c, s, ph = self._parts(index)
        out = np.empty(np.shape(c) + (2, 2), dtype=np.complex128)
        out[..., 0, 0], out[..., 0, 1] = c, s
        out[..., 1, 0], out[..., 1, 1] = s * ph, -c * ph
        return out

    @property
    def frames(self) -> np.ndarray:
        if self.count > MAX_MATERIALIZED_FRAMES:
            raise ValueError(
                f"grid has {self.count} frames; materialization is capped at "
                f"{MAX_MATERIALIZED_FRAMES}, use frame_at / nearest_index"
            )
        return self.frame_at(np.arange(self.count))

    def nearest_index(self, v: np.ndarray) -> np.ndarray:
        """Indices of the elements nearest v in trace distance within v's patch.

        v has shape (..., 2), the result v.shape[:-1]. Snaps the Bloch angles
        of each v to their cell and compares the 3x3 patch of cells around
        it, rows in order (clipped at the poles) and azimuths k-1, k, k+1
        within a row; the first strict maximum of |<v|u>| wins. The
        containing cell alone already realizes the grid's covering radius.
        """
        v = np.asarray(v, dtype=np.complex128)
        theta = 2.0 * np.arctan2(np.abs(v[..., 1]), np.abs(v[..., 0]))
        phi = np.angle(v[..., 1] * np.conj(v[..., 0])) % (2.0 * math.pi)
        rows = self.row_counts.size
        j0 = np.round(theta / (math.pi / rows) - 0.5).astype(np.int64)
        # A clipped row repeats its neighbour in the patch, which keeps the winner.
        j = np.clip(j0[..., None] + (-1, 0, 1), 0, rows - 1)
        m = self.row_counts[j]
        k0 = np.round(phi[..., None] * m / (2.0 * math.pi)).astype(np.int64)
        k = (k0[..., None] + (-1, 0, 1)) % m[..., None]
        patch = (self.offsets[j][..., None] + k).reshape(theta.shape + (9,))
        best = np.argmax(qubit_overlap(v[..., None, :], self.states(patch)), axis=-1)
        return np.take_along_axis(patch, best[..., None], -1)[..., 0]


# --- plain-text round trip ---------------------------------------------------

def write_state(state: PureState, path: str) -> None:
    """Dump a state as 'n d' header plus one 'index re im' row per amplitude."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{state.n} {state.d}\n")
        for i, z in enumerate(state.amplitudes):
            f.write(f"{i} {repr(float(z.real))} {repr(float(z.imag))}\n")


def read_state(path: str) -> PureState:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.split("#", 1)[0].strip() for ln in f]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty state file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("state file header must be 'n d'")
    n, d = int(head[0]), int(head[1])
    dim = check_power_dim(d, n)
    amps = np.zeros(dim, dtype=np.complex128)
    seen = np.zeros(dim, dtype=bool)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad state row: {ln!r}")
        i = int(parts[0])
        if i < 0 or i >= dim:
            raise ValueError(f"amplitude index {i} outside 0..{dim - 1}")
        if seen[i]:
            raise ValueError(f"amplitude index {i} given twice")
        seen[i] = True
        amps[i] = complex(float(parts[1]), float(parts[2]))
    if not np.all(seen):
        raise ValueError("state file must list every amplitude index exactly once")
    return PureState(n, d, amps)
