"""Dense linear-algebra kernels and reproducible random streams.

Everything operates on plain numpy arrays in complex128. Dense objects are
capped at MAX_DIM = 4096 per axis so an oversized tensor product fails with
a clear error instead of exhausting memory.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

MAX_DIM = 4096

HERMITIAN_ATOL = 1e-10


class DimensionError(ValueError):
    """A requested dense object would exceed the supported size."""


def check_dim(dim: int) -> int:
    """Validate a dense dimension against MAX_DIM."""
    dim = int(dim)
    if dim < 1:
        raise DimensionError(f"dimension must be positive, got {dim}")
    if dim > MAX_DIM:
        raise DimensionError(
            f"dense dimension {dim} exceeds the supported maximum {MAX_DIM}"
        )
    return dim


def check_power_dim(d: int, n: int) -> int:
    """Validate that d**n fits under MAX_DIM and return it."""
    if d < 2:
        raise DimensionError(f"local dimension must be at least 2, got {d}")
    if n < 1:
        raise DimensionError(f"site count must be positive, got {n}")
    # compare in log space so huge inputs cannot overflow
    if n * math.log2(d) > math.log2(MAX_DIM) + 1e-12:
        raise DimensionError(
            f"dense dimension {d}**{n} exceeds the supported maximum {MAX_DIM}"
        )
    return d**n


class Rng:
    """Counter-based random stream keyed by a seed and a substream path.

    Built on Philox, so every (seed, path) pair is an independent stream and
    trial i can always draw from substream(i) regardless of execution order.
    That property is what makes threaded experiments byte-reproducible.

    Complex and real Gaussians are produced by an explicit Box-Muller
    transform on Philox uniforms (with u1 = 1 - u to avoid log(0)) rather
    than delegating to the generator's own normal, so the stream of values
    is pinned down by this module and not by numpy's algorithm choices.
    """

    def __init__(self, seed: int, path: Sequence[int] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def substream(self, index: int) -> "Rng":
        """Independent child stream; substream(i) is stable across runs."""
        if index < 0:
            raise ValueError("substream index must be non-negative")
        return Rng(self.seed, self.path + (int(index),))

    def random(self, size: int | tuple[int, ...] | None = None) -> np.ndarray:
        """Uniforms in [0, 1)."""
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return low + (high - low) * self._gen.random(size)

    def normal(self, count: int) -> np.ndarray:
        """Standard real normals via Box-Muller, as a flat array."""
        if count == 0:
            return np.zeros(0)
        pairs = (count + 1) // 2
        u1 = 1.0 - self._gen.random(pairs)  # in (0, 1], keeps log finite
        u2 = self._gen.random(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        return out[:count]

    def complex_normal(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard complex normals, E|z|^2 = 1."""
        if isinstance(shape, int):
            shape = (shape,)
        count = 1
        for s in shape:
            count *= int(s)
        x = self.normal(2 * count)
        z = (x[:count] + 1j * x[count:]) / math.sqrt(2.0)
        return z.reshape(shape)


def as_complex(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def ensure_square(a: np.ndarray) -> np.ndarray:
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    check_dim(a.shape[0])
    return a


def _hermitian_defect(a: np.ndarray, atol: float) -> float:
    """max |a - a^dag| if above atol * max(1, max |a|), else 0.

    max |a| is computed only when the absolute test fails.
    """
    dev = float(np.max(np.abs(a - a.conj().T)))
    return 0.0 if dev <= atol or dev <= atol * float(np.max(np.abs(a))) else dev


def is_hermitian(a: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    return _hermitian_defect(ensure_square(a), atol) == 0.0


def ensure_hermitian(a: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    a = ensure_square(a)
    if dev := _hermitian_defect(a, atol):
        raise ValueError(f"matrix is not Hermitian: max |a - a^dag| = {dev:.3e}")
    return a


def hermitian_eig(a: np.ndarray, atol: float = HERMITIAN_ATOL):
    """Eigenvalues (ascending, real) and orthonormal eigenvectors of a Hermitian matrix."""
    a = ensure_hermitian(a, atol)
    w, v = np.linalg.eigh(a)
    return w, v


def spectral_norm(a: np.ndarray) -> float:
    """Operator norm: |eigenvalue|_max for Hermitian input, else sigma_max."""
    a = ensure_square(a)
    if is_hermitian(a):
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))
    return float(np.linalg.norm(a, 2))


def spectral_spread(a: np.ndarray) -> float:
    """lambda_max - lambda_min of a Hermitian matrix."""
    w = np.linalg.eigvalsh(ensure_hermitian(a))
    return float(w[-1] - w[0])


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    """Tensor product of a sequence of matrices, left factor most significant."""
    mats = [as_complex(m) for m in mats]
    if not mats:
        raise ValueError("kron_all needs at least one factor")
    out = mats[0]
    for m in mats[1:]:
        check_dim(out.shape[0] * m.shape[0])
        out = np.kron(out, m)
    return out


def haar_unitary(dim: int, rng: Rng) -> np.ndarray:
    """Haar-distributed unitary via QR with the R-diagonal phase fix."""
    check_dim(dim)
    z = rng.complex_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases[np.newaxis, :]


def random_hermitian(dim: int, rng: Rng, scale: float = 1.0) -> np.ndarray:
    """GUE-style random Hermitian matrix with entry scale `scale`."""
    check_dim(dim)
    b = rng.complex_normal((dim, dim)) * scale
    return (b + b.conj().T) / 2.0


def basis_digits(n: int, d: int) -> np.ndarray:
    """Digit table of the full product basis, shape (d**n, n).

    Row i holds the base-d digits of i with site 1 in column 0 (most
    significant), matching the kron ordering used throughout.
    """
    dim = check_power_dim(d, n)
    idx = np.arange(dim)
    cols = [(idx // d ** (n - 1 - j)) % d for j in range(n)]
    return np.stack(cols, axis=1)


def unitary_with_first_column(v: np.ndarray) -> np.ndarray:
    """Deterministic unitary completion whose first column is the unit vector v."""
    v = as_complex(np.ravel(v))
    dim = v.shape[0]
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"first column must be a unit vector, got norm {nrm}")
    m = np.concatenate([v[:, None], np.eye(dim, dtype=np.complex128)], axis=1)
    q, _ = np.linalg.qr(m)
    # QR delivers the first column only up to a phase; rotate it back onto v
    phase = np.vdot(q[:, 0], v)
    q[:, 0] *= phase / abs(phase)
    return q
