"""Dense linear-algebra kernels and reproducible random streams.

Everything operates on plain numpy arrays in complex128. Dense objects are
capped at MAX_DIM = 4096 per axis so an oversized tensor product fails with
a clear error instead of exhausting memory.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

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


def check_words(u: np.ndarray, words: int) -> int:
    """Check that uniforms u hold one row of `words` draws per trial; return words."""
    if u.ndim != 2 or u.shape[1] != words:
        raise ValueError(f"expected uniforms of shape (trials, {words}), got {u.shape}")
    return words


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


# numpy's SeedSequence hash (bit_generator.pyx): four-word pool, uint32 mixing.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10 (Salmon et al., SC'11) as numpy's philox.h runs it.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Words per vectorised Philox pass: the temporaries of a larger pass fall
# out of cache, a smaller one pays numpy's per-call cost too often.
_PHILOX_PASS_WORDS = 2**16
_LO32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: uint32 words, low first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(init: int, mult: int):
    """numpy's hashmix: xor, multiply and xorshift by a constant that steps each call."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_keys(seed: int, path: tuple[int, ...], last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Philox keys of SeedSequence(seed, spawn_key=path + (t,)) for every t in `last`.

    Equals `SeedSequence(...).generate_state(2, np.uint64)` row by row; every
    t must be below 2**32, so it is one entropy word. Common words are
    shape-(1,) arrays and broadcast against `last` once it is mixed in.
    """
    run = _uint32_words(seed)
    # A non-empty spawn key pads the run entropy to the pool size.
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.array([w], dtype=np.uint32) for w in run]
    entropy += [np.array([w], dtype=np.uint32) for p in path for w in _uint32_words(p)]
    entropy.append(last.astype(np.uint32))
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(2, uint64): one output word per pool word, paired low first
    output = _hashmix(_INIT_B, _MULT_B)
    w0, w1, w2, w3 = (output(word).astype(np.uint64) for word in pool)
    return w0 | (w1 << _SHIFT32), w2 | (w3 << _SHIFT32)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit halves of a * b, the high half from 32-bit partial products.

    The partial products are summed in place: at pass size, temporaries are
    most of Philox's cost.
    """
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo = b & _LO32
    b_hi = b >> _SHIFT32
    mid = b_lo * a_lo
    mid >>= _SHIFT32
    cross = b_hi * a_lo
    hi = cross >> _SHIFT32
    mid += cross & _LO32
    np.multiply(b_lo, a_hi, out=cross)
    hi += cross >> _SHIFT32
    mid += cross & _LO32
    mid >>= _SHIFT32  # the carry out of the middle 32-bit column
    hi += mid
    b_hi *= a_hi
    hi += b_hi
    return b * np.uint64(a), hi


def _philox_words(k0: np.ndarray, k1: np.ndarray, count: int) -> np.ndarray:
    """The first `count` words of Philox4x64-10 under each key (k0[i], k1[i]).

    Row i equals `np.random.Philox(key=(k0[i], k1[i])).random_raw(count)`:
    numpy's buffer takes the four words of counters 1, 2, ... in turn.
    """
    blocks = -(-count // 4)
    rows = len(k0)
    # one flat lane per counter word; the keys are copied, so bumped in place
    k0 = np.repeat(np.asarray(k0, dtype=np.uint64), blocks)
    k1 = np.repeat(np.asarray(k1, dtype=np.uint64), blocks)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), rows)
    c1 = c2 = c3 = np.zeros(rows * blocks, dtype=np.uint64)
    for rnd in range(_PHILOX_ROUNDS):
        if rnd:
            k0 += np.uint64(_PHILOX_W[0])
            k1 += np.uint64(_PHILOX_W[1])
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack([c0, c1, c2, c3], axis=1).reshape(rows, 4 * blocks)[:, :count]


class Rng:
    """Counter-based random stream keyed by a seed and a substream path.

    Built on Philox, so every (seed, path) pair is an independent stream and
    trial i can always draw from substream(i) regardless of execution order.
    That property is what makes every experiment byte-reproducible.

    Complex and real Gaussians are produced by an explicit Box-Muller
    transform on Philox uniforms (with u1 = 1 - u to avoid log(0)) rather
    than delegating to the generator's own normal, so the stream of values
    is pinned down by this module and not by numpy's algorithm choices.

    `substream_uniforms(trials, words)` draws `random(words)` of many
    substreams in one vectorised pass, and row i equals
    `substream(trials[i]).random(words)` bit for bit. It recomputes numpy's
    SeedSequence hash and Philox4x64-10 words directly from (key, counter);
    both are frozen by numpy's stream-compatibility policy (NEP 19), so the
    contract holds across numpy versions and tests pin it to numpy's own
    generators. `substream_normals` is Box-Muller over those rows, read as
    `complex_normal(dim)` reads its words (see `complex_normals`), so a
    trial's words have one layout whichever way it is drawn.

    `substreams(trials)` yields (t, substream(t)) for a block of trials
    without building a SeedSequence and a Generator per trial: the keys are
    hashed in one vectorised pass and one Philox generator is rekeyed per
    trial through its `state` setter. The generator is shared, so each
    yielded stream is valid only until the next one is yielded; its
    `substream(i)` children are ordinary streams.
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

    def substreams(self, trials: range) -> Iterator[tuple[int, "Rng"]]:
        """(t, stream) for every t in `trials`; stream draws what substream(t) draws.

        Each stream is valid only until the next one is yielded (see the
        class docstring). Every index must lie in [0, 2**32).
        """
        if not trials:
            return
        _check_indices(trials)
        k0, k1 = _seed_keys(
            self.seed, self.path, np.arange(trials.start, trials.stop, trials.step)
        )
        # Seeded, so it reads no OS entropy; every trial overwrites its key.
        gen = np.random.Generator(np.random.Philox(0))
        # The state of a freshly seeded Philox: counter zero, empty buffer.
        state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": None},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        for t, key in zip(trials, zip(k0.tolist(), k1.tolist())):
            state["state"]["key"] = key
            gen.bit_generator.state = state
            stream = Rng.__new__(Rng)
            stream.seed, stream.path, stream._gen = self.seed, self.path + (t,), gen
            yield t, stream

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
        u1 = self._gen.random(pairs)
        cos_part, sin_part = _box_muller(u1, self._gen.random(pairs))
        return np.concatenate([cos_part, sin_part])[:count]

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

    def substream_uniforms(self, trials: range, words: int) -> np.ndarray:
        """Row i is `substream(trials[i]).random(words)`, bit for bit.

        All rows are drawn together, in Philox passes of at most
        _PHILOX_PASS_WORDS words. Every index must lie in [0, 2**32).
        """
        out = np.empty((len(trials), words))
        for start, block in _passes(trials, words):
            out[start:start + len(block)] = self._pass_uniforms(block, words)
        return out

    def substream_normals(self, trials: range, dim: int) -> np.ndarray:
        """Row i is `substream(trials[i]).complex_normal(dim)`, bit for bit.

        Box-Muller over the uniforms `substream_uniforms` draws, taken one
        Philox pass at a time, so no more than a pass of them is held.
        """
        out = np.empty((len(trials), dim), dtype=np.complex128)
        for start, block in _passes(trials, 2 * dim):
            out[start:start + len(block)] = complex_normals(self._pass_uniforms(block, 2 * dim))
        return out

    def _pass_uniforms(self, block: range, words: int) -> np.ndarray:
        """Uniforms of one pass: row i is `substream(block[i]).random(words)`."""
        k0, k1 = _seed_keys(self.seed, self.path, np.arange(block.start, block.stop, block.step))
        # Generator.random: the top 53 bits of each word, scaled into [0, 1)
        return (_philox_words(k0, k1, words) >> np.uint64(11)) * 2.0**-53


def _passes(trials: range, words: int) -> Iterator[tuple[int, range]]:
    """(start, block) of each Philox pass of at most _PHILOX_PASS_WORDS words."""
    if trials:
        _check_indices(trials)
    step = max(1, _PHILOX_PASS_WORDS // max(1, words))
    for start in range(0, len(trials), step):
        yield start, trials[start:start + step]


def _check_indices(trials: range) -> None:
    """A block of substream indices must lie in [0, 2**32)."""
    if min(trials[0], trials[-1]) < 0:
        raise ValueError("substream index must be non-negative")
    if max(trials[0], trials[-1]) > _MASK32:
        raise ValueError("a block of substreams needs indices below 2**32")


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r cos(2 pi u2) and r sin(2 pi u2), r = sqrt(-2 log(1 - u1)), elementwise."""
    r = np.sqrt(-2.0 * np.log(1.0 - u1))  # 1 - u1 in (0, 1] keeps log finite
    theta = 2.0 * np.pi * u2
    return r * np.cos(theta), r * np.sin(theta)


def complex_normals(u: np.ndarray) -> np.ndarray:
    """Complex normals (..., m) from uniforms (..., 2 m), as `Rng.complex_normal(m)` reads them.

    Box-Muller takes the first m words of a row as u1 and the last m as
    u2, and z = (r cos(2 pi u2) + i r sin(2 pi u2)) / sqrt(2).
    """
    m = u.shape[-1] // 2
    cos_part, sin_part = _box_muller(u[..., :m], u[..., m:])
    return (cos_part + 1j * sin_part) / math.sqrt(2.0)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, row by row; each row rounds as its 1-D a @ b."""
    return (a[..., np.newaxis, :] @ b[..., :, np.newaxis])[..., 0, 0]


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


def kron_fold(ufunc: np.ufunc, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """`ufunc.outer` folded over per-site vectors, flattened in kron order.

    Entry sigma is ufunc(...ufunc(v_1[sigma_1], v_2[sigma_2])..., v_n[sigma_n])
    with site 1 most significant, so np.add gives a Kronecker sum and
    np.multiply a Kronecker product, without a table of basis digits.
    Vectors of shape (..., d_i) fold each stack entry on its own.
    """
    if len(vectors) == 0:
        raise ValueError("kron_fold needs at least one vector")
    vectors = [np.asarray(v) for v in vectors]
    check_dim(math.prod(v.shape[-1] for v in vectors))
    out = vectors[0]
    for v in vectors[1:]:
        out = ufunc(out[..., :, np.newaxis], v[..., np.newaxis, :])
        out = out.reshape(out.shape[:-2] + (out.shape[-2] * out.shape[-1],))
    return out


def haar_qr(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian blocks (..., d, d).

    QR of each block with the R-diagonal phase fix (Mezzadri, Notices AMS
    54, 592, 2007); LAPACK factors a stack block by block, so each result
    equals the block's own QR bit for bit.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., np.newaxis, :]


def haar_unitaries(u: np.ndarray, dim: int) -> np.ndarray:
    """Haar unitaries (..., dim, dim) from uniforms (..., 2 dim^2), as haar_unitary reads them."""
    return haar_qr(complex_normals(u).reshape(u.shape[:-1] + (dim, dim)))


def haar_unitary(dim: int, rng: Rng) -> np.ndarray:
    """Haar-distributed unitary: the one-block case of haar_qr, 2 dim^2 words of rng."""
    check_dim(dim)
    return haar_qr(rng.complex_normal((dim, dim)))


def random_hermitian(dim: int, rng: Rng, scale: float = 1.0) -> np.ndarray:
    """GUE-style random Hermitian matrix with entry scale `scale`."""
    check_dim(dim)
    b = rng.complex_normal((dim, dim)) * scale
    return (b + b.conj().T) / 2.0
