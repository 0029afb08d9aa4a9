"""Edge-pair combinatorics of k-body coupling graphs and their QFI witnesses.

An interaction graph lists which site tuples carry a coupling term. Ordered
pairs of hyperedges split into same / disjoint / connected classes whose
counts drive both the product-state QFI closed form and the degree-vector
scaling laws. `census` counts them exactly on any graph from co-degrees (the
brute-force pair scan past its key budget), and `preset_census` gives each
preset's counts in closed form, an independent check of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hamiltonians import GraphHamiltonian, normalize_hyperedges
from . import numerics
from .numerics import DomainError, block_rows, check_bytes, content_lines
from .qfi import ProductScan, max_qfi_symmetric_product, product_qfi_closed_form

GAP_RATIO = 0.25
MAX_BRUTEFORCE_PAIRS = 10**8


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """Hypergraph of coupling terms: vertices 1..n, uniform-arity edge sets.

    `edges` is any sequence of vertex tuples on input and a read-only (s, k)
    int64 array once built: each row sorted, rows in input order.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValueError("need at least one vertex")
        edges = normalize_hyperedges(self.edges, n)
        if edges.shape[1] < 2:
            raise ValueError("edges need at least two vertices (no self-loops)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @property
    def k(self) -> int:
        return self.edges.shape[1]

    @property
    def s(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PairCensus:
    """Ordered edge-pair counts: same (s), disjoint, overlapping (connected)."""

    s: int
    disjoint: int
    connected: int
    all: int

    @classmethod
    def of(cls, s: int, connected: int) -> PairCensus:
        return cls(s, s * s - s - connected, connected, s * s)

    def __post_init__(self):
        if self.all != self.s**2:
            raise ValueError(f"pair total {self.all} is not s^2 = {self.s ** 2}")
        if self.all != self.s + self.disjoint + self.connected:
            raise ValueError("pair classes do not partition the total")

    @property
    def witness_counts(self) -> tuple[int, int]:
        """(s^2, s + connected): the two count-level QFI scaling witnesses."""
        return self.s**2, self.s + self.connected


@dataclass(frozen=True)
class DegreeVector:
    """Per-vertex edge membership counts."""

    d: tuple[int, ...]

    def __post_init__(self):
        d = tuple(int(x) for x in self.d)
        if any(x < 0 for x in d):
            raise ValueError("degrees are nonnegative")
        object.__setattr__(self, "d", d)


# --- builders ----------------------------------------------------------------

GRAPH_SHAPES = ("star", "chain", "ring", "complete")


def preset_edge_count(shape: str, n: int, k: int = 2) -> int:
    """Edge count s of a preset in closed form, without building it.

    Raises DomainError where the preset is undefined at (n, k), with the
    message its builder gives.
    """
    if shape not in GRAPH_SHAPES:
        raise DomainError(f"unknown graph shape {shape!r}")
    if shape == "star":
        if k != 2:
            raise DomainError("the star preset is 2-body only")
        if n < 2:
            raise DomainError("a star needs at least two vertices")
        return n - 1
    if k < 2:
        raise DomainError("arity must be at least 2")
    if shape == "chain":
        if n < k:
            raise DomainError(f"a {k}-body chain needs at least {k} vertices")
        return n - k + 1
    if shape == "ring":
        if n < k + 1:
            raise DomainError(f"a {k}-body ring needs at least {k + 1} vertices")
        return n
    if n < k:
        raise DomainError(f"need at least {k} vertices")
    return math.comb(n, k)


def star_graph(n: int) -> InteractionGraph:
    """Vertex 1 coupled to every other vertex."""
    s = preset_edge_count("star", n)
    return InteractionGraph(n, np.stack([np.ones(s, dtype=np.int64), np.arange(2, n + 1)], axis=1))


def chain_graph(n: int, k: int = 2) -> InteractionGraph:
    """Consecutive windows {i, ..., i+k-1} along a path."""
    s = preset_edge_count("chain", n, k)
    return InteractionGraph(n, np.arange(1, s + 1)[:, None] + np.arange(k))


def ring_graph(n: int, k: int = 2) -> InteractionGraph:
    """Cyclic windows of k consecutive vertices, window i starting at vertex i + 1."""
    preset_edge_count("ring", n, k)
    return InteractionGraph(n, (np.arange(n)[:, None] + np.arange(k)) % n + 1)


def complete_graph(n: int, k: int = 2) -> InteractionGraph:
    """Every k-subset of vertices coupled, in `itertools.combinations` order."""
    s = preset_edge_count("complete", n, k)
    if k == 2:
        return InteractionGraph(n, np.stack(np.triu_indices(n, 1), axis=1) + 1)
    subsets = itertools.chain.from_iterable(itertools.combinations(range(1, n + 1), k))
    return InteractionGraph(n, np.fromiter(subsets, np.int64, s * k).reshape(s, k))


def preset_degrees(shape: str, n: int) -> DegreeVector:
    """Degree vector of a 2-body preset in closed form, without building it."""
    s = preset_edge_count(shape, n)
    check_bytes(8 * n, f"degree vector of {n} vertices")
    inner = {"star": 1, "chain": 2, "ring": 2, "complete": n - 1}[shape]
    first, last = {"star": (s, 1), "chain": (1, 1)}.get(shape, (inner, inner))
    return DegreeVector((first, *[inner] * (n - 2), last))


def preset_graph(shape: str, n: int, k: int = 2) -> InteractionGraph:
    preset_edge_count(shape, n, k)  # the star's arity and unknown shapes; builders check the rest
    if shape == "star":
        return star_graph(n)
    if shape == "chain":
        return chain_graph(n, k)
    if shape == "ring":
        return ring_graph(n, k)
    return complete_graph(n, k)


# --- census --------------------------------------------------------------------

def preset_sizes(shapes, n: int, k: int = 2) -> dict[str, int]:
    """Edge count of each of `shapes` defined at (n, k); DomainError if one fits no census route."""
    sizes = {}
    for shape in shapes:
        try:
            sizes[shape] = preset_edge_count(shape, n, k)
        except DomainError:
            continue
    for s in sizes.values():
        if s * s > MAX_BRUTEFORCE_PAIRS:
            check_bytes(8 * (s << k), f"{s} edges of arity {k} (past the pair cap) as s * 2^k co-degree keys")
    return sizes


def census(g: InteractionGraph) -> PairCensus:
    """Exact ordered-pair counts of any graph, by co-degree inclusion-exclusion.

    Two distinct edges meet iff (-1)^(|T|+1) summed over the nonempty T in
    their intersection is 1, so connected = sum over j < k of (-1)^(j+1)
    sum_{|T|=j} c_T (c_T - 1), c_T being the number of edges that contain T.
    Past the byte budget for s * 2^k int64 keys the pair scan runs instead."""
    s, k, n = g.s, g.k, g.n
    if 8 * (s << k) > numerics.MAX_BYTES:
        return census_bruteforce(g)
    vertex = np.ascontiguousarray(g.edges.T) - 1  # (k, s): row i holds each edge's i-th vertex
    if n > 2**31:  # rank sparse labels, so that a re-ranked key times n fits int64
        vertex, n = np.unique(vertex, return_inverse=True)[1].reshape(k, s), s * k
    connected = 0
    for j in range(1, k):
        positions = np.array(list(itertools.combinations(range(k), j))).T  # (j, C(k, j))
        key, bound = vertex[positions[0]].ravel(), n
        for column in positions[1:]:
            if bound * n >= 2**63:  # re-rank the partial key before it can wrap
                ranks, key = np.unique(key, return_inverse=True)
                key, bound = key.ravel(), len(ranks)
            key, bound = key * n + vertex[column].ravel(), bound * n
        c = np.bincount(key) if bound <= len(key) else np.unique(key, return_counts=True)[1]
        connected -= (-1) ** j * int((c * (c - 1)).sum())
    return PairCensus.of(s, connected)


def census_bruteforce(g: InteractionGraph) -> PairCensus:
    """Exact ordered-pair counts by direct intersection tests.

    Edge bit masks are ceil(n/64) uint64 words, tested in blocks of
    `numerics.block_rows` edges against all s."""
    s = g.s
    if s * s > MAX_BRUTEFORCE_PAIRS:
        raise DomainError(f"{s}^2 ordered pairs exceeds the brute-force cap")
    words = (g.n + 63) // 64
    vertex = g.edges - 1
    masks = np.zeros((s, words), dtype=np.uint64)
    rows = np.broadcast_to(np.arange(s)[:, None], vertex.shape)
    np.bitwise_or.at(masks, (rows, vertex // 64), np.uint64(1) << (vertex % 64).astype(np.uint64))
    step = block_rows(8 * s * words)
    overlap = 0
    for lo in range(0, s, step):
        block = masks[lo : lo + step, None, :] & masks[None, :, :]
        overlap += int(np.count_nonzero(block.any(axis=-1)))
    return PairCensus.of(s, overlap - s)  # less the diagonal self-overlaps


def degree_vector(g: InteractionGraph) -> DegreeVector:
    return DegreeVector(tuple(np.bincount(g.edges.ravel() - 1, minlength=g.n).tolist()))


def degree_norms(deg: DegreeVector) -> tuple[float, float]:
    """Squared 1-norm and squared 2-norm of a degree vector."""
    return float(sum(deg.d)) ** 2, float(sum(x * x for x in deg.d))


def census_by_degrees(deg: DegreeVector) -> PairCensus:
    """Census of any realizing 2-body graph from its degrees: `census` at k = 2, sum d(d-1)."""
    total = sum(deg.d)
    if total % 2 != 0:
        raise DomainError(f"degree sum {total} is odd; not a 2-body graph")
    return PairCensus.of(total // 2, sum(x * (x - 1) for x in deg.d))


def preset_census(shape: str, n: int, k: int = 2) -> PairCensus:
    """Closed-form census of a preset at any (n, k) where it is defined.

    A chain window meets the m = min(k-1, s-1) nearest windows on each side,
    a ring window min(n-1, 2k-2) others, and a complete-graph edge misses
    C(n-k, k) edges. DomainError where the preset is undefined."""
    s = preset_edge_count(shape, n, k)
    m = min(k - 1, s - 1)
    return PairCensus.of(s, {"star": s * (s - 1), "chain": m * (2 * s - m - 1), "ring": n * min(n - 1, 2 * k - 2),
                             "complete": s * (s - 1 - math.comb(n - k, k))}[shape])


# --- degree scaling ------------------------------------------------------------

@dataclass(frozen=True)
class ScalingReport:
    """Degree-norm scaling witnesses for the two QFI maxima.

    The all-states maximum scales with the squared 1-norm of the degree
    vector, the product-state maximum with its squared 2-norm; a vanishing
    ratio along a family marks a genuine precision gap between them.
    """

    norm1_sq: float
    norm2_sq: float
    ratio: float
    census: PairCensus
    verdict: str


def scaling_report(g: InteractionGraph | DegreeVector) -> ScalingReport:
    """The report of a 2-body graph, or of its degree vector alone (see preset_degrees)."""
    if isinstance(g, InteractionGraph) and g.k != 2:
        raise ValueError("degree scaling applies to 2-body graphs")
    deg = g if isinstance(g, DegreeVector) else degree_vector(g)
    norm1_sq, norm2_sq = degree_norms(deg)
    ratio = norm2_sq / norm1_sq
    verdict = "gap" if ratio <= GAP_RATIO else "no-gap"
    return ScalingReport(norm1_sq, norm2_sq, ratio, census_by_degrees(deg), verdict)


# --- QFI witnesses ---------------------------------------------------------------

def to_hamiltonian(
    g: InteractionGraph,
    lam0: float,
    lam1: float,
    basis: np.ndarray | None = None,
) -> GraphHamiltonian:
    """Homogeneous coupling Hamiltonian on this graph with levels (lam0, lam1)."""
    return GraphHamiltonian.shared(
        g.n, g.edges.tolist(), (lam0, lam1), basis=basis, positive_levels=True
    )


@dataclass(frozen=True)
class WitnessReport:
    """Both QFI maxima with the count-level witnesses they should track.

    `max_all` is exact (squared spectral spread); `max_prod` is the exact
    symmetric product-state optimum. The envelope fields evaluate the
    pointwise sandwich at its p*, so max_prod must land inside
    [prod_lower, prod_upper] and max_all equals all_constant * s^2.
    """

    max_all: float
    max_prod: float
    census: PairCensus
    scan: ProductScan
    all_count: int
    prod_count: int
    all_constant: float
    prod_lower: float
    prod_upper: float


def qfi_witnesses(g: InteractionGraph, lam0: float, lam1: float) -> WitnessReport:
    if not 0.0 < lam0 < lam1:
        raise ValueError(f"levels must satisfy 0 < lam0 < lam1, got ({lam0}, {lam1})")
    if g.k != 2:
        raise ValueError("witness evaluation covers 2-body graphs")
    # With 0 < lam0 < lam1, the all-lam1 and all-lam0 level strings maximise
    # and minimise every edge term lam_a * lam_b at once.
    max_all = (g.s * (lam1**2 - lam0**2)) ** 2
    pairs = census(g)
    scan = max_qfi_symmetric_product(pairs.s, pairs.connected, lam0, lam1)
    all_count, prod_count = pairs.witness_counts
    p = scan.p
    mu = (lam0 - lam1) * p + lam1
    m2 = (lam0**2 - lam1**2) * p + lam1**2
    ctil = m2 - mu**2
    return WitnessReport(
        max_all,
        scan.value,
        pairs,
        scan,
        all_count,
        prod_count,
        max_all / all_count,
        4.0 * ctil * mu**2 * prod_count,
        4.0 * ctil * (m2 + mu**2) * prod_count,
    )


def product_qfi_at(g: InteractionGraph, lam0: float, lam1: float, p: float) -> float:
    """Closed-form product-state QFI on this 2-body graph at mixing weight p."""
    if g.k != 2:
        raise ValueError("the product-state closed form covers 2-body graphs")
    pairs = census(g)
    return product_qfi_closed_form(pairs.s, pairs.connected, lam0, lam1, p)


# --- file format -----------------------------------------------------------------

def graph_to_text(g: InteractionGraph) -> str:
    lines = [f"{g.n} {g.k}"]
    lines.extend(" ".join(map(str, e)) for e in g.edges.tolist())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> InteractionGraph:
    rows = [line for _, line in content_lines(text)]
    if not rows:
        raise ValueError("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header 'n k', got {rows[0]!r}")
    n, k = int(head[0]), int(head[1])
    edges = []
    for ln in rows[1:]:
        e = tuple(int(t) for t in ln.split())
        if len(e) != k:
            raise ValueError(f"edge {e} does not match the declared arity {k}")
        edges.append(e)
    return InteractionGraph(n, tuple(edges))


def write_graph(path: str | Path, g: InteractionGraph) -> None:
    Path(path).write_text(graph_to_text(g))


def read_graph(path: str | Path) -> InteractionGraph:
    return graph_from_text(Path(path).read_text())


# --- random graphs (for cross-route audits) -----------------------------------------

def sample_graph(n: int, s: int, rng, k: int = 2) -> InteractionGraph:
    """Uniform sample of s distinct k-edges on n vertices."""
    pool = complete_graph(n, k).edges
    if s < 1 or s > len(pool):
        raise ValueError(f"cannot place {s} distinct edges (pool {len(pool)})")
    remaining = list(range(len(pool)))
    chosen = [remaining.pop(min(int(u * len(remaining)), len(remaining) - 1)) for u in rng.random(s)]
    return InteractionGraph(n, pool[chosen])
