import importlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from formats import commented
from qfiwb.graphs import (
    GAP_RATIO,
    InteractionGraph,
    census,
    census_bruteforce,
    census_by_degrees,
    chain_graph,
    complete_graph,
    degree_vector,
    graph_from_text,
    graph_to_text,
    preset_census,
    preset_edge_count,
    preset_graph,
    product_qfi_at,
    qfi_witnesses,
    read_graph,
    ring_graph,
    sample_graph,
    scaling_report,
    star_graph,
    to_hamiltonian,
    write_graph,
)
from qfiwb.numerics import MAX_BYTES, DomainError, Rng
from qfiwb.qfi import max_qfi_symmetric_product, product_qfi_closed_form, qfi, symmetric_product_state
from qfiwb.states import sample_haar


# --- builders -------------------------------------------------------------------

def test_builder_shapes():
    assert star_graph(5).s == 4
    assert chain_graph(5).s == 4
    assert ring_graph(5).s == 5
    assert complete_graph(5).s == 10
    assert [1, 2, 8] in ring_graph(8, 3).edges.tolist()  # wrap-around window, stored sorted
    assert chain_graph(8, 3).s == 6


@pytest.mark.parametrize("k", [2, 3])
def test_complete_graph_rows_in_combinations_order(k):
    g = complete_graph(7, k)
    assert g.edges.tolist() == [list(e) for e in itertools.combinations(range(1, 8), k)]
    assert g.edges.dtype == np.int64 and not g.edges.flags.writeable


def test_window_presets_match_per_edge_windows():
    for n, k in ((5, 2), (8, 3), (9, 4)):
        chain = [list(range(i, i + k)) for i in range(1, n - k + 2)]
        ring = [sorted((i + j) % n + 1 for j in range(k)) for i in range(n)]
        assert chain_graph(n, k).edges.tolist() == chain
        assert ring_graph(n, k).edges.tolist() == ring
    assert star_graph(5).edges.tolist() == [[1, 2], [1, 3], [1, 4], [1, 5]]


def test_preset_edge_count_matches_built_presets():
    for shape in ("star", "chain", "ring", "complete"):
        for n, k in ((5, 2), (8, 2), (8, 3), (9, 4)):
            try:
                s = preset_edge_count(shape, n, k)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    preset_graph(shape, n, k)
                continue
            assert preset_graph(shape, n, k).s == s


def test_builder_guards():
    with pytest.raises(ValueError):
        preset_graph("star", 5, k=3)
    with pytest.raises(ValueError):
        ring_graph(3, 3)
    with pytest.raises(ValueError):
        chain_graph(2, 3)
    with pytest.raises(ValueError):
        preset_graph("torus", 5)


def test_graph_validation():
    with pytest.raises(ValueError):
        InteractionGraph(3, ((1, 1),))  # repeated vertex
    with pytest.raises(ValueError):
        InteractionGraph(3, ((1, 2), (2, 1)))  # duplicate as a set
    with pytest.raises(ValueError):
        InteractionGraph(2, ((1, 3),))  # vertex out of range


# --- census routes --------------------------------------------------------------

FROZEN_2BODY = {
    "star": (4, 0, 12, 16),
    "chain": (4, 6, 6, 16),
    "ring": (5, 10, 10, 25),
    "complete": (10, 30, 60, 100),
}

FROZEN_3BODY_N8 = {
    "ring": (8, 24, 32, 64),
    "chain": (6, 12, 18, 36),
    "complete": (56, 560, 2520, 3136),
}


def test_frozen_census_n5():
    for shape, want in FROZEN_2BODY.items():
        got = census_bruteforce(preset_graph(shape, 5))
        assert (got.s, got.disjoint, got.connected, got.all) == want, shape
        closed = preset_census(shape, 5)
        assert closed == got


def test_frozen_kbody_census_n8():
    for shape, want in FROZEN_3BODY_N8.items():
        got = census_bruteforce(preset_graph(shape, 8, 3))
        assert (got.s, got.disjoint, got.connected, got.all) == want, shape
        assert preset_census(shape, 8, 3) == got
        assert census(preset_graph(shape, 8, 3)) == got
    # Every preset at every (n, k) where it is defined, the ring below
    # n = 2k - 1 and the chains of one or two windows included.
    defined = 0
    for k, n, shape in itertools.product(range(2, 6), range(2, 16), ("star", "chain", "ring", "complete")):
        try:
            closed = preset_census(shape, n, k)
        except DomainError:
            continue
        g = preset_graph(shape, n, k)
        assert closed == census_bruteforce(g) == census(g), (shape, n, k)
        defined += 1
    assert defined == 160


@pytest.mark.parametrize("shape, n", [("chain", 10**5), ("ring", 10**5), ("chain", 2**16)])
def test_census_keys_never_wrap(shape, n):
    # n^5 > 2^63: the five-vertex keys of the k = 6 windows need a re-rank.
    # At n = 2^16 a wrapped key would lose its first vertex exactly.
    assert census(preset_graph(shape, n, 6)) == preset_census(shape, n, 6)


def test_census_ranks_sparse_vertex_labels():
    # Labels past 2^38 would wrap even a re-ranked key times n.
    far = 2**62
    g = InteractionGraph(far, ((1, 2, far), (2, 5, far - 1), (3, far - 1, far), (4, 5, 6)))
    assert census(g) == census_bruteforce(InteractionGraph(8, ((1, 2, 8), (2, 5, 7), (3, 7, 8), (4, 5, 6))))


def test_census_matches_pair_oracle():
    g = ring_graph(7)
    same, disjoint, connected, total = oracles.census_pairs(g.edges.tolist())
    got = census_bruteforce(g)
    assert (got.s, got.disjoint, got.connected, got.all) == (
        same, disjoint, connected, total,
    )


def test_three_routes_agree_on_random_graphs():
    rng = Rng(42)
    for t in range(50):
        r = rng.substream(t)
        n = 4 + int(r.random() * 9)  # 4..12
        max_s = n * (n - 1) // 2
        s = 1 + int(r.random() * max_s)
        g = sample_graph(n, min(s, max_s), r)
        brute = census_bruteforce(g)
        by_deg = census_by_degrees(degree_vector(g))
        assert brute == by_deg
        ora = oracles.census_pairs(g.edges.tolist())
        assert (brute.s, brute.disjoint, brute.connected, brute.all) == ora


def _random_hypergraph(n: int, s: int, k: int, r: Rng) -> InteractionGraph:
    edges: set[tuple[int, ...]] = set()
    while len(edges) < s:
        edges.add(tuple(sorted(int(v) + 1 for v in np.argsort(r.random(n))[:k])))
    return InteractionGraph(n, tuple(sorted(edges)))


@pytest.mark.parametrize("max_keys", [MAX_BYTES // 8, 1])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 4), n=st.integers(4, 11), fill=st.floats(0.0, 1.0))
def test_census_matches_pair_oracle_on_random_kgraphs(max_keys, seed, k, n, fill):
    # A byte budget of one int64 key sends every graph down the brute-force route.
    s = 1 + int(fill * (math.comb(n, k) - 1))
    g = _random_hypergraph(n, s, k, Rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("qfiwb.numerics"), "MAX_BYTES", 8 * max_keys)
        c = census(g)
    assert (c.s, c.disjoint, c.connected, c.all) == oracles.census_pairs(g.edges.tolist())


@pytest.mark.parametrize("block_words", [2**20, 1000])
def test_census_multiword_masks_match_pair_oracle(monkeypatch, block_words):
    # Past 64 vertices an edge mask spans several uint64 words, and at a
    # block of 1000 words the rows split over several blocks.
    monkeypatch.setattr(importlib.import_module("qfiwb.numerics"), "BLOCK_BYTES", 8 * block_words)
    rng = Rng(2024)
    for t, n in enumerate((64, 65, 128, 151)):
        r = rng.substream(t)
        g = _random_hypergraph(n, 513 + int(r.random() * 100), 2 + t % 3, r)
        c = census_bruteforce(g)
        assert (c.s, c.disjoint, c.connected, c.all) == oracles.census_pairs(g.edges.tolist())


def test_census_vectorized_block_path():
    g = complete_graph(35)  # s = 595 exercises the blocked numpy path
    assert g.s == 595
    assert census_bruteforce(g) == census_by_degrees(degree_vector(g))
    assert census_bruteforce(g) == preset_census("complete", 35)


def test_census_by_degrees_rejects_odd_sum():
    from qfiwb.graphs import DegreeVector

    with pytest.raises(ValueError):
        census_by_degrees(DegreeVector((1, 1, 1)))


def test_degree_vector_star():
    assert degree_vector(star_graph(5)).d == (4, 1, 1, 1, 1)


def test_witness_counts():
    c = census_bruteforce(ring_graph(6))
    assert c.witness_counts == (36, 6 + c.connected)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_graph_census_partition(seed):
    r = Rng(seed)
    n = 4 + int(r.random() * 7)
    s = 1 + int(r.random() * (n * (n - 1) // 2))
    g = sample_graph(n, s, r)
    c = census_bruteforce(g)
    assert c.s + c.disjoint + c.connected == c.all == c.s**2


# --- degree scaling ---------------------------------------------------------------

def test_scaling_star_never_gaps():
    for n in (4, 8, 12):
        rep = scaling_report(star_graph(n))
        assert rep.ratio == pytest.approx(n / (4.0 * (n - 1)))
        assert rep.ratio > GAP_RATIO
        assert rep.verdict == "no-gap"


def test_scaling_ring_gaps_at_moderate_size():
    rep = scaling_report(ring_graph(8))
    assert rep.ratio == pytest.approx(1.0 / 8.0)
    assert rep.verdict == "gap"
    assert rep.norm1_sq == pytest.approx((2 * 8) ** 2)
    assert rep.norm2_sq == pytest.approx(4 * 8)


def test_scaling_rejects_kbody():
    with pytest.raises(ValueError):
        scaling_report(ring_graph(7, 3))


# --- witnesses against dense computation -------------------------------------------

def test_witness_max_all_formula():
    for n in (5, 40):
        g = ring_graph(n)
        rep = qfi_witnesses(g, 0.5, 1.5)
        spread = g.s * (1.5**2 - 0.5**2)
        assert rep.max_all == pytest.approx(spread**2, abs=1e-9)
        assert rep.all_constant == pytest.approx(rep.max_all / rep.all_count)


def test_witness_sandwich_contains_product_max():
    for shape in ("star", "chain", "ring", "complete"):
        g = preset_graph(shape, 5)
        rep = qfi_witnesses(g, 0.5, 1.5)
        assert rep.prod_lower <= rep.max_prod + 1e-9
        assert rep.max_prod <= rep.prod_upper + 1e-9
        assert rep.max_prod <= rep.max_all + 1e-9


def test_witness_guards():
    with pytest.raises(ValueError):
        qfi_witnesses(ring_graph(5), -1.0, 1.0)
    with pytest.raises(ValueError):
        qfi_witnesses(ring_graph(7, 3), 0.5, 1.5)


def test_witness_max_all_achieved_by_some_state():
    # The dense maximum over random states never exceeds max_all, and the
    # computational extremes achieve it.
    g = chain_graph(4)
    rep = qfi_witnesses(g, 0.5, 1.5)
    h = to_hamiltonian(g, 0.5, 1.5)
    for seed in range(5):
        psi = sample_haar(4, 2, Rng(seed))
        assert qfi(psi, h) <= rep.max_all + 1e-9


@pytest.mark.parametrize("g", [chain_graph(5, 3), ring_graph(6, 3)], ids=["chain", "ring"])
def test_product_qfi_at_rejects_kbody_graphs(g):
    # The 2-body formula misses the dense product-state QFI of a 3-body
    # graph (chain 15.04 vs 36.51, ring 44.60 vs 101.90 at p = 0.3).
    c = census(g)
    h = to_hamiltonian(g, 0.5, 1.5)
    dense = qfi(symmetric_product_state(h, 0.3), h)
    assert product_qfi_closed_form(c.s, c.connected, 0.5, 1.5, 0.3) < dense / 2
    with pytest.raises(ValueError, match="2-body"):
        product_qfi_at(g, 0.5, 1.5, 0.3)


def test_product_qfi_at_matches_scan_value():
    g = ring_graph(5)
    census = census_bruteforce(g)
    scan = max_qfi_symmetric_product(census.s, census.connected, 0.5, 1.5)
    assert product_qfi_at(g, 0.5, 1.5, scan.p) == pytest.approx(scan.value, abs=1e-12)


# --- file format -------------------------------------------------------------------

def test_graph_file_roundtrip(tmp_path):
    g = sample_graph(7, 9, Rng(3))
    path = tmp_path / "g.txt"
    write_graph(path, g)
    back = read_graph(path)
    assert back.n == g.n and back.edges.tolist() == g.edges.tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 3), data=st.data())
def test_graph_text_roundtrip_through_comments_and_blank_lines(seed, k, data):
    g = sample_graph(6, 5, Rng(seed), k)
    back = graph_from_text(data.draw(commented(graph_to_text(g))))
    assert back.n == g.n and back.edges.tolist() == g.edges.tolist()


def test_graph_from_text_guards():
    from qfiwb.graphs import graph_from_text

    with pytest.raises(ValueError):
        graph_from_text("")
    with pytest.raises(ValueError):
        graph_from_text("3\n1 2\n")
    with pytest.raises(ValueError):
        graph_from_text("3 2\n1 2 3\n")


def test_graph_from_text_skips_comments_and_blank_lines():
    from qfiwb.graphs import graph_from_text

    g = graph_from_text("# c\n3 2\n\n1 2  # e\n# trailing\n2 3\n")
    assert g.n == 3 and g.edges.tolist() == [[1, 2], [2, 3]]


# --- sampler -----------------------------------------------------------------------

def test_sample_graph_properties():
    g = sample_graph(6, 5, Rng(9))
    assert g.s == 5 and g.k == 2
    assert len({frozenset(e) for e in g.edges}) == 5
    again = sample_graph(6, 5, Rng(9))
    assert g.edges.tolist() == again.edges.tolist()
    with pytest.raises(ValueError):
        sample_graph(4, 7, Rng(0))
