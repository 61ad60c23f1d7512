"""Graph, wedge-pair and K_k closure tests, and the tests of the bitset
oracle (percolation traces, spanning-set and seed searches, witnesses) that
the peeling kernel and the seed searches are checked against."""

import io
import tracemalloc
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootperc import engine
from bootperc.counting import iter_minimally_susceptible
from bootperc.engine import (
    Graph,
    graph_bootstrap_closure,
    read_graph,
    wedge_pairs,
    write_graph,
)
from engine_oracle import (
    bit_masks,
    bootstrap,
    closure_edges,
    csr_by_lexsort,
    has_seed,
    hat_bootstrap,
    pairs_from_linear,
    spanning_set,
)

# 5-vertex running example: seed {0,1} infects 2, then 3, then 4.
EX5_EDGES = [(0, 2), (1, 2), (0, 3), (2, 3), (3, 4), (1, 4)]


def complete_graph(n):
    return Graph(n, combinations(range(n), 2))


def _is_complete(g):
    return g.m == g.n * (g.n - 1) // 2


def random_gnp(n, p, rng):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def test_graph_basics():
    g = Graph(5, EX5_EDGES)
    assert g.n == 5
    assert g.m == 6
    assert sorted(g.neighbors(3).tolist()) == [0, 2, 4]
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)
    assert sum(g.degree(v) for v in range(5)) == 2 * g.m
    # duplicates collapse
    assert Graph(3, [(0, 1), (1, 0), (0, 1)]).m == 1


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_bootstrap_complete_graph():
    r = 3
    g = complete_graph(r + 1)
    trace = bootstrap(g, range(r), r)
    assert trace.final == set(range(r + 1))
    assert trace.tau == 1


def test_bootstrap_edgeless():
    g = Graph(6, [])
    trace = bootstrap(g, (1, 4), 2)
    assert trace.final == {1, 4}
    assert trace.tau == 0
    assert trace.levels == [(1, 4)]


def test_bootstrap_running_example():
    g = Graph(5, EX5_EDGES)
    trace = bootstrap(g, (0, 1), 2)
    assert trace.levels == [(0, 1), (2,), (3,), (4,)]
    assert trace.tau == 3


def test_bootstrap_seed_validation():
    g = Graph(5, EX5_EDGES)
    with pytest.raises(ValueError):
        bootstrap(g, (0, 0), 2)
    with pytest.raises(ValueError):
        bootstrap(g, (0,), 2)
    with pytest.raises(ValueError):
        bootstrap(g, (0, 7), 2)


def _check_trace_invariants(g, trace, r):
    for t in range(1, trace.tau + 1):
        prev = trace.cumulative(t - 1)
        for v in trace.levels[t]:
            assert sum(1 for u in g.neighbors(v) if int(u) in prev) >= r
    final = trace.final
    for v in range(g.n):
        if v not in final:
            assert sum(1 for u in g.neighbors(v) if int(u) in final) < r


def test_trace_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 14))
        g = random_gnp(n, 0.4, rng)
        r = int(rng.integers(2, 4))
        if n <= r:
            continue
        seed = sorted(rng.choice(n, size=r, replace=False).tolist())
        _check_trace_invariants(g, bootstrap(g, seed, r), r)


def test_monotonicity_in_edges():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        all_pairs = list(combinations(range(n), 2))
        keep = [p for p in all_pairs if rng.random() < 0.3]
        extra = [p for p in all_pairs if p not in keep and rng.random() < 0.2]
        g_small = Graph(n, keep)
        g_big = Graph(n, keep + extra)
        seed = sorted(rng.choice(n, size=2, replace=False).tolist())
        small = bootstrap(g_small, seed, 2).final
        big = bootstrap(g_big, seed, 2).final
        assert small <= big


def test_is_susceptible_basic():
    assert spanning_set(complete_graph(5), 3) is not None
    assert spanning_set(Graph(5, []), 2) is None
    assert spanning_set(Graph(5, EX5_EDGES), 2) == (0, 1)
    # whole graph as seed
    assert spanning_set(Graph(2, []), 2) == (0, 1)
    assert spanning_set(Graph(1, []), 2) is None


def test_is_susceptible_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        g = random_gnp(n, 0.45, rng)
        for r in (2, 3):
            if n <= r:
                continue
            want = any(
                len(bootstrap(g, s, r).final) == n
                for s in combinations(range(n), r)
            )
            got = spanning_set(g, r)
            assert (got is not None) == want
            if want:
                assert len(bootstrap(g, got, r).final) == n


def _wedge_pairs_reference(graph):
    """Pairs with at least one common neighbor, in sorted order, by a
    Python loop over every centre's neighbor pairs."""
    pairs = set()
    for w in range(graph.n):
        row = graph.neighbors(w).tolist()
        for a_idx in range(len(row)):
            for b_idx in range(a_idx + 1, len(row)):
                pairs.add((row[a_idx], row[b_idx]))
    return sorted(pairs)


def _chunk_sizes(first_chunk, chunk_cap):
    return mock.patch.multiple(
        engine, WEDGE_FIRST_CHUNK=first_chunk, WEDGE_CHUNK_CAP=chunk_cap
    )


@st.composite
def _small_edge_sets(draw):
    n = draw(st.integers(0, 30))
    pairs = list(combinations(range(n), 2))
    p = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    bits = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return n, {e for e, x in zip(pairs, bits) if x < p}


@settings(max_examples=150, deadline=None)
@given(
    n_edges=_small_edge_sets(),
    first_chunk=st.integers(1, 40),
    chunk_cap=st.one_of(st.integers(1, 40), st.just(1 << 21)),
)
def test_wedge_pairs_match_brute_force(n_edges, first_chunk, chunk_cap):
    n, edges = n_edges
    graph = Graph(n, edges)
    with _chunk_sizes(first_chunk, chunk_cap):
        chunks = list(wedge_pairs(graph))
    assert all(a.shape[0] == b.shape[0] == c.shape[0] for a, b, c in chunks)
    # first_chunk wedges, then twice as many each time up to the cap, then
    # whatever is left
    left = sum(comb(int(d), 2) for d in np.diff(graph.indptr))
    sizes, size = [], min(first_chunk, chunk_cap)
    while left:
        sizes.append(min(size, left))
        left -= sizes[-1]
        size = min(2 * size, chunk_cap)
    assert [a.shape[0] for a, _, _ in chunks] == sizes
    assert all(x.dtype == np.int64 for chunk in chunks for x in chunk)
    got = [
        wedge
        for a, b, c in chunks
        for wedge in zip(a.tolist(), b.tolist(), c.tolist())
    ]
    # centre-major, row-major within a centre: one entry per common neighbor
    assert got == [
        (a, b, c)
        for c in range(n)
        for a, b in combinations(graph.neighbors(c).tolist(), 2)
    ]
    assert all(a < b for a, b, _ in got)
    def adjacent(x, y):
        return (min(x, y), max(x, y)) in edges

    # every centre is adjacent to both endpoints, and the wedges are exactly
    # the (a, b, c) with a < b and c adjacent to both, each once
    assert all(adjacent(a, c) and adjacent(b, c) for a, b, c in got)
    assert sorted(got) == [
        (a, b, c)
        for a, b in combinations(range(n), 2)
        for c in range(n)
        if adjacent(a, c) and adjacent(b, c)
    ]
    keys = np.unique(np.array([a * n + b for a, b, _ in got], dtype=np.int64))
    assert list(zip((keys // max(n, 1)).tolist(), (keys % max(n, 1)).tolist())) == (
        _wedge_pairs_reference(graph)
    )


def test_wedge_pairs_chunks_double_up_to_the_cap():
    # 12 centres of C(11, 2) = 55 pairs; chunks of 50, 100, then the cap of
    # 200 are cut wherever they end, inside a centre's pairs as well
    g = complete_graph(12)
    with _chunk_sizes(50, 200):
        chunks = list(wedge_pairs(g))
    assert [a.shape[0] for a, _, _ in chunks] == [50, 100, 200, 200, 110]
    # each centre repeated once per pair of its neighbors, across the cuts
    centres = np.concatenate([c for _, _, c in chunks])
    assert centres.tolist() == [c for c in range(12) for _ in range(55)]
    assert chunks[1][2].tolist() == [0] * 5 + [1] * 55 + [2] * 40
    # a centre with more pairs than the cap is cut the same way: chunks of
    # 1, 2, 4, then the cap of 5, and the 1 pair left of C(8, 2) = 28
    star = Graph(9, [(0, v) for v in range(1, 9)])
    with _chunk_sizes(1, 5):
        chunks = list(wedge_pairs(star))
    sizes = [a.shape[0] for a, _, _ in chunks]
    assert sizes == [1, 2, 4, 5, 5, 5, 5, 1] and sum(sizes) == comb(8, 2)
    assert all((c == 0).all() and c.shape[0] == a.shape[0] for a, _, c in chunks)
    got = [pair for a, b, _ in chunks for pair in zip(a.tolist(), b.tolist())]
    assert got == list(combinations(range(1, 9), 2))


@pytest.mark.parametrize("leaves, bound_mb", [(3000, 112), (1500, 32)])
def test_wedge_pairs_of_one_big_row_stay_bounded(leaves, bound_mb):
    # the star K_{1,3000} has 4.5 M pairs in one row, past the cap of 2^21:
    # a chunk is three int64 arrays of 16 MB each, and the loop holds one
    # chunk while the next is built.  K_{1,1500}'s 1.1 M pairs fit under the
    # cap but still come in chunks of 64, 128, ..., not as one chunk
    star = Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    tracemalloc.start()
    try:
        total = sum(a.shape[0] for a, _, _ in wedge_pairs(star))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == comb(leaves, 2)
    assert peak < bound_mb * 2**20


def test_has_seed():
    assert has_seed(complete_graph(4), 2) == (0, 1)
    path = Graph(6, [(i, i + 1) for i in range(5)])
    assert has_seed(path, 2) is None
    g = Graph(5, EX5_EDGES + [(0, 1)])
    assert has_seed(g, 2) == (0, 1)
    # without the seed edge {0,1} there is no contagious clique
    assert has_seed(Graph(5, EX5_EDGES), 2) is None


def test_closure_k3_connected():
    rng = np.random.default_rng(9)
    # connected graph closes to complete under K_3
    tree = Graph(7, [(0, i) for i in range(1, 7)])
    assert _is_complete(graph_bootstrap_closure(tree, 3))
    # disconnected graph does not
    two = Graph(4, [(0, 1), (2, 3)])
    closed = graph_bootstrap_closure(two, 3)
    assert not closed.has_edge(0, 2)
    for _ in range(10):
        g = random_gnp(8, 0.3, rng)
        closed = graph_bootstrap_closure(g, 3)
        comps = _components(g)
        assert _is_complete(closed) == (comps == 1 or g.n <= 1)


def _components(g):
    seen = set()
    comps = 0
    for s in range(g.n):
        if s in seen:
            continue
        comps += 1
        stack = [s]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(int(u) for u in g.neighbors(v))
    return comps


def test_closure_k4_completion():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K4 minus 23
    assert _is_complete(graph_bootstrap_closure(g, 4))
    # K4 minus two edges stays put
    g2 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert graph_bootstrap_closure(g2, 4).m == g2.m


def test_closure_idempotent():
    rng = np.random.default_rng(13)
    for k in (3, 4, 5):
        for _ in range(8):
            g = random_gnp(9, 0.45, rng)
            once = graph_bootstrap_closure(g, k)
            twice = graph_bootstrap_closure(once, k)
            assert sorted(once.edges()) == sorted(twice.edges())


def test_seed_implies_complete_closure():
    rng = np.random.default_rng(17)
    found = 0
    for _ in range(40):
        r = int(rng.integers(2, 4))
        g = random_gnp(8, 0.55, rng)
        if has_seed(g, r) is not None:
            found += 1
            assert _is_complete(graph_bootstrap_closure(g, r + 2))
    assert found >= 5


def test_closure_validation():
    with pytest.raises(ValueError):
        graph_bootstrap_closure(complete_graph(3), 2)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 10),
    k=st.sampled_from([3, 4, 5]),
    density=st.sampled_from([0.1, 0.3, 0.5, 0.7]),
    graph_seed=st.integers(0, 2**32 - 1),
)
def test_closure_matches_naive_fixpoint(n, k, density, graph_seed):
    # the worklist re-queues only pairs an added edge can affect; sweeping
    # every missing pair until nothing changes must reach the same closure
    g = random_gnp(n, density, np.random.default_rng(graph_seed))
    assert set(graph_bootstrap_closure(g, k).edges()) == closure_edges(g, k)


def test_hat_bootstrap_triangle_free_input():
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(30):
        n = int(rng.integers(4, 10))
        g = random_gnp(n, 0.3, rng)
        if _graph_has_triangle(g):
            continue
        checked += 1
        seed = sorted(rng.choice(n, size=2, replace=False).tolist())
        plain = bootstrap(g, seed, 2)
        hat = hat_bootstrap(g, seed, 2)
        assert hat.levels == plain.levels
        assert hat.tau == plain.tau
        assert not hat.lower_bound_only
    assert checked >= 5


def _graph_has_triangle(g):
    masks = bit_masks(g)
    return any(masks[u] & masks[v] for u, v in g.edges())


def test_hat_bootstrap_k4():
    trace = hat_bootstrap(complete_graph(4), (0, 1), 2)
    assert trace.final == {0, 1, 2, 3}
    assert trace.tau == 1
    assert trace.witness_edges == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_hat_bootstrap_k3():
    trace = hat_bootstrap(complete_graph(3), (0, 1), 2)
    assert trace.final == {0, 1, 2}
    assert trace.witness_edges == [(0, 2), (1, 2)]


def test_hat_bootstrap_running_example_stops():
    # parents of vertex 3 must be {0, 2}, but 02 is already a witness edge
    g = Graph(5, EX5_EDGES)
    trace = hat_bootstrap(g, (0, 1), 2)
    assert trace.tau == 1
    assert trace.levels == [(0, 1), (2,)]
    assert trace.witness_edges == [(0, 2), (1, 2)]
    assert not trace.lower_bound_only


def _witness_is_triangle_free(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return all(not (adj[u] & adj[v]) for u, v in edges)


def test_hat_bootstrap_domination_and_witness():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(4, 11))
        g = random_gnp(n, 0.5, rng)
        seed = sorted(rng.choice(n, size=2, replace=False).tolist())
        plain = bootstrap(g, seed, 2)
        hat = hat_bootstrap(g, seed, 2)
        assert hat.final <= plain.final
        assert hat.levels == plain.levels[: hat.tau + 1]
        assert _witness_is_triangle_free(hat.witness_edges)
        # witness subgraph reproduces the same level sequence
        h = Graph(n, hat.witness_edges)
        re_run = bootstrap(h, seed, 2)
        assert re_run.levels[: hat.tau + 1] == hat.levels


def test_hat_bootstrap_budget_flag():
    g = complete_graph(9)
    full = hat_bootstrap(g, (0, 1), 2)
    assert not full.lower_bound_only
    tiny = hat_bootstrap(g, (0, 1), 2, node_budget=2)
    assert tiny.lower_bound_only
    assert tiny.tau <= full.tau


def test_minimal_edge_fact():
    # susceptible graphs at edge count r(k-r): every non-seed vertex has
    # exactly r neighbors in strictly earlier levels
    for r, k in [(2, 5), (2, 6), (3, 6)]:
        for edges, _ in iter_minimally_susceptible(r, k):
            g = Graph(k, edges)
            trace = bootstrap(g, range(r), r)
            assert trace.final == set(range(k))
            for t in range(1, trace.tau + 1):
                earlier = trace.cumulative(t - 1)
                for v in trace.levels[t]:
                    parents = sum(
                        1 for u in g.neighbors(v) if int(u) in earlier
                    )
                    assert parents == r


def test_graph_io_round_trip():
    g = Graph(5, EX5_EDGES)
    buf = io.StringIO()
    write_graph(g, buf)
    buf.seek(0)
    back = read_graph(buf)
    assert back.n == g.n
    assert sorted(back.edges()) == sorted(g.edges())
    first_line = buf.getvalue().splitlines()[0]
    import json

    assert json.loads(first_line) == {"n": 5, "edges": 6}


def _pair_indices(n, u, v):
    """Linear indices idx(u, v) = u(2n-u-1)/2 + v-u-1 of pairs u < v."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return u * (2 * n - u - 1) // 2 + v - u - 1


def test_from_arrays_matches_list_construction():
    rng = np.random.default_rng(29)
    pairs = [(u, v) for u in range(20) for v in range(u + 1, 20) if rng.random() < 0.2]
    u = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    g1 = Graph(20, pairs)
    g2 = Graph.from_arrays(20, _pair_indices(20, u, v))
    assert sorted(g1.edges()) == sorted(g2.edges())


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 60)),
    density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    isolated=st.sampled_from([0.0, 0.3]),
    order_seed=st.integers(0, 2**32 - 1),
)
def test_csr_from_pairs_matches_lexsort_reference(n, density, isolated, order_seed):
    # deduplicated edges u < v in u-major order, as the sampler draws them;
    # a share of the vertices is kept isolated
    rng = np.random.default_rng(order_seed)
    alone = rng.random(n) < isolated
    pairs = [
        (a, b) for a, b in combinations(range(n), 2)
        if not (alone[a] or alone[b]) and rng.random() < density
    ]
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    g = Graph.from_arrays(n, _pair_indices(n, u, v))
    want_ptr, want_idx = csr_by_lexsort(n, u, v)
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert np.array_equal(g.indptr, want_ptr)
    assert np.array_equal(g.indices, want_idx)
    # Graph() takes its edges in any order and direction, with repeats
    listed = pairs + pairs[: len(pairs) // 3]
    rng.shuffle(listed)
    flip = rng.random(len(listed)) < 0.5
    g = Graph(n, [(b, a) if f else (a, b) for (a, b), f in zip(listed, flip)])
    assert np.array_equal(g.indptr, want_ptr)
    assert np.array_equal(g.indices, want_idx)


@st.composite
def _pair_index_sets(draw):
    """n and a sorted, repeat-free int64 array of linear pair indices in
    [0, n(n-1)/2): empty, every pair, or a random subset, often with whole
    rows (and so vertices) left out."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 400)))
    total = n * (n - 1) // 2
    kind = draw(st.sampled_from(["empty", "all", "subset", "subset"]))
    if kind == "empty" or total == 0:
        return n, np.empty(0, dtype=np.int64)
    if kind == "all":
        return n, np.arange(total, dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = np.flatnonzero(rng.random(total) < draw(st.sampled_from([0.01, 0.2, 0.7])))
    u, _ = pairs_from_linear(n, idx)
    alone = rng.random(n) < draw(st.sampled_from([0.0, 0.3]))
    return n, idx[~alone[u]].astype(np.int64)


@settings(max_examples=200, deadline=None)
@given(case=_pair_index_sets())
def test_from_arrays_matches_decode_and_lexsort(case):
    n, idx = case
    u, v = pairs_from_linear(n, idx)
    assert (0 <= u).all() and (u < v).all() and (v < n).all()
    assert np.array_equal(_pair_indices(n, u, v), idx)
    want_ptr, want_idx = csr_by_lexsort(n, u, v)
    g = Graph.from_arrays(n, idx.copy())
    assert g.n == n and g.m == idx.shape[0]
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert np.array_equal(g.indptr, want_ptr)
    assert np.array_equal(g.indices, want_idx)
    assert list(g.edges()) == list(zip(u.tolist(), v.tolist()))


@settings(max_examples=200, deadline=None)
@given(case=_pair_index_sets(), picks=st.lists(st.integers(0, 2**32 - 1), max_size=8))
def test_rows_before_the_transpose_match_the_csr_rows(case, picks):
    # batches with repeats, with 0 and n - 1, often with isolated vertices
    # (_pair_index_sets leaves rows out), and the empty batch
    n, idx = case
    want = Graph.from_arrays(n, idx)
    want_ptr, want_idx = want.indptr, want.indices
    g = Graph.from_arrays(n, idx)
    xs = [p % n for p in picks] if n else []
    batches = [xs, xs + xs[:3] + [0, n - 1]] if n else [xs]
    with mock.patch.object(Graph, "_build_csr", side_effect=AssertionError("built")):
        for batch in batches + [[]]:
            indptr, indices = g.rows(np.array(batch, dtype=np.int64))
            assert indptr.shape == (n + 1,)
            for x in batch:
                got = indices[indptr[x] : indptr[x + 1]].tolist()
                assert got == want_idx[want_ptr[x] : want_ptr[x + 1]].tolist()
        assert indices.shape == (0,) and not indptr.any()
    # once built, rows serves the graph's own arrays
    indptr, indices = g.indptr, g.indices
    assert all(a is b for a, b in zip(g.rows([0] if n else []), (indptr, indices)))


def test_from_arrays_keeps_no_view_of_the_callers_indices():
    n = 30
    idx = np.flatnonzero(np.random.default_rng(5).random(n * (n - 1) // 2) < 0.2)
    idx = idx.astype(np.int64)
    want = Graph.from_arrays(n, idx.copy())
    g = Graph.from_arrays(n, idx)
    idx[:] = idx[::-1].copy()  # the caller reuses its buffer
    everyone = np.arange(n)
    got = g.rows(everyone)  # before the transpose
    for x in range(n):
        row = got[1][got[0][x] : got[0][x + 1]]
        assert row.tolist() == want.neighbors(x).tolist()
    idx[:] = 0
    assert np.array_equal(g.indptr, want.indptr)
    assert np.array_equal(g.indices, want.indices)


@settings(max_examples=200, deadline=None)
@given(
    case=_pair_index_sets(),
    defect=st.sampled_from(["repeated", "decreasing", "negative", "past_total"]),
    at=st.integers(0, 2**32 - 1),
)
def test_from_arrays_rejects_pair_indices_out_of_order_or_range(case, defect, at):
    n, idx = case
    total = n * (n - 1) // 2
    if defect == "repeated":
        if not idx.shape[0]:
            idx = np.array([0 if total else -1], dtype=np.int64)
        j = at % idx.shape[0]
        idx = np.insert(idx, j, idx[j])
    elif defect == "decreasing":
        if idx.shape[0] < 2:
            idx = np.array([1, 0], dtype=np.int64)
        else:
            j = at % (idx.shape[0] - 1)
            idx[j], idx[j + 1] = idx[j + 1], idx[j]
    elif defect == "negative":
        idx = np.concatenate(([-1 - at % 3], idx)).astype(np.int64)
    else:
        idx = np.concatenate((idx, [total + at % 3])).astype(np.int64)
    with pytest.raises(ValueError, match="strictly increasing"):
        Graph.from_arrays(n, idx)


@pytest.mark.parametrize(
    "n, u, v",
    [
        (5, [3, 4], [4, 3]),  # flipped: (4, 3) comes before (3, 4)
        (5, [0, 1, 0], [1, 2, 3]),  # unsorted rows
        (5, [1, 1], [3, 2]),  # unsorted within a row
        (5, [0, 1, 1], [1, 2, 2]),  # repeated
        (5, [0], [0]),  # self-loop: index -1
        (5, [0, 3], [1, 5]),  # out of range: index n(n-1)/2
        (5, [-1, 0], [0, 1]),  # negative
    ],
)
def test_csr_from_pairs_rejects_pairs_out_of_order(n, u, v):
    with pytest.raises(ValueError, match="strictly increasing"):
        Graph.from_arrays(n, _pair_indices(n, u, v))
