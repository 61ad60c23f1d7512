"""The bitset r-neighbour bootstrap engine and its exhaustive searches, the
oracles for the CSR peeling kernel and seed searches in
`bootperc.experiments` and for `bootperc.engine.graph_bootstrap_closure`.

It is kept apart from the library on purpose: it builds its own packed bit
masks from `Graph.neighbors`, and every search takes its candidates by one
plain rule for every r (an r-set can only grow if its members share a
neighbour), so it shares no code with the searches it checks.  Infected
sets are Python integers and infected neighbours are counted with
popcount.

It also holds the CSR build that `Graph.from_arrays` replaced, as its
oracle: the decode of sorted linear pair indices into pairs u < v, and a
lexsort over both directions of the pairs.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

DEFAULT_WITNESS_BUDGET = 1_000_000  # parent-set trials in hat_bootstrap


def bit_masks(graph) -> list[int]:
    """Row v holds bit u for every neighbour u of v."""
    masks = []
    for v in range(graph.n):
        mask = 0
        for u in graph.neighbors(v).tolist():
            mask |= 1 << u
        masks.append(mask)
    return masks


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


@dataclass
class Trace:
    """Levels of a percolation run: levels[0] is the seed, levels[t] the
    set infected in round t, tau the final round index.  hat_bootstrap
    adds its witness edges and whether its search budget ran out."""

    seed: tuple[int, ...]
    levels: list[tuple[int, ...]]
    tau: int
    witness_edges: list[tuple[int, int]] | None = None
    lower_bound_only: bool = False

    def cumulative(self, t: int) -> set[int]:
        out: set[int] = set()
        for level in self.levels[: t + 1]:
            out.update(level)
        return out

    @property
    def final(self) -> set[int]:
        return self.cumulative(self.tau)


# ----------------------------------------------------------------------
# r-neighbour percolation and the exhaustive searches
# ----------------------------------------------------------------------

def bootstrap(graph, seed, r: int, masks=None) -> Trace:
    """Synchronous r-neighbour bootstrap percolation from seed, r or more
    distinct vertices; masks, if given, are the graph's bit_masks."""
    if r < 1:
        raise ValueError(f"threshold r must be >= 1, got {r}")
    seed_t = tuple(sorted(set(seed)))
    if len(seed_t) < r or len(seed_t) != len(tuple(seed)):
        raise ValueError(f"seed must be {r} or more distinct vertices, got {tuple(seed)}")
    for v in seed_t:
        if not (0 <= v < graph.n):
            raise ValueError(f"seed vertex {v} out of range for n={graph.n}")
    if masks is None:
        masks = bit_masks(graph)
    infected = 0
    for v in seed_t:
        infected |= 1 << v
    levels = [seed_t]
    uninfected = [v for v in range(graph.n) if not (infected >> v) & 1]
    while uninfected:
        newly = [v for v in uninfected if (masks[v] & infected).bit_count() >= r]
        if not newly:
            break
        levels.append(tuple(newly))
        for v in newly:
            infected |= 1 << v
        gone = set(newly)
        uninfected = [v for v in uninfected if v not in gone]
    return Trace(seed=seed_t, levels=levels, tau=len(levels) - 1)


def spanning_set(graph, r: int):
    """First r-set (lexicographically) whose infection covers the graph, or
    None.  Every r-set is examined except those whose members share no
    neighbour, which cannot grow."""
    n = graph.n
    if n < r:
        return None
    if n == r:
        return tuple(range(n))
    masks = bit_masks(graph)
    for s in combinations(range(n), r):
        common = -1
        for v in s:
            common &= masks[v]
        if common and len(bootstrap(graph, s, r, masks).final) == n:
            return s
    return None


def _iter_cliques(graph, masks, r: int):
    """All r-cliques as sorted tuples, in lexicographic order."""

    def extend(prefix, allowed, depth):
        if depth == 0:
            yield prefix
            return
        m = allowed
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            yield from extend(prefix + (v,), m & masks[v], depth - 1)

    yield from extend((), (1 << graph.n) - 1, r)


def has_seed(graph, r: int):
    """First r-clique (lexicographically) whose infection covers the graph,
    or None."""
    masks = bit_masks(graph)
    for clique in _iter_cliques(graph, masks, r):
        if len(bootstrap(graph, clique, r, masks).final) == graph.n:
            return clique
    return None


# ----------------------------------------------------------------------
# K_k graph bootstrap, by the definition
# ----------------------------------------------------------------------

def closure_edges(graph, k: int) -> set[tuple[int, int]]:
    """Edges of the K_k bootstrap closure: sweep every missing uv, adding
    it when its common neighbourhood holds a (k-2)-clique, until a whole
    sweep adds nothing."""
    n = graph.n
    adj = [set(graph.neighbors(v).tolist()) for v in range(n)]
    changed = True
    while changed:
        changed = False
        for u, v in combinations(range(n), 2):
            if v in adj[u]:
                continue
            common = sorted(adj[u] & adj[v])
            if any(
                all(b in adj[a] for a, b in combinations(s, 2))
                for s in combinations(common, k - 2)
            ):
                adj[u].add(v)
                adj[v].add(u)
                changed = True
    return {(u, v) for u in range(n) for v in adj[u] if u < v}


# ----------------------------------------------------------------------
# triangle-free-restricted percolation
# ----------------------------------------------------------------------

def hat_bootstrap(graph, seed, r: int, node_budget: int = DEFAULT_WITNESS_BUDGET) -> Trace:
    """Percolation constrained to triangle-free witnesses.

    Follows the plain bootstrap levels but requires every infected vertex to
    commit to r parent edges into earlier levels such that the union of all
    committed edges stays triangle-free.  Returns the longest level prefix
    that admits such a witness (depth-first search over parent choices, in
    lexicographic order), together with the witness edges.  The trace ends
    at the first level that cannot be fully witnessed.  If the search budget
    (parent-set trials) runs out, the result is flagged lower_bound_only.

    A vertex of level t always has fewer than r neighbors inside V_{t-2},
    so every one of its r-subsets of neighbors in V_{t-1} automatically
    meets level t-1; the search need not filter for that.
    """
    masks = bit_masks(graph)
    base = bootstrap(graph, seed, r, masks)
    order: list[int] = []
    block_end: list[int] = [0]
    cum_mask = 0
    for v in base.seed:
        cum_mask |= 1 << v
    cum_masks = [cum_mask]
    for level in base.levels[1:]:
        order.extend(sorted(level))
        block_end.append(len(order))
        for v in level:
            cum_mask |= 1 << v
        cum_masks.append(cum_mask)
    level_of_pos: list[int] = []
    for t in range(1, len(base.levels)):
        level_of_pos.extend([t] * len(base.levels[t]))

    witness_adj: dict[int, int] = {}
    edge_stack: list[tuple[int, int]] = []
    snapshots: dict[int, list[tuple[int, int]]] = {0: []}
    iters: list = [None] * len(order)
    pos = 0
    trials = 0
    exhausted_budget = False

    def candidates(p: int):
        pool = masks[order[p]] & cum_masks[level_of_pos[p] - 1]
        return combinations(list(_bits(pool)), r)

    while 0 <= pos < len(order):
        if iters[pos] is None:
            iters[pos] = candidates(pos)
        placed = False
        for ps in iters[pos]:
            trials += 1
            if trials > node_budget:
                exhausted_budget = True
                break
            if any(
                (witness_adj.get(a, 0) >> b) & 1 for a, b in combinations(ps, 2)
            ):
                continue
            v = order[pos]
            for p in ps:
                witness_adj[p] = witness_adj.get(p, 0) | (1 << v)
                witness_adj[v] = witness_adj.get(v, 0) | (1 << p)
                edge_stack.append((p, v) if p < v else (v, p))
            pos += 1
            t = level_of_pos[pos - 1]
            if pos == block_end[t] and t not in snapshots:
                snapshots[t] = list(edge_stack)
            placed = True
            break
        if exhausted_budget:
            break
        if not placed:
            iters[pos] = None
            pos -= 1
            if pos >= 0:
                v = order[pos]
                for _ in range(r):
                    a, b = edge_stack.pop()
                    p = a if b == v else b
                    witness_adj[p] &= ~(1 << v)
                    witness_adj[v] &= ~(1 << p)

    t_best = max(snapshots)
    return Trace(
        seed=base.seed,
        levels=base.levels[: t_best + 1],
        tau=t_best,
        witness_edges=sorted(snapshots[t_best]),
        lower_bound_only=exhausted_budget,
    )


# ----------------------------------------------------------------------
# the CSR build from linear pair indices, the slow way
# ----------------------------------------------------------------------

def pairs_from_linear(n: int, idx):
    """Pairs (u, v), u < v, of sorted linear pair indices, idx(u, v) =
    u(2n-u-1)/2 + v-u-1: row u's pairs are the run of idx between its row
    start and the next one."""
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    counts = np.diff(idx.searchsorted(row_start), append=idx.shape[0])
    v = idx - (row_start - rows - 1).repeat(counts)
    return rows.repeat(counts), v


def csr_by_lexsort(n: int, u, v):
    """CSR arrays (indptr, indices) of the pairs (u, v), by lexsort over
    both edge directions and np.add.at degrees."""
    heads = np.concatenate([u, v])
    tails = np.concatenate([v, u])
    order = np.lexsort((tails, heads))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, heads[order] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, tails[order].astype(np.int64)
