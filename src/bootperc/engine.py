"""Deterministic bootstrap dynamics.

r-neighbor bootstrap percolation (synchronous rounds: V_{t+1} is V_t plus
every vertex with at least r infected neighbors), K_k graph bootstrap
closure (repeatedly add any missing edge whose endpoints share a (k-2)-clique
of common neighbors), seed detection (an r-clique whose infection covers the
graph), and the triangle-free-restricted percolation in which every infected
vertex must commit to r parent edges such that the accumulated witness edge
set stays triangle-free.

The percolation kernel stores neighborhoods and infected sets as packed bit
sets (Python integers) and counts infected neighbors with popcount.  The
Monte Carlo harness in the experiments module has its own kernel for graphs
too large to pack: it walks the CSR rows of the vertices a spread infects,
keeping per-vertex stamps and counters in Python lists.

A 2-set can only grow if its two vertices share a neighbor, so every r = 2
seed search draws its candidates from wedge_pairs, the one enumerator of
such pairs: centre by centre, in numpy chunks of bounded size.  Consumers
deduplicate pairs with several common neighbors themselves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

__all__ = [
    "Graph",
    "PercolationTrace",
    "SusceptibilityResult",
    "EngineError",
    "SeedSearchCapExceeded",
    "bootstrap",
    "is_susceptible",
    "wedge_pairs",
    "has_seed",
    "has_contagious_subset",
    "graph_bootstrap_closure",
    "hat_bootstrap",
    "write_graph",
    "read_graph",
]

DEFAULT_SUSCEPTIBILITY_CAP = 5_000_000  # seed sets examined exhaustively
DEFAULT_WITNESS_BUDGET = 1_000_000  # parent-set trials in hat_bootstrap
WEDGE_FIRST_CHUNK = 1 << 10  # target pairs in wedge_pairs' first chunk
WEDGE_CHUNK_CAP = 1 << 21  # most pairs in any chunk of wedge_pairs

# np.triu_indices(d, 1) by degree d, shared across wedge_pairs calls for the
# degrees with at most WEDGE_FIRST_CHUNK pairs (under 1 MB in all)
_SMALL_TRIU: dict = {}


class EngineError(Exception):
    pass


class SeedSearchCapExceeded(EngineError):
    pass


class Graph:
    """Immutable simple undirected graph.

    Adjacency is kept in CSR arrays; packed bit-set rows are built lazily on
    first use by the percolation kernel.
    """

    __slots__ = ("n", "indptr", "indices", "_masks")

    def __init__(self, n: int, edges) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        eu = []
        ev = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            eu.append(key[0])
            ev.append(key[1])
        self.indptr, self.indices = _csr_from_pairs(
            n, np.asarray(eu, dtype=np.int64), np.asarray(ev, dtype=np.int64)
        )
        self._masks = None

    @classmethod
    def from_arrays(cls, n: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """Fast path for prevalidated, deduplicated edge arrays."""
        g = cls.__new__(cls)
        g.n = n
        g.indptr, g.indices = _csr_from_pairs(
            n, np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        )
        g._masks = None
        return g

    @property
    def m(self) -> int:
        return int(self.indices.shape[0]) // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.shape[0] and int(row[pos]) == v

    def edges(self):
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    @property
    def masks(self) -> list[int]:
        if self._masks is None:
            self._masks = _build_masks(self.n, self.indptr, self.indices)
        return self._masks


def _csr_from_pairs(n, u, v):
    # one key head * n + tail per directed edge: sorting it orders the rows
    # and each row's neighbors at once; row h spans keys [h n, (h + 1) n)
    key = np.concatenate([u * n + v, v * n + u])
    key.sort()
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(key, n, out=key)
    return indptr, key


def _build_masks(n, indptr, indices) -> list[int]:
    masks = []
    nbytes = (n + 7) >> 3
    idx = indices.tolist()
    ptr = indptr.tolist()
    for v in range(n):
        ba = bytearray(nbytes)
        for u in idx[ptr[v]:ptr[v + 1]]:
            ba[u >> 3] |= 1 << (u & 7)
        masks.append(int.from_bytes(ba, "little"))
    return masks


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------

@dataclass
class PercolationTrace:
    """Levels of a percolation run: levels[0] is the seed, levels[t] the
    set infected in round t, tau the final round index."""

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

    def to_json(self) -> str:
        data = {
            "seed": list(self.seed),
            "levels": [list(l) for l in self.levels],
            "tau": self.tau,
        }
        if self.witness_edges is not None:
            data["witness_edges"] = [list(e) for e in self.witness_edges]
            data["lower_bound_only"] = self.lower_bound_only
        return json.dumps(data)

    @classmethod
    def from_json(cls, text: str) -> "PercolationTrace":
        data = json.loads(text)
        witness = data.get("witness_edges")
        return cls(
            seed=tuple(data["seed"]),
            levels=[tuple(l) for l in data["levels"]],
            tau=data["tau"],
            witness_edges=None if witness is None else [tuple(e) for e in witness],
            lower_bound_only=data.get("lower_bound_only", False),
        )


@dataclass(frozen=True)
class SusceptibilityResult:
    status: str  # "yes" | "no" | "unknown"
    witness: tuple[int, ...] | None = None


# ----------------------------------------------------------------------
# r-neighbor percolation
# ----------------------------------------------------------------------

def _validate_seed(graph: Graph, seed, r: int) -> tuple[int, ...]:
    seed_t = tuple(sorted(set(seed)))
    if len(seed_t) != r or len(seed_t) != len(tuple(seed)):
        raise ValueError(f"seed must be {r} distinct vertices, got {tuple(seed)}")
    for v in seed_t:
        if not (0 <= v < graph.n):
            raise ValueError(f"seed vertex {v} out of range for n={graph.n}")
    return seed_t


def bootstrap(graph: Graph, seed, r: int) -> PercolationTrace:
    """Synchronous r-neighbor bootstrap percolation from seed."""
    if r < 1:
        raise ValueError(f"threshold r must be >= 1, got {r}")
    seed_t = _validate_seed(graph, seed, r)
    masks = graph.masks
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
    return PercolationTrace(seed=seed_t, levels=levels, tau=len(levels) - 1)


def _common_neighborhood(masks, seed_t) -> int:
    common = -1
    for v in seed_t:
        common &= masks[v]
    for v in seed_t:
        common &= ~(1 << v)
    return common


def is_susceptible(
    graph: Graph,
    r: int,
    strategy: str = "exhaustive",
    m: int = 1000,
    rng_seed: int | None = None,
    cap: int = DEFAULT_SUSCEPTIBILITY_CAP,
) -> SusceptibilityResult:
    """Does some r-set infect the whole graph?

    exhaustive iterates every candidate r-set (definitive); sampled tests m
    uniformly random r-sets and returns yes or unknown.  Candidate r-sets
    whose common neighborhood is empty cannot grow and are skipped.
    """
    n = graph.n
    if n < r:
        return SusceptibilityResult("no")
    if n == r:
        return SusceptibilityResult("yes", tuple(range(n)))
    if strategy == "exhaustive":
        from math import comb

        if comb(n, r) > cap:
            raise SeedSearchCapExceeded(
                f"C({n}, {r}) exceeds exhaustive cap of {cap}"
            )
        masks = graph.masks
        if r == 2:  # np.unique over all chunks, one chunk at a time
            keys = np.empty(0, dtype=np.int64)
            for a, b in wedge_pairs(graph):
                keys = np.union1d(keys, a * n + b)
            candidates = zip((keys // n).tolist(), (keys % n).tolist())
        else:
            candidates = (
                s for s in combinations(range(n), r)
                if _common_neighborhood(masks, s)
            )
        for seed_t in candidates:
            if len(bootstrap(graph, seed_t, r).final) == n:
                return SusceptibilityResult("yes", tuple(seed_t))
        return SusceptibilityResult("no")
    if strategy == "sampled":
        rng = np.random.default_rng(rng_seed)
        masks = graph.masks
        for _ in range(m):
            seed_t = tuple(sorted(rng.choice(n, size=r, replace=False).tolist()))
            if not _common_neighborhood(masks, seed_t):
                continue
            if len(bootstrap(graph, seed_t, r).final) == n:
                return SusceptibilityResult("yes", seed_t)
        return SusceptibilityResult("unknown")
    raise ValueError(f"unknown strategy {strategy!r}")


def wedge_pairs(graph: Graph):
    """Pairs (a, b), a < b, with a common neighbor, as chunks of arrays (a, b).

    Centre-major: for each centre in turn, every pair of its sorted
    neighbors in row-major order, so a pair comes once per common neighbor.
    Chunks start at about WEDGE_FIRST_CHUNK pairs, so a search that stops
    early builds little, and double up to WEDGE_CHUNK_CAP; none is longer
    than the cap, which bounds memory on graphs with ~1e8 wedges.
    """
    chunk_cap = WEDGE_CHUNK_CAP
    indptr, indices = graph.indptr, graph.indices
    triu: dict = {}
    buf_a: list = []
    buf_b: list = []
    held = 0
    size = min(WEDGE_FIRST_CHUNK, chunk_cap)
    for c in range(graph.n):
        nbrs = indices[indptr[c] : indptr[c + 1]]
        d = nbrs.shape[0]
        if d < 2:
            continue
        n_pairs = d * (d - 1) // 2
        if n_pairs <= chunk_cap:
            cache = _SMALL_TRIU if n_pairs <= WEDGE_FIRST_CHUNK else triu
            if d not in cache:
                cache[d] = np.triu_indices(d, 1)
            ii, jj = cache[d]
            pieces = [(nbrs[ii], nbrs[jj])]
        else:  # one row of the centre's pairs at a time, cut to the cap
            pieces = (
                (np.full(min(chunk_cap, d - s), nbrs[i]), nbrs[s : s + chunk_cap])
                for i in range(d - 1)
                for s in range(i + 1, d, chunk_cap)
            )
        for a, b in pieces:
            if held and held + a.shape[0] > size:
                yield np.concatenate(buf_a), np.concatenate(buf_b)
                buf_a, buf_b, held = [], [], 0
                size = min(2 * size, chunk_cap)
            buf_a.append(a)
            buf_b.append(b)
            held += a.shape[0]
    if held:
        yield np.concatenate(buf_a), np.concatenate(buf_b)


# ----------------------------------------------------------------------
# seeds and clique search
# ----------------------------------------------------------------------

def _iter_cliques(graph: Graph, r: int):
    """All r-cliques as sorted tuples, in lexicographic order."""
    masks = graph.masks
    full = (1 << graph.n) - 1

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

    yield from extend((), full, r)


def has_seed(graph: Graph, r: int):
    """First r-clique (lexicographically) whose infection covers the graph,
    or None."""
    for clique in _iter_cliques(graph, r):
        if len(bootstrap(graph, clique, r).final) == graph.n:
            return clique
    return None


def has_contagious_subset(
    graph: Graph,
    r: int,
    min_edges: int,
    cap: int = DEFAULT_SUSCEPTIBILITY_CAP,
):
    """First r-set (lexicographically) spanning at least min_edges whose
    infection covers the graph, or None.  min_edges = C(r,2) recovers
    has_seed; smaller values test contagious copies of sparser r-vertex
    subgraphs by edge count."""
    from math import comb

    if comb(graph.n, r) > cap:
        raise SeedSearchCapExceeded(
            f"C({graph.n}, {r}) exceeds exhaustive cap of {cap}"
        )
    masks = graph.masks
    for s in combinations(range(graph.n), r):
        inner = 0
        for a_idx in range(r):
            for b_idx in range(a_idx + 1, r):
                if (masks[s[a_idx]] >> s[b_idx]) & 1:
                    inner += 1
        if inner < min_edges:
            continue
        if graph.n > r and not _common_neighborhood(masks, s):
            continue
        if len(bootstrap(graph, s, r).final) == graph.n:
            return s
    return None


# ----------------------------------------------------------------------
# graph bootstrap (K_k closure)
# ----------------------------------------------------------------------

def _has_clique_in(mask: int, size: int, masks) -> bool:
    if size == 0:
        return True
    if mask.bit_count() < size:
        return False
    m = mask
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        # remaining bits of m are all above v, keeping enumeration ordered
        if _has_clique_in(m & masks[v], size - 1, masks):
            return True
    return False


def graph_bootstrap_closure(graph: Graph, k: int) -> Graph:
    """K_k bootstrap closure: repeatedly add any missing edge uv for which
    some (k-2)-set of common neighbors of u and v forms a clique."""
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    n = graph.n
    masks = list(graph.masks)
    from collections import deque

    queue = deque(
        (u, v) for u in range(n) for v in range(u + 1, n)
        if not (masks[u] >> v) & 1
    )
    while queue:
        u, v = queue.popleft()
        if (masks[u] >> v) & 1:
            continue
        common = masks[u] & masks[v]
        if not _has_clique_in(common, k - 2, masks):
            continue
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        # pairs whose common neighborhood or internal edges gained from uv
        for x in _bits(masks[v]):
            if x != u and not (masks[u] >> x) & 1:
                queue.append((min(u, x), max(u, x)))
        for x in _bits(masks[u]):
            if x != v and not (masks[v] >> x) & 1:
                queue.append((min(v, x), max(v, x)))
        both = masks[u] & masks[v]
        members = list(_bits(both))
        for a_idx in range(len(members)):
            for b_idx in range(a_idx + 1, len(members)):
                x, y = members[a_idx], members[b_idx]
                if not (masks[x] >> y) & 1:
                    queue.append((x, y))
    edges = [
        (u, v) for u in range(n) for v in _bits(masks[u] >> (u + 1), offset=u + 1)
    ]
    return Graph(n, edges)


def _bits(mask: int, offset: int = 0):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1 + offset


def is_complete(graph: Graph) -> bool:
    return graph.m == graph.n * (graph.n - 1) // 2


# ----------------------------------------------------------------------
# triangle-free-restricted percolation
# ----------------------------------------------------------------------

def hat_bootstrap(
    graph: Graph,
    seed,
    r: int,
    node_budget: int = DEFAULT_WITNESS_BUDGET,
) -> PercolationTrace:
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
    base = bootstrap(graph, seed, r)
    masks = graph.masks
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
        v = order[p]
        pool = masks[v] & cum_masks[level_of_pos[p] - 1]
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
            conflict = False
            for a_idx in range(r):
                pa = ps[a_idx]
                adj = witness_adj.get(pa, 0)
                for b_idx in range(a_idx + 1, r):
                    if (adj >> ps[b_idx]) & 1:
                        conflict = True
                        break
                if conflict:
                    break
            if conflict:
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
    return PercolationTrace(
        seed=base.seed,
        levels=base.levels[: t_best + 1],
        tau=t_best,
        witness_edges=sorted(snapshots[t_best]),
        lower_bound_only=exhausted_budget,
    )


# ----------------------------------------------------------------------
# graph I/O
# ----------------------------------------------------------------------

def write_graph(graph: Graph, fp) -> None:
    """JSON header {n, edges} then one `u v` line per edge, 0-indexed."""
    fp.write(json.dumps({"n": graph.n, "edges": graph.m}) + "\n")
    for u, v in graph.edges():
        fp.write(f"{u} {v}\n")


def read_graph(fp) -> Graph:
    header = json.loads(fp.readline())
    edges = []
    for line in fp:
        line = line.strip()
        if not line:
            continue
        u, v = line.split()
        edges.append((int(u), int(v)))
    if len(edges) != header["edges"]:
        raise ValueError(
            f"edge count mismatch: header says {header['edges']}, "
            f"found {len(edges)}"
        )
    return Graph(header["n"], edges)
