"""Graphs and the K_k graph bootstrap.

Graph keeps a simple undirected graph as its edges' linear pair indices
idx(u, v) = u(2n-u-1)/2 + v-u-1 of the pairs u < v, decoded: it takes
them strictly increasing, which is the order the G(n,p) sampler draws
them in, and raises ValueError for indices out of it.  It decodes them a
piece at a time, as the sampler draws them, so the indices never need to
exist whole: a search of each piece for the row starts it spans counts
each row's run of pairs, the runs' cumulative sum gives where each run
starts, and each row's upper half is its run of v, written piece by piece
into one buffer.  The CSR arrays (row pointers and sorted
neighbor lists) are built from those on first use: the lower halves come
from one sort of the m keys v n + u.  Graph.rows serves the rows of a
batch of vertices without them, from one pass over the m pairs and a sort
of the batch's lower halves, so a search that reads few rows never pays
for the rest.  Graph() encodes its sorted, deduplicated pairs;
Graph.from_arrays takes the indices as they come, in one array or in
pieces.
graph_bootstrap_closure, the paper's K_k application, repeatedly adds any
missing edge whose endpoints share a (k-2)-clique of common neighbors; it
works on packed bit-set rows (Python integers), built from the CSR arrays.

A 2-set can only grow if its two vertices share a neighbor, so every r = 2
seed search draws its candidates from wedges (a, b, c), pairs a < b with a
common neighbor c.  row_pairs enumerates the pairs of entries of each row
of CSR arrays in numpy chunks on one schedule: a first chunk of a size the
caller picks, then chunks twice as large each time up to a cap, cut at any
pair.  wedge_pairs is row_pairs of the graph's own rows, centre by centre,
from a first chunk of 64, and the seed-edge sweep's triangle enumerator
runs it on rows oriented by degree.  The centre lets a search screen out
pairs whose spread stops at {a, b, c} before it runs them, a chunk at a
time; consumers deduplicate pairs with several common neighbors
themselves.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np

__all__ = [
    "Graph",
    "wedge_pairs",
    "row_pairs",
    "row_entries",
    "graph_bootstrap_closure",
    "write_graph",
    "read_graph",
]

WEDGE_FIRST_CHUNK = 1 << 6  # pairs in wedge_pairs' first chunk
WEDGE_CHUNK_CAP = 1 << 21  # most pairs in any chunk of row_pairs


class Graph:
    """Immutable simple undirected graph.

    A graph keeps its edges as decoded pairs u < v in u-major order: where
    each row's run of pairs starts (first) and the pairs' v.  The CSR
    arrays indptr and indices (row pointers and sorted neighbor lists) are
    built from them on first use.  rows serves the rows of a batch of
    vertices from the CSR arrays once they exist and from one scan of the
    pairs until then.
    """

    __slots__ = ("n", "m", "_first", "_v", "_indptr", "_indices")

    def __init__(self, n: int, edges) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            seen.add((u, v) if u < v else (v, u))
        pairs = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
        self._decode(n, (u * (2 * n - u - 1) // 2 + v - u - 1,), u.shape[0])

    @classmethod
    def from_arrays(cls, n: int, idx, size: int | None = None) -> "Graph":
        """Graph on n vertices from the linear indices idx(u, v) =
        u(2n-u-1)/2 + v-u-1 of its edges u < v, strictly increasing, as the
        G(n,p) sampler draws them.  idx is one array of them or, when size
        is given, an iterable of arrays, the pieces of that array in order,
        decoded as they come into room for size pairs (grown if they
        overflow it).  Raises ValueError for indices out of that order or
        out of [0, n(n-1)/2), within a piece or across pieces.  idx is only
        read."""
        g = cls.__new__(cls)
        if size is None:
            idx = np.asarray(idx, dtype=np.int64)
            idx, size = (idx,), idx.shape[0]
        g._decode(n, idx, size)
        return g

    def _decode(self, n, pieces, size) -> None:
        """Check the pieces (see from_arrays) and keep their pairs as first
        and v.

        Row u's pairs are the run of indices from its row start u(2n-u-1)/2
        to the next one.  A search of each piece for the row starts inside
        it counts the runs of the rows it spans, their cumulative sum gives
        where each run starts (first), and v = idx - (row start - u - 1)."""
        rows = np.arange(n + 1, dtype=np.int64)
        row_start = rows * (2 * n - rows - 1) // 2  # row n's, n(n-1)/2, ends row n-1
        shift = row_start - rows - 1
        first = np.zeros(n + 1, dtype=np.int64)  # first[u + 1]: row u's run
        v = np.empty(size, dtype=np.int64)
        m, last = 0, -1
        for idx in pieces:
            idx = np.asarray(idx, dtype=np.int64)
            k = idx.shape[0]
            if not k:
                continue
            if not (
                idx[0] > last and idx[-1] < row_start[n] and (idx[1:] > idx[:-1]).all()
            ):
                raise ValueError(
                    "pair indices must be strictly increasing and lie in [0, n(n-1)/2)"
                )
            lo = int(row_start.searchsorted(idx[0], "right")) - 1
            hi = int(row_start.searchsorted(idx[-1], "right"))  # rows lo..hi-1
            runs = np.diff(idx.searchsorted(row_start[lo : hi + 1]))
            first[lo + 1 : hi + 1] += runs
            if m + k > v.shape[0]:
                v = np.resize(v, max(2 * v.shape[0], m + k))
            np.subtract(idx, shift[lo:hi].repeat(runs), out=v[m : m + k])
            m, last = m + k, int(idx[-1])
        np.cumsum(first, out=first)
        self.n, self.m = n, m
        self._first, self._v = first, v[:m]
        self._indptr = self._indices = None

    @property
    def indptr(self) -> np.ndarray:
        if self._indptr is None:
            self._build_csr()
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            self._build_csr()
        return self._indices

    def _build_csr(self) -> None:
        """The transpose: every row, after which the pairs are dropped."""
        self._indptr, self._indices = _csr_rows(self.n, self._first, self._v)
        self._first = self._v = None

    def rows(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """CSR arrays (indptr, indices) that hold the row of each vertex in
        xs (repeats allowed): x's sorted neighbors are
        indices[indptr[x]:indptr[x + 1]].  These are the graph's own arrays
        once they exist; until then one scan of the pairs builds arrays
        whose other rows are empty, so a batch costs O(m) plus its rows."""
        if self._indptr is not None:
            return self._indptr, self._indices
        want = np.zeros(self.n, dtype=bool)
        want[xs] = True
        return _csr_rows(self.n, self._first, self._v, want)

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


def _csr_rows(n, first, v, want=None):
    """CSR arrays (indptr, indices) of the rows u with want[u] (every row if
    want is None; the other rows empty) of the graph on n vertices whose
    pairs u < v, in u-major order, are held as their v's, v, and where each
    row's run of them starts, first (n + 1 entries, the last m).

    Row u's upper half is its run of v.  Its lower half is the u' < u whose
    runs hold u: all pairs for every row; for some rows, the pairs that one
    pass of want[v] finds, with u' from a search of first.  Sorting the
    keys v n + u' orders the lower halves by row and within each row.  Each
    row is then its lower half followed by its upper half, interleaved by
    one mask over the entries."""
    rows = np.arange(n, dtype=np.int64)
    upper = first[1:] - first[:-1]
    if want is None:
        up = v
        lower = np.bincount(v, minlength=n)
        low = v * n
        low += rows.repeat(upper)
    else:
        hit = np.flatnonzero(want[v])  # the pairs in wanted lower halves
        up = row_entries(first, v, rows[want])
        upper = np.where(want, upper, 0)
        lower = np.bincount(v[hit], minlength=n)
        low = v[hit] * n
        low += first.searchsorted(hit, "right") - 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(upper + lower, out=indptr[1:])
    low.sort()
    np.remainder(low, n, out=low)
    halves = np.empty(2 * n, dtype=np.int64)  # row u's lower, then upper size
    halves[::2] = lower
    halves[1::2] = upper
    is_low = np.zeros(2 * n, dtype=bool)
    is_low[::2] = True
    is_low = is_low.repeat(halves)
    indices = np.empty(is_low.shape[0], dtype=np.int64)
    indices[is_low] = low
    del low
    indices[np.logical_not(is_low, out=is_low)] = up
    return indptr, indices


def row_entries(indptr: np.ndarray, indices: np.ndarray, rows) -> np.ndarray:
    """The rows `rows` of CSR arrays, concatenated: entry j of the result
    reads indices[indptr[x] + j - start[x]], start[x] being where row x
    starts in the result."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = lens.cumsum()
    total = int(ends[-1]) if ends.shape[0] else 0
    return indices[(starts - ends + lens).repeat(lens) + np.arange(total)]


def _build_masks(n, indptr, indices) -> list[int]:
    """Each row of CSR arrays as a bit set: bit u of row v is edge vu."""
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


def wedge_pairs(graph: Graph):
    """Wedges (a, b, c): pairs a < b with a common neighbor c, as chunks of
    arrays (a, b, c).

    These are row_pairs of the graph's CSR arrays from a first chunk of
    WEDGE_FIRST_CHUNK: for each centre c in turn, every pair of its sorted
    neighbors in row-major order, so a pair comes once per common neighbor.
    """
    return row_pairs(graph.indptr, graph.indices, WEDGE_FIRST_CHUNK)


def row_pairs(indptr: np.ndarray, indices: np.ndarray, first: int):
    """Pairs of entries of each row of CSR arrays, as chunks of arrays
    (a, b, c): a before b in row c, row by row, each row's pairs in
    row-major order.

    The first chunk holds `first` pairs, so a search that stops early
    builds little, and each later one twice as many, up to WEDGE_CHUNK_CAP,
    which bounds memory on graphs with ~1e8 wedges; the last holds the
    rest.  Chunks are cut at any pair, inside a row as well as between
    rows.
    """
    cap = WEDGE_CHUNK_CAP
    deg = indptr[1:] - indptr[:-1]
    upto = (deg * (deg - 1) // 2).cumsum()  # pairs of rows 0..c
    total = int(upto[-1]) if upto.shape[0] else 0
    t0, size = 0, min(first, cap)
    while t0 < total:
        t1 = min(t0 + size, total)
        yield _wedge_range(indptr, indices, deg, upto, t0, t1)
        t0, size = t1, min(2 * size, cap)


def _wedge_range(indptr, indices, deg, upto, t0: int, t1: int):
    """Pairs t0..t1-1 of row_pairs' order.  Row position p of row c
    (p = indptr[c] + i) pairs indices[p] with indices[p + 1:indptr[c + 1]]:
    deg[c] - 1 - i pairs from index upto[c - 1] + i (deg[c] - 1) - C(i, 2)."""
    c0 = int(upto.searchsorted(t0, "right"))
    c1 = int(upto.searchsorted(t1 - 1, "right")) + 1
    centre = np.arange(c0, c1).repeat(deg[c0:c1])
    p = np.arange(indptr[c0], indptr[c1])
    i = p - indptr[centre]
    d = deg[centre]
    first = upto[centre] - d * (d - 1) // 2 + i * (d - 1) - i * (i - 1) // 2
    take = np.minimum(first + d - 1 - i, t1) - np.maximum(first, t0)
    take = np.maximum(take, 0)
    pos = p.repeat(take)
    b = pos + 1 + np.arange(t0, t1) - first.repeat(take)
    return indices[pos], indices[b], centre.repeat(take)


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
    masks = _build_masks(n, graph.indptr, graph.indices)
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
