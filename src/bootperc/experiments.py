"""G(n,p) Monte Carlo harness.

Sampling uses geometric skipping over linear pair indices, so the expected
work is O(n^2 p); for p < 1/3 the gaps are numpy's own geometric draws,
computed in whole-array passes (_geometric).  The indices come out
sorted, the order engine.Graph.from_arrays decodes them in.
Sweeps over alpha reuse one sample per trial through uniform edge marks:
the subgraph at probability p keeps the edges with mark < p, which makes
monotonicity in p literal rather than statistical.

Percolations run in two round drivers: the peeling kernel, one seed at a
time in Python rounds, for the r = 2 pair search, and _lockstep, a graph's
seeds together, for the seeded trials.  Either hands a seed whose frontier
grows past a size set by a measured cost model to the one numpy finisher,
_array_rounds, one bincount over the frontier's rows a round.

Most percolations stop at once, so one numpy round, _round_news, finds for
many sets S at a time what a t-bootstrap round from S infects: the
vertices outside S with t neighbors in S.  _round_infects, the sweeps'
screen, only asks whether that is anything.

Two trial functions carry every estimate: _seeded_trial samples one graph,
draws its seeds (_draw_seeds, all of them from one block of random words)
and returns each seed's level profile, for the (k, i) visit and terminal
frequencies.  It runs no kernel per seed: _lockstep advances all seeds
together in _round_news rounds, the first a screen that most seeds stop
at, and reads each round's rows in one batch from the graph's decoded
pairs, so a graph whose seeds stay small never builds its CSR arrays.
_marked_trial samples one marked graph and runs the one r = 2 search,
_spanning_pair, at each alpha of a sweep.  The two sweeps differ only in
its candidate source: the susceptibility sweep takes every
engine.wedge_pairs wedge (a, b, c), the seed-edge sweep one wedge per
triangle (_triangle_edges, found in degree order).  Most pairs stop at
three vertices, the pair and its common neighbor; the search screens those
out (S = {a, b, c}, t = 2) a chunk at a time, probing each chunk before it
screens the next, and runs the kernel only on the pairs that can grow past
them.  Both sources come from engine.row_pairs, whose chunks start small
and double, so a search whose first pairs span screens little.

Every trial derives its RNG stream from (rng_seed, trial_index); outputs
carry no timestamps, so identical configs produce byte-identical files.
"""

import math
import warnings
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional

import numpy as np

from .branching import hitting_probability_exact, trial_rng
from .counting import TableBudgetExceeded, build_count_table
from .engine import Graph, row_entries, row_pairs, wedge_pairs
from .thresholds import beta_star, theta

__all__ = [
    "ExperimentConfig",
    "PkiEstimate",
    "SeedEdgePoint",
    "SusceptibilityPoint",
    "TerminalEstimate",
    "sample_gnp",
    "sample_gnp_marked",
    "PeelingKernel",
    "estimate_Pki",
    "seed_edge_sweep",
    "susceptibility_sweep",
    "terminal_set_frequency",
]

EXHAUSTIVE_SEED_CAP = 200_000
SUSCEPTIBILITY_N_CAP = 3000
SCREEN_SLICE = 1 << 15  # most neighbor entries _round_infects gathers at once
TRIANGLE_FIRST_CHUNK = 1 << 10  # pairs in _triangle_edges' first chunk
# PeelingKernel.run and _lockstep hand a seed to _array_rounds once a
# frontier holds max(ARRAY_ROUND_MIN_ENTRIES, n // ARRAY_ROUND_N_PER_ENTRY)
# row entries
ARRAY_ROUND_MIN_ENTRIES = 128
ARRAY_ROUND_N_PER_ENTRY = 32


# ---------------------------------------------------------------------------
# sampling


def _sample_pair_indices(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """The sorted linear indices of the pairs G(n, p) keeps."""
    total = n * (n - 1) // 2
    if p <= 0.0 or total == 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    chunks = []
    pos = -1
    mean = total * p
    batch = int(mean + 5 * math.sqrt(mean + 1) + 16)
    while pos < total:
        idx = _geometric(rng, p, batch)
        # a gap past the last pair ends the sample; clipping it there keeps
        # the running sums from wrapping at tiny p, where draws reach 2^63 - 1
        np.minimum(idx, total + 1, out=idx)
        np.cumsum(idx, out=idx)
        idx += pos
        pos = int(idx[-1])
        chunks.append(idx)
        batch = max(16, int((total - pos) * p + 5 * math.sqrt(mean + 1) + 16))
    chunks[-1] = idx[: idx.searchsorted(total)]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _geometric(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """rng.geometric(p, size) as int64, but for draws of 2^63 - 1, which
    come out as the largest double below 2^63.

    For p < 1/3 numpy draws each value by inversion, ceil(-E / log1p(-p))
    with E a standard exponential, capped at 2^63 - 1; the same arithmetic
    on rng.standard_exponential(size), which reads the same stream, takes
    a few whole-array passes instead of a call per value."""
    if p >= 1 / 3:
        return rng.geometric(p, size=size)
    gaps = rng.standard_exponential(size=size)
    with np.errstate(over="ignore"):  # inf where p is below about 1e-307
        gaps /= -math.log1p(-p)
    np.ceil(gaps, out=gaps)
    np.minimum(gaps, np.nextafter(2.0**63, 0.0), out=gaps)
    # cast in place, each value onto its own 8 bytes: no second array
    idx = gaps.view(np.int64)
    np.copyto(idx, gaps, casting="unsafe")
    return idx


def sample_gnp(n: int, p: float, rng_seed: int, trial_index: int = 0) -> Graph:
    """One G(n,p) sample; each unordered pair appears independently."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    return Graph.from_arrays(
        n, _sample_pair_indices(n, p, trial_rng(rng_seed, trial_index))
    )


def sample_gnp_marked(
    n: int, p_max: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted linear pair indices of G(n, p_max) (as
    engine.Graph.from_arrays takes them) with independent uniform(0, p_max)
    marks.

    Keeping the edges with mark < p yields G(n, p) for any p <= p_max,
    coupled monotonically across p.
    """
    if not 0.0 < p_max <= 1.0:
        raise ValueError(f"p_max must lie in (0,1], got {p_max}")
    idx = _sample_pair_indices(n, p_max, rng)
    marks = rng.uniform(0.0, p_max, size=idx.shape[0])
    return idx, marks


def _draw_seeds(rng: np.random.Generator, n: int, r: int, count: int) -> np.ndarray:
    """count seeds, row j the j-th of count calls rng.choice(n, size=r,
    replace=False), leaving rng as those calls leave it.

    numpy draws such a choice by Floyd's algorithm: for each j = n-r..n-1
    a bounded draw on [0, j], kept unless already taken, when j is taken
    instead.  Then it shuffles them, swapping entry i with entry k for a
    bounded draw k on [0, i], i = r-1..1.  Each bounded draw is Lemire's
    on one 32-bit word w, (w (j + 1)) >> 32, unless the low half of
    w (j + 1) is below 2^32 mod (j + 1), when it takes another word.  So
    the seeds come from one block of count (2r - 1) words, all drawn at
    once, column by column.  Where a word would be rejected, or numpy takes
    another path (n - r < 1, which draws nothing for j = 0; n >= 2^32; its
    tail shuffle, for n > 10000 and r > n // 50), rng is put back and the
    calls are made.
    """
    if 1 <= n - r and n < 1 << 32 and not (n > 10000 and r > n // 50):
        state = rng.bit_generator.state
        words = rng.integers(
            0, 2**32 - 1, endpoint=True, size=(count, 2 * r - 1), dtype=np.uint32
        ).astype(np.uint64)
        seeds = np.empty((count, r), dtype=np.int64)
        rows = np.arange(count)
        for col, w in enumerate(words.T):
            # Floyd's draws, then the shuffle's
            bound = n - r + col if col < r else 2 * r - 1 - col
            w *= bound + 1
            if ((w & 0xFFFFFFFF) < (1 << 32) % (bound + 1)).any():
                rng.bit_generator.state = state
                break
            w >>= 32
            pick = w.astype(np.int64)
            if col < r:
                seen = (seeds[:, :col] == pick[:, None]).any(axis=1)
                seeds[:, col] = np.where(seen, bound, pick)
            else:
                swap = seeds[rows, pick]
                seeds[rows, pick] = seeds[:, bound]
                seeds[:, bound] = swap
        else:
            return seeds
    return np.array([rng.choice(n, size=r, replace=False) for _ in range(count)])


# ---------------------------------------------------------------------------
# peeling kernel


class PeelingKernel:
    """Bootstrap percolation by synchronous rounds on a CSR graph.

    The kernel keeps the graph's row offsets as a Python list, built once
    per graph, so that the inner loop works on Python ints.  A run keeps
    its neighbor counts in a dict and its infected vertices in a set, and
    costs the sum of degrees of the vertices it infects.

    A round reads the rows of its frontier, the level infected last.  The
    Python loop reads them one entry at a time, about 110 ns an entry; a
    numpy round gathers them at once and adds their np.bincount to a count
    array, about 5 us + 8 ns an entry + 1.5 ns a vertex (least-squares fits
    on a 2-core Xeon with numpy 2.4, n = 1e3..1e5, mean degree 10..100).
    The two break even near 50 + n / 70 entries.  A run hands over once a
    frontier holds max(ARRAY_ROUND_MIN_ENTRIES, n // ARRAY_ROUND_N_PER_ENTRY)
    row entries, two to three times that, which pays for the hand-over and
    the O(n) passes of the rounds after it, and finishes in _array_rounds;
    _lockstep hands its large seeds to the same rounds.  The hand-over
    passes only the infected vertices: _array_rounds counts their
    neighbors afresh.
    Rounds are sets, so the profile does not depend on which path ran a
    round, and k_stop cuts at the same round on both.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._indptr = graph.indptr.tolist()
        self._array_entries = max(
            ARRAY_ROUND_MIN_ENTRIES, graph.n // ARRAY_ROUND_N_PER_ENTRY
        )

    def run(
        self, seed, r: int, k_stop: Optional[int] = None
    ) -> tuple[list[tuple[int, int]], bool]:
        """Level profile [(|V_t|, |I_t|)] from t=0; True if stopped early.

        Stops after the first round t >= 1 with |V_t| > k_stop; level
        sizes already emitted are exact either way.
        """
        indptr = self._indptr
        indices = self.graph.indices
        raw = [int(s) for s in seed]
        cur = list(dict.fromkeys(raw))
        if len(cur) != len(raw):
            raise ValueError("seed vertices must be distinct")
        entries = 0  # row entries of the frontier cur
        for s in cur:
            if not 0 <= s < self.graph.n:
                raise ValueError(f"seed vertex {s} out of range")
            entries += indptr[s + 1] - indptr[s]
        infected = set(cur)
        count = {}
        levels = [(len(cur), len(cur))]
        while cur:
            if entries >= self._array_entries:
                return _array_rounds(self.graph, list(infected), levels, r, k_stop)
            nxt = []
            for u in cur:
                for w in indices[indptr[u] : indptr[u + 1]].tolist():
                    if w in infected:
                        continue
                    c = count.get(w, 0) + 1
                    count[w] = c
                    if c == r:
                        nxt.append(w)
            if not nxt:
                return levels, False
            entries = 0
            for w in nxt:
                entries += indptr[w + 1] - indptr[w]
            infected.update(nxt)
            levels.append((len(infected), len(nxt)))
            if k_stop is not None and len(infected) > k_stop:
                return levels, True
            cur = nxt
        return levels, False


def _array_rounds(graph: Graph, spread, levels, r: int, k_stop):
    """Finish a run in numpy rounds on the graph's CSR arrays (built here
    if they are not yet), from the infected vertices spread, whose last
    level has not yet been read; levels is the profile so far.  count[w] is
    w's number of infected neighbors, pushed below -n (out of reach of r,
    as no degree reaches n) once w is infected."""
    n, indptr, indices = graph.n, graph.indptr, graph.indices
    spread = np.array(spread, dtype=np.int64)
    count = np.bincount(row_entries(indptr, indices, spread), minlength=n)
    count[spread] = -n
    cum = levels[-1][0]
    while True:
        nxt = np.flatnonzero(count >= r)
        if not nxt.shape[0]:
            return levels, False
        cum += nxt.shape[0]
        levels.append((cum, nxt.shape[0]))
        if k_stop is not None and cum > k_stop:
            return levels, True
        count[nxt] = -n
        count += np.bincount(row_entries(indptr, indices, nxt), minlength=n)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    n: int
    r: int
    alpha: Optional[float] = None
    p: Optional[float] = None
    trials: int = 200
    rng_seed: int = 0
    seed_policy: str = "random"
    seeds_per_graph: int = 1
    k_max: int = 12

    def __post_init__(self):
        if self.n < self.r:
            raise ValueError("need n >= r")
        if (self.alpha is None) == (self.p is None):
            raise ValueError("exactly one of alpha and p must be given")
        if self.alpha is not None:
            self.p = theta(self.r, self.alpha, self.n)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0,1], got {self.p}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed_policy not in ("random", "all"):
            raise ValueError(f"unknown seed policy {self.seed_policy!r}")
        if self.seed_policy == "all" and math.comb(self.n, self.r) > EXHAUSTIVE_SEED_CAP:
            raise ValueError(
                f"exhaustive seed policy capped at C(n,r) <= {EXHAUSTIVE_SEED_CAP}"
            )
        if self.seeds_per_graph < 1:
            raise ValueError("seeds_per_graph must be >= 1")

    @property
    def eps(self) -> float:
        return self.n * self.p**self.r


# ---------------------------------------------------------------------------
# seeded trials: (k, i) visit and terminal frequencies


def _seeded_trial(args) -> list:
    """Level profiles of one G(n,p) sample, one per seed, cut by k_stop."""
    n, r, p, k_stop, policy, seeds_per_graph, rng_seed, trial_index = args
    rng = trial_rng(rng_seed, trial_index)
    graph = Graph.from_arrays(n, _sample_pair_indices(n, p, rng))
    if policy == "all":
        flat = chain.from_iterable(combinations(range(n), r))
        seeds = np.fromiter(flat, dtype=np.int64).reshape(-1, r)
    else:
        seeds = _draw_seeds(rng, n, r, seeds_per_graph)
    return _lockstep(graph, seeds, r, k_stop)


def _lockstep(graph: Graph, seeds: np.ndarray, r: int, k_stop) -> list:
    """PeelingKernel.run's level profile of every row of seeds (each r
    distinct vertices), all seeds advanced together one round at a time.

    A round reads the rows of every spreading seed's infected set V_t in
    one batch (Graph.rows), and _round_news gathers them for slices of
    seeds of at most SCREEN_SLICE entries; each slice's news is consumed
    before the next is gathered.  The first round is a screen: most seeds
    infect nothing and keep the profile [(r, r)].

    A seed whose V_t holds max(ARRAY_ROUND_MIN_ENTRIES, n //
    ARRAY_ROUND_N_PER_ENTRY) row entries or more finishes in _array_rounds,
    on the full CSR arrays, which the first such seed builds.  That is
    known at the start of a round, where V_t's rows are read, or at once
    when a round infects enough vertices: each infected vertex brings at
    least r entries, its neighbors in the set.  So a set kept between
    rounds holds fewer than r + limit / r vertices.
    Rounds are sets, so the profiles do not depend on the path, and k_stop
    cuts at the same round on both."""
    n = graph.n
    profiles = [[(r, r)] for _ in range(seeds.shape[0])]
    live = np.arange(seeds.shape[0])  # the profile of each spreading seed
    vertex = seeds.ravel()  # seed j's V_t is vertex[sets[j]:sets[j + 1]]
    sets = np.arange(0, vertex.shape[0] + 1, r)
    limit = max(ARRAY_ROUND_MIN_ENTRIES, n // ARRAY_ROUND_N_PER_ENTRY)
    screen = True
    while live.shape[0]:
        indptr, indices = graph.rows(vertex)
        entries = np.add.reduceat(indptr[vertex + 1] - indptr[vertex], sets[:-1])
        big = entries >= limit
        if not screen and big.any():
            for j in np.flatnonzero(big).tolist():
                spread = vertex[sets[j] : sets[j + 1]]
                _array_rounds(graph, spread, profiles[live[j]], r, k_stop)
            sizes, keep = sets[1:] - sets[:-1], ~big
            live, entries = live[keep], entries[keep]
            vertex = vertex[keep.repeat(sizes)]
            sets = np.concatenate(([0], sizes[keep].cumsum()))
            if not live.shape[0]:
                break
        screen = False
        parts = []  # live, vertex and set sizes of the seeds that go on
        for lo, hi, news in _round_news(n, indptr, indices, sets, vertex, r):
            owner, w = np.divmod(news, n)
            owner -= lo
            grew = np.bincount(owner, minlength=hi - lo)
            go_on = grew > 0
            for j in np.flatnonzero(go_on).tolist():
                levels = profiles[live[lo + j]]
                cum = levels[-1][0] + int(grew[j])
                levels.append((cum, int(grew[j])))
                if k_stop is not None and cum > k_stop:
                    go_on[j] = False
                elif entries[lo + j] + r * grew[j] >= limit:
                    go_on[j] = False
                    at, to = owner.searchsorted([j, j + 1])
                    spread = np.concatenate(
                        (vertex[sets[lo + j] : sets[lo + j + 1]], w[at:to])
                    )
                    _array_rounds(graph, spread, levels, r, k_stop)
            sizes = sets[lo + 1 : hi + 1] - sets[lo:hi]
            held, new = go_on.repeat(sizes), go_on[owner]
            order = np.concatenate((np.arange(hi - lo).repeat(sizes)[held], owner[new]))
            merged = np.concatenate((vertex[sets[lo] : sets[hi]][held], w[new]))
            merged = merged[np.argsort(order, kind="stable")]
            parts.append((live[lo:hi][go_on], merged, (sizes + grew)[go_on]))
        live, vertex, sizes = (np.concatenate(x) for x in zip(*parts))
        sets = np.concatenate(([0], sizes.cumsum()))
    return profiles


def _seeded_trials(config: ExperimentConfig, k_stop, workers: int):
    """Every seed's level profile, trial by trial, in trial order."""
    shared = (
        config.n,
        config.r,
        config.p,
        k_stop,
        config.seed_policy,
        config.seeds_per_graph,
        config.rng_seed,
    )
    argses = [(*shared, t) for t in range(config.trials)]
    for profiles in _map_trials(_seeded_trial, argses, workers):
        yield from profiles


def _frequencies(observations) -> tuple[dict, int]:
    """Per key, the share of observations (iterables of keys) holding it,
    in key order; and the number of observations."""
    tally: dict = {}
    total = 0
    for keys in observations:
        total += 1
        for key in keys:
            tally[key] = tally.get(key, 0) + 1
    return {key: c / total for key, c in sorted(tally.items())}, total


def _map_trials(fn, argses, workers: int):
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            chunk = max(1, len(argses) // (workers * 8))
            yield from ex.map(fn, argses, chunksize=chunk)
    else:
        yield from map(fn, argses)


@dataclass
class PkiEstimate:
    n: int
    r: int
    p: float
    eps: float
    seed_trials: int
    freq: dict
    stderr: dict
    comparator: Optional[dict]

    def rows(self):
        keys = sorted(set(self.freq) | set(self.comparator or {}))
        out = []
        for k, i in keys:
            f = self.freq.get((k, i), 0.0)
            s = self.stderr.get((k, i), 0.0)
            c = (self.comparator or {}).get((k, i))
            out.append((k, i, f, s, c if c is not None else ""))
        return out

    def to_json_payload(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "p": self.p,
            "eps": self.eps,
            "seed_trials": self.seed_trials,
            "records": [
                {
                    "k": k,
                    "i": i,
                    "frequency": f,
                    "stderr": s,
                    "comparator": c if c != "" else None,
                }
                for k, i, f, s, c in self.rows()
            ],
        }


def estimate_Pki(config: ExperimentConfig, workers: int = 0) -> PkiEstimate:
    """Visit frequencies of (|V_t|, |I_t|) = (k, i) over seeded percolations.

    Each tested seed contributes one Bernoulli observation per (k, i) with
    r < k <= k_max (a percolation visits a given k at most once, since the
    infected set only grows).  The exact branching comparator
    l_r(k, i) = e^{-eps C(k-i, r)} eps^{k-r} / (k-r)! m_r(k, i) with
    eps = n p^r rides along when the count table is available.
    """
    r, k_max = config.r, config.k_max
    if k_max <= r:
        raise ValueError("k_max must exceed r")
    freq, total = _frequencies(
        [(k, i) for k, i in levels if r < k <= k_max]
        for levels in _seeded_trials(config, k_max, workers)
    )
    stderr = {
        key: math.sqrt(f * (1 - f) / total) for key, f in freq.items()
    }
    try:
        table = build_count_table(r, k_max)
    except TableBudgetExceeded as exc:
        warnings.warn(f"comparator omitted: {exc}")
        comparator = None
    else:
        comparator = {
            (k, i): hitting_probability_exact(r, config.eps, k, i, table=table)
            for k in range(r + 1, k_max + 1)
            for i in range(1, k - r + 1)
        }
    return PkiEstimate(
        n=config.n,
        r=config.r,
        p=config.p,
        eps=config.eps,
        seed_trials=total,
        freq=freq,
        stderr=stderr,
        comparator=comparator,
    )


@dataclass
class TerminalEstimate:
    n: int
    r: int
    p: float
    seed_trials: int
    freq: dict

    def rows(self):
        return [(k, i, f) for (k, i), f in sorted(self.freq.items())]


def terminal_set_frequency(
    config: ExperimentConfig, workers: int = 0
) -> TerminalEstimate:
    """Frequency that a seed's percolation terminates at (|V_tau|, |I_tau|)."""
    freq, total = _frequencies(
        (levels[-1],) for levels in _seeded_trials(config, None, workers)
    )
    return TerminalEstimate(
        n=config.n, r=config.r, p=config.p, seed_trials=total, freq=freq
    )


# ---------------------------------------------------------------------------
# marked sweeps (r = 2)


def _spanning_pair(graph: Graph, chunks) -> tuple[bool, int]:
    """(whether some candidate pair percolates the whole graph, the largest
    spread seen), from chunks of wedges (a, b, c) with a < b and c a common
    neighbor, until one pair spans.  The largest spread is at least 2, the
    size of any pair, even when there is no candidate.

    A wedge whose spread stops at {a, b, c}, because no other vertex has
    two neighbors among them (_round_infects), is not run: it only raises
    the largest spread to 3.  The other wedges are probed from their pair,
    which spreads as {a, b, c} does, since c joins in the first round; so
    a wedge is skipped if its pair or its three vertices were seen before
    (wedge_pairs yields each triangle's three wedges, which share one run;
    _triangle_edges yields one of them).  Each chunk is screened whole and
    its pairs probed before the next chunk is built; the sources' chunks
    start small and double (engine.row_pairs), so a search whose first
    pairs span screens little.  Both results are the same in any probing
    order.
    """
    n = graph.n
    kernel = PeelingKernel(graph)
    probed = set()
    max_spread = 2
    for a, b, c in chunks:
        if n > 3:  # at n = 3 a spread of 3 spans
            grows = _round_infects(graph, (a, b, c), 2)
            if not grows.all():
                max_spread = max(max_spread, 3)
                a, b, c = a[grows], b[grows], c[grows]
        for seed, centre in zip(zip(a.tolist(), b.tolist()), c.tolist()):
            trio = tuple(sorted((*seed, centre)))
            known = seed in probed or trio in probed
            probed.add(seed)
            probed.add(trio)
            if known:
                continue
            levels, _ = kernel.run(seed, 2, k_stop=None)
            spread = levels[-1][0]
            if spread == n:
                return True, n
            max_spread = max(max_spread, spread)
    return False, max_spread


def _round_infects(graph: Graph, members, t: int) -> np.ndarray:
    """Per set S, whether a t-bootstrap round from S infects anything.
    members is a sequence of s equal-length vertex arrays, set i being
    {members[0][i], ..., members[s-1][i]}."""
    s, k = len(members), members[0].shape[0]
    vertex = np.array(members).T.ravel()
    sets = np.arange(0, s * k + 1, s)
    hits = np.zeros(k, dtype=bool)
    for _, _, news in _round_news(graph.n, *graph.rows(vertex), sets, vertex, t):
        hits[news // graph.n] = True
    return hits


def _round_news(n, indptr, indices, sets, vertex, t: int):
    """What a t-bootstrap round from each set infects, for slices of sets
    lo..hi-1 of at most SCREEN_SLICE gathered entries (or one set), as
    (lo, hi, the sorted keys j n + w of the vertices w outside set j =
    vertex[sets[j]:sets[j + 1]] that have at least t neighbors in it).
    Those w come at least t times in the concatenated rows N(x), x in set
    j, as a row holds each neighbor once.  indptr and indices must hold the
    rows of vertex (Graph.rows)."""
    starts = indptr[vertex]
    deg = indptr[vertex + 1] - starts
    cum = np.zeros(vertex.shape[0] + 1, dtype=np.int64)
    np.cumsum(deg, out=cum[1:])  # entries gathered before each vertex
    ends = cum[sets]  # and before each set
    lo = 0
    while lo + 1 < ends.shape[0]:
        hi = max(lo + 1, int(ends.searchsorted(ends[lo] + SCREEN_SLICE, "right")) - 1)
        a, b = sets[lo], sets[hi]
        items, lens = vertex[a:b], deg[a:b]
        owner = np.arange(lo, hi).repeat(sets[lo + 1 : hi + 1] - sets[lo:hi])
        key = owner.repeat(lens) * n
        key += indices[(starts[a:b] - cum[a:b]).repeat(lens) + np.arange(cum[a], cum[b])]
        key.sort()
        hit = key[:0]
        if key.shape[0] >= t:  # t equal sorted keys span t - 1 places
            hit = key[t - 1 :][key[t - 1 :] == key[: key.shape[0] + 1 - t]]
        if hit.shape[0]:
            hit = hit[np.concatenate(([True], hit[1:] != hit[:-1]))]
            own = owner * n + items  # the members, which do not count
            own.sort()
            hit = hit[own[np.minimum(own.searchsorted(hit), own.shape[0] - 1)] != hit]
        yield lo, hi, hit
        lo = hi


def _triangle_edges(graph: Graph):
    """One wedge (a, b, c) per triangle {a, b, c}, a < b, as chunks of
    arrays (a, b, c): a seed edge needs a common neighbor for its first
    round, so it lies on a triangle, and every edge of a triangle spreads as
    the triangle does (its third vertex joins in the first round).

    Triangles are found in degree order.  Each edge points from the lower
    to the higher (degree, id) rank, and a triangle {x, y, z} with x lowest
    is found once, at x, as a pair y < z of x's out-neighbors that is an
    edge.  The pairs of out-neighbors, engine.row_pairs of the oriented
    rows from a first chunk of TRIANGLE_FIRST_CHUNK, are about a third of
    all wedges, and each is looked up in the sorted keys u n + v of the
    graph's 2m row entries.  A triangle found at x gives the wedge (y, z, x).
    """
    n, indptr, indices = graph.n, graph.indptr, graph.indices
    deg = indptr[1:] - indptr[:-1]
    src = np.arange(n, dtype=np.int64).repeat(deg)
    keys = src * n + indices  # sorted: rows hold sorted columns
    rank = deg * n + np.arange(n)  # orders vertices by (degree, id)
    out = np.flatnonzero(rank[src] < rank[indices])  # row entries kept
    for y, z, x in row_pairs(
        out.searchsorted(indptr), indices[out], TRIANGLE_FIRST_CHUNK
    ):
        key = y * n + z
        # z's row holds x, and z n + x > y n + z, so pos stays in range
        pos = keys.searchsorted(key)
        tri = keys[pos] == key
        if tri.any():
            yield y[tri], z[tri], x[tri]


def _marked_trial(args) -> list:
    """_spanning_pair outcomes of one marked G(n, p_max) sample at each p
    in ps, over the pairs that candidates(graph) yields.

    Spanning is monotone under the mark coupling: the graph at a larger p
    keeps every edge of the smaller one, so a spanning pair spans there
    too with the same outcome (True, n), and those graphs are not built.
    """
    candidates, n, ps, rng_seed, trial_index = args
    idx, marks = sample_gnp_marked(n, ps[-1], trial_rng(rng_seed, trial_index))
    outcomes = []
    for p in ps:
        if outcomes and outcomes[-1][0]:
            outcomes.append(outcomes[-1])
        else:
            graph = Graph.from_arrays(n, idx[marks < p])
            outcomes.append(_spanning_pair(graph, candidates(graph)))
    return outcomes


def _marked_sweep(
    candidates, n: int, alpha_list, trials: int, rng_seed: int, workers: int
):
    """Sorted alphas, their p = theta_2(alpha, n), and per alpha the
    _marked_trial outcomes of every trial.  candidates must be a
    module-level function, so that worker processes can unpickle it."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    alphas = sorted(float(a) for a in alpha_list)
    if not alphas:
        raise ValueError("alpha_list must be nonempty")
    ps = [theta(2, a, n) for a in alphas]
    argses = [(candidates, n, ps, rng_seed, t) for t in range(trials)]
    results = list(_map_trials(_marked_trial, argses, workers))
    return alphas, ps, [[out[j] for out in results] for j in range(len(ps))]


# ---------------------------------------------------------------------------
# seed-edge sweep


@dataclass
class SeedEdgePoint:
    alpha: float
    p: float
    trials: int
    frequency: float
    stderr: float


def seed_edge_sweep(
    n: int, alpha_list, trials: int, rng_seed: int, workers: int = 0
) -> list[SeedEdgePoint]:
    """Frequency that G(n, theta_2(alpha, n)) contains a seed edge, per alpha.

    One marked sample per trial serves every alpha, so the per-trial
    outcome sequence is literally monotone in alpha and the first success
    short-circuits the rest.
    """
    alphas, ps, outcomes = _marked_sweep(
        _triangle_edges, n, alpha_list, trials, rng_seed, workers
    )
    points = []
    for a, p, col in zip(alphas, ps, outcomes):
        f = sum(hit for hit, _ in col) / trials
        points.append(
            SeedEdgePoint(a, p, trials, f, math.sqrt(f * (1 - f) / trials))
        )
    return points


# ---------------------------------------------------------------------------
# susceptibility sweep (r = 2 exhaustive)


@dataclass
class SusceptibilityPoint:
    alpha: float
    p: float
    trials: int
    susceptible_freq: float
    susceptible_stderr: float
    spread_norm_mean: float
    spread_norm_p95: float
    beta_bound: float
    frac_within_beta: float


def susceptibility_sweep(
    n: int,
    r: int,
    alpha_list,
    trials: int,
    rng_seed: int,
    workers: int = 0,
) -> list[SusceptibilityPoint]:
    """Exhaustive 2-susceptibility and max-spread statistics per alpha.

    Candidate seeds are the pairs with a common neighbor (any other pair
    stops at size 2); a full percolation short-circuits the scan, and the
    larger alphas of that trial, which report the same (True, n).  Max
    spreads are reported normalized by log n and compared against
    beta_star(alpha) + 1 (finite-size slack of one growth unit).
    """
    if r != 2:
        raise ValueError("only the exhaustive r=2 sweep is implemented")
    if n > SUSCEPTIBILITY_N_CAP:
        raise ValueError(f"exhaustive susceptibility capped at n <= {SUSCEPTIBILITY_N_CAP}")
    alphas, ps, outcomes = _marked_sweep(
        wedge_pairs, n, alpha_list, trials, rng_seed, workers
    )
    logn = math.log(n)
    points = []
    for a, p, col in zip(alphas, ps, outcomes):
        sus = [out[0] for out in col]
        spreads = np.array([out[1] for out in col], dtype=np.float64) / logn
        f = sum(sus) / trials
        bound = beta_star(2, a) + 1.0
        points.append(
            SusceptibilityPoint(
                alpha=a,
                p=p,
                trials=trials,
                susceptible_freq=f,
                susceptible_stderr=math.sqrt(f * (1 - f) / trials),
                spread_norm_mean=float(spreads.mean()),
                spread_norm_p95=float(np.quantile(spreads, 0.95)),
                beta_bound=bound,
                frac_within_beta=float(np.mean(spreads <= bound)),
            )
        )
    return points
