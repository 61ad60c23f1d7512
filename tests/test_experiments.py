import itertools
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootperc import engine
from bootperc import experiments as X
from bootperc.branching import trial_rng
from bootperc.cli import _csv_text, main
from bootperc.counting import TableBudgetExceeded
from bootperc.engine import Graph, wedge_pairs
from bootperc.thresholds import critical_alpha, theta
from engine_oracle import bit_masks, bootstrap, has_seed, pairs_from_linear


# ---------------------------------------------------------------------------
# sampling


def _decode_by_csr(n, idx):
    """The pairs (u, v), u < v, of linear pair indices, in u-major order, as
    the upper halves of the CSR rows Graph.from_arrays builds from them."""
    graph = Graph.from_arrays(n, idx.copy())
    u = np.arange(n, dtype=np.int64).repeat(np.diff(graph.indptr))
    upper = u < graph.indices
    return u[upper], graph.indices[upper]


def _pair_indices(n, u, v):
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def test_pair_inversion_exact_small():
    for n in (2, 3, 5, 17, 100):
        total = n * (n - 1) // 2
        for decode in (pairs_from_linear, _decode_by_csr):
            u, v = decode(n, np.arange(total, dtype=np.int64))
            brute = [(a, b) for a in range(n) for b in range(a + 1, n)]
            assert list(zip(u.tolist(), v.tolist())) == brute


def test_pair_inversion_large_n_extremes():
    n = 200_000
    total = n * (n - 1) // 2
    idx = np.array(
        [0, 1, n - 2, n - 1, total // 3, total // 2, total - 2, total - 1],
        dtype=np.int64,
    )
    u, v = _decode_by_csr(n, idx)
    assert (u < v).all() and (u >= 0).all() and (v < n).all()
    assert np.array_equal(_pair_indices(n, u, v), idx)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 200_000),
    idx_seed=st.integers(0, 2**32 - 1),
)
def test_pair_inversion_matches_forward_formula(n, idx_seed):
    # u-major order puts row u's pairs (u, u+1) .. (u, n-1) at linear
    # indices u(2n-u-1)/2 .. u(2n-u-1)/2 + n-u-2; the CSR build decodes
    # them as the decode oracle does
    total = n * (n - 1) // 2
    rows = np.arange(n - 1, dtype=np.int64)
    first = rows * (2 * n - rows - 1) // 2
    last = first + (n - rows - 2)
    for ends, v_want in ((first, rows + 1), (last, [n - 1] * (n - 1))):
        for decode in (pairs_from_linear, _decode_by_csr):
            u, v = decode(n, ends)
            assert [u.tolist(), v.tolist()] == [rows.tolist(), list(v_want)]
    rng = np.random.default_rng(idx_seed)
    # sorted and repeat-free, as the sampler draws them
    idx = np.unique(np.concatenate([first, last, rng.integers(0, total, size=1000)]))
    u, v = _decode_by_csr(n, idx)
    assert u.dtype == v.dtype == np.int64
    assert (0 <= u).all() and (u < v).all() and (v < n).all()
    assert np.array_equal(_pair_indices(n, u, v), idx)
    assert all(np.array_equal(a, b) for a, b in zip((u, v), pairs_from_linear(n, idx)))


def test_sample_gnp_p_zero_and_one():
    g0 = X.sample_gnp(40, 0.0, 7)
    assert g0.m == 0
    g1 = X.sample_gnp(12, 1.0, 7)
    assert g1.m == 12 * 11 // 2
    assert all(g1.degree(v) == 11 for v in range(12))


@pytest.mark.parametrize("p", [1e-300, 1e-19])
def test_sample_gnp_tiny_p_draws_no_edge(p):
    # geometric gaps reach 2^63 - 1 here; their running sums must not wrap
    g = X.sample_gnp(4, p, 0)
    assert g.indptr.tolist() == [0] * 5
    assert g.m == 0
    assert X._sample_pair_indices(100_000, p, trial_rng(0, 0)).shape == (0,)


@pytest.mark.parametrize("n", [2, 7, 300])
@pytest.mark.parametrize("p", [1e-300, 1e-19, 1e-6, 0.01, 0.3, 0.9])
def test_sample_pair_indices_strictly_increasing(n, p):
    total = n * (n - 1) // 2
    for t in range(20):
        idx = X._sample_pair_indices(n, p, trial_rng(5, t))
        assert idx.dtype == np.int64
        assert (np.diff(idx) > 0).all()
        assert idx.shape[0] == 0 or 0 <= idx[0] <= idx[-1] < total


@settings(max_examples=200, deadline=None)
@given(
    p=st.one_of(
        st.sampled_from(
            [1e-320, 1e-300, 1e-19, 1e-9, 0.01, 1 / 3, 0.5, 0.999, 1.0]
            + [np.nextafter(1 / 3, 0.0), np.nextafter(1 / 3, 1.0)]
        ),
        st.floats(1e-12, 1.0),
        st.floats(1e-300, 1e-12),
    ),
    size=st.integers(0, 3000),
    key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
)
def test_geometric_equals_numpy_draws(p, size, key):
    key = np.array(key, dtype=np.uint64)
    gens = [np.random.Generator(np.random.Philox(key=key)) for _ in range(2)]
    got = X._geometric(gens[0], p, size)
    want = gens[1].geometric(p, size=size)
    assert got.dtype == want.dtype == np.int64
    top = np.iinfo(np.int64).max
    # draws of 2^63 - 1 come out as the largest double below 2^63
    assert np.array_equal(got, np.where(want == top, 2**63 - 1024, want))
    assert gens[0].integers(0, 2**63) == gens[1].integers(0, 2**63)


def _whole_batch_pair_indices(n, p, rng):
    """The sampler with each batch of gaps drawn, summed and cut as one
    array, not a block at a time."""
    total = n * (n - 1) // 2
    if p <= 0.0 or total == 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    chunks, pos = [], -1
    mean = total * p
    batch = int(mean + 5 * math.sqrt(mean + 1) + 16)
    while pos < total:
        idx = X._geometric(rng, p, batch)
        np.minimum(idx, total + 1, out=idx)
        np.cumsum(idx, out=idx)
        idx += pos
        pos = int(idx[-1])
        chunks.append(idx)
        batch = max(16, int((total - pos) * p + 5 * math.sqrt(mean + 1) + 16))
    chunks[-1] = idx[: idx.searchsorted(total)]
    return np.concatenate(chunks)


@settings(max_examples=250, deadline=None)
@given(
    n=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 300)),
    p=st.one_of(
        st.sampled_from(
            [0.0, 1e-320, 1e-300, 1e-19, 1e-3, 0.05, np.nextafter(1 / 3, 0.0),
             1 / 3, 0.5, 0.999, 1.0]
        ),
        st.floats(0.0, 1.0),
    ),
    block=st.one_of(st.sampled_from([1, 2, 1 << 16]), st.integers(1, 300)),
    key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
)
def test_streamed_decode_matches_from_arrays_on_the_whole_sample(n, p, block, key):
    # the pieces draw the variates the whole batches drew, in any block
    # size (1 included, and small ones that split rows), the over-drawn
    # tail included, and decode as the concatenated indices do
    gens = [np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
            for _ in range(3)]
    want_idx = _whole_batch_pair_indices(n, p, gens[0])
    with mock.patch.object(X, "SAMPLE_BLOCK", block):
        idx = X._sample_pair_indices(n, p, gens[1])
        size, pieces = X._pair_index_pieces(n, p, gens[2])
        pieces = list(pieces)
    assert np.array_equal(idx, want_idx) and idx.dtype == np.int64
    assert all(piece.shape[0] <= block for piece in pieces)
    assert size >= idx.shape[0]
    draws = [g.integers(0, 2**63) for g in gens]
    assert draws[0] == draws[1] == draws[2]
    want = Graph.from_arrays(n, idx)
    got = Graph.from_arrays(n, iter(pieces), size)
    assert got.n == n and got.m == want.m == idx.shape[0]
    assert np.array_equal(got._first, want._first)
    assert np.array_equal(got._v, want._v) and got._v.dtype == np.int64
    xs = np.arange(n)[::3]
    for a, b in zip(got.rows(xs), want.rows(xs)):
        assert np.array_equal(a, b)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_pieces_span_batches_past_the_first(block):
    # gaps of 1 or 2 fall far short of the room the first batch leaves at
    # p = 0.01, so the sampler draws batch after batch, and the buffers
    # sized by the first batch must grow
    def short_gaps(rng, p, size):
        return rng.integers(1, 3, size=size)

    n, p = 60, 0.01
    gens = [np.random.Generator(np.random.Philox(key=5)) for _ in range(3)]
    with mock.patch.object(X, "_geometric", short_gaps), \
            mock.patch.object(X, "SAMPLE_BLOCK", block):
        want = _whole_batch_pair_indices(n, p, gens[0])
        idx = X._sample_pair_indices(n, p, gens[1])
        size, pieces = X._pair_index_pieces(n, p, gens[2])
        got = Graph.from_arrays(n, pieces, size)
    assert want.shape[0] > 2 * size
    assert np.array_equal(idx, want)
    whole = Graph.from_arrays(n, want)
    assert np.array_equal(got._first, whole._first)
    assert np.array_equal(got._v, whole._v)
    draws = [g.integers(0, 2**63) for g in gens]
    assert draws[0] == draws[1] == draws[2]


def test_seeded_trial_holds_one_pair_array_at_a_time():
    # criterion 11's graphs: the pair indices exist a block at a time, so
    # the decoded v (8 bytes a pair) is the one m-sized array alive
    n = 100_000
    args = (n, 2, theta(2, 0.125, n), 12, "random", 1000, 13, 0)
    m = X._sample_pair_indices(n, args[2], trial_rng(13, 0)).shape[0]
    X._seeded_trial(args)
    tracemalloc.start()
    try:
        X._seeded_trial(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m > 1_500_000
    assert peak < 1.75 * 8 * m


def test_sample_gnp_edge_count_concentration():
    n, p = 2000, 0.001
    g = X.sample_gnp(n, p, 42)
    mean = n * (n - 1) / 2 * p
    z = (g.m - mean) / math.sqrt(mean * (1 - p))
    assert abs(z) < 5


def test_sample_gnp_deterministic():
    a = X.sample_gnp(500, 0.01, 9)
    b = X.sample_gnp(500, 0.01, 9)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    c = X.sample_gnp(500, 0.01, 10)
    assert not (
        np.array_equal(a.indptr, c.indptr) and np.array_equal(a.indices, c.indices)
    )


def test_sample_gnp_validation():
    with pytest.raises(ValueError):
        X.sample_gnp(0, 0.5, 1)
    with pytest.raises(ValueError):
        X.sample_gnp(5, 1.5, 1)


def test_marked_sample_coupling_is_monotone():
    from bootperc.branching import trial_rng

    rng = trial_rng(3, 0)
    idx, marks = X.sample_gnp_marked(200, 0.2, rng)
    assert marks.shape == idx.shape
    assert (np.diff(idx) > 0).all() and 0 <= idx[0] and idx[-1] < 200 * 199 // 2
    lo = marks < 0.05
    hi = marks < 0.2
    assert np.all(hi[lo])
    assert lo.sum() <= hi.sum()


# ---------------------------------------------------------------------------
# peeling kernel


def _profile(trace):
    """(|V_t|, |I_t|) per level of an engine_oracle.bootstrap trace."""
    cum, out = 0, []
    for level in trace.levels:
        cum += len(level)
        out.append((cum, len(level)))
    return out


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(4, 40),
    p=st.floats(0.0, 0.6),
    graph_seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([2, 3, 4]),
    seed_draws=st.lists(
        st.tuples(
            st.integers(0, 2**32 - 1),
            st.one_of(st.none(), st.integers(0, 40)),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_kernel_matches_engine_bootstrap(n, p, graph_seed, r, seed_draws):
    # the bitset oracle decides; every seed runs on one kernel, so
    # nothing left by earlier runs may leak into later ones
    g = X.sample_gnp(n, p, graph_seed)
    kern = X.PeelingKernel(g)
    for draw_seed, k_stop, numpy_ints in seed_draws:
        seed = np.random.default_rng(draw_seed).choice(n, size=r, replace=False)
        if not numpy_ints:
            seed = tuple(int(x) for x in seed)
        want = _profile(bootstrap(g, tuple(int(x) for x in seed), r))
        levels, truncated = kern.run(seed, r, k_stop=k_stop)
        # k_stop cuts after the first round t >= 1 past it: an exact prefix
        cut = None if k_stop is None else next(
            (t for t in range(1, len(want)) if want[t][0] > k_stop), None
        )
        if cut is None:
            assert (levels, truncated) == (want, False)
        else:
            assert (levels, truncated) == (want[: cut + 1], True)


def test_kernel_k_stop_is_exact_prefix():
    g = X.sample_gnp(30, 0.3, 5)
    kern = X.PeelingKernel(g)
    full, trunc_full = kern.run((0, 1), 2)
    assert not trunc_full
    part, trunc = kern.run((0, 1), 2, k_stop=5)
    assert part == full[: len(part)]
    if full[-1][0] > 5:
        assert trunc
        assert part[-1][0] > 5


def test_kernel_reuse_is_stateless_across_runs():
    g = X.sample_gnp(60, 0.15, 8)
    kern = X.PeelingKernel(g)
    first = kern.run((0, 1), 2)
    for s in range(2, 40):
        kern.run((s, s + 1), 2)
    assert kern.run((0, 1), 2) == first


def test_kernel_seed_validation():
    g = X.sample_gnp(10, 0.5, 1)
    kern = X.PeelingKernel(g)
    with pytest.raises(ValueError):
        kern.run((1, 1), 2)
    with pytest.raises(ValueError):
        kern.run((0, 10), 2)


@st.composite
def _dense_kernel_cases(draw):
    """A graph with n = 60-400 and mean degree 4-60, well above theta_2, r
    and seeds of size r to 40 with k_stop values that also cut late: enough
    row entries for runs to cross PeelingKernel's switch to numpy rounds."""
    n = draw(st.integers(60, 400))
    degree = draw(st.floats(4.0, 60.0))
    g = X.sample_gnp(n, min(1.0, degree / (n - 1)), draw(st.integers(0, 2**32 - 1)))
    r = draw(st.sampled_from([2, 3, 4]))
    runs = draw(
        st.lists(
            st.tuples(
                st.integers(r, 40),
                st.integers(0, 2**32 - 1),
                st.one_of(st.none(), st.integers(0, n)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return g, r, runs


def test_kernel_array_rounds_match_engine_bootstrap():
    # seeds of several sizes run one after another on one kernel, so state
    # left by numpy rounds must not leak into later runs on either path
    handed_over, cut_in_array = [], []
    array_rounds = X._array_rounds

    def watched(*args):
        handed_over.append(1)
        out = array_rounds(*args)
        cut_in_array.append(out[1])
        return out

    @settings(max_examples=120, deadline=None)
    @given(case=_dense_kernel_cases())
    def check(case):
        g, r, runs = case
        kern = X.PeelingKernel(g)
        masks = bit_masks(g)
        for size, draw_seed, k_stop in runs:
            seed = np.random.default_rng(draw_seed).choice(g.n, size=size, replace=False)
            want = _profile(bootstrap(g, tuple(seed.tolist()), r, masks))
            levels, truncated = kern.run(seed, r, k_stop=k_stop)
            cut = None if k_stop is None else next(
                (t for t in range(1, len(want)) if want[t][0] > k_stop), None
            )
            if cut is None:
                assert (levels, truncated) == (want, False)
            else:
                assert (levels, truncated) == (want[: cut + 1], True)

    with mock.patch.object(X, "_array_rounds", watched):
        check()
    # the cases do reach the numpy rounds, and k_stop cuts inside them
    assert len(handed_over) >= 50
    assert sum(cut_in_array) >= 10


def test_kernel_switch_follows_the_cost_model():
    # the switch is max(ARRAY_ROUND_MIN_ENTRIES, n // ARRAY_ROUND_N_PER_ENTRY)
    # frontier entries: at n = 1000, a seed of 127 row entries runs its
    # round in Python and one of 128 is handed over at once
    assert X.PeelingKernel(Graph(1000, []))._array_entries == 128
    assert X.PeelingKernel(Graph(10**5, []))._array_entries == 10**5 // 32
    star = [(0, w) for w in range(2, 66)] + [(1, w) for w in range(2, 65)]
    below, at = Graph(1000, star), Graph(1000, star + [(1, 65)])
    refuse = mock.patch.object(
        X, "_array_rounds", side_effect=AssertionError("handed over")
    )
    with refuse:
        assert X.PeelingKernel(below).run((0, 1), 2) == ([(2, 2), (65, 63)], False)
        with pytest.raises(AssertionError, match="handed over"):
            X.PeelingKernel(at).run((0, 1), 2)
    assert X.PeelingKernel(at).run((0, 1), 2) == ([(2, 2), (66, 64)], False)
    # a later frontier crosses too: the seed's 8 entries infect 2..5, whose
    # 4 * 42 entries are handed over for the round that infects 6..45
    fan = [(s, c) for s in (0, 1) for c in range(2, 6)]
    fan += [(c, w) for c in range(2, 6) for w in range(6, 46)]
    with refuse, pytest.raises(AssertionError, match="handed over"):
        X.PeelingKernel(Graph(1000, fan)).run((0, 1), 2)
    assert X.PeelingKernel(Graph(1000, fan)).run((0, 1), 2) == (
        [(2, 2), (6, 4), (46, 40)], False
    )


def test_pki_probes_stay_in_the_lockstep_rounds():
    # criterion 11's k_stop = 12 probes at n = 10^5 read far fewer row
    # entries a round than the switch of n // 32, so none leaves _lockstep
    cfg = X.ExperimentConfig(n=100_000, r=2, alpha=0.125, seeds_per_graph=1000)
    args = (cfg.n, 2, cfg.p, 12, "random", 1000, 13, 0)
    with mock.patch.object(
        X, "_array_rounds", side_effect=AssertionError("handed over")
    ):
        profiles = X._seeded_trial(args)
    assert sum(len(levels) > 1 for levels in profiles) > 0


# ---------------------------------------------------------------------------
# configuration and laws


def test_config_alpha_xor_p():
    with pytest.raises(ValueError):
        X.ExperimentConfig(n=10, r=2, alpha=1.0, p=0.1)
    with pytest.raises(ValueError):
        X.ExperimentConfig(n=10, r=2)
    cfg = X.ExperimentConfig(n=100, r=2, alpha=1.0)
    assert cfg.p == theta(2, 1.0, 100)
    assert cfg.eps == pytest.approx(100 * cfg.p**2, rel=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        X.ExperimentConfig(n=1, r=2, p=0.1)
    with pytest.raises(ValueError):
        X.ExperimentConfig(n=10, r=2, p=1.5)
    with pytest.raises(ValueError):
        X.ExperimentConfig(n=10, r=2, p=0.1, seed_policy="weird")
    with pytest.raises(ValueError):
        X.ExperimentConfig(n=10**6, r=2, p=1e-5, seed_policy="all")
    # k_max is read by estimate_Pki alone, which checks it
    cfg = X.ExperimentConfig(n=10, r=2, p=0.1, k_max=2)
    with pytest.raises(ValueError, match="k_max must exceed r"):
        X.estimate_Pki(cfg)


def test_first_step_law_matches_mc():
    # P(exactly one vertex joins in round one) = (n-r) q (1-q)^(n-r-1), q = p^r
    n, p, r = 12, 0.25, 2
    q = p**r
    law = (n - r) * q * (1 - q) ** (n - r - 1)
    trials = 20000
    hits = 0
    for t in range(trials):
        g = X.sample_gnp(n, p, 31000 + t)
        kern = X.PeelingKernel(g)
        levels, _ = kern.run((0, 1), r)
        if len(levels) >= 2 and levels[1][1] == 1:
            hits += 1
    f = hits / trials
    se = math.sqrt(law * (1 - law) / trials)
    assert abs(f - law) < 4 * se


# ---------------------------------------------------------------------------
# (k, i) estimation


def _small_cfg(**kw):
    base = dict(
        n=400,
        r=2,
        alpha=0.5 * critical_alpha(2),
        trials=40,
        rng_seed=11,
        seeds_per_graph=25,
        k_max=8,
    )
    base.update(kw)
    return X.ExperimentConfig(**base)


def test_estimate_pki_matches_comparator():
    est = X.estimate_Pki(_small_cfg())
    assert est.seed_trials == 40 * 25
    key = (3, 1)
    f = est.freq[key]
    c = est.comparator[key]
    se = math.sqrt(c * (1 - c) / est.seed_trials)
    assert abs(f - c) < 4 * se


def test_estimate_pki_stderr_formula():
    est = X.estimate_Pki(_small_cfg())
    for key, f in est.freq.items():
        assert est.stderr[key] == pytest.approx(
            math.sqrt(f * (1 - f) / est.seed_trials), rel=1e-12
        )


def test_estimate_pki_per_k_mass_at_most_one():
    est = X.estimate_Pki(_small_cfg())
    per_k: dict = {}
    for (k, i), f in est.freq.items():
        per_k[k] = per_k.get(k, 0.0) + f
    for k, s in per_k.items():
        assert s <= 1.0 + 1e-12


def test_estimate_pki_workers_equivalent():
    est1 = X.estimate_Pki(_small_cfg())
    est2 = X.estimate_Pki(_small_cfg(), workers=2)
    assert est1.freq == est2.freq
    assert est1.stderr == est2.stderr
    assert est1.comparator == est2.comparator


def test_estimate_pki_exhaustive_policy():
    cfg = X.ExperimentConfig(
        n=18, r=2, p=0.15, trials=6, rng_seed=3, seed_policy="all", k_max=6
    )
    est = X.estimate_Pki(cfg)
    assert est.seed_trials == 6 * math.comb(18, 2)


def test_estimate_pki_omits_comparator_past_table_budget(monkeypatch):
    def over_budget(r, k_max):
        raise TableBudgetExceeded("count table exceeds memory budget")

    monkeypatch.setattr(X, "build_count_table", over_budget)
    with pytest.warns(UserWarning, match="comparator omitted"):
        est = X.estimate_Pki(_small_cfg(k_max=5))
    assert est.comparator is None
    assert est.freq and all(row[4] is None for row in est.rows())


def test_estimate_pki_comparator_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("comparator bug")

    monkeypatch.setattr(X, "hitting_probability_exact", broken)
    with pytest.raises(RuntimeError, match="comparator bug"):
        X.estimate_Pki(_small_cfg(k_max=5))


def test_comparator_keys_cover_k_range():
    est = X.estimate_Pki(_small_cfg(k_max=6))
    want = {(k, i) for k in range(3, 7) for i in range(1, k - 1)}
    assert set(est.comparator) == want


# ---------------------------------------------------------------------------
# terminal sets


def test_terminal_edgeless_all_mass_at_seed():
    cfg = X.ExperimentConfig(
        n=50, r=3, p=0.0, trials=5, rng_seed=1, seeds_per_graph=4
    )
    term = X.terminal_set_frequency(cfg)
    assert term.freq == {(3, 3): 1.0}


def test_terminal_frequencies_sum_to_one():
    cfg = X.ExperimentConfig(
        n=120, r=2, alpha=1.0, trials=30, rng_seed=2, seeds_per_graph=6
    )
    term = X.terminal_set_frequency(cfg)
    assert sum(term.freq.values()) == pytest.approx(1.0, abs=1e-12)
    assert term.seed_trials == 180
    for (k, i), f in term.freq.items():
        assert 2 <= k <= 120 and 1 <= i <= k
        assert 0 < f <= 1


def test_terminal_deterministic_and_workers():
    cfg = X.ExperimentConfig(
        n=80, r=2, alpha=0.5, trials=12, rng_seed=4, seeds_per_graph=3
    )
    a = X.terminal_set_frequency(cfg)
    b = X.terminal_set_frequency(cfg)
    c = X.terminal_set_frequency(cfg, workers=2)
    assert a.freq == b.freq == c.freq


# ---------------------------------------------------------------------------
# the lockstep rounds of _seeded_trial


def _seeded_trial_oracle(args) -> list:
    """_seeded_trial as one kernel run per seed, each seed drawn by its own
    choice call."""
    n, r, p, k_stop, policy, seeds_per_graph, rng_seed, trial_index = args
    rng = trial_rng(rng_seed, trial_index)
    graph = Graph.from_arrays(n, X._sample_pair_indices(n, p, rng))
    kernel = X.PeelingKernel(graph)
    seeds = (
        itertools.combinations(range(n), r)
        if policy == "all"
        else (
            tuple(int(x) for x in rng.choice(n, size=r, replace=False))
            for _ in range(seeds_per_graph)
        )
    )
    return [kernel.run(seed, r, k_stop=k_stop)[0] for seed in seeds]


@settings(max_examples=120, deadline=None)
@given(
    r=st.sampled_from([2, 3, 4]),
    extra=st.integers(0, 12),
    p=st.sampled_from([0.05, 0.2, 0.4, 0.6, 0.85]),
    k_stop=st.sampled_from(["none", "r+1", "12"]),
    policy=st.sampled_from(["random", "all"]),
    seeds_per_graph=st.integers(1, 40),
    rng_seed=st.integers(0, 2**64 - 1),
    trial=st.integers(0, 2**64 - 1),
    screen_slice=st.one_of(st.integers(1, 200), st.just(1 << 15)),
)
def test_seed_screen_matches_running_every_seed(
    r, extra, p, k_stop, policy, seeds_per_graph, rng_seed, trial, screen_slice
):
    n = r + extra
    stop = {"none": None, "r+1": r + 1, "12": 12}[k_stop]
    args = (n, r, p, stop, policy, seeds_per_graph, rng_seed, trial)
    with mock.patch.object(X, "SCREEN_SLICE", screen_slice):
        got = X._seeded_trial(args)
    assert got == _seeded_trial_oracle(args)


@pytest.mark.parametrize("r, n, p", [(2, 14, 0.3), (3, 12, 0.5), (4, 10, 0.7)])
def test_lockstep_reads_rows_only_of_seeds_that_grow(monkeypatch, r, n, p):
    # round t reads one batch: the infected sets V_t of the seeds still
    # spreading, which are the profiles longer than t
    batches = []
    rows = Graph.rows

    def watched(self, xs):
        batches.append(len(xs))
        return rows(self, xs)

    monkeypatch.setattr(Graph, "rows", watched)
    for t in range(4):
        batches.clear()
        profiles = X._seeded_trial((n, r, p, None, "all", 1, 9, t))
        rounds = max(len(levels) for levels in profiles)
        assert batches == [
            sum(levels[s][0] for levels in profiles if len(levels) > s)
            for s in range(rounds)
        ]
        assert 0 < sum(len(levels) > 1 for levels in profiles) < len(profiles)


@st.composite
def _lockstep_cases(draw):
    """A G(n, p) sample with n in r..60 and p from 0 to 1, its seeds (every
    r-set where there are at most a few thousand, else random draws) and a
    k_stop of None or a few vertices past r."""
    r = draw(st.sampled_from([2, 3, 4]))
    policy = draw(st.sampled_from(["random", "all"]))
    n = draw(st.integers(r, {2: 60, 3: 24, 4: 16}[r] if policy == "all" else 60))
    p = draw(st.sampled_from([0.0, 1.0, 0.05, 0.15, 0.3, 0.6]))
    graph_seed = draw(st.integers(0, 2**32 - 1))
    if policy == "all":
        seeds = np.array(list(itertools.combinations(range(n), r)), dtype=np.int64)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        seeds = X._draw_seeds(rng, n, r, draw(st.integers(1, 40)))
    k_stop = draw(st.one_of(st.none(), st.integers(r, r + 6)))
    return (n, p, graph_seed), seeds, r, k_stop


def _kernel_profiles(sample, seeds, r, k_stop) -> list:
    kern = X.PeelingKernel(X.sample_gnp(*sample))
    return [kern.run(seed, r, k_stop=k_stop)[0] for seed in seeds.tolist()]


@settings(max_examples=150, deadline=None)
@given(
    case=_lockstep_cases(),
    array_min=st.sampled_from([X.ARRAY_ROUND_MIN_ENTRIES, 1, 12, 40]),
    screen_slice=st.sampled_from([1 << 15, 1, 60]),
)
def test_lockstep_matches_a_kernel_run_per_seed(case, array_min, screen_slice):
    # small ARRAY_ROUND_MIN_ENTRIES hand seeds over to the array rounds,
    # small SCREEN_SLICE cuts a round into slices of one or a few seeds
    sample, seeds, r, k_stop = case
    want = _kernel_profiles(sample, seeds, r, k_stop)
    graph = X.sample_gnp(*sample)  # rows from scans until a hand-over
    with mock.patch.object(X, "ARRAY_ROUND_MIN_ENTRIES", array_min), \
            mock.patch.object(X, "SCREEN_SLICE", screen_slice):
        assert X._lockstep(graph, seeds, r, k_stop) == want


def test_lockstep_hands_large_sets_to_the_array_rounds():
    # with the switch at 32 entries, most seeds of G(40, 0.3) that spread
    # are handed over, some in the screen's round and some in later ones;
    # after the screen no round gathers 32 entries or more for one seed.
    # The hand-overs build no PeelingKernel.
    sample, r = (40, 0.3, 5), 2
    seeds = np.array(list(itertools.combinations(range(40), r)), dtype=np.int64)
    handed, gathered = [], []
    array_rounds, round_news = X._array_rounds, X._round_news

    def watched(graph, spread, levels, *args):
        handed.append(len(levels))
        return array_rounds(graph, spread, levels, *args)

    def counted(n, indptr, indices, sets, vertex, t):
        deg = indptr[vertex + 1] - indptr[vertex]
        gathered.append(np.add.reduceat(deg, sets[:-1]).max())
        return round_news(n, indptr, indices, sets, vertex, t)

    for k_stop in (None, 9):
        handed.clear()
        gathered.clear()
        want = _kernel_profiles(sample, seeds, r, k_stop)
        graph = X.sample_gnp(*sample)
        with mock.patch.object(X, "ARRAY_ROUND_MIN_ENTRIES", 32), \
                mock.patch.object(X, "_array_rounds", watched), \
                mock.patch.object(X, "_round_news", counted), \
                mock.patch.object(
                    X.PeelingKernel, "__init__",
                    side_effect=AssertionError("kernel built"),
                ):
            assert X._lockstep(graph, seeds, r, k_stop) == want
        assert len(handed) > 100
        assert min(handed) == 2 and max(handed) > 2
        assert len(gathered) > 1 and max(gathered[1:]) < 32


def test_lockstep_gathers_a_round_in_several_slices(monkeypatch):
    # at SCREEN_SLICE = 64 a slice holds the rows of one to three seeds
    sample, r = (300, 0.05, 8), 2
    seeds = X._draw_seeds(np.random.default_rng(4), 300, r, 100)
    slices = []
    round_news = X._round_news

    def counted(*args):
        for lo, hi, news in round_news(*args):
            slices.append((lo, hi))
            yield lo, hi, news

    monkeypatch.setattr(X, "_round_news", counted)
    monkeypatch.setattr(X, "SCREEN_SLICE", 64)
    want = _kernel_profiles(sample, seeds, r, None)
    assert X._lockstep(X.sample_gnp(*sample), seeds, r, None) == want
    starts = [j for j, (lo, _) in enumerate(slices) if lo == 0]  # the rounds
    assert len(starts) > 1 and starts[1] > 10
    assert slices[starts[1] - 1][1] == 100


def test_pki_trial_never_builds_the_full_csr():
    # no seed of these trials hands over, so their rows come from scans of
    # the decoded pairs and the transpose, most of a graph's build, never runs
    cfg = X.ExperimentConfig(n=20_000, r=2, alpha=0.125, seeds_per_graph=1000)
    grown = 0
    with mock.patch.object(Graph, "_build_csr", autospec=True) as build:
        for t in range(5):
            profiles = X._seeded_trial((cfg.n, 2, cfg.p, 12, "random", 1000, 13, t))
            grown += sum(len(levels) > 1 for levels in profiles)
    assert build.call_count == 0
    assert grown > 0


@pytest.mark.parametrize("estimate, n, bound_mb", [("pki", 200, 16), ("terminal", 120, 12)])
def test_exhaustive_seeds_memory_stays_bounded(estimate, n, bound_mb):
    # on K_n each pair infects the other n - 2 vertices at once.  At
    # n = 200 round 1 gathers about 7.9 M row entries, 63 MB as int64 keys,
    # and the estimate (k_stop = 12) cuts every seed.  The terminal
    # frequency (no k_stop) hands every seed over at once instead of
    # keeping its 120 vertices for the next round (28 MB at n = 120)
    cfg = X.ExperimentConfig(n=n, r=2, p=1.0, seed_policy="all", k_max=12, trials=1)
    tracemalloc.start()
    try:
        if estimate == "pki":
            est = X.estimate_Pki(cfg)
        else:
            est = X.terminal_set_frequency(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.seed_trials == math.comb(n, 2)
    assert est.freq == ({} if estimate == "pki" else {(n, n - 2): 1.0})
    assert peak < bound_mb * 2**20


class _CountingGenerator(np.random.Generator):
    """A Generator that counts its choice calls."""

    choices = 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return super().choice(*args, **kwargs)


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(2, 6),
    n=st.one_of(
        st.sampled_from(
            [0, 1, 9_999, 10_000, 10_001, 10_002, 100_000, 2**31 + 1, 2**32 - 1,
             2**32, 2**32 + 1]
        ),
        st.integers(0, 400),
        st.integers(0, 10**7),
    ),
    count=st.integers(1, 400),
    key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    skip=st.integers(0, 3),
)
def test_draw_seeds_equals_one_choice_call_per_seed(r, n, count, key, skip):
    # n = r and n = r + 1 come from the small offsets; skip leaves the
    # generator mid-way through a 64-bit word, as other draws may
    n = n if n >= r + 2 else r + n % 2
    key = np.array(key, dtype=np.uint64)
    gens = [_CountingGenerator(np.random.Philox(key=key)) for _ in range(3)]
    for gen in gens:
        gen.integers(0, 2**32 - 1, endpoint=True, size=skip, dtype=np.uint32)
    got = X._draw_seeds(gens[0], n, r, count)
    want = np.array([gens[1].choice(n, size=r, replace=False) for _ in range(count)])
    assert got.dtype == want.dtype == np.int64
    assert got.shape == (count, r)
    assert np.array_equal(got, want)
    assert repr(gens[0].bit_generator.state) == repr(gens[1].bit_generator.state)
    assert gens[0].integers(0, 2**63) == gens[1].integers(0, 2**63)
    # one block of 2r - 1 words a seed, drawn on [0, j] for j = n-r..n-1,
    # then on [0, i] for i = r-1..1, unless numpy takes another path or
    # Lemire's method rejects a word: (w (j + 1)) mod 2^32 < 2^32 mod (j + 1)
    bounds = [n - r + c for c in range(r)] + list(range(r - 1, 0, -1))
    words = gens[2].integers(
        0, 2**32 - 1, endpoint=True, size=(count, 2 * r - 1), dtype=np.uint32
    )
    loop = (
        n - r < 1
        or n >= 2**32
        or (n > 10000 and r > n // 50)
        or any(
            w * (j + 1) % 2**32 < 2**32 % (j + 1)
            for row in words.tolist()
            for w, j in zip(row, bounds)
        )
    )
    assert gens[0].choices == (count if loop else 0)


def test_draw_seeds_falls_back_where_half_the_words_reject():
    # at n = 2^31 + 1 about half of the words for j = n - 1 are rejected
    n, r = 2**31 + 1, 2
    for t in range(5):
        gen = _CountingGenerator(np.random.Philox(key=[6, t]))
        ref = np.random.Generator(np.random.Philox(key=[6, t]))
        got = X._draw_seeds(gen, n, r, 50)
        want = np.array([ref.choice(n, size=r, replace=False) for _ in range(50)])
        assert np.array_equal(got, want)
        assert gen.choices == 50
        assert gen.integers(0, 2**63) == ref.integers(0, 2**63)


@st.composite
def _seed_with_near_misses(draw):
    """A graph, r and a seed {0, ..., r-1}: each other vertex has r - 2 to r
    neighbors in the seed, besides random edges among the others and inside
    the seed."""
    r = draw(st.sampled_from([2, 3, 4]))
    n = r + draw(st.integers(1, 8))
    edges = []
    for w in range(r, n):
        inside = draw(st.sampled_from([r - 2, r - 1, r - 1, r]))
        edges += [(x, w) for x in draw(st.permutations(range(r)))[:inside]]
    same_side = [
        (a, b) for a, b in itertools.combinations(range(n), 2) if (a < r) == (b < r)
    ]
    edges += draw(st.lists(st.sampled_from(same_side), max_size=2 * n))
    return Graph(n, edges), r


@settings(max_examples=200, deadline=None)
@given(case=_seed_with_near_misses(), other=st.integers(0, 2**32 - 1))
def test_round_infects_decides_the_first_round(case, other):
    # a vertex with exactly r - 1 neighbors in the seed must not count
    g, r = case
    seeds = np.array(
        [list(range(r))]
        + [np.random.default_rng(other + j).choice(g.n, size=r, replace=False)
           for j in range(5)],
        dtype=np.int64,
    )
    grows = X._round_infects(g, seeds.T, r).tolist()
    kern = X.PeelingKernel(g)
    want = [len(kern.run(seed, r)[0]) > 1 for seed in seeds.tolist()]
    assert grows == want


# ---------------------------------------------------------------------------
# sweeps


def test_seed_edge_detector_matches_brute_force():
    rng = np.random.default_rng(3)
    for t in range(25):
        n = int(rng.integers(4, 26))
        p = float(rng.uniform(0.05, 0.6))
        g = X.sample_gnp(n, p, 5000 + t)
        got = X._spanning_pair(g, X._triangle_edges(g))[0]
        want = False
        for a in range(n):
            for b in g.neighbors(a):
                if b <= a:
                    continue
                tr = bootstrap(g, (a, int(b)), 2)
                if len(tr.final) == n:
                    want = True
                    break
            if want:
                break
        assert got == want


@st.composite
def _small_gnp(draw):
    """G(n, p) with 3 <= n <= 30 (the sweeps reject n < 3) and p from
    sparse to dense, so that spanning and non-spanning graphs both come up."""
    n = draw(st.integers(3, 30))
    p = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.45, 0.7]))
    return X.sample_gnp(n, p, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(g=_small_gnp())
def test_susceptibility_probe_matches_oracle(g):
    # every pair, not only the wedge pairs the probe takes: a pair outside
    # them must stop at size 2, or the largest spread would differ
    masks = bit_masks(g)
    sizes = [
        len(bootstrap(g, pair, 2, masks).final)
        for pair in itertools.combinations(range(g.n), 2)
    ]
    got = X._spanning_pair(g, wedge_pairs(g))
    if g.n in sizes:
        assert got == (True, g.n)
    else:
        assert got == (False, max([2] + sizes))


@settings(max_examples=150, deadline=None)
@given(g=_small_gnp())
def test_has_seed_edge_matches_oracle(g):
    want = has_seed(g, 2) is not None
    assert X._spanning_pair(g, X._triangle_edges(g))[0] == want


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(50, 150),
    alpha=st.floats(1.0, 3.0),
    graph_seed=st.integers(0, 2**32 - 1),
)
def test_seed_edge_search_matches_oracle_near_threshold(n, alpha, graph_seed):
    # The n <= 30 tests above miss prunings of this search that are unsound
    # only on larger graphs: one agreed with the oracle on every graph with
    # n <= 30 and first disagreed at n = 50..110 near alpha = 2.
    g = X.sample_gnp(n, theta(2, alpha, n), graph_seed)
    want = has_seed(g, 2) is not None
    assert X._spanning_pair(g, X._triangle_edges(g))[0] == want


def test_seed_edge_sweep_separates_and_is_monotone():
    pts = X.seed_edge_sweep(300, [0.02, 3.0], trials=12, rng_seed=5)
    assert [p.alpha for p in pts] == [0.02, 3.0]
    assert pts[0].frequency <= pts[1].frequency
    assert pts[1].frequency > 0.5
    for p in pts:
        assert p.stderr == pytest.approx(
            math.sqrt(p.frequency * (1 - p.frequency) / p.trials), rel=1e-12
        )
        assert p.p == theta(2, p.alpha, 300)


def test_seed_edge_sweep_coupled_outcomes_monotone_per_trial():
    n = 120
    alphas = [0.1, 0.5, 2.0, 6.0]
    ps = [theta(2, a, n) for a in alphas]
    for t in range(10):
        trial = X._marked_trial((X._triangle_edges, n, ps, 77, t))
        hits = [hit for hit, _ in trial]
        assert hits == sorted(hits)


@pytest.mark.parametrize(
    "candidates, n, alphas",
    [
        (X._triangle_edges, 120, [0.1, 0.5, 2.0, 6.0]),
        (wedge_pairs, 40, [0.0125, 0.5, 2.0, 6.0]),
    ],
)
def test_marked_sweep_outcomes_equal_probing_each_alpha(candidates, n, alphas):
    ps = [theta(2, a, n) for a in alphas]
    successes = 0
    for t in range(12):
        got = X._marked_trial((candidates, n, ps, 78, t))
        idx, marks = X.sample_gnp_marked(n, ps[-1], trial_rng(78, t))
        graphs = [Graph.from_arrays(n, idx[marks < p]) for p in ps]
        want = [X._spanning_pair(g, candidates(g)) for g in graphs]
        assert got == want
        successes += sum(out[0] for out in want[:-1])
    assert successes > 0  # the short cut after a success was exercised


def test_sweeps_workers_equivalent():
    assert X.seed_edge_sweep(120, [0.5, 3.0], trials=6, rng_seed=3) == (
        X.seed_edge_sweep(120, [0.5, 3.0], trials=6, rng_seed=3, workers=2)
    )
    assert X.susceptibility_sweep(60, [0.5, 3.0], trials=6, rng_seed=4) == (
        X.susceptibility_sweep(60, [0.5, 3.0], trials=6, rng_seed=4, workers=2)
    )


def test_seed_edge_sweep_validation():
    with pytest.raises(ValueError):
        X.seed_edge_sweep(100, [], trials=5, rng_seed=0)


def test_susceptibility_sweep_separates():
    pts = X.susceptibility_sweep(300, [0.0125, 5.0], trials=12, rng_seed=6)
    lo, hi = pts
    assert lo.susceptible_freq < 0.5 < hi.susceptible_freq
    assert lo.spread_norm_mean < hi.spread_norm_mean
    assert lo.frac_within_beta == 1.0
    assert hi.spread_norm_p95 > lo.spread_norm_p95


def test_susceptibility_sweep_validation():
    with pytest.raises(ValueError):
        X.susceptibility_sweep(5000, [1.0], trials=2, rng_seed=0)
    with pytest.raises(ValueError):
        X.susceptibility_sweep(300, [], trials=2, rng_seed=0)


def test_susceptibility_candidates_are_wedge_pairs():
    g = X.sample_gnp(40, 0.15, 12)
    wedges = [
        wedge
        for a, b, c in wedge_pairs(g)
        for wedge in zip(a.tolist(), b.tolist(), c.tolist())
    ]
    for u, v, c in wedges:
        assert u < v
        assert g.has_edge(u, c) and g.has_edge(v, c)
    # each candidate pair comes once per common neighbor
    cands = Counter((u, v) for u, v, _ in wedges)
    for (u, v), times in cands.items():
        common = np.intersect1d(g.neighbors(u), g.neighbors(v))
        assert common.shape[0] == times > 0
    # any pair outside the candidate set has no common neighbor, so its
    # 2-bootstrap spread stops at size 2
    kern = X.PeelingKernel(g)
    for u, v in itertools.islice(
        ((a, b) for a in range(40) for b in range(a + 1, 40) if (a, b) not in cands),
        30,
    ):
        levels, _ = kern.run((u, v), 2)
        assert levels[-1][0] == 2


# ---------------------------------------------------------------------------
# the triangle enumerator of the seed-edge sweep


def _triangle_edges_oracle(graph):
    """The wedges (a, b, c) whose pair a < b is an edge, as every
    engine.wedge_pairs chunk filtered through the sorted edge keys: the
    enumeration that _triangle_edges' degree-ordered one replaced."""
    n = graph.n
    us = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    mask = us < graph.indices
    ekeys = us[mask] * n + graph.indices[mask]  # sorted: rows hold sorted columns
    for pa, pb, pc in wedge_pairs(graph):
        keys = pa * n + pb
        pos = np.searchsorted(ekeys, keys)
        ok = pos < ekeys.shape[0]
        ok[ok] = ekeys[pos[ok]] == keys[ok]
        yield pa[ok], pb[ok], pc[ok]


def _wedge_list(chunks):
    return [
        wedge
        for a, b, c in chunks
        for wedge in zip(a.tolist(), b.tolist(), c.tolist())
    ]


@st.composite
def _tied_graph_part(draw):
    """Edges on vertices 0..size-1 of a small G(n, p), a K_n, a K_{s,t} or a
    star: families where many vertices share a degree."""
    kind = draw(st.sampled_from(["gnp", "complete", "bipartite", "star"]))
    if kind == "gnp":
        g = X.sample_gnp(
            draw(st.integers(1, 30)),
            draw(st.sampled_from([0.1, 0.3, 0.6, 0.9])),
            draw(st.integers(0, 2**32 - 1)),
        )
        return g.n, list(g.edges())
    if kind == "complete":
        k = draw(st.integers(1, 12))
        return k, list(itertools.combinations(range(k), 2))
    if kind == "bipartite":
        s, t = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        return s + t, [(x, s + y) for x in range(s) for y in range(t)]
    k = draw(st.integers(1, 15))
    return k + 1, [(0, v) for v in range(1, k + 1)]


@st.composite
def _tied_graphs(draw):
    """A disjoint union of one to four _tied_graph_part graphs, its vertices
    relabelled by a random permutation."""
    n, edges = 0, []
    for size, part in draw(st.lists(_tied_graph_part(), min_size=1, max_size=4)):
        edges += [(n + a, n + b) for a, b in part]
        n += size
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[a], perm[b]) for a, b in edges])


@settings(max_examples=300, deadline=None)
@given(g=_tied_graphs())
def test_triangle_edges_match_the_wedge_filter(g):
    # one wedge per triangle, which expands to the triangle's three wedges,
    # one per centre, each pair put in order a < b
    chunks = list(X._triangle_edges(g))
    assert all(
        0 < a.shape[0] == b.shape[0] == c.shape[0]
        and a.dtype == b.dtype == c.dtype == np.int64
        for a, b, c in chunks
    )
    got = _wedge_list(chunks)
    assert all(a < b for a, b, _ in got)
    assert len({frozenset(w) for w in got}) == len(got)
    expanded = [
        (*sorted(set(w) - {c}), c) for w in got for c in w
    ]
    assert Counter(expanded) == Counter(_wedge_list(_triangle_edges_oracle(g)))


def test_triangle_edges_chunk_arrives_before_the_whole_graph(monkeypatch):
    # K_60 has C(60, 3) = 34,220 triangles, each found once as a pair of
    # out-neighbors; the first chunk comes after only the first pairs
    g = Graph(60, itertools.combinations(range(60), 2))
    pulled = []
    row_pairs = X.row_pairs

    def counted(indptr, indices, first):
        for chunk in row_pairs(indptr, indices, first):
            pulled.append(chunk[0].shape[0])
            yield chunk

    monkeypatch.setattr(X, "row_pairs", counted)
    a, b, c = next(X._triangle_edges(g))
    assert pulled == [X.TRIANGLE_FIRST_CHUNK] and pulled[0] < math.comb(60, 3) // 10
    assert a.shape[0] == pulled[0]  # every pair of out-neighbors is an edge


# ---------------------------------------------------------------------------
# the three-vertex screen of _spanning_pair


@st.composite
def _dense_gnp(draw):
    """G(n, p) with 3 <= n <= 40, dense enough for pairs with several common
    neighbors and with adjacent endpoints."""
    n = draw(st.integers(3, 40))
    p = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.45, 0.7]))
    return X.sample_gnp(n, p, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(g=_dense_gnp(), screen_slice=st.one_of(st.integers(1, 300), st.just(1 << 15)))
def test_screen_matches_kernel_on_every_wedge(g, screen_slice):
    # small slices put slice boundaries inside the chunks; a wedge gathers
    # 4 to about 120 entries here, so a slice of 1 holds one wedge
    kern = X.PeelingKernel(g)
    spread: dict = {}  # the kernel's spread of each pair, run once
    for a, b, c in wedge_pairs(g):
        with mock.patch.object(X, "SCREEN_SLICE", screen_slice):
            grows = X._round_infects(g, (a, b, c), 2)
        for pair, gr in zip(zip(a.tolist(), b.tolist()), grows.tolist()):
            if pair not in spread:
                spread[pair] = kern.run(pair, 2)[0][-1][0]
            assert gr == (spread[pair] != 3)


@pytest.mark.parametrize(
    "edges",
    [
        # w = 3 is a second common neighbor of (a, c) = (0, 2), not of (0, 1)
        [(0, 2), (1, 2), (0, 3), (2, 3)],
        # w = 3 is a second common neighbor of (b, c) = (1, 2), not of (0, 1)
        [(0, 2), (1, 2), (1, 3), (2, 3)],
    ],
)
def test_screen_keeps_growth_through_the_centre(edges):
    g = Graph(7, edges)  # vertices 4..6 isolated
    wedge = [np.array([x], dtype=np.int64) for x in (0, 1, 2)]
    assert X._round_infects(g, wedge, 2).tolist() == [True]
    assert X.PeelingKernel(g).run((0, 1), 2)[0][-1][0] == 4
    assert X._spanning_pair(g, wedge_pairs(g)) == (False, 4)


def test_screen_off_at_n3_where_three_vertices_span():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert X._spanning_pair(g, wedge_pairs(g)) == (True, 3)
    assert X._spanning_pair(g, X._triangle_edges(g)) == (True, 3)


def test_path_stops_at_three_without_a_kernel_run(monkeypatch):
    g = Graph(6, [(0, 2), (1, 2)])  # a = 0, c = 2, b = 1; 3..5 isolated

    def no_run(*args, **kwargs):
        raise AssertionError("the screen should have decided this wedge")

    monkeypatch.setattr(X.PeelingKernel, "run", no_run)
    assert X._spanning_pair(g, wedge_pairs(g)) == (False, 3)


@settings(max_examples=100, deadline=None)
@given(
    g=_dense_gnp(),
    first=st.sampled_from([1, 2, 7, 64, 1 << 20]),
    cap=st.sampled_from([1, 5, 1 << 21]),
)
def test_chunk_cuts_do_not_change_the_search(g, first, cap):
    # chunks of 1, 2, 4, ... pairs up to the cap (or one chunk for the whole
    # graph) are cut anywhere and screened whole; both results must still
    # match the oracle's
    masks = bit_masks(g)
    size = {
        pair: len(bootstrap(g, pair, 2, masks).final)
        for pair in itertools.combinations(range(g.n), 2)
    }
    spans = [pair for pair, s in size.items() if s == g.n]
    with mock.patch.multiple(
        engine, WEDGE_FIRST_CHUNK=first, WEDGE_CHUNK_CAP=cap
    ), mock.patch.object(X, "TRIANGLE_FIRST_CHUNK", first):
        wedges = X._spanning_pair(g, wedge_pairs(g))
        triangles = X._spanning_pair(g, X._triangle_edges(g))
    assert wedges == ((True, g.n) if spans else (False, max(size.values(), default=2)))
    assert triangles[0] == any(g.has_edge(a, b) for a, b in spans)


def test_wedges_on_seen_vertices_share_a_run(monkeypatch):
    # triangles {0, 1, 2} and {0, 1, 3} have five edges between them, all
    # spreading to {0, 1, 2, 3}; their six wedges are linked through the
    # pair (0, 1) and the two vertex triples, so they need at most two runs
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    runs = []
    run = X.PeelingKernel.run

    def counted(self, seed, *args, **kwargs):
        runs.append(seed)
        return run(self, seed, *args, **kwargs)

    monkeypatch.setattr(X.PeelingKernel, "run", counted)
    assert X._spanning_pair(g, X._triangle_edges(g)) == (False, 4)
    assert 1 <= len(runs) <= 2
    # the wedge source adds the pair (2, 3), whose centres are 0 and 1
    runs.clear()
    assert X._spanning_pair(g, wedge_pairs(g)) == (False, 4)
    assert 1 <= len(runs) <= 3


def test_wedges_sharing_a_centre_and_an_endpoint_are_both_probed():
    # (1, 2) and (1, 3) share the centre 0: {0, 1, 2} grows only by 4,
    # {0, 1, 3} by 5, 6 and 7; a search that took the wedge (1, 3, 0) for
    # (1, 2, 0), as both hold 1 and 0, reported (False, 4)
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (1, 5), (3, 5)]
    g = Graph(9, edges + [(3, 6), (5, 6), (5, 7), (6, 7)])
    assert X._spanning_pair(g, wedge_pairs(g)) == (False, 6)


def test_first_chunk_is_probed_before_the_rest_is_screened(monkeypatch):
    # in K_40 the first wedge spans: one screen of the first chunk's
    # WEDGE_FIRST_CHUNK = 64 wedges and one kernel run, of 741 wedges in all
    g = Graph(40, itertools.combinations(range(40), 2))
    screened, runs = [], []
    round_infects, run = X._round_infects, X.PeelingKernel.run

    def counted(graph, members, t):
        screened.append(members[0].shape[0])
        return round_infects(graph, members, t)

    def counted_run(self, seed, *args, **kwargs):
        runs.append(seed)
        return run(self, seed, *args, **kwargs)

    monkeypatch.setattr(X, "_round_infects", counted)
    monkeypatch.setattr(X.PeelingKernel, "run", counted_run)
    assert X._spanning_pair(g, wedge_pairs(g)) == (True, 40)
    assert screened == [64] and len(runs) == 1
    # in two disjoint K_20 nothing spans, and the chunks double
    screened.clear()
    k20 = list(itertools.combinations(range(20), 2))
    g = Graph(40, k20 + [(a + 20, b + 20) for a, b in k20])
    assert X._spanning_pair(g, wedge_pairs(g)) == (False, 20)
    assert screened == [64, 128, 256, 512, 1024, 2048, 40 * 171 - 4032]


# ---------------------------------------------------------------------------
# the CLI's CSV and JSON writers on estimates


def test_csv_writer_byte_deterministic():
    est1 = X.estimate_Pki(_small_cfg())
    est2 = X.estimate_Pki(_small_cfg())
    hdr = ("k", "i", "frequency", "stderr", "comparator")
    assert _csv_text(hdr, est1.rows()) == _csv_text(hdr, est2.rows())


def test_csv_writer_formats():
    text = _csv_text(("a", "b", "c"), [(1, 0.5, True), (2, 1e-17, False)])
    assert text == "a,b,c\n1,0.5,true\n2,1e-17,false\n"


def test_json_writer_sorted_and_deterministic(tmp_path):
    # _small_cfg(k_max=5) as a `gnp pki` command
    argv = ["gnp", "pki", "--n", "400", "--r", "2",
            "--alpha", repr(0.5 * critical_alpha(2)), "--trials", "40",
            "--seed", "11", "--seeds-per-graph", "25", "--k-max", "5",
            "--format", "json", "--out"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*argv, str(f1)]) == 0
    assert main([*argv, str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    import json

    payload = json.loads(f1.read_bytes())
    assert payload["n"] == 400 and payload["records"]
    assert list(payload) == sorted(payload)
    assert all(list(rec) == sorted(rec) for rec in payload["records"])
