"""Tests for the branching process module.

The main oracle is an exact dynamic program over the walk
(`walk_oracle.walk_survival_dp`): convolve the Poisson step distributions,
kill mass below zero, and stop once the step mean is large (residual
extinction < e^{-10}).  MC estimates are seeded, so every assertion here
is deterministic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootperc import branching as bp
from bootperc.counting import build_count_table
from walk_oracle import DEFAULT_XMAX, walk_survival_dp


# ---------------------------------------------------------------------------
# exact hitting probabilities


def test_psi_pins():
    assert bp.hitting_probability_exact(2, 0.1, 3, 1) == pytest.approx(
        0.1 * math.exp(-0.1), rel=1e-12
    )
    assert bp.hitting_probability_exact(2, 0.1, 4, 1) == pytest.approx(
        0.02 * math.exp(-0.3), rel=1e-12
    )


def test_psi_row_sums_at_most_one():
    for r, eps, k in [(2, 0.1, 5), (2, 0.5, 8), (3, 0.3, 9), (2, 2.0, 6), (4, 1.0, 9)]:
        total = sum(
            bp.hitting_probability_exact(r, eps, k, i) for i in range(1, k - r + 1)
        )
        assert 0 < total <= 1


def test_psi_accepts_prebuilt_table():
    table = build_count_table(2, 8)
    direct = bp.hitting_probability_exact(2, 0.3, 7, 2)
    assert bp.hitting_probability_exact(2, 0.3, 7, 2, table=table) == direct


def test_psi_validation():
    with pytest.raises(ValueError):
        bp.hitting_probability_exact(3, 0.1, 3, 1)
    with pytest.raises(ValueError):
        bp.hitting_probability_exact(2, 0.1, 5, 4)
    with pytest.raises(ValueError):
        bp.hitting_probability_exact(2, 0.1, 5, 0)
    small = build_count_table(2, 4)
    with pytest.raises(ValueError):
        bp.hitting_probability_exact(2, 0.1, 6, 1, table=small)
    hat = build_count_table(2, 8, variant="triangle_free_lower")
    with pytest.raises(ValueError):
        bp.hitting_probability_exact(2, 0.1, 6, 1, table=hat)


def test_psi_eps_zero():
    assert bp.hitting_probability_exact(2, 0.0, 4, 1) == 0.0


# ---------------------------------------------------------------------------
# walk simulator


def test_walk_deterministic_per_trial():
    a = bp.simulate_walk(2, 0.2, 42, trial_index=5)
    b = bp.simulate_walk(2, 0.2, 42, trial_index=5)
    assert a == b


def test_walk_eps_zero_dies_immediately():
    out = bp.simulate_walk(3, 0.0, 1)
    assert not out.survived
    assert out.extinction_time == 2
    assert out.total_progeny == 0
    assert out.max_population == 3
    assert out.truncation_reason == "extinct"
    assert out.steps == 1


def test_walk_outcome_invariants():
    for t in range(200):
        out = bp.simulate_walk(2, 0.5, 77, trial_index=t)
        if out.survived:
            assert out.extinction_time is None
            assert out.truncation_reason in ("policy_survival", "hard_cap")
        else:
            assert out.extinction_time is not None
            assert out.truncation_reason == "extinct"
            # death at time t means population equals the explored count
            assert out.max_population == 2 + out.total_progeny


def test_walk_hard_cap_reason():
    policy = bp.WalkPolicy(c1=1e9, hard_cap_factor=1e-9)
    out = bp.simulate_walk(2, 1.0, 10, policy=policy, trial_index=3)
    if out.survived:
        assert out.truncation_reason == "hard_cap"
        assert out.steps == policy.limits(2, 1.0)[1]


def test_walk_validation():
    with pytest.raises(ValueError):
        bp.simulate_walk(1, 0.1, 0)
    with pytest.raises(ValueError):
        bp.simulate_walk(2, -0.1, 0)


@pytest.mark.parametrize(
    "bad",
    [
        {"c1": 0.0}, {"c1": -1.0}, {"c1": math.inf}, {"c1": math.nan},
        {"m": 0}, {"m": -3},
        {"hard_cap_factor": 0.0}, {"hard_cap_factor": -2.0},
        {"hard_cap_factor": math.inf}, {"hard_cap_factor": math.nan},
    ],
)
def test_walk_policy_rejects_values_without_a_certificate(bad):
    with pytest.raises(ValueError):
        bp.WalkPolicy(**bad)


def test_walk_policy_defaults_unchanged():
    policy = bp.WalkPolicy()
    assert (policy.c1, policy.m, policy.hard_cap_factor) == (4.0, 50, 10.0)


# ---------------------------------------------------------------------------
# survival MC vs the DP oracle


def test_survival_matches_dp_oracle():
    exact = walk_survival_dp(2, 0.2)
    assert exact == pytest.approx(1.934754e-02, rel=1e-5)
    est = bp.survival_probability_mc(2, 0.2, 30000, 12345)
    sigma = math.sqrt(exact * (1 - exact) / est.trials)
    assert abs(est.p_hat - exact) < 4 * sigma
    assert est.stderr == pytest.approx(
        math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials), rel=1e-12
    )
    assert est.asymptotic == pytest.approx(math.exp(-2.5), rel=1e-12)


def test_walk_survival_dp_keeps_mass_above_xmax():
    # Surviving walks at small eps climb past xmax before the DP stops;
    # that mass must count as survived, not vanish.
    exact = walk_survival_dp(2, 0.0125)
    assert math.isclose(exact, 6.4289e-23, rel_tol=1e-4)
    wider = walk_survival_dp(2, 0.0125, xmax=2 * DEFAULT_XMAX)
    assert math.isclose(wider, exact, rel_tol=1e-9)


def test_survival_supercritical_from_start():
    est = bp.survival_probability_mc(2, 1.0, 5000, 7)
    assert est.p_hat > 0.3


def test_survival_monotone_in_eps():
    lo = bp.survival_probability_mc(2, 0.05, 50000, 4)
    hi = bp.survival_probability_mc(2, 0.2, 50000, 5)
    gap = hi.p_hat - lo.p_hat
    assert gap > 3 * math.sqrt(lo.stderr**2 + hi.stderr**2)


def test_asymptotic_survival_formula():
    assert bp.asymptotic_survival(2, 0.1) == pytest.approx(math.exp(-5.0), rel=1e-12)
    assert bp.asymptotic_survival(3, 0.5) == pytest.approx(
        math.exp(-(4 / 3) * 2.0), rel=1e-12
    )


# ---------------------------------------------------------------------------
# set-based generations


def test_generations_start_and_monotone():
    path = bp.simulate_generations(2, 0.5, 11, trial_index=2)
    assert path[0] == (2, 2)
    for (s0, _), (s1, y1) in zip(path, path[1:]):
        assert y1 >= 1
        assert s1 == s0 + y1


def test_generations_eps_zero_frozen():
    assert bp.simulate_generations(3, 0.0, 1) == [(3, 3)]


def test_generations_deterministic():
    a = bp.simulate_generations(2, 0.2, 42, trial_index=5)
    assert a == bp.simulate_generations(2, 0.2, 42, trial_index=5)


def test_generations_k_cap():
    for t in range(100):
        path = bp.simulate_generations(2, 3.0, 9, k_cap=25, trial_index=t)
        before_last = path[:-1]
        assert all(s < 25 for s, _ in before_last)


def test_generations_validation():
    with pytest.raises(ValueError):
        bp.simulate_generations(2, 0.1, 0, k_cap=1)


# ---------------------------------------------------------------------------
# exact vs MC hitting frequencies


def test_hitting_exact_vs_mc():
    trials = 100000
    for k, i in [(3, 1), (4, 1), (4, 2), (5, 2)]:
        exact = bp.hitting_probability_exact(2, 0.1, k, i)
        mc = bp.hitting_frequency_mc(2, 0.1, k, i, trials, 99)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(mc.p_hat - exact) < 3.5 * sigma, (k, i, mc.p_hat, exact)


# ---------------------------------------------------------------------------
# walk/generations consistency


def test_walk_and_generations_agree_on_population_reach():
    # the set process reaching population k is the walk's total progeny
    # reaching k - r; each trial's run is shared by every k
    trials = 40000
    reached = [bp.simulate_generations(2, 0.2, 7, trial_index=t)[-1][0]
               for t in range(trials)]
    progeny = [bp.simulate_walk(2, 0.2, 8, trial_index=t).total_progeny
               for t in range(trials)]
    for k in (5, 8, 12):
        gens = sum(s >= k for s in reached) / trials
        walk = sum(q >= k - 2 for q in progeny) / trials
        sigma = math.sqrt((gens * (1 - gens) + walk * (1 - walk)) / trials)
        assert abs(gens - walk) < 3.5 * sigma, (k, gens, walk)


@pytest.mark.parametrize(
    "k, i",
    [
        (2, 1),  # k <= r
        (5, 0),  # i < 1
        (5, 4),  # i > k - r
    ],
)
def test_hitting_frequency_rejects_unobservable_events(k, i):
    with pytest.raises(ValueError):
        bp.hitting_frequency_mc(2, 0.1, k, i, 10, 0)


# ---------------------------------------------------------------------------
# RNG streams


def _fresh_rng(rng_seed, trial_index):
    key = np.array([rng_seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_trial_rng_reproducible_and_distinct():
    a = bp.trial_rng(12345, 7).poisson(2.0, size=8)
    b = bp.trial_rng(12345, 7).poisson(2.0, size=8)
    c = bp.trial_rng(12345, 8).poisson(2.0, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # two keys, interleaved: each re-key restarts that key's own stream
    want = {t: _fresh_rng(12345, t).poisson(2.0, size=8) for t in (7, 8)}
    for t in (7, 8, 7, 7, 8):
        assert np.array_equal(bp.trial_rng(12345, t).poisson(2.0, size=8), want[t])


def _every_draw(rng):
    """One of each draw type the trial functions make, in a fixed order."""
    out = [np.array([rng.poisson(mean) for mean in (0.05, 0.7, 3.0, 12.5, 40.0)])]
    out.append(rng.poisson(2.5, size=7))
    out.append(rng.geometric(0.013, size=9))
    out.append(rng.choice(5, size=2, replace=False))
    out.append(rng.choice(100_000, size=3, replace=False))
    out.append(np.array([rng.random()]))
    out.append(rng.uniform(0.0, 0.3, size=4))
    return out


# what a previous trial may leave behind in the generator
_DIRTY = {
    "clean": lambda rng: None,
    "half-used 64-bit buffer": lambda rng: rng.random(3),
    "pending uint32": lambda rng: rng.integers(0, 7, dtype=np.uint32),
    "small choice": lambda rng: rng.choice(4, size=2, replace=False),
}


@settings(max_examples=200, deadline=None)
@given(
    rng_seed=st.integers(0, 2**64 - 1),
    trial_index=st.integers(0, 2**64 - 1),
    dirty=st.sampled_from(sorted(_DIRTY)),
)
def test_trial_rng_equals_fresh_philox(rng_seed, trial_index, dirty):
    _DIRTY[dirty](bp.trial_rng(rng_seed ^ 1, trial_index))
    got = _every_draw(bp.trial_rng(rng_seed, trial_index))
    want = _every_draw(_fresh_rng(rng_seed, trial_index))
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize(
    "rng_seed, trial_index", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)]
)
def test_trial_rng_rejects_keys_outside_uint64(rng_seed, trial_index):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        bp.trial_rng(rng_seed, trial_index)


# ---------------------------------------------------------------------------
# the lockstep batch against the scalar paths, trial by trial


def _walk_batch(r, eps, rng_seed, policy, start, stop):
    plan = bp._WalkPlan(r, eps, policy)
    runs = [plan.run(streams) for streams in bp._lockstep(rng_seed, start, stop)]
    return [np.concatenate(arrays) for arrays in zip(*runs)]


# Trial ranges: within one chunk, across a chunk boundary, and ending at
# the last trial index below 2**64.
_RANGES = st.one_of(
    st.tuples(st.integers(0, 2**20), st.integers(150, 400)),
    st.tuples(st.integers(0, 2**20), st.integers(bp._CHUNK + 1, bp._CHUNK + 300)),
    st.integers(150, 400).map(lambda n: (2**64 - n, n)),
)
# eps where walks reach step mean 10 (and numpy's PTRS) before the policy
# decides them, and where they do not; with m = 10**6 the walks that
# survive at r = 2 end at hard_cap
_WALK_EPS = {2: (0.1, 0.2, 0.5, 1.5), 3: (0.05, 0.2, 0.6), 4: (0.02, 0.3, 1.0)}
_POLICIES = (bp.WalkPolicy(), bp.WalkPolicy(c1=1.0, m=5), bp.WalkPolicy(m=10**6))


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from([(r, e) for r, es in _WALK_EPS.items() for e in es]),
    policy=st.sampled_from(_POLICIES),
    rng_seed=st.integers(0, 2**64 - 1),
    trials=_RANGES,
)
def test_walk_batch_equals_simulate_walk(case, policy, rng_seed, trials):
    r, eps = case
    start, n = trials
    steps, reason, progeny = _walk_batch(r, eps, rng_seed, policy, start, start + n)
    for j in range(n):
        out = bp.simulate_walk(r, eps, rng_seed, policy=policy, trial_index=start + j)
        reason_j = bp._REASONS[reason[j]]
        got = (
            reason_j != "extinct",
            int(steps[j]) + r - 2 if reason_j == "extinct" else None,
            int(steps[j]),
            reason_j,
            int(progeny[j]),
            r + int(progeny[j]),
        )
        want = (
            out.survived, out.extinction_time, out.steps,
            out.truncation_reason, out.total_progeny, out.max_population,
        )
        assert got == want, (start + j, got, want)


def test_walk_batch_covers_every_ending():
    # (3, 0.2) reaches mean 10 at t = 11 with trials alive; at (2, 0.2)
    # with m = 10**6 the walks that survive end at hard_cap = 1000 steps
    seen = set()
    for r, policy in ((3, bp.WalkPolicy()), (2, bp.WalkPolicy(m=10**6))):
        _, reason, _ = _walk_batch(r, 0.2, 5, policy, 0, 3000)
        seen |= {bp._REASONS[c] for c in np.unique(reason)}
    assert seen == set(bp._REASONS)


@pytest.mark.parametrize("r, eps", [(2, 0.2), (3, 0.2), (2, 0.0)])
def test_survival_mc_counts_simulate_walk(r, eps):
    trials, seed = 3000, 99
    want = sum(bp.simulate_walk(r, eps, seed, trial_index=t).survived
               for t in range(trials))
    assert bp.survival_probability_mc(r, eps, trials, seed).p_hat == want / trials


def _first_at_or_past(path, k):
    return next((sy for sy in path if sy[0] >= k), path[-1])


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from([(2, 0.1), (2, 0.5), (2, 2.0), (3, 0.2), (3, 1.0), (4, 0.4)]),
    k_over=st.integers(1, 40),
    rng_seed=st.integers(0, 2**64 - 1),
    trials=_RANGES,
)
def test_generations_batch_equals_simulate_generations(case, k_over, rng_seed, trials):
    r, eps = case
    k = r + k_over
    start, n = trials
    plan = bp._GenerationsPlan(r, eps, k)
    runs = [plan.run(streams) for streams in bp._lockstep(rng_seed, start, start + n)]
    s, y = (np.concatenate(arrays) for arrays in zip(*runs))
    for j in range(n):
        path = bp.simulate_generations(r, eps, rng_seed, trial_index=start + j)
        assert (int(s[j]), int(y[j])) == _first_at_or_past(path, k), start + j


@pytest.mark.parametrize(
    "r, eps, k, i",
    # (61, 50) lies past DEFAULT_K_CAP = 60; its exact probability is 2.2e-3
    [(2, 0.1, 4, 1), (2, 1.0, 9, 3), (3, 0.5, 7, 2), (2, 1.0, 61, 50)],
)
def test_hitting_mc_counts_simulate_generations(r, eps, k, i):
    trials, seed = 3000, 17
    k_cap = max(k, bp.DEFAULT_K_CAP)
    want = sum(
        (k, i) in bp.simulate_generations(r, eps, seed, k_cap=k_cap, trial_index=t)
        for t in range(trials)
    )
    assert want > 0
    assert bp.hitting_frequency_mc(r, eps, k, i, trials, seed).p_hat == want / trials


@pytest.mark.parametrize(
    "rng_seed, start, stop, message",
    [
        (2**64, 0, 10, r"rng_seed must lie in \[0, 2\*\*64\)"),
        (-1, 0, 10, r"rng_seed must lie in \[0, 2\*\*64\)"),
        (0, 2**64 - 5, 2**64 + 1, r"trial_index must lie in \[0, 2\*\*64\)"),
        (0, 2**64, 2**64 + 3, r"trial_index must lie in \[0, 2\*\*64\)"),
    ],
)
def test_lockstep_rejects_keys_outside_uint64(rng_seed, start, stop, message):
    with pytest.raises(ValueError, match=message):
        next(bp._lockstep(rng_seed, start, stop))


@pytest.mark.parametrize("rng_seed", [2**64, -1])
def test_mc_estimators_reject_seeds_outside_uint64(rng_seed):
    message = r"rng_seed must lie in \[0, 2\*\*64\)"
    with pytest.raises(ValueError, match=message):
        bp.survival_probability_mc(2, 0.1, 10, rng_seed)
    with pytest.raises(ValueError, match=message):
        bp.hitting_frequency_mc(2, 0.1, 4, 1, 10, rng_seed)
    with pytest.raises(ValueError, match=message):
        bp.simulate_walk(2, 0.1, rng_seed)


# ---------------------------------------------------------------------------
# the numpy facts the batch relies on (numpy 2.4): a numpy that changes
# one of them fails here instead of silently changing a stream


def _words(rng_seed, trial_index, n):
    return _fresh_rng(rng_seed, trial_index).bit_generator.random_raw(n)


@settings(max_examples=100, deadline=None)
@given(rng_seed=st.integers(0, 2**64 - 1), trial_index=st.integers(0, 2**64 - 1))
def test_numpy_philox_blocks_are_philox4x64_10(rng_seed, trial_index):
    counters = np.arange(1, 4, dtype=np.uint64)
    keys = np.full(3, trial_index, dtype=np.uint64)
    got = bp._philox_blocks(counters, rng_seed, keys).ravel()
    assert np.array_equal(got, _words(rng_seed, trial_index, 12))


@settings(max_examples=50, deadline=None)
@given(rng_seed=st.integers(0, 2**64 - 1), trial_index=st.integers(0, 2**64 - 1))
def test_numpy_random_is_top_53_bits(rng_seed, trial_index):
    words = _words(rng_seed, trial_index, 9)
    want = [float(int(x) >> 11) * 2.0**-53 for x in words]
    assert _fresh_rng(rng_seed, trial_index).random(9).tolist() == want


def _multiplication_method(words, mean):
    """Poisson(mean) by multiplying uniforms while above math.exp(-mean);
    returns the draw and the number of words read."""
    enlam, prod = math.exp(-mean), 1.0
    for used, x in enumerate(words, start=1):
        prod *= float(int(x) >> 11) * 2.0**-53
        if not prod > enlam:
            return used - 1, used
    raise AssertionError("ran out of words")


@settings(max_examples=200, deadline=None)
@given(
    rng_seed=st.integers(0, 2**64 - 1),
    trial_index=st.integers(0, 2**64 - 1),
    means=st.lists(
        st.floats(min_value=1e-9, max_value=10.0, exclude_max=True), min_size=1, max_size=6
    ),
)
def test_numpy_poisson_below_10_is_the_multiplication_method(rng_seed, trial_index, means):
    words = _words(rng_seed, trial_index, 400).tolist()
    rng = _fresh_rng(rng_seed, trial_index)
    streams = bp._Streams(rng_seed, trial_index, trial_index + 1)
    row = np.zeros(1, dtype=np.intp)
    read = 0
    for mean in means:
        want, used = _multiplication_method(words[read:], mean)
        read += used
        assert int(rng.poisson(mean)) == want
        assert streams.poisson(row, mean, np.array([math.exp(-mean)]))[0] == want
        assert streams.words[0] == read
    # the hand-over leaves the process's generator where this one is
    [(_, resumed)] = list(streams.resumed(row))
    assert np.array_equal(resumed.random(7), rng.random(7))
