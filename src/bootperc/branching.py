"""Time-varying branching process: exact hitting probabilities and MC survival.

The walk X_t = sum_{n=r-1..t} (Z_n - 1) with Z_n ~ Poisson(C(n, r-1) eps)
explores, one individual at a time, the same random structure as the
set-based process (S_t, Y_t) that starts from r individuals and lets every
newly exposed r-subset of the population spawn Poisson(eps) children.  The
probability that the set process ever hits population k with newest
generation i is exactly

    Psi_r(k, i) = e^{-eps*C(k-i, r)} * eps^(k-r) / (k-r)! * m_r(k, i),

where m_r(k, i) counts minimally susceptible graphs; both the exact formula
and the two simulators live here.

Trial t under rng_seed draws from the stream of a new
Philox(key=[rng_seed, t]), so outcomes are reproducible and do not depend
on scheduling.  Poisson variates are numpy's Generator.poisson: the
multiplication method below mean 10 (multiply uniforms (x >> 11) 2^-53 of
the 64-bit outputs until the product falls to exp(-mean)), transformed
rejection (PTRS) from 10 up.

simulate_walk and simulate_generations run one trial; trial_rng re-keys
the process's one Philox to the trial's key with a zero counter.  The MC
estimators run trials in lockstep instead, _CHUNK trial indices at a time.
Philox4x64-10 is counter-based: block c of trial t is the cipher of
counter c under key (rng_seed, t).  So _Streams keeps only the number of
words each trial has read, computes the blocks of every live trial in
numpy, and draws below mean 10 by the multiplication method with
exp(-mean) from math.exp, libm's exp as in numpy's sampler.  At a draw
boundary a trial is handed over to the scalar loop that simulate_walk or
simulate_generations runs, with the Philox set to the trial's exact
counter, buffer and buffer position: when its next mean reaches 10, and
once fewer than _SPARSE trials of the chunk are live.  Every trial reads
the same draws as it would alone.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counting import CountTable, a_count, build_count_table
from .thresholds import k_r_of_eps

__all__ = [
    "WalkPolicy",
    "BPOutcome",
    "SurvivalEstimate",
    "HitEstimate",
    "trial_rng",
    "simulate_walk",
    "survival_probability_mc",
    "asymptotic_survival",
    "hitting_probability_exact",
    "simulate_generations",
    "hitting_frequency_mc",
]

DEFAULT_K_CAP = 60


_KEY_LIMIT = 2**64
_ZERO4 = np.zeros(4, dtype=np.uint64)
_BITGEN = np.random.Philox(key=_ZERO4[:2])
_GENERATOR = np.random.Generator(_BITGEN)


def _check_key(rng_seed: int, trial_index: int) -> None:
    if not 0 <= rng_seed < _KEY_LIMIT:
        raise ValueError(f"rng_seed must lie in [0, 2**64), got {rng_seed}")
    if not 0 <= trial_index < _KEY_LIMIT:
        raise ValueError(f"trial_index must lie in [0, 2**64), got {trial_index}")


def trial_rng(rng_seed: int, trial_index: int) -> np.random.Generator:
    """Independent reproducible stream for one trial.

    The stream equals that of Generator(Philox(key=[rng_seed, trial_index])),
    draw for draw.  The returned generator is the process's only one: the
    next trial_rng call re-keys it, so a trial reads its stream to the end
    before the next trial starts, and threads must not share it.  Worker
    processes each hold their own.
    """
    _check_key(rng_seed, trial_index)
    # the setter copies the arrays, so the zero arrays can be shared
    _BITGEN.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": (rng_seed, trial_index)},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _GENERATOR


# ---------------------------------------------------------------------------
# trials in lockstep

# Trials per lockstep chunk: a few dozen bytes of state each.
_CHUNK = 2048
# Below this many live trials a lockstep step, a fixed few hundred
# microseconds of numpy calls, costs more than their scalar steps.
_SPARSE = 128
# numpy's Generator.poisson uses the multiplication method below this mean.
_PTRS_MEAN = 10.0

# Philox4x64-10 (Random123).  Rows are the lanes (c0, c2) that the round
# multiplies, by M0 and M1, and the keys (k0, k1) with their Weyl
# increments; the multipliers are also split into 32-bit halves for the
# high words of the products.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _U32
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_U11 = np.uint64(11)
_TWO_M53 = 2.0**-53


def _philox_blocks(counter: np.ndarray, key0: int, key1: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of counters (c, 0, 0, 0) under keys (key0, key1[j]):
    one row of 4 output words per counter."""
    n = counter.size
    lanes = np.zeros((2, n), dtype=np.uint64)  # c0, c2
    lanes[0] = counter
    other = np.zeros((2, n), dtype=np.uint64)  # c1, c3
    key = np.empty((2, n), dtype=np.uint64)
    key[0], key[1] = key0, key1
    a_lo, a_hi, lh, mid = (np.empty((2, n), dtype=np.uint64) for _ in range(4))
    for rnd in range(10):
        if rnd:
            key += _PHILOX_W
        # 64x64 -> 128-bit products from 32-bit halves, in place:
        # mid = (ll >> 32) + (lh & 0xFFFFFFFF) + hl < 2**64,
        # hi = hh + (lh >> 32) + (mid >> 32)
        np.bitwise_and(lanes, _LOW32, out=a_lo)
        np.right_shift(lanes, _U32, out=a_hi)
        np.multiply(a_lo, _PHILOX_M_HI, out=lh)
        np.multiply(a_lo, _PHILOX_M_LO, out=mid)
        mid >>= _U32
        np.bitwise_and(lh, _LOW32, out=a_lo)
        mid += a_lo
        np.multiply(a_hi, _PHILOX_M_LO, out=a_lo)
        mid += a_lo
        a_hi *= _PHILOX_M_HI
        lh >>= _U32
        a_hi += lh
        mid >>= _U32
        a_hi += mid
        lanes *= _PHILOX_M  # the low words
        # c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        np.bitwise_xor(a_hi[::-1], other, out=a_lo)
        a_lo ^= key
        other[:] = lanes[::-1]
        lanes, a_lo = a_lo, lanes
    out = np.empty((n, 4), dtype=np.uint64)
    out[:, 0::2] = lanes.T
    out[:, 1::2] = other.T
    return out


class _Streams:
    """The Philox streams of trials start..stop-1 under one seed.

    A trial's state is the number of 64-bit words it has read, w: word w
    is word w % 4 of block w // 4 + 1, since numpy's Philox adds one to
    its counter before each block.  Blocks are computed as draws need
    them, so the state is a word count rather than a buffer.
    """

    def __init__(self, rng_seed: int, start: int, stop: int):
        self.seed = rng_seed
        self.key = np.uint64(start) + np.arange(stop - start, dtype=np.uint64)
        self.words = np.zeros(stop - start, dtype=np.int64)

    @property
    def size(self) -> int:
        return self.key.size

    def poisson(self, rows: np.ndarray, top: float, enlam: np.ndarray) -> np.ndarray:
        """One Poisson draw per row, of means at most top < 10 and
        enlam = exp(-mean) per row, by numpy's multiplication method: the
        number of uniforms (x >> 11) 2^-53 multiplied in while the product
        stays above enlam.  Each pass reads a window of words per row, long
        enough for nearly every draw to end in it."""
        need = math.ceil(top + 2 + 2.5 * math.sqrt(top))
        z = np.zeros(rows.size, dtype=np.int64)
        prod = np.ones(rows.size)
        todo = np.arange(rows.size)
        while todo.size:
            live = rows[todo]
            w = self.words[live]
            skip = int((w & 3).max())  # words of the first block already read
            blocks = (skip + need + 3) // 4
            width = 4 * blocks - skip
            window = np.arange(width)
            ahead = np.arange(1, blocks + 1, dtype=np.uint64)
            counters = (w >> 2).astype(np.uint64)[:, None] + ahead
            words = _philox_blocks(
                counters.ravel(), self.seed, np.repeat(self.key[live], blocks)
            ).reshape(todo.size, 4 * blocks)
            u = np.take_along_axis(words, (w & 3)[:, None] + window, axis=1)
            u = (u >> _U11) * _TWO_M53
            u[:, 0] *= prod
            u = np.multiply.accumulate(u, axis=1)  # the running product, in order
            ended = u <= enlam[todo, None]
            stop = ended.any(axis=1)
            used = np.where(stop, ended.argmax(axis=1) + 1, width)
            self.words[live] = w + used
            z[todo] += used - stop
            prod = u[~stop, -1]
            todo = todo[~stop]
        return z

    def resumed(self, rows: np.ndarray):
        """(row, the process's generator at that row's exact stream state)
        for each row, one at a time."""
        w = self.words[rows]
        counter = (w + 3) >> 2  # blocks made so far
        buffers = _philox_blocks(counter.astype(np.uint64), self.seed, self.key[rows])
        for j, row in enumerate(rows.tolist()):
            _BITGEN.state = {
                "bit_generator": "Philox",
                "state": {
                    "counter": (int(counter[j]), 0, 0, 0),
                    "key": (self.seed, int(self.key[row])),
                },
                "buffer": buffers[j],
                "buffer_pos": int(w[j] - 4 * counter[j] + 4),
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield row, _GENERATOR


def _lockstep(rng_seed: int, start: int, stop: int):
    """The streams of trials start..stop-1, _CHUNK trials at a time."""
    _check_key(rng_seed, start)
    _check_key(rng_seed, stop - 1)
    for lo in range(start, stop, _CHUNK):
        yield _Streams(rng_seed, lo, min(lo + _CHUNK, stop))


def _bernoulli_mc(trials: int, rng_seed: int, hits) -> tuple[float, float]:
    """Share p_hat of trial indices in range(trials) that hit, and its
    binomial standard error; hits(streams) counts one chunk's hits."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_hat = sum(hits(streams) for streams in _lockstep(rng_seed, 0, trials)) / trials
    return p_hat, math.sqrt(p_hat * (1 - p_hat) / trials)


# ---------------------------------------------------------------------------
# the walk


@dataclass(frozen=True)
class WalkPolicy:
    """Survival-declaration rule: survived once t >= ceil(c1 * k_r(eps)) and
    X_t >= m.  Past k_r the offspring mean C(t, r-1) eps exceeds 1 and keeps
    growing, so a walk at height m there dies with probability < (1/e)^m
    per the usual supercritical hitting bound.  The certificate that a
    declared survival is wrong with probability below 1e-6 holds for the
    defaults (4 k_r, 50); other values are accepted without it.
    hard_cap_factor bounds the simulation length for walks lingering
    below m.

    Raises ValueError unless c1 and hard_cap_factor are finite and > 0 and
    m >= 1: outside that range a walk is declared to survive on no evidence
    (m = 0 at time 0, for instance).
    """

    c1: float = 4.0
    m: int = 50
    hard_cap_factor: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.c1) and self.c1 > 0):
            raise ValueError(f"c1 must be finite and > 0, got {self.c1}")
        if not self.m >= 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not (math.isfinite(self.hard_cap_factor) and self.hard_cap_factor > 0):
            raise ValueError(
                f"hard_cap_factor must be finite and > 0, got {self.hard_cap_factor}"
            )

    def limits(self, r: int, eps: float) -> tuple[int, int]:
        """(t_cut, hard_cap): the time from which a walk may be declared
        to survive, max(r, ceil(c1 k_r(eps))) (0 at eps = 0), and the most
        steps a walk takes, max(1000, ceil(hard_cap_factor t_cut)).

        Raises ValueError when either limit overflows a double, as for an
        eps > 0 so small that k_r(eps) is infinite (at r = 2, 1/eps for eps
        below about 5.6e-309).
        """
        t_cut = 0
        if eps > 0:
            cut = self.c1 * k_r_of_eps(r, eps)
            t_cut = max(r, math.ceil(cut)) if math.isfinite(cut) else math.inf
        cap = self.hard_cap_factor * t_cut
        if not math.isfinite(cap):
            raise ValueError(
                f"the walk's time limits overflow at r = {r}, eps = {eps!r}"
            )
        return t_cut, max(1000, math.ceil(cap))


@dataclass(frozen=True)
class BPOutcome:
    survived: bool
    extinction_time: Optional[int]
    max_population: int
    steps: int
    truncation_reason: str
    total_progeny: int


@dataclass(frozen=True)
class SurvivalEstimate:
    r: int
    eps: float
    trials: int
    p_hat: float
    stderr: float
    asymptotic: float


@dataclass(frozen=True)
class HitEstimate:
    trials: int
    p_hat: float
    stderr: float


def _validate_r_eps(r: int, eps: float) -> None:
    if r < 2:
        raise ValueError(f"threshold r must be >= 2, got {r}")
    if eps < 0 or not math.isfinite(eps):
        raise ValueError(f"eps must be nonnegative, got {eps}")


def _validate_k_i(r: int, k: int, i: int) -> None:
    if not r < k:
        raise ValueError(f"need r < k, got r={r}, k={k}")
    if not 1 <= i <= k - r:
        raise ValueError(f"need 1 <= i <= k-r, got i={i}, k-r={k - r}")


def simulate_walk(
    r: int,
    eps: float,
    rng_seed: int,
    policy: WalkPolicy | None = None,
    trial_index: int = 0,
) -> BPOutcome:
    """One walk trajectory; X_t < 0 is extinction at time t.

    Individual n (from n = r-1) has Poisson(C(n, r-1) eps) children; the
    walk surviving past total progeny q is the same event as the set-based
    population reaching r + q.
    """
    _validate_r_eps(r, eps)
    policy = policy or WalkPolicy()
    rng = trial_rng(rng_seed, trial_index)
    return _walk_from(rng, r, eps, policy.m, *policy.limits(r, eps), r - 1, 0, 0)


def _walk_from(
    rng: np.random.Generator,
    r: int,
    eps: float,
    m: int,
    t_cut: int,
    hard_cap: int,
    t: int,
    x: int,
    progeny: int,
) -> BPOutcome:
    """The walk from its draw at time t on, at height x after progeny
    children so far, drawing from rng."""
    steps = t - (r - 1)
    while True:
        mean = eps * math.comb(t, r - 1)
        z = int(rng.poisson(mean)) if mean > 0 else 0
        progeny += z
        x += z - 1
        steps += 1
        if x < 0:
            return BPOutcome(
                survived=False,
                extinction_time=t,
                max_population=r + progeny,
                steps=steps,
                truncation_reason="extinct",
                total_progeny=progeny,
            )
        if t >= t_cut and x >= m:
            return BPOutcome(
                survived=True,
                extinction_time=None,
                max_population=r + progeny,
                steps=steps,
                truncation_reason="policy_survival",
                total_progeny=progeny,
            )
        if steps >= hard_cap:
            return BPOutcome(
                survived=True,
                extinction_time=None,
                max_population=r + progeny,
                steps=steps,
                truncation_reason="hard_cap",
                total_progeny=progeny,
            )
        t += 1


# BPOutcome.truncation_reason by the codes _WalkPlan.run returns
_REASONS = ("extinct", "policy_survival", "hard_cap")


class _WalkPlan:
    """The walks of one (r, eps, policy) in lockstep: every live trial
    takes its draw at the same t, so a step has one mean."""

    def __init__(self, r: int, eps: float, policy: WalkPolicy):
        self.r, self.eps, self.m = r, eps, policy.m
        self.t_cut, self.hard_cap = policy.limits(r, eps)
        # (mean, exp(-mean)) of the draw at t = r-1, r, ..., while mean < 10
        self.means: list[tuple[float, float]] = []

    def _mean(self, t: int) -> Optional[tuple[float, float]]:
        j = t - (self.r - 1)
        if j == len(self.means):
            mean = self.eps * math.comb(t, self.r - 1)
            if mean >= _PTRS_MEAN:
                return None
            self.means.append((mean, math.exp(-mean)))
        return self.means[j]

    def run(self, streams: _Streams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Steps, end reason (an index into _REASONS) and total progeny of
        each trial's walk."""
        r, n = self.r, streams.size
        steps = np.zeros(n, dtype=np.int64)
        reason = np.zeros(n, dtype=np.int8)
        progeny = np.zeros(n, dtype=np.int64)
        x = np.zeros(n, dtype=np.int64)
        live = np.arange(n)
        t = r - 1
        # the step that reaches hard_cap is left to the scalar walk
        while live.size >= _SPARSE and t - r + 2 < self.hard_cap:
            step = self._mean(t)
            if step is None:
                break
            mean, enlam = step
            if mean > 0:
                z = streams.poisson(live, mean, np.full(live.size, enlam))
                progeny[live] += z
                x[live] += z - 1
            else:
                x[live] -= 1
            xl = x[live]
            done = xl < 0
            if t >= self.t_cut:
                won = xl >= self.m  # m >= 1, so no extinct walk is among them
                reason[live[won]] = 1  # policy_survival
                done |= won
            steps[live[done]] = t - r + 2
            live = live[~done]
            t += 1
        # the scalar walk finishes the few trials left, those at hard_cap
        # and those at mean 10 and up, which numpy draws by PTRS
        for row, rng in streams.resumed(live):
            out = _walk_from(
                rng, r, self.eps, self.m, self.t_cut,
                self.hard_cap, t, int(x[row]), int(progeny[row]),
            )
            steps[row] = out.steps
            reason[row] = _REASONS.index(out.truncation_reason)
            progeny[row] = out.total_progeny
        return steps, reason, progeny


def asymptotic_survival(r: int, eps: float) -> float:
    """exp(-((r-1)^2/r) k_r(eps)), the leading-order survival exponent only.

    The paper has log P(survive) = -((r-1)^2/r) k_r(eps) (1 + o(1)) as
    eps -> 0, so this is exact up to a (1 + o(1)) factor in the exponent,
    not in the probability: at r=2, eps=0.1 it is about 16x the true
    survival probability.
    """
    return math.exp(-((r - 1) ** 2 / r) * k_r_of_eps(r, eps))


def survival_probability_mc(
    r: int,
    eps: float,
    trials: int,
    rng_seed: int,
    policy: WalkPolicy | None = None,
) -> SurvivalEstimate:
    """Share of trials 0..trials-1 whose simulate_walk survives, from the
    same streams, run in lockstep."""
    _validate_r_eps(r, eps)
    plan = _WalkPlan(r, eps, policy or WalkPolicy())
    p_hat, stderr = _bernoulli_mc(
        trials,
        rng_seed,
        lambda streams: int(np.count_nonzero(plan.run(streams)[1])),
    )
    return SurvivalEstimate(
        r=r,
        eps=eps,
        trials=trials,
        p_hat=p_hat,
        stderr=stderr,
        asymptotic=asymptotic_survival(r, eps) if eps > 0 else 0.0,
    )


def hitting_probability_exact(
    r: int, eps: float, k: int, i: int, table: CountTable | None = None
) -> float:
    """P(for some t, S_t = k and Y_t = i), exactly."""
    _validate_r_eps(r, eps)
    _validate_k_i(r, k, i)
    if table is None:
        table = build_count_table(r, k)
    if table.r != r or table.variant != "exact" or table.k_max < k:
        raise ValueError(
            "count table must be an exact table for this r covering k"
        )
    m = table.entry(k, i)
    if m == 0 or eps == 0:
        return 0.0
    log_val = (
        -eps * math.comb(k - i, r)
        + (k - r) * math.log(eps)
        - math.lgamma(k - r + 1)
        + math.log(m)
    )
    return math.exp(log_val)


def simulate_generations(
    r: int,
    eps: float,
    rng_seed: int,
    k_cap: int = DEFAULT_K_CAP,
    trial_index: int = 0,
) -> list[tuple[int, int]]:
    """Set-based process from (S_0, Y_0) = (r, r); returns the (S_t, Y_t) path.

    Each step exposes the a_r(S_t, Y_t) r-subsets meeting the newest
    generation; their independent Poisson(eps) child counts aggregate into
    Y_{t+1} ~ Poisson(eps * a_r(S_t, Y_t)).  Stops at extinction (Y = 0) or
    population >= k_cap; hitting events for k <= k_cap are unaffected.
    """
    _validate_r_eps(r, eps)
    if k_cap < r:
        raise ValueError("k_cap must be >= r")
    return _generations_from(trial_rng(rng_seed, trial_index), r, eps, k_cap, r, r)


def _generations_from(
    rng: np.random.Generator, r: int, eps: float, k_cap: int, s: int, y: int
) -> list[tuple[int, int]]:
    """The path on from (S, Y) = (s, y), drawing from rng."""
    path = [(s, y)]
    while y > 0 and s < k_cap:
        mean = eps * a_count(r, s, y)
        y = int(rng.poisson(mean)) if mean > 0 else 0
        if y == 0:
            break
        s += y
        path.append((s, y))
    return path


class _GenerationsPlan:
    """The set processes of one (r, eps) in lockstep, each until extinction
    or S >= k_stop, the first (S, Y) of its path with S >= k_stop."""

    def __init__(self, r: int, eps: float, k_stop: int):
        self.r, self.eps, self.k_stop = r, eps, k_stop
        # (mean, exp(-mean)) by s * k_stop + y, for the (s, y) met so far
        self.means: dict[int, tuple[float, float]] = {}

    def _mean(self, code: int) -> tuple[float, float]:
        step = self.means.get(code)
        if step is None:
            s, y = divmod(code, self.k_stop)
            mean = self.eps * a_count(self.r, s, y)
            step = self.means[code] = (mean, math.exp(-mean))
        return step

    def run(self, streams: _Streams) -> tuple[np.ndarray, np.ndarray]:
        """(S, Y) where each trial's process stopped: its last generation
        if extinct below k_stop."""
        n = streams.size
        s = np.full(n, self.r, dtype=np.int64)
        y = np.full(n, self.r, dtype=np.int64)
        live = np.arange(n)
        scalar = []
        while live.size >= _SPARSE:
            codes, inverse = np.unique(s[live] * self.k_stop + y[live], return_inverse=True)
            mean, enlam = np.array([self._mean(c) for c in codes.tolist()]).T[:, inverse]
            ptrs = mean >= _PTRS_MEAN
            scalar.append(live[ptrs])
            keep = ~ptrs & (mean > 0)
            live, mean, enlam = live[keep], mean[keep], enlam[keep]
            if not live.size:
                break
            z = streams.poisson(live, float(mean.max()), enlam)
            born = z > 0
            live, z = live[born], z[born]
            s[live] += z
            y[live] = z
            live = live[s[live] < self.k_stop]
        # the scalar process finishes the few trials left and those at mean
        # 10 and up, which numpy draws by PTRS
        for row, rng in streams.resumed(np.concatenate([live, *scalar])):
            path = _generations_from(
                rng, self.r, self.eps, self.k_stop,
                int(s[row]), int(y[row]),
            )
            s[row], y[row] = path[-1]
        return s, y


def hitting_frequency_mc(
    r: int,
    eps: float,
    k: int,
    i: int,
    trials: int,
    rng_seed: int,
) -> HitEstimate:
    """MC frequency of {exists t: S_t = k, Y_t = i}, over the paths of
    simulate_generations (with k_cap >= k) for trials 0..trials-1, run in
    lockstep.

    S_t only grows, so a path holds (k, i) exactly when its first (S, Y)
    with S >= k is (k, i): each trial stops there.
    """
    _validate_k_i(r, k, i)
    _validate_r_eps(r, eps)
    plan = _GenerationsPlan(r, eps, k)

    def hits(streams: _Streams) -> int:
        s, y = plan.run(streams)
        return int(np.count_nonzero((s == k) & (y == i)))

    return HitEstimate(trials, *_bernoulli_mc(trials, rng_seed, hits))
