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

Trials derive their RNG stream from (rng_seed, trial_index) through a
counter-based Philox generator, so outcomes are reproducible and
parallelizable regardless of scheduling.  Each process holds one Philox
bit generator and re-keys it to [rng_seed, trial_index] with a zero
counter at the start of every trial: the stream is the one a new
Philox(key=[rng_seed, trial_index]) gives, without building one per
trial.  Poisson variates come from numpy's Generator.poisson, which uses
the multiplication method below mean 10 and transformed rejection (PTRS)
from 10 up.
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


def trial_rng(rng_seed: int, trial_index: int) -> np.random.Generator:
    """Independent reproducible stream for one trial.

    The stream equals that of Generator(Philox(key=[rng_seed, trial_index])),
    draw for draw.  The returned generator is the process's only one: the
    next trial_rng call re-keys it, so a trial reads its stream to the end
    before the next trial starts, and threads must not share it.  Worker
    processes each hold their own.
    """
    if not 0 <= rng_seed < _KEY_LIMIT:
        raise ValueError(f"rng_seed must lie in [0, 2**64), got {rng_seed}")
    if not 0 <= trial_index < _KEY_LIMIT:
        raise ValueError(f"trial_index must lie in [0, 2**64), got {trial_index}")
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

    def t_cut(self, r: int, eps: float) -> int:
        if eps <= 0:
            return 0
        return max(r, math.ceil(self.c1 * k_r_of_eps(r, eps)))

    def hard_cap(self, r: int, eps: float) -> int:
        return max(1000, math.ceil(self.hard_cap_factor * self.t_cut(r, eps)))


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
    t_cut = policy.t_cut(r, eps)
    hard_cap = policy.hard_cap(r, eps)
    x = 0
    progeny = 0
    steps = 0
    t = r - 1
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
        if t >= t_cut and x >= policy.m:
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


def asymptotic_survival(r: int, eps: float) -> float:
    """exp(-((r-1)^2/r) k_r(eps)), the leading-order survival exponent only.

    The paper has log P(survive) = -((r-1)^2/r) k_r(eps) (1 + o(1)) as
    eps -> 0, so this is exact up to a (1 + o(1)) factor in the exponent,
    not in the probability: at r=2, eps=0.1 it is about 16x the true
    survival probability.
    """
    return math.exp(-((r - 1) ** 2 / r) * k_r_of_eps(r, eps))


def _bernoulli_mc(trials: int, hit) -> tuple[float, float]:
    """Share p_hat of trial indices t in range(trials) with hit(t), and its
    binomial standard error."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_hat = sum(1 for t in range(trials) if hit(t)) / trials
    return p_hat, math.sqrt(p_hat * (1 - p_hat) / trials)


def survival_probability_mc(
    r: int,
    eps: float,
    trials: int,
    rng_seed: int,
    policy: WalkPolicy | None = None,
) -> SurvivalEstimate:
    _validate_r_eps(r, eps)
    policy = policy or WalkPolicy()
    p_hat, stderr = _bernoulli_mc(
        trials,
        lambda t: simulate_walk(
            r, eps, rng_seed, policy=policy, trial_index=t
        ).survived,
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
    rng = trial_rng(rng_seed, trial_index)
    s, y = r, r
    path = [(s, y)]
    while y > 0 and s < k_cap:
        mean = eps * a_count(r, s, y)
        y = int(rng.poisson(mean)) if mean > 0 else 0
        if y == 0:
            break
        s += y
        path.append((s, y))
    return path


def hitting_frequency_mc(
    r: int,
    eps: float,
    k: int,
    i: int,
    trials: int,
    rng_seed: int,
    k_cap: int = DEFAULT_K_CAP,
) -> HitEstimate:
    """MC frequency of {exists t: S_t = k, Y_t = i}."""
    _validate_k_i(r, k, i)
    if k > k_cap:
        raise ValueError("k beyond the population cap is unobservable")
    return HitEstimate(trials, *_bernoulli_mc(
        trials,
        lambda t: (k, i) in simulate_generations(
            r, eps, rng_seed, k_cap=k_cap, trial_index=t
        ),
    ))

