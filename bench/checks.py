"""Output checks, run after the timed rounds, from the output files.

Each check compares an output with a value computed here, apart from
bootperc, or with a property the method must have; none compares with a
stored copy of an earlier output.  The oracles:

- walk survival: a Poisson-convolution DP over the walk's height;
- minimally susceptible counts: the level recurrence, written afresh, for
  k <= 40, and every graph with r(k-r) edges on k <= 7 vertices;
- G(n,p) at n = 6: every one of the 2^15 graphs, with its probability.

A check returns {operation name: [problem, ...]}; an operation with a
problem counts as failed.  Binomial tests reject below PVALUE_FLOOR, about
6.1 sigma, not at criterion 07's 3 sigma (p = 0.0027): a run makes dozens of
tests and the benchmark is run on many seeds, so at 3 sigma a correct
program would fail now and then.  Trial counts in workloads.py are set so
that the wrong outputs in test_checks.py still fail at this floor.
"""

import csv
import io
import json
import math
from collections import Counter
from functools import cache
from itertools import combinations

import numpy as np

import workloads as W

PVALUE_FLOOR = 1e-9


def theta(r: int, alpha: float, n: int) -> float:
    """p = (alpha / (n log^(r-1) n))^(1/r)."""
    return (alpha / (n * math.log(n) ** (r - 1))) ** (1.0 / r)


def k_r(r: int, eps: float) -> float:
    return (math.factorial(r - 1) / eps) ** (1.0 / (r - 1))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def binomial_problems(label: str, freq: float, trials: int, p: float) -> list:
    """[] when freq * trials hits agree with probability p."""
    from scipy.stats import binomtest

    hits = round(freq * trials)
    if abs(freq * trials - hits) > 1e-6:
        return [f"{label}: frequency {freq!r} is not a count out of {trials}"]
    pvalue = binomtest(hits, trials, p).pvalue
    if pvalue < PVALUE_FLOOR:
        return [f"{label}: {hits}/{trials} against exact {p:.6g}, "
                f"binomial p-value {pvalue:.2e}"]
    return []


# ---------------------------------------------------------------------------
# exhaustive small graphs, as bit masks, vectorised over all graphs


def _adjacency(k: int, codes: np.ndarray) -> np.ndarray:
    """adj[v][g]: neighbour mask of vertex v in graph g, whose edge set is
    the bits of codes[g] over the pairs of range(k) in lexicographic order."""
    adj = np.zeros((k, codes.shape[0]), dtype=np.int64)
    for e, (u, v) in enumerate(combinations(range(k), 2)):
        bit = (codes >> e) & 1
        adj[u] |= bit << v
        adj[v] |= bit << u
    return adj


def _spread(adj: np.ndarray, seed_mask: int, r: int):
    """Synchronous r-neighbour bootstrap from seed_mask in every graph:
    the final infected masks and the size of each graph's last level."""
    k, g = adj.shape
    infected = np.full(g, seed_mask, dtype=np.int64)
    last = np.zeros(g, dtype=np.int64)
    while True:
        new = np.zeros(g, dtype=np.int64)
        for v in range(k):
            joins = ((np.bitwise_count(adj[v] & infected) >= r)
                     & (((infected >> v) & 1) == 0))
            new |= joins.astype(np.int64) << v
        grew = new != 0
        if not grew.any():
            return infected, last
        last[grew] = np.bitwise_count(new[grew])
        infected |= new


@cache
def brute_force_counts(r: int, k: int) -> dict:
    """m_r(k, i) by i: graphs on k vertices with r(k-r) edges that seed
    {0..r-1} infects, by the size of their last level."""
    pairs = k * (k - 1) // 2
    codes = np.arange(1 << pairs, dtype=np.int64)
    codes = codes[np.bitwise_count(codes) == r * (k - r)]
    infected, last = _spread(_adjacency(k, codes), (1 << r) - 1, r)
    full = infected == (1 << k) - 1
    return {int(i): c for i, c in Counter(last[full].tolist()).items()}


@cache
def small_gnp_edge_counts(n: int) -> dict:
    """Per property, the number of graphs on n vertices with m edges that
    have it, by m: "seed_edge" (some edge infects every vertex under
    2-bootstrap) and "susceptible" (some pair does)."""
    pairs = n * (n - 1) // 2
    codes = np.arange(1 << pairs, dtype=np.int64)
    adj = _adjacency(n, codes)
    full = (1 << n) - 1
    seed_edge = np.zeros(codes.shape[0], dtype=bool)
    susceptible = np.zeros(codes.shape[0], dtype=bool)
    for u, v in combinations(range(n), 2):
        infected, _ = _spread(adj, (1 << u) | (1 << v), 2)
        spans = infected == full
        susceptible |= spans
        seed_edge |= spans & (((adj[u] >> v) & 1) == 1)
    m = np.bitwise_count(codes).astype(np.int64)
    return {
        name: np.bincount(m[mask], minlength=pairs + 1).tolist()
        for name, mask in (("seed_edge", seed_edge), ("susceptible", susceptible))
    }


def small_gnp_probability(n: int, p: float, prop: str) -> float:
    counts = small_gnp_edge_counts(n)[prop]
    pairs = len(counts) - 1
    return math.fsum(c * p**m * (1 - p) ** (pairs - m) for m, c in enumerate(counts))


# ---------------------------------------------------------------------------
# counting oracles


@cache
def recurrence_counts(r: int, k_max: int) -> dict:
    """m_r(k, i) for r < k <= k_max from the level recurrence

        m(k, k-r) = 1,  m(k, i) = C(k-r, i) sum_j a(k-i, j)^i m(k-i, j),

    with a(x, y), the r-subsets of an x-set meeting a given y-subset,
    counted by how many of their elements lie in it."""

    def a(x: int, y: int) -> int:
        return sum(math.comb(y, t) * math.comb(x - y, r - t) for t in range(1, r + 1))

    m = {}
    for k in range(r + 1, k_max + 1):
        m[(k, k - r)] = 1
        for i in range(1, k - r):
            x = k - i
            m[(k, i)] = math.comb(k - r, i) * sum(
                a(x, j) ** i * m[(x, j)] for j in range(1, x - r + 1))
    return m


def walk_survival(r: int, eps: float, t_stop_mean: float = 10.0,
                  xmax: int = 3000) -> float:
    """P(X_t >= 0 for all t) for X_t = sum_{s=r-1..t} (Z_s - 1), Z_s ~
    Poisson(C(s, r-1) eps).  Height distribution by convolution; mass at
    xmax or above counts as surviving, and the DP stops once the step mean
    reaches t_stop_mean, past which a live walk dies with probability below
    e^-t_stop_mean."""
    from scipy.stats import poisson

    alive = np.zeros(xmax)
    alive[0] = 1.0
    escaped = 0.0
    t = r - 1
    while True:
        mean = eps * math.comb(t, r - 1)
        zmax = int(poisson.isf(1e-15, mean)) + 1 if mean > 0 else 1
        step = poisson.pmf(np.arange(zmax + 1), mean)
        after = np.convolve(alive, step)[1:]  # height moves by Z - 1
        escaped += float(after[xmax:].sum())
        alive = after[:xmax]
        if mean >= t_stop_mean:
            return float(alive.sum()) + escaped
        t += 1


# ---------------------------------------------------------------------------
# gnp-threshold


def check_gnp_threshold(outputs: dict) -> dict:
    problems = {}
    if "seed-edge-sweep" in outputs:
        rows = _csv(outputs["seed-edge-sweep"])
        out = []
        trials = W.SEED_EDGE_TRIALS
        alphas = [float(row["alpha"]) for row in rows]
        freqs = [float(row["frequency"]) for row in rows]
        if alphas != sorted(float(a) for a in W.SEED_EDGE_ALPHAS):
            out.append(f"alphas {alphas}")
        if freqs != sorted(freqs):
            out.append(f"frequencies {freqs} not monotone in alpha")
        for row, a in zip(rows, alphas):
            if int(row["trials"]) != trials:
                out.append(f"alpha {a}: trials {row['trials']}")
            if not _close(float(row["p"]), theta(2, a, W.SEED_EDGE_N)):
                out.append(f"alpha {a}: p {row['p']}")

        def margin(f):  # criterion 10: 3 sigma, sigma at least that of f = 1/2
            return 3 * max(math.sqrt(f * (1 - f) / trials), math.sqrt(0.25 / trials))

        if freqs and not (freqs[0] + margin(freqs[0]) < 0.5
                          < freqs[-1] - margin(freqs[-1])):
            out.append(f"no 3-sigma separation: frequencies {freqs}")
        problems["seed-edge-sweep"] = out
    if "susceptibility-sweep" in outputs:
        rows = {float(row["alpha"]): row for row in _csv(outputs["susceptibility-sweep"])}
        lo, hi = (float(a) for a in W.SUSCEPTIBILITY_ALPHAS)
        out = []
        if set(rows) != {lo, hi}:
            out.append(f"alphas {sorted(rows)}")
        elif not (float(rows[lo]["susceptible_freq"]) < 0.1
                  and float(rows[hi]["susceptible_freq"]) > 0.9):
            out.append(f"susceptible {rows[lo]['susceptible_freq']} at {lo}, "
                       f"{rows[hi]['susceptible_freq']} at {hi}")
        problems["susceptibility-sweep"] = out
    return problems


def check_gnp_threshold_side(outputs: dict) -> dict:
    problems = {}
    for op, column, prop in (
        ("small-seed-edge-sweep", "frequency", "seed_edge"),
        ("small-susceptibility-sweep", "susceptible_freq", "susceptible"),
    ):
        if op not in outputs:
            continue
        out = []
        for row in _csv(outputs[op]):
            a = float(row["alpha"])
            exact = small_gnp_probability(W.SMALL_N, theta(2, a, W.SMALL_N), prop)
            out += binomial_problems(f"{prop} at n={W.SMALL_N}, alpha {a}",
                                     float(row[column]), W.SMALL_TRIALS, exact)
        problems[op] = out
    return problems


# ---------------------------------------------------------------------------
# gnp-pki


def check_gnp_pki(outputs: dict) -> dict:
    if "pki" not in outputs:
        return {}
    n, alpha = W.PKI_N, float(W.PKI_ALPHA)
    trials = W.PKI_GRAPHS * W.PKI_SEEDS_PER_GRAPH
    q = theta(2, alpha, n) ** 2
    eps = n * q
    out = []
    rows = {(int(row["k"]), int(row["i"])): row for row in _csv(outputs["pki"])}
    if (3, 1) not in rows:
        return {"pki": ["no (3,1) row"]}
    first = rows[(3, 1)]
    out += binomial_problems("(3,1) frequency", float(first["frequency"]), trials,
                             (n - 2) * q * (1 - q) ** (n - 3))
    if not first["comparator"] or not _close(float(first["comparator"]),
                                             eps * math.exp(-eps), 1e-9):
        out.append(f"(3,1) comparator {first['comparator']!r}, "
                   f"want eps e^-eps = {eps * math.exp(-eps)!r}")
    for (k, i), row in sorted(rows.items()):
        if not (2 < k <= W.PKI_K_MAX and 1 <= i <= k - 2) or not row["comparator"]:
            out.append(f"cell ({k},{i}): comparator {row['comparator']!r}")
            continue
        f, c = float(row["frequency"]), float(row["comparator"])
        bound = 1.1 * c + 3 * math.sqrt(f * (1 - f) / trials)
        if f > bound:  # criterion 11's domination bound
            out.append(f"cell ({k},{i}): frequency {f} above 1.1 l + 3 sigma = {bound}")
    return {"pki": out}


# ---------------------------------------------------------------------------
# bp-mc


def _survival_problems(label: str, r: int, eps: float, p_hat: float,
                       asymptotic: float) -> list:
    out = binomial_problems(f"{label} p_hat", p_hat, W.BP_TRIALS, walk_survival(r, eps))
    want = math.exp(-((r - 1) ** 2 / r) * k_r(r, eps))
    if not _close(asymptotic, want):
        out.append(f"{label} asymptotic {asymptotic!r}, want {want!r}")
    return out


def check_bp_mc(outputs: dict) -> dict:
    problems = {}
    for r, eps_list in W.BP_SURVIVE:
        op = f"survive-r{r}"
        if op not in outputs:
            continue
        if len(eps_list) == 1:
            rec = json.loads(outputs[op])
            recs = [(float(rec["eps"]), rec["p_hat"], rec["asymptotic"])]
            if rec["r"] != r or rec["trials"] != W.BP_TRIALS:
                problems[op] = [f"r {rec['r']}, trials {rec['trials']}"]
                continue
        else:
            recs = [(float(row["eps"]), float(row["p_hat"]), float(row["asymptotic"]))
                    for row in _csv(outputs[op])]
        out = []
        if [e for e, _, _ in recs] != [float(e) for e in eps_list]:
            out.append(f"eps {[e for e, _, _ in recs]}")
        for eps, p_hat, asym in recs:
            out += _survival_problems(f"r={r} eps={eps}", r, eps, p_hat, asym)
        problems[op] = out
    if "hit" in outputs:
        rec = json.loads(outputs["hit"])
        h = W.BP_HIT
        # Psi_2(4, 1) = e^{-3 eps} eps^2 / 2! * m_2(4, 1), m_2(4, 1) = 4
        want = 0.02 * math.exp(-0.3)
        out = []
        if (rec["r"], rec["eps"], rec["k"], rec["i"]) != (h["r"], float(h["eps"]), h["k"], h["i"]):
            out.append(f"record {rec}")
        if not _close(rec["exact"], want):
            out.append(f"exact {rec['exact']!r}, want 0.02 e^-0.3 = {want!r}")
        out += binomial_problems("(4,1) hit p_hat", rec["p_hat"], W.BP_TRIALS, want)
        problems["hit"] = out
    return problems


# ---------------------------------------------------------------------------
# exact

RECURRENCE_K_MAX = 40
BRUTE_FORCE_K_MAX = 7


def _sigma_bound_violations(r: int, table: dict) -> list:
    """sigma_r(k, i) = m / (k-r)! ((r-1)!/k^(r-1))^k <= i^-1/2 e^(-i-(r-2)k)."""
    bad = []
    for (k, i), m in table.items():
        if m == 0:
            continue
        lhs = (math.log(m) - math.lgamma(k - r + 1)
               + k * (math.lgamma(r) - (r - 1) * math.log(k)))
        rhs = -0.5 * math.log(i) - i - (r - 2) * k
        if lhs > rhs + 1e-12 * abs(rhs):
            bad.append((k, i))
    return bad


def _count_table_problems(r: int, text: str) -> list:
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["r", "k", "i", "variant", "count"]:
        return ["bad header"]
    table = {}
    for row in reader:
        if int(row[0]) != r or row[3] != "exact":
            return [f"row {row[:4]}"]
        table[(int(row[1]), int(row[2]))] = int(row[4])
    want_keys = {(k, i) for k in range(r + 1, W.COUNT_K_MAX + 1)
                 for i in range(1, k - r + 1)}
    if set(table) != want_keys:
        return [f"cells {len(table)}, want {len(want_keys)}"]
    out = []
    for key, m in sorted(recurrence_counts(r, RECURRENCE_K_MAX).items()):
        if table[key] != m:
            out.append(f"(k,i)={key}: {table[key]} != recurrence {m}")
    for k in range(r + 1, BRUTE_FORCE_K_MAX + 1):
        brute = brute_force_counts(r, k)
        for i in range(1, k - r + 1):
            if table[(k, i)] != brute.get(i, 0):
                out.append(f"(k,i)=({k},{i}): {table[(k, i)]} != brute force "
                           f"{brute.get(i, 0)}")
    bad = _sigma_bound_violations(r, table)
    if bad:
        out.append(f"sigma bound fails at {len(bad)} cells, first {bad[:3]}")
    return out


def check_exact(outputs: dict) -> dict:
    problems = {}
    for r in W.COUNT_RS:
        op = f"counts-r{r}"
        if op in outputs:
            problems[op] = _count_table_problems(r, outputs[op])
    lams = {}
    for op, r in [("psi-r2", 2)] + [(f"dlambda-r{r}", r) for r in W.DLAMBDA_RS]:
        if op not in outputs:
            continue
        rec = json.loads(outputs[op])
        lam = rec["lambda"]
        lams[op] = lam
        out = []
        if (rec["r"], rec["ell"]) != (r, W.SPECTRAL_ELL):
            out.append(f"r {rec['r']}, ell {rec['ell']}")
        if not lam <= math.exp(-(r - 2)):
            out.append(f"lambda {lam!r} above e^-(r-2)")
        if r == 2 and not 0.9 <= lam <= 1.0:
            out.append(f"lambda(2,{W.SPECTRAL_ELL}) = {lam!r} outside [0.9, 1]")
        problems[op] = out
    if "psi-r2" in lams and "dlambda-r2" in lams:
        gap = abs(lams["psi-r2"] - lams["dlambda-r2"])
        if not gap <= 1e-8:
            for op in ("psi-r2", "dlambda-r2"):
                problems[op].append(f"psi and dlambda differ by {gap:.3e}")
    for op, claims in (
        ("verify-default-grid", set(W.VERIFY_DEFAULT_GRID_CLAIMS)),
        ("verify-fast-grid", None),
    ):
        if op not in outputs:
            continue
        report = json.loads(outputs[op])
        ids = {c["claim_id"] for c in report["claims"]}
        out = [f"{c['claim_id']}: {len(c['violations'])} violations, "
               f"grid size {c['grid_size']}"
               for c in report["claims"] if c["violations"] or c["grid_size"] < 1]
        if claims is not None and ids != claims:
            out.append(f"claims {sorted(ids)}")
        problems[op] = out
    return problems


CHECKS = {
    "gnp-threshold": check_gnp_threshold,
    "gnp-pki": check_gnp_pki,
    "bp-mc": check_bp_mc,
    "exact": check_exact,
}

SIDE_CHECKS = {"gnp-threshold": check_gnp_threshold_side}
