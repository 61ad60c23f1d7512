"""Acceptance gate: one test per criterion, run with -v for per-criterion
pass/fail lines.

Statistical criteria use fixed seeds, so reruns are deterministic.  MC
agreement at "3 sigma" is tested with the exact two-sided binomial test at
the matching significance level (2 Phi(-3) ~ 0.0027), which coincides with
the z-test in the well-populated regime and stays valid for cells whose
expected hit count is below 1.
"""

import math
import os
import sys
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from bootperc import branching, counting, spectral, thresholds
from bootperc import experiments as X
from walk_oracle import DEFAULT_XMAX, walk_survival_dp

THREE_SIGMA_PVALUE = 0.0026997960632601866  # 2*Phi(-3)
WORKERS = min(4, os.cpu_count() or 1)


def _report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {detail}", file=sys.stderr, flush=True)


@pytest.fixture(scope="module")
def exact_table_2_7():
    return counting.build_count_table(2, 7)


def test_criterion_01_counting_oracle_equivalence(exact_table_2_7):
    """Exact table entries equal brute-force enumeration, r=2, k <= 7."""
    t0 = time.perf_counter()
    mismatches = []
    for k in range(3, 8):
        brute = counting.brute_force_count(2, k)
        for i in range(1, k - 1):
            if exact_table_2_7.entry(k, i) != brute.get(i, 0):
                mismatches.append((k, i))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 300
    _report(1, ok, f"counting oracle equivalence ({elapsed:.1f}s)")
    assert mismatches == []
    assert elapsed < 300


def test_criterion_02_triangle_free_sandwich(exact_table_2_7):
    """Lower-bound table <= brute triangle-free count <= exact table."""
    t0 = time.perf_counter()
    lower = counting.build_count_table(2, 7, variant="triangle_free_lower")
    bad = []
    for k in range(3, 8):
        brute = counting.brute_force_count(2, k, triangle_free=True)
        for i in range(1, k - 1):
            lo = lower.entry(k, i)
            mid = brute.get(i, 0)
            hi = exact_table_2_7.entry(k, i)
            if not lo <= mid <= hi:
                bad.append((k, i, lo, mid, hi))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 600
    _report(2, ok, f"triangle-free sandwich ({elapsed:.1f}s)")
    assert bad == []
    assert elapsed < 600


def test_criterion_03_sigma_upper_bound():
    """sigma_r(k,i) <= i^(-1/2) e^(-i-(r-2)k), r in {2,3,4}, k <= 200."""
    t0 = time.perf_counter()
    violations = []
    for r in (2, 3, 4):
        table = counting.build_count_table(r, 200)
        for k in range(r + 1, 201):
            for i in range(1, k - r + 1):
                if table.entry(k, i) == 0:
                    continue
                lhs = counting.normalized(r, k, i, kind="sigma", table=table).log_value
                rhs = -0.5 * math.log(i) - i - (r - 2) * k
                if lhs > rhs + 1e-12 * abs(rhs):
                    violations.append((r, k, i))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60
    _report(3, ok, f"sigma upper bound, zero violations ({elapsed:.1f}s)")
    assert violations == []
    assert elapsed < 60


def test_criterion_04_induction_and_lambda_suites():
    """Both series-backed inequality suites hold for 1 <= i <= 500.

    The weight-sum series stops at a relative tail below 1e-16, and the
    reported relative tails stay below 1e-15.  One sweep sums the series
    for every i and feeds both suites.
    """
    t0 = time.perf_counter()
    bad = []
    for lam in thresholds.lambda_vs_gamma_sweep(500):
        i = lam["i"]
        if not counting.induction_step_report(lam)["holds"]:
            bad.append(("induct", i))
        if not lam["relative_tail_bound"] < 1e-16:
            bad.append(("stop", i))
        if not lam["holds"] or not lam["relative_tail_bound"] < 1e-15:
            bad.append(("lambda_vs_gamma", i))
    elapsed = time.perf_counter() - t0
    ok = not bad
    _report(4, ok, f"induction and weight-sum suites i<=500 ({elapsed:.1f}s)")
    assert bad == []


def test_criterion_05_threshold_identities():
    """mu* vanishes at (alpha_r, beta_r) and beta_star hits (r/(r-1))^2."""
    t0 = time.perf_counter()
    worst_root = 0.0
    worst_beta = 0.0
    for r in range(2, 7):
        a = thresholds.critical_alpha(r)
        root = abs(thresholds.mu_star(r, a, thresholds.beta_r(r, a)))
        worst_root = max(worst_root, root)
        b = thresholds.beta_star(r, thresholds.critical_alpha_exact(r))
        worst_beta = max(worst_beta, abs(b - (r / (r - 1)) ** 2))
    elapsed = time.perf_counter() - t0
    ok = worst_root < 1e-10 and worst_beta < 1e-8
    _report(
        5, ok,
        f"threshold identities (|mu*|<={worst_root:.1e}, "
        f"|beta_star-(r/(r-1))^2|<={worst_beta:.1e}, {elapsed:.1f}s)",
    )
    assert worst_root < 1e-10
    assert worst_beta < 1e-8


def test_criterion_06_inequality_grid_verifier():
    """Zero violations for every claim on the default grids."""
    t0 = time.perf_counter()
    report = thresholds.verify_inequalities()
    elapsed = time.perf_counter() - t0
    dirty = [c["claim_id"] for c in report["claims"] if c["violations"]]
    needed = {
        "small_beta_domination",
        "penalized_min",
        "mu_eps_gamma_concavity",
        "beta_eps_below_root",
    }
    covered = {c["claim_id"] for c in report["claims"]}
    ok = not dirty and needed <= covered and elapsed < 120
    _report(6, ok, f"inequality grid verifier, default grids ({elapsed:.1f}s)")
    assert dirty == []
    assert needed <= covered
    assert elapsed < 120


def test_criterion_07_hitting_exact_vs_mc(exact_table_2_7):
    """Exact visit probabilities match 1e6-trial MC at (r,eps)=(2,0.1)."""
    t0 = time.perf_counter()
    assert branching.hitting_probability_exact(2, 0.1, 3, 1) == pytest.approx(
        0.1 * math.exp(-0.1), rel=1e-12
    )
    assert branching.hitting_probability_exact(2, 0.1, 4, 1) == pytest.approx(
        0.02 * math.exp(-0.3), rel=1e-12
    )
    trials = 10**6
    tally: dict = {}
    for t in range(trials):
        path = branching.simulate_generations(2, 0.1, 2024, k_cap=8, trial_index=t)
        for k, i in path:
            if 2 < k <= 7:
                tally[(k, i)] = tally.get((k, i), 0) + 1
    disagreements = []
    for k in range(3, 8):
        for i in range(1, k - 1):
            exact = branching.hitting_probability_exact(
                2, 0.1, k, i, table=exact_table_2_7
            )
            hits = tally.get((k, i), 0)
            pval = binomtest(hits, trials, exact).pvalue if exact > 0 else 1.0
            if pval < THREE_SIGMA_PVALUE:
                disagreements.append((k, i, exact, hits / trials, pval))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 600
    _report(7, ok, f"hitting exact vs MC at 1e6 trials ({elapsed:.1f}s)")
    assert disagreements == []
    assert elapsed < 600


def _exponent_ratio(r: int, eps: float, p: float) -> float:
    """log p / (-((r-1)^2/r) k_r), the paper's survival exponent ratio."""
    asymptotic = branching.asymptotic_survival(r, eps)
    return math.log(p) / math.log(asymptotic) if p > 0 else math.inf


# eps ladders toward 0 on which the exact ratio must approach the band.
SURVIVAL_LADDERS = {
    2: (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625),
    3: (0.2, 0.1, 0.05, 0.02, 0.01, 0.005),
}


def test_criterion_08_survival_exponent_band():
    """log P(survive) / (-((r-1)^2/r) k_r) -> 1 as eps -> 0, band 1 +- 0.5.

    The paper states the exponent up to a (1+o(1)) factor as eps -> 0 and
    bounds the o(1) term at no fixed eps, so the band is checked as a
    limit, on exact survival probabilities from the walk DP oracle:

    (a) at each stated (r, eps) point the 1e6-trial MC survival frequency
        agrees with the exact probability (binomial test at 3 sigma), and
        the MC ratio is reported;
    (b) along each eps ladder the exact |ratio - 1| strictly decreases for
        r=2 and lies within the band at every rung for r=3, and on both
        ladders the smallest eps lies within the band.  Every exact value
        is unchanged when the DP's height cap is doubled.
    """
    t0 = time.perf_counter()
    exact = {}
    unconverged = []
    for r, ladder in SURVIVAL_LADDERS.items():
        for eps in ladder:
            exact[(r, eps)] = walk_survival_dp(r, eps)
            wider = walk_survival_dp(r, eps, xmax=2 * DEFAULT_XMAX)
            if not math.isclose(exact[(r, eps)], wider, rel_tol=1e-9):
                unconverged.append((r, eps, exact[(r, eps)], wider))

    trials = 10**6
    rows = []
    disagreements = []
    for r, eps in ((2, 0.1), (2, 0.2), (3, 0.2)):
        est = branching.survival_probability_mc(r, eps, trials, 4096)
        p = exact[(r, eps)]
        pval = binomtest(round(est.p_hat * trials), trials, p).pvalue
        rows.append((r, eps, est.p_hat, p, _exponent_ratio(r, eps, est.p_hat)))
        if pval < THREE_SIGMA_PVALUE:
            disagreements.append((r, eps, est.p_hat, p, pval))

    ratio = {key: _exponent_ratio(*key, p) for key, p in exact.items()}
    off_limit = []
    for r, ladder in SURVIVAL_LADDERS.items():
        dev = [abs(ratio[(r, e)] - 1) for e in ladder]
        if r == 2 and not all(a > b for a, b in zip(dev, dev[1:])):
            off_limit.append((r, "|ratio-1| not strictly decreasing", dev))
        if r == 3 and not all(d < 0.5 for d in dev):
            off_limit.append((r, "|ratio-1| outside the band", dev))
        if not dev[-1] < 0.5:
            off_limit.append((r, f"smallest eps={ladder[-1]} outside the band", dev))
    elapsed = time.perf_counter() - t0

    ok = not (unconverged or disagreements or off_limit) and elapsed < 1200
    detail = "; ".join(
        f"(r={r},eps={e}): p_hat={p:.3e}, exact={x:.4e}, ratio={q:.3f}"
        for r, e, p, x, q in rows
    )
    limits = "; ".join(
        f"r={r} exact ratios " + " ".join(f"{ratio[(r, e)]:.3f}" for e in ladder)
        for r, ladder in SURVIVAL_LADDERS.items()
    )
    _report(8, ok, f"survival exponent ({detail}; {limits}; {elapsed:.1f}s)")
    assert unconverged == []
    assert disagreements == []
    assert off_limit == []
    assert elapsed < 1200


def test_criterion_09_spectral_agreement():
    """psi power iteration vs D_lambda bisection, bound, lift residual."""
    t0 = time.perf_counter()
    bad = []
    for r in (2, 3):
        for ell in (5, 10, 20, 40):
            lam_psi = spectral.perron(
                spectral.companion_psi(spectral.build_A(r, ell))
            ).value
            lam_d = spectral.lambda_via_dlambda(r, ell)
            if abs(lam_psi - lam_d) > 1e-8:
                bad.append(("agree", r, ell, lam_psi, lam_d))
            if lam_psi > math.exp(-(r - 2)) + 1e-9:
                bad.append(("bound", r, ell, lam_psi))
            v = spectral.dlambda_eigenvector(r, ell, lam_d)
            lifted = spectral.lift_vector(v, lam_d)
            M = spectral.companion_psi(spectral.build_A(r, ell))
            resid = np.max(np.abs(M @ lifted - lam_d * lifted)) / np.max(lifted)
            if resid > 1e-8:
                bad.append(("lift", r, ell, resid))
    lam_240 = spectral.lambda_via_dlambda(2, 40)
    if not 0.9 <= lam_240 <= 1.0:
        bad.append(("band", 2, 40, lam_240))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300
    _report(9, ok, f"spectral psi vs D_lambda, lambda(2,40)={lam_240:.6f} ({elapsed:.1f}s)")
    assert bad == []
    assert elapsed < 300


def test_criterion_10_gnp_qualitative_thresholds():
    """Seed-edge frequencies separate across alpha; susceptibility separates."""
    t0 = time.perf_counter()
    points = X.seed_edge_sweep(
        30000, (0.02, 0.75, 3.0), trials=200, rng_seed=11, workers=WORKERS
    )
    lo, mid, hi = points
    freqs = [pt.frequency for pt in points]
    sus = X.susceptibility_sweep(
        2000, (0.0125, 5.0), trials=200, rng_seed=12, workers=WORKERS
    )
    sub, sup = sus
    elapsed = time.perf_counter() - t0
    ok = (
        lo.frequency + 3 * max(lo.stderr, math.sqrt(0.25 / lo.trials)) < 0.5
        and hi.frequency - 3 * max(hi.stderr, math.sqrt(0.25 / hi.trials)) > 0.5
        and freqs == sorted(freqs)
        and sub.susceptible_freq < 0.1
        and sup.susceptible_freq > 0.9
        and elapsed < 1800
    )
    _report(
        10, ok,
        f"seed-edge freq {freqs} (n=30000); susceptibility "
        f"{sub.susceptible_freq:.2f}/{sup.susceptible_freq:.2f} (n=2000) "
        f"({elapsed:.0f}s)",
    )
    assert lo.frequency + 3 * max(lo.stderr, math.sqrt(0.25 / lo.trials)) < 0.5
    assert hi.frequency - 3 * max(hi.stderr, math.sqrt(0.25 / hi.trials)) > 0.5
    assert freqs == sorted(freqs)
    assert sub.susceptible_freq < 0.1 < 0.9 < sup.susceptible_freq
    assert sub.frac_within_beta == 1.0
    assert sup.spread_norm_mean > sub.spread_norm_mean
    assert elapsed < 1800


def test_criterion_11_pki_comparator_bound():
    """P_hat_2(k,i) <= 1.1 l_2(k,i) + 3 stderr at n=1e5, 1e4 seed trials."""
    t0 = time.perf_counter()
    cfg = X.ExperimentConfig(
        n=10**5,
        r=2,
        alpha=0.5 * thresholds.critical_alpha(2),
        trials=100,
        rng_seed=13,
        seeds_per_graph=100,
        k_max=12,
    )
    est = X.estimate_Pki(cfg, workers=WORKERS)
    assert est.seed_trials == 10**4
    assert est.comparator is not None
    violations = []
    for (k, i), f in est.freq.items():
        bound = 1.1 * est.comparator[(k, i)] + 3 * est.stderr[(k, i)]
        if f > bound:
            violations.append((k, i, f, bound))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 900
    _report(
        11, ok,
        f"comparator bound, {len(est.freq)} observed cells ({elapsed:.0f}s)",
    )
    assert violations == []
    assert elapsed < 900


def test_criterion_12_byte_identical_reruns(tmp_path):
    """Identical configs yield byte-identical CSV and JSON outputs."""
    t0 = time.perf_counter()
    pki_argv = [
        "gnp", "pki", "--n", "2000", "--r", "2", "--alpha", "0.125",
        "--trials", "20", "--seeds-per-graph", "50", "--k-max", "8",
        "--seed", "21",
    ]
    sweep_argv = [
        "gnp", "seed-edge-sweep", "--n", "1000", "--alphas", "0.02", "3.0",
        "--trials", "20", "--seed", "22",
    ]
    term_argv = [
        "gnp", "terminal", "--n", "300", "--r", "2", "--alpha", "1.0",
        "--trials", "20", "--seeds-per-graph", "5", "--seed", "23",
        "--format", "json",
    ]
    from bootperc.cli import main

    identical = True
    for name, argv in (("pki", pki_argv), ("sweep", sweep_argv), ("term", term_argv)):
        f1 = str(tmp_path / f"{name}1.out")
        f2 = str(tmp_path / f"{name}2.out")
        assert main(argv + ["--out", f1]) == 0
        assert main(argv + ["--out", f2]) == 0
        with open(f1, "rb") as fa, open(f2, "rb") as fb:
            b1, b2 = fa.read(), fb.read()
        if b1 != b2 or not b1:
            identical = False
    elapsed = time.perf_counter() - t0
    _report(12, identical, f"byte-identical experiment reruns ({elapsed:.1f}s)")
    assert identical
