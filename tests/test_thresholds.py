"""Tests for threshold functions, scaling roots, and inequality verification.

Expected values fall in three groups:
  * closed-form pins checked by hand (critical alphas, k_r, beta_eps),
  * roots re-derived independently (mu_star sign evaluations bracketing
    beta_star, the exact rational alpha_r),
  * frozen outputs of the verified implementation (zeta(3/2) series,
    Lambda(i) margins) cross-checked against independent references
    during development.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grid_oracle
from bootperc import thresholds as th


# ---------------------------------------------------------------------------
# critical densities


def test_critical_alpha_r2_exact():
    # 1! * (1/2)^2
    assert th.critical_alpha(2) == 0.25
    assert th.critical_alpha_exact(2) == Fraction(1, 4)


def test_critical_alpha_r3():
    # 2! * (2/3)^4 = 32/81
    assert th.critical_alpha_exact(3) == Fraction(32, 81)
    assert th.critical_alpha(3) == pytest.approx(32 / 81, rel=1e-15)


def test_critical_alpha_r4_exact_in_binary():
    # 3! * (3/4)^6 = 2187/2048 has a finite binary expansion
    assert th.critical_alpha_exact(4) == Fraction(2187, 2048)
    assert th.critical_alpha(4) == 2187 / 2048


def test_critical_alpha_exact_matches_float():
    for r in range(2, 9):
        assert th.critical_alpha(r) == pytest.approx(
            float(th.critical_alpha_exact(r)), rel=1e-15
        )


def test_critical_alpha_H_pins():
    # (r-1)! * ((r-1)^2 / (r^2 - ell))^(r-1)
    assert th.critical_alpha_H(2, 1) == pytest.approx(1 / 3, rel=1e-15)
    assert th.critical_alpha_H(3, 2) == pytest.approx(2 * (4 / 7) ** 2, rel=1e-15)
    # ell = 0 recovers the r-neighbour constant
    for r in (2, 3, 4, 5):
        assert th.critical_alpha_H(r, 0) == pytest.approx(
            th.critical_alpha(r), rel=1e-15
        )


def test_critical_alpha_H_increases_with_ell():
    for r in (2, 3, 4):
        vals = [th.critical_alpha_H(r, ell) for ell in range(r * (r - 1) // 2 + 1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_critical_alpha_H_ell_range():
    with pytest.raises(ValueError):
        th.critical_alpha_H(2, 2)
    with pytest.raises(ValueError):
        th.critical_alpha_H(3, -1)


def test_r_validation():
    for fn in (th.critical_alpha, th.critical_alpha_exact):
        with pytest.raises(ValueError):
            fn(1)


# ---------------------------------------------------------------------------
# scaling maps


def test_theta_eps_consistency():
    # n * theta^r * log^(r-1) n == alpha by construction
    for r in (2, 3, 5):
        for alpha in (0.1, 0.25, 1.7):
            for n in (10**3, 10**6, 10**9):
                p = th.theta(r, alpha, n)
                assert 0 < p < 1
                back = n * p**r * math.log(n) ** (r - 1)
                assert back == pytest.approx(alpha, rel=1e-12)
                assert th.eps_of(r, alpha, n) == pytest.approx(
                    n * p**r, rel=1e-12
                )


def test_eps_of_example():
    assert th.eps_of(2, 0.25, 1000) == pytest.approx(0.25 / math.log(1000), rel=1e-15)


def test_beta_r_identity():
    # alpha * beta_r^(r-1) / (r-1)! == 1
    for r in (2, 3, 4, 6):
        for alpha in (0.05, 0.25, 2.0):
            b = th.beta_r(r, alpha)
            assert alpha * b ** (r - 1) / math.factorial(r - 1) == pytest.approx(
                1.0, rel=1e-13
            )
    assert th.beta_r(2, 0.25) == pytest.approx(4.0, rel=1e-15)


def test_k_r_pins():
    assert th.k_r_of_eps(2, 0.1) == pytest.approx(10.0, rel=1e-13)
    assert th.k_r_of_eps(3, 0.5) == pytest.approx(2.0, rel=1e-13)
    assert th.k_r_of_eps(2, 1.0) == pytest.approx(1.0, rel=1e-13)


def test_domain_validation():
    with pytest.raises(ValueError):
        th.theta(2, -0.1, 100)
    with pytest.raises(ValueError):
        th.theta(2, 0.25, 2)
    with pytest.raises(ValueError):
        th.k_r_of_eps(2, 0.0)


# ---------------------------------------------------------------------------
# exponent functions


def test_mu_pin():
    # r + beta*log(alpha*beta^(r-1)/(r-1)!) - alpha*beta^r/r! * (1-g)^r
    #   - beta*(r-2+g); at (2, 1/4, 4, 1/2) the log term vanishes
    assert th.mu(2, 0.25, 4.0, 0.5) == pytest.approx(-0.5, abs=1e-14)


def test_mu_star_is_mu_at_gamma_zero():
    for r, alpha, beta in [(2, 0.3, 2.5), (3, 0.4, 1.2), (4, 1.1, 0.7)]:
        assert th.mu_star(r, alpha, beta) == th.mu(r, alpha, beta, 0.0)


def test_mu_star_root_at_criticality():
    # at alpha = alpha_r the root sits exactly at beta_r: the log argument
    # is exactly 1 and the remaining terms cancel in rational arithmetic
    assert th.mu_star(2, 0.25, 4.0) == pytest.approx(0.0, abs=1e-13)
    for r in (2, 3, 4):
        a = th.critical_alpha_exact(r)
        b = Fraction(r, r - 1) ** 2
        assert a * b ** (r - 1) / math.factorial(r - 1) == 1
        assert r - a * b**r / math.factorial(r) - b * (r - 2) == 0
        assert th.mu_star(r, float(a), float(b)) == pytest.approx(0.0, abs=1e-10)


def test_mu_star_sign_brackets():
    # independent sign evaluations used to cross-check beta_star ordering
    assert th.mu_star(2, 0.30, 4.0) == pytest.approx(
        2 + 4 * math.log(1.2) - 2.4, rel=1e-13
    )
    assert th.mu_star(2, 0.30, 4.0) > 0
    assert th.mu_star(2, 0.20, 4.0) < 0


def test_mu_eps_gamma_zero_matches_mu_star():
    for r, alpha, beta in [(2, 0.3, 2.5), (3, 0.5, 1.0)]:
        assert th.mu_eps(r, 0.1, alpha, beta, 0.0) == pytest.approx(
            th.mu_star(r, alpha, beta), rel=1e-14
        )


def test_mu_eps_gamma_concave_slice():
    gammas = [0.1, 0.3, 0.5, 0.7, 0.9]
    vals = [th.mu_eps(2, 0.2, 0.3, 2.0, g) for g in gammas]
    second = [vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, len(vals) - 1)]
    assert all(s < 0 for s in second)


def test_mu_gamma_validation():
    with pytest.raises(ValueError):
        th.mu(2, 0.25, 4.0, 1.0)
    with pytest.raises(ValueError):
        th.mu(2, 0.25, 4.0, -0.1)


def test_mu_bar_matches_direct_formula():
    r, alpha, beta, gamma = 2, 0.25, 3.0, 0.2
    xi = th.beta_r(r, alpha) - beta
    direct = th.mu(r, alpha, beta, gamma) + xi * math.log(
        math.e * alpha * beta**r * gamma / (xi * math.factorial(r - 1))
    )
    assert th.mu_bar(r, alpha, beta, gamma) == pytest.approx(direct, rel=1e-13)


def test_mu_bar_requires_beta_below_beta_r_and_positive_gamma():
    with pytest.raises(ValueError):
        th.mu_bar(2, 0.25, 4.0, 0.2)
    with pytest.raises(ValueError):
        th.mu_bar(2, 0.25, 3.0, 0.0)


# ---------------------------------------------------------------------------
# roots


def test_beta_star_at_exact_criticality():
    # triple root; requires the exact rational alpha (float alpha_r is a
    # 1-ulp perturbation that genuinely moves the root by ~1e-5 for odd r)
    for r in range(2, 7):
        target = (r / (r - 1)) ** 2
        got = th.beta_star(r, th.critical_alpha_exact(r))
        assert abs(got - target) < 1e-9


def test_beta_star_ordering_around_criticality():
    # supercritical alpha pushes the root above beta_r(alpha_2-scale) = 4
    hi = th.beta_star(2, 0.30)
    lo = th.beta_star(2, 0.20)
    assert hi == pytest.approx(6.511980080346523, abs=1e-6)
    assert lo == pytest.approx(1.440254329900911, abs=1e-6)
    assert lo < 4.0 < hi


def test_beta_star_is_a_root():
    for r, alpha in [(2, 0.17), (3, 0.6), (4, 1.3)]:
        b = th.beta_star(r, alpha)
        assert th.mu_star(r, alpha, b) == pytest.approx(0.0, abs=1e-8)


def test_mu_star_nonincreasing_in_beta():
    for r, alpha in [(2, 0.25), (3, 0.5), (4, 0.9)]:
        betas = [0.05 * j for j in range(1, 200)]
        vals = [th.mu_star(r, alpha, b) for b in betas]
        assert all(y <= x + 1e-12 for x, y in zip(vals, vals[1:]))


def test_mu_star_stationary_at_beta_r():
    # d(mu_star)/d(beta) vanishes exactly at beta_r for every alpha
    for r, alpha in [(2, 0.25), (3, 0.4), (4, 1.1)]:
        b = th.beta_r(r, alpha)
        h = 1e-4 * b
        diff = (th.mu_star(r, alpha, b + h) - th.mu_star(r, alpha, b - h)) / (2 * h)
        assert abs(diff) < 1e-6


def test_beta_star_validation():
    with pytest.raises(ValueError):
        th.beta_star(2, -1.0)
    with pytest.raises(ValueError):
        th.beta_star(1, 0.25)


# ---------------------------------------------------------------------------
# perturbed roots


def test_beta_eps_closed_form():
    # (1+eps)^(1/(r-1)) * beta_r((1+eps) alpha_r) collapses to (r/(r-1))^2
    for r in (2, 3, 4, 5):
        for eps in (0.01, 0.1, 0.5):
            assert th.beta_eps(r, eps) == pytest.approx(
                (r / (r - 1)) ** 2, rel=1e-13
            )


def test_mu_star_at_beta_eps_closed_form_matches_direct():
    for r in (2, 3, 4):
        for eps in (0.05, 0.1, 0.3):
            closed = th.mu_star_at_beta_eps(r, eps)
            direct = th.mu_star(
                r, (1 + eps) * th.critical_alpha(r), th.beta_eps(r, eps)
            )
            assert closed == pytest.approx(direct, abs=1e-12)
    assert th.mu_star_at_beta_eps(2, 0.1) == pytest.approx(
        0.18124071921729956, abs=1e-13
    )


def test_mu_star_at_beta_eps_positive_for_small_eps():
    for r in (2, 3, 4):
        for eps in (0.01, 0.1, 0.25):
            assert th.mu_star_at_beta_eps(r, eps) > 0


# ---------------------------------------------------------------------------
# series constants


def test_zeta_three_halves():
    # literature value 2.61237534868548834...
    assert th.zeta_three_halves() == pytest.approx(
        2.612375348685488, abs=1e-15
    )


@pytest.fixture(scope="module")
def lambda_sweep():
    """The Lambda(i) reports for i <= 500, from one sweep."""
    return th.lambda_vs_gamma_sweep(500)


def test_lambda_vs_gamma_report_small_i(lambda_sweep):
    rep = lambda_sweep[0]
    assert rep["i"] == 1
    assert rep["holds"] is True
    # Lambda(1) = sum j^(1/2) e^(-j) ~ 0.7494 vs Gamma(3/2)(1 + a b) ~ 2.0
    assert rep["relative_margin"] == pytest.approx(0.6253681921151134, abs=1e-10)
    assert rep["relative_tail_bound"] < 1e-15


def test_lambda_vs_gamma_report_holds_across_i(lambda_sweep):
    for i in (2, 10, 50, 120):
        rep = lambda_sweep[i - 1]
        assert rep["holds"] is True
        assert rep["relative_margin"] > 0
        assert rep["truncated_at"] > i


@settings(max_examples=12, deadline=None)
@given(i=st.integers(1, 500))
@example(i=1)
@example(i=500)
def test_lambda_sweep_matches_per_i_oracle(lambda_sweep, i):
    got = lambda_sweep[i - 1]
    want = grid_oracle.lambda_vs_gamma_report(i)
    for key in ("i", "holds", "truncated_at", "dps", "relative_tail_bound"):
        assert got[key] == want[key], key
    assert math.isclose(got["relative_margin"], want["relative_margin"],
                        rel_tol=1e-12)


def test_lambda_sweep_matches_its_own_prefix(lambda_sweep):
    # a shorter sweep works at fewer digits and keeps fewer terms
    assert th.lambda_vs_gamma_sweep(0) == []
    short = th.lambda_vs_gamma_sweep(40)
    for got, want in zip(short, lambda_sweep[:40], strict=True):
        assert {k: got[k] for k in ("i", "holds", "truncated_at", "dps")} == {
            k: want[k] for k in ("i", "holds", "truncated_at", "dps")}
        for key in ("relative_margin", "relative_tail_bound", "log_lambda"):
            assert math.isclose(got[key], want[key], rel_tol=1e-12), key


def test_lambda_sweep_raises_when_a_series_is_not_cut(monkeypatch):
    monkeypatch.setattr(th, "_lambda_terms", lambda i_max: 60)
    with pytest.raises(th.SeriesCutError, match="Lambda"):
        th.lambda_vs_gamma_sweep(3)


def test_lambda_sweep_rejects_negative_i_max():
    with pytest.raises(ValueError, match="i_max"):
        th.lambda_vs_gamma_sweep(-1)


# ---------------------------------------------------------------------------
# inequality verifier


def _small_grid():
    return th.GridSpec(
        alpha_points=5,
        beta_points=9,
        gamma_points=7,
        eps_points=4,
        i_max=40,
    )


def test_verifier_zero_violations_small_grid():
    report = th.verify_inequalities(r_set=(2, 3), grid=_small_grid())
    assert report["r_set"] == [2, 3]
    assert len(report["claims"]) == 5
    for claim in report["claims"]:
        assert claim["violations"] == [], claim
        assert claim["grid_size"] > 0


def test_verifier_claim_subset_and_ids():
    report = th.verify_inequalities(
        r_set=(2,), grid=_small_grid(), claims=["small_beta_domination"]
    )
    assert [c["claim_id"] for c in report["claims"]] == ["small_beta_domination"]


@pytest.mark.parametrize("i_max", [0, 1])
def test_verifier_lambda_claim_on_the_smallest_grids(i_max):
    report = th.verify_inequalities(grid=th.GridSpec(i_max=i_max),
                                    claims=["lambda_vs_gamma"])
    assert report == {"r_set": [2, 3, 4], "claims": [
        {"claim_id": "lambda_vs_gamma", "grid_size": i_max, "violations": []}]}


def test_verifier_unknown_claim():
    with pytest.raises(ValueError):
        th.verify_inequalities(r_set=(2,), grid=_small_grid(), claims=["nope"])


def test_report_json_round_trip():
    report = th.verify_inequalities(
        r_set=(2,), grid=_small_grid(), claims=["beta_eps_below_root"]
    )
    text = th.report_to_json(report)
    back = json.loads(text)
    assert back == report


# ---------------------------------------------------------------------------
# the array screen against the point-by-point checkers in grid_oracle

SCREENED = sorted(grid_oracle.CHECKERS)


def _oracle_report(r_set, grid):
    report = {"r_set": list(r_set), "claims": []}
    for cid in SCREENED:
        size, violations = grid_oracle.CHECKERS[cid](r_set, grid)
        report["claims"].append(
            {"claim_id": cid, "grid_size": size, "violations": violations})
    return report


def _screened_report(r_set, grid):
    return th.verify_inequalities(r_set=r_set, grid=grid, claims=SCREENED)


@st.composite
def grid_specs(draw):
    def span(lo, hi):
        a, b = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
        return min(a, b), max(a, b)

    alpha_lo, alpha_hi = span(0.2, 2.0)
    beta_lo, beta_hi = span(0.01, 3.0)
    gamma_lo, gamma_hi = span(0.001, 0.999)
    return th.GridSpec(
        alpha_points=draw(st.integers(1, 4)), alpha_lo=alpha_lo,
        alpha_hi=alpha_hi,
        beta_points=draw(st.integers(0, 12)), beta_lo=beta_lo,
        beta_hi=beta_hi,
        gamma_points=draw(st.integers(0, 10)), gamma_lo=gamma_lo,
        gamma_hi=gamma_hi,
        eps_points=draw(st.integers(0, 4)), eps_lo=draw(st.floats(0.001, 0.2)),
    )


@settings(max_examples=40, deadline=None)
@given(
    r_set=st.lists(st.integers(2, 5), min_size=1, max_size=3, unique=True),
    grid=grid_specs(),
)
def test_screened_claims_match_pointwise_oracle(r_set, grid):
    assert _screened_report(r_set, grid) == _oracle_report(r_set, grid)


@pytest.mark.parametrize(
    "bad",
    [
        {"alpha_lo": -0.5},
        {"alpha_lo": 0.0, "alpha_points": 1},
        {"beta_lo": -0.1},
        {"beta_lo": 0.0},
        {"gamma_lo": 0.0},
        {"gamma_hi": 1.0},
        {"gamma_lo": -0.2},
        {"eps_lo": 0.0},
        {"eps_lo": -0.05, "eps_points": 1},
    ],
)
def test_screened_claims_reject_what_the_scalar_path_rejects(bad):
    sizes = {"alpha_points": 2, "beta_points": 5, "gamma_points": 4,
             "eps_points": 2}
    grid = th.GridSpec(**{**sizes, **bad})
    for cid in SCREENED:
        outcomes = []
        for run in (
            lambda: th.verify_inequalities(r_set=(2, 3), grid=grid,
                                           claims=[cid])["claims"][0],
            lambda: dict(zip(("grid_size", "violations"),
                             grid_oracle.CHECKERS[cid]((2, 3), grid))),
        ):
            try:
                claim = run()
                outcomes.append((claim["grid_size"], claim["violations"]))
            except ValueError as exc:
                outcomes.append(("ValueError", str(exc)))
        assert outcomes[0] == outcomes[1], cid


def _jittered(fn):
    """fn with its values moved by 1e-10 of their term scale, alternating
    up and down: array rounding ten times worse than it is, still well
    inside the screen's band."""
    def wrapped(*args):
        val, scale = fn(*args)
        val = np.broadcast_to(val, np.broadcast(val, scale).shape)
        sign = np.where(np.arange(val.size).reshape(val.shape) % 2, 1.0, -1.0)
        return val + sign * 1e-10 * scale, scale
    return wrapped


@pytest.fixture
def planted(monkeypatch):
    """Plant violations into all three claims, some by a single ulp.

    SLACK goes to 0 and mu_star, the bound of both mu claims, to one ulp
    below the largest value it is compared with: for small_beta_domination
    the largest mu along the row's gammas, for penalized_min (which asks for
    mu_star at beta_r) the largest min(mu, mu_bar) of the slice.  mu_eps
    gets a convex term K gamma^2 in both its scalar and array forms, which
    makes some second differences non-negative.  The array forms are
    jittered on top, so a screen without its band misses the one-ulp
    violations."""
    grid = th.GridSpec(alpha_points=3, beta_points=12, gamma_points=9,
                       eps_points=3)
    gammas = grid.gammas()
    mu, mu_bar, beta_r = th.mu, th.mu_bar, th.beta_r
    mu_eps, mu_eps_array = th.mu_eps, th._mu_eps_array
    bend = 0.8

    def just_below(values):
        return math.nextafter(max(values), -math.inf)

    def planted_mu_star(r, alpha, beta):
        b_r = beta_r(r, alpha)
        if beta != b_r:
            return just_below(mu(r, alpha, beta, g) for g in gammas)
        return just_below(
            min(mu(r, alpha, b, g), mu_bar(r, alpha, b, g))
            if b_r - b > 1e-12 else mu(r, alpha, b, g)
            for b in grid.betas(r, alpha) if not b > b_r for g in gammas
        )

    def planted_mu_eps_array(r, eps, alpha, beta, gamma):
        val, scale = mu_eps_array(r, eps, alpha, beta, gamma)
        return val + bend * gamma**2, scale + bend * gamma**2

    monkeypatch.setattr(th, "SLACK", 0.0)
    monkeypatch.setattr(th, "mu_star", planted_mu_star)
    monkeypatch.setattr(
        th, "mu_eps", lambda r, e, a, b, g: mu_eps(r, e, a, b, g) + bend * g**2)
    monkeypatch.setattr(th, "_mu_eps_array", _jittered(planted_mu_eps_array))
    monkeypatch.setattr(th, "_mu_array", _jittered(th._mu_array))
    monkeypatch.setattr(th, "_mu_bar_penalty_array",
                        _jittered(th._mu_bar_penalty_array))
    return grid


def test_planted_violations_match_pointwise_oracle(planted):
    got = _screened_report((2, 3), planted)
    want = _oracle_report((2, 3), planted)
    for claim in want["claims"]:
        # the plant took: every claim has violations, and points that hold
        assert 0 < len(claim["violations"]) < claim["grid_size"], claim["claim_id"]
    assert got == want
