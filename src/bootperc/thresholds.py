"""Sharp-threshold functions and the numeric inequality verifier.

The percolation threshold scale is p = theta_r(alpha, n) =
(alpha/(n log^(r-1) n))^(1/r), under which eps = n p^r = alpha/log^(r-1) n.
The critical constant is

    alpha_r = (r-1)! ((r-1)/r)^(2(r-1))

and, for seeds that are copies of a subgraph H of K_r with ell edges,

    alpha_{r,ell} = (r-1)! ((r-1)^2 / (r^2 - ell))^(r-1).

Around the threshold everything is controlled by the exponent functions

    mu_r(alpha, beta, gamma)  = r + beta log(alpha beta^(r-1)/(r-1)!)
                                - (alpha beta^r / r!)(1-gamma)^r
                                - beta (r-2+gamma)
    mu*_r(alpha, beta)        = mu_r(alpha, beta, 0)
    mu_{r,eps}(alpha,beta,gamma) = r + beta log(alpha beta^(r-1)(1-gamma)/(r-1)!)
                                - (alpha beta^r / r!)(1-gamma)^r
                                - beta (r-2+eps*gamma)

mu*_r(alpha, .) has derivative 1 + log x - x (x = alpha beta^(r-1)/(r-1)!),
which is <= 0 everywhere with equality only at beta_r(alpha) =
((r-1)!/alpha)^(1/(r-1)); mu* therefore decreases monotonically from r to
-infinity and has a unique positive root beta_star, found by bisection.

verify_inequalities sweeps numeric grids over the supporting inequalities:
small-beta domination, the penalized-exponent minimum, the series-vs-gamma
bound for Lambda(i) = sum_j j^(i-1/2) e^(-j), gamma-concavity of mu_eps,
and the location of the inflated-threshold beta relative to beta_star.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, fsum, log, e as _e

import numpy as np

__all__ = [
    "BracketError",
    "GridSpec",
    "critical_alpha",
    "critical_alpha_exact",
    "critical_alpha_H",
    "theta",
    "eps_of",
    "beta_r",
    "k_r_of_eps",
    "mu",
    "mu_star",
    "mu_eps",
    "mu_bar",
    "beta_star",
    "beta_eps",
    "mu_star_at_beta_eps",
    "zeta_three_halves",
    "SeriesCutError",
    "lambda_vs_gamma_sweep",
    "verify_inequalities",
    "report_to_json",
]


def critical_alpha(r: int) -> float:
    """alpha_r = (r-1)! ((r-1)/r)^(2(r-1))."""
    _check_r(r)
    return factorial(r - 1) * ((r - 1) / r) ** (2 * (r - 1))


def critical_alpha_exact(r: int) -> Fraction:
    """alpha_r as an exact rational, for root finding at criticality."""
    _check_r(r)
    return Fraction(
        factorial(r - 1) * (r - 1) ** (2 * (r - 1)), r ** (2 * (r - 1))
    )


def critical_alpha_H(r: int, ell: int) -> float:
    """alpha_{r,ell} for seeds spanning ell edges on r vertices."""
    _check_r(r)
    if not 0 <= ell <= comb(r, 2):
        raise ValueError(f"need 0 <= ell <= C(r,2), got ell={ell}, r={r}")
    return factorial(r - 1) * ((r - 1) ** 2 / (r**2 - ell)) ** (r - 1)


def theta(r: int, alpha: float, n: int) -> float:
    """p = (alpha / (n log^(r-1) n))^(1/r)."""
    _check_r(r)
    _check_pos(alpha, "alpha")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return (alpha / (n * log(n) ** (r - 1))) ** (1.0 / r)


def eps_of(r: int, alpha: float, n: int) -> float:
    """eps = n p^r = alpha / log^(r-1) n at p = theta(r, alpha, n)."""
    _check_r(r)
    _check_pos(alpha, "alpha")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return alpha / log(n) ** (r - 1)


def beta_r(r: int, alpha: float) -> float:
    """beta_r(alpha) = ((r-1)!/alpha)^(1/(r-1)), the zero-slope point of
    mu*_r(alpha, .)."""
    _check_r(r)
    _check_pos(alpha, "alpha")
    return (factorial(r - 1) / alpha) ** (1.0 / (r - 1))


def k_r_of_eps(r: int, eps: float) -> float:
    """k_r(eps) = ((r-1)!/eps)^(1/(r-1))."""
    _check_r(r)
    _check_pos(eps, "eps")
    return (factorial(r - 1) / eps) ** (1.0 / (r - 1))


def mu(r: int, alpha: float, beta: float, gamma: float) -> float:
    _check_domain(r, alpha, beta, gamma)
    return (
        r
        + beta * log(alpha * beta ** (r - 1) / factorial(r - 1))
        - (alpha * beta**r / factorial(r)) * (1 - gamma) ** r
        - beta * (r - 2 + gamma)
    )


def mu_star(r: int, alpha: float, beta: float) -> float:
    return mu(r, alpha, beta, 0.0)


def mu_eps(r: int, eps: float, alpha: float, beta: float, gamma: float) -> float:
    _check_domain(r, alpha, beta, gamma)
    _check_pos(eps, "eps")
    return (
        r
        + beta * log(alpha * beta ** (r - 1) * (1 - gamma) / factorial(r - 1))
        - (alpha * beta**r / factorial(r)) * (1 - gamma) ** r
        - beta * (r - 2 + eps * gamma)
    )


def mu_bar(r: int, alpha: float, beta: float, gamma: float) -> float:
    """mu plus the penalty xi log(e alpha beta^r gamma / (xi (r-1)!)) with
    xi = beta_r(alpha) - beta; requires beta < beta_r(alpha), gamma > 0."""
    _check_domain(r, alpha, beta, gamma)
    if gamma <= 0:
        raise ValueError("mu_bar needs gamma > 0")
    xi = beta_r(r, alpha) - beta
    if xi <= 0:
        raise ValueError(
            f"mu_bar needs beta < beta_r(alpha) = {beta_r(r, alpha)}, got {beta}"
        )
    return mu(r, alpha, beta, gamma) + xi * log(
        _e * alpha * beta**r * gamma / (xi * factorial(r - 1))
    )


class BracketError(Exception):
    pass


def beta_star(r: int, alpha, tol: float = 1e-10) -> float:
    """Unique positive root of mu*_r(alpha, .), by bisection.

    mu* decreases from r (beta -> 0+) to -infinity, so any bracket with a
    sign change is valid; the upper end grows geometrically from
    beta_r(alpha) until the sign flips.

    At alpha = alpha_r the root is a triple root (mu* and its first two
    derivatives all vanish at beta_r), so double precision cannot separate
    sign from noise closer than ~1e-5; the bisection therefore runs in
    extended precision.  alpha may be a Fraction for an exact rational
    value; a float alpha is taken at face value, and near criticality the
    root of the perturbed function genuinely sits ~(float error)^(1/3)
    away from the ideal constant.
    """
    _check_r(r)
    _check_pos(float(alpha), "alpha")
    _check_pos(tol, "tol")
    import mpmath as mp

    with mp.workdps(60):
        if isinstance(alpha, Fraction):
            alpha_mp = mp.mpf(alpha.numerator) / alpha.denominator
        else:
            alpha_mp = mp.mpf(alpha)
        fact = mp.factorial(r - 1)
        fact_r = mp.factorial(r)

        def f(b):
            return (
                r
                + b * mp.log(alpha_mp * b ** (r - 1) / fact)
                - alpha_mp * b**r / fact_r
                - b * (r - 2)
            )

        lo = mp.mpf(10) ** -12
        if f(lo) <= 0:
            raise BracketError(
                f"mu* not positive at beta={float(lo)} (r={r}, alpha={alpha})"
            )
        hi = (fact / alpha_mp) ** (mp.mpf(1) / (r - 1))
        for _ in range(200):
            if f(hi) < 0:
                break
            hi *= 2
        else:
            raise BracketError(f"no sign change found (r={r}, alpha={alpha})")
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def beta_eps(r: int, eps: float) -> float:
    """beta_{r,eps} = (1+eps)^(1/(r-1)) beta_r((1+eps) alpha_r).

    Since beta_r((1+eps) alpha_r) = beta_r(alpha_r)/(1+eps)^(1/(r-1)), this
    collapses to the constant (r/(r-1))^2 for every eps.
    """
    _check_r(r)
    if eps <= -1:
        raise ValueError("need eps > -1")
    return (1 + eps) ** (1.0 / (r - 1)) * beta_r(r, (1 + eps) * critical_alpha(r))


def mu_star_at_beta_eps(r: int, eps: float) -> float:
    """Closed form for mu*_r((1+eps) alpha_r, beta_{r,eps}):
    r - (r/(r-1))^2 (r-2 + (1+eps)/r - log(1+eps))."""
    _check_r(r)
    if eps <= -1:
        raise ValueError("need eps > -1")
    return r - (r / (r - 1)) ** 2 * (r - 2 + (1 + eps) / r - log(1 + eps))


def _check_r(r: int) -> None:
    if r < 2:
        raise ValueError(f"threshold r must be >= 2, got {r}")


def _check_pos(x: float, name: str) -> None:
    if not x > 0:
        raise ValueError(f"{name} must be positive, got {x}")


def _check_domain(r, alpha, beta, gamma):
    _check_r(r)
    _check_pos(alpha, "alpha")
    _check_pos(beta, "beta")
    if not 0 <= gamma < 1:
        raise ValueError(f"need 0 <= gamma < 1, got {gamma}")


# ----------------------------------------------------------------------
# zeta(3/2), and Lambda(i) for every i in one sweep: the library's only
# sum of Lambda(i), read by the Lambda-vs-gamma claim and by the induction
# step in the counting module
# ----------------------------------------------------------------------

_BERNOULLI = ((1 / 6, 2), (-1 / 30, 4), (1 / 42, 6), (-1 / 30, 8))


def zeta_three_halves() -> float:
    """zeta(3/2) by direct series with Euler-Maclaurin tail correction;
    absolute error well below 1e-12."""
    s = 1.5
    n_head = 200
    head = fsum(n**-s for n in range(1, n_head + 1))
    tail = n_head ** (1 - s) / (s - 1) - 0.5 * n_head**-s
    corr = 0.0
    for b_val, two_k in _BERNOULLI:
        rising = 1.0
        for m_idx in range(two_k - 1):
            rising *= s + m_idx
        corr += b_val / factorial(two_k) * rising * n_head ** (-s - two_k + 1)
    return head + tail + corr


class SeriesCutError(Exception):
    """A Lambda(i) series did not pass its stop test within the terms kept."""


def _lambda_terms(i_max: int) -> int:
    # the stop test passes near j = 2.93 i + 105 (j = 1,549 at i = 500)
    return 3 * i_max + 110


def lambda_vs_gamma_sweep(i_max: int) -> list[dict]:
    """Check Lambda(i) = sum_j j^(i-1/2) e^(-j) < Gamma(i+1/2)(1 + a b^i),
    a = zeta(3/2), b = e/(2 pi), for i = 1..i_max; one report per i.

    The relative margin shrinks like b^i, far below double precision, so
    both sides are evaluated at 30 + 0.37 i_max digits, as many as i = i_max
    needs.  The terms t(j) = j^(i-1/2) e^(-j) 2^scale_bits are integers, and
    each i multiplies them by j exactly, so no term loses the precision it
    started with; Gamma(i+1/2) and b^i are running products.  The series
    for i is cut at the first j > i+1 where the ratio-test remainder
    t(j) r/(1-r), r = t(j+1)/t(j), falls below 10^-(dps-3) of the partial
    sum, with dps = 30 + 0.37 i.  Past j = i+1 the terms and r both fall,
    so the test holds at every j past the cut.  log_lambda, log Lambda(i),
    is what counting.induction_step_report reads.
    """
    if i_max < 0:
        raise ValueError(f"need i_max >= 0, got {i_max}")
    import mpmath as mp

    n_terms = _lambda_terms(i_max)
    js = range(1, n_terms + 1)
    a = zeta_three_halves()
    reports = []
    with mp.workdps(30 + int(0.37 * i_max)):
        # e^-j / sqrt(j) >= 2^(-2j), so every term starts with mp.mp.prec bits
        scale_bits = mp.mp.prec + 2 * n_terms
        terms = [int(mp.ldexp(mp.exp(-j) / mp.sqrt(j), scale_bits)) for j in js]
        b = mp.e / (2 * mp.pi)
        b_pow = mp.mpf(1)
        gamma = mp.sqrt(mp.pi)
        j = 1
        for i in range(1, i_max + 1):
            terms = [t * k for t, k in zip(terms, js)]
            partial = list(accumulate(terms))
            b_pow *= b
            gamma *= mp.mpf(2 * i - 1) / 2
            dps = 30 + int(0.37 * i)

            def stops(j):
                # t(j) r/(1-r) < 10^-(dps-3) partial(j), times (t(j) - t(j+1))
                if j >= n_terms:
                    raise SeriesCutError(f"Lambda({i}) not cut within {n_terms} terms")
                t, t_next = terms[j - 1], terms[j]
                return t * t_next * 10 ** (dps - 3) < partial[j - 1] * (t - t_next)

            # the cut moves little from one i to the next: walk from the last
            j = max(j, i + 2)
            while not stops(j):
                j += 1
            while j > i + 2 and stops(j - 1):
                j -= 1
            t, t_next, total_int = terms[j - 1], terms[j], partial[j - 1]
            total = mp.ldexp(total_int, -scale_bits)
            rhs = gamma * (1 + a * b_pow)
            reports.append({
                "i": i,
                "holds": bool(total < rhs),
                "relative_margin": float((rhs - total) / rhs),
                "truncated_at": j,
                "relative_tail_bound": t * t_next / ((t - t_next) * total_int),
                "dps": dps,
                "log_lambda": float(mp.log(total)),
            })
    return reports


# ----------------------------------------------------------------------
# the grid verifier
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Grid ranges for verify_inequalities.  alpha spans multiples of
    alpha_r, beta runs up to a multiple of beta_r(alpha), eps up to
    1/(r+1) - 0.01."""

    alpha_points: int = 21
    alpha_lo: float = 0.5
    alpha_hi: float = 1.5
    beta_points: int = 50
    beta_lo: float = 0.1
    beta_hi: float = 2.0
    gamma_points: int = 50
    gamma_lo: float = 0.01
    gamma_hi: float = 0.99
    eps_points: int = 20
    eps_lo: float = 0.01
    i_max: int = 500

    def alphas(self, r: int) -> list[float]:
        a_r = critical_alpha(r)
        return _linspace(self.alpha_lo * a_r, self.alpha_hi * a_r, self.alpha_points)

    def betas(self, r: int, alpha: float) -> list[float]:
        return _linspace(self.beta_lo, self.beta_hi * beta_r(r, alpha), self.beta_points)

    def gammas(self) -> list[float]:
        return _linspace(self.gamma_lo, self.gamma_hi, self.gamma_points)

    def epss(self, r: int) -> list[float]:
        return _linspace(self.eps_lo, 1.0 / (r + 1) - 0.01, self.eps_points)


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    if num == 1:
        return [lo]
    step = (hi - lo) / (num - 1)
    return [lo + step * t for t in range(num)]


SLACK = 1e-9  # absolute tolerance for the non-strict grid inequalities


def verify_inequalities(
    r_set=(2, 3, 4),
    grid: GridSpec | None = None,
    claims=None,
) -> dict:
    """Sweep the supporting inequalities over numeric grids.

    Claims (selectable by id):
      small_beta_domination   mu <= mu* for beta <= beta_r(alpha)
      penalized_min           min(mu, mu_bar) <= mu*(alpha, beta_r(alpha))
      lambda_vs_gamma         Lambda(i) < Gamma(i+1/2)(1 + a b^i)
      mu_eps_gamma_concavity  second gamma-difference of mu_eps < 0
      beta_eps_below_root     beta_{r,eps} < beta_star((1+eps) alpha_r),
                              plus the closed form for mu* there

    The three float claims (small_beta_domination, penalized_min,
    mu_eps_gamma_concavity) are screened and then confirmed.  numpy
    evaluates each (r, alpha) slice over the whole (eps, beta, gamma) block
    and clears a row (one beta, or one (eps, beta), over all gammas) only
    when every point in it holds with room to spare: more than SCREEN_BAND
    times the summed magnitude of the formula's terms, far above array
    rounding.  Every row not cleared is checked point by point by the
    scalar mu, mu_star, mu_bar and mu_eps, which decide and supply every
    float of a violation; a slice with a point outside their domain is not
    screened, so they raise where they always did.  The report, grid_size
    included, is the same as with the scalar functions alone.  The bounds
    (mu_star) are always scalar.

    Returns a JSON-ready report; violations are content, not errors.
    """
    grid = grid or GridSpec()
    all_ids = [
        "small_beta_domination",
        "penalized_min",
        "lambda_vs_gamma",
        "mu_eps_gamma_concavity",
        "beta_eps_below_root",
    ]
    wanted = list(claims) if claims is not None else all_ids
    for cid in wanted:
        if cid not in all_ids:
            raise ValueError(f"unknown claim id {cid!r}")
    report: dict = {"r_set": list(r_set), "claims": []}
    for cid in wanted:
        checker = {
            "small_beta_domination": _check_small_beta,
            "penalized_min": _check_penalized_min,
            "lambda_vs_gamma": _check_lambda_vs_gamma,
            "mu_eps_gamma_concavity": _check_mu_eps_concavity,
            "beta_eps_below_root": _check_beta_eps,
        }[cid]
        size, violations = checker(r_set, grid)
        report["claims"].append(
            {"claim_id": cid, "grid_size": size, "violations": violations}
        )
    return report


# The array screen of the three float claims (see verify_inequalities).  A
# point is cleared when it holds by more than SCREEN_BAND times the summed
# magnitude of its formula's terms; array rounding is some 1e-16 of that.
SCREEN_BAND = 1e-9


def _mu_array(r, alpha, beta, gamma):
    """mu over broadcast arrays, and the summed magnitude of its terms."""
    logs = beta * np.log(alpha * beta ** (r - 1) / factorial(r - 1))
    poly = (alpha * beta**r / factorial(r)) * (1 - gamma) ** r
    lin = beta * (r - 2 + gamma)
    return r + logs - poly - lin, r + np.abs(logs) + poly + lin


def _mu_bar_penalty_array(r, alpha, beta, gamma):
    """The penalty mu_bar - mu over broadcast arrays, and its magnitude."""
    xi = beta_r(r, alpha) - beta
    pen = xi * np.log(_e * alpha * beta**r * gamma / (xi * factorial(r - 1)))
    return pen, np.abs(pen)


def _mu_eps_array(r, eps, alpha, beta, gamma):
    """mu_eps over broadcast arrays, and the summed magnitude of its terms."""
    logs = beta * np.log(alpha * beta ** (r - 1) * (1 - gamma) / factorial(r - 1))
    poly = (alpha * beta**r / factorial(r)) * (1 - gamma) ** r
    lin = beta * (r - 2 + eps * gamma)
    return r + logs - poly - lin, r + np.abs(logs) + poly + lin


def _in_domain(alpha, betas, gammas, epss=(), gamma_positive=False) -> bool:
    """Whether every point is finite and in the scalar functions' domain:
    alpha, beta, eps > 0 and 0 <= gamma < 1 (0 < gamma with gamma_positive)."""
    b = np.asarray(betas, dtype=float)
    g = np.asarray(gammas, dtype=float)
    e = np.asarray(epss, dtype=float)
    g_lo = g > 0 if gamma_positive else g >= 0
    return bool(
        np.isfinite(alpha) and alpha > 0
        and np.all(np.isfinite(b) & (b > 0))
        and np.all(g_lo & (g < 1))
        and np.all(np.isfinite(e) & (e > 0))
    )


def _rows_to_confirm(excess, scale) -> list[int]:
    """Flat indices of the rows (every axis but the last, which is gamma)
    holding a point the screen does not clear.  A point violates its claim
    when its excess is above 0 (at or above 0 for concavity); it is cleared
    when excess and scale are finite and excess <= -SCREEN_BAND * scale."""
    with np.errstate(invalid="ignore"):
        cleared = (np.isfinite(excess) & np.isfinite(scale)
                   & (excess <= -SCREEN_BAND * scale))
    return np.flatnonzero(~cleared.all(axis=-1)).tolist()


def _column(values):
    return np.asarray(values, dtype=float)[:, None]


def _check_small_beta(r_set, grid):
    size = 0
    violations = []
    gammas = grid.gammas()
    for r in r_set:
        for alpha in grid.alphas(r):
            b_r = beta_r(r, alpha)
            betas = [beta for beta in grid.betas(r, alpha) if not beta > b_r]
            size += len(betas) * len(gammas)
            rows = range(len(betas))
            stars = None
            if _in_domain(alpha, betas, gammas):
                stars = [mu_star(r, alpha, beta) for beta in betas]
                with np.errstate(all="ignore"):
                    val, scale = _mu_array(r, alpha, _column(betas),
                                           np.asarray(gammas, dtype=float))
                    excess = val - (_column(stars) + SLACK)
                rows = _rows_to_confirm(excess, scale)
            for b in rows:
                beta = betas[b]
                star = mu_star(r, alpha, beta) if stars is None else stars[b]
                for gamma in gammas:
                    val = mu(r, alpha, beta, gamma)
                    if val > star + SLACK:
                        violations.append(
                            {"r": r, "alpha": alpha, "beta": beta,
                             "gamma": gamma, "lhs": val, "rhs": star}
                        )
    return size, violations


def _check_penalized_min(r_set, grid):
    size = 0
    violations = []
    gammas = grid.gammas()
    for r in r_set:
        for alpha in grid.alphas(r):
            b_r = beta_r(r, alpha)
            bound = mu_star(r, alpha, b_r)
            betas = [beta for beta in grid.betas(r, alpha) if not beta > b_r]
            size += len(betas) * len(gammas)
            rows = range(len(betas))
            if _in_domain(alpha, betas, gammas, gamma_positive=True):
                beta_col = _column(betas)
                g = np.asarray(gammas, dtype=float)
                with np.errstate(all="ignore"):
                    val, scale = _mu_array(r, alpha, beta_col, g)
                    pen, pen_scale = _mu_bar_penalty_array(r, alpha, beta_col, g)
                    penalized = b_r - beta_col > 1e-12
                    val = np.where(penalized, np.minimum(val, val + pen), val)
                    scale = np.where(penalized, scale + pen_scale, scale)
                    excess = val - (bound + SLACK)
                rows = _rows_to_confirm(excess, scale)
            for b in rows:
                beta = betas[b]
                for gamma in gammas:
                    val = mu(r, alpha, beta, gamma)
                    if b_r - beta > 1e-12:
                        val = min(val, mu_bar(r, alpha, beta, gamma))
                    if val > bound + SLACK:
                        violations.append(
                            {"r": r, "alpha": alpha, "beta": beta,
                             "gamma": gamma, "lhs": val, "rhs": bound}
                        )
    return size, violations


def _check_lambda_vs_gamma(r_set, grid):
    del r_set  # claim is r-independent
    reports = lambda_vs_gamma_sweep(grid.i_max)
    return len(reports), [rep for rep in reports if not rep["holds"]]


def _check_mu_eps_concavity(r_set, grid):
    size = 0
    violations = []
    gammas = grid.gammas()
    for r in r_set:
        for alpha in grid.alphas(r):
            epss = grid.epss(r)
            betas = grid.betas(r, alpha) if epss else []
            size += len(epss) * len(betas) * max(0, len(gammas) - 2)
            rows = range(len(epss) * len(betas))
            if _in_domain(alpha, betas, gammas, epss):
                with np.errstate(all="ignore"):
                    val, scale = _mu_eps_array(
                        r, _column(epss)[:, :, None], alpha, _column(betas),
                        np.asarray(gammas, dtype=float),
                    )
                    second = val[..., :-2] - 2 * val[..., 1:-1] + val[..., 2:]
                    scale = scale[..., :-2] + 2 * scale[..., 1:-1] + scale[..., 2:]
                rows = _rows_to_confirm(second, scale)
            for row in rows:
                eps, beta = epss[row // len(betas)], betas[row % len(betas)]
                vals = [mu_eps(r, eps, alpha, beta, g) for g in gammas]
                for t in range(1, len(gammas) - 1):
                    second = vals[t - 1] - 2 * vals[t] + vals[t + 1]
                    if second >= 0:
                        violations.append(
                            {"r": r, "alpha": alpha, "eps": eps,
                             "beta": beta, "gamma": gammas[t],
                             "second_difference": second}
                        )
    return size, violations


def _check_beta_eps(r_set, grid):
    size = 0
    violations = []
    for r in r_set:
        for eps in grid.epss(r):
            size += 1
            alpha_eps = (1 + eps) * critical_alpha(r)
            b_eps = beta_eps(r, eps)
            root = beta_star(r, alpha_eps)
            closed = mu_star_at_beta_eps(r, eps)
            direct = mu_star(r, alpha_eps, b_eps)
            if not (b_eps < root and abs(closed - direct) < 1e-10):
                violations.append(
                    {"r": r, "eps": eps, "beta_eps": b_eps, "beta_star": root,
                     "mu_star_closed": closed, "mu_star_direct": direct}
                )
    return size, violations


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2)
