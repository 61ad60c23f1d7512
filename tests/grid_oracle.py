"""Point-by-point grid checkers and the per-i Lambda(i) report, the oracles
for the array-screened checkers and the upward Lambda(i) sweep in
`bootperc.thresholds`.

Each checker calls the scalar mu, mu_star, mu_bar and mu_eps at every grid
point, in the verifier's loop order.  They look the functions and SLACK up
on the module at call time, so a test that monkeypatches a bound there
changes it for both paths.

`lambda_vs_gamma_report` sums Lambda(i) afresh for one i, one mp.exp per
term and one more per ratio test, at that i's own precision.
"""

from bootperc import thresholds as th


def check_small_beta(r_set, grid):
    size = 0
    violations = []
    for r in r_set:
        for alpha in grid.alphas(r):
            b_r = th.beta_r(r, alpha)
            for beta in grid.betas(r, alpha):
                if beta > b_r:
                    continue
                star = th.mu_star(r, alpha, beta)
                for gamma in grid.gammas():
                    size += 1
                    val = th.mu(r, alpha, beta, gamma)
                    if val > star + th.SLACK:
                        violations.append(
                            {"r": r, "alpha": alpha, "beta": beta,
                             "gamma": gamma, "lhs": val, "rhs": star}
                        )
    return size, violations


def check_penalized_min(r_set, grid):
    size = 0
    violations = []
    for r in r_set:
        for alpha in grid.alphas(r):
            b_r = th.beta_r(r, alpha)
            bound = th.mu_star(r, alpha, b_r)
            for beta in grid.betas(r, alpha):
                if beta > b_r:
                    continue
                for gamma in grid.gammas():
                    size += 1
                    val = th.mu(r, alpha, beta, gamma)
                    if b_r - beta > 1e-12:
                        val = min(val, th.mu_bar(r, alpha, beta, gamma))
                    if val > bound + th.SLACK:
                        violations.append(
                            {"r": r, "alpha": alpha, "beta": beta,
                             "gamma": gamma, "lhs": val, "rhs": bound}
                        )
    return size, violations


def check_mu_eps_concavity(r_set, grid):
    size = 0
    violations = []
    gammas = grid.gammas()
    for r in r_set:
        for alpha in grid.alphas(r):
            for eps in grid.epss(r):
                for beta in grid.betas(r, alpha):
                    vals = [th.mu_eps(r, eps, alpha, beta, g) for g in gammas]
                    for t in range(1, len(gammas) - 1):
                        size += 1
                        second = vals[t - 1] - 2 * vals[t] + vals[t + 1]
                        if second >= 0:
                            violations.append(
                                {"r": r, "alpha": alpha, "eps": eps,
                                 "beta": beta, "gamma": gammas[t],
                                 "second_difference": second}
                            )
    return size, violations


CHECKERS = {
    "small_beta_domination": check_small_beta,
    "penalized_min": check_penalized_min,
    "mu_eps_gamma_concavity": check_mu_eps_concavity,
}


def lambda_vs_gamma_report(i):
    import mpmath as mp

    dps = 30 + int(0.37 * i)
    a = th.zeta_three_halves()
    with mp.workdps(dps):
        ex = mp.mpf(2 * i - 1) / 2
        tol = mp.mpf(10) ** (-(dps - 3))
        total = mp.mpf(0)
        j = 0
        tail = None
        while True:
            j += 1
            term = mp.exp(ex * mp.log(j) - j)
            total += term
            if j <= i + 1:
                continue
            ratio = mp.exp(ex * mp.log(mp.mpf(j + 1) / j) - 1)
            if ratio >= 1:
                continue
            tail = term * ratio / (1 - ratio)
            if tail < tol * total:
                break
        b = mp.e / (2 * mp.pi)
        rhs = mp.gamma(mp.mpf(2 * i + 1) / 2) * (1 + mp.mpf(a) * b**i)
        margin = (rhs - total) / rhs
        return {
            "i": i,
            "holds": bool(total < rhs),
            "relative_margin": float(margin),
            "truncated_at": j,
            "relative_tail_bound": float(tail / total),
            "dps": dps,
        }
