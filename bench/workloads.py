"""The benchmark's workloads: the CLI commands each one issues, by round.

A workload is a list of operations; an operation is one `bootperc` command
line, run in-process through `bootperc.cli.main` with `--out` added.  Every
round issues the same commands.  Commands that draw random numbers take
`--seed base + 1000 * seed + round`, so `--seed 0` gives round 0 the seeds
of the README examples and the acceptance criteria, and each later round
draws a fresh trial set of the same size.

This module is stdlib only: the worker imports it inside the set-up time.
"""

# gnp-threshold: criterion 10's two sweeps, smaller.  Criterion 10 runs the
# seed-edge sweep at n=30000, where one trial takes 1 to 12 s: the ten
# trials its separation test needs would take 20 to 40 s, by seed.  At
# n=1000 a trial takes 0.01 to 0.2 s, so a round holds 40 of them and its
# time varies little with the seed.
SEED_EDGE_N = 1000
SEED_EDGE_ALPHAS = ("0.02", "0.75", "3.0")
SEED_EDGE_TRIALS = 40
SUSCEPTIBILITY_N = 2000
SUSCEPTIBILITY_ALPHAS = ("0.0125", "5.0")
SUSCEPTIBILITY_TRIALS = 24

# Side check, once a run, outside the timed rounds: both sweeps at n=6,
# where the exact probabilities come from enumerating every graph.
SMALL_N = 6
SMALL_ALPHAS = ("1.0", "3.0", "6.0")
SMALL_TRIALS = 3000

# gnp-pki: criterion 11's estimate at 1000 seeds per graph.
PKI_N = 100_000
PKI_ALPHA = "0.125"
PKI_GRAPHS = 10
PKI_SEEDS_PER_GRAPH = 1000
PKI_K_MAX = 12

# bp-mc: criteria 07/08's Monte Carlo.
BP_TRIALS = 20_000
BP_SURVIVE = ((2, ("0.1", "0.2")), (3, ("0.2",)))
BP_HIT = {"r": 2, "eps": "0.1", "k": 4, "i": 1}

# exact: no random numbers.
COUNT_RS = (2, 3, 4)
COUNT_K_MAX = 200
SPECTRAL_ELL = 40
DLAMBDA_RS = (2, 3)
VERIFY_RS = ("2", "3", "4")
# Every claim on the default grid except lambda_vs_gamma (43 s at
# i_max=500), then every claim on the --fast grid, lambda_vs_gamma
# included.
VERIFY_DEFAULT_GRID_CLAIMS = (
    "small_beta_domination",
    "penalized_min",
    "mu_eps_gamma_concavity",
    "beta_eps_below_root",
)


def _seed(base: int, seed: int, rnd: int) -> str:
    return str(base + 1000 * seed + rnd)


def gnp_threshold(seed: int, rnd: int) -> list:
    return [
        ("seed-edge-sweep", [
            "gnp", "seed-edge-sweep", "--n", str(SEED_EDGE_N),
            "--alphas", *SEED_EDGE_ALPHAS, "--trials", str(SEED_EDGE_TRIALS),
            "--seed", _seed(11, seed, rnd), "--workers", "0",
        ]),
        ("susceptibility-sweep", [
            "gnp", "susceptibility-sweep", "--n", str(SUSCEPTIBILITY_N),
            "--alphas", *SUSCEPTIBILITY_ALPHAS,
            "--trials", str(SUSCEPTIBILITY_TRIALS),
            "--seed", _seed(12, seed, rnd), "--workers", "0",
        ]),
    ]


def gnp_threshold_side(seed: int) -> list:
    common = ["--n", str(SMALL_N), "--alphas", *SMALL_ALPHAS,
              "--trials", str(SMALL_TRIALS), "--workers", "0"]
    return [
        ("small-seed-edge-sweep",
         ["gnp", "seed-edge-sweep", *common, "--seed", _seed(21, seed, 0)]),
        ("small-susceptibility-sweep",
         ["gnp", "susceptibility-sweep", *common, "--seed", _seed(22, seed, 0)]),
    ]


def gnp_pki(seed: int, rnd: int) -> list:
    return [
        ("pki", [
            "gnp", "pki", "--n", str(PKI_N), "--r", "2", "--alpha", PKI_ALPHA,
            "--trials", str(PKI_GRAPHS),
            "--seeds-per-graph", str(PKI_SEEDS_PER_GRAPH),
            "--k-max", str(PKI_K_MAX), "--seed", _seed(13, seed, rnd),
            "--workers", "0",
        ]),
    ]


def bp_mc(seed: int, rnd: int) -> list:
    ops = [
        (f"survive-r{r}", [
            "bp", "survive", "--r", str(r), "--eps", *eps,
            "--trials", str(BP_TRIALS), "--seed", _seed(4096, seed, rnd),
        ])
        for r, eps in BP_SURVIVE
    ]
    h = BP_HIT
    ops.append(("hit", [
        "bp", "hit", "--r", str(h["r"]), "--eps", h["eps"], "--k", str(h["k"]),
        "--i", str(h["i"]), "--mc", "--trials", str(BP_TRIALS),
        "--seed", _seed(2024, seed, rnd),
    ]))
    return ops


def exact(seed: int, rnd: int) -> list:
    del seed, rnd  # deterministic: no command draws random numbers
    ops = [
        (f"counts-r{r}",
         ["counts", "table", "--r", str(r), "--k-max", str(COUNT_K_MAX)])
        for r in COUNT_RS
    ]
    ops.append(("psi-r2", [
        "spectral", "lambda", "--r", "2", "--ell", str(SPECTRAL_ELL),
        "--method", "psi",
    ]))
    ops += [
        (f"dlambda-r{r}", [
            "spectral", "lambda", "--r", str(r), "--ell", str(SPECTRAL_ELL),
            "--method", "dlambda",
        ])
        for r in DLAMBDA_RS
    ]
    ops.append(("verify-default-grid", [
        "thresholds", "verify", "--r", *VERIFY_RS,
        "--claims", *VERIFY_DEFAULT_GRID_CLAIMS,
    ]))
    ops.append(("verify-fast-grid",
                ["thresholds", "verify", "--r", *VERIFY_RS, "--fast"]))
    return ops


WORKLOADS = {
    "gnp-threshold": gnp_threshold,
    "gnp-pki": gnp_pki,
    "bp-mc": bp_mc,
    "exact": exact,
}

SIDE_OPS = {"gnp-threshold": gnp_threshold_side}
