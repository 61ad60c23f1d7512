"""Command line interface.

Subcommand groups: thresholds (scalar evaluation and inequality
verification), counts (tables and normalizations), bp (branching process
survival and hitting probabilities), spectral (growth eigenvalue), gnp
(Monte Carlo experiments).  Outputs are JSON unless a CSV table is
requested; every command writes them through _output, to the --out file or
to stdout, with the same bytes either way, and identical invocations
produce byte-identical output.

Exit codes: 0 on success, 2 on configuration errors, 1 when a
verification run finds violations.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import branching, counting, engine, spectral, thresholds
from . import experiments as X

__all__ = ["main"]


@contextlib.contextmanager
def _output(path):
    """The command's output stream: the file at path, or stdout.  A reader
    that closes stdout early (`| head`) ends the output quietly."""
    if path:
        with open(path, "w") as fp:
            yield fp
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's buffer still holds text; point the descriptor at devnull
        # so that the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(text: str, path) -> None:
    with _output(path) as fp:
        fp.write(text)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# thresholds


_EVAL_SPECS = {
    "critical_alpha": (thresholds.critical_alpha, ("r",)),
    "critical_alpha_H": (thresholds.critical_alpha_H, ("r", "ell")),
    "theta": (thresholds.theta, ("r", "alpha", "n")),
    "eps": (thresholds.eps_of, ("r", "alpha", "n")),
    "beta_r": (thresholds.beta_r, ("r", "alpha")),
    "k_r": (thresholds.k_r_of_eps, ("r", "eps")),
    "mu": (thresholds.mu, ("r", "alpha", "beta", "gamma")),
    "mu_star": (thresholds.mu_star, ("r", "alpha", "beta")),
    "mu_eps": (thresholds.mu_eps, ("r", "eps", "alpha", "beta", "gamma")),
    "mu_bar": (thresholds.mu_bar, ("r", "alpha", "beta", "gamma")),
    "beta_star": (thresholds.beta_star, ("r", "alpha")),
    "beta_eps": (thresholds.beta_eps, ("r", "eps")),
    "mu_star_at_beta_eps": (thresholds.mu_star_at_beta_eps, ("r", "eps")),
    "zeta_three_halves": (thresholds.zeta_three_halves, ()),
}


def _cmd_thresholds_eval(args) -> int:
    if args.name not in _EVAL_SPECS:
        raise ValueError(
            f"unknown quantity {args.name!r}; choose from {sorted(_EVAL_SPECS)}"
        )
    fn, needed = _EVAL_SPECS[args.name]
    kwargs = {}
    for field in needed:
        value = getattr(args, "n_" if field == "n" else field)
        if value is None:
            raise ValueError(f"{args.name} requires --{field}")
        kwargs[field] = value
    payload = {"name": args.name, "value": fn(*(kwargs[f] for f in needed))}
    payload.update(kwargs)
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_thresholds_verify(args) -> int:
    grid = None
    if args.fast:
        grid = thresholds.GridSpec(
            alpha_points=5, beta_points=9, gamma_points=7, eps_points=4, i_max=40
        )
    report = thresholds.verify_inequalities(
        r_set=tuple(args.r), grid=grid, claims=args.claims
    )
    _emit(thresholds.report_to_json(report) + "\n", args.out)
    clean = all(not claim["violations"] for claim in report["claims"])
    return 0 if clean else 1


# ---------------------------------------------------------------------------
# counts


def _cmd_counts_table(args) -> int:
    table = counting.build_count_table(
        args.r, args.k_max, variant=args.variant, level_bound=args.level_bound
    )
    # Streamed row by row: at k_max = 200 the text runs to 14 MB.
    with _output(args.out) as fp:
        counting.table_to_csv(table, fp)
    return 0


def _cmd_counts_normalized(args) -> int:
    record = counting.normalized(args.r, args.k, args.i, kind=args.kind)
    _emit(record.to_json_record() + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# bp


def _cmd_bp_survive(args) -> int:
    policy = branching.WalkPolicy(
        c1=args.c1, m=args.m, hard_cap_factor=args.hard_cap_factor
    )
    estimates = [
        branching.survival_probability_mc(
            args.r, eps, args.trials, args.seed, policy=policy
        )
        for eps in args.eps
    ]
    if len(estimates) == 1:
        text = _json_text(dataclasses.asdict(estimates[0]))
    else:
        text = _csv_text(
            ("eps", "p_hat", "stderr", "asymptotic"),
            [(e.eps, e.p_hat, e.stderr, e.asymptotic) for e in estimates],
        )
    _emit(text, args.out)
    return 0


def _cmd_bp_hit(args) -> int:
    if not args.mc:
        for flag in ("trials", "seed"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} is read only with --mc")
    exact = branching.hitting_probability_exact(args.r, args.eps, args.k, args.i)
    payload = {"r": args.r, "eps": args.eps, "k": args.k, "i": args.i, "exact": exact}
    if args.mc:
        est = branching.hitting_frequency_mc(
            args.r, args.eps, args.k, args.i,
            10000 if args.trials is None else args.trials,
            0 if args.seed is None else args.seed,
        )
        payload["p_hat"] = est.p_hat
        payload["stderr"] = est.stderr
        payload["trials"] = est.trials
    _emit(_json_text(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# spectral


def _cmd_spectral_lambda(args) -> int:
    # without --tol each method keeps its own default
    tol = {} if args.tol is None else {"tol": args.tol}
    if args.method == "psi":
        psi = spectral.companion_psi(spectral.build_A(args.r, args.ell))
        res = spectral.perron(psi, **tol)
        payload = {
            "r": args.r,
            "ell": args.ell,
            "lambda": res.value,
            "iterations": res.iterations,
        }
    else:
        report = spectral.dlambda_report(args.r, args.ell, **tol)
        payload = {
            "r": args.r,
            "ell": args.ell,
            "lambda": report["lambda"],
            "iterations": report["inner_iterations"],
        }
    _emit(_json_text(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# gnp


def _gnp_p(args) -> float:
    if (args.alpha is None) == (args.p is None):
        raise ValueError("exactly one of --alpha and --p must be given")
    if args.alpha is not None:
        return thresholds.theta(args.r, args.alpha, args.n)
    return args.p


def _cmd_gnp_sample(args) -> int:
    if args.r is None:
        args.r = 2
    elif args.p is not None:
        raise ValueError("--r is read only with --alpha, not with --p")
    graph = X.sample_gnp(args.n, _gnp_p(args), args.seed)
    with _output(args.out) as fp:
        engine.write_graph(graph, fp)
    return 0


def _emit_table(header, rows, args, **scalars) -> None:
    """A G(n,p) estimate's rows: in CSV, columns in header order; in JSON,
    records keyed by the header, under "records" beside the estimate's
    scalar fields when it has any."""
    if args.format == "csv":
        _emit(_csv_text(header, rows), args.out)
        return
    records = [dict(zip(header, row)) for row in rows]
    _emit(_json_text({**scalars, "records": records} if scalars else records),
          args.out)


def _seeded_config(args, **extra) -> X.ExperimentConfig:
    return X.ExperimentConfig(
        n=args.n,
        r=args.r,
        alpha=args.alpha,
        p=args.p,
        trials=args.trials,
        rng_seed=args.seed,
        seed_policy=args.seed_policy,
        seeds_per_graph=args.seeds_per_graph,
        **extra,
    )


def _cmd_gnp_pki(args) -> int:
    est = X.estimate_Pki(_seeded_config(args, k_max=args.k_max),
                         workers=args.workers)
    _emit_table(("k", "i", "frequency", "stderr", "comparator"), est.rows(),
                args, n=est.n, r=est.r, p=est.p, eps=est.eps,
                seed_trials=est.seed_trials)
    return 0


def _emit_points(points, header, args) -> None:
    _emit_table(header, [[getattr(pt, name) for name in header] for pt in points],
                args)


def _cmd_gnp_seed_edge_sweep(args) -> int:
    points = X.seed_edge_sweep(
        args.n, args.alphas, trials=args.trials, rng_seed=args.seed,
        workers=args.workers,
    )
    _emit_points(points, ("alpha", "frequency", "stderr", "p", "trials"), args)
    return 0


def _cmd_gnp_susceptibility_sweep(args) -> int:
    points = X.susceptibility_sweep(
        args.n, args.alphas, trials=args.trials, rng_seed=args.seed,
        workers=args.workers,
    )
    header = (
        "alpha",
        "susceptible_freq",
        "susceptible_stderr",
        "spread_norm_mean",
        "spread_norm_p95",
        "beta_bound",
        "frac_within_beta",
        "p",
        "trials",
    )
    _emit_points(points, header, args)
    return 0


def _cmd_gnp_terminal(args) -> int:
    term = X.terminal_set_frequency(_seeded_config(args), workers=args.workers)
    _emit_table(("k", "i", "frequency"), term.rows(), args, n=term.n, r=term.r,
                p=term.p, seed_trials=term.seed_trials)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_out(p, fmt: bool = False):
    p.add_argument("--out", default=None, help="output file (default stdout)")
    if fmt:
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv",
            help="output format (default csv)",
        )


def _add_gnp_common(p):
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--r", type=int, required=True, help="infection threshold r")
    p.add_argument(
        "--alpha", type=float, default=None,
        help="alpha; sets p = (alpha/(n log^(r-1) n))^(1/r)",
    )
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument("--trials", type=int, default=200, help="graph samples")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--workers", type=int, default=0, help="worker processes")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootperc",
        description="Bootstrap percolation thresholds on G(n,p): exact counts, "
        "branching processes, growth eigenvalues, Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    th = sub.add_parser("thresholds", help="threshold scalars and inequality checks")
    th_sub = th.add_subparsers(dest="cmd", required=True)
    ev = th_sub.add_parser(
        "eval", help="evaluate one scalar quantity; JSON {name, value, ...}"
    )
    ev.add_argument("name", help=f"one of {sorted(_EVAL_SPECS)}")
    ev.add_argument("--r", type=int)
    ev.add_argument("--alpha", type=float)
    ev.add_argument("--beta", type=float)
    ev.add_argument("--gamma", type=float)
    ev.add_argument("--eps", type=float)
    ev.add_argument("--n", type=int, dest="n_")
    ev.add_argument("--ell", type=int)
    _add_out(ev)
    ev.set_defaults(func=_cmd_thresholds_eval)
    vf = th_sub.add_parser(
        "verify",
        help="sweep supporting inequalities over grids; exit 1 on violations",
    )
    vf.add_argument("--r", type=int, nargs="+", default=[2, 3, 4])
    vf.add_argument("--claims", nargs="+", default=None)
    vf.add_argument("--fast", action="store_true", help="reduced grid")
    _add_out(vf)
    vf.set_defaults(func=_cmd_thresholds_verify)

    ct = sub.add_parser("counts", help="minimally susceptible graph counts")
    ct_sub = ct.add_subparsers(dest="cmd", required=True)
    tb = ct_sub.add_parser("table", help="CSV table r,k,i,variant,count")
    tb.add_argument("--r", type=int, required=True)
    tb.add_argument("--k-max", type=int, required=True)
    tb.add_argument(
        "--variant",
        choices=(
            "exact",
            "triangle_free_lower",
            "triangle_free_lower_level_bounded",
        ),
        default="exact",
    )
    tb.add_argument("--level-bound", type=int, default=None)
    _add_out(tb)
    tb.set_defaults(func=_cmd_counts_table)
    nm = ct_sub.add_parser(
        "normalized", help="JSON record {r,k,i,kind,log_value}"
    )
    nm.add_argument("--r", type=int, required=True)
    nm.add_argument("--k", type=int, required=True)
    nm.add_argument("--i", type=int, required=True)
    nm.add_argument("--kind", choices=("sigma", "rho_hat"), default="sigma")
    _add_out(nm)
    nm.set_defaults(func=_cmd_counts_normalized)

    bp = sub.add_parser("bp", help="time varying branching process")
    bp_sub = bp.add_subparsers(dest="cmd", required=True)
    sv = bp_sub.add_parser(
        "survive",
        help="MC survival probability; JSON for one eps, CSV eps,p_hat,"
        "stderr,asymptotic for a sweep",
    )
    sv.add_argument("--r", type=int, required=True)
    sv.add_argument("--eps", type=float, nargs="+", required=True)
    sv.add_argument("--trials", type=int, default=10000)
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--c1", type=float, default=4.0, help="survival cut at c1*k_r steps")
    sv.add_argument("--m", type=int, default=50, help="population needed at the cut")
    sv.add_argument("--hard-cap-factor", type=float, default=10.0)
    _add_out(sv)
    sv.set_defaults(func=_cmd_bp_survive)
    ht = bp_sub.add_parser(
        "hit", help="P(set process visits (k,i)); exact, optionally with MC"
    )
    ht.add_argument("--r", type=int, required=True)
    ht.add_argument("--eps", type=float, required=True)
    ht.add_argument("--k", type=int, required=True)
    ht.add_argument("--i", type=int, required=True)
    ht.add_argument("--mc", action="store_true")
    ht.add_argument("--trials", type=int, default=None,
                    help="MC trials, only with --mc (default 10000)")
    ht.add_argument("--seed", type=int, default=None,
                    help="MC seed, only with --mc (default 0)")
    _add_out(ht)
    ht.set_defaults(func=_cmd_bp_hit)

    sp = sub.add_parser("spectral", help="growth eigenvalue of the count recursion")
    sp_sub = sp.add_subparsers(dest="cmd", required=True)
    lm = sp_sub.add_parser("lambda", help="JSON {r, ell, lambda, iterations}")
    lm.add_argument("--r", type=int, required=True)
    lm.add_argument("--ell", type=int, required=True)
    lm.add_argument("--method", choices=("psi", "dlambda"), default="psi")
    lm.add_argument("--tol", type=float, default=None,
                    help="psi: relative width of the Collatz-Wielandt "
                    "bounds; dlambda: |rho(D_lambda A) - 1| (default 1e-13 "
                    "for psi, 1e-10 for dlambda); a tol below (ell + 1) "
                    "machine epsilons exits 2 at once")
    _add_out(lm)
    lm.set_defaults(func=_cmd_spectral_lambda)

    gnp = sub.add_parser("gnp", help="G(n,p) Monte Carlo experiments")
    gnp_sub = gnp.add_subparsers(dest="cmd", required=True)

    sm = gnp_sub.add_parser(
        "sample", help="one graph sample; JSON header {n, edges} then u v lines"
    )
    sm.add_argument("--n", type=int, required=True)
    sm.add_argument("--r", type=int, default=None,
                    help="threshold for --alpha, not with --p (default 2)")
    sm.add_argument("--alpha", type=float, default=None)
    sm.add_argument("--p", type=float, default=None)
    sm.add_argument("--seed", type=int, default=0)
    _add_out(sm)
    sm.set_defaults(func=_cmd_gnp_sample)

    pk = gnp_sub.add_parser(
        "pki",
        help="visit frequencies of (|V_t|,|I_t|)=(k,i); CSV k,i,frequency,"
        "stderr,comparator",
    )
    _add_gnp_common(pk)
    pk.add_argument("--seeds-per-graph", type=int, default=1)
    pk.add_argument("--seed-policy", choices=("random", "all"), default="random")
    pk.add_argument("--k-max", type=int, default=12)
    _add_out(pk, fmt=True)
    pk.set_defaults(func=_cmd_gnp_pki)

    se = gnp_sub.add_parser(
        "seed-edge-sweep",
        help="frequency of a contagious edge vs alpha (r=2); CSV alpha,"
        "frequency,stderr,p,trials",
    )
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--alphas", type=float, nargs="+", required=True)
    se.add_argument("--trials", type=int, default=200)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--workers", type=int, default=0)
    _add_out(se, fmt=True)
    se.set_defaults(func=_cmd_gnp_seed_edge_sweep)

    su = gnp_sub.add_parser(
        "susceptibility-sweep",
        help="exhaustive 2-susceptibility vs alpha; CSV alpha,susceptible_freq,"
        "susceptible_stderr,spread_norm_mean,spread_norm_p95,beta_bound,"
        "frac_within_beta,p,trials",
    )
    su.add_argument("--n", type=int, required=True)
    su.add_argument("--alphas", type=float, nargs="+", required=True)
    su.add_argument("--trials", type=int, default=200)
    su.add_argument("--seed", type=int, default=0)
    su.add_argument("--workers", type=int, default=0)
    _add_out(su, fmt=True)
    su.set_defaults(func=_cmd_gnp_susceptibility_sweep)

    tm = gnp_sub.add_parser(
        "terminal",
        help="terminal (|V_tau|,|I_tau|) frequencies; CSV k,i,frequency",
    )
    _add_gnp_common(tm)
    tm.add_argument("--seeds-per-graph", type=int, default=1)
    tm.add_argument("--seed-policy", choices=("random", "all"), default="random")
    _add_out(tm, fmt=True)
    tm.set_defaults(func=_cmd_gnp_terminal)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, counting.CountingError, spectral.SpectralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
