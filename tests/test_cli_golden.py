"""Golden output bytes of small CLI invocations.

Each case runs `bootperc.cli.main` with `--out` and compares the SHA-256 of
the file it writes with a pinned hash.  The cases cover every G(n,p)
estimator in CSV and JSON (including the seed-policy "all" paths, alpha
lists given out of order, one pki case at n = 10^5 and both sweeps at the
gnp-threshold benchmark's sizes), one graph sample, branching-process
survival for one eps, for a sweep and with walks ending at the hard cap, the
exact hitting probability alone and with the MC at r = 2 and r = 3, the
bp-mc benchmark's three commands at 20,000 trials, count tables of all
three variants, one normalized count, one threshold scalar, the exact
benchmark's three growth-eigenvalue solves at ell = 40, and the
inequality verifier on the --fast grid and on the default grid.
A refactor that keeps every RNG draw in order and every formatter
unchanged keeps these hashes; any change to output bytes shows here.

A second test runs a small command of every subcommand twice, to stdout
and with `--out`, and requires the same bytes both ways.
"""

import argparse
import hashlib

import pytest

from bootperc.cli import _build_parser, main

GOLDEN = {
    "gnp-pki-csv": (
        ["gnp", "pki", "--n", "300", "--r", "2", "--alpha", "0.125",
         "--trials", "8", "--seeds-per-graph", "25", "--k-max", "8",
         "--seed", "13"],
        "86bc1d5ed89f4dee552c77fe6f2f55a95c8cbd4464de4a7f117e8635cdc61b9f",
    ),
    # full size: the pair decode and CSR build on 1.65 million edges
    "gnp-pki-csv-n100000": (
        ["gnp", "pki", "--n", "100000", "--r", "2", "--alpha", "0.125",
         "--trials", "1", "--seeds-per-graph", "200", "--k-max", "12",
         "--seed", "13"],
        "e91876570f17432f3338ebbb909d025ed250598058035689595c726d8bf4822a",
    ),
    "gnp-pki-json": (
        ["gnp", "pki", "--n", "24", "--r", "2", "--p", "0.2", "--trials", "3",
         "--seed-policy", "all", "--k-max", "6", "--seed", "5",
         "--format", "json"],
        "5a1bd53c7c8bfd9cddac823e5e111f7141a850ed1c71e0a8fbb4de94c779c87e",
    ),
    "gnp-terminal-csv": (
        ["gnp", "terminal", "--n", "100", "--r", "2", "--p", "0.08",
         "--trials", "8", "--seeds-per-graph", "5", "--seed", "4"],
        "a1f81ee7b9366e0e9725a8e7fe43360391ad06a44842b4b04d9063c4e009754d",
    ),
    "gnp-terminal-json": (
        ["gnp", "terminal", "--n", "20", "--r", "3", "--p", "0.35",
         "--trials", "3", "--seed-policy", "all", "--seed", "9",
         "--format", "json"],
        "81ba25715f6a025bf2486754469f058f8d83a821366b2f6a4a8d476bad415570",
    ),
    "gnp-seed-edge-sweep-csv": (
        ["gnp", "seed-edge-sweep", "--n", "200", "--alphas", "0.02", "0.75",
         "3.0", "--trials", "10", "--seed", "11"],
        "89b2bf46a53b8c480ef9a26921efcc0eecd557cdd040e61b3dbff90150a81a69",
    ),
    "gnp-seed-edge-sweep-json": (
        ["gnp", "seed-edge-sweep", "--n", "60", "--alphas", "3.0", "0.5",
         "8.0", "--trials", "12", "--seed", "21", "--format", "json"],
        "90de40feaf5474ae2c81d0ecc0a67af9878e2c5b1f77d5a47d10a7bff60da77c",
    ),
    # the gnp-threshold benchmark workload's commands at its first round's
    # seeds, where most candidate wedges stop at three vertices
    "gnp-seed-edge-sweep-n1000": (
        ["gnp", "seed-edge-sweep", "--n", "1000", "--alphas", "0.02", "0.75",
         "3.0", "--trials", "40", "--seed", "11", "--workers", "0"],
        "ef909fb873ead0374abbb2e79f1ae116ed841f1462f0941dc6ef324287f89ab6",
    ),
    "gnp-susceptibility-sweep-n2000": (
        ["gnp", "susceptibility-sweep", "--n", "2000", "--alphas", "0.0125",
         "5.0", "--trials", "24", "--seed", "12", "--workers", "0"],
        "b8eafa9cd8b3ab421d7f9a6060eacd996c5ac5c8caa6240c775a28d77bb04a4c",
    ),
    "gnp-susceptibility-sweep-csv": (
        ["gnp", "susceptibility-sweep", "--n", "150", "--alphas", "0.0125",
         "5.0", "--trials", "6", "--seed", "12"],
        "be1cccea66039aa8c45559b94988633ebb1c8baad6b2dd883733ac99c503b6d9",
    ),
    "gnp-susceptibility-sweep-json": (
        ["gnp", "susceptibility-sweep", "--n", "40", "--alphas", "6.0", "0.5",
         "2.0", "--trials", "10", "--seed", "22", "--format", "json"],
        "34911084c48be0e616d1dd06c7248702028259a9fddacfc9994d2b2223036182",
    ),
    "gnp-sample": (
        ["gnp", "sample", "--n", "200", "--p", "0.05", "--seed", "7"],
        "dba28dccf51856d27d20a6e553a8540edac099fa5845bb0f76f4219f2d119725",
    ),
    "bp-survive-one": (
        ["bp", "survive", "--r", "2", "--eps", "0.2", "--trials", "2000",
         "--seed", "1"],
        "5d9607eb4856b85c606f4b10ff43232214594412a8e7fde60962740c4f753f18",
    ),
    "bp-survive-sweep": (
        ["bp", "survive", "--r", "3", "--eps", "0.2", "0.3", "--trials", "1000",
         "--seed", "1"],
        "4ab3b2ebfe7cda9b195e6c8fedb3639afe18ca90b33d82a04b5b5f1af889feb4",
    ),
    # --m beyond reach: the surviving walks end at hard_cap
    "bp-survive-hard-cap": (
        ["bp", "survive", "--r", "2", "--eps", "0.2", "--trials", "500",
         "--m", "1000000", "--seed", "3"],
        "49f1d2b40798a58de48965c8f85c53433972e861af46b8333bf495121e5abb5c",
    ),
    "bp-hit-exact": (
        ["bp", "hit", "--r", "2", "--eps", "0.1", "--k", "4", "--i", "2"],
        "2facaf7f2c31d48da2f0da0f25b6fb9c121c6ab1a118db094a122ac31aaf1f26",
    ),
    "bp-hit-mc": (
        ["bp", "hit", "--r", "2", "--eps", "0.1", "--k", "4", "--i", "2",
         "--mc", "--trials", "3000"],
        "35da4b7d6d9258ab0eddb7a6cd505c961e0b25776abd9000f240cccca347cd42",
    ),
    "bp-hit-mc-r3": (
        ["bp", "hit", "--r", "3", "--eps", "0.2", "--k", "5", "--i", "1",
         "--mc", "--trials", "3000", "--seed", "7"],
        "2d97b129f37e574b04929b6e05d492ec8fa119b2469ab33f88a72788a0c2dc11",
    ),
    # the bp-mc benchmark workload's commands at its first round's seeds
    "bp-survive-r2-20000": (
        ["bp", "survive", "--r", "2", "--eps", "0.1", "0.2", "--trials", "20000",
         "--seed", "4096"],
        "fd5b97968ff4a8a858ec7a0edf3b7738501365d7ac9c2213de7051dedc16c357",
    ),
    "bp-survive-r3-20000": (
        ["bp", "survive", "--r", "3", "--eps", "0.2", "--trials", "20000",
         "--seed", "4096"],
        "7e59ad0e513d7b03af9200ca782f43598d9fe221e4b99a14e74287ee2843212d",
    ),
    "bp-hit-mc-20000": (
        ["bp", "hit", "--r", "2", "--eps", "0.1", "--k", "4", "--i", "1",
         "--mc", "--trials", "20000", "--seed", "2024"],
        "0e27c6c7a7816f57607b05e6f576d4dc59981a7709f49af8b83f950b5191948b",
    ),
    "counts-table": (
        ["counts", "table", "--r", "2", "--k-max", "30"],
        "7914ad41ef4fd70da07fa8596b3b44a606d8f45a85809693bb37ad78639ca6b4",
    ),
    "counts-table-r4": (
        ["counts", "table", "--r", "4", "--k-max", "60"],
        "4cdd5b06c86c28ea1b885f44894f90ad863c5c4c815a12234b05a30a9a30a07a",
    ),
    "counts-table-triangle-free": (
        ["counts", "table", "--r", "3", "--k-max", "40", "--variant",
         "triangle_free_lower"],
        "4c86fd646ad6afa636cd63b665210d4e15c46f3d40a7ddf98b125b3ff1a6748f",
    ),
    "counts-table-level-bounded": (
        ["counts", "table", "--r", "3", "--k-max", "40", "--variant",
         "triangle_free_lower_level_bounded", "--level-bound", "6"],
        "4eb2280eacabb611575d22341ae78f991dd88f008378a3edafd0ce165e60a2f7",
    ),
    "counts-normalized": (
        ["counts", "normalized", "--r", "2", "--k", "6", "--i", "2"],
        "5cc802195f097ea1b10c018b854ebaa6d36549a2fcde9da5cecbac2af24bcaff",
    ),
    # the exact benchmark workload's three growth-eigenvalue solves
    "spectral-psi-r2-ell40": (
        ["spectral", "lambda", "--r", "2", "--ell", "40", "--method", "psi"],
        "5329fa14a0a04bd0ce312c73139f55838b2461ae0158da1ecb4e2675f409725b",
    ),
    "spectral-dlambda-r2-ell40": (
        ["spectral", "lambda", "--r", "2", "--ell", "40", "--method", "dlambda"],
        "158abe91bd980d45cfb4524de23f52909b916a55613e90c46477c9aea218ba45",
    ),
    "spectral-dlambda-r3-ell40": (
        ["spectral", "lambda", "--r", "3", "--ell", "40", "--method", "dlambda"],
        "99d014fc32a399aca5ec34f7ff39325bedf82c5010dd3984c220f6ac57cd464c",
    ),
    "thresholds-eval-beta-star": (
        ["thresholds", "eval", "beta_star", "--r", "2", "--alpha", "0.25"],
        "3c3bf45aae87de1dd4aaacc0e63a1206ff997f6eea16f448599541b162efa2f2",
    ),
    "thresholds-verify-fast": (
        ["thresholds", "verify", "--r", "2", "3", "4", "--fast"],
        "c2f3b8ba08074bb6d4011fa7cc4e944f0fa708f6c91486f89aad22fe7c248212",
    ),
    # default grid: the array-screened claims at full size
    "thresholds-verify-r2-default-grid": (
        ["thresholds", "verify", "--r", "2", "--claims",
         "small_beta_domination", "penalized_min", "mu_eps_gamma_concavity"],
        "002d029eb3e9f4a7065a178d3401c17453edb45fb6478d4594eb98a1204b5f73",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_bytes_are_golden(name, tmp_path):
    argv, want = GOLDEN[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


# One small command of every subcommand, and the other output shape of the
# commands that have two.
SMALL = {
    "thresholds-eval": ["thresholds", "eval", "theta", "--r", "2", "--alpha",
                        "1.0", "--n", "100"],
    "thresholds-verify": ["thresholds", "verify", "--r", "2", "--fast",
                          "--claims", "penalized_min"],
    "counts-table": ["counts", "table", "--r", "3", "--k-max", "9"],
    "counts-normalized": ["counts", "normalized", "--r", "3", "--k", "7",
                          "--i", "2", "--kind", "rho_hat"],
    "bp-survive-one": ["bp", "survive", "--r", "2", "--eps", "0.2",
                       "--trials", "200", "--seed", "1"],
    "bp-survive-sweep": ["bp", "survive", "--r", "2", "--eps", "0.1", "0.2",
                         "--trials", "100", "--seed", "2"],
    "bp-hit": ["bp", "hit", "--r", "2", "--eps", "0.1", "--k", "4", "--i", "1",
               "--mc", "--trials", "200", "--seed", "3"],
    "spectral-lambda": ["spectral", "lambda", "--r", "2", "--ell", "6"],
    "gnp-sample": ["gnp", "sample", "--n", "30", "--r", "2", "--alpha", "1.0",
                   "--seed", "4"],
    "gnp-pki-csv": ["gnp", "pki", "--n", "60", "--r", "2", "--p", "0.08",
                    "--trials", "3", "--seeds-per-graph", "4", "--k-max", "6",
                    "--seed", "5"],
    "gnp-pki-json": ["gnp", "pki", "--n", "60", "--r", "2", "--p", "0.08",
                     "--trials", "3", "--seeds-per-graph", "4", "--k-max", "6",
                     "--seed", "5", "--format", "json"],
    "gnp-seed-edge-sweep-csv": ["gnp", "seed-edge-sweep", "--n", "40",
                                "--alphas", "0.5", "3.0", "--trials", "3",
                                "--seed", "6"],
    "gnp-seed-edge-sweep-json": ["gnp", "seed-edge-sweep", "--n", "40",
                                 "--alphas", "0.5", "3.0", "--trials", "3",
                                 "--seed", "6", "--format", "json"],
    "gnp-susceptibility-sweep-csv": ["gnp", "susceptibility-sweep", "--n",
                                     "40", "--alphas", "0.5", "3.0",
                                     "--trials", "3", "--seed", "7"],
    "gnp-susceptibility-sweep-json": ["gnp", "susceptibility-sweep", "--n",
                                      "40", "--alphas", "0.5", "3.0",
                                      "--trials", "3", "--seed", "7",
                                      "--format", "json"],
    "gnp-terminal-csv": ["gnp", "terminal", "--n", "40", "--r", "2", "--p",
                         "0.1", "--trials", "3", "--seeds-per-graph", "3",
                         "--seed", "8"],
    "gnp-terminal-json": ["gnp", "terminal", "--n", "12", "--r", "2", "--p",
                          "0.3", "--trials", "2", "--seed-policy", "all",
                          "--seed", "8", "--format", "json"],
}


def _subcommands():
    """(group, command) for every subcommand of the parser."""
    def choices(parser):
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    return {(group, cmd) for group, sub in choices(_build_parser()).items()
            for cmd in choices(sub)}


def test_small_commands_cover_every_subcommand():
    covered = {tuple(argv[:2]) for argv in SMALL.values()}
    assert len(_subcommands()) == 12
    assert covered == _subcommands()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_stdout_and_out_file_carry_the_same_bytes(name, tmp_path, capsys):
    argv = SMALL[name]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed and printed == out.read_bytes()
