"""Golden output bytes of small CLI invocations.

Each case runs `bootperc.cli.main` with `--out` and compares the SHA-256 of
the file it writes with a pinned hash.  The cases cover every G(n,p)
estimator in CSV and JSON (including the seed-policy "all" paths, alpha
lists given out of order, one pki case at n = 10^5 and both sweeps at the
gnp-threshold benchmark's sizes), branching-process
survival for one eps, for a sweep and with walks ending at the hard cap, the
hitting MC at r = 2 and r = 3, the bp-mc benchmark's three commands at
20,000 trials, count tables of all three variants, and the
inequality verifier on the --fast grid and on the default grid.
A refactor that keeps every RNG draw in order and every formatter
unchanged keeps these hashes; any change to output bytes shows here.
"""

import hashlib

import pytest

from bootperc.cli import main

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
