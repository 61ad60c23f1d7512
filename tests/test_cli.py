import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from bootperc import counting
from bootperc import experiments as X
from bootperc.cli import _EVAL_SPECS, _build_parser, main
from bootperc.engine import read_graph


def test_readme_cli_commands_parse():
    # every command of README's CLI block, `\` continuations joined, must
    # parse, so documented flags cannot drift from the parser; none is run
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) >= 10
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "bootperc", line
        args = _build_parser().parse_args(argv[1:])
        assert callable(args.func), line


def test_thresholds_eval_json(capsys):
    assert main(["thresholds", "eval", "critical_alpha", "--r", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"name": "critical_alpha", "r": 2, "value": 0.25}


def test_thresholds_eval_theta(capsys):
    assert (
        main(
            ["thresholds", "eval", "theta", "--r", "2", "--alpha", "1.0", "--n", "100"]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(
        (1.0 / (100 * math.log(100))) ** 0.5, rel=1e-15
    )


def test_thresholds_eval_unknown_name(capsys):
    assert main(["thresholds", "eval", "nonsense", "--r", "2"]) == 2
    assert "unknown quantity" in capsys.readouterr().err


def test_thresholds_eval_missing_argument(capsys):
    assert main(["thresholds", "eval", "theta", "--r", "2"]) == 2
    assert "requires --alpha" in capsys.readouterr().err


_EVAL_VALID = {"r": "2", "alpha": "1.0", "beta": "0.5", "gamma": "0.25",
               "eps": "0.1", "n": "100", "ell": "1"}
_EVAL_FLOATS = ("alpha", "beta", "gamma", "eps")


def test_every_eval_quantity_without_a_float_argument_is_listed():
    # so that the test below reaches every quantity that takes a float
    no_float = {name for name, (_, needed) in _EVAL_SPECS.items()
                if not set(needed) & set(_EVAL_FLOATS)}
    assert no_float == {"critical_alpha", "critical_alpha_H", "zeta_three_halves"}


@pytest.mark.parametrize("bad", ["inf", "nan"])
@pytest.mark.parametrize(
    "name, field",
    [(name, field) for name, (_, needed) in _EVAL_SPECS.items()
     for field in needed if field in _EVAL_FLOATS],
)
def test_thresholds_eval_rejects_a_non_finite_argument(name, field, bad, capsys):
    argv = ["thresholds", "eval", name]
    for f in _EVAL_SPECS[name][1]:
        argv += [f"--{f}", _EVAL_VALID[f]]
    assert main(argv) == 0
    json.loads(capsys.readouterr().out)
    argv[argv.index(f"--{field}") + 1] = bad
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err


def test_sweep_rejects_an_infinite_alpha_by_name(capsys):
    argv = ["gnp", "susceptibility-sweep", "--n", "50", "--alphas", "inf",
            "--trials", "2"]
    assert main(argv) == 2
    assert "alpha must be finite and positive, got inf" in capsys.readouterr().err


def test_thresholds_verify_fast_clean(capsys):
    assert main(["thresholds", "verify", "--fast", "--r", "2", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(claim["violations"] == [] for claim in report["claims"])


def test_counts_table_round_trip(tmp_path):
    out = str(tmp_path / "t.csv")
    assert main(["counts", "table", "--r", "2", "--k-max", "6", "--out", out]) == 0
    with open(out) as fp:
        table = counting.table_from_csv(fp)
    want = counting.build_count_table(2, 6)
    assert table.entries == want.entries


def test_counts_table_stdout_matches_out_file(tmp_path, capsys):
    argv = ["counts", "table", "--r", "3", "--k-max", "14", "--variant",
            "triangle_free_lower_level_bounded", "--level-bound", "4"]
    out = tmp_path / "t.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    assert printed == out.read_bytes()
    assert printed.startswith(
        b"r,k,i,variant,count\r\n3,4,1,triangle_free_lower_level_bounded(4),1\r\n")


def test_counts_normalized_record(capsys):
    assert main(["counts", "normalized", "--r", "2", "--k", "6", "--i", "2"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["kind"] == "sigma" and rec["k"] == 6 and rec["i"] == 2


@pytest.mark.parametrize("i", ["5", "0"])
def test_counts_normalized_outside_the_table_exits_2(i, capsys):
    assert main(["counts", "normalized", "--r", "2", "--k", "6", "--i", i]) == 2
    assert capsys.readouterr().err.startswith("error: need r < k and 1 <= i")


def test_counts_table_level_bound_needs_level_bounded_variant(capsys):
    argv = ["counts", "table", "--r", "2", "--k-max", "5", "--level-bound", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: level_bound is not used")


def test_bp_survive_single_json(capsys):
    assert (
        main(
            [
                "bp", "survive", "--r", "2", "--eps", "0.2",
                "--trials", "400", "--seed", "1",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"r", "eps", "trials", "p_hat", "stderr", "asymptotic"}
    assert payload["trials"] == 400


def test_bp_survive_sweep_csv(capsys):
    assert (
        main(
            [
                "bp", "survive", "--r", "2", "--eps", "0.1", "0.2",
                "--trials", "200", "--seed", "1",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "eps,p_hat,stderr,asymptotic"
    assert len(lines) == 3


def test_bp_hit_exact_and_mc(capsys):
    assert (
        main(
            [
                "bp", "hit", "--r", "2", "--eps", "0.1", "--k", "4", "--i", "2",
                "--mc", "--trials", "3000", "--seed", "7",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    se = max(payload["stderr"], math.sqrt(payload["exact"] / 3000))
    assert abs(payload["p_hat"] - payload["exact"]) < 4 * se


def test_spectral_lambda_methods_agree(capsys):
    assert main(["spectral", "lambda", "--r", "2", "--ell", "5"]) == 0
    psi = json.loads(capsys.readouterr().out)
    assert (
        main(["spectral", "lambda", "--r", "2", "--ell", "5", "--method", "dlambda"])
        == 0
    )
    dla = json.loads(capsys.readouterr().out)
    assert set(psi) == {"r", "ell", "lambda", "iterations"}
    assert psi["lambda"] == pytest.approx(dla["lambda"], abs=1e-8)


@pytest.mark.parametrize("tol", ["0", "-1e-10", "nan", "inf"])
def test_spectral_dlambda_rejects_bad_tol_at_once(tol, capsys):
    argv = ["spectral", "lambda", "--r", "2", "--ell", "40", "--method",
            "dlambda", f"--tol={tol}"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: tol must be finite and > 0")


@pytest.mark.parametrize("method", ["dlambda", "psi"])
def test_spectral_rejects_tol_below_double_resolution_at_once(method, capsys):
    # dlambda used to run 500,000 power iterations (9.4 s) before failing
    argv = ["spectral", "lambda", "--r", "2", "--ell", "40", "--method",
            method, "--tol", "1e-20"]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().err.startswith("error: tol must be >=")


def test_spectral_psi_tol_below_its_floor_exits_2_at_once(capsys):
    # psi(A(2, 40))'s floor is 41 eps = 9.1e-15; 1e-17 ran out the
    # 500,000-iteration budget (10.6 s) before it exited 2
    argv = ["spectral", "lambda", "--r", "2", "--ell", "40", "--method", "psi",
            "--tol", "1e-17"]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().err.startswith("error: tol must be >= 9.1e-15")


def test_spectral_dlambda_meets_1e13_at_ell_2(capsys):
    # its inner solves at 1e-16 spent their budget (3.8 s) and exited 2
    argv = ["spectral", "lambda", "--r", "2", "--ell", "2", "--method",
            "dlambda", "--tol", "1e-13"]
    t0 = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - t0 < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["iterations"] < 5000
    assert payload["lambda"] == pytest.approx(0.6628958472738304, rel=1e-12)


def _spectral_lambda(capsys, *argv):
    assert main(["spectral", "lambda", "--r", "2", "--ell", "40", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_spectral_dlambda_tol_1e14_still_converges(capsys):
    fine = _spectral_lambda(capsys, "--method", "dlambda", "--tol", "1e-14")
    psi = _spectral_lambda(capsys)
    assert abs(fine["lambda"] - psi["lambda"]) < 1e-12


def test_spectral_psi_takes_tol(capsys):
    default = _spectral_lambda(capsys)
    loose = _spectral_lambda(capsys, "--method", "psi", "--tol", "1e-6")
    dla = _spectral_lambda(capsys, "--method", "dlambda")
    assert loose["iterations"] < default["iterations"]
    assert abs(loose["lambda"] - dla["lambda"]) < 1e-5


def test_spectral_psi_takes_ell_past_64(capsys):
    # --ell-budget (default 64) capped the dense lift, which is never formed
    assert main(["spectral", "lambda", "--r", "2", "--ell", "65",
                 "--method", "psi"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ell"] == 65 and 0.99 < payload["lambda"] < 1.0


def test_spectral_psi_never_forms_the_lift(capsys):
    # dense psi(A) at ell = 64 is 4096 x 4096 doubles (134 MB) and took about
    # 70 s to iterate; numpy reports its buffers to tracemalloc
    argv = ["spectral", "lambda", "--r", "2", "--ell", "64"]
    t0 = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - t0 < 2.0
    assert 0.99 < json.loads(capsys.readouterr().out)["lambda"] < 1.0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 64**4 / 32


@pytest.mark.parametrize(
    "argv",
    [
        ["counts", "table", "--r", "2", "--k-max", "100"],
        ["gnp", "sample", "--n", "1000", "--p", "0.5", "--seed", "1"],
    ],
    ids=["counts-table", "gnp-sample"],
)
def test_a_reader_that_closes_stdout_early_ends_the_output_quietly(argv):
    # 0.9 and 1.9 MB of text, past what a pipe buffers: the command is still
    # writing when the reader goes, as under `| head -1`
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.Popen([sys.executable, "-m", "bootperc.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert first.startswith((b"r,k,i,variant,count", b'{"n": 1000')) and err == b""


def test_gnp_sample_round_trip(tmp_path):
    out = str(tmp_path / "g.txt")
    assert (
        main(["gnp", "sample", "--n", "20", "--p", "0.3", "--seed", "1", "--out", out])
        == 0
    )
    with open(out) as fp:
        g = read_graph(fp)
    assert g.n == 20
    assert g.m > 0


def test_gnp_pki_byte_identical(tmp_path, capsys):
    argv = [
        "gnp", "pki", "--n", "150", "--r", "2", "--alpha", "0.125",
        "--trials", "8", "--seeds-per-graph", "10", "--k-max", "6",
        "--seed", "3",
    ]
    f1, f2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(argv + ["--out", f1]) == 0
    assert main(argv + ["--out", f2]) == 0
    with open(f1, "rb") as fa, open(f2, "rb") as fb:
        assert fa.read() == fb.read()
    assert main(argv + ["--format", "json", "--out", f1]) == 0
    with open(f1) as fp:
        payload = json.load(fp)
    assert payload["n"] == 150 and payload["records"]


def test_gnp_terminal_csv(capsys):
    assert (
        main(
            [
                "gnp", "terminal", "--n", "40", "--r", "2", "--alpha", "1.0",
                "--trials", "6", "--seeds-per-graph", "2", "--seed", "6",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,i,frequency"
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_gnp_sweeps_small(capsys):
    assert (
        main(
            [
                "gnp", "seed-edge-sweep", "--n", "120", "--alphas", "0.02", "3.0",
                "--trials", "5", "--seed", "4",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alpha,frequency,stderr,p,trials"
    freqs = [float(line.split(",")[1]) for line in lines[1:]]
    assert freqs == sorted(freqs)
    assert (
        main(
            [
                "gnp", "susceptibility-sweep", "--n", "120", "--alphas",
                "0.0125", "5.0", "--trials", "4", "--seed", "5",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("alpha,susceptible_freq")


def test_gnp_config_error_exit_2(capsys):
    assert (
        main(["gnp", "pki", "--n", "10", "--r", "2", "--alpha", "1", "--p", "0.5"])
        == 2
    )
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bp", "survive", "--r", "2", "--eps", "0.2", "--trials", "10",
         "--seed", "-1"],
        ["gnp", "pki", "--n", "30", "--r", "2", "--alpha", "0.5",
         "--trials", "4", "--k-max", "4", "--seed", "-3", "--workers", "0"],
        ["gnp", "pki", "--n", "30", "--r", "2", "--alpha", "0.5",
         "--trials", "4", "--k-max", "4", "--seed", "-3", "--workers", "2"],
    ],
)
def test_negative_seed_is_config_error_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[0, 2**64)" in err


def test_gnp_terminal_ignores_k_max(capsys):
    # k_max bounds only the (k, i) estimate: at r = 12 the default
    # k_max = 12 used to stop `gnp terminal`, which never reads it
    argv = ["gnp", "terminal", "--n", "40", "--r", "12", "--p", "0.9",
            "--trials", "2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,i,frequency"
    assert sum(float(line.split(",")[2]) for line in lines[1:]) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "argv",
    [
        # numpy's "negative dimensions are not allowed"
        ["gnp", "terminal", "--n", "10", "--r", "0", "--p", "0.5", "--trials", "2"],
        # ran every graph, then failed building the comparator table
        ["gnp", "pki", "--n", "20000", "--r", "1", "--p", "0.0001",
         "--trials", "20", "--seeds-per-graph", "50"],
        # exited 0
        ["gnp", "terminal", "--n", "30", "--r", "1", "--p", "0.1", "--trials", "2"],
        ["gnp", "pki", "--n", "30", "--r", "1", "--alpha", "1.0", "--trials", "2"],
    ],
)
def test_gnp_threshold_below_2_exits_2_before_any_trial(argv, capsys, monkeypatch):
    def no_trial(args):
        raise RuntimeError("a trial ran")

    monkeypatch.setattr(X, "_seeded_trial", no_trial)
    assert main(argv) == 2
    r = argv[argv.index("--r") + 1]
    assert capsys.readouterr().err == f"error: threshold r must be >= 2, got {r}\n"


def test_gnp_pki_k_max_not_past_r_exits_2(capsys):
    argv = ["gnp", "pki", "--n", "40", "--r", "2", "--p", "0.1", "--trials", "2",
            "--k-max", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: k_max must exceed r\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gnp", "pki", "--n", "30", "--r", "2", "--alpha", "0.5", "--trials", "2",
         "--k-max", "4"],
        ["gnp", "terminal", "--n", "30", "--r", "2", "--alpha", "0.5",
         "--trials", "2"],
        ["gnp", "seed-edge-sweep", "--n", "30", "--alphas", "1.0", "--trials", "2"],
        ["gnp", "susceptibility-sweep", "--n", "30", "--alphas", "1.0",
         "--trials", "2"],
    ],
    ids=["pki", "terminal", "seed-edge-sweep", "susceptibility-sweep"],
)
def test_negative_workers_is_config_error_exit_2(argv, capsys):
    # these ran serially and exited 0
    assert main([*argv, "--workers", "-1"]) == 2
    assert capsys.readouterr().err == "error: workers must be >= 0, got -1\n"


@pytest.mark.parametrize("sweep", ["seed-edge-sweep", "susceptibility-sweep"])
def test_zero_trial_sweep_is_config_error_exit_2(sweep, capsys):
    argv = ["gnp", sweep, "--n", "40", "--alphas", "1.0", "--trials", "0",
            "--seed", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: trials must be >= 1\n"


def test_bp_survive_rejects_policy_without_certificate(capsys):
    argv = ["bp", "survive", "--r", "2", "--eps", "0.2", "--trials", "100",
            "--m", "0", "--c1", "0", "--seed", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: c1 must be")


@pytest.mark.parametrize(
    "r, eps, extra",
    [
        (2, "1e-320", []),  # k_r(eps) is infinite
        (3, "1e-320", []),
        (2, "1e-307", []),  # k_r is finite, hard_cap_factor * c1 * k_r is not
        (2, "0.2", ["--hard-cap-factor", "1e308"]),
    ],
)
def test_bp_survive_rejects_walk_limits_that_overflow(r, eps, extra, capsys):
    # each ended in an OverflowError traceback, exit 1
    argv = ["bp", "survive", "--r", str(r), "--eps", eps, "--trials", "10", *extra]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: the walk's time limits overflow at r = {r}, eps = {float(eps)!r}\n"
    )


def test_bp_hit_mc_runs_at_tiny_eps(capsys):
    # no walk limits here: the set process stops at extinction or at k
    argv = ["bp", "hit", "--r", "2", "--eps", "1e-320", "--k", "4", "--i", "1",
            "--mc", "--trials", "10"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["p_hat"] == 0.0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bp", "hit", "--r", "2", "--eps", "0.1", "--k", "4", "--i", "2",
          "--trials", "5", "--seed", "9"], "--trials"),
        (["bp", "hit", "--r", "2", "--eps", "0.1", "--k", "4", "--i", "2",
          "--seed", "9"], "--seed"),
        (["gnp", "sample", "--n", "5", "--p", "0.5", "--r", "99", "--seed", "1"],
         "--r"),
    ],
)
def test_flags_that_would_be_ignored_exit_2(argv, flag, capsys):
    # bp hit reads --trials and --seed only with --mc; gnp sample reads --r
    # only with --alpha.  Each command exited 0 and ignored the flag
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} is read only with")


def test_gnp_sample_alpha_keeps_r_2_by_default(capsys):
    argv = ["gnp", "sample", "--n", "30", "--alpha", "1.0", "--seed", "4"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--r", "2"]) == 0
    assert capsys.readouterr().out == default
    assert main([*argv, "--r", "3"]) == 0
    assert capsys.readouterr().out != default


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
